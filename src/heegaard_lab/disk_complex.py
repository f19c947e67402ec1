"""Capped curve-level disk complexes and curve complexes.

Vertices are curve classes, tagged with the sides (red/blue) on which they
bound disks; edges join red-capable to blue-capable vertices meeting in at
most one point.  All "absence" verdicts are scoped by the enumeration cap:
the graphs are finite approximations of complexes that generally are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .handlebody import HeegaardDiagram, bounds_disk
from .parallel import pmap
from .surface import (
    BudgetExhausted,
    CurveClass,
    enumerate_essential_curves,
    intersection_at_most,
    same_class,
)

VertexKey = tuple[int, ...]
EdgeKey = tuple[VertexKey, VertexKey]


def _edge_key(u: VertexKey, v: VertexKey) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


class _GraphCore:
    """Shared vertex/edge bookkeeping for the capped complexes."""

    def __init__(self, genus: int, cap: int, certified: bool):
        self.genus = genus
        self.cap = cap
        self.certified = certified
        self.classes: dict[VertexKey, CurveClass] = {}
        self.colors: dict[VertexKey, frozenset] = {}
        self.edges: dict[EdgeKey, int] = {}

    def vertex_keys(self) -> list[VertexKey]:
        return sorted(self.classes)

    def edge_keys(self) -> list[EdgeKey]:
        return sorted(self.edges)

    def add_vertex(self, c: CurveClass, colors: Iterable[str] = ()) -> None:
        key = c.coords
        self.classes[key] = c
        self.colors[key] = self.colors.get(key, frozenset()) | frozenset(colors)

    def add_edge(self, u: VertexKey, v: VertexKey, i: int) -> None:
        key = _edge_key(u, v)
        if key in self.edges and self.edges[key] != i:
            self.edges[key] = min(self.edges[key], i)
        else:
            self.edges[key] = i

    def degree(self, u: VertexKey) -> int:
        return sum(1 for e in self.edges if u in e)

    def neighbors(self, u: VertexKey) -> list[VertexKey]:
        out = set()
        for (a, b) in self.edges:
            if a == u:
                out.add(b)
            if b == u:
                out.add(a)
        out.discard(u)
        return sorted(out)


class DiskComplexGraph(_GraphCore):
    """The capped disk complex of a diagram: vertices are disk boundaries
    colored by capable sides; a self-loop marks a both-capable class."""

    def __init__(self, diagram: HeegaardDiagram, cap: int, certified: bool):
        super().__init__(diagram.genus, cap, certified)
        self.diagram = diagram


class LambdaGraph(_GraphCore):
    """The capped curve complex: all essential classes within the cap, edges
    between classes meeting in at most one point.

    Every vertex is implicitly self-adjacent (a class is disjoint from its
    own parallel copy); stored edges are the proper pairs.
    """

    def contains_edge(self, u: VertexKey, v: VertexKey) -> bool:
        return u == v or _edge_key(u, v) in self.edges


def components(graph: _GraphCore) -> list[list[VertexKey]]:
    """Connected components (vertex partition), deterministically ordered."""
    parent = {v: v for v in graph.classes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[VertexKey, list[VertexKey]] = {}
    for v in graph.classes:
        groups.setdefault(find(v), []).append(v)
    return sorted([sorted(g) for g in groups.values()])


def isolated_vertices(graph: _GraphCore) -> list[VertexKey]:
    """Vertices that are not the endpoint of any edge (a self-loop counts)."""
    return [v for v in graph.vertex_keys() if graph.degree(v) == 0]


def build_gamma(diagram: HeegaardDiagram, cap: int,
                budget: Optional[int] = None) -> DiskComplexGraph:
    """Vertices: disk boundaries on each side within the cap, merged with
    color sets.  Edges: exactly the red/blue pairs meeting in <= 1 point.

    On budget exhaustion the partial graph is returned flagged non-certified.
    """
    try:
        curves = enumerate_essential_curves(diagram.genus, cap, budget)
        certified = True
    except BudgetExhausted as exc:
        curves = exc.partial
        certified = False
    # Meridians of either side bound by construction, whatever they weigh.
    for z in diagram.red.curves + diagram.blue.curves:
        if not any(same_class(z, c) for c in curves):
            curves = list(curves) + [z]
    graph = DiskComplexGraph(diagram, cap, certified)
    capable: dict[VertexKey, set] = {}
    side_sets = pmap(
        lambda c: {side for side in ("red", "blue")
                   if bounds_disk(c, side, diagram)},
        curves)
    for c, sides in zip(curves, side_sets):
        if sides:
            graph.add_vertex(c, sides)
            capable[c.coords] = sides
    for u in graph.vertex_keys():
        for v in graph.vertex_keys():
            if u > v:
                continue
            pair_ok = ("red" in capable[u] and "blue" in capable[v]) or \
                      ("blue" in capable[u] and "red" in capable[v])
            if not pair_ok:
                continue
            n = intersection_at_most(graph.classes[u], graph.classes[v], 1)
            if n is not None:
                graph.add_edge(u, v, n)
    return graph


def build_lambda(diagram: HeegaardDiagram, cap: int,
                 budget: Optional[int] = None) -> LambdaGraph:
    """All essential classes within the cap; edges where curves meet in at
    most one point."""
    try:
        curves = enumerate_essential_curves(diagram.genus, cap, budget)
        certified = True
    except BudgetExhausted as exc:
        curves = exc.partial
        certified = False
    # Keep the diagram's meridian classes so the disk complex always embeds.
    for z in diagram.red.curves + diagram.blue.curves:
        if not any(same_class(z, c) for c in curves):
            curves = list(curves) + [z]
    graph = LambdaGraph(diagram.genus, cap, certified)
    for c in curves:
        graph.add_vertex(c)
    keys = graph.vertex_keys()
    if diagram.genus == 1:
        # Torus fast path: one slope extraction per vertex, then integer
        # determinants for the whole pair loop.
        slopes = [(graph.classes[k].slope().p, graph.classes[k].slope().q)
                  for k in keys]
        for i in range(len(keys)):
            p, q = slopes[i]
            for j in range(i + 1, len(keys)):
                r, s = slopes[j]
                det = p * s - q * r
                if -1 <= det <= 1:
                    graph.add_edge(keys[i], keys[j], abs(det))
        return graph
    pairs = [(u, v) for i, u in enumerate(keys) for v in keys[i + 1:]]
    numbers = pmap(
        lambda uv: intersection_at_most(graph.classes[uv[0]],
                                        graph.classes[uv[1]], 1),
        pairs)
    for (u, v), n in zip(pairs, numbers):
        if n is not None:
            graph.add_edge(u, v, n)
    return graph


# ---------------------------------------------------------------------------
# Classification (incompressible / reducible / strongly irreducible / critical)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Certified positives carry witnesses; every absence is scoped by cap."""

    has_red_disk: bool
    has_blue_disk: bool
    red_witness: Optional[CurveClass]
    blue_witness: Optional[CurveClass]
    reducing_class: Optional[CurveClass]
    edge_witness: Optional[EdgeKey]
    critical_witness: Optional[tuple[EdgeKey, EdgeKey, int, int]]
    negative_claims_cap: int
    certified: bool

    def summary(self) -> str:
        if not (self.has_red_disk or self.has_blue_disk):
            return f"incompressible within cap {self.negative_claims_cap}"
        if self.reducing_class is not None:
            return f"reducible: {self.reducing_class.coords} bounds on both sides"
        if self.critical_witness is not None:
            e1, e2, c1, c2 = self.critical_witness
            return (f"critical within cap {self.negative_claims_cap}: edges "
                    f"{e1} and {e2} lie in components {c1} and {c2}")
        if self.has_red_disk and self.has_blue_disk and self.edge_witness is None:
            return (f"strongly irreducible within cap "
                    f"{self.negative_claims_cap}: disks on both sides, no edges")
        if self.edge_witness is not None:
            return f"edge present: {self.edge_witness}"
        return f"compressible on one side only within cap {self.negative_claims_cap}"


def classify(diagram: HeegaardDiagram, cap: int,
             budget: Optional[int] = None) -> ClassificationVerdict:
    graph = build_gamma(diagram, cap, budget)
    reds = sorted(v for v in graph.classes if "red" in graph.colors[v])
    blues = sorted(v for v in graph.classes if "blue" in graph.colors[v])
    both = sorted(v for v in graph.classes if len(graph.colors[v]) == 2)
    edges = graph.edge_keys()
    critical = None
    if edges:
        comp_of = {}
        for idx, comp in enumerate(components(graph)):
            for v in comp:
                comp_of[v] = idx
        comp_ids = sorted({comp_of[e[0]] for e in edges})
        if len(comp_ids) >= 2:
            per_comp = {}
            for e in edges:
                per_comp.setdefault(comp_of[e[0]], []).append(e)
            c1, c2 = comp_ids[0], comp_ids[1]
            critical = (min(per_comp[c1]), min(per_comp[c2]), c1, c2)
    return ClassificationVerdict(
        has_red_disk=bool(reds),
        has_blue_disk=bool(blues),
        red_witness=graph.classes[reds[0]] if reds else None,
        blue_witness=graph.classes[blues[0]] if blues else None,
        reducing_class=graph.classes[both[0]] if both else None,
        edge_witness=edges[0] if edges else None,
        critical_witness=critical,
        negative_claims_cap=cap,
        certified=graph.certified,
    )


# ---------------------------------------------------------------------------
# Symmetry quotients
# ---------------------------------------------------------------------------


def quotient_by_symmetry(graph: _GraphCore,
                         bijections: Sequence[dict]) -> _GraphCore:
    """Quotient the graph by declared vertex bijections (red/blue swaps are
    allowed; colors are united over orbits).

    Each bijection must permute the vertex set and preserve the edge set with
    recorded intersection numbers; otherwise it is rejected.
    """
    keys = set(graph.classes)
    for sigma in bijections:
        if set(sigma) != keys or set(sigma.values()) != keys:
            raise ValueError("bijection does not permute the vertex set")
        for (u, v), i in graph.edges.items():
            img = _edge_key(sigma[u], sigma[v])
            if graph.edges.get(img) != i:
                raise ValueError(
                    f"bijection does not preserve edge {(u, v)} (-> {img})")

    parent = {v: v for v in keys}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sigma in bijections:
        for u, v in sigma.items():
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    orbit_rep = {v: min(w for w in keys if find(w) == find(v)) for v in keys}

    if isinstance(graph, DiskComplexGraph):
        out: _GraphCore = DiskComplexGraph(graph.diagram, graph.cap,
                                           graph.certified)
    else:
        out = LambdaGraph(graph.genus, graph.cap, graph.certified)
    for v in graph.vertex_keys():
        rep = orbit_rep[v]
        out.add_vertex(graph.classes[rep], graph.colors[v])
    for (u, v), i in graph.edges.items():
        out.add_edge(orbit_rep[u], orbit_rep[v], i)
    return out


def find_destab_edge(graph: _GraphCore,
                     component: Sequence[VertexKey]) -> Optional[EdgeKey]:
    """Some edge of the component whose curves meet in exactly one point, or
    None within the cap."""
    comp = set(component)
    candidates = [e for e, i in graph.edges.items()
                  if i == 1 and e[0] in comp and e[1] in comp]
    return min(candidates) if candidates else None


# ---------------------------------------------------------------------------
# Distances in the capped curve complex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistanceResult:
    """A distance scoped by the enumeration cap.

    connected=True carries the exact capped-graph distance (an upper bound
    for the uncapped complex).  connected=False means no chain exists within
    the cap; the uncapped distance is not bounded by capped data.
    """

    connected: bool
    value: Optional[int]
    cap: int

    def require(self) -> int:
        if not self.connected:
            raise ValueError(f"not connected within cap {self.cap}")
        assert self.value is not None
        return self.value


def vertex_distance(graph: LambdaGraph, u: VertexKey,
                    v: VertexKey) -> DistanceResult:
    if u not in graph.classes or v not in graph.classes:
        raise KeyError("vertex not in the capped graph")
    if u == v:
        return DistanceResult(True, 0, graph.cap)
    adj: dict[VertexKey, list[VertexKey]] = {}
    for (a, b) in graph.edges:
        if a != b:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    frontier = [u]
    dist = {u: 0}
    while frontier:
        nxt = []
        for w in frontier:
            for z in adj.get(w, ()):
                if z not in dist:
                    dist[z] = dist[w] + 1
                    if z == v:
                        return DistanceResult(True, dist[z], graph.cap)
                    nxt.append(z)
        frontier = nxt
    return DistanceResult(False, None, graph.cap)


def edge_distance(graph: LambdaGraph, e1: EdgeKey, e2: EdgeKey) -> DistanceResult:
    """Minimal endpoint-to-endpoint vertex distance; adjacent or touching
    edges have distance 0."""
    for e in (e1, e2):
        if not graph.contains_edge(*e):
            raise KeyError(f"edge {e} not in the capped graph")
    best: Optional[int] = None
    for u in set(e1):
        for v in set(e2):
            r = vertex_distance(graph, u, v)
            if r.connected and (best is None or r.value < best):
                best = r.value
    if best is None:
        return DistanceResult(False, None, graph.cap)
    return DistanceResult(True, best, graph.cap)


def component_distance(graph: LambdaGraph, c1: Sequence[EdgeKey],
                       c2: Sequence[EdgeKey]) -> DistanceResult:
    """Minimum of edge_distance over pairs of edges from the two components."""
    if not c1 or not c2:
        raise ValueError("component distance needs nonempty edge sets")
    best: Optional[int] = None
    for e1 in c1:
        for e2 in c2:
            r = edge_distance(graph, e1, e2)
            if r.connected and (best is None or r.value < best):
                best = r.value
    if best is None:
        return DistanceResult(False, None, graph.cap)
    return DistanceResult(True, best, graph.cap)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def graph_to_jsonable(graph: _GraphCore) -> dict:
    keys = graph.vertex_keys()
    index = {k: i for i, k in enumerate(keys)}
    return {
        "genus": graph.genus,
        "cap": graph.cap,
        "certified": graph.certified,
        "vertices": [
            {"coords": list(k), "colors": sorted(graph.colors.get(k, ()))}
            for k in keys],
        "edges": [
            {"u": index[u], "v": index[v], "i": i}
            for (u, v), i in sorted(graph.edges.items())],
    }


def emit_graph(graph: _GraphCore, format: str = "json") -> bytes:
    """Byte-identical output for identical graphs; vertices and edges sorted."""
    if format == "json":
        return (json.dumps(graph_to_jsonable(graph), sort_keys=True,
                           separators=(",", ":")) + "\n").encode()
    if format == "dot":
        keys = graph.vertex_keys()
        index = {k: i for i, k in enumerate(keys)}
        lines = ["graph complex {"]
        for k in keys:
            colors = graph.colors.get(k, frozenset())
            if colors == {"red", "blue"}:
                color = "purple"
            elif colors:
                color = next(iter(colors))
            else:
                color = "black"
            label = ",".join(str(x) for x in k)
            lines.append(f'  v{index[k]} [label="{label}" color={color}];')
        for (u, v), i in sorted(graph.edges.items()):
            lines.append(f"  v{index[u]} -- v{index[v]} [label={i}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unsupported format {format!r}")
