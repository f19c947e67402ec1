"""Capped disk boundaries, disk complexes, curve complexes, and splitting
distance.

One capped class list, the essential classes within the cap plus the
diagram's meridians, serves them all.  Disk boundaries are the classes of
that list that bound on a side; they are the vertices of the disk complex,
tagged with the sides (red/blue) on which they bound, and its edges join
red-capable to blue-capable vertices meeting in at most one point.  All
"absence" verdicts are scoped by the enumeration cap: the graphs are finite
approximations of complexes that generally are not.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .handlebody import HeegaardDiagram, bounds_disk
from .surface import (
    BudgetExhausted,
    CurveClass,
    _slope_of_vector,
    enumerate_essential_curves,
    intersection_at_most,
    same_class,
)

VertexKey = tuple[int, ...]
EdgeKey = tuple[VertexKey, VertexKey]


def _edge_key(u: VertexKey, v: VertexKey) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


class _GraphCore:
    """Shared vertex/edge bookkeeping for the capped complexes.  `_adj`
    indexes `edges` by endpoint; a self-loop lists its vertex once."""

    def __init__(self, genus: int, cap: int, certified: bool):
        self.genus = genus
        self.cap = cap
        self.certified = certified
        self.classes: dict[VertexKey, CurveClass] = {}
        self.colors: dict[VertexKey, frozenset] = {}
        self.edges: dict[EdgeKey, int] = {}
        self._adj: dict[VertexKey, list[VertexKey]] = {}

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
        if key in self.edges:
            self.edges[key] = min(self.edges[key], i)
            return
        self.edges[key] = i
        self._adj.setdefault(u, []).append(v)
        if u != v:
            self._adj.setdefault(v, []).append(u)

    def degree(self, u: VertexKey) -> int:
        return len(self._adj.get(u, ()))

    def neighbors(self, u: VertexKey) -> list[VertexKey]:
        return sorted(w for w in self._adj.get(u, ()) if w != u)


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


def _partition(keys: Iterable[VertexKey],
               pairs: Iterable[EdgeKey]) -> list[list[VertexKey]]:
    """Union-find: the classes of `keys` under the equivalence relation
    generated by `pairs`, each in the order its keys were given."""
    parent = {k: k for k in keys}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[VertexKey, list[VertexKey]] = {}
    for k in parent:
        groups.setdefault(find(k), []).append(k)
    return list(groups.values())


def components(graph: _GraphCore) -> list[list[VertexKey]]:
    """Connected components (vertex partition), deterministically ordered."""
    return sorted(sorted(g) for g in _partition(graph.classes, graph.edges))


def _component_index(graph: _GraphCore) -> dict[VertexKey, int]:
    """Each vertex's position in `components(graph)`."""
    return {v: idx for idx, comp in enumerate(components(graph))
            for v in comp}


def isolated_vertices(graph: _GraphCore) -> list[VertexKey]:
    """Vertices that are not the endpoint of any edge (a self-loop counts)."""
    return [v for v in graph.vertex_keys() if graph.degree(v) == 0]


def _capped_curves(diagram: HeegaardDiagram, cap: int,
                   budget: Optional[int]) -> tuple[list[CurveClass], bool]:
    """The essential classes within the cap, plus the diagram's meridians
    (they bound whatever they weigh, so Γ always embeds), and whether the
    list is complete: on budget exhaustion it is partial, not certified."""
    try:
        curves = enumerate_essential_curves(diagram.genus, cap, budget)
        certified = True
    except BudgetExhausted as exc:
        curves = exc.partial
        certified = False
    for z in diagram.red.curves + diagram.blue.curves:
        if not any(same_class(z, c) for c in curves):
            curves.append(z)
    return curves, certified


def enumerate_disk_boundaries(diagram: HeegaardDiagram, side: str, cap: int,
                              budget: Optional[int] = None) -> list[CurveClass]:
    """The classes of the capped list that bound a disk on the named side,
    which are the vertices of `build_gamma` colored with that side, in
    lexicographic order of coordinates.

    A budget overrun raises BudgetExhausted carrying the same view of the
    partial list.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    diagram.side(side)             # rejects a bad side name first
    curves, certified = _capped_curves(diagram, cap, budget)
    out = sorted((c for c in curves if bounds_disk(c, side, diagram)),
                 key=lambda c: c.coords)
    if not certified:
        raise BudgetExhausted("enumeration budget exhausted", out)
    return out


def build_gamma(diagram: HeegaardDiagram, cap: int,
                budget: Optional[int] = None) -> DiskComplexGraph:
    """Vertices: disk boundaries on each side within the cap, merged with
    color sets.  Edges: exactly the red/blue pairs meeting in <= 1 point.

    On budget exhaustion the partial graph is returned flagged non-certified.
    """
    return _gamma_of(diagram, cap, *_capped_curves(diagram, cap, budget))


def _gamma_of(diagram: HeegaardDiagram, cap: int, curves: list[CurveClass],
              certified: bool) -> DiskComplexGraph:
    graph = DiskComplexGraph(diagram, cap, certified)
    for c in curves:
        sides = {side for side in ("red", "blue")
                 if bounds_disk(c, side, diagram)}
        if sides:
            graph.add_vertex(c, sides)
    # Every color set is a nonempty subset of {red, blue}, so a pair is a
    # red/blue pair exactly when its colors together cover both sides.
    pairs = itertools.combinations_with_replacement(graph.vertex_keys(), 2)
    _add_meeting_pairs(graph, ((u, v) for u, v in pairs
                               if len(graph.colors[u] | graph.colors[v]) == 2))
    return graph


def build_lambda(diagram: HeegaardDiagram, cap: int,
                 budget: Optional[int] = None) -> LambdaGraph:
    """All essential classes within the cap; edges where curves meet in at
    most one point."""
    return _lambda_of(diagram, cap, *_capped_curves(diagram, cap, budget))


def _lambda_of(diagram: HeegaardDiagram, cap: int, curves: list[CurveClass],
               certified: bool) -> LambdaGraph:
    graph = LambdaGraph(diagram.genus, cap, certified)
    for c in curves:
        graph.add_vertex(c)
    keys = graph.vertex_keys()
    if diagram.genus == 1:
        _add_farey_edges(graph, keys)
        return graph
    _add_meeting_pairs(graph, itertools.combinations(keys, 2))
    return graph


def _bezout(p: int, q: int) -> tuple[int, int]:
    """(x, y) with p*x + q*y = 1, for coprime p and q (extended Euclid)."""
    a, b, x0, x1, y0, y1 = p, q, 1, 0, 0, 1
    while b:
        quot = a // b
        a, b = b, a - quot * b
        x0, x1 = x1, x0 - quot * x1
        y0, y1 = y1, y0 - quot * y1
    return x0 * a, y0 * a


def _add_farey_edges(graph: LambdaGraph, keys: list[VertexKey]) -> None:
    """Torus Λ: join the slopes (p, q) and (r, s) with |ps - qr| = 1.

    Slopes are taken up to sign, so the neighbours of (p, q) are exactly the
    slopes (r0 + t*p, s0 + t*q) for one solution of p*s0 - q*r0 = 1 and all
    integers t.  Along that progression one of the coordinates
    (|s|, |r|, |r - s|) moves by the vertex's own largest coordinate per
    step of t, so at most three neighbours have no coordinate above it.
    Scanning those finds each edge from its heavier end, or from both ends
    when their largest coordinates agree.  Edges are added in the order of
    the index pairs (i, j), i < j, so the adjacency lists list neighbours
    by index.
    """
    index = {k: i for i, k in enumerate(keys)}
    pairs = set()
    for i, key in enumerate(keys):
        p, q = _slope_of_vector(key)
        x, y = _bezout(p, q)
        r0, s0 = -y, x
        # The coordinates s, r and r - s move by q, p and p - q per step of
        # t; the fastest moves by top = max(key).
        top = max(key)
        c, o = max(((q, s0), (p, r0), (p - q, r0 - s0)),
                   key=lambda f: abs(f[0]))
        if c < 0:
            c, o = -c, -o
        for t in range(-((top + o) // c), (top - o) // c + 1):
            r, s = r0 + t * p, s0 + t * q
            j = index.get((abs(s), abs(r), abs(r - s)))
            if j is not None:
                pairs.add((i, j) if i < j else (j, i))
    for i, j in sorted(pairs):
        graph.add_edge(keys[i], keys[j], 1)


def _add_meeting_pairs(graph: _GraphCore, pairs: Iterable[EdgeKey]) -> None:
    """Join each pair of classes that meet in at most one point."""
    for u, v in pairs:
        n = intersection_at_most(graph.classes[u], graph.classes[v], 1)
        if n is not None:
            graph.add_edge(u, v, n)


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
    comp_of = _component_index(graph)
    least_edge: dict[int, EdgeKey] = {}
    for e in edges:
        least_edge.setdefault(comp_of[e[0]], e)
    critical = None
    if len(least_edge) >= 2:
        c1, c2 = sorted(least_edge)[:2]
        critical = (least_edge[c1], least_edge[c2], c1, c2)
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

    orbits = _partition(graph.classes, (uv for sigma in bijections
                                        for uv in sigma.items()))
    orbit_rep = {v: min(orbit) for orbit in orbits for v in orbit}

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


def _bfs_distance(graph: _GraphCore, sources: Iterable[VertexKey],
                  targets: Iterable[VertexKey]) -> DistanceResult:
    """Least number of edges from any source to any target: one
    multi-source BFS over the adjacency index."""
    sources, targets = set(sources), set(targets)
    if any(w not in graph.classes for w in sources | targets):
        raise KeyError("vertex not in the capped graph")
    if sources & targets:
        return DistanceResult(True, 0, graph.cap)
    seen = set(sources)
    frontier = list(sources)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for w in frontier:
            for z in graph._adj.get(w, ()):
                if z in seen:
                    continue
                if z in targets:
                    return DistanceResult(True, d, graph.cap)
                seen.add(z)
                nxt.append(z)
        frontier = nxt
    return DistanceResult(False, None, graph.cap)


def vertex_distance(graph: LambdaGraph, u: VertexKey,
                    v: VertexKey) -> DistanceResult:
    return _bfs_distance(graph, [u], [v])


def edge_distance(graph: LambdaGraph, e1: EdgeKey, e2: EdgeKey) -> DistanceResult:
    """Minimal endpoint-to-endpoint vertex distance; adjacent or touching
    edges have distance 0."""
    return component_distance(graph, [e1], [e2])


def component_distance(graph: LambdaGraph, c1: Sequence[EdgeKey],
                       c2: Sequence[EdgeKey]) -> DistanceResult:
    """Minimum of edge_distance over pairs of edges from the two components,
    found by one BFS from c1's endpoints to c2's endpoints."""
    if not c1 or not c2:
        raise ValueError("component distance needs nonempty edge sets")
    for e in [*c1, *c2]:
        if not graph.contains_edge(*e):
            raise KeyError(f"edge {e} not in the capped graph")
    return _bfs_distance(graph, [w for e in c1 for w in e],
                         [w for e in c2 for w in e])


def splitting_distance(diagram: HeegaardDiagram, e1, e2, cap: int,
                       budget: Optional[int] = None) -> DistanceResult:
    """Distance between the two splittings destabilized by the given edges
    of the diagram's disk complex.

    e1 and e2 must be recorded intersection-1 edges of the capped complex;
    the result is the distance between their components measured in the
    capped curve complex, and 0 when one component contains both (the cap
    does not distinguish the splittings).
    """
    curves, certified = _capped_curves(diagram, cap, budget)
    gamma = _gamma_of(diagram, cap, curves, certified)
    e1 = tuple(sorted(tuple(map(tuple, e1))))
    e2 = tuple(sorted(tuple(map(tuple, e2))))
    for e in (e1, e2):
        if gamma.edges.get(e) != 1:
            raise KeyError(f"{e} is not an i=1 edge of the capped complex")
    comp_of = _component_index(gamma)
    c1, c2 = comp_of[e1[0]], comp_of[e2[0]]
    if c1 == c2:
        return DistanceResult(True, 0, cap)
    lam = _lambda_of(diagram, cap, curves, certified)
    edges1 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c1]
    edges2 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c2]
    return component_distance(lam, edges1, edges2)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_graph(graph: _GraphCore, format: str = "json") -> bytes:
    """Byte-identical output for identical graphs; vertices and edges sorted."""
    keys = graph.vertex_keys()
    index = {k: i for i, k in enumerate(keys)}
    if format == "json":
        # Compact JSON with sorted keys, written without building the object
        # tree first: a graph has thousands of vertices and edges.
        colors = {c: json.dumps(sorted(c), separators=(",", ":"))
                  for c in {*graph.colors.values(), frozenset()}}
        vertices = ",".join(
            '{"colors":%s,"coords":[%s]}'
            % (colors[graph.colors.get(k, frozenset())],
               ",".join(map(str, k))) for k in keys)
        edges = ",".join('{"i":%d,"u":%d,"v":%d}' % (i, index[u], index[v])
                         for (u, v), i in sorted(graph.edges.items()))
        return ('{"cap":%s,"certified":%s,"edges":[%s],"genus":%s,'
                '"vertices":[%s]}\n'
                % (json.dumps(graph.cap), json.dumps(graph.certified), edges,
                   json.dumps(graph.genus), vertices)).encode()
    if format == "dot":
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
