"""Capped disk boundaries, disk complexes, curve complexes, and splitting
distance.

One capped class list, the essential classes within the cap plus the
diagram's meridians, serves them all; a `CurveTable` keeps it, with the
pair and disk-test answers, across the calls that share the table.  Disk
boundaries are the classes of that list that bound on a side; they are the
vertices of the disk complex, tagged with the sides (red/blue) on which
they bound, and its edges join red-capable to blue-capable vertices meeting
in at most one point.  All "absence" verdicts are scoped by the
enumeration cap: the graphs are finite approximations of complexes that
generally are not.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .handlebody import HeegaardDiagram, bounds_disk
from .surface import (
    BudgetExhausted,
    CurveClass,
    SurfaceMismatch,
    _partition,
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


# Entry bounds of a CurveTable's stores.  A store that holds its bound
# stops growing; what it does not hold is computed again, so answers are the
# same either way.  Measured with tracemalloc on 64-bit CPython 3.11, a
# class with its cached corners and bucket takes 0.5-0.95 kB at genus 2-6
# (it has 6g - 3 coordinates, so it grows with the genus), a pair entry
# about 0.1 kB and a disk-test entry about 0.2 kB.  A full table then holds
# about 5 MB of classes, 26 MB of pairs and 10 MB of disk tests, and a CLI
# process, which keeps up to `cli.MAX_SESSION_TABLES` tables, at most four
# times that.  The pair bound covers genus-2 Λ at cap 18: 657 classes,
# 215,496 pairs.
MAX_STORED_CLASSES = 5_000
MAX_STORED_PAIRS = 250_000
MAX_STORED_DISK_TESTS = 50_000


def _stored(store: dict, bound: int, key, compute):
    """store[key], computed on a miss and kept while the store is below
    its bound."""
    if key in store:
        return store[key]
    value = compute()
    if len(store) < bound:
        store[key] = value
    return value


class CurveTable:
    """The curves, intersections and disk tests of one genus, kept across
    the Γ, Λ, classification and distance calls that share the table.

    It stores the complete class list of the largest cap enumerated without
    a budget, `intersection_at_most(a, b, 1)` per unordered pair of
    coordinate vectors, and `bounds_disk` per cut system and class.  Stored
    classes keep their cached homology buckets, so the `same_class` tests
    that place the meridians are mostly a tuple comparison already.
    Every stored answer is exact, so an output never depends on what the
    table held beforehand.

    A smaller cap is served by filtering the stored list by weight.  A
    class's listed representative is its least by (weight, coords), and
    weight orders first.  So a class has a representative within cap c
    exactly when its least one weighs at most c, and that representative is
    then its least within cap c too.  The filter keeps the list's
    (weight, coords) order, which is the order enumeration returns.
    A budgeted call always enumerates afresh: where a budget runs out
    depends on the candidates visited, not on the classes found.
    """

    def __init__(self, genus: int):
        self.genus = genus
        self._cap = 0                  # cap of the stored list; 0 for none
        self._classes: list[CurveClass] = []
        self._meets: dict[EdgeKey, Optional[int]] = {}
        self._disks: dict[tuple, bool] = {}

    def capped_curves(self, diagram: HeegaardDiagram, cap: int,
                      budget: Optional[int]) -> tuple[list[CurveClass], bool]:
        """The essential classes within the cap, plus the diagram's
        meridians (they bound whatever they weigh, so Γ always embeds), and
        whether the list is complete: on budget exhaustion it is partial,
        not certified."""
        certified = True
        if budget is None and cap <= self._cap:
            curves = [c for c in self._classes if c.weight <= cap]
        else:
            try:
                curves = enumerate_essential_curves(self.genus, cap, budget)
            except BudgetExhausted as exc:
                curves, certified = exc.partial, False
            if budget is None and len(curves) <= MAX_STORED_CLASSES:
                self._cap, self._classes = cap, list(curves)
        for z in diagram.red.curves + diagram.blue.curves:
            if not any(same_class(z, c) for c in curves):
                curves.append(z)
        return curves, certified

    def meets(self, a: CurveClass, b: CurveClass) -> Optional[int]:
        """i(a, b) when the curves meet in at most one point, else None."""
        return _stored(self._meets, MAX_STORED_PAIRS,
                       _edge_key(a.coords, b.coords),
                       lambda: intersection_at_most(a, b, 1))

    def bounds_disk(self, c: CurveClass, side: str,
                    diagram: HeegaardDiagram) -> bool:
        cut = tuple(z.coords for z in diagram.side(side).curves)
        return _stored(self._disks, MAX_STORED_DISK_TESTS, (cut, c.coords),
                       lambda: bounds_disk(c, side, diagram))

    def add_meeting_pairs(self, graph: _GraphCore,
                          pairs: Iterable[EdgeKey]) -> None:
        """Join each pair of classes that meet in at most one point."""
        for u, v in pairs:
            n = self.meets(graph.classes[u], graph.classes[v])
            if n is not None:
                graph.add_edge(u, v, n)


def _table_for(diagram: HeegaardDiagram,
               table: Optional[CurveTable]) -> CurveTable:
    """The given table, or a fresh one when there is none."""
    if table is None:
        return CurveTable(diagram.genus)
    if table.genus != diagram.genus:
        raise SurfaceMismatch(f"genus {table.genus} table for a genus "
                              f"{diagram.genus} diagram")
    return table


def enumerate_disk_boundaries(diagram: HeegaardDiagram, side: str, cap: int,
                              budget: Optional[int] = None
                              ) -> list[CurveClass]:
    """The classes of the capped list that bound a disk on the named side,
    which are the vertices of `build_gamma` colored with that side, in
    lexicographic order of coordinates.

    A budget overrun raises BudgetExhausted carrying the same view of the
    partial list.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    diagram.side(side)             # rejects a bad side name first
    table = CurveTable(diagram.genus)
    curves, certified = table.capped_curves(diagram, cap, budget)
    out = sorted((c for c in curves if table.bounds_disk(c, side, diagram)),
                 key=lambda c: c.coords)
    if not certified:
        raise BudgetExhausted("enumeration budget exhausted", out)
    return out


def build_gamma(diagram: HeegaardDiagram, cap: int,
                budget: Optional[int] = None,
                table: Optional[CurveTable] = None) -> DiskComplexGraph:
    """Vertices: disk boundaries on each side within the cap, merged with
    color sets.  Edges: exactly the red/blue pairs meeting in <= 1 point.

    On budget exhaustion the partial graph is returned flagged non-certified.
    """
    table = _table_for(diagram, table)
    return _gamma_of(table, diagram, cap,
                     *table.capped_curves(diagram, cap, budget))


def _gamma_of(table: CurveTable, diagram: HeegaardDiagram, cap: int,
              curves: list[CurveClass], certified: bool) -> DiskComplexGraph:
    graph = DiskComplexGraph(diagram, cap, certified)
    for c in curves:
        sides = {side for side in ("red", "blue")
                 if table.bounds_disk(c, side, diagram)}
        if sides:
            graph.add_vertex(c, sides)
    # Every color set is a nonempty subset of {red, blue}, so a pair is a
    # red/blue pair exactly when its colors together cover both sides.
    pairs = itertools.combinations_with_replacement(graph.vertex_keys(), 2)
    colors = graph.colors
    table.add_meeting_pairs(graph, ((u, v) for u, v in pairs
                                    if len(colors[u] | colors[v]) == 2))
    return graph


def build_lambda(diagram: HeegaardDiagram, cap: int,
                 budget: Optional[int] = None,
                 table: Optional[CurveTable] = None) -> LambdaGraph:
    """All essential classes within the cap; edges where curves meet in at
    most one point."""
    table = _table_for(diagram, table)
    return _lambda_of(table, diagram, cap,
                      *table.capped_curves(diagram, cap, budget))


def _lambda_of(table: CurveTable, diagram: HeegaardDiagram, cap: int,
               curves: list[CurveClass], certified: bool) -> LambdaGraph:
    graph = LambdaGraph(diagram.genus, cap, certified)
    for c in curves:
        graph.add_vertex(c)
    keys = graph.vertex_keys()
    if diagram.genus == 1:
        _add_farey_edges(graph, keys)
        return graph
    table.add_meeting_pairs(graph, itertools.combinations(keys, 2))
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
        # t; the fastest moves by top = max(key).  Its step c is positive:
        # p >= 0, and q < 0 only when p > 0, and then p - q > |q|.
        top = max(key)
        c, o = max(((q, s0), (p, r0), (p - q, r0 - s0)),
                   key=lambda f: abs(f[0]))
        for t in range(-((top + o) // c), (top - o) // c + 1):
            r, s = r0 + t * p, s0 + t * q
            j = index.get((abs(s), abs(r), abs(r - s)))
            if j is not None:
                pairs.add((i, j) if i < j else (j, i))
    for i, j in sorted(pairs):
        graph.add_edge(keys[i], keys[j], 1)


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
             budget: Optional[int] = None,
             table: Optional[CurveTable] = None) -> ClassificationVerdict:
    graph = build_gamma(diagram, cap, budget, table)
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
            raise InputError("bijection does not permute the vertex set")
        for (u, v), i in graph.edges.items():
            img = _edge_key(sigma[u], sigma[v])
            if graph.edges.get(img) != i:
                raise InputError(
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
        if self.value is None:
            raise AssertionError("a connected distance has no value")
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
    table = CurveTable(diagram.genus)
    curves, certified = table.capped_curves(diagram, cap, budget)
    gamma = _gamma_of(table, diagram, cap, curves, certified)
    e1 = tuple(sorted(tuple(map(tuple, e1))))
    e2 = tuple(sorted(tuple(map(tuple, e2))))
    for e in (e1, e2):
        if gamma.edges.get(e) != 1:
            raise InputError(f"{e} is not an i=1 edge of the capped complex")
    comp_of = _component_index(gamma)
    c1, c2 = comp_of[e1[0]], comp_of[e2[0]]
    if c1 == c2:
        return DistanceResult(True, 0, cap)
    lam = _lambda_of(table, diagram, cap, curves, certified)
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
