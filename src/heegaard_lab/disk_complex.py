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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError
from .handlebody import HeegaardDiagram, bounds_disk
from .surface import (
    BudgetExhausted,
    CurveClass,
    SurfaceMismatch,
    _intersection,
    _partition,
    _slope_of_vector,
    algebraic_intersection,
    canonical_triangulation,
    enumerate_essential_curves,
    same_class,
)

VertexKey = tuple[int, ...]
EdgeKey = tuple[VertexKey, VertexKey]


_NO_COLORS: frozenset = frozenset()
_MISSING = object()     # a pair the store does not hold; None is an answer


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
        old = self.colors.get(key, _NO_COLORS)
        self.colors[key] = old | frozenset(colors) if colors else old

    def add_edge(self, u: VertexKey, v: VertexKey, i: int) -> None:
        """Join u and v with number i, keeping the least number of an edge
        added twice."""
        key = _edge_key(u, v)
        if key in self.edges:
            self.edges[key] = min(self.edges[key], i)
            return
        self._write_edges(((key, i),))

    def _write_edges(self, found: Iterable[tuple[EdgeKey, int]]) -> None:
        """Write each (key, i) as a new edge, in the given order: each key
        is (u, v) with u <= v, distinct from the others and from the
        edges already written.  Each adjacency list then lists its vertex's
        neighbours in that order."""
        edges, adj = self.edges, self._adj
        for key, i in found:
            u, v = key
            edges[key] = i
            adj.setdefault(u, []).append(v)
            if u != v:
                adj.setdefault(v, []).append(u)

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
# class with its cached corners and bucket takes 0.9 kB at genus 2 and 2.3
# kB at genus 6 (it has 6g - 3 coordinates and 4g - 2 corner triples), and
# the full stores take 24 MB of pairs and 5.3-5.4 MB of disk tests at genus
# 2-6 (their keys refer to the classes' own vectors and to the cut vectors
# the diagrams keep; the cut systems' word tables live on the diagrams).
# So a full table holds 34-41 MB, and a CLI process, which keeps up to
# `cli.MAX_SESSION_TABLES` tables, at most four times that.  The pair bound
# covers genus-2 Λ at cap 18: 657 classes, 215,496 pairs.
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

    It stores answers only: the complete class list of the largest cap
    enumerated without a budget, `intersection_at_most(a, b, 1)` per
    unordered pair of coordinate vectors, and `bounds_disk` per class and
    the tuple that the diagram's `CutSystem.vectors` keeps (the system's
    own `__eq__` and `__hash__` would run in Python on every lookup).  The
    meridians are placed afresh on each list served; most of the
    `same_class` tests that place them compare cached homology buckets.
    `meets` alone fills the pair store.  Γ's and Λ's pairs come sorted and
    distinct, so `add_meeting_pairs` and `_lambda_rows` read a stored
    answer in place under the pair's key and call `meets` only on a miss.
    A pair not yet stored is answered by homology, or reads a stored
    image's answer, so the pair ladder runs at most once per orbit of the
    pairs asked.  Every stored answer is exact, so an output never depends
    on what the table held beforehand.

    A smaller cap is served by cutting the stored list after its last class
    of weight at most c, found by bisecting the stored weights.  A class's
    listed representative is its least by (weight, coords), and weight
    orders first.  So a class has a representative within cap c exactly
    when its least one weighs at most c, and that representative is then
    its least within cap c too.  The list is in (weight, coords) order,
    the order enumeration returns, so those classes are a prefix of it.
    A budgeted call always enumerates afresh: where a budget runs out
    depends on the candidates visited, not on the classes found.
    """

    def __init__(self, genus: int):
        self.genus = genus
        self._cap = 0                  # cap of the stored list; 0 for none
        self._classes: list[CurveClass] = []
        self._weights: list[int] = []  # the stored classes' weights
        self._meets: dict[EdgeKey, Optional[int]] = {}
        self._disks: dict[tuple, bool] = {}

    def capped_curves(self, diagram: HeegaardDiagram, cap: int,
                      budget: Optional[int]) -> tuple[list[CurveClass], bool]:
        """The essential classes within the cap, plus the diagram's
        meridians (they bound whatever they weigh, so Γ always embeds), and
        whether the list is complete: on budget exhaustion it is partial,
        not certified.  Each caller gets a list of its own."""
        certified = True
        if budget is None and cap <= self._cap:
            curves = self._classes[:bisect_right(self._weights, cap)]
        else:
            try:
                curves = enumerate_essential_curves(self.genus, cap, budget)
            except BudgetExhausted as exc:
                curves, certified = exc.partial, False
            if budget is None and len(curves) <= MAX_STORED_CLASSES:
                self._cap, self._classes = cap, list(curves)
                self._weights = [c.weight for c in curves]
        return _with_meridians(diagram, curves), certified

    def meets(self, a: CurveClass, b: CurveClass) -> Optional[int]:
        """i(a, b) when the curves meet in at most one point, else None.

        A pair missing from the store whose homology classes pair to more
        than 1 is answered None, since |a . b| <= i(a, b).  Any other
        reads the answer stored for an image (σa, σb) under an automorphism
        σ of the triangulation: σ is a homeomorphism, so i(σa, σb) =
        i(a, b).  Only a pair with no stored image runs the ladder.  Either
        way the answer is stored under the pair's own key.  Homology first
        stores the same answers, since |σa . σb| = |a . b|, and skips the
        image lookups of the pairs it settles."""
        def afresh() -> Optional[int]:
            if algebraic_intersection(a, b) > 1:
                return None
            for perm in canonical_triangulation(self.genus).automorphisms[1:]:
                sigma = itemgetter(*perm)
                image = _edge_key(sigma(a.coords), sigma(b.coords))
                if image in self._meets:
                    return self._meets[image]
            return _intersection(a, b, 1)
        return _stored(self._meets, MAX_STORED_PAIRS,
                       _edge_key(a.coords, b.coords), afresh)

    def bounds_disk(self, c: CurveClass, side: str,
                    diagram: HeegaardDiagram) -> bool:
        cut = diagram.side(side).vectors
        return _stored(self._disks, MAX_STORED_DISK_TESTS, (cut, c.coords),
                       lambda: bounds_disk(c, side, diagram))

    def add_meeting_pairs(self, graph: _GraphCore,
                          pairs: Iterable[EdgeKey]) -> None:
        """Join each pair of classes that meet in at most one point.  The
        pairs come sorted and distinct, each (u, v) with u <= v, so each is
        its own store key and its own edge key, and the edges are written
        in pair order."""
        stored, classes, found = self._meets.get, graph.classes, []
        for key in pairs:
            n = stored(key, _MISSING)
            if n is _MISSING:
                n = self.meets(classes[key[0]], classes[key[1]])
            if n is not None:
                found.append((key, n))
        graph._write_edges(found)


def _with_meridians(diagram: HeegaardDiagram,
                    curves: list[CurveClass]) -> list[CurveClass]:
    """The list with each meridian not already on it by class appended."""
    for z in diagram.red.curves + diagram.blue.curves:
        if not any(same_class(z, c) for c in curves):
            curves.append(z)
    return curves


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
    curves, certified = table.capped_curves(diagram, cap, budget)
    return _gamma_on(diagram, cap, curves, certified, table)


def _gamma_on(diagram: HeegaardDiagram, cap: int, curves: list[CurveClass],
              certified: bool, table: CurveTable) -> DiskComplexGraph:
    """Γ on the capped list `curves`."""
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
    curves, certified = table.capped_curves(diagram, cap, budget)
    graph = LambdaGraph(diagram.genus, cap, certified)
    for c in curves:
        graph.add_vertex(c)
    keys = graph.vertex_keys()
    if diagram.genus == 1:
        _add_farey_edges(graph, keys)
        return graph
    table.add_meeting_pairs(graph, itertools.combinations(keys, 2))
    return graph


def _add_farey_edges(graph: LambdaGraph, keys: list[VertexKey]) -> None:
    """Torus Λ: join the listed slopes (p, q) and (r, s) with |ps - qr| = 1.

    A slope x has the vector (|det(x, e)|) over the edge slopes e = (1, 0),
    (0, 1), (1, 1), the base triangle T.  The triangles of pairwise adjacent
    slopes tile the disk as a tree rooted at T; a tile other than T has its
    third slope s = u + v across its edge uv nearer T.  No edge slope lies
    strictly between u and v, so no det(u, e) and det(v, e) have opposite
    signs: s has the sum of their vectors and outweighs both.  Each slope
    outside T is born in one tile, and each edge outside T joins a slope to
    an end of the edge uv of its tile.  So replacing each edge uv, from T's
    three on, by su and sv meets each edge once, 2V - 3 in all.

    The walk enters the tile of s only when no coordinate of s exceeds the
    largest value of that coordinate over the listed slopes within the cap.
    A slope born below the edge uv is au + bv with a, b >= 1, so each of its
    coordinates is at least that of s, and each edge below uv has such a
    slope as an end: a tile the test skips holds no listed edge.  A slope's
    weight is twice its largest coordinate, and no bound exceeds h = cap //
    2, so the walk never leaves the cap.  On a full list every bound is h
    (the slopes (1, h), (h, 1) and (1, 1 - h) reach them), and the test is
    the weight test: the walk loses no slope within the cap.  On a list cut
    short by a budget it walks only towards listed slopes.

    Edges with an unlisted end are dropped; a listed meridian heavier than
    the cap is joined by the determinant.  The walk and the rows of those
    meridians meet each pair once, so the edges are written without a
    merge, in index order (i, j), i < j, and the adjacency lists list
    neighbours by index.
    """
    index = {k: i for i, k in enumerate(keys)}
    cap, pairs = graph.cap, []
    weights = list(map(sum, keys))
    light = [k for k, w in zip(keys, weights) if w <= cap]
    m0, m1, m2 = map(max, zip(*light)) if light else (-1, -1, -1)
    base = [(v, index.get(v)) for v in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    todo = [(*a, *b) for a, b in itertools.combinations(base, 2) if cap >= 2]
    while todo:
        u, i, v, j = todo.pop()
        if i is not None and j is not None:
            pairs.append((i, j) if i < j else (j, i))
        s0, s1, s2 = u[0] + v[0], u[1] + v[1], u[2] + v[2]
        if s0 <= m0 and s1 <= m1 and s2 <= m2:
            s = (s0, s1, s2)
            k = index.get(s)
            todo.append((u, i, s, k))
            todo.append((v, j, s, k))
    for h, w in enumerate(weights):
        if w > cap:
            p, q = _slope_of_vector(keys[h])
            for j, other in enumerate(keys):
                r, s = _slope_of_vector(other)
                if abs(p * s - q * r) == 1 and (weights[j] <= cap or h < j):
                    pairs.append((min(h, j), max(h, j)))
    pairs.sort()
    graph._write_edges(zip(((keys[i], keys[j]) for i, j in pairs),
                           itertools.repeat(1)))


# ---------------------------------------------------------------------------
# Classification.  A Heegaard surface compresses on both sides: each meridian
# is on the class list, with or without a budget, and bounds on its own side.
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
        """Reducible, critical, strongly irreducible or edge present; never
        incompressible on a side: each meridian's word there is empty."""
        if self.reducing_class is not None:
            return f"reducible: {self.reducing_class.coords} bounds on both sides"
        if self.critical_witness is not None:
            e1, e2, c1, c2 = self.critical_witness
            return (f"critical within cap {self.negative_claims_cap}: edges "
                    f"{e1} and {e2} lie in components {c1} and {c2}")
        if self.edge_witness is None:
            return (f"strongly irreducible within cap "
                    f"{self.negative_claims_cap}: disks on both sides, no edges")
        return f"edge present: {self.edge_witness}"


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
        red_witness=graph.classes[reds[0]],
        blue_witness=graph.classes[blues[0]],
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

    connected=True carries the exact distance in the graph on the class
    list searched (an upper bound for the uncapped complex).
    connected=False means no chain exists on that list; the uncapped
    distance is not bounded by capped data.  certified=False marks a list
    cut short by its budget: the value covers only the classes found.  The
    repr omits the flag, since golden outputs pin printed results.
    """

    connected: bool
    value: Optional[int]
    cap: int
    certified: bool = field(default=True, repr=False)

    def require(self) -> int:
        if not self.connected:
            raise ValueError(f"not connected within cap {self.cap}")
        if self.value is None:
            raise AssertionError("a connected distance has no value")
        return self.value


def _bfs_distance(neighbours: Callable[[VertexKey], Iterable[VertexKey]],
                  sources: Iterable[VertexKey], targets: Iterable[VertexKey],
                  cap: int) -> DistanceResult:
    """Least number of edges from any source to any target, by one
    breadth-first search that grows from both sets and stops where they
    meet.  `neighbours(w)` lists the vertices adjacent to w, or is None
    when there are none (as `graph._adj.get` gives); the search asks for it
    once per vertex it expands, and expands each vertex at most once.

    Each side keeps the vertices it has labelled and its frontier, the
    vertices of its last level.  Each round the side with the smaller
    frontier expands one whole level.  The search returns at the first
    neighbour the other side has labelled, with d the number of levels
    both sides have expanded, and ends unconnected once either frontier
    is empty.

    The first meeting is a shortest path.  Let the sources' side have
    expanded a levels and the targets' side b.  Its labels are then the
    vertices within a of a source, and its frontier those at exactly a;
    likewise within and at b of a target.  While the two label sets are
    disjoint, every source-target path is longer than a + b: on a path of
    length L <= a + b, the vertex min(a, L) steps from its start is within
    a of a source and within b of a target.  Say the sources' side
    expands; the other case is symmetric.  A neighbour of its frontier
    that it has not labelled lies at exactly a + 1 from the sources.  If
    the targets' side has labelled it, it closes a path of at most
    a + 1 + b = d edges, and every path is longer than d - 1, so the
    distance is d.  If no neighbour meets, the new labels avoid the other
    side's, and the invariant holds for a + 1 and b.  A side whose
    frontier empties has labelled all it can reach and none of the other
    side's labels, so the sets are not connected.  A self-loop lists its
    vertex among its own neighbours, which its side has labelled already.
    """
    sources, targets = set(sources), set(targets)
    if sources & targets:
        return DistanceResult(True, 0, cap)
    seen = (sources, targets)
    frontiers = [list(sources), list(targets)]
    d = 0
    while frontiers[0] and frontiers[1]:
        side = len(frontiers[1]) < len(frontiers[0])
        mine, other = seen[side], seen[not side]
        d += 1
        nxt = []
        for w in frontiers[side]:
            for z in neighbours(w) or ():
                if z in mine:
                    continue
                if z in other:
                    return DistanceResult(True, d, cap)
                mine.add(z)
                nxt.append(z)
        frontiers[side] = nxt
    return DistanceResult(False, None, cap)


def _graph_distance(graph: _GraphCore, sources: Sequence[VertexKey],
                    targets: Sequence[VertexKey]) -> DistanceResult:
    """`_bfs_distance` over the graph's edges, between vertices of it."""
    if any(w not in graph.classes for w in (*sources, *targets)):
        raise KeyError("vertex not in the capped graph")
    return _bfs_distance(graph._adj.get, sources, targets, graph.cap)


def vertex_distance(graph: LambdaGraph, u: VertexKey,
                    v: VertexKey) -> DistanceResult:
    return _graph_distance(graph, [u], [v])


def edge_distance(graph: LambdaGraph, e1: EdgeKey, e2: EdgeKey) -> DistanceResult:
    """Minimal endpoint-to-endpoint vertex distance; adjacent or touching
    edges have distance 0."""
    return component_distance(graph, [e1], [e2])


def component_distance(graph: LambdaGraph, c1: Sequence[EdgeKey],
                       c2: Sequence[EdgeKey]) -> DistanceResult:
    """Minimum of edge_distance over pairs of edges from the two components,
    found by one search between c1's endpoints and c2's endpoints, which
    grows from both sets and stops where they meet (`_bfs_distance`).
    The first meeting is a shortest path: while the two sides' labels are
    disjoint, the sets lie further apart than the levels expanded, and the
    meeting vertex closes a path one edge longer than those levels."""
    if not c1 or not c2:
        raise ValueError("component distance needs nonempty edge sets")
    for e in [*c1, *c2]:
        if not graph.contains_edge(*e):
            raise KeyError(f"edge {e} not in the capped graph")
    return _graph_distance(graph, [w for e in c1 for w in e],
                           [w for e in c2 for w in e])


def _lambda_rows(curves: list[CurveClass], table: CurveTable
                 ) -> Callable[[VertexKey], list[VertexKey]]:
    """Λ's neighbours of a vertex of the capped list `curves`, computed when
    asked: the row of w is every listed class u != w with
    `table.meets(w, u)` not None, in list order, which are w's edges in
    `build_lambda` on the same list.  (At genus 1 `build_lambda` joins the
    slopes with |ps - qr| = 1, and distinct slopes meet |ps - qr| times.)
    A row reads each stored answer in place, under the pair's key with
    the lesser vector first, and calls `meets` only on a miss."""
    listed = {c.coords: c for c in curves}
    stored = table._meets.get

    def row(w: VertexKey) -> list[VertexKey]:
        a, out = listed[w], []
        for u in curves:
            if u is a:
                continue
            v = u.coords
            n = stored((w, v) if w <= v else (v, w), _MISSING)
            if n is _MISSING:
                n = table.meets(a, u)
            if n is not None:
                out.append(v)
        return out
    return row


def splitting_distance(diagram: HeegaardDiagram, e1, e2, cap: int,
                       budget: Optional[int] = None,
                       table: Optional[CurveTable] = None) -> DistanceResult:
    """Distance between the two splittings destabilized by the given edges
    of the diagram's disk complex.

    e1 and e2 must be recorded intersection-1 edges of the capped complex;
    the result is the distance between their components measured in the
    capped curve complex, and 0 when one component contains both (the cap
    does not distinguish the splittings).

    One capped list serves Γ and the search, which runs over
    `_lambda_rows`: Λ is never built whole, and only the pairs of the rows
    the search expands go through the table.
    """
    table = _table_for(diagram, table)
    curves, certified = table.capped_curves(diagram, cap, budget)
    gamma = _gamma_on(diagram, cap, curves, certified, table)
    e1 = tuple(sorted(tuple(map(tuple, e1))))
    e2 = tuple(sorted(tuple(map(tuple, e2))))
    for e in (e1, e2):
        if gamma.edges.get(e) != 1:
            raise InputError(f"{e} is not an i=1 edge of the capped complex")
    comp_of = _component_index(gamma)
    c1, c2 = comp_of[e1[0]], comp_of[e2[0]]
    if c1 == c2:
        return DistanceResult(True, 0, cap, certified)
    ends1 = [w for e in gamma.edges if comp_of[e[0]] == c1 for w in e]
    ends2 = [w for e in gamma.edges if comp_of[e[0]] == c2 for w in e]
    return replace(_bfs_distance(_lambda_rows(curves, table), ends1, ends2,
                                 cap), certified=certified)


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
        # Every vertex has the 6g - 3 coordinates of its genus, so one
        # format string writes each.
        colors = {c: json.dumps(sorted(c), separators=(",", ":"))
                  for c in {*graph.colors.values(), _NO_COLORS}}
        vertex = ('{"colors":%s,"coords":['
                  + ",".join(["%d"] * (6 * graph.genus - 3)) + "]}")
        vertices = ",".join([vertex % (colors[graph.colors.get(k, _NO_COLORS)],
                                       *k) for k in keys])
        edges = ",".join(['{"i":%d,"u":%d,"v":%d}' % (i, index[u], index[v])
                          for (u, v), i in sorted(graph.edges.items())])
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
