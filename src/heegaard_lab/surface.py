"""Model surfaces, canonical one-vertex triangulations, and normal-coordinate curves.

Conventions used throughout the package:

* The closed orientable genus-g surface (g >= 1) carries the fan triangulation
  of its standard 4g-gon: boundary word a1 b1 a1' b1' ... ag bg ag' bg', all
  polygon vertices identified to a single vertex, and diagonals from corner 0
  to corners 2..4g-2.  This gives 1 vertex, 6g-3 edges, 4g-2 triangles.
* A curve (or multicurve) is stored as a vector of non-negative integers, one
  per edge, satisfying the normal matching conditions in every triangle:
  weights x, y, z obey the triangle inequalities and x+y+z is even.
* Admissible vectors are in bijection with normal multicurves; a connected
  component is inessential exactly when it is the vertex link (weight 2 on
  every edge).  Equality of vectors decides isotopy on the torus outright;
  at genus >= 2 a vector pins the curve only up to slides across the vertex,
  and `same_class` performs the exact surface-level test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Optional, Sequence

from .errors import InputError


class InvalidCoordinates(InputError):
    """Raised when an edge-weight vector violates the matching conditions."""


class InessentialCurve(InputError):
    """Raised when a traced connected curve is the vertex link."""


class SurfaceMismatch(InputError):
    """Raised when an operation mixes curves from different surfaces."""


class BudgetExhausted(RuntimeError):
    """An enumeration exceeded its candidate budget.  Carries partial results."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, order=True)
class ModelSurface:
    """A closed orientable surface, known to the engine only by its genus."""

    genus: int

    def __post_init__(self):
        if self.genus < 0:
            raise InputError(f"genus must be non-negative, got {self.genus}")

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus


# An occurrence of an edge on a triangle side: (edge index, +1/-1).  Sign +1
# means the side is traversed along the edge's fixed arrow when the triangle
# boundary is read counterclockwise.
Occurrence = tuple[int, int]


class Triangulation:
    """The canonical one-vertex triangulation of a genus-g surface (g >= 1).

    Attributes:
        surface: the underlying ModelSurface.
        n_edges: 6g - 3.
        triangles: list of (occ0, occ1, occ2); side m runs from corner m to
            corner m+1, all triangles counterclockwise.
        edge_names: generator edges "a1", "b1", ..., then diagonals "d2", ...
        edge_sides: per edge, its sides (t, m), in two distinct triangles.
        side_of: (t, e) -> the side m of triangle t on edge e.
        plus_triangle: per edge, the triangle of its +1 occurrence.
        vertex_rotation: edge-ends (edge, "tail"|"head") in cyclic order
            around the vertex; tail is the arrow start.
    """

    def __init__(self, surface: ModelSurface):
        if surface.genus < 1:
            raise ValueError("triangulations are only built for genus >= 1")
        self.surface = surface
        g = surface.genus
        self.n_edges = 6 * g - 3
        self.edge_names: list[str] = []
        for i in range(1, g + 1):
            self.edge_names += [f"a{i}", f"b{i}"]
        for k in range(2, 4 * g - 1):
            self.edge_names.append(f"d{k}")

        # Polygon side j carries generator gen(j) with sign sgn(j) per the
        # standard commutator word.
        def side_occ(j: int) -> Occurrence:
            handle, r = divmod(j, 4)
            gen = 2 * handle + (r % 2)
            sign = 1 if r < 2 else -1
            return (gen, sign)

        def diag_occ(k: int) -> Occurrence:
            # d_k is the path v0 -> vk; d_1 and d_{4g-1} alias polygon sides.
            if k == 1:
                return side_occ(0)
            if k == 4 * g - 1:
                e, s = side_occ(4 * g - 1)
                return (e, -s)
            return (2 * g + (k - 2), 1)

        self.triangles: list[tuple[Occurrence, Occurrence, Occurrence]] = []
        for k in range(1, 4 * g - 1):
            d0 = diag_occ(k)
            s = side_occ(k)
            d1 = diag_occ(k + 1)
            self.triangles.append((d0, s, (d1[0], -d1[1])))

        # Each edge appears exactly twice, once with each sign, and (in the
        # fan model) in two distinct triangles.
        self.edge_sides: list[list[tuple[int, int]]] = [[] for _ in range(self.n_edges)]
        for t, tri in enumerate(self.triangles):
            for m, (e, sign) in enumerate(tri):
                self.edge_sides[e].append((t, m))
        for e, occs in enumerate(self.edge_sides):
            if len(occs) != 2:
                raise AssertionError(f"edge {e} has {len(occs)} occurrences")
            signs = sorted(self.triangles[t][m][1] for t, m in occs)
            if signs != [-1, 1]:
                raise AssertionError(f"edge {e} occurs with signs {signs}")
            if occs[0][0] == occs[1][0]:
                raise AssertionError(f"edge {e} occurs twice in one triangle")
        self.side_of = {(t, e): m for e, occs in enumerate(self.edge_sides)
                        for t, m in occs}
        self.plus_triangle = [t for occs in self.edge_sides for t, m in occs
                              if self.triangles[t][m][1] == 1]

        # The vertex sector at corner m of a triangle runs from the end where
        # side m-1 arrives to the end where side m departs.
        def departing(occ: Occurrence) -> tuple[int, str]:
            return (occ[0], "tail" if occ[1] == 1 else "head")

        after = {}
        for tri in self.triangles:
            for m in range(3):
                e, s = tri[m - 1]
                after[e, "head" if s == 1 else "tail"] = departing(tri[m])
        rot = [departing(self.triangles[0][0])]
        while after[rot[-1]] != rot[0]:
            rot.append(after[rot[-1]])
        if len(rot) != 2 * self.n_edges:
            raise AssertionError("vertex link is not a single circle")
        self.vertex_rotation: list[tuple[int, str]] = rot

    @property
    def genus(self) -> int:
        return self.surface.genus

    def n_triangles(self) -> int:
        return len(self.triangles)

    def edge_index(self, name: str) -> int:
        return self.edge_names.index(name)

    # -- matching conditions -------------------------------------------------

    def corner_counts(self, weights: Sequence[int], t: int) -> tuple[int, int, int]:
        """Corner arc counts (c0, c1, c2) of triangle t; corner m sits between
        side m-1 and side m.  Raises InvalidCoordinates when infeasible."""
        w = [weights[e] for e, _ in self.triangles[t]]
        if sum(w) % 2 != 0:
            raise InvalidCoordinates(f"odd weight sum {w} in triangle {t}")
        c = [0, 0, 0]
        for m in range(3):
            c[m] = (w[m] + w[m - 1] - w[(m + 1) % 3]) // 2
            if c[m] < 0:
                raise InvalidCoordinates(
                    f"triangle inequality fails in triangle {t}: {w}")
        return (c[0], c[1], c[2])

    def check_matching(self, weights: Sequence[int]) -> list[tuple[int, int, int]]:
        """Raise InvalidCoordinates unless `weights` is admissible: one
        non-negative weight per edge, and an even sum meeting the triangle
        inequalities in every triangle, checked in triangle order.  Returns
        the corner counts of every triangle, as `corner_counts` gives them."""
        if len(weights) != self.n_edges:
            raise InvalidCoordinates(
                f"expected {self.n_edges} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise InvalidCoordinates("negative edge weight")
        return [self.corner_counts(weights, t)
                for t in range(len(self.triangles))]

    # -- tracing -------------------------------------------------------------

    def trace(self, weights: Sequence[int]) -> list["TracedCurve"]:
        """Split an admissible vector into its connected components.

        Returns one TracedCurve per component, carrying its own weight vector
        and its token cycle (edge crossings in order, with the triangle of
        each connecting arc).  Token (e, p) is the p-th crossing along edge
        e's arrow.  Components come in order of least token; each cycle
        starts there and leaves through the lower-numbered triangle on e.

        The walk follows the corner-arc map.  A token at place k along side
        m, counterclockwise (k = p on a +1 occurrence, w[m] - 1 - p on a -1),
        leaves by side m-1 at place w[m-1] - 1 - k when k < c[m], the arcs at
        corner m, and by side m+1 at place w[m] - 1 - k otherwise; the walk
        then crosses that edge into its other triangle.
        """
        corners = self.check_matching(weights)
        seen = [bytearray(w) for w in weights]
        components: list[TracedCurve] = []
        for e0 in range(self.n_edges):
            p0 = seen[e0].find(0)
            while p0 != -1:
                cycle: list[tuple[int, int]] = []
                tris: list[int] = []
                e, p = e0, p0
                t, m = self.edge_sides[e0][0]
                while True:
                    if seen[e][p]:
                        raise AssertionError(
                            f"trace from token {(e0, p0)} does not close")
                    seen[e][p] = 1
                    cycle.append((e, p))
                    tris.append(t)
                    tri = self.triangles[t]
                    k = p if tri[m][1] == 1 else weights[e] - 1 - p
                    if k < corners[t][m]:
                        m = (m - 1) % 3
                        k = weights[tri[m][0]] - 1 - k
                    else:
                        m = (m + 1) % 3
                        k = weights[e] - 1 - k
                    e, sign = tri[m]
                    p = k if sign == 1 else weights[e] - 1 - k
                    if e == e0 and p == p0:
                        break
                    (t1, m1), (t2, m2) = self.edge_sides[e]
                    t, m = (t2, m2) if t1 == t else (t1, m1)
                vec = [0] * self.n_edges
                for e, _ in cycle:
                    vec[e] += 1
                components.append(TracedCurve(tuple(vec), cycle, tris))
                p0 = seen[e0].find(0, p0)
        return components

    # -- vertex link ---------------------------------------------------------

    def vertex_link_vector(self) -> tuple[int, ...]:
        return tuple(2 for _ in range(self.n_edges))

    def edge_loop_pushoff(self, edge: int, side: int = 0) -> tuple[int, ...]:
        """Weight vector of the loop formed by edge `edge`, pushed off the
        vertex to one of its two sides (0 or 1)."""
        rot = self.vertex_rotation
        n = len(rot)
        i = rot.index((edge, "tail"))
        j = rot.index((edge, "head"))
        arc1 = [rot[k % n] for k in range(i + 1, j if j > i else j + n)]
        arc2 = [rot[k % n] for k in range(j + 1, i if i > j else i + n)]
        chosen = arc1 if side == 0 else arc2
        vec = [0] * self.n_edges
        for e, _ in chosen:
            vec[e] += 1
        if vec[edge]:
            raise AssertionError("pushoff arc contains its own edge end")
        return tuple(vec)


@dataclass
class TracedCurve:
    """One connected component of a traced normal multicurve."""

    vector: tuple[int, ...]
    cycle: list[tuple[int, int]]        # (edge, position) tokens in order
    triangles: list[int]                # triangle of the arc cycle[i] -> cycle[i+1]


_TRI_CACHE: dict[int, Triangulation] = {}


def canonical_triangulation(genus: int) -> Triangulation:
    """Deterministic triangulation for each genus >= 1 (cached)."""
    if genus < 1:
        raise InputError(
            f"no curves live on a surface of genus {genus}; need genus >= 1")
    if genus not in _TRI_CACHE:
        _TRI_CACHE[genus] = Triangulation(ModelSurface(genus))
    return _TRI_CACHE[genus]


def _sized_triangulation(genus: int, coords: Sequence[int]) -> Triangulation:
    """canonical_triangulation(genus), once `coords` has been checked to
    hold one weight per edge, so a wrong length costs nothing at any genus."""
    if genus >= 1 and len(coords) != 6 * genus - 3:
        raise InvalidCoordinates(
            f"expected {6 * genus - 3} weights, got {len(coords)}")
    return canonical_triangulation(genus)


# ---------------------------------------------------------------------------
# Slopes (torus fast path)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Slope:
    """A torus curve class: coprime (p, q) with (p, q) ~ (-p, -q)."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise InputError(f"slope ({self.p},{self.q}) is not coprime")
        if self.p < 0 or (self.p == 0 and self.q < 0):
            raise ValueError("slope not in canonical form; use Slope.of")

    @staticmethod
    def of(p: int, q: int) -> "Slope":
        if p < 0 or (p == 0 and q < 0):
            p, q = -p, -q
        return Slope(p, q)

    def coords(self) -> tuple[int, int, int]:
        """Edge weights on the 2-triangle torus, edge order (a, b, d)."""
        p, q = self.p, self.q
        return (abs(q), abs(p), abs(p - q))


def slope_intersection(s1: Slope, s2: Slope) -> int:
    return abs(s1.p * s2.q - s1.q * s2.p)


# ---------------------------------------------------------------------------
# Curve classes and normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveClass:
    """An essential simple closed curve on a model surface, as an admissible
    normal-coordinate vector on the canonical triangulation.

    On the torus the stored coords are the unique canonical form of the
    isotopy class.  At genus >= 2 the vector pins the class up to slides
    across the triangulation vertex; `same_class` decides surface isotopy
    exactly, and enumerations deduplicate with it.
    """

    genus: int
    coords: tuple[int, ...]

    def __post_init__(self):
        corners = _sized_triangulation(self.genus, self.coords).check_matching(
            self.coords)
        if self.genus > 1:      # read by _blocks_meet; unused on the torus
            self.__dict__["_corners"] = corners

    @property
    def weight(self) -> int:
        return sum(self.coords)

    def sort_key(self):
        return (self.weight, self.coords)

    @staticmethod
    def from_slope(p: int, q: int) -> "CurveClass":
        return CurveClass(1, Slope.of(p, q).coords())

    def slope(self) -> Slope:
        if self.genus != 1:
            raise ValueError("slopes only exist on the torus")
        return coords_to_slope(self.coords)

    @cached_property
    def _bucket(self) -> tuple[int, ...]:
        """H_1 class up to sign: closed form on the torus, else one trace."""
        if self.genus == 1:
            return _up_to_sign(_torus_class(self.coords))
        return _up_to_sign(homology_class(self.genus, self.coords))

    def __repr__(self) -> str:
        if self.genus == 1:
            try:
                s = self.slope()
            except ValueError:      # parallel copies, or the vertex link
                pass
            else:
                return f"CurveClass(torus ({s.p},{s.q}))"
        return f"CurveClass(g={self.genus}, {self.coords})"


def _up_to_sign(cls: tuple[int, ...]) -> tuple[int, ...]:
    return min(cls, tuple(-x for x in cls))


def _homology_of(tri: Triangulation, comp: "TracedCurve") -> tuple[int, ...]:
    """H_1 class of a traced curve x, basis (a1, b1, ..., ag, bg).  Token i
    crosses its edge e into comp.triangles[i], adding +1 to n_e when that
    is e's plus_triangle and -1 otherwise; with a_i . b_i = +1,
    alpha_i = x . b_i = n_{b_i} and beta_i = -(x . a_i) = -n_{a_i}."""
    n, plus = [0] * (2 * tri.genus), tri.plus_triangle
    for (e, _), t in zip(comp.cycle, comp.triangles):
        if e < len(n):
            n[e] += 1 if t == plus[e] else -1
    return tuple(x for i in range(0, len(n), 2) for x in (n[i + 1], -n[i]))


def homology_class(genus: int, coords: Sequence[int]) -> tuple[int, ...]:
    """Class of a connected curve in H_1, basis (a1, b1, ..., ag, bg), read
    off one trace by `_homology_of`; the trace picks the orientation."""
    tri = canonical_triangulation(genus)
    comps = tri.trace(coords)
    if len(comps) != 1:
        raise ValueError("signed crossings need a connected curve")
    return _homology_of(tri, comps[0])


def _z2_rank(classes) -> int:
    """Rank over Z/2 by elimination on bit masks: x ^ b < x exactly when x
    holds the leading bit of b, which no mask kept after b holds."""
    basis: list[int] = []
    for cls in classes:
        x = sum(1 << i for i, a in enumerate(cls) if a % 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def _partition(keys: Iterable[Hashable],
               pairs: Iterable[tuple]) -> list[list]:
    """Union-find: the classes of `keys` under the equivalence relation
    generated by `pairs`, each in the order its keys were given, ordered by
    their first keys."""
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
    groups: dict = {}
    for k in parent:
        groups.setdefault(find(k), []).append(k)
    return list(groups.values())


def algebraic_intersection(a: CurveClass, b: CurveClass) -> int:
    """|a . b| for the intersection pairing on H_1.

    A lower bound for i(a, b) with the same parity, and invariant under
    isotopy of either curve.
    """
    if a.genus != b.genus:
        raise SurfaceMismatch(f"genus {a.genus} vs {b.genus}")
    x, y = a._bucket, b._bucket
    return abs(sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i]
                   for i in range(a.genus)))


def _component_counts(tri: Triangulation,
                      coords: Sequence[int]) -> dict[tuple[int, ...], int]:
    """Each distinct component vector of an admissible vector, with its
    multiplicity: by tracing, except on the torus, where the split of
    `coords_to_slope` gives them in closed form."""
    counts: dict[tuple[int, ...], int] = {}
    if tri.genus == 1:
        tri.check_matching(coords)
        k = sum(coords) // 2 - max(coords)
        rest = [c - 2 * k for c in coords]
        m = math.gcd(*rest)
        if k:
            counts[tri.vertex_link_vector()] = k
        if m:
            counts[tuple(c // m for c in rest)] = m
        return counts
    for comp in tri.trace(coords):
        counts[comp.vector] = counts.get(comp.vector, 0) + 1
    return counts


def _torus_class(coords: Sequence[int]) -> tuple[int, int]:
    """H_1 class (p, q) of a connected torus vector, up to sign: (0, 0) for
    the vertex link, else the slope whose coords() are the vector."""
    tri = canonical_triangulation(1)
    counts = _component_counts(tri, coords)
    n = sum(counts.values())
    if n != 1:
        raise ValueError(f"torus vector {tuple(coords)} has {n} components; "
                         "a class needs one curve")
    (vec,) = counts
    if vec == tri.vertex_link_vector():
        return (0, 0)
    return _slope_of_vector(vec)


def _slope_of_vector(vec: Sequence[int]) -> tuple[int, int]:
    """The slope (p, q) whose coords() are the primitive vector `vec`.

    Inverts (|q|, |p|, |p - q|): |p - q| = |p| + |q| with both nonzero
    exactly when p and q have opposite signs."""
    a, b, d = vec
    return (b, -a if a and b and d == a + b else a)


def coords_to_slope(coords: Sequence[int]) -> Slope:
    """Slope of a connected essential torus vector, in closed form.

    Disjoint essential curves on the torus are parallel, so a normal
    multicurve there is k vertex links plus m copies of one primitive slope
    curve, and its vector splits uniquely as v = k*(2, 2, 2) + m*r.  A slope
    vector (|q|, |p|, |p - q|) has one weight equal to the sum of the other
    two, so its maximum is half its weight, while each link adds 2 to the
    maximum and 6 to the weight.  Hence k = weight/2 - max(v),
    m = gcd(v - 2k) and r = (v - 2k)/m.  The vector is connected exactly
    when k + m = 1 and essential when m = 1; then r = (a, b, d) is the
    slope (b, -a) when a and b are nonzero and d = a + b, else (b, a).  The
    cost is a few integer operations, whatever the weight.
    """
    p, q = _torus_class(coords)
    if p == 0 and q == 0:
        raise InessentialCurve("null-homologous torus curve is inessential")
    return Slope.of(p, q)


@dataclass(frozen=True)
class MulticurveEntry:
    coords: tuple[int, ...]
    multiplicity: int
    essential: bool


@dataclass(frozen=True)
class MulticurveReport:
    """Decomposition of a disconnected normal vector into parallelism classes."""

    genus: int
    entries: tuple[MulticurveEntry, ...]


def normalize(surface: ModelSurface | int, coords: Sequence[int]):
    """Validate a raw edge-weight vector and classify what it carries.

    Returns a CurveClass when the vector is a single essential component, a
    MulticurveReport when there are several components, and raises on
    matching violations, the zero vector, or a single inessential component.
    """
    genus = surface.genus if isinstance(surface, ModelSurface) else surface
    coords = tuple(int(c) for c in coords)
    tri = _sized_triangulation(genus, coords)
    if all(c == 0 for c in coords):
        raise InvalidCoordinates("the zero vector carries no curve")
    groups = _component_counts(tri, coords)
    link = tri.vertex_link_vector()
    if sum(groups.values()) == 1:
        (vec,) = groups
        if vec == link:
            raise InessentialCurve("the vertex link bounds a disk")
        return CurveClass(genus, vec)
    entries = tuple(
        MulticurveEntry(vec, mult, vec != link)
        for vec, mult in sorted(groups.items()))
    return MulticurveReport(genus, entries)


def is_essential(surface: ModelSurface | int, coords: Sequence[int]) -> bool:
    """True iff the (connected) curve is not null-homotopic.

    On a one-vertex triangulation the only inessential connected normal curve
    is the vertex link, so the test is exact.
    """
    genus = surface.genus if isinstance(surface, ModelSurface) else surface
    tri = _sized_triangulation(genus, coords)
    groups = _component_counts(tri, coords)
    if sum(groups.values()) != 1:
        raise ValueError("essentialness is defined for connected curves")
    (vec,) = groups
    return vec != tri.vertex_link_vector()


# ---------------------------------------------------------------------------
# Exact intersection numbers and class identity
# ---------------------------------------------------------------------------


def _blocks_meet(tri: Triangulation, c, d, k: int) -> bool:
    """Can normal curves with corner counts c and d (from `check_matching`)
    lie in two blocks on every edge, each in its own order, and cross at
    most k <= 1 times?  Bit x_e says c's block is first along e's arrow.
    Where it is first counterclockwise on side m, c's corner-(m+1) arcs
    cross d's corner-m arcs, else c's corner-m arcs cross d's corner-(m+1)
    arcs; the corner-m arcs cross when c's block is first on both sides m-1
    and m, or on neither.  No edge occurs twice in a triangle, so each term
    is absent when one bit, or the parity of two, takes one value."""
    n = tri.n_edges         # x_n is the constant 0
    hard, units = [], []    # (u, v, p): the term is absent when x_u ^ x_v == p
    drops = None            # the unit terms of a side that crosses either way
    for occ, ct, dt in zip(tri.triangles, c, d):
        for m in range(3):
            first, second = ct[m - 2] * dt[m], ct[m] * dt[m - 2]
            corner = ct[m] * dt[m]
            if not (first or second or corner):
                continue
            (e, s), (f, r) = occ[m], occ[m - 1]
            terms = ((first, (e, n, s < 0)), (second, (e, n, s > 0)),
                     (corner, (e, f, s == r)))
            if first and second:
                if k == 0 or drops is not None:
                    return False
                drops = [cond for w, cond in terms[:2] if w == 1]
            for w, cond in terms:
                if w:
                    (hard if w > k else units).append(cond)

    def solvable(conditions) -> bool:
        root, off = list(range(n + 1)), [0] * (n + 1)
        for u, v, p in conditions:      # p becomes x_root(u) ^ x_root(v)
            while root[u] != u:
                p, u = p ^ off[u], root[u]
            while root[v] != v:
                p, v = p ^ off[v], root[v]
            if u != v:
                root[u], off[u] = v, p
            elif p:
                return False
        return True

    return any(solvable(hard + [u for u in units if u is not drop])
               for drop in (units or [None] if drops is None else drops))


def geometric_intersection(a: CurveClass, b: CurveClass) -> int:
    """Minimal-position (bigon-free) intersection number, exact.

    Torus pairs use the determinant |ps - qr|.  At higher genus |a . b|
    bounds i(a, b) from below and any realization bounds it from above, so
    a pair with |a . b| <= 1 that `_blocks_meet` lays out meeting only
    |a . b| times has i(a, b) = |a . b|.  A pair with a . b = 0 whose normal
    sum a + b traces to two components, with vectors a and b, is disjoint:
    a normal curve is determined up to normal isotopy by its vector.  Every
    other pair runs the traced arrangement with bigon elimination.
    """
    if a.genus != b.genus:
        raise SurfaceMismatch(f"genus {a.genus} vs {b.genus}")
    if a.coords == b.coords:
        return 0
    if a.genus == 1:
        return slope_intersection(coords_to_slope(a.coords),
                                  coords_to_slope(b.coords))
    tri = canonical_triangulation(a.genus)
    alg = algebraic_intersection(a, b)
    if alg <= 1 and _blocks_meet(tri, a._corners, b._corners, alg):
        return alg
    if alg == 0:
        total = tuple(x + y for x, y in zip(a.coords, b.coords))
        if _component_counts(tri, total) == {a.coords: 1, b.coords: 1}:
            return 0
    from . import arrangement
    return arrangement.intersection_number(tri, a.coords, b.coords)


def intersection_at_most(a: CurveClass, b: CurveClass, k: int) -> Optional[int]:
    """i(a, b) when it is at most k, else None.

    Since |algebraic intersection| <= i(a, b), a pair whose homology classes
    pair to more than k is answered without building an arrangement, and so
    is every pair that a certificate of `geometric_intersection` settles.
    """
    if a.genus > 1 and algebraic_intersection(a, b) > k:
        return None
    n = geometric_intersection(a, b)
    return n if n <= k else None


def same_class(a: CurveClass, b: CurveClass) -> bool:
    """Exact surface-isotopy test for two essential curve classes.

    Isotopic curves are homologous up to orientation, so at genus >= 2 the
    arrangement runs only for pairs in one homology bucket.
    """
    if a.genus != b.genus:
        raise SurfaceMismatch(f"genus {a.genus} vs {b.genus}")
    if a.coords == b.coords:
        return True
    if a.genus == 1:
        return coords_to_slope(a.coords) == coords_to_slope(b.coords)
    if a._bucket != b._bucket:
        return False
    from . import arrangement
    return arrangement.isotopic(
        canonical_triangulation(a.genus), a.coords, b.coords)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def admissible_vectors(tri: Triangulation, cap: int) -> Iterator[tuple[int, ...]]:
    """All nonzero admissible vectors with coordinate sum <= cap, in
    lexicographic order.

    Depth-first over edges in index order, one weight iterator per edge on
    a stack, so no genus meets the recursion limit.  An edge that closes a
    triangle whose other two weights x and y are fixed can only take the
    weights |x - y| <= w <= x + y with the parity of x + y, so it steps
    through that interval by 2; an edge closing two triangles takes the
    intersection of both intervals, and none when their parities differ.
    Every other edge ranges over 0..remaining.
    """
    n = tri.n_edges
    closing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for triple in tri.triangles:
        x, y, last = sorted(e for e, _ in triple)
        closing[last].append((x, y))

    vec = [0] * n
    left = [cap] * n        # weight left for edges e.. once 0..e-1 are fixed

    def weights(e: int) -> range:
        lo, hi, step = 0, left[e], 1
        for x, y in closing[e]:
            wx, wy = vec[x], vec[y]
            t_lo = abs(wx - wy)
            if step == 2 and (t_lo - lo) % 2:
                return range(0)
            lo, hi, step = max(lo, t_lo), min(hi, wx + wy), 2
        return range(lo, hi + 1, step)

    stack = [iter(weights(0))]
    while stack:
        e = len(stack) - 1
        w = next(stack[e], None)
        if w is None:
            stack.pop()
            continue
        vec[e] = w
        if e + 1 < n:
            left[e + 1] = left[e] - w
            stack.append(iter(weights(e + 1)))
        elif left[e] - w < cap:         # a nonzero vector spent some cap
            yield tuple(vec)


def _slope_scan(cap: int) -> Iterator[Slope]:
    """Torus classes with coordinate sum |p| + |q| + |p-q| <= cap, in
    order of p, then q."""
    # The weight is 2 * max(p, q) for q >= 0 and 2 * (p - q) for q < 0.
    half = cap // 2
    if cap >= 2:
        yield Slope(0, 1)
    for p in range(1, half + 1):
        for q in range(p - half, half + 1):
            if math.gcd(p, q) == 1:
                yield Slope(p, q)


def enumerate_essential_curves(
    genus: int,
    cap: int,
    budget: Optional[int] = None,
) -> list[CurveClass]:
    """Distinct essential curve classes having a representative of coordinate
    sum <= cap, sorted by (weight, coords) of the smallest representative.

    A `budget` bounds the candidates visited, slopes on the torus and
    admissible vectors at higher genus; overruns raise BudgetExhausted
    carrying the classes found so far.  At genus >= 2 one trace per vector
    decides connectivity and gives the homology bucket the candidate keeps;
    the exact isotopy test deduplicates candidates within a bucket.
    """
    found: list[CurveClass] = []
    buckets: dict[tuple[int, ...], list[CurveClass]] = {}
    if genus == 1:
        candidates = (s.coords() for s in _slope_scan(cap))
    else:
        tri = canonical_triangulation(genus)
        link = tri.vertex_link_vector()
        candidates = admissible_vectors(tri, cap)
    for visited, vec in enumerate(candidates, 1):
        if budget is not None and visited > budget:
            found.sort(key=CurveClass.sort_key)
            raise BudgetExhausted(
                f"visited more than {budget} candidate vectors", found)
        if genus == 1:
            found.append(CurveClass(1, vec))
            continue
        comps = tri.trace(vec)
        if len(comps) != 1 or comps[0].vector == link:
            continue
        cand = CurveClass(genus, vec)
        key = _up_to_sign(_homology_of(tri, comps[0]))
        cand.__dict__["_bucket"] = key      # fills the cached property
        group = buckets.setdefault(key, [])
        other = next((c for c in group if same_class(cand, c)), None)
        if other is not None:
            if other.sort_key() < cand.sort_key():
                continue
            group.remove(other)
            found.remove(other)
        group.append(cand)
        found.append(cand)
    found.sort(key=CurveClass.sort_key)
    return found
