"""Exact curve arrangements on a triangulated surface.

Realizes one distinguished curve A (curve id 0) together with a pairwise
disjoint multicurve B (curve ids 1..) as chord systems in the triangles of a
one-vertex triangulation, then eliminates bigons by sliding A across B until
the arrangement is in minimal position.  Complementary regions are computed
exactly, including Euler characteristics and whether they contain the
triangulation vertex, so bigons that sweep across the vertex are found and
removed like any other.

Each crossing carries the local sign of A against its B component, so the
sum of signs over a component is their algebraic intersection number.  That
number bounds the geometric one from below, and a slide across a bigon
would push the crossing count below it.  Minimization therefore stops,
without analysing any region, as soon as every B component meets A exactly
|sum of signs| times; only the remaining cases pay for region analysis.

The same machinery answers, exactly:
  * geometric intersection numbers (crossings after minimization),
  * signed crossing words of A against the components of B,
  * isotopy of two disjoint curves (an annulus region between them),
  * the topology of the complement of a multicurve (cut-system checks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .surface import Triangulation


class _Token:
    __slots__ = ("edge", "curve", "uid")
    _uid = itertools.count()

    def __init__(self, edge: int, curve: int):
        self.edge = edge
        self.curve = curve
        self.uid = next(_Token._uid)

    def __repr__(self):
        return f"T(e{self.edge},c{self.curve},#{self.uid})"


@dataclass
class _Curve:
    """A closed curve as a cyclic token list; link i joins tokens[i] to
    tokens[i+1 mod n] inside triangle link_tris[i]."""

    cid: int
    tokens: list[_Token]
    link_tris: list[int]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Crossing:
    triangle: int
    a_key: tuple[int, int]      # (curve id 0, link index)
    b_key: tuple[int, int]      # (curve id >= 1, link index)
    sign: int

    def key(self):
        return (self.a_key, self.b_key)


@dataclass
class Region:
    """A complementary region of the arrangement.

    chi is the Euler characteristic of the open region (faces minus interior
    gap arcs, plus one if the region swallows the triangulation vertex)."""

    faces: list
    gaps: set
    contains_vertex: bool
    circles: list               # boundary circles: lists of (tri, dart)
    corner_visits: int
    crossing_keys: list

    @property
    def chi(self) -> int:
        return len(self.faces) - len(self.gaps) + (1 if self.contains_vertex else 0)

    @property
    def n_boundary_circles(self) -> int:
        return len(self.circles)


@dataclass
class _LocalMap:
    """Planar subdivision of one triangle by the chords that cross it."""

    faces: list                 # inner faces as dart lists
    arc_info: dict              # forward boundary-arc dart -> global gap id
    next_in_face: Callable
    seg_nodes: dict             # link key -> vertex chain along the link


@dataclass
class Analysis:
    crossings: list
    regions: list
    local_maps: dict


class Arrangement:
    """Chord arrangement of multicurves given by admissible vectors.

    vectors[0] becomes curve 0 (A, unless used in single-multicurve mode);
    every later vector contributes one curve per traced component.  Only
    curve 0 may cross the others; any other interleaving raises.
    """

    def __init__(self, tri: Triangulation, vectors: Sequence[Sequence[int]]):
        self.tri = tri
        self.curves: list[_Curve] = []
        self.edge_pts: list[list[_Token]] = [[] for _ in range(tri.n_edges)]
        for vec in vectors:
            comps = tri.trace(vec)
            token_of: dict[tuple[int, int], _Token] = {}
            traced = []
            for comp in comps:
                cid = len(self.curves) + len(traced)
                for pos in comp.cycle:
                    token_of[pos] = _Token(pos[0], cid)
                traced.append(comp)
            by_edge: dict[int, list[tuple[int, _Token]]] = {}
            for (e, pos), tok in token_of.items():
                by_edge.setdefault(e, []).append((pos, tok))
            for e, entries in by_edge.items():
                entries.sort(key=lambda x: x[0])
                self.edge_pts[e].extend(tok for _, tok in entries)
            for comp in traced:
                toks = [token_of[p] for p in comp.cycle]
                self.curves.append(
                    _Curve(toks[0].curve, toks, list(comp.triangles)))

    # -- elementary queries ---------------------------------------------------

    def component_vector(self, cid: int) -> tuple[int, ...]:
        vec = [0] * self.tri.n_edges
        for tok in self.curves[cid].tokens:
            vec[tok.edge] += 1
        return tuple(vec)

    def _side_in(self, t: int, e: int) -> int:
        for tt, m in self.tri.edge_sides[e]:
            if tt == t:
                return m
        raise AssertionError(f"edge {e} not on triangle {t}")

    def _boundary_coord(self, t: int, tok: _Token) -> tuple[int, int]:
        m = self._side_in(t, tok.edge)
        sign = self.tri.triangles[t][m][1]
        pts = self.edge_pts[tok.edge]
        p = pts.index(tok)
        return (m, p if sign == 1 else len(pts) - 1 - p)

    def _links_by_triangle(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for c in self.curves:
            for i, t in enumerate(c.link_tris):
                out.setdefault(t, []).append((c.cid, i))
        return out

    def link_ends(self, key: tuple[int, int]) -> tuple[_Token, _Token]:
        c = self.curves[key[0]]
        return c.tokens[key[1]], c.tokens[(key[1] + 1) % len(c.tokens)]

    @staticmethod
    def _in_open_arc(x, a, b) -> bool:
        """Is x strictly inside the cyclic interval (a, b)?"""
        if a < b:
            return a < x < b
        return x > a or x < b

    def crossings(self) -> list[Crossing]:
        out = []
        for t, links in sorted(self._links_by_triangle().items()):
            coords = {}
            for key in links:
                u, v = self.link_ends(key)
                coords[key] = (self._boundary_coord(t, u),
                               self._boundary_coord(t, v))
            for k1, k2 in itertools.combinations(sorted(links), 2):
                (p, q), (r, s) = coords[k1], coords[k2]
                if self._in_open_arc(r, p, q) == self._in_open_arc(s, p, q):
                    continue
                if (k1[0] == 0) == (k2[0] == 0):
                    raise AssertionError(
                        f"links {k1} and {k2} cross but are not an A-B pair")
                ak, bk = (k1, k2) if k1[0] == 0 else (k2, k1)
                p, q = coords[ak]
                r, _ = coords[bk]
                sign = 1 if self._in_open_arc(r, p, q) else -1
                out.append(Crossing(t, ak, bk, sign))
        return out

    def crossings_on_link(self, key: tuple[int, int],
                          crossings: Sequence[Crossing]) -> list[Crossing]:
        """Crossings on one link ordered from its start token.  The crossing
        chords are pairwise disjoint, so the order along the link agrees with
        the cyclic order of their endpoints on the near-side boundary arc."""
        mine = [x for x in crossings if key in (x.a_key, x.b_key)]
        if not mine:
            return []
        t = mine[0].triangle
        u, v = self.link_ends(key)
        p, q = self._boundary_coord(t, u), self._boundary_coord(t, v)

        def order_key(x: Crossing):
            other = x.b_key if key == x.a_key else x.a_key
            r, s = (self._boundary_coord(t, tok) for tok in self.link_ends(other))
            inside = r if self._in_open_arc(r, p, q) else s
            return inside if inside > p else (inside[0] + 3, inside[1])

        mine.sort(key=order_key)
        return mine

    # -- local planar subdivisions --------------------------------------------

    def _triangle_subdivision(self, t: int, crossings: Sequence[Crossing],
                              links_by_tri: dict) -> _LocalMap:
        tri = self.tri
        items: list = []
        item_gap: list = []     # global gap id of the arc after items[i]
        for m in range(3):
            e, sign = tri.triangles[t][m]
            pts = self.edge_pts[e]
            w = len(pts)
            occ = pts if sign == 1 else list(reversed(pts))
            items.append(("c", m))
            item_gap.append((e, 0 if sign == 1 else w))
            for j, tok in enumerate(occ):
                items.append(("t", tok.uid))
                item_gap.append((e, j + 1 if sign == 1 else w - (j + 1)))
        K = len(items)

        links_here = links_by_tri.get(t, [])
        xs_here = [x for x in crossings if x.triangle == t]

        seg_nodes: dict[tuple[int, int], list] = {}
        for key in links_here:
            u, v = self.link_ends(key)
            nodes = [("t", u.uid)]
            for x in self.crossings_on_link(key, xs_here):
                nodes.append(("x", x.key()))
            nodes.append(("t", v.uid))
            seg_nodes[key] = nodes

        darts: list = []
        twin: dict = {}
        out_at: dict = {}

        def add_edge(u, v, tag):
            d1 = (u, v, tag)
            d2 = (v, u, tag)
            darts.append(d1)
            darts.append(d2)
            twin[d1] = d2
            twin[d2] = d1
            out_at.setdefault(u, []).append(d1)
            out_at.setdefault(v, []).append(d2)
            return d1

        arc_forward = [add_edge(items[i], items[(i + 1) % K], ("a", i))
                       for i in range(K)]
        for key, nodes in seg_nodes.items():
            for j in range(len(nodes) - 1):
                add_edge(nodes[j], nodes[j + 1], ("s", key, j))

        # Counterclockwise rotations.  Boundary vertices see, in ccw order:
        # the next boundary arc, the chord into the disk, the previous arc.
        rot: dict = {}
        for i in range(K):
            u = items[i]
            nxt = arc_forward[i]
            prev_back = twin[arc_forward[(i - 1) % K]]
            if u[0] == "c":
                rot[u] = [nxt, prev_back]
            else:
                chord = next(d for d in out_at[u] if d[2][0] == "s")
                rot[u] = [nxt, chord, prev_back]
        for x in xs_here:
            xv = ("x", x.key())

            def dart_of(key, fore: bool):
                j = seg_nodes[key].index(xv)
                want = j if fore else j - 1
                for d in out_at[xv]:
                    tag = d[2]
                    if tag[0] == "s" and tag[1] == key and tag[2] == want:
                        return d
                raise AssertionError("missing crossing dart")

            a_fore, a_back = dart_of(x.a_key, True), dart_of(x.a_key, False)
            b_fore, b_back = dart_of(x.b_key, True), dart_of(x.b_key, False)
            if x.sign == 1:
                rot[xv] = [a_fore, b_fore, a_back, b_back]
            else:
                rot[xv] = [a_fore, b_back, a_back, b_fore]

        def next_in_face(d):
            r = rot[d[1]]
            return r[(r.index(twin[d]) - 1) % len(r)]

        faces = []
        seen = set()
        for d0 in darts:
            if d0 in seen:
                continue
            face = []
            d = d0
            while True:
                face.append(d)
                seen.add(d)
                d = next_in_face(d)
                if d == d0:
                    break
            faces.append(face)
        if len(out_at) - len(darts) // 2 + len(faces) != 2:
            raise AssertionError("local subdivision is not spherical")
        outer = next(i for i, f in enumerate(faces)
                     if twin[arc_forward[0]] in f)
        inner = [f for i, f in enumerate(faces) if i != outer]

        arc_info = {arc_forward[i]: item_gap[i] for i in range(K)}
        return _LocalMap(inner, arc_info, next_in_face, seg_nodes)

    # -- global regions ---------------------------------------------------------

    def analyze(self, crossings: Optional[list] = None) -> Analysis:
        if crossings is None:
            crossings = self.crossings()
        links_by_tri = self._links_by_triangle()
        maps = {t: self._triangle_subdivision(t, crossings, links_by_tri)
                for t in range(self.tri.n_triangles())}

        parent: dict = {}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        face_of_dart: dict = {}
        for t, lm in maps.items():
            for fi, face in enumerate(lm.faces):
                parent[(t, fi)] = (t, fi)
                for d in face:
                    face_of_dart[(t, d)] = (t, fi)

        gap_sides: dict = {}
        for t, lm in maps.items():
            for d, gap in lm.arc_info.items():
                if (t, d) in face_of_dart:
                    gap_sides.setdefault(gap, []).append((t, d))
        partner: dict = {}
        for gap, sides in gap_sides.items():
            if len(sides) != 2:
                raise AssertionError(f"gap {gap} has {len(sides)} face sides")
            (t1, d1), (t2, d2) = sides
            union(face_of_dart[(t1, d1)], face_of_dart[(t2, d2)])
            partner[(t1, d1)] = (t2, d2)
            partner[(t2, d2)] = (t1, d1)

        def next_strand(td):
            t, d = td
            nxt = maps[t].next_in_face(d)
            while nxt[2][0] == "a":
                t, jump = partner[(t, nxt)]
                nxt = maps[t].next_in_face(jump)
            return (t, nxt)

        circles = []
        seen: set = set()
        for t, lm in maps.items():
            for face in lm.faces:
                for d in face:
                    if d[2][0] != "s" or (t, d) in seen:
                        continue
                    circle = []
                    cur = (t, d)
                    while True:
                        circle.append(cur)
                        seen.add(cur)
                        cur = next_strand(cur)
                        if cur == (t, d):
                            break
                    circles.append(circle)

        data: dict = {}
        for t, lm in maps.items():
            for fi, face in enumerate(lm.faces):
                root = find((t, fi))
                entry = data.setdefault(root, {
                    "faces": [], "gaps": set(), "vertex": False,
                    "circles": [], "visits": 0, "xkeys": []})
                entry["faces"].append((t, fi))
                for d in face:
                    u, v, tag = d
                    if tag[0] == "a":
                        entry["gaps"].add(maps[t].arc_info[d])
                    if u[0] == "c" or v[0] == "c":
                        entry["vertex"] = True
                    if u[0] == "x":
                        entry["visits"] += 1
                        entry["xkeys"].append(u[1])
        for circle in circles:
            t, d = circle[0]
            data[find(face_of_dart[(t, d)])]["circles"].append(circle)

        regions = [Region(e["faces"], e["gaps"], e["vertex"], e["circles"],
                          e["visits"], e["xkeys"])
                   for _, e in sorted(data.items())]

        total = sum(r.chi for r in regions)
        expected = self.tri.surface.euler_characteristic + len(crossings)
        if total != expected:
            raise AssertionError(f"region chi sum {total} != {expected}")
        return Analysis(crossings, regions, maps)


# ---------------------------------------------------------------------------
# Bigon elimination
# ---------------------------------------------------------------------------


def _dart_link_dir(maps, td):
    """(link key, direction along the curve) of a strand dart."""
    t, (u, _v, tag) = td
    _, key, j = tag
    nodes = maps[t].seg_nodes[key]
    return key, (1 if u == nodes[j] else -1)


@dataclass
class _Run:
    """One corner-to-corner stretch of a bigon boundary, along one curve."""

    cid: int
    dirn: int
    interior: list              # tokens passed, in walk order
    between_tris: list          # triangle of the link between interior[k], [k+1]
    t_first: int                # triangle of the crossing the run leaves
    t_last: int                 # triangle of the crossing the run reaches
    token_before: object        # curve token just outside the run, entry side
    token_after: object         # curve token just outside the run, exit side


def _run_info(arr: Arrangement, maps, run) -> _Run:
    uid_to_tok = {tok.uid: tok for c in arr.curves for tok in c.tokens}
    key0, dir0 = _dart_link_dir(maps, run[0])
    cid = key0[0]
    curve = arr.curves[cid]
    n = len(curve)
    interior = []
    tris_after = []
    for a, b in zip(run, run[1:]):
        shared = a[1][1]
        if shared[0] != "t":
            raise AssertionError("run interrupted by a crossing")
        interior.append(uid_to_tok[shared[1]])
        tris_after.append(b[0])
    key_last, dir_last = _dart_link_dir(maps, run[-1])
    if key_last[0] != cid or dir_last != dir0:
        raise AssertionError("run is not a coherent stretch of one curve")
    between = tris_after[:-1] if interior else []
    ix, iy = key0[1], key_last[1]
    if dir0 == 1:
        before, after = curve.tokens[ix], curve.tokens[(iy + 1) % n]
    else:
        before, after = curve.tokens[(ix + 1) % n], curve.tokens[iy]
    return _Run(cid, dir0, interior, between, run[0][0], run[-1][0],
                before, after)


def _slide(arr: Arrangement, analysis: Analysis, region: Region) -> None:
    """Isotope A across the bigon `region`, removing its two crossings."""
    maps = analysis.local_maps
    if len(region.circles) != 1:
        raise AssertionError("bigon region must have one boundary circle")
    circle = region.circles[0]
    corner_at = [i for i, td in enumerate(circle) if td[1][0][0] == "x"]
    if len(corner_at) != 2:
        raise AssertionError("bigon region must have two corners")
    i1, i2 = corner_at
    runs = [circle[i1:i2], circle[i2:] + circle[:i1]]
    infos = [_run_info(arr, maps, r) for r in runs]
    if (infos[0].cid == 0) == (infos[1].cid == 0):
        raise AssertionError("bigon runs must pair A with a B component")
    alpha, beta = (infos[0], infos[1]) if infos[0].cid == 0 else (infos[1], infos[0])

    # The circle walks x -> alpha -> y -> beta -> x, where x is the crossing
    # alpha starts at.  Beta therefore walks y -> x; flip it to x -> y so it
    # runs alongside alpha.
    b_interior = list(reversed(beta.interior))
    b_between = list(reversed(beta.between_tris))
    t_x, t_y = alpha.t_first, alpha.t_last
    n_new = len(b_interior)
    if n_new == 0 and t_x != t_y:
        raise AssertionError("chordless beta must stay in one triangle")

    # For each beta token decide the side away from the region (the region
    # holds exactly one of the two flanking gaps).  Record before mutating.
    plans = []
    for tok in b_interior:
        p = arr.edge_pts[tok.edge].index(tok)
        before_in = (tok.edge, p) in region.gaps
        after_in = (tok.edge, p + 1) in region.gaps
        if before_in == after_in:
            raise AssertionError("cannot identify the region side of beta")
        plans.append((tok, after_in))    # region after the token => insert before

    curve = arr.curves[0]
    dropped = set(id(tok) for tok in alpha.interior)
    for tok in alpha.interior:
        arr.edge_pts[tok.edge].remove(tok)

    new_tokens = []
    for tok, insert_before in plans:
        t_new = _Token(tok.edge, 0)
        pts = arr.edge_pts[tok.edge]
        p = pts.index(tok)
        pts.insert(p if insert_before else p + 1, t_new)
        new_tokens.append(t_new)

    # Triangles of the replacement links, in x -> y order: a_in to t'_1 lives
    # where x was, consecutive new tokens share the triangles of the beta
    # links they parallel, and t'_n to a_out lives where y was.
    new_link_tris = [t_x] + b_between + [t_y] if n_new else [t_x]

    kept = [(tok, tri) for tok, tri in zip(curve.tokens, curve.link_tris)
            if id(tok) not in dropped]
    a_in, a_out = alpha.token_before, alpha.token_after
    if id(a_in) in dropped or id(a_out) in dropped:
        # Both bigon corners sit on one A-link and alpha wraps the long way
        # around: every old token is interior, and the slid curve is just the
        # parallel-to-beta path, closed up through the old link's triangle.
        if not (id(a_in) in dropped and id(a_out) in dropped and not kept):
            raise AssertionError("inconsistent wrapped bigon")
        if t_x != t_y or n_new < 2:
            raise AssertionError("wrapped bigon must close in one triangle")
        curve.tokens = list(new_tokens)
        curve.link_tris = b_between + [t_x]
        return
    n = len(kept)
    idx = {id(tok): i for i, (tok, _) in enumerate(kept)}
    if alpha.dirn == 1:
        # Stored order runs ... a_in, a_out ...; rotate a_in to the tail and
        # append the new tokens after it.
        i_in = idx[id(a_in)]
        if (i_in + 1) % n != idx[id(a_out)]:
            raise AssertionError("alpha endpoints not adjacent after deletion")
        rotated = kept[(i_in + 1) % n:] + kept[: (i_in + 1) % n]
        pairs = rotated[:-1] + [(a_in, new_link_tris[0])]
        pairs += list(zip(new_tokens, new_link_tris[1:]))
    else:
        # Stored order runs ... a_out, a_in ...; the new tokens appear in
        # reversed order between them.
        i_out = idx[id(a_out)]
        if (i_out + 1) % n != idx[id(a_in)]:
            raise AssertionError("alpha endpoints not adjacent after deletion")
        rotated = kept[(i_out + 1) % n:] + kept[: (i_out + 1) % n]
        pairs = rotated[:-1] + [(a_out, new_link_tris[-1])]
        pairs += list(zip(reversed(new_tokens), reversed(new_link_tris[:-1])))
    curve.tokens = [tok for tok, _ in pairs]
    curve.link_tris = [tri for _, tri in pairs]


def _algebraically_minimal(xs: Sequence[Crossing]) -> bool:
    """Does every B component meet A exactly |sum of its crossing signs|
    times?  Then no bigon exists (see the module docstring)."""
    count: dict[int, int] = {}
    total: dict[int, int] = {}
    for x in xs:
        cid = x.b_key[0]
        count[cid] = count.get(cid, 0) + 1
        total[cid] = total.get(cid, 0) + x.sign
    return all(n == abs(total[cid]) for cid, n in count.items())


def minimize(arr: Arrangement, drop_free: bool = True,
             max_steps: int = 100000) -> list[Crossing]:
    """Remove bigons until the arrangement is in minimal position, and
    return its crossings.

    Components of the B side that lose all their crossings are dropped (they
    carry no letters and no crossings) unless drop_free is False; keeping
    them could hide a bigon behind an annular region.  Minimization stops
    without analysing regions once the crossing signs certify that every B
    component already meets A minimally."""
    xs = arr.crossings()
    for _ in range(max_steps):
        if not xs:
            return xs
        if drop_free:
            # Dropped components carry no crossings, so xs stays valid.
            busy = {x.b_key[0] for x in xs}
            for c in arr.curves[1:]:
                if c.tokens and c.cid not in busy:
                    for tok in c.tokens:
                        arr.edge_pts[tok.edge].remove(tok)
                    c.tokens = []
                    c.link_tris = []
        if _algebraically_minimal(xs):
            return xs
        analysis = arr.analyze(xs)
        bigons = [r for r in analysis.regions
                  if r.chi == 1 and r.corner_visits == 2]
        if not bigons:
            return xs
        bigons.sort(key=lambda r: sorted(map(repr, r.crossing_keys)))
        _slide(arr, analysis, bigons[0])
        after = arr.crossings()
        if len(after) != len(xs) - 2:
            raise AssertionError(
                f"slide changed crossings {len(xs)} -> {len(after)}")
        xs = after
    raise AssertionError("minimization did not terminate")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def intersection_number(tri: Triangulation, a_vec, b_vec) -> int:
    return len(minimize(Arrangement(tri, [a_vec, b_vec])))


def isotopic(tri: Triangulation, a_vec, b_vec) -> bool:
    """Exact isotopy test for connected essential curves: minimize, then look
    for an annulus region whose two boundary circles are the two curves."""
    arr = Arrangement(tri, [a_vec, b_vec])
    if minimize(arr, drop_free=False):
        return False
    analysis = arr.analyze()
    want = {0: len(arr.curves[0]), 1: len(arr.curves[1])}
    for region in analysis.regions:
        if region.chi != 0:
            continue
        counts: dict[tuple[int, int], int] = {}
        per_curve = {0: 0, 1: 0}
        for circle in region.circles:
            for td in circle:
                key = td[1][2][1]
                counts[key] = counts.get(key, 0) + 1
                per_curve[key[0]] += 1
        if all(v == 1 for v in counts.values()) \
                and per_curve[0] == want[0] and per_curve[1] == want[1]:
            return True
    return False


def crossing_word(tri: Triangulation, curve_vec, system_vecs):
    """Signed crossing sequence of a curve against a disjoint curve system.

    Returns (letters, counts): letters is the cyclic list of
    (system index, sign) met along the curve in minimal position; counts[i]
    is the exact geometric intersection number with system curve i.
    """
    union = tuple(sum(v[e] for v in system_vecs) for e in range(tri.n_edges))
    arr = Arrangement(tri, [curve_vec, union])
    index_of = {}
    for c in arr.curves[1:]:
        vec = arr.component_vector(c.cid)
        matches = [i for i, v in enumerate(system_vecs) if tuple(v) == vec]
        if len(matches) != 1:
            raise ValueError(
                "system components do not match the given curve vectors; "
                "the system is not realizable disjointly as given")
        index_of[c.cid] = matches[0]
    xs = minimize(arr)
    letters = []
    counts = [0] * len(system_vecs)
    for i in range(len(arr.curves[0])):
        for x in arr.crossings_on_link((0, i), xs):
            cid = x.b_key[0]
            letters.append((index_of[cid], x.sign))
            counts[index_of[cid]] += 1
    return letters, counts


def complement_regions(tri: Triangulation, union_vec):
    """Regions of the complement of a multicurve (no distinguished curve).

    Returns ([(chi, n_boundary_circles, contains_vertex)], component vectors).
    """
    arr = Arrangement(tri, [union_vec])
    if arr.crossings():
        raise AssertionError("a single multicurve cannot self-cross")
    analysis = arr.analyze()
    comps = [arr.component_vector(c.cid) for c in arr.curves]
    return [(r.chi, r.n_boundary_circles, r.contains_vertex)
            for r in analysis.regions], comps
