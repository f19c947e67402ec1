"""Exact curve arrangements on a triangulated surface.

Realizes one distinguished curve A (curve id 0) together with a pairwise
disjoint multicurve B (curve ids 1..) on a one-vertex triangulation.  Each
curve is a cyclic list of tokens, the points where it crosses triangulation
edges, joined by links, the arcs it draws inside the triangles.  Bigons are
eliminated by sliding A across B until none is left, which is minimal
position by the bigon criterion (Farb-Margalit, "A Primer on Mapping Class
Groups", Prop. 1.7).

A bigon's corners x and y follow each other along A and along one B
component.  The crossing-free A-arc from x to y and the B-arc between them
form a loop L, and L bounds a bigon exactly when its cyclic word of crossed
edges, with equal neighbours cancelled until none are left, is empty or is
the vertex link's word up to rotation and reversal.  The test is exact:
  1. Every edge lies in two distinct triangles, so crossing one edge twice
     in a row is a return, and the cancelling is free reduction in the
     fundamental group of the dual graph, a deformation retract of the
     surface minus the vertex.
  2. A simple closed curve that is null-homotopic bounds a disk (Epstein,
     "Curves on 2-manifolds and isotopies", 1966).  If the disk misses the
     vertex, L's word reduces to nothing; if it holds the vertex, L is
     freely homotopic off the vertex to the vertex link, whose word is
     already cyclically reduced.
  3. The arcs have no crossing inside them, so the disk holds no part of A
     or B, and it is the corner at x between them: otherwise A would lie in
     its closure, and A is essential wherever bigons are removed.
So bigons that swallow the vertex are found like any other, and no map
of the surface is drawn to find one.

Each crossing carries the local sign of A against its B component, so the
sum of signs over a component is their algebraic intersection number.  That
number bounds the geometric one from below, and a slide across a bigon
would push the crossing count below it.  Minimization therefore stops,
without looking for bigons, as soon as every B component meets A exactly
|sum of signs| times.

Regions, for the isotopy test, are read off crossing-free arrangements
only, where the links in each triangle are disjoint chords.  A walk
counterclockwise round each triangle's boundary keeps a stack of (face
outside the link, link): a link's first end opens a new face, and its
second end closes that face and returns to the one below.  An end whose
link is open but not on top means two links cross.  The gaps between
consecutive tokens along an edge join the faces of its two triangles, and
uniting faces across gaps gives the regions.  An open region's Euler
characteristic is its faces minus its gaps, plus one for the region that
holds the triangulation vertex, which holds the first gap of every edge.

The same machinery answers, exactly: geometric intersection numbers
(crossings after minimization), signed crossing words of A against the
components of B, isotopy of two disjoint curves (an annulus region, chi = 0,
between them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .surface import Triangulation, _partition


@dataclass
class _Curve:
    """A closed curve as a cyclic token list; link i joins tokens[i] to
    tokens[i+1 mod n] inside triangle link_tris[i]."""

    cid: int
    tokens: list[int]
    link_tris: list[int]

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Crossing:
    """A crossing of an A link with a B link; places as in `crossings`."""

    triangle: int
    a_key: tuple[int, int]      # (curve id 0, link index)
    b_key: tuple[int, int]      # (curve id >= 1, link index)
    sign: int
    a_place: tuple[int, int]    # place along the A link
    b_place: tuple[int, int]    # place along the B link

    def key(self):
        return (self.a_key, self.b_key)


def _in_open_arc(x, a, b) -> bool:
    """Is x strictly inside the cyclic interval (a, b)?"""
    if a < b:
        return a < x < b
    return x > a or x < b


class Arrangement:
    """Chord arrangement of multicurves given by admissible vectors.

    vectors[0] becomes curve 0 (A, unless used in single-multicurve mode);
    every later vector contributes one curve per traced component.  Only
    curve 0 may cross the others; any other interleaving raises.  Tokens are
    ints: tok_edge[t] is the edge of token t, and edge_pts[e] lists the
    tokens on edge e along its arrow.
    """

    def __init__(self, tri: Triangulation, vectors: Sequence[Sequence[int]]):
        self.tri = tri
        self.curves: list[_Curve] = []
        self.tok_edge: list[int] = []
        self.edge_pts: list[list[int]] = [[] for _ in range(tri.n_edges)]
        for vec in vectors:
            comps = tri.trace(vec)
            first = []
            for e, w in enumerate(vec):
                first.append(len(self.tok_edge))
                self.edge_pts[e].extend(range(first[e], first[e] + w))
                self.tok_edge.extend([e] * w)
            for comp in comps:
                self.curves.append(_Curve(
                    len(self.curves), [first[e] + p for e, p in comp.cycle],
                    list(comp.triangles)))

    def _new_token(self, edge: int) -> int:
        self.tok_edge.append(edge)
        return len(self.tok_edge) - 1

    # -- elementary queries ---------------------------------------------------

    def component_vector(self, cid: int) -> tuple[int, ...]:
        vec = [0] * self.tri.n_edges
        for tok in self.curves[cid].tokens:
            vec[self.tok_edge[tok]] += 1
        return tuple(vec)

    def _positions(self) -> list[int]:
        """Index of every token in its edge's list."""
        pos = [0] * len(self.tok_edge)
        for pts in self.edge_pts:
            for i, tok in enumerate(pts):
                pos[tok] = i
        return pos

    def _link_coords(self) -> dict:
        """link key -> (triangle, start, end), where an end is (m, p): side m
        of the triangle and the token's place along it, counterclockwise."""
        pos = self._positions()
        tri = self.tri

        def coord(t: int, tok: int) -> tuple[int, int]:
            e = self.tok_edge[tok]
            m = tri.side_of[t, e]
            if tri.plus_triangle[e] == t:
                return (m, pos[tok])
            return (m, len(self.edge_pts[e]) - 1 - pos[tok])

        out = {}
        for c in self.curves:
            toks = c.tokens
            for i, t in enumerate(c.link_tris):
                out[c.cid, i] = (t, coord(t, toks[i]),
                                 coord(t, toks[(i + 1) % len(toks)]))
        return out

    def crossings(self) -> list[Crossing]:
        """Every crossing of A with B, by triangle, then link keys.

        Two links cross when exactly one end of one lies inside the boundary
        arc running counterclockwise from the other's start to its end.  A
        crossing's place along a link is the other link's end inside that
        link's arc: (m, k) for place k on side m, or (m + 3, k) once the arc
        has wrapped past its start.  The chords crossing one link are
        pairwise disjoint, so their places order them along it.  The sign is
        +1 when B starts inside A's arc."""
        coords = self._link_coords()
        by_tri: dict[int, list] = {}
        for key, (t, _, _) in coords.items():
            by_tri.setdefault(t, []).append(key)

        def place(x, start):
            return x if x > start else (x[0] + 3, x[1])

        out = []
        for t, links in sorted(by_tri.items()):
            for ak, bk in itertools.combinations(sorted(links), 2):
                _, p, q = coords[ak]
                _, r, s = coords[bk]
                r_inside = _in_open_arc(r, p, q)
                if r_inside == _in_open_arc(s, p, q):
                    continue
                if ak[0] != 0 or bk[0] == 0:
                    raise AssertionError(
                        f"links {ak} and {bk} cross but are not an A-B pair")
                # Crossing chords alternate around the boundary: p, r, q, s
                # when r is inside A's arc, else p, s, q, r.
                if r_inside:
                    x = Crossing(t, ak, bk, 1, place(r, p), place(q, r))
                else:
                    x = Crossing(t, ak, bk, -1, place(s, p), place(p, r))
                out.append(x)
        return out


# ---------------------------------------------------------------------------
# Bigon elimination
# ---------------------------------------------------------------------------


def _free_reduce(word: Sequence, inverse: Callable) -> list:
    """The cyclic word reduced in its free group: one stack pass cancels
    adjacent inverse letters, then inverse pairs are trimmed off the two
    ends, which leaves no new adjacent pair.  `inverse` maps a letter to
    its inverse."""
    w: list = []
    for x in word:
        if w and w[-1] == inverse(x):
            w.pop()
        else:
            w.append(x)
    i, j = 0, len(w) - 1
    while i < j and w[i] == inverse(w[j]):
        i += 1
        j -= 1
    return w[i:j + 1]


def _loop_is_trivial(tri: Triangulation, word: Sequence[int]) -> bool:
    """Does a simple closed curve that misses the vertex, crossing the edges
    `word` in cyclic order, bound a disk?  See the module docstring: each
    edge letter is its own inverse."""
    w = _free_reduce(word, lambda e: e)
    if len(w) != len(tri.vertex_rotation):
        return not w
    link = [e for e, _ in tri.vertex_rotation]
    return any(w[k:] + w[:k] in (link, link[::-1]) for k in range(len(w)))


def _runs(xs: Sequence[Crossing]) -> dict[int, list]:
    """Each curve's crossings in order along it, as (link index, place,
    crossing), keyed by curve id; A's run is there even when empty."""
    runs: dict[int, list] = {0: []}
    for x in xs:
        runs[0].append((x.a_key[1], x.a_place, x))
        runs.setdefault(x.b_key[0], []).append((x.b_key[1], x.b_place, x))
    for run in runs.values():
        run.sort()
    return runs


def _arc(n: int, run: list, k: int) -> list[int]:
    """Indices of the tokens a curve of n tokens passes from its k-th
    crossing to the next, where run lists its crossings in order along it
    as (link index, place, crossing)."""
    i, j = run[k][0], run[(k + 1) % len(run)][0]
    count = (j - i) % n or (n if k == len(run) - 1 else 0)
    return [(i + 1 + m) % n for m in range(count)]


def _least_bigon(arr: Arrangement, runs: dict[int, list]):
    """The bigon whose corner keys sort least, as (x, y, alpha, beta,
    forward), or None.  alpha lists the indices of the tokens A passes from
    corner x to corner y, and beta those its B component passes between
    them, in order from x to y, which runs forward along it when `forward`."""
    place = {x: k for cid, run in runs.items() if cid
             for k, (_, _, x) in enumerate(run)}
    a, a_run, edge = arr.curves[0], runs[0], arr.tok_edge
    best = None
    for k, (_, _, x) in enumerate(a_run):
        y = a_run[(k + 1) % len(a_run)][2]
        cid = x.b_key[0]
        if y is x or y.b_key[0] != cid:
            continue
        b, b_run = arr.curves[cid], runs[cid]
        kx, ky = place[x], place[y]
        alpha = _arc(len(a), a_run, k)
        # The B arc runs forward from x to y, or forward from y to x.
        for forward, k0, k1 in ((True, kx, ky), (False, ky, kx)):
            if (k1 - k0) % len(b_run) != 1:
                continue
            arc = _arc(len(b), b_run, k0)
            back = [edge[b.tokens[u]] for u in arc]
            word = [edge[a.tokens[u]] for u in alpha] + (
                back[::-1] if forward else back)
            if _loop_is_trivial(arr.tri, word):
                key = sorted(map(repr, (x.key(), y.key())))
                if best is None or key < best[0]:
                    best = (key, (x, y, alpha, arc if forward else arc[::-1],
                                  forward))
    return best and best[1]


def _slide(arr: Arrangement, x: Crossing, y: Crossing, alpha: list,
           beta: list, forward: bool) -> None:
    """Isotope A across the bigon with corners x and y, as `_least_bigon`
    gives it, removing both.  The bigon is the corner at x between alpha,
    which leaves x forward along A, and beta.  At sign +1, A crosses B from
    B's left to its right, and B crosses A from A's right to its left (see
    `crossings`).  So the bigon lies on B's left exactly when x.sign is -1,
    and on A's left when beta leaves x forward along B at sign +1 or
    backward at sign -1."""
    tri, a, b = arr.tri, arr.curves[0], arr.curves[x.b_key[0]]
    if not beta and x.triangle != y.triangle:
        raise AssertionError("chordless beta must stay in one triangle")
    b_between = [b.link_tris[u if forward else v]
                 for u, v in zip(beta, beta[1:])]

    # Each beta token gets a new A token beside it, on the side away from
    # the bigon.  B's left gap at a token is the one after it exactly when
    # the token's edge has sign +1 in the triangle of the B link arriving
    # at it.
    beside = {}
    for u in beta:
        tok, t = b.tokens[u], b.link_tris[u - 1]
        e = arr.tok_edge[tok]
        left_after = tri.plus_triangle[e] == t
        beside[tok] = (arr._new_token(e), left_after == (x.sign == -1))
    new_tokens = [new for new, _ in beside.values()]
    dropped = {a.tokens[u] for u in alpha}
    for e in {arr.tok_edge[tok] for tok in itertools.chain(dropped, beside)}:
        pts = []
        for tok in arr.edge_pts[e]:
            if tok in beside:
                new, bigon_after = beside[tok]
                pts += [new, tok] if bigon_after else [tok, new]
            elif tok not in dropped:
                pts.append(tok)
        arr.edge_pts[e] = pts

    kept = [(tok, t) for tok, t in zip(a.tokens, a.link_tris)
            if tok not in dropped]
    a_in = a.tokens[x.a_key[1]]
    a_out = a.tokens[(y.a_key[1] + 1) % len(a)]
    if a_in in dropped or a_out in dropped:
        # Both corners sit on one A-link and alpha wraps the long way round:
        # the slid curve is the parallel-to-beta path, closed up through the
        # old link's triangle, and oriented with the bigon on its left, which
        # fixes the signs of its crossing word.
        if not (a_in in dropped and a_out in dropped and not kept):
            raise AssertionError("inconsistent wrapped bigon")
        if x.triangle != y.triangle or len(beta) < 2:
            raise AssertionError("wrapped bigon must close in one triangle")
        if forward != (x.sign == 1):
            new_tokens.reverse()
            b_between.reverse()
        a.tokens, a.link_tris = new_tokens, b_between + [x.triangle]
        return
    # Stored order runs ... a_in, a_out ...; rotate a_in to the tail and
    # append the new tokens after it.  The link from a_in lives where x was,
    # consecutive new tokens share the triangles of the beta links they
    # parallel, and the link into a_out lives where y was.
    i_in = next(i for i, (tok, _) in enumerate(kept) if tok == a_in)
    if kept[(i_in + 1) % len(kept)][0] != a_out:
        raise AssertionError("alpha endpoints not adjacent after deletion")
    pairs = kept[i_in + 1:] + kept[:i_in] + [(a_in, x.triangle)]
    pairs += zip(new_tokens, b_between + [y.triangle])
    a.tokens = [tok for tok, _ in pairs]
    a.link_tris = [t for _, t in pairs]


def _algebraically_minimal(runs: dict[int, list]) -> bool:
    """Does every B component's run meet A exactly |sum of its signs|
    times?  Then no bigon exists (see the module docstring)."""
    return all(len(run) == abs(sum(x.sign for _, _, x in run))
               for cid, run in runs.items() if cid)


def minimize(arr: Arrangement) -> list[Crossing]:
    """Remove bigons until the arrangement is in minimal position, and
    return its crossings.

    Minimization stops without looking for bigons once the crossing signs
    certify that every B component already meets A minimally, as they do
    when none is left.  Each slide removes two crossings, so there are at
    most half as many slides as starting crossings.  A B component left
    without crossings stays: A slides only across bigon disks, and no
    essential curve fits inside one."""
    xs = arr.crossings()
    for _ in range(len(xs) // 2 + 1):
        runs = _runs(xs)
        if _algebraically_minimal(runs):
            return xs
        bigon = _least_bigon(arr, runs)
        if bigon is None:
            return xs
        _slide(arr, *bigon)
        after = arr.crossings()
        if len(after) != len(xs) - 2:
            raise AssertionError(
                f"slide changed crossings {len(xs)} -> {len(after)}")
        xs = after
    raise AssertionError("minimization did not terminate")


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


def _region_chis(arr: Arrangement) -> list[int]:
    """The Euler characteristic of each region of a crossing-free
    arrangement, by the walk in the module docstring.  Raises
    AssertionError when two links cross."""
    link_at = {}                # (triangle, token) -> the link ending there
    for c in arr.curves:
        for i, t in enumerate(c.link_tris):
            link_at[t, c.tokens[i]] = (c.cid, i)
            link_at[t, c.tokens[(i + 1) % len(c)]] = (c.cid, i)
    gap_faces: dict = {}        # gap (e, k) -> the faces on its two sides
    opened = set()
    n_faces = 0
    for t, sides in enumerate(arr.tri.triangles):
        stack = [(n_faces, None)]   # (face outside the link, link)
        n_faces += 1
        for e, s in sides:
            pts = arr.edge_pts[e]
            for k in sorted(range(len(pts)), reverse=s < 0):
                gap = (e, k + 1 if s < 0 else k)
                gap_faces.setdefault(gap, []).append(stack[-1][0])
                link = link_at[t, pts[k]]
                if stack[-1][1] == link:
                    stack.pop()
                elif link in opened:
                    raise AssertionError(
                        f"links {link} and {stack[-1][1]} cross")
                else:
                    opened.add(link)
                    stack.append((n_faces, link))
                    n_faces += 1
            gap = (e, 0 if s < 0 else len(pts))
            gap_faces.setdefault(gap, []).append(stack[-1][0])
    regions = _partition(range(n_faces), gap_faces.values())
    region_of = {f: r for r, faces in enumerate(regions) for f in faces}
    chis = [len(faces) for faces in regions]
    for f, _ in gap_faces.values():
        chis[region_of[f]] -= 1
    chis[region_of[gap_faces[0, 0][0]]] += 1
    return chis


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def intersection_number(tri: Triangulation, a_vec, b_vec) -> int:
    return len(minimize(Arrangement(tri, [a_vec, b_vec])))


def isotopic(tri: Triangulation, a_vec, b_vec) -> bool:
    """Exact isotopy test for connected essential curves A and B.

    Curves that meet in minimal position are not isotopic.  Otherwise they
    are disjoint, and disjoint essential curves are isotopic exactly when
    they cobound an annulus, which is then a region of the crossing-free
    arrangement.  So the answer is whether some region has chi = 0:
      * with no crossings, every boundary circle is one whole side of one
        curve;
      * an open orientable region with chi = 0 is an annulus;
      * its two circles cannot both be sides of one curve: that curve and
        the annulus would close up into the whole surface, a torus, and
        leave nowhere for the other curve.
    `minimize` returns as soon as no crossing is left, and it moves only A,
    so B is still in the arrangement."""
    arr = Arrangement(tri, [a_vec, b_vec])
    xs = minimize(arr)
    return not xs and 0 in _region_chis(arr)


def _system_index(component_vecs, system_vecs) -> list[int]:
    """The index in system_vecs of each traced component's vector.  Raises
    ValueError unless each matches exactly one."""
    out = []
    for vec in component_vecs:
        matches = [i for i, v in enumerate(system_vecs) if tuple(v) == vec]
        if len(matches) != 1:
            raise ValueError(
                "system components do not match the given curve vectors; "
                "the system is not realizable disjointly as given")
        out.append(matches[0])
    return out


def crossing_word(tri: Triangulation, curve_vec, system_vecs):
    """Signed crossing sequence of a curve against a disjoint curve system,
    in minimal position.

    Returns (letters, counts): letters is the cyclic list of
    (system index, sign) met along the curve, and counts[i] the number of
    letters of system curve i, the exact geometric intersection number with
    system curve i.
    """
    union = tuple(sum(v[e] for v in system_vecs) for e in range(tri.n_edges))
    arr = Arrangement(tri, [curve_vec, union])
    index = _system_index(
        [arr.component_vector(c.cid) for c in arr.curves[1:]], system_vecs)
    letters = [(index[x.b_key[0] - 1], x.sign)
               for _, _, x in _runs(minimize(arr))[0]]
    return letters, [sum(j == i for j, _ in letters)
                     for i in range(len(system_vecs))]
