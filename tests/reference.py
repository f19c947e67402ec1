"""Slow reference versions of the engine's fast paths, in one place.

Each function here is either the way the engine used to compute something
before a faster method replaced it, or an independent check that never was
the engine's own.  The tests compare each fast path against its reference
on fixed data; change neither the references nor that data to make a test
pass.

  fast path                           reference
  arrangement.isotopic                reference_isotopic
  arrangement._region_chis            reference_analyze
  arrangement.minimize                reference_minimize
  Triangulation.trace                 reference_trace
  Triangulation.check_matching        reference_check_matching
  Triangulation.corner_counts         reference_corner_counts
  surface.admissible_vectors          reference_admissible_vectors
  surface.homology_class              reference_homology_class
  surface._blocks_meet                reference_block_crossings
  surface._intersection, torus rung   reference_torus_intersection
  disk_complex._bfs_distance          reference_bfs_distance
  disk_complex.splitting_distance     reference_splitting_distance
  handlebody.validate_cut_system      reference_validate_cut_system
  ghs.validate_ghs                    reference_validate_ghs
  ghs._moves_with_reports             reference_moves_with_reports
  ghs.apply_move_report               reference_apply_move_report
  sog.SymbolicOracle                  reference_symbolic_states,
                                      reference_symbolic_edges
  sog.flatten                         reference_flatten

`reference_analyze` draws the planar map of an arrangement, crossings and
all, and reads its regions off it; `complement_regions` reads a
multicurve's complement off that map, for the cut-system reference and the
arrangement goldens.
"""

import heapq
import itertools
from dataclasses import dataclass

from heegaard_lab import arrangement
from heegaard_lab.disk_complex import (
    DistanceResult,
    _component_index,
    build_gamma,
    build_lambda,
    component_distance,
)
from heegaard_lab.errors import InputError
from heegaard_lab.ghs import (
    GHS,
    CompressionDescriptor,
    Destabilization,
    InvalidMove,
    Move,
    MoveReport,
    WeakReduction,
    _Refusal,
    _cancellation,
    _carrying,
    _compress,
    _descriptors,
    _one_compression_apart,
    _one_step_compressions,
    _strip_and_merge,
    _thick,
    collection,
    compare_ghs,
    compress,
    ghs_key,
    validate_ghs,
)
from heegaard_lab.handlebody import CutSystem, InvalidCutSystem
from heegaard_lab.sog import (
    _TERMINAL,
    SOG,
    FlattenBudgetExhausted,
    _reconstruct,
)
from heegaard_lab.surface import (
    InvalidCoordinates,
    ModelSurface,
    SurfaceMismatch,
    TracedCurve,
    _component_counts,
    _partition,
    admissible_vectors,
    canonical_triangulation,
    coords_to_slope,
    geometric_intersection,
    same_class,
    slope_intersection,
)

NOT_DISJOINT = ("the stored coordinate vectors do not overlay disjointly; "
                "re-supply representatives that are disjoint as drawn")


def connected_essential_vectors(genus, cap):
    """Every connected essential vector of weight <= cap, so that a class
    drawn on both sides of the vertex appears once per drawing."""
    tri = canonical_triangulation(genus)
    link = tri.vertex_link_vector()
    return [v for v in admissible_vectors(tri, cap)
            if v != link and len(tri.trace(v)) == 1]


@dataclass
class Region:
    """A complementary region of the arrangement.

    chi is the Euler characteristic of the open region (faces minus the gap
    arcs between them, plus one if the region swallows the triangulation
    vertex).  Each boundary circle is a list of steps
    (link key, triangle, direction along the curve, tail, head), where a
    tail or head is a token id, or a negative number for a crossing."""

    faces: list
    gaps: set                   # (edge, k): the gap just before token k
    contains_vertex: bool
    circles: list
    crossing_keys: list         # one per corner of the region

    @property
    def chi(self) -> int:
        return len(self.faces) - len(self.gaps) + (1 if self.contains_vertex else 0)


def reference_analyze(arr, crossings=None):
    """Regions of the arrangement, read off one planar map of the surface.
    This was `Arrangement.analyze` before `arrangement._region_chis`
    counted the regions of crossing-free arrangements by a walk.

    Nodes are token ids, then the vertex; crossing i is node ~i, which
    indexes the node table from its end.  Darts are ints with twin
    d ^ 1, gap darts first, and an even dart runs along the edge arrow
    or the link.  Each node lists its outgoing darts counterclockwise: a
    token has the gap toward the edge's head, its chord into the +1
    triangle, the gap toward the tail and its chord into the -1
    triangle; a crossing has A forward then B forward when its sign is
    +1, B backward when -1; the vertex follows the triangulation.  The
    face after dart d is the dart before d ^ 1 at d's head.  Uniting
    faces across gap arcs gives the regions, and walking chord darts
    while turning past gap darts gives their boundary circles.
    """
    if crossings is None:
        crossings = arr.crossings()
    tri = arr.tri
    vertex = len(arr.tok_edge)
    rot: list[list[int]] = [[] for _ in range(vertex + 1 + len(crossings))]
    tail: list[int] = []    # tail node of each dart
    label: list = []        # per edge: gap (e, k) or chord (link key, t)

    def add_edge(u: int, v: int, lab) -> int:
        tail.append(u)
        tail.append(v)
        label.append(lab)
        return len(tail) - 2

    first_gap = []
    for e, pts in enumerate(arr.edge_pts):
        first_gap.append(len(tail))
        nodes = [vertex] + pts + [vertex]
        for k in range(len(nodes) - 1):
            add_edge(nodes[k], nodes[k + 1], (e, k))
        for k, tok in enumerate(pts):
            rot[tok] = [first_gap[e] + 2 * k + 2, -1,
                        first_gap[e] + 2 * k + 1, -1]
    n_gap_darts = len(tail)
    for e, end in reversed(tri.vertex_rotation):
        rot[vertex].append(first_gap[e] if end == "tail" else
                           first_gap[e] + 2 * len(arr.edge_pts[e]) + 1)

    def chord_slot(t: int, tok: int) -> int:
        e = arr.tok_edge[tok]
        return 1 if tri.plus_triangle[e] == t else 3

    node_of = {x: ~i for i, x in enumerate(crossings)}
    x_darts = [[0, 0, 0, 0] for _ in crossings]  # A, B fore; A, B back
    on_link: dict = {}      # link key -> its crossing nodes in order
    for cid, run in arrangement._runs(crossings).items():
        for i, _, x in run:
            on_link.setdefault((cid, i), []).append(node_of[x])
    for c in arr.curves:
        side = 0 if c.cid == 0 else 1
        for i, t in enumerate(c.link_tris):
            key = (c.cid, i)
            u, v = c.tokens[i], c.tokens[(i + 1) % len(c)]
            nodes = [u] + on_link.get(key, []) + [v]
            segs = [add_edge(nodes[j], nodes[j + 1], (key, t))
                    for j in range(len(nodes) - 1)]
            rot[u][chord_slot(t, u)] = segs[0]
            rot[v][chord_slot(t, v)] = segs[-1] ^ 1
            for j in range(1, len(nodes) - 1):
                darts = x_darts[~nodes[j]]
                darts[side] = segs[j]
                darts[2 + side] = segs[j - 1] ^ 1
    for x, (af, bf, ab, bb) in zip(crossings, x_darts):
        rot[node_of[x]] = [af, bf, ab, bb] if x.sign == 1 else [af, bb, ab, bf]

    where = [0] * len(tail)
    for r in rot:
        for i, d in enumerate(r):
            where[d] = i

    def next_in_face(d: int) -> int:
        d ^= 1
        return rot[tail[d]][where[d] - 1]

    face = [-1] * len(tail)
    n_faces = 0
    for d0 in range(len(tail)):
        if face[d0] >= 0:
            continue
        d = d0
        while face[d] < 0:
            face[d] = n_faces
            d = next_in_face(d)
        n_faces += 1
    n_nodes = 1 + sum(map(len, arr.edge_pts)) + len(crossings)
    chi_surface = tri.surface.euler_characteristic
    if n_nodes - len(label) + n_faces != chi_surface:
        raise AssertionError("arrangement map is not a cell decomposition")

    regions = [Region(faces, set(), False, [], []) for faces in _partition(
        range(n_faces), ((face[d], face[d + 1])
                         for d in range(0, n_gap_darts, 2)))]
    region_of = {f: r for r in regions for f in r.faces}
    for d in range(0, n_gap_darts, 2):
        region_of[face[d]].gaps.add(label[d >> 1])
    for d in rot[vertex]:
        region_of[face[d]].contains_vertex = True
    for x in crossings:
        for d in rot[node_of[x]]:
            region_of[face[d]].crossing_keys.append(x.key())

    seen = bytearray(len(tail))
    for d0 in range(n_gap_darts, len(tail)):
        if seen[d0]:
            continue
        circle = []
        d = d0
        while not seen[d]:
            seen[d] = 1
            key, t = label[d >> 1]
            circle.append((key, t, -1 if d & 1 else 1, tail[d], tail[d ^ 1]))
            d = next_in_face(d)
            while d < n_gap_darts:
                d = next_in_face(d ^ 1)
        region_of[face[d0]].circles.append(circle)

    total = sum(r.chi for r in regions)
    expected = chi_surface + len(crossings)
    if total != expected:
        raise AssertionError(f"region chi sum {total} != {expected}")
    return regions


def complement_regions(tri, union_vec):
    """Regions of the complement of a multicurve (no distinguished curve).

    Returns ([(chi, n_boundary_circles, contains_vertex)], component vectors),
    with the regions in order of their least face of the map.
    """
    arr = arrangement.Arrangement(tri, [union_vec])
    if arr.crossings():
        raise AssertionError("a single multicurve cannot self-cross")
    comps = [arr.component_vector(c.cid) for c in arr.curves]
    return [(r.chi, len(r.circles), r.contains_vertex)
            for r in reference_analyze(arr)], comps


# -- arrangement --------------------------------------------------------------


def reference_isotopic(tri, a_vec, b_vec):
    """The annulus scan `isotopic` used to run: after minimization, a
    chi = 0 region whose boundary steps pass every link of both curves
    exactly once."""
    arr = arrangement.Arrangement(tri, [a_vec, b_vec])
    if arrangement.minimize(arr):
        return False
    regions = reference_analyze(arr)
    want = {0: len(arr.curves[0]), 1: len(arr.curves[1])}
    for region in regions:
        if region.chi != 0:
            continue
        counts = {}
        per_curve = {0: 0, 1: 0}
        for circle in region.circles:
            for step in circle:
                key = step[0]
                counts[key] = counts.get(key, 0) + 1
                per_curve[key[0]] += 1
        if all(v == 1 for v in counts.values()) \
                and per_curve[0] == want[0] and per_curve[1] == want[1]:
            return True
    return False


@dataclass
class _Run:
    """One corner-to-corner stretch of a bigon boundary, along one curve."""

    cid: int
    dirn: int
    interior: list              # tokens passed, in walk order
    between_tris: list          # triangle of the link between interior[k], [k+1]
    t_first: int                # triangle of the crossing the run leaves
    t_last: int                 # triangle of the crossing the run reaches
    token_before: int           # curve token just outside the run, entry side
    token_after: int            # curve token just outside the run, exit side


def _run_info(arr, run):
    key0, t_first, dir0 = run[0][:3]
    key_last, t_last, dir_last = run[-1][:3]
    cid = key0[0]
    if key_last[0] != cid or dir_last != dir0:
        raise AssertionError("run is not a coherent stretch of one curve")
    interior = []
    for step in run[:-1]:
        if step[4] < 0:
            raise AssertionError("run interrupted by a crossing")
        interior.append(step[4])
    curve = arr.curves[cid]
    n = len(curve)
    ix, iy = key0[1], key_last[1]
    if dir0 == 1:
        before, after = curve.tokens[ix], curve.tokens[(iy + 1) % n]
    else:
        before, after = curve.tokens[(ix + 1) % n], curve.tokens[iy]
    return _Run(cid, dir0, interior, [step[1] for step in run[1:-1]],
                t_first, t_last, before, after)


def _reference_slide(arr, region):
    """Isotope A across the bigon `region`, read off its boundary circle."""
    if len(region.circles) != 1:
        raise AssertionError("bigon region must have one boundary circle")
    circle = region.circles[0]
    corner_at = [i for i, step in enumerate(circle) if step[3] < 0]
    if len(corner_at) != 2:
        raise AssertionError("bigon region must have two corners")
    i1, i2 = corner_at
    runs = [circle[i1:i2], circle[i2:] + circle[:i1]]
    infos = [_run_info(arr, r) for r in runs]
    if (infos[0].cid == 0) == (infos[1].cid == 0):
        raise AssertionError("bigon runs must pair A with a B component")
    alpha, beta = (infos[0], infos[1]) if infos[0].cid == 0 \
        else (infos[1], infos[0])

    # The circle walks x -> alpha -> y -> beta -> x, where x is the crossing
    # alpha starts at.  Beta therefore walks y -> x; flip it to x -> y so it
    # runs alongside alpha.
    b_interior = list(reversed(beta.interior))
    b_between = list(reversed(beta.between_tris))
    t_x, t_y = alpha.t_first, alpha.t_last
    n_new = len(b_interior)
    if n_new == 0 and t_x != t_y:
        raise AssertionError("chordless beta must stay in one triangle")

    # Each beta token gets a new A token beside it, on the side away from
    # the region (the region holds exactly one of the two flanking gaps).
    pos = arr._positions()
    beside = {}
    new_tokens = []
    for tok in b_interior:
        e = arr.tok_edge[tok]
        before_in = (e, pos[tok]) in region.gaps
        after_in = (e, pos[tok] + 1) in region.gaps
        if before_in == after_in:
            raise AssertionError("cannot identify the region side of beta")
        new_tokens.append(arr._new_token(e))
        beside[tok] = (new_tokens[-1], after_in)   # region after => before it
    dropped = set(alpha.interior)
    for e in {arr.tok_edge[tok] for tok in itertools.chain(dropped, beside)}:
        pts = []
        for tok in arr.edge_pts[e]:
            if tok in beside:
                new, ahead = beside[tok]
                pts += [new, tok] if ahead else [tok, new]
            elif tok not in dropped:
                pts.append(tok)
        arr.edge_pts[e] = pts

    new_link_tris = [t_x] + b_between + [t_y] if n_new else [t_x]
    curve = arr.curves[0]
    kept = [(tok, tri) for tok, tri in zip(curve.tokens, curve.link_tris)
            if tok not in dropped]
    a_in, a_out = alpha.token_before, alpha.token_after
    if a_in in dropped or a_out in dropped:
        if not (a_in in dropped and a_out in dropped and not kept):
            raise AssertionError("inconsistent wrapped bigon")
        if t_x != t_y or n_new < 2:
            raise AssertionError("wrapped bigon must close in one triangle")
        curve.tokens = list(new_tokens)
        curve.link_tris = b_between + [t_x]
        return
    n = len(kept)
    idx = {tok: i for i, (tok, _) in enumerate(kept)}
    if alpha.dirn == 1:
        i_in = idx[a_in]
        if (i_in + 1) % n != idx[a_out]:
            raise AssertionError("alpha endpoints not adjacent after deletion")
        rotated = kept[(i_in + 1) % n:] + kept[: (i_in + 1) % n]
        pairs = rotated[:-1] + [(a_in, new_link_tris[0])]
        pairs += list(zip(new_tokens, new_link_tris[1:]))
    else:
        i_out = idx[a_out]
        if (i_out + 1) % n != idx[a_in]:
            raise AssertionError("alpha endpoints not adjacent after deletion")
        rotated = kept[(i_out + 1) % n:] + kept[: (i_out + 1) % n]
        pairs = rotated[:-1] + [(a_out, new_link_tris[-1])]
        pairs += list(zip(reversed(new_tokens), reversed(new_link_tris[:-1])))
    curve.tokens = [tok for tok, _ in pairs]
    curve.link_tris = [tri for _, tri in pairs]


def reference_minimize(arr):
    """Bigon elimination as the engine ran it before the loop-word test: one
    planar map per slide, and the bigon read off its regions."""
    xs = arr.crossings()
    for _ in range(len(xs) // 2 + 1):
        if not xs:
            return xs
        if arrangement._algebraically_minimal(arrangement._runs(xs)):
            return xs
        bigons = [r for r in reference_analyze(arr, xs)
                  if r.chi == 1 and len(r.crossing_keys) == 2]
        if not bigons:
            return xs
        bigons.sort(key=lambda r: sorted(map(repr, r.crossing_keys)))
        _reference_slide(arr, bigons[0])
        after = arr.crossings()
        if len(after) != len(xs) - 2:
            raise AssertionError(
                f"slide changed crossings {len(xs)} -> {len(after)}")
        xs = after
    raise AssertionError("minimization did not terminate")


# -- surface ------------------------------------------------------------------


def reference_corner_counts(tri, weights, t):
    """`Triangulation.corner_counts` as it read each weight through the
    triangle's occurrences, and each corner in a loop."""
    w = [weights[e] for e, _ in tri.triangles[t]]
    if sum(w) % 2 != 0:
        raise InvalidCoordinates(f"odd weight sum {w} in triangle {t}")
    c = [0, 0, 0]
    for m in range(3):
        c[m] = (w[m] + w[m - 1] - w[(m + 1) % 3]) // 2
        if c[m] < 0:
            raise InvalidCoordinates(
                f"triangle inequality fails in triangle {t}: {w}")
    return (c[0], c[1], c[2])


def reference_check_matching(tri, weights):
    """`Triangulation.check_matching` over `reference_corner_counts`."""
    if len(weights) != tri.n_edges:
        raise InvalidCoordinates(
            f"expected {tri.n_edges} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise InvalidCoordinates("negative edge weight")
    return [reference_corner_counts(tri, weights, t)
            for t in range(len(tri.triangles))]


def reference_torus_intersection(a, b):
    """The torus rung of `surface._intersection` as it went through `Slope`
    objects, behind the equal-coordinates rung."""
    if a.coords == b.coords:
        return 0
    return slope_intersection(coords_to_slope(a.coords),
                              coords_to_slope(b.coords))


def reference_trace(tri, weights):
    """The token-table trace the corner-arc walk replaced: every arc is
    entered in a dict keyed by its two end tokens, then the components are
    walked through that dict."""
    tri.check_matching(weights)
    links = {}

    def phys(occ, opos):
        e, sign = occ
        return (e, opos if sign == 1 else weights[e] - 1 - opos)

    for t, triple in enumerate(tri.triangles):
        w = [weights[e] for e, _ in triple]
        c = tri.corner_counts(weights, t)
        for m in range(3):
            for k in range(c[m]):
                p = phys(triple[m - 1], w[m - 1] - 1 - k)
                q = phys(triple[m], k)
                links.setdefault(p, []).append((q, t))
                links.setdefault(q, []).append((p, t))
    for tok, nb in links.items():
        if len(nb) != 2:
            raise AssertionError(f"token {tok} has {len(nb)} arcs")

    seen = set()
    components = []
    for start in sorted(links):
        if start in seen:
            continue
        cycle = [start]
        tris = []
        cur = start
        prev_tri = None
        while True:
            first, second = links[cur]
            if prev_tri is not None and first[1] == prev_tri:
                nxt, tri_id = second
            else:
                nxt, tri_id = first
            tris.append(tri_id)
            seen.add(cur)
            prev_tri = tri_id
            if nxt == start:
                break
            cur = nxt
            cycle.append(cur)
        vec = [0] * tri.n_edges
        for e, _ in cycle:
            vec[e] += 1
        components.append(TracedCurve(tuple(vec), cycle, tris))
    components.sort(key=lambda c: sorted(c.cycle))
    return components


def reference_admissible_vectors(tri, cap):
    """The per-triangle DFS the interval enumeration replaced: every weight
    0..remaining is tried, and each triangle is checked once its three
    weights are fixed."""
    n = tri.n_edges
    by_last_edge = {}
    for t, triple in enumerate(tri.triangles):
        by_last_edge.setdefault(max(e for e, _ in triple), []).append(t)
    vec = [0] * n

    def feasible(t):
        w = sorted(vec[e] for e, _ in tri.triangles[t])
        return sum(w) % 2 == 0 and w[2] <= w[0] + w[1]

    def rec(e, remaining):
        if e == n:
            if any(vec):
                yield tuple(vec)
            return
        for w in range(remaining + 1):
            vec[e] = w
            if all(feasible(t) for t in by_last_edge.get(e, ())):
                yield from rec(e + 1, remaining - w)
        vec[e] = 0

    yield from rec(0, cap)


def reference_homology_class(genus, coords):
    """The class as it was read before it came off the trace: the signed
    crossing of each token is +1 when the curve passes from the triangle of
    the edge's -1 occurrence into that of its +1 occurrence."""
    tri = canonical_triangulation(genus)
    comps = tri.trace(coords)
    if len(comps) != 1:
        raise ValueError("signed crossings need a connected curve")
    comp = comps[0]
    totals = [0] * tri.n_edges
    n = len(comp.cycle)
    for i, (e, _pos) in enumerate(comp.cycle):
        t_prev = comp.triangles[(i - 1) % n]
        t_next = comp.triangles[i]
        pt = tri.plus_triangle[e]
        if t_next == pt and t_prev != pt:
            totals[e] += 1
        elif t_prev == pt and t_next != pt:
            totals[e] -= 1
        else:
            raise AssertionError("ambiguous edge occurrence while orienting")
    cls = []
    for i in range(genus):
        cls += [totals[2 * i + 1], -totals[2 * i]]
    return tuple(cls)


def reference_block_crossings(tri, c, d, mask):
    """Crossings of two normal curves with corner counts c and d when the
    first curve's tokens come first along edge e exactly when bit e of
    `mask` is set, counted triangle by triangle."""
    total = 0
    for occ, ct, dt in zip(tri.triangles, c, d):
        first = [bool(mask >> e & 1) == (s == 1) for e, s in occ]
        for m in range(3):
            n = (m + 1) % 3
            total += ct[n] * dt[m] if first[m] else ct[m] * dt[n]
            if first[m - 1] == first[m]:
                total += ct[m] * dt[m]
    return total


# -- disk complexes -----------------------------------------------------------


def reference_bfs_distance(graph, sources, targets):
    """`disk_complex._bfs_distance` as it searched before it grew from both
    ends: one breadth-first search from all the sources, level by level,
    until it labels a target."""
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


def reference_splitting_distance(diagram, e1, e2, cap, budget=None,
                                 table=None):
    """`disk_complex.splitting_distance` as it searched before it read Λ
    row by row: Γ, then all of Λ on its own capped list, then
    `component_distance` between the edges of the two components."""
    gamma = build_gamma(diagram, cap, budget, table)
    e1 = tuple(sorted(tuple(map(tuple, e1))))
    e2 = tuple(sorted(tuple(map(tuple, e2))))
    for e in (e1, e2):
        if gamma.edges.get(e) != 1:
            raise InputError(f"{e} is not an i=1 edge of the capped complex")
    comp_of = _component_index(gamma)
    c1, c2 = comp_of[e1[0]], comp_of[e2[0]]
    if c1 == c2:
        return DistanceResult(True, 0, cap)
    lam = build_lambda(diagram, cap, budget, table)
    edges1 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c1]
    edges2 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c2]
    return component_distance(lam, edges1, edges2)


# -- handlebody ---------------------------------------------------------------


def reference_validate_cut_system(genus, curves):
    """The cut-system check as it read the complement off the arrangement:
    a closed-form branch at genus 1, and region analysis at genus >= 2."""
    surface = ModelSurface(genus)
    curves = tuple(curves)
    if len(curves) != genus:
        raise InvalidCutSystem(
            f"need exactly {genus} curves for genus {genus}, got {len(curves)}")
    for c in curves:
        if c.genus != genus:
            raise SurfaceMismatch("cut curve lives on a different surface")
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if same_class(curves[i], curves[j]):
                raise InvalidCutSystem(
                    f"curves {i} and {j} are parallel copies of one class")
            n = geometric_intersection(curves[i], curves[j])
            if n != 0:
                raise InvalidCutSystem(
                    f"curves {i} and {j} intersect in {n} points")
    tri = canonical_triangulation(genus)
    system = CutSystem(surface, curves)
    if genus == 1:
        counts = _component_counts(tri, curves[0].coords)
        if sum(counts.values()) != 1:
            raise InvalidCutSystem(NOT_DISJOINT)
        if tri.vertex_link_vector() in counts:
            raise InvalidCutSystem("cut complement has 2 pieces, expected 1")
        return system
    regions, comps = complement_regions(tri, system.union_vector())
    if sorted(comps) != sorted(c.coords for c in curves):
        raise InvalidCutSystem(NOT_DISJOINT)
    if len(regions) != 1:
        raise InvalidCutSystem(
            f"cut complement has {len(regions)} pieces, expected 1")
    chi, circles, _ = regions[0]
    if chi != 2 - 2 * genus or circles != 2 * genus:
        raise InvalidCutSystem(
            f"cut complement is not planar: chi={chi}, boundaries={circles}")
    return system


# -- ghs and sog --------------------------------------------------------------


def reference_validate_ghs(ghs):
    """`validate_ghs` as it judged every level afresh on each call."""
    errors = []
    levels = ghs.levels
    if len(levels) % 2 == 0 or len(levels) < 3:
        errors.append(f"level count {len(levels)} is not an odd number >= 3")
    for i, level in enumerate(levels):
        if level and min(level) < 0:
            errors.append(f"level {i} has a negative genus")
        if tuple(sorted(level, reverse=True)) != level:
            errors.append(f"level {i} is not sorted non-increasing")
        if i % 2 == 1 and not level:
            errors.append(f"thick level {i} is empty")
        if i % 2 == 0 and 0 < i < len(levels) - 1 and not level:
            errors.append(
                f"interior thin level {i} is empty (unmerged thick levels)")
        if 0 < i < len(levels) - 1 and 0 in level:
            errors.append(f"interior level {i} has a 2-sphere component")
    return errors


# The move check before `ghs._splice` served both `apply_move_report` and
# enumeration: `_finish`, `_report` and `_cancel`, their bodies as they
# were, on the cancellation rule `ghs._cancellation` that both still share.


def _finish(old, levels, case, within=None):
    """Normalize the moved levels, each already a sorted collection, and
    check the result.  Given `within`, a dict keyed by level tuples, a
    result whose levels are not a key is dropped (None) before any check
    runs."""
    levels, merged = _strip_and_merge(levels)
    new = GHS(tuple(levels))
    if within is not None and new.levels not in within:
        return None
    errors = validate_ghs(new)
    if errors:
        raise InvalidMove(f"move yields an invalid GHS: {'; '.join(errors)}")
    return _report(old, new, case, merged)


def _report(old, new, case, merged):
    """The report of a move from old to the valid GHS new, after the two
    checks every kept move gets: the same boundary and a smaller key."""
    if new.boundary() != old.boundary():
        # Cannot happen: `_cancellation` refuses to cancel into a boundary,
        # and `_strip_and_merge` touches only interior levels.
        raise AssertionError(f"move changed the boundary: {old} -> {new}")
    if compare_ghs(new, old) != "less":
        # Happens only when the merge rule collapses the result back onto the
        # input (cross-component disks whose spheres empty a thin level);
        # such a pair is not a move of a connected manifold's GHS.
        raise InvalidMove(f"move does not shrink the GHS: {old} -> {new}")
    return MoveReport(new, case, merged, new.n_levels - old.n_levels)


def _cancel(ghs, t, zigzag, remove="right"):
    """The moved levels by `_cancellation`, not yet normalized, and the
    case; a move that would cancel into a boundary collection raises."""
    cancelled = _cancellation(ghs, t, zigzag, remove)
    if isinstance(cancelled, _Refusal):
        raise InvalidMove(cancelled.template.format(*cancelled.args))
    replaced, written, case = cancelled
    levels = list(ghs.levels)
    levels[replaced] = zigzag[written]
    return levels, case


def reference_apply_move_report(ghs, m):
    """`ghs.apply_move_report` as it checked each move by `_finish` and
    `_cancel` above."""
    checked = getattr(m, "_checked", None)
    if checked is not None and (checked[0] is ghs or checked[0] == ghs):
        return checked[1]
    if not isinstance(m, Move):
        raise InvalidMove(f"unknown move {m!r}")
    t = m.thick_index
    f_t = _thick(ghs, t)
    if isinstance(m, Destabilization):
        f_d = compress(f_t, CompressionDescriptor(
            "down", m.target_genus, ("nonsep",)))
        return _finish(ghs, *_cancel(ghs, t, (f_d,), m.remove))
    if not (m.d.essential() and m.e.essential()):
        raise InvalidMove("compressions along inessential disks are not moves")
    f_d, f_e, f_de = compress(f_t, m.d), compress(f_t, m.e), collection(m.f_de)
    if not (_one_compression_apart(f_d, f_de)
            and _one_compression_apart(f_e, f_de)):
        raise InvalidMove(
            f"F_DE={f_de} is not one compression away from both "
            f"F_D={f_d} and F_E={f_e}")
    return _finish(ghs, *_cancel(ghs, t, (f_d, f_de, f_e)))


def reference_moves_with_reports(ghs, within=None):
    """`ghs._moves_with_reports` as it listed the moves before the per-
    collection move table: every descriptor pair of every thick level
    walked again for each GHS, and each candidate checked in full by
    `_finish` and `_cancel` above."""
    for t in ghs.thick_indices():
        f_t = ghs.levels[t]
        for d in _descriptors(f_t, "down"):
            f_d = _compress(f_t, d)
            for e in _descriptors(f_t, "up"):
                f_e = _compress(f_t, e)
                for f_de in sorted(_one_step_compressions(f_d)
                                   & _one_step_compressions(f_e)):
                    try:
                        report = _finish(ghs, *_cancel(
                            ghs, t, (f_d, f_de, f_e)), within)
                    except InvalidMove:
                        continue
                    if report is not None:
                        yield _carrying(WeakReduction(t, d, e, f_de), ghs,
                                        report), report
        for g in sorted({g for g in f_t if g >= 1}, reverse=True):
            f_d = _compress(f_t, CompressionDescriptor("down", g, ("nonsep",)))
            # Only case 2(d), F_D on both flanking thin levels, has a choice.
            case_2d = f_d == ghs.levels[t - 1] == ghs.levels[t + 1]
            for remove in ("right", "left") if case_2d else ("right",):
                try:
                    report = _finish(ghs, *_cancel(
                        ghs, t, (f_d,), remove), within)
                except InvalidMove:
                    continue
                if report is not None:
                    yield _carrying(Destabilization(t, g, remove), ghs,
                                    report), report


def reference_symbolic_states(budget, boundary):
    """The states of `SymbolicOracle(budget, boundary)` in its node order,
    enumerated independently: the boundary pair around 2k - 1 interior
    collections of genera >= 1, for 1 <= k <= max(1, (max_levels - 1) // 2),
    whose genera sum to at most max_total_genus."""
    total = budget.max_total_genus
    colls = [c for k in range(1, total + 1) for c in
             itertools.combinations_with_replacement(range(total, 0, -1), k)
             if sum(c) <= total]

    def interiors(n, remaining):
        if n == 0:
            yield ()
            return
        for c in colls:
            if sum(c) <= remaining:
                for rest in interiors(n - 1, remaining - sum(c)):
                    yield (c,) + rest

    lower, upper = (collection(b) for b in boundary)
    max_thick = max(1, (budget.max_levels - 1) // 2)
    states = [GHS.of([lower, *mid, upper])
              for k in range(1, max_thick + 1)
              for mid in interiors(2 * k - 1, total)]
    return sorted(states, key=lambda g: (g.n_levels, ghs_key(g), g.levels))


def reference_symbolic_edges(budget, boundary):
    """The oracle's edges as it found them before it tested each result
    against its states first: every move of
    `reference_moves_with_reports(g)`, with no `within`, whose result is a
    state.  Listed as (parent, child, move), by parent in node order and
    then by (child label, repr(move)), which is how the oracle lists each
    node's edges."""
    states = reference_symbolic_states(budget, boundary)
    inside = set(states)
    edges = []
    for g in states:
        edges += sorted(((g, report.result, move)
                         for move, report in reference_moves_with_reports(g)
                         if report.result in inside),
                        key=lambda e: (repr(e[1]), repr(e[2])))
    return edges


def reference_flatten(start, end, oracle, budget=100000):
    """`sog.flatten` as it searched before it numbered components and key
    ranks: a Dijkstra over (node, arrived ascending) states, with the
    multisets of keys themselves in each priority, run to the end also for
    endpoints the move graph does not join."""
    s = oracle._number[oracle.resolve(start)]
    t = oracle._number[oracle.resolve(end)]
    labels, arcs = oracle._labels, oracle._arcs
    keys = [g._key for g in oracle._ghss]
    if s == t:
        return SOG.of([oracle._ghss[s]], [], labels=[labels[s]])

    start_state = 2 * s + 1
    counter = itertools.count()
    best_push = {start_state: ((), 0, "")}
    parent = {start_state: None}
    heap = [((), 0, "", next(counter), start_state)]
    done = set()
    pops = 0

    def relax(new_state, priority, origin):
        if new_state in done:
            return
        if new_state not in best_push or priority < best_push[new_state]:
            best_push[new_state] = priority
            parent[new_state] = origin
            heapq.heappush(heap, (*priority, next(counter), new_state))

    while heap:
        multiset, length, serial, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        pops += 1
        if pops > budget:
            raise FlattenBudgetExhausted(
                f"unknown: flattening budget of {budget} expansions exhausted")
        if state == _TERMINAL:
            return _reconstruct(oracle, parent, multiset)
        i, arrived_asc = divmod(state, 2)
        peaked = tuple(sorted(multiset + (keys[i],), reverse=True)) \
            if arrived_asc else multiset
        if i == t:
            relax(_TERMINAL, (peaked, length, serial), (state, None, None))
        for j, descending, edge in arcs[i]:
            relax(2 * j + (not descending),
                  (peaked if descending else multiset, length + 1,
                   serial + "/" + labels[j]),
                  (state, edge, descending))
    raise FlattenBudgetExhausted(
        "unknown: the endpoints are not joined within the oracle's space")
