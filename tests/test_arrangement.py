import itertools
import math
import random
from dataclasses import dataclass

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegaard_lab import arrangement
from heegaard_lab.surface import Slope, canonical_triangulation


def coprime_pairs(rng, bound, count):
    out = []
    while len(out) < count:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            out.append(Slope.of(p, q))
    return out


def test_engine_matches_determinant_on_torus():
    # The arrangement engine run directly (no fast path) against |ps - qr|.
    tri = canonical_triangulation(1)
    rng = random.Random(5)
    slopes = coprime_pairs(rng, 5, 40)
    for a, b in zip(slopes[::2], slopes[1::2]):
        if a == b:
            continue
        got = arrangement.intersection_number(tri, a.coords(), b.coords())
        assert got == abs(a.p * b.q - a.q * b.p), (a, b)


def test_engine_handles_swept_representatives():
    # The two pushoff sides of a genus-2 handle loop are isotopic curves
    # with different vectors; intersections must not depend on the choice.
    tri = canonical_triangulation(2)
    e_a1, e_b1 = tri.edge_index("a1"), tri.edge_index("b1")
    heavy_a1 = max((tri.edge_loop_pushoff(e_a1, s) for s in (0, 1)), key=sum)
    light_a1 = min((tri.edge_loop_pushoff(e_a1, s) for s in (0, 1)), key=sum)
    b1 = min((tri.edge_loop_pushoff(e_b1, s) for s in (0, 1)), key=sum)
    assert arrangement.intersection_number(tri, heavy_a1, b1) == 1
    assert arrangement.intersection_number(tri, light_a1, b1) == 1
    assert arrangement.intersection_number(tri, heavy_a1, light_a1) == 0


def test_isotopic_on_torus():
    tri = canonical_triangulation(1)
    assert arrangement.isotopic(tri, Slope.of(2, 1).coords(),
                                Slope.of(2, 1).coords())
    assert not arrangement.isotopic(tri, Slope.of(1, 0).coords(),
                                    Slope.of(0, 1).coords())


def test_genus2_pushoff_intersection_pattern():
    tri = canonical_triangulation(2)

    def puff(name):
        e = tri.edge_index(name)
        return min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                   key=lambda v: (sum(v), v))

    names = ["a1", "b1", "a2", "b2", "d4"]
    vec = {n: puff(n) for n in names}
    expected = {("a1", "b1"): 1, ("a2", "b2"): 1}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            n = arrangement.intersection_number(tri, vec[x], vec[y])
            assert n == expected.get((x, y), 0), (x, y, n)


def test_crossing_word_minimal_length():
    # Word length equals the total geometric intersection with the system.
    tri = canonical_triangulation(1)
    cut = [Slope.of(1, 0).coords()]
    for p, q in [(0, 1), (1, 1), (1, 3), (2, 5), (3, -2)]:
        letters, counts = arrangement.crossing_word(
            tri, Slope.of(p, q).coords(), cut)
        assert len(letters) == abs(q) == counts[0]


def test_crossing_word_signs_consistent():
    # All crossings of (1, n) with (1, 0) carry one sign in minimal position.
    tri = canonical_triangulation(1)
    letters, _ = arrangement.crossing_word(
        tri, Slope.of(1, 3).coords(), [Slope.of(1, 0).coords()])
    assert len({s for _, s in letters}) == 1


def test_complement_regions_torus_annulus():
    tri = canonical_triangulation(1)
    regions, comps = arrangement.complement_regions(tri, Slope.of(1, 0).coords())
    assert regions == [(0, 2, True)]
    assert comps == [Slope.of(1, 0).coords()]


def test_complement_regions_two_parallel_copies():
    tri = canonical_triangulation(1)
    twice = tuple(2 * x for x in Slope.of(1, 0).coords())
    regions, comps = arrangement.complement_regions(tri, twice)
    assert len(regions) == 2
    assert sorted(r[0] for r in regions) == [0, 0]


def test_genus2_cut_complement_is_planar():
    tri = canonical_triangulation(2)

    def puff(name):
        e = tri.edge_index(name)
        return min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                   key=lambda v: (sum(v), v))

    union = tuple(a + b for a, b in zip(puff("a1"), puff("a2")))
    regions, comps = arrangement.complement_regions(tri, union)
    assert len(regions) == 1
    chi, circles, _ = regions[0]
    assert chi == -2 and circles == 4      # a 4-holed sphere
    assert sorted(comps) == sorted([puff("a1"), puff("a2")])


def test_separating_curve_complement():
    # d4's pushoff separates the genus-2 surface into two 1-holed tori.
    tri = canonical_triangulation(2)
    e = tri.edge_index("d4")
    vec = min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
              key=lambda v: (sum(v), v))
    regions, _ = arrangement.complement_regions(tri, vec)
    assert sorted((chi, circles) for chi, circles, _ in regions) \
        == [(-1, 1), (-1, 1)]


def test_minimization_is_deterministic():
    tri = canonical_triangulation(1)
    a, b = Slope.of(3, 1).coords(), Slope.of(1, 2).coords()
    words = set()
    for _ in range(3):
        letters, counts = arrangement.crossing_word(tri, a, [b])
        words.add(tuple(letters))
    assert len(words) == 1


def algebraic_pairing(genus, x, y):
    """Homological intersection pairing in the (a_i, b_i) basis."""
    from heegaard_lab.surface import homology_class
    hx, hy = homology_class(genus, x), homology_class(genus, y)
    total = 0
    for i in range(genus):
        total += hx[2 * i] * hy[2 * i + 1] - hx[2 * i + 1] * hy[2 * i]
    return abs(total)


def test_genus2_intersections_certified_by_homology():
    # |algebraic| <= geometric always; when the engine's count equals the
    # algebraic bound, the result is certified exact by homology alone.
    tri = canonical_triangulation(2)

    def puff(name):
        e = tri.edge_index(name)
        return min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                   key=lambda v: (sum(v), v))

    names = ["a1", "b1", "a2", "b2", "d4"]
    vec = {n: puff(n) for n in names}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            lower = algebraic_pairing(2, vec[x], vec[y])
            got = arrangement.intersection_number(tri, vec[x], vec[y])
            assert got >= lower
            assert got == lower          # these pairs attain the bound


def test_isotopy_invariance_of_intersections_fuzz():
    # For isotopic inputs (same class, different vectors) the minimized
    # crossing count against any third curve must agree: a direct test of
    # the bigon slides, including those across the vertex.
    import random as _random
    from heegaard_lab.surface import enumerate_essential_curves

    tri = canonical_triangulation(2)
    pairs = []
    for name in ("a1", "b1", "a2", "b2", "d4"):
        e = tri.edge_index(name)
        pairs.append((tri.edge_loop_pushoff(e, 0), tri.edge_loop_pushoff(e, 1)))
    probes = [c.coords for c in enumerate_essential_curves(2, 8)]
    rng = _random.Random(13)
    for v0, v1 in pairs:
        for probe in rng.sample(probes, 8):
            n0 = 0 if probe == tuple(v0) else \
                arrangement.intersection_number(tri, probe, v0)
            n1 = 0 if probe == tuple(v1) else \
                arrangement.intersection_number(tri, probe, v1)
            if probe in (tuple(v0), tuple(v1)):
                continue
            assert n0 == n1, (v0, v1, probe, n0, n1)


def test_mined_same_class_pair_regression():
    # Two cap-12 vectors found by exhaustive search to carry one class
    # drawn on the two sides of the vertex; neither is an edge pushoff.
    from heegaard_lab.surface import CurveClass, same_class
    tri = canonical_triangulation(2)
    u = (0, 1, 1, 1, 1, 1, 2, 3, 2)
    v = (2, 3, 1, 1, 1, 1, 2, 1, 0)
    assert same_class(CurveClass(2, u), CurveClass(2, v))
    probe = tri.edge_loop_pushoff(tri.edge_index("b1"), 1)
    assert arrangement.intersection_number(tri, probe, u) \
        == arrangement.intersection_number(tri, probe, v)


def genus2_vectors(cap):
    """Every connected essential genus-2 vector of weight <= cap, so that a
    class drawn on both sides of the vertex appears once per drawing."""
    from heegaard_lab.surface import admissible_vectors
    tri = canonical_triangulation(2)
    link = tri.vertex_link_vector()
    return [v for v in admissible_vectors(tri, cap)
            if v != link and len(tri.trace(v)) == 1]


def test_minimize_certificate_leaves_no_bigon():
    # Every way minimize can return, including the early exit when the
    # crossing signs certify minimal position, must leave no bigon region.
    # A fresh analysis then makes the crossing count exact, and the
    # threshold query must agree with it.
    from heegaard_lab.surface import CurveClass, intersection_at_most
    tri = canonical_triangulation(2)
    vecs = genus2_vectors(8)
    for x, y in itertools.permutations(vecs, 2):
        arr = arrangement.Arrangement(tri, [x, y])
        xs = arrangement.minimize(arr)
        bigons = [r for r in arr.analyze().regions
                  if r.chi == 1 and r.corner_visits == 2]
        assert not bigons, (x, y)
        i = len(xs)
        assert i == len(arr.crossings())
        assert i >= algebraic_pairing(2, x, y)
        a, b = CurveClass(2, x), CurveClass(2, y)
        for k in (0, 1, 2):
            assert intersection_at_most(a, b, k) == (i if i <= k else None), \
                (x, y, k)


def test_same_class_matches_isotopic_inside_and_across_buckets():
    from heegaard_lab.surface import CurveClass, same_class
    tri = canonical_triangulation(2)
    curves = [CurveClass(2, v) for v in genus2_vectors(8)]
    pairs = list(itertools.combinations(curves, 2))
    # Same-bucket pairs up to weight 12, isotopic or not.
    by_bucket = {}
    for v in genus2_vectors(12):
        c = CurveClass(2, v)
        by_bucket.setdefault(c._bucket, []).append(c)
    for group in by_bucket.values():
        pairs += itertools.combinations(group, 2)
    inside = set()
    for a, b in pairs:
        want = arrangement.isotopic(tri, a.coords, b.coords)
        assert same_class(a, b) == want, (a, b)
        if a._bucket == b._bucket:
            inside.add(want)
    assert inside == {True, False}


def reference_isotopic(tri, a_vec, b_vec):
    """The annulus scan `isotopic` used to run: after minimization, a
    chi = 0 region whose boundary steps pass every link of both curves
    exactly once."""
    arr = arrangement.Arrangement(tri, [a_vec, b_vec])
    if arrangement.minimize(arr):
        return False
    analysis = arr.analyze()
    want = {0: len(arr.curves[0]), 1: len(arr.curves[1])}
    for region in analysis.regions:
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
        busy = {x.b_key[0] for x in xs}
        free = [c for c in arr.curves[1:] if c.tokens and c.cid not in busy]
        gone = {tok for c in free for tok in c.tokens}
        if gone:
            arr.edge_pts = [[tok for tok in pts if tok not in gone]
                            for pts in arr.edge_pts]
        for c in free:
            c.tokens = []
            c.link_tris = []
        if arrangement._algebraically_minimal(xs):
            return xs
        bigons = [r for r in arr.analyze(xs).regions
                  if r.chi == 1 and r.corner_visits == 2]
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


def _minimized(minimize, tri, vectors):
    """Crossing count, then A's (edge, place) sequence and link triangles,
    after `minimize`."""
    arr = arrangement.Arrangement(tri, vectors)
    n = len(minimize(arr))
    pos = arr._positions()
    a = arr.curves[0]
    return n, [(arr.tok_edge[t], pos[t]) for t in a.tokens], a.link_tris


def test_minimize_matches_planar_map_reference():
    # Every ordered pair of genus-2 classes up to cap 10 and of genus-3
    # classes up to cap 7, and each genus-2 class up to cap 8 against the
    # union of each disjoint pair of them.  The two may slide different
    # bigons only when A is isotopic to a curve of the system: the bigons
    # with the least corner keys are then the two halves of one annulus,
    # and both ways end with no crossing.
    from heegaard_lab.surface import (
        enumerate_essential_curves, geometric_intersection)
    cases = []
    for genus, cap in ((2, 10), (3, 7)):
        curves = [c.coords for c in enumerate_essential_curves(genus, cap)]
        cases += [(genus, [a, b])
                  for a, b in itertools.permutations(curves, 2)]
    curves = enumerate_essential_curves(2, 8)
    unions = [tuple(x + y for x, y in zip(a.coords, b.coords))
              for a, b in itertools.combinations(curves, 2)
              if geometric_intersection(a, b) == 0]
    cases += [(2, [c.coords, u]) for c in curves for u in unions]
    assert len(cases) == 2652 + 462 + 25 * 129
    moved = 0
    for genus, vectors in cases:
        tri = canonical_triangulation(genus)
        got = _minimized(arrangement.minimize, tri, vectors)
        want = _minimized(reference_minimize, tri, vectors)
        if got != want:
            moved += 1
            link = tri.vertex_link_vector()
            parallel = any(
                arrangement.isotopic(tri, vectors[0], comp.vector)
                for comp in tri.trace(vectors[1]) if comp.vector != link)
            assert got[0] == want[0] == 0 and parallel, (vectors, got, want)
    assert moved == 42


# Genus-2 pairs of weight <= 16 whose minimization reaches a bigon that
# swallows the vertex, with no other bigon to slide instead: its loop word
# reduces to the vertex link's, not to nothing.
VERTEX_BIGON_PAIRS = [
    ((2, 2, 2, 1, 2, 2, 2, 0, 1), (1, 2, 1, 1, 1, 2, 2, 3, 2)),
    ((1, 0, 1, 2, 1, 2, 2, 3, 1), (1, 4, 2, 1, 3, 2, 2, 0, 1)),
    ((1, 2, 1, 2, 1, 0, 2, 3, 3), (2, 2, 1, 2, 2, 2, 2, 1, 1)),
]


def test_bigon_around_the_vertex():
    tri = canonical_triangulation(2)
    for a, b in VERTEX_BIGON_PAIRS:
        assert _minimized(arrangement.minimize, tri, [a, b]) \
            == _minimized(reference_minimize, tri, [a, b]), (a, b)


def test_loop_word_test():
    for genus in (1, 2, 3):
        tri = canonical_triangulation(genus)
        link = [e for e, _ in tri.vertex_rotation]
        for k in range(len(link)):
            turned = link[k:] + link[:k]
            assert arrangement._loop_is_trivial(tri, turned)
            assert arrangement._loop_is_trivial(tri, turned[::-1])
        assert arrangement._loop_is_trivial(tri, [])
        for e in range(tri.n_edges):
            assert arrangement._loop_is_trivial(tri, [e, e])
            for side in (0, 1):
                (comp,) = tri.trace(tri.edge_loop_pushoff(e, side))
                word = [f for f, _ in comp.cycle]
                assert not arrangement._loop_is_trivial(tri, word), (e, side)


def test_minimize_builds_no_planar_map(monkeypatch):
    from heegaard_lab.disk_complex import build_lambda, classify
    from heegaard_lab.handlebody import standard_diagram
    from test_disk_complex import critical_witness_diagram

    # Enumeration's isotopy test still maps crossing-free arrangements, to
    # look for an annulus; no map of an arrangement with crossings is built.
    analyze = arrangement.Arrangement.analyze

    def crossing_free_only(self, crossings=None):
        if crossings != []:
            raise AssertionError("a planar map with crossings was built")
        return analyze(self, crossings)
    monkeypatch.setattr(arrangement.Arrangement, "analyze", crossing_free_only)
    build_lambda(critical_witness_diagram(), 8)
    classify(standard_diagram(2), 8)


def connected_essential_vectors(genus, cap):
    from heegaard_lab.surface import admissible_vectors
    tri = canonical_triangulation(genus)
    link = tri.vertex_link_vector()
    return [v for v in admissible_vectors(tri, cap)
            if v != link and len(tri.trace(v)) == 1]


def test_isotopic_matches_annulus_scan():
    # Same-bucket pairs hold every isotopic pair, and at genus 3 also 9
    # disjoint pairs that are not isotopic, where no chi = 0 region may
    # appear.
    from heegaard_lab.surface import CurveClass
    pairs = {1: list(itertools.product(connected_essential_vectors(1, 10),
                                       repeat=2)),
             2: [], 3: []}
    for genus, cap in ((2, 16), (3, 13)):
        by_bucket = {}
        for v in connected_essential_vectors(genus, cap):
            key = CurveClass(genus, v)._bucket
            by_bucket.setdefault(key, []).append(v)
            pairs[genus].append((v, v))
        for group in by_bucket.values():
            pairs[genus] += itertools.permutations(group, 2)
    assert len(pairs[2]) == 449 + 398 and len(pairs[3]) == 193 + 26
    disjoint_apart = 0
    for genus, todo in pairs.items():
        tri = canonical_triangulation(genus)
        for a, b in todo:
            want = reference_isotopic(tri, a, b)
            assert arrangement.isotopic(tri, a, b) == want, (genus, a, b)
            if genus == 3 and not want:
                disjoint_apart += not arrangement.intersection_number(
                    tri, a, b)
    assert disjoint_apart == 2 * 9


_PROPERTY_VECTORS = genus2_vectors(10)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PROPERTY_VECTORS), st.sampled_from(_PROPERTY_VECTORS))
def test_intersection_symmetric_and_bounded_by_homology(x, y):
    assume(x != y)
    tri = canonical_triangulation(2)
    i = arrangement.intersection_number(tri, x, y)
    alg = algebraic_pairing(2, x, y)
    assert i == arrangement.intersection_number(tri, y, x)
    assert alg <= i
    assert (i - alg) % 2 == 0


# sha256 of the crossing word and isotopy verdict of every ordered pair of
# connected essential genus-2 vectors of weight <= 8, then the sorted
# complement regions of each vector.  Graph digests pin which curves are
# adjacent, but not the letter order of a crossing word, which depends on
# which bigons minimization slides across.
GOLDEN_ARRANGEMENT_SHA256 = (
    "a8656091e6d65cdee23f1754951c31aca686bdc3f1053372ab6857e59cdd1c99")


def test_arrangement_answers_golden():
    import hashlib
    tri = canonical_triangulation(2)
    vecs = genus2_vectors(8)
    lines = []
    for a, b in itertools.permutations(vecs, 2):
        letters, counts = arrangement.crossing_word(tri, a, [b])
        lines.append(f"{a} {b} {letters} {counts} "
                     f"{arrangement.isotopic(tri, a, b)}")
    for v in vecs:
        regions, comps = arrangement.complement_regions(tri, v)
        lines.append(f"{v} {sorted(regions)} {comps}")
    assert len(vecs) * (len(vecs) - 1) == 650
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_ARRANGEMENT_SHA256
