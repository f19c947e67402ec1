import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heegaard_lab import arrangement
from heegaard_lab.surface import (
    CurveClass,
    Slope,
    canonical_triangulation,
    geometric_intersection,
)

from reference import (
    complement_regions,
    connected_essential_vectors,
    reference_analyze,
    reference_isotopic,
    reference_minimize,
)


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


def test_torus_oracle_property_runs_the_engine(monkeypatch):
    # The property draws a second pair of small slopes every iteration, so
    # an engine one off the determinant fails it in a short run.
    from heegaard_lab.proptools import check_torus_oracle
    assert check_torus_oracle(random.Random(0), 20).passed
    exact = arrangement.intersection_number
    monkeypatch.setattr(arrangement, "intersection_number",
                        lambda tri, a, b: exact(tri, a, b) + 1)
    report = check_torus_oracle(random.Random(0), 20)
    assert report.failures and all(f[0] == "engine" for f in report.failures)


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
    regions, comps = complement_regions(tri, Slope.of(1, 0).coords())
    assert regions == [(0, 2, True)]
    assert comps == [Slope.of(1, 0).coords()]


def test_complement_regions_two_parallel_copies():
    tri = canonical_triangulation(1)
    twice = tuple(2 * x for x in Slope.of(1, 0).coords())
    regions, comps = complement_regions(tri, twice)
    assert len(regions) == 2
    assert sorted(r[0] for r in regions) == [0, 0]


def test_genus2_cut_complement_is_planar():
    tri = canonical_triangulation(2)

    def puff(name):
        e = tri.edge_index(name)
        return min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                   key=lambda v: (sum(v), v))

    union = tuple(a + b for a, b in zip(puff("a1"), puff("a2")))
    regions, comps = complement_regions(tri, union)
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
    regions, _ = complement_regions(tri, vec)
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


def test_minimize_certificate_leaves_no_bigon():
    # Every way minimize can return, including the early exit when the
    # crossing signs certify minimal position, must leave no bigon region.
    # A fresh analysis then makes the crossing count exact, and the
    # threshold query must agree with it.
    from heegaard_lab.surface import CurveClass, intersection_at_most
    tri = canonical_triangulation(2)
    vecs = connected_essential_vectors(2, 8)
    for x, y in itertools.permutations(vecs, 2):
        arr = arrangement.Arrangement(tri, [x, y])
        xs = arrangement.minimize(arr)
        bigons = [r for r in reference_analyze(arr)
                  if r.chi == 1 and len(r.crossing_keys) == 2]
        assert not bigons, (x, y)
        i = len(xs)
        assert i == len(arr.crossings())
        assert i >= algebraic_pairing(2, x, y)
        a, b = CurveClass(2, x), CurveClass(2, y)
        for k in (0, 1, 2):
            assert intersection_at_most(a, b, k) == (i if i <= k else None), \
                (x, y, k)


def test_minimize_leaves_no_bigon_on_every_sampled_pair():
    # The genus2-minimal-position property draws its ordered pairs from
    # these 110 classes; the planar map checks all 11,990 of them.
    from heegaard_lab.surface import enumerate_essential_curves
    tri = canonical_triangulation(2)
    vecs = [c.coords for c in enumerate_essential_curves(2, 12)]
    assert len(vecs) == 110
    for x, y in itertools.permutations(vecs, 2):
        arr = arrangement.Arrangement(tri, [x, y])
        xs = arrangement.minimize(arr)
        assert not [r for r in reference_analyze(arr, xs)
                    if r.chi == 1 and len(r.crossing_keys) == 2], (x, y)


def test_same_class_matches_isotopic_inside_and_across_buckets():
    # At genus 2 same_class asks only whether a same-bucket pair is
    # disjoint.  At genus 3 that is not enough: 9 same-bucket pairs up to
    # weight 13 are disjoint but not isotopic.
    from heegaard_lab.surface import CurveClass, same_class
    curves = [CurveClass(2, v) for v in connected_essential_vectors(2, 8)]
    pairs = list(itertools.combinations(curves, 2))
    # Same-bucket pairs up to weight 12 at genus 2 and 13 at genus 3,
    # isotopic or not, and the two pushoff sides of each genus-3 edge loop.
    for genus, cap in ((2, 12), (3, 13)):
        by_bucket = {}
        for v in connected_essential_vectors(genus, cap):
            c = CurveClass(genus, v)
            by_bucket.setdefault(c._bucket, []).append(c)
        for group in by_bucket.values():
            pairs += itertools.combinations(group, 2)
    tri = canonical_triangulation(3)
    pairs += [(CurveClass(3, tri.edge_loop_pushoff(e, 0)),
               CurveClass(3, tri.edge_loop_pushoff(e, 1)))
              for e in range(tri.n_edges)]
    inside = {2: set(), 3: set()}
    disjoint_apart = 0
    for a, b in pairs:
        tri = canonical_triangulation(a.genus)
        want = arrangement.isotopic(tri, a.coords, b.coords)
        assert same_class(a, b) == want, (a, b)
        if a._bucket == b._bucket:
            inside[a.genus].add(want)
            disjoint_apart += not want and not \
                arrangement.intersection_number(tri, a.coords, b.coords)
    assert inside == {2: {True, False}, 3: {True, False}}
    assert disjoint_apart == 9


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


# Pairs of connected essential genus-2 vectors whose minimization slides a
# bigon that swallows the triangulation vertex.  Each count is the geometric
# intersection number; if `_loop_is_trivial` did not accept the vertex
# link's word, `minimize` would stop at 3, 2, 2 and 4 crossings instead.
VERTEX_LINK_COUNTS = [
    ((2, 2, 1, 1, 2, 2, 2, 1, 2), (1, 1, 4, 1, 0, 1, 2, 2, 3), 1),
    ((2, 2, 0, 1, 2, 2, 2, 2, 1), (1, 2, 2, 2, 1, 0, 2, 2, 2), 0),
    ((3, 3, 2, 1, 2, 1, 2, 0, 1), (2, 2, 0, 1, 2, 2, 2, 2, 1), 0),
    ((3, 1, 0, 1, 4, 1, 2, 2, 1), (2, 3, 3, 2, 1, 1, 2, 1, 1), 2),
]


def test_vertex_link_bigons_reach_minimal_position():
    tri = canonical_triangulation(2)
    for a, b, count in VERTEX_LINK_COUNTS:
        assert geometric_intersection(CurveClass(2, a), CurveClass(2, b)) \
            == count
        for pair in ([a, b], [b, a]):
            arr = arrangement.Arrangement(tri, pair)
            xs = arrangement.minimize(arr)
            assert len(xs) == count, pair
            assert not [r for r in reference_analyze(arr, xs)
                        if r.chi == 1 and len(r.crossing_keys) == 2], pair


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


def test_region_walk_refuses_crossings():
    # The walk counts regions only where no links cross, and there it
    # agrees with the planar map: on single curves, and on pairs as first
    # drawn.
    tri = canonical_triangulation(2)
    vecs = connected_essential_vectors(2, 8)
    arrangements = [arrangement.Arrangement(tri, [v]) for v in vecs]
    refused = 0
    for x, y in itertools.permutations(vecs, 2):
        arr = arrangement.Arrangement(tri, [x, y])
        if arr.crossings():
            with pytest.raises(AssertionError, match="cross"):
                arrangement._region_chis(arr)
            refused += 1
        else:
            arrangements.append(arr)
    assert refused and len(arrangements) > len(vecs)
    for arr in arrangements:
        assert sorted(arrangement._region_chis(arr)) == sorted(
            r.chi for r in reference_analyze(arr))


def test_minimize_builds_no_planar_map(monkeypatch):
    from heegaard_lab.disk_complex import build_lambda, classify
    from heegaard_lab.handlebody import standard_diagram
    from test_disk_complex import critical_witness_diagram

    # Enumeration's isotopy test still counts the regions of crossing-free
    # arrangements, to look for an annulus; it never sees one with
    # crossings.
    region_chis = arrangement._region_chis

    def crossing_free_only(arr):
        if arr.crossings():
            raise AssertionError("regions of a map with crossings were read")
        return region_chis(arr)
    monkeypatch.setattr(arrangement, "_region_chis", crossing_free_only)
    build_lambda(critical_witness_diagram(), 8)
    classify(standard_diagram(2), 8)


def test_isotopic_matches_annulus_scan():
    # Same-bucket pairs hold every isotopic pair, and at genus 3 also 9
    # disjoint pairs that are not isotopic, where no chi = 0 region may
    # appear.  On every pair left without crossings, the walk counts the
    # regions of the planar map.
    from heegaard_lab.surface import CurveClass
    pairs = {1: list(itertools.product(connected_essential_vectors(1, 10),
                                       repeat=2)),
             2: [], 3: [], 4: []}
    for genus, cap in ((2, 16), (3, 13), (4, 8)):
        by_bucket = {}
        for v in connected_essential_vectors(genus, cap):
            key = CurveClass(genus, v)._bucket
            by_bucket.setdefault(key, []).append(v)
            pairs[genus].append((v, v))
        for group in by_bucket.values():
            pairs[genus] += itertools.permutations(group, 2)
    assert len(pairs[2]) == 449 + 398 and len(pairs[3]) == 193 + 26
    assert len(pairs[4]) == 39 + 2
    disjoint_apart = 0
    for genus, todo in pairs.items():
        tri = canonical_triangulation(genus)
        for a, b in todo:
            want = reference_isotopic(tri, a, b)
            assert arrangement.isotopic(tri, a, b) == want, (genus, a, b)
            arr = arrangement.Arrangement(tri, [a, b])
            if arrangement.minimize(arr):
                continue
            assert sorted(arrangement._region_chis(arr)) == sorted(
                r.chi for r in reference_analyze(arr)), (genus, a, b)
            disjoint_apart += genus == 3 and not want
    assert disjoint_apart == 2 * 9


_PROPERTY_VECTORS = connected_essential_vectors(2, 10)


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
    vecs = connected_essential_vectors(2, 8)
    lines = []
    for a, b in itertools.permutations(vecs, 2):
        letters, counts = arrangement.crossing_word(tri, a, [b])
        lines.append(f"{a} {b} {letters} {counts} "
                     f"{arrangement.isotopic(tri, a, b)}")
    for v in vecs:
        regions, comps = complement_regions(tri, v)
        lines.append(f"{v} {sorted(regions)} {comps}")
    assert len(vecs) * (len(vecs) - 1) == 650
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_ARRANGEMENT_SHA256
