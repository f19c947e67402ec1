import itertools
import math
import random

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
