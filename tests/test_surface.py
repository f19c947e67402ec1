import itertools
import math
import random
import subprocess
import sys
import textwrap
import types

import pytest

from heegaard_lab.surface import (
    BudgetExhausted,
    CurveClass,
    InessentialCurve,
    InvalidCoordinates,
    ModelSurface,
    MulticurveEntry,
    MulticurveReport,
    Slope,
    Triangulation,
    _slope_scan,
    _torus_split,
    _z2_rank,
    admissible_vectors,
    algebraic_intersection,
    canonical_triangulation,
    coords_to_slope,
    enumerate_essential_curves,
    geometric_intersection,
    homology_class,
    is_essential,
    normalize,
    same_class,
)

from reference import (
    reference_admissible_vectors,
    reference_block_crossings,
    reference_check_matching,
    reference_corner_counts,
    reference_homology_class,
    reference_torus_intersection,
    reference_trace,
)


def enumerate_slopes(cap):
    """Torus classes with coordinate sum |p| + |q| + |p-q| <= cap, sorted
    by (weight, coords)."""
    return sorted(map(coords_to_slope, _slope_scan(cap)),
                  key=lambda s: (sum(s.coords()), s.coords()))


def is_admissible(tri, weights):
    try:
        tri.check_matching(weights)
    except InvalidCoordinates:
        return False
    return True


def total_components(report):
    return sum(e.multiplicity for e in report.entries)


def oracle_torus_vector(p, q):
    """Independent line-drawing oracle: crossing counts of the straight
    (p, q) line on the unit square torus with the three edge circles
    (horizontal a, vertical b, diagonal d)."""
    # A closed straight curve of slope (p, q) meets y = 0 in |q| points,
    # x = 0 in |p| points, and x - y = 0 in |p - q| points; count them by
    # sampling crossing times instead of trusting the formula.
    crossings = {"a": set(), "b": set(), "d": set()}
    steps = 200 * (abs(p) + abs(q) + 1)
    for k in range(1, steps + 1):
        t0, t1 = (k - 1) / steps, k / steps
        for name, f in (("a", lambda t: t * q), ("b", lambda t: t * p),
                        ("d", lambda t: t * (p - q))):
            lo, hi = sorted((f(t0), f(t1)))
            for m in range(math.ceil(lo), math.floor(hi) + 1):
                if lo < m <= hi and not math.isclose(m, lo):
                    crossings[name].add(m)
    return (len(crossings["a"]), len(crossings["b"]), len(crossings["d"]))


def test_triangulation_counts():
    for g, edges, faces in [(1, 3, 2), (2, 9, 6), (3, 15, 10)]:
        tri = canonical_triangulation(g)
        assert tri.n_edges == edges
        assert tri.n_triangles() == faces


def test_genus_zero_rejected():
    with pytest.raises(ValueError):
        canonical_triangulation(0)


def test_euler_characteristic():
    assert ModelSurface(0).euler_characteristic == 2
    assert ModelSurface(2).euler_characteristic == -2


def test_slope_coords_match_line_oracle():
    for p, q in [(1, 0), (0, 1), (1, 1), (1, -1), (3, 1), (2, 5), (5, -3)]:
        assert Slope.of(p, q).coords() == oracle_torus_vector(p, q)


def test_normalize_slope_vector_roundtrip():
    c = normalize(1, Slope.of(1, 0).coords())
    assert isinstance(c, CurveClass)
    assert c.slope() == Slope.of(1, 0)


def test_trace_connected_per_gcd():
    tri = canonical_triangulation(1)
    for p, q, parts in [(1, 0, 1), (2, 0, 2), (3, 0, 3), (2, 2, 2), (4, 6, 2)]:
        vec = (abs(q), abs(p), abs(p - q))
        assert len(tri.trace(vec)) == parts


def test_normalize_multicurve_multiplicity():
    vec = tuple(3 * x for x in Slope.of(1, 0).coords())
    report = normalize(1, vec)
    assert isinstance(report, MulticurveReport)
    assert total_components(report) == 3
    entry = report.entries[0]
    assert entry.coords == Slope.of(1, 0).coords()
    assert entry.multiplicity == 3 and entry.essential


def test_normalize_rejects_bad_input():
    with pytest.raises(InvalidCoordinates):
        normalize(1, (1, 0, 0))           # parity fails
    with pytest.raises(InvalidCoordinates):
        normalize(1, (0, 0, 0))           # empty
    with pytest.raises(InvalidCoordinates):
        normalize(1, (5, 1, 1))           # triangle inequality fails
    with pytest.raises(InessentialCurve):
        normalize(1, (2, 2, 2))           # vertex link


def test_slope_needs_canonical_form_and_the_torus():
    with pytest.raises(ValueError) as exc:
        Slope(-1, 0)
    assert str(exc.value) == "slope not in canonical form; use Slope.of"
    with pytest.raises(ValueError) as exc:
        CurveClass(2, (0, 1, 0, 0, 1, 1, 0, 0, 0)).slope()
    assert str(exc.value) == "slopes only exist on the torus"


def test_connected_torus_vectors_are_canonical():
    # On the torus there are no "swept" duplicates: every connected
    # essential admissible vector is already a canonical slope vector.
    tri = canonical_triangulation(1)
    for vec in admissible_vectors(tri, 10):
        comps = tri.trace(vec)
        if len(comps) != 1 or comps[0].vector == tri.vertex_link_vector():
            continue
        assert coords_to_slope(vec).coords() == vec


def test_normalize_idempotent():
    tri = canonical_triangulation(1)
    count = 0
    for vec in admissible_vectors(tri, 10):
        try:
            c = normalize(1, vec)
        except (InvalidCoordinates, InessentialCurve):
            continue
        if isinstance(c, CurveClass):
            again = normalize(1, c.coords)
            assert again.coords == c.coords
            count += 1
    assert count > 10


def test_is_essential():
    assert is_essential(1, Slope.of(1, 0).coords())
    assert not is_essential(1, canonical_triangulation(1).vertex_link_vector())
    tri2 = canonical_triangulation(2)
    for name in ("a1", "b1", "a2", "b2"):
        vec = tri2.edge_loop_pushoff(tri2.edge_index(name), 0)
        assert is_essential(2, vec)


def test_intersection_examples():
    c = CurveClass.from_slope(2, 1)
    assert geometric_intersection(c, c) == 0
    one_zero = CurveClass.from_slope(1, 0)
    zero_one = CurveClass.from_slope(0, 1)
    assert geometric_intersection(one_zero, zero_one) == 1
    assert geometric_intersection(CurveClass.from_slope(3, 1),
                                  CurveClass.from_slope(1, 2)) == 5


def test_intersection_symmetric_and_det_oracle():
    rng = random.Random(3)
    for _ in range(200):
        while True:
            p, q = rng.randint(-50, 50), rng.randint(-50, 50)
            if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
                break
        while True:
            r, s = rng.randint(-50, 50), rng.randint(-50, 50)
            if (r, s) != (0, 0) and math.gcd(abs(r), abs(s)) == 1:
                break
        a, b = CurveClass.from_slope(p, q), CurveClass.from_slope(r, s)
        n = geometric_intersection(a, b)
        assert n == abs(p * s - q * r)
        assert n == geometric_intersection(b, a)


def test_homology_class_of_pushoffs():
    tri = canonical_triangulation(2)
    want = {"a1": (1, 0, 0, 0), "b1": (0, 1, 0, 0),
            "a2": (0, 0, 1, 0), "b2": (0, 0, 0, 1)}
    for name, cls in want.items():
        vec = tri.edge_loop_pushoff(tri.edge_index(name), 0)
        got = homology_class(2, vec)
        assert got == cls or got == tuple(-x for x in cls)


def test_homology_class_of_heavy_curve():
    # 200000·a + b for a disjoint pair with [a] = (0, 0, 1, 0) and
    # [b] = (0, 0, 0, -1): one connected curve of weight 400,003.
    a = (0, 0, 0, 1, 0, 0, 0, 0, 1)
    b = (0, 0, 1, 0, 0, 0, 0, 1, 1)
    assert homology_class(2, a) == (0, 0, 1, 0)
    assert homology_class(2, b) == (0, 0, 0, -1)
    vec = tuple(200000 * x + y for x, y in zip(a, b))
    assert homology_class(2, vec) == (0, 0, 200000, -1)


@pytest.mark.parametrize("genus, cap, connected", [(2, 12, 114), (3, 8, 32)])
def test_homology_class_matches_signed_crossings(genus, cap, connected):
    tri = canonical_triangulation(genus)
    checked = 0
    for vec in admissible_vectors(tri, cap):
        if len(tri.trace(vec)) == 1:
            assert homology_class(genus, vec) \
                == reference_homology_class(genus, vec), vec
            checked += 1
        else:
            assert outcome(lambda: homology_class(genus, vec)) \
                == outcome(lambda: reference_homology_class(genus, vec))
    assert checked == connected


def test_z2_rank_matches_span_size():
    # k classes of rank r span exactly 2^r sums mod 2.
    rng = random.Random(5)
    for _ in range(300):
        length, k = rng.randint(1, 8), rng.randint(0, 6)
        classes = [tuple(rng.randint(-3, 3) for _ in range(length))
                   for _ in range(k)]
        span = {tuple(sum(c[i] * s for c, s in zip(classes, pick)) % 2
                      for i in range(length))
                for pick in itertools.product((0, 1), repeat=k)}
        assert 2 ** _z2_rank(classes) == len(span), classes


def test_enumeration_traces_each_vector_once(monkeypatch):
    # Enumeration reads each candidate's bucket off its connectivity trace.
    import heegaard_lab.surface as surface

    def no_homology_class(genus, coords):
        raise AssertionError(f"traced {coords} again for its class")

    keys = ((2, 14), (3, 9))
    monkeypatch.setattr(surface, "homology_class", no_homology_class)
    got = [enumerate_essential_curves(*key) for key in keys]
    monkeypatch.undo()
    assert got == [enumerate_essential_curves(*key) for key in keys]


def test_torus_curve_class_repr_of_non_curves():
    # Two parallel copies of a slope, and the vertex link, pass validation;
    # their reprs show the coords, and only a slope needs one essential curve.
    two = CurveClass(1, (2, 0, 2))
    link = CurveClass(1, (2, 2, 2))
    assert repr(two) == "CurveClass(g=1, (2, 0, 2))"
    assert repr(link) == "CurveClass(g=1, (2, 2, 2))"
    assert repr(CurveClass(1, (1, 0, 1))) == "CurveClass(torus (0,1))"
    with pytest.raises(ValueError, match=r"torus vector \(2, 0, 2\) has 2 "
                       r"components; a class needs one curve"):
        two.slope()
    with pytest.raises(InessentialCurve):
        link.slope()


def test_same_class_between_pushoff_sides():
    tri = canonical_triangulation(2)
    for name in ("a1", "b1", "a2", "b2", "d4"):
        e = tri.edge_index(name)
        v0, v1 = tri.edge_loop_pushoff(e, 0), tri.edge_loop_pushoff(e, 1)
        assert same_class(CurveClass(2, v0), CurveClass(2, v1))
    a1 = CurveClass(2, tri.edge_loop_pushoff(tri.edge_index("a1"), 0))
    a2 = CurveClass(2, tri.edge_loop_pushoff(tri.edge_index("a2"), 0))
    assert not same_class(a1, a2)


def test_enumeration_complete_against_rescan():
    # Independent re-scan: every admissible connected essential vector at
    # the cap must be same-class to exactly one enumerated representative.
    tri = canonical_triangulation(1)
    cap = 8
    curves = enumerate_essential_curves(1, cap)
    keys = {c.coords for c in curves}
    for vec in admissible_vectors(tri, cap):
        comps = tri.trace(vec)
        if len(comps) != 1 or comps[0].vector == tri.vertex_link_vector():
            continue
        assert coords_to_slope(vec).coords() in keys


def test_enumeration_genus2_dedups_classes():
    curves = enumerate_essential_curves(2, 6)
    for i, a in enumerate(curves):
        for b in curves[i + 1:]:
            assert not same_class(a, b)


# Class counts, per cap from 0, and sha256 of the classes' coordinate
# tuples, one str(coords) a line, of enumerate_essential_curves(genus, cap),
# recorded before same_class decided genus-2 isotopy by disjointness.
GOLDEN_ENUMERATION_COUNTS = {
    2: [0, 0, 2, 6, 6, 10, 12, 16, 25, 41, 52, 72, 110, 146, 203, 271, 363,
        471, 657],
    3: [0, 0, 2, 8, 9, 13, 16, 22, 32, 50, 69],
}
GOLDEN_ENUMERATION_SHA256 = {
    (2, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (2, 2):
        "59ee87db3356abf5f6171c42eca0f6a0750a738aa8846154ce80f711f0db2d78",
    (2, 3):
        "ec2936df46baea79aa8505b4af9e1e6aaa25576f5ac109d5a758ee32c7ce318c",
    (2, 4):
        "ec2936df46baea79aa8505b4af9e1e6aaa25576f5ac109d5a758ee32c7ce318c",
    (2, 5):
        "a4286fc18224e6066f8bdd292745158944b7d12c914246be717cde67af6ba487",
    (2, 6):
        "ad465f1bc2c71dc05bd7110947dacc98c72bbd859dd11f608b91f71b70581a28",
    (2, 7):
        "462c7bd221e2ace18bf06136ea883f230c4aba2e423c30e6456552a3773c2cc5",
    (2, 8):
        "eb102a4adb66bf31ddef3240b55ee1be242c2cd14f6ebbbd77f80aa88ba3f081",
    (2, 9):
        "171c8369c5e5525c5220672ce1fed5b251f1475345449a829d49e81d8c28e505",
    (2, 10):
        "a0a03310d71f7574467be9fb0e738814b6fdab82ed64ed16a9a78b63b935a6e5",
    (2, 11):
        "b384421c993bb966f6348865fcd0fea3378ad784613db8af39b35bf2f1ce83dd",
    (2, 12):
        "675c65a1d28e1d5d1df3ba8ab946f94812c41885899b4bc8fd7183fdaddf8aa6",
    (2, 13):
        "d7757ec90bb1623f4083b98fb416be1b506075a696d9b83ef9099400e1989655",
    (2, 14):
        "418cc9de88a6141d387550f1dc1c07ec9d87be878fffa087be303579d329a07c",
    (2, 15):
        "c9a6e37d44bb126885d0bbbb9692d7719b346e9e92c5bf29646dd1e14f7f81e9",
    (2, 16):
        "b915dd06600c340e45a2a68f9a751f8cce0ea6556ca91e68a34fa38bdc49f83f",
    (2, 17):
        "be9375edce9a32132a7bea46b60c962e2936cedd7dd79828f488802a082cf5f2",
    (2, 18):
        "3df1951ffde7bad009dd3405732bb1f9eeb6f89bed9e1bdf55e05e4f78936134",
    (3, 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (3, 1):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (3, 2):
        "3aed70a984d012da750f9e379cfc0edf9ad79eee1aa88189dbde02fdb9fc6caf",
    (3, 3):
        "35fcf54d083c97d7316f53852708d98a46d58d1ae10b45219f7fd4a1fe4b7521",
    (3, 4):
        "4fddfaad257246b42f2bfccf5c5e37161f60c8f73808cbb3dcb3737bb6efcf2f",
    (3, 5):
        "7ea4972d2d0b1e91cecec87b59cf59e1ce83e510370b81f6478fc428f6b79a4e",
    (3, 6):
        "d6157064ca6c3ddcee11617465c2164136395b36808b9133297d39b6efd93ddf",
    (3, 7):
        "5bda8fadf545164515424e5c53c6e7e9155e9ed66697fc87f2c3313d9f4be0b9",
    (3, 8):
        "8b8b9d39701d033b25bcb0bda6d087e294320a65aa50537fb4d0f159f9bc03a9",
    (3, 9):
        "e0e33c7f931a0bed2a65e9ed8c7010892b01f4af8126036c419689c594cb0b03",
    (3, 10):
        "f6a7feb727b2b9c77214c29c3c47cd465191bb9cb6c6d30acd8f40124f363528",
}


def test_enumeration_golden(monkeypatch):
    # Genus-2 enumeration decides isotopy without counting regions, since
    # same_class there asks the pair ladder only whether two classes of one
    # bucket are disjoint.  Genus-3 enumeration does count them, for the
    # annulus test.
    import hashlib
    from heegaard_lab import arrangement
    region_chis, mapped = arrangement._region_chis, []

    def counting(arr):
        mapped.append(genus)
        return region_chis(arr)
    monkeypatch.setattr(arrangement, "_region_chis", counting)
    for genus, counts in GOLDEN_ENUMERATION_COUNTS.items():
        for cap, count in enumerate(counts):
            curves = enumerate_essential_curves(genus, cap)
            text = "\n".join(str(c.coords) for c in curves)
            assert len(curves) == count, (genus, cap)
            assert hashlib.sha256(text.encode()).hexdigest() \
                == GOLDEN_ENUMERATION_SHA256[genus, cap], (genus, cap)
    assert 2 not in mapped and 3 in mapped


def test_enumeration_budget():
    with pytest.raises(BudgetExhausted) as info:
        enumerate_essential_curves(2, 8, budget=10)
    assert isinstance(info.value.partial, list)


def test_slope_box_contained_in_sum_cap():
    slopes = set(enumerate_slopes(134))
    for p in range(0, 35):
        for q in range(-34, 35):
            if (p, q) == (0, 0) or math.gcd(p, abs(q)) != 1:
                continue
            if p == 0 and q != 1:
                continue
            assert Slope.of(p, q) in slopes


def test_enumerate_slopes_matches_weight_filter():
    """The bounded scan lists exactly the canonical slopes of weight <= cap,
    in (weight, coords) order."""
    for cap in range(0, 41):
        ref = [Slope(p, q) for p in range(cap + 1)
               for q in range(-cap, cap + 1)
               if math.gcd(p, abs(q)) == 1 and (p > 0 or q == 1)
               and sum(Slope(p, q).coords()) <= cap]
        ref.sort(key=lambda s: (sum(s.coords()), s.coords()))
        assert enumerate_slopes(cap) == ref, cap


# -- genus 1 in closed form, against the trace ---------------------------------


def outcome(f):
    """A call's result, or the type and message of what it raised."""
    try:
        return f()
    except ValueError as exc:
        return (type(exc), str(exc))


def traced_normalize(vec):
    """Reference `normalize` at genus 1, from the components of the trace."""
    tri = canonical_triangulation(1)
    if vec == (0, 0, 0):
        raise InvalidCoordinates("the zero vector carries no curve")
    comps = tri.trace(vec)
    link = tri.vertex_link_vector()
    if len(comps) == 1:
        if comps[0].vector == link:
            raise InessentialCurve("the vertex link bounds a disk")
        return CurveClass(1, comps[0].vector)
    groups = {}
    for comp in comps:
        groups[comp.vector] = groups.get(comp.vector, 0) + 1
    return MulticurveReport(1, tuple(
        MulticurveEntry(v, n, v != link) for v, n in sorted(groups.items())))


def traced_is_essential(vec):
    tri = canonical_triangulation(1)
    comps = tri.trace(vec)
    if len(comps) != 1:
        raise ValueError("essentialness is defined for connected curves")
    return comps[0].vector != tri.vertex_link_vector()


def traced_class(vec):
    """Reference torus H_1 class: the trace must give one component."""
    comps = canonical_triangulation(1).trace(vec)
    if len(comps) != 1:
        raise ValueError(f"torus vector {tuple(vec)} has {len(comps)} "
                         "components; a class needs one curve")
    return homology_class(1, vec)


def traced_slope(vec):
    alpha, beta = traced_class(vec)
    if alpha == 0 and beta == 0:
        raise InessentialCurve("null-homologous torus curve is inessential")
    return Slope.of(alpha, beta)


def traced_bucket(vec):
    cls = list(traced_class(vec))
    return tuple(min(cls, [-x for x in cls]))


def test_torus_closed_form_matches_trace():
    # Every admissible vector up to weight 60, plus a box of raw vectors
    # that includes the zero vector and matching violations.
    tri = canonical_triangulation(1)
    vectors = list(admissible_vectors(tri, 60))
    vectors += list(itertools.product(range(7), repeat=3))
    vectors += [(1, 1), (1, 2, 3, 4), (-1, 1, 0)]
    kinds = set()
    for vec in vectors:
        for closed, traced in [(normalize, traced_normalize),
                               (is_essential, traced_is_essential)]:
            assert outcome(lambda: closed(1, vec)) == \
                outcome(lambda: traced(vec)), (closed.__name__, vec)
        got = outcome(lambda: coords_to_slope(vec))
        assert got == outcome(lambda: traced_slope(vec)), vec
        kinds.add(got[0] if isinstance(got, tuple) else type(got))
        if is_admissible(tri, vec):
            assert outcome(lambda: CurveClass(1, vec)._bucket) \
                == outcome(lambda: traced_bucket(vec)), vec
    assert kinds == {Slope, InvalidCoordinates, InessentialCurve, ValueError}


def matching_outcome(check, *args):
    """Corner counts, or the message of the InvalidCoordinates raised."""
    try:
        return check(*args)
    except InvalidCoordinates as exc:
        return str(exc)


@pytest.mark.parametrize("genus", [1, 2])
def test_matching_check_matches_reference(genus):
    """`check_matching` on every vector with entries -1..3, and on vectors
    of every wrong length up to two edges off, and `corner_counts` on every
    triangle and every triple of entries -1..3 there, give the corner
    counts or the error message of the references."""
    tri = canonical_triangulation(genus)
    messages = set()
    vectors = itertools.product(range(-1, 4), repeat=tri.n_edges)
    wrong = [(1,) * n for n in range(tri.n_edges - 2, tri.n_edges + 3)
             if n != tri.n_edges]
    for vec in itertools.chain(vectors, wrong):
        got = matching_outcome(tri.check_matching, vec)
        assert got == matching_outcome(reference_check_matching, tri, vec), \
            vec
        if isinstance(got, str):
            messages.add(got.split()[0])
    for t, triple in enumerate(tri.edge_triples):
        for x, y, z in itertools.product(range(-1, 4), repeat=3):
            vec = [0] * tri.n_edges
            vec[triple[0]], vec[triple[1]], vec[triple[2]] = x, y, z
            assert matching_outcome(tri.corner_counts, vec, t) == \
                matching_outcome(reference_corner_counts, tri, vec, t), \
                (t, x, y, z)
    assert messages == {"expected", "negative", "odd", "triangle"}


def test_torus_rung_errors_match_reference():
    """The torus rung on every pair of admissible torus vectors up to
    weight 12, the vertex link and multicurves among them in either
    position, gives the determinant or the error of the `Slope` path."""
    tri = canonical_triangulation(1)
    classes = [CurveClass(1, v) for v in admissible_vectors(tri, 12)]
    kinds = set()
    for a, b in itertools.product(classes, repeat=2):
        got = outcome(lambda: geometric_intersection(a, b))
        assert got == outcome(lambda: reference_torus_intersection(a, b)), \
            (a.coords, b.coords)
        kinds.add(got[0] if isinstance(got, tuple) else int)
    assert kinds == {int, InessentialCurve, ValueError}


def test_torus_classes_are_checked_once(monkeypatch):
    """A CurveClass checks its vector when it is built; the torus rung,
    the bucket and the slope read the split of that vector without
    checking it again, and raise as before on the vertex link and on
    parallel copies, a before b."""
    link, two = CurveClass(1, (2, 2, 2)), CurveClass(1, (2, 0, 2))
    a, b = CurveClass.from_slope(3, 1), CurveClass.from_slope(1, 2)
    calls = []
    monkeypatch.setattr(Triangulation, "check_matching",
                        lambda self, weights: calls.append(weights))
    assert geometric_intersection(a, b) == 5
    assert algebraic_intersection(a, b) == 5
    assert same_class(a, a) and not same_class(a, b)
    assert a.slope() == Slope.of(3, 1)
    assert outcome(lambda: geometric_intersection(link, two)) == (
        InessentialCurve, "null-homologous torus curve is inessential")
    assert outcome(lambda: geometric_intersection(two, link)) == (
        ValueError, "torus vector (2, 0, 2) has 2 components; "
                    "a class needs one curve")
    assert calls == []


@pytest.mark.parametrize("vec, message", [
    ((1, 1), "expected 3 weights, got 2"),
    ((1, 2, 3, 4), "expected 3 weights, got 4"),
    ((1, 0, 0), "odd weight sum [1, 0, 0] in triangle 0"),
    ((3, 1, 0), "triangle inequality fails in triangle 0: [3, 1, 0]"),
])
def test_raw_torus_vectors_are_still_checked(vec, message):
    for f in (coords_to_slope, lambda v: normalize(1, v)):
        with pytest.raises(InvalidCoordinates) as info:
            f(vec)
        assert str(info.value) == message


def test_unchecked_slope_classes_equal_checked_ones():
    """Enumeration and `from_slope` build torus classes without checking
    their vectors.  Each vector must pass the check, split as one essential
    curve, and give the class a checked build gives: every slope scanned at
    cap 300, which holds those of every smaller cap, and a grid of coprime
    (p, q) with p = 0 and q < 0 on it."""
    tri = canonical_triangulation(1)
    built = enumerate_essential_curves(1, 300)
    assert sorted(c.coords for c in built) == sorted(_slope_scan(300))
    grid = [(p, q) for p in range(-13, 14) for q in range(-13, 14)
            if math.gcd(p, q) == 1]
    assert (0, 1) in grid and (0, -1) in grid and (3, -7) in grid
    from_slope = [CurveClass.from_slope(p, q) for p, q in grid]
    assert [c.slope() for c in from_slope] == [Slope.of(*s) for s in grid]
    for c in built + from_slope:
        v = c.coords
        tri.check_matching(v)
        assert _torus_split(v) == (0, 1, v)
        checked = CurveClass(1, v)
        assert c == checked and hash(c) == hash(checked)
        assert c.slope() == checked.slope()
    # A raw vector is still checked, with the messages it always had.
    for vec, message in [((1, 1), "expected 3 weights, got 2"),
                         ((1, 0, 0), "odd weight sum [1, 0, 0] in "
                                     "triangle 0"),
                         ((3, 1, 0), "triangle inequality fails in "
                                     "triangle 0: [3, 1, 0]"),
                         ((1, -1, 0), "negative edge weight")]:
        with pytest.raises(InvalidCoordinates) as info:
            CurveClass(1, vec)
        assert str(info.value) == message


def test_torus_never_traces(monkeypatch):
    from heegaard_lab.disk_complex import build_gamma, build_lambda, classify
    from heegaard_lab.handlebody import lens_space
    diagram = lens_space(7, 2)          # validating the meridians traces

    def no_trace(self, weights):
        raise AssertionError(f"traced {tuple(weights)} at genus {self.genus}")

    monkeypatch.setattr(Triangulation, "trace", no_trace)
    assert len(build_lambda(diagram, 40).edges) > 0
    assert len(build_gamma(diagram, 40).classes) == 2
    assert classify(diagram, 40).reducing_class is None
    assert normalize(1, (5, 7, 12)).slope() == Slope.of(7, -5)
    assert total_components(normalize(1, (6, 4, 4))) == 3
    a, b = CurveClass.from_slope(3, 1), CurveClass.from_slope(1, 2)
    assert geometric_intersection(a, b) == 5
    assert not same_class(a, b) and same_class(a, a)


# Defines peak_rss_mb() in a child script: the child's own peak RSS in MB.
# On Linux a child's ru_maxrss starts at its parent's peak, carried across
# fork and exec, so it reads VmHWM instead where /proc is present.
PEAK_RSS_MB = textwrap.dedent("""
    def peak_rss_mb():
        try:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
""")


def test_huge_torus_slope_costs_no_weight():
    # A weight-4e8 curve: the closed form must not allocate per unit of
    # weight.  The child caps its own address space, so a regression to
    # tracing fails there instead of exhausting the machine.
    script = PEAK_RSS_MB + textwrap.dedent("""
        import contextlib, io, resource, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
        from heegaard_lab.cli import main
        from heegaard_lab.surface import CurveClass, Slope, normalize
        t0 = time.perf_counter()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["intersect", "--a", '{"slope": [100000001, 100000000]}',
                         "--b", '{"slope": [1, 0]}'])
        c = normalize(1, Slope.of(10**8 + 1, 10**8).coords())
        elapsed = time.perf_counter() - t0
        rss_mb = peak_rss_mb()
        print(code, out.getvalue().strip(), type(c).__name__, elapsed, rss_mb)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, emitted, kind, elapsed, rss_mb = proc.stdout.split()
    assert (code, emitted, kind) == \
        ("0", '{"intersection":100000000}', "CurveClass")
    assert float(elapsed) < 1.0
    assert float(rss_mb) < 100


def test_wrong_length_rejected_before_building_triangulation():
    from heegaard_lab import surface
    for check in (normalize, is_essential, CurveClass):
        with pytest.raises(InvalidCoordinates) as info:
            check(10**6, [1])
        assert str(info.value) == "expected 5999997 weights, got 1"
    assert 10**6 not in surface._TRI_CACHE
    with pytest.raises(ValueError, match="genus 0; need genus >= 1"):
        normalize(0, [1])


def test_admissible_vectors_match_reference_dfs():
    for genus, max_cap in [(1, 30), (2, 14), (3, 8)]:
        tri = canonical_triangulation(genus)
        for cap in range(max_cap + 1):
            assert list(admissible_vectors(tri, cap)) == \
                list(reference_admissible_vectors(tri, cap)), (genus, cap)
    # On a closed surface the triangle weight sums add up to an even number,
    # so two triangles closed by the last edge never ask for different
    # parities.  Two triangles glued along one edge can.
    hinge = types.SimpleNamespace(
        n_edges=5, triangles=[((0, 1), (1, 1), (4, 1)),
                              ((2, 1), (3, 1), (4, -1))])
    for cap in range(13):
        assert list(admissible_vectors(hinge, cap)) == \
            list(reference_admissible_vectors(hinge, cap)), cap


def test_disjointness_certificate_sound_and_complete(monkeypatch):
    """Over every pair of connected essential vectors with algebraic
    intersection 0, the normal-sum certificate answers only pairs the
    arrangement finds disjoint, and it answers all of them."""
    from heegaard_lab import arrangement
    from heegaard_lab.surface import algebraic_intersection
    exact = arrangement.intersection_number
    built = []

    def recording(tri, a, b):
        built.append((a, b))
        return exact(tri, a, b)

    monkeypatch.setattr(arrangement, "intersection_number", recording)
    for genus, cap, n_vecs, n_pairs, n_zero in [(2, 12, 114, 1291, 1027),
                                                (3, 8, 32, 329, 325)]:
        tri = canonical_triangulation(genus)
        link = tri.vertex_link_vector()
        curves = [CurveClass(genus, v) for v in admissible_vectors(tri, cap)
                  if v != link and len(tri.trace(v)) == 1]
        pairs = [(a, b) for a, b in itertools.combinations(curves, 2)
                 if algebraic_intersection(a, b) == 0]
        assert (len(curves), len(pairs)) == (n_vecs, n_pairs)
        zero = 0
        for a, b in pairs:
            truth = exact(tri, a.coords, b.coords)
            zero += truth == 0
            built.clear()
            assert geometric_intersection(a, b) == truth, (a, b)
            certified = not built
            assert certified == (truth == 0), (a, b, truth)
        assert zero == n_zero


def test_block_crossings_match_arrangement():
    """The per-triangle count is the crossing count of the arrangement with
    each edge's tokens reordered into the chosen blocks, for all 512 masks."""
    from heegaard_lab import arrangement
    tri = canonical_triangulation(2)
    curves = enumerate_essential_curves(2, 8)
    rng = random.Random(8)
    pairs = [rng.sample(curves, 2) for _ in range(6)]
    assert sorted(algebraic_intersection(a, b) for a, b in pairs) == \
        [0, 0, 0, 0, 1, 2]
    for a, b in pairs:
        arr = arrangement.Arrangement(tri, [a.coords, b.coords])
        blocks = [(pts[:w], pts[w:]) for pts, w in zip(arr.edge_pts, a.coords)]
        for mask in range(512):
            arr.edge_pts = [a_pts + b_pts if mask >> e & 1 else b_pts + a_pts
                            for e, (a_pts, b_pts) in enumerate(blocks)]
            assert len(arr.crossings()) == reference_block_crossings(
                tri, a._corners, b._corners, mask), (a, b, mask)


def test_block_certificate_matches_exhaustive_minimum():
    """`_blocks_meet` answers k = 0 and k = 1 exactly when some mask of
    edge blocks crosses at most k times, on every ordered pair of genus-2
    classes up to cap 8."""
    from heegaard_lab.surface import _blocks_meet
    tri = canonical_triangulation(2)
    curves = enumerate_essential_curves(2, 8)
    fired = [0, 0]
    for a, b in itertools.permutations(curves, 2):
        c, d = a._corners, b._corners
        least = min(reference_block_crossings(tri, c, d, mask)
                    for mask in range(512))
        for k in (0, 1):
            assert _blocks_meet(tri, c, d, k) == (least <= k), (a, b, k)
            fired[k] += least <= k
    assert fired == [236, 368]


def test_block_certificate_sound(monkeypatch):
    """Whenever the block certificate settles a pair, the arrangement finds
    i(a, b) = |a . b|, and `geometric_intersection` answers without one:
    every ordered pair of classes with |a . b| <= 1, at genus 2 up to cap 10
    and at genus 3 up to cap 7."""
    from heegaard_lab import arrangement
    from heegaard_lab.surface import _blocks_meet
    exact = arrangement.intersection_number
    cases = [(genus, cap, n_pairs, n_fired,
              enumerate_essential_curves(genus, cap))
             for genus, cap, n_pairs, n_fired in [(2, 10, 1574, 1120),
                                                  (3, 7, 390, 382)]]
    built = []
    monkeypatch.setattr(arrangement, "intersection_number",
                        lambda *args: built.append(args))
    for genus, cap, n_pairs, n_fired, curves in cases:
        tri = canonical_triangulation(genus)
        fired = 0
        pairs = [(a, b) for a, b in itertools.permutations(curves, 2)
                 if algebraic_intersection(a, b) <= 1]
        for a, b in pairs:
            alg = algebraic_intersection(a, b)
            if _blocks_meet(tri, a._corners, b._corners, alg):
                fired += 1
                assert exact(tri, a.coords, b.coords) == alg, (a, b)
                assert geometric_intersection(a, b) == alg, (a, b)
        assert (len(pairs), fired) == (n_pairs, n_fired)
    assert not built


def test_triangulation_automorphisms():
    """The combinatorial automorphisms of the canonical triangulation: order
    4 at genus 2 and order 2 at genus 3-5.  Each maps every triangle's edge
    set onto a triangle's, and together they are closed under composition."""
    assert canonical_triangulation(2).automorphisms == [
        (0, 1, 2, 3, 4, 5, 6, 7, 8), (3, 2, 1, 0, 8, 7, 6, 5, 4),
        (4, 5, 7, 8, 0, 1, 6, 2, 3), (8, 7, 5, 4, 3, 2, 6, 1, 0)]
    for genus, order in [(2, 4), (3, 2), (4, 2), (5, 2)]:
        tri = canonical_triangulation(genus)
        group = tri.automorphisms
        assert len(set(group)) == len(group) == order, genus
        assert group[0] == tuple(range(tri.n_edges))
        sets = {frozenset(e for e, _ in t) for t in tri.triangles}
        for perm in group:
            assert {frozenset(perm[e] for e in s) for s in sets} == sets
        for p, q in itertools.product(group, repeat=2):
            assert tuple(p[e] for e in q) in group, (genus, p, q)


def test_automorphisms_keep_intersection_numbers():
    """i(σa, σb) = i(a, b) for every automorphism σ and every pair of
    genus-2 classes up to cap 8; σ reverses orientation or not."""
    tri = canonical_triangulation(2)
    curves = enumerate_essential_curves(2, 8)
    for a, b in itertools.combinations(curves, 2):
        n = geometric_intersection(a, b)
        for perm in tri.automorphisms[1:]:
            sa = CurveClass(2, tuple(a.coords[e] for e in perm))
            sb = CurveClass(2, tuple(b.coords[e] for e in perm))
            assert geometric_intersection(sa, sb) == n, (a, b, perm)


def trace_outcome(trace, tri, vec):
    try:
        return [(c.vector, c.cycle, c.triangles) for c in trace(tri, vec)]
    except InvalidCoordinates as exc:
        return (type(exc), str(exc))


def test_trace_matches_reference_trace():
    rng = random.Random(10)
    cases = []
    for genus, cap in [(1, 30), (2, 14), (3, 8)]:
        tri = canonical_triangulation(genus)
        cases += [(tri, v) for v in admissible_vectors(tri, cap)]
    for genus, cap in [(2, 8), (3, 6)]:
        tri = canonical_triangulation(genus)
        classes = [c.coords for c in enumerate_essential_curves(genus, cap)]
        classes.append(tri.vertex_link_vector())
        for _ in range(150):
            vec = [0] * tri.n_edges
            for coords in rng.sample(classes, rng.randint(1, 3)):
                mult = rng.randint(1, 30)
                vec = [x + mult * y for x, y in zip(vec, coords)]
            cases.append((tri, tuple(vec)))
    tri = canonical_triangulation(2)
    good = list(tri.vertex_link_vector())
    for bad in (good[:-1], good + [2], good[:4] + [-2] + good[5:],
                good[:4] + [3] + good[5:], good[:4] + [8] + good[5:]):
        cases.append((tri, bad))
    errors = 0
    for tri, vec in cases:
        want = trace_outcome(reference_trace, tri, vec)
        assert trace_outcome(Triangulation.trace, tri, vec) == want, vec
        errors += isinstance(want, tuple)
    assert errors == 5


def test_trace_allocates_no_per_token_table():
    # Tracing a connected genus-2 curve of weight 400,003 keeps one byte per
    # token for its visited marks; a table of tokens would take hundreds of
    # megabytes.  The child caps its own address space, as above.
    script = PEAK_RSS_MB + textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from heegaard_lab.surface import canonical_triangulation
        a = (0, 0, 0, 1, 0, 0, 0, 0, 1)
        b = (0, 0, 1, 0, 0, 0, 0, 1, 1)
        vec = tuple(200000 * x + y for x, y in zip(a, b))
        comps = canonical_triangulation(2).trace(vec)
        rss_mb = peak_rss_mb()
        print(sum(vec), len(comps), comps[0].vector == vec, rss_mb)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    weight, n_comps, same, rss_mb = proc.stdout.split()
    assert (weight, n_comps, same) == ("400003", "1", "True")
    assert float(rss_mb) < 100
