import itertools
import random
import time

import pytest

from heegaard_lab import arrangement
from heegaard_lab.disk_complex import enumerate_disk_boundaries
from heegaard_lab.handlebody import (
    CutSystem,
    HeegaardDiagram,
    InvalidCutSystem,
    SignedWord,
    boundary_word,
    bounds_disk,
    lens_space,
    s2_x_s1,
    s3_genus1,
    standard_diagram,
    validate_cut_system,
)
from heegaard_lab.surface import (
    CurveClass,
    ModelSurface,
    SurfaceMismatch,
    admissible_vectors,
    algebraic_intersection,
    canonical_triangulation,
    enumerate_essential_curves,
    geometric_intersection,
    intersection_at_most,
    same_class,
)

from reference import (
    NOT_DISJOINT,
    reference_first_drawn_word,
    reference_validate_cut_system,
)

COMMUTATOR_CURVE = CurveClass(2, (2, 2, 2, 0, 2, 2, 4, 2, 2))


def oracle_reduce(letters):
    """Independent free+cyclic reduction: brute-force scan for cancelling
    neighbors in the cyclic word until none remain."""
    word = list(letters)
    changed = True
    while changed and word:
        changed = False
        n = len(word)
        for i in range(n):
            j = (i + 1) % n
            if i != j and word[i][0] == word[j][0] \
                    and word[i][1] == -word[j][1]:
                for k in sorted((i, j), reverse=True):
                    word.pop(k)
                changed = True
                break
    return word


def test_signed_word_reduction_matches_oracle():
    samples = [
        [],
        [(1, 1)],
        [(1, 1), (1, -1)],
        [(1, 1), (2, 1), (1, -1), (2, -1)],
        [(1, -1), (1, 1), (2, 1)],              # cyclic wrap cancellation
        [(2, 1), (1, 1), (1, -1), (2, -1), (1, 1)],
    ]
    rng = random.Random(12)
    for _ in range(2000):
        g = rng.randint(1, 3)
        samples.append([(rng.randint(1, g), rng.choice((1, -1)))
                        for _ in range(rng.randint(0, 12))])
    for letters in samples:
        ours = list(SignedWord.of(letters).reduced().letters)
        theirs = oracle_reduce(letters)
        assert len(ours) == len(theirs)
        assert SignedWord.of(ours).min_rotation() \
            == SignedWord.of(theirs).min_rotation()


def test_signed_word_repr():
    assert repr(SignedWord.of([])) == "SignedWord(1)"
    assert repr(SignedWord.of([(1, 1), (2, -1)])) == "SignedWord(x1 x2^-1)"


def test_cut_system_examples():
    torus = ModelSurface(1)
    assert validate_cut_system(torus, [CurveClass.from_slope(1, 0)])
    with pytest.raises(InvalidCutSystem):
        validate_cut_system(torus, [CurveClass.from_slope(1, 0)] * 2)
    with pytest.raises(InvalidCutSystem):
        validate_cut_system(2, [CurveClass.from_slope(1, 0)])


@pytest.mark.parametrize("coords, message", [
    ((2, 2, 2), "cut complement has 2 pieces, expected 1"),
    ((2, 0, 2), "the stored coordinate vectors do not overlay disjointly; "
                "re-supply representatives that are disjoint as drawn"),
    ((3, 3, 2), "the stored coordinate vectors do not overlay disjointly; "
                "re-supply representatives that are disjoint as drawn"),
])
def test_torus_cut_system_rejects_non_curves(coords, message):
    # The vertex link, two parallel copies of a slope, and a slope plus a
    # vertex link.
    with pytest.raises(InvalidCutSystem) as info:
        validate_cut_system(1, [CurveClass(1, coords)])
    assert str(info.value) == message


def test_vertex_link_is_no_copy_of_a_separating_curve():
    # The vertex link is null-homologous and disjoint from every curve, like
    # a second copy of the separating curve s, but it bounds a disk: beside
    # s it leaves three pieces, whichever comes first.
    link = CurveClass(2, canonical_triangulation(2).vertex_link_vector())
    s = CurveClass(2, (0, 0, 2, 2, 0, 0, 0, 2, 2))
    assert link._bucket == s._bucket
    assert not same_class(link, s) and not same_class(s, link)
    for curves in ([link, s], [s, link]):
        with pytest.raises(InvalidCutSystem) as info:
            validate_cut_system(2, curves)
        assert str(info.value) == "cut complement has 3 pieces, expected 1"


def test_standard_diagram_of_genus_1_is_s3():
    assert standard_diagram(1) == s3_genus1()


# Calls that each mix the standard genus-2 and genus-3 diagrams, or their
# first red meridians a and b.
@pytest.mark.parametrize("call, message", [
    (lambda g2, g3, a, b: same_class(a, b), "genus 2 vs 3"),
    (lambda g2, g3, a, b: intersection_at_most(a, b, 1), "genus 2 vs 3"),
    (lambda g2, g3, a, b: validate_cut_system(2, [a, b]),
     "cut curve lives on a different surface"),
    (lambda g2, g3, a, b: HeegaardDiagram(ModelSurface(2), g2.red, g3.blue),
     "cut systems live on different surfaces"),
    (lambda g2, g3, a, b: boundary_word(b, g2.red),
     "curve and cut system on different surfaces"),
])
def test_genus_mismatches_are_refused(call, message):
    g2, g3 = standard_diagram(2), standard_diagram(3)
    with pytest.raises(SurfaceMismatch) as exc:
        call(g2, g3, g2.red.curves[0], g3.red.curves[0])
    assert str(exc.value) == message


def test_torus_cut_system_check_is_closed_form():
    # The blue meridian weighs about 40,000: validation must not walk it.
    t0 = time.perf_counter()
    d = lens_space(20001, 20000)
    assert time.perf_counter() - t0 < 1.0
    assert d.blue.curves[0].slope().q == 20001


def cut_system_family():
    """(genus, curves) for: every ordered pair of genus-2 classes up to
    weight 10 and the vertex link; 60 two-component genus-2 vectors, each
    against 15 classes; every genus-3 triple up to weight 6; seven torus
    vectors."""
    tri = canonical_triangulation(2)
    g2 = enumerate_essential_curves(2, 10)
    g2.append(CurveClass(2, tri.vertex_link_vector()))
    family = [(2, pair) for pair in itertools.product(g2, repeat=2)]
    twos = [CurveClass(2, v) for v in admissible_vectors(tri, 10)
            if len(tri.trace(v)) == 2][:60]
    assert len(twos) == 60
    family += [(2, (m, c)) for m in twos for c in g2[:15]]
    g3 = enumerate_essential_curves(3, 6)
    family += [(3, t) for t in itertools.combinations(g3, 3)]
    family += [(1, (CurveClass(1, v),)) for v in [
        (1, 0, 1), (0, 1, 1), (1, 1, 0), (3, 2, 5), (2, 2, 2), (2, 0, 2),
        (3, 3, 2)]]
    assert len(family) == 4276
    return family


def test_cut_system_rank_matches_complement_regions():
    # The complement of pairwise disjoint curves c_1..c_k has 1 + k - r
    # pieces, r their Z/2 homology rank; the region analysis counts them.
    def outcome(check, genus, curves):
        try:
            return ("valid", check(genus, curves).curves)
        except ValueError as exc:
            return (type(exc), str(exc))

    seen = set()
    for genus, curves in cut_system_family():
        got = outcome(validate_cut_system, genus, curves)
        assert got == outcome(reference_validate_cut_system, genus, curves), \
            (genus, curves)
        seen.add(got[0] if got[0] == "valid" else got)
    assert "valid" in seen
    assert (InvalidCutSystem, NOT_DISJOINT) in seen
    assert (InvalidCutSystem, "cut complement has 2 pieces, expected 1") in seen
    assert (ValueError, "signed crossings need a connected curve") in seen


def test_cut_system_rejects_crossing_curves():
    with pytest.raises(InvalidCutSystem):
        d = standard_diagram(2)
        validate_cut_system(2, [d.red.curves[0], d.blue.curves[0]])


def test_standard_genus2_meridians_give_4_holed_sphere():
    d = standard_diagram(2)
    assert d.red.curves[0].coords != d.red.curves[1].coords
    assert geometric_intersection(*d.red.curves) == 0
    # validate_cut_system already certified connectivity and chi = -2.
    assert isinstance(d.red, CutSystem)


def test_boundary_word_examples():
    d = s3_genus1()
    assert boundary_word(CurveClass.from_slope(1, 0), d.red).letters == ()
    w = boundary_word(CurveClass.from_slope(0, 1), d.red)
    assert len(w) == 1
    w = boundary_word(CurveClass.from_slope(1, 3), d.red)
    assert len(w) == 3
    assert len({s for _, s in w.letters}) == 1      # x^3 up to inversion


def test_word_length_equals_total_intersection():
    d = standard_diagram(2)
    curves = [d.blue.curves[0], d.blue.curves[1], COMMUTATOR_CURVE]
    for c in curves:
        w = boundary_word(c, d.red)
        total = sum(geometric_intersection(c, z) for z in d.red.curves)
        assert len(w) == total


def test_bounds_disk_examples():
    d = s3_genus1()
    assert bounds_disk(CurveClass.from_slope(1, 0), "red", d)
    assert not bounds_disk(CurveClass.from_slope(0, 1), "red", d)
    assert bounds_disk(CurveClass.from_slope(0, 1), "blue", d)


def test_genus2_disk_test_with_oracle():
    d = standard_diagram(2)
    for z in d.red.curves:
        w = boundary_word(z, d.red)
        assert not oracle_reduce(list(w.letters))
        assert bounds_disk(z, "red", d)
    w = boundary_word(COMMUTATOR_CURVE, d.red)
    reduced = oracle_reduce(list(w.letters))
    assert len(reduced) == 4
    assert not bounds_disk(COMMUTATOR_CURVE, "red", d)


def test_commutator_word_shape():
    d = standard_diagram(2)
    w = boundary_word(COMMUTATOR_CURVE, d.red).reduced()
    gens = [g for g, _ in w.letters]
    signs = {}
    for g, s in w.letters:
        signs.setdefault(g, []).append(s)
    assert sorted(gens) == [1, 1, 2, 2]
    assert all(sorted(v) == [-1, 1] for v in signs.values())
    assert gens[0] != gens[1]           # alternating pattern x y x' y'


def test_enumerate_disk_boundaries_table():
    assert [c.slope().p for c in
            enumerate_disk_boundaries(s3_genus1(), "red", 12)] == [1]
    got = enumerate_disk_boundaries(lens_space(2, 1), "blue", 12)
    assert [(c.slope().p, c.slope().q) for c in got] == [(1, 2)]
    got = enumerate_disk_boundaries(s2_x_s1(), "blue", 12)
    assert [(c.slope().p, c.slope().q) for c in got] == [(1, 0)]


def test_enumerate_includes_cut_curves_beyond_cap():
    d = lens_space(7, 1)                 # blue meridian (1, 7), weight 14
    got = enumerate_disk_boundaries(d, "blue", 12)
    assert [(c.slope().p, c.slope().q) for c in got] == [(1, 7)]


def test_enumerate_complete_within_cap():
    # Exhaustive re-scan at the cap: nothing that bounds is missing.
    from heegaard_lab.surface import enumerate_essential_curves
    d = standard_diagram(2)
    got = {c.coords for c in enumerate_disk_boundaries(d, "red", 6)}
    for c in enumerate_essential_curves(2, 6):
        if bounds_disk(c, "red", d):
            assert c.coords in got


def test_cut_curves_bound_their_own_side():
    for d in (s3_genus1(), lens_space(3, 1), standard_diagram(2)):
        for side in ("red", "blue"):
            for z in d.side(side).curves:
                assert bounds_disk(z, side, d)


def test_bounds_disk_certificate_matches_word_reduction():
    # The exponent-sum shortcut may only ever reject curves whose boundary
    # word would not have reduced to the empty word anyway.
    from test_disk_complex import critical_witness_diagram
    from heegaard_lab.surface import enumerate_essential_curves
    curves = enumerate_essential_curves(2, 8)
    rejected = 0
    for d in (critical_witness_diagram(), standard_diagram(2)):
        for side in ("red", "blue"):
            cut = d.side(side)
            for c in curves + list(cut.curves):
                want = boundary_word(c, cut).is_trivial()
                assert bounds_disk(c, side, d) == want, (c, side)
                rejected += any(algebraic_intersection(c, z)
                                for z in cut.curves)
    assert rejected > 0


@pytest.mark.parametrize("genus, cap, checks, disks", [
    (2, 16, 1460, 33),
    (3, 10, 144, 26),
])
def test_bounds_disk_without_minimal_position_matches_minimal_word(
        genus, cap, checks, disks):
    # bounds_disk reads its word off the curve as first drawn; the word read
    # in minimal position is the reference.
    from test_disk_complex import critical_witness_diagram
    curves = enumerate_essential_curves(genus, cap)
    diagrams = ([standard_diagram(2), critical_witness_diagram()]
                if genus == 2 else [standard_diagram(3)])
    verdicts = []
    for d in diagrams:
        for side in ("red", "blue"):
            cut = d.side(side)
            for c in curves + list(cut.curves):
                want = boundary_word(c, cut).is_trivial()
                assert bounds_disk(c, side, d) == want, (c.coords, side)
                verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (checks, disks)


@pytest.mark.parametrize("family, genus, cap, checks", [
    ("torus", 1, 16, 402),
    ("genus2", 2, 14, 820),
    ("genus3", 3, 9, 106),
    ("twisted", 2, 14, 410),
])
def test_word_table_matches_token_arrangement(family, genus, cap, checks):
    # The first-drawn word joined from the cut system's word table is the
    # word the token arrangement reads off the curve, letter for letter.
    from test_disk_complex import critical_witness_diagram
    diagrams = {
        "torus": lambda: [s3_genus1(), lens_space(7, 2), s2_x_s1()],
        "genus2": lambda: [standard_diagram(2), critical_witness_diagram()],
        "genus3": lambda: [standard_diagram(3)],
        "twisted": lambda: [twisted_diagram()],
    }[family]()
    tri = canonical_triangulation(genus)
    curves = enumerate_essential_curves(genus, cap)
    n = 0
    for d in diagrams:
        for side in ("red", "blue"):
            cut = d.side(side)
            for c in curves + list(cut.curves):
                want = tuple((i + 1, s) for i, s in reference_first_drawn_word(
                    tri, c.coords, cut.vectors))
                got = boundary_word(c, cut, minimal=False).letters
                assert got == want, (c.coords, side)
                n += 1
    assert n == checks


@pytest.mark.parametrize("genus, vectors", [
    (1, [(2, 0, 2)]),
    (1, [(3, 3, 2)]),
    (2, [(0, 1, 0, 0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0, 0)]),
])
def test_boundary_word_refuses_a_system_not_disjoint_as_given(genus,
                                                              vectors):
    # The cut systems are built unchecked: two parallel torus slopes in one
    # vector, a slope plus a vertex link, and two genus-2 meridians that
    # meet.
    cut = CutSystem(ModelSurface(genus),
                    tuple(CurveClass(genus, v) for v in vectors))
    c = enumerate_essential_curves(genus, 4)[1]
    message = ("system components do not match the given curve vectors; "
               "the system is not realizable disjointly as given")
    for minimal in (True, False):
        with pytest.raises(ValueError) as info:
            boundary_word(c, cut, minimal=minimal)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        reference_first_drawn_word(canonical_triangulation(genus), c.coords,
                                   cut.vectors)
    assert str(info.value) == message


def test_boundary_word_refuses_a_multicurve():
    # Two parallel copies of a red meridian, and a two-component vector
    # whose minimal-position word would blame the cut system.
    d = standard_diagram(2)
    for coords in [(0, 0, 0, 2, 0, 0, 0, 0, 2), (0, 0, 2, 0, 0, 0, 0, 2, 2)]:
        for minimal in (True, False):
            with pytest.raises(ValueError) as info:
                boundary_word(CurveClass(2, coords), d.red, minimal=minimal)
            assert str(info.value) == "signed crossings need a connected curve"


def test_bounds_disk_builds_no_arrangement(monkeypatch):
    diagrams = [standard_diagram(2), twisted_diagram()]
    curves = enumerate_essential_curves(2, 10)
    built = []
    init = arrangement.Arrangement.__init__
    monkeypatch.setattr(arrangement.Arrangement, "__init__",
                        lambda self, *args: built.append(args) or init(
                            self, *args))
    disks = sum(bounds_disk(c, side, d) for d in diagrams
                for side in ("red", "blue") for c in curves)
    assert (built, disks) == ([], 16)
    boundary_word(curves[0], diagrams[0].red)
    assert len(built) == 1


def test_torus_bounds_disk_matches_word_reduction():
    # At genus 1 a zero exponent sum decides the disk test outright; the
    # boundary word is the reference.
    from heegaard_lab.surface import enumerate_essential_curves
    curves = enumerate_essential_curves(1, 16)
    for d in (s3_genus1(), lens_space(7, 2), s2_x_s1()):
        for side in ("red", "blue"):
            cut = d.side(side)
            for c in curves + list(cut.curves):
                want = boundary_word(c, cut).is_trivial()
                assert bounds_disk(c, side, d) == want, (c, side)


# sha256 of the boundary word of every class of
# enumerate_essential_curves(2, 10) against both sides of the standard
# genus-2 diagram and of the twisted diagram of demos/05.  A two-curve cut
# system is a B side with two components: one that loses all its crossings
# in minimization gives no letters, and the order of crossings along each
# link decides the letters.
GOLDEN_BOUNDARY_WORDS_SHA256 = (
    "fd0d6c02e7c397451fcb92e592c5b3f75a6bb82395e8369a83bfa343a234d9e5")


def twisted_diagram():
    """The twisted genus-2 diagram of demos/05."""
    tri = canonical_triangulation(2)

    def small(name):
        e = tri.edge_index(name)
        return CurveClass(2, min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                                 key=lambda v: (sum(v), v)))

    return HeegaardDiagram(
        ModelSurface(2),
        validate_cut_system(2, [small("a1"), small("a2")]),
        validate_cut_system(2, [CurveClass(2, (1, 0, 2, 1, 1, 2, 2, 2, 1)),
                                CurveClass(2, (2, 1, 1, 1, 1, 1, 2, 1, 0))]))


def test_boundary_words_golden():
    import hashlib
    curves = enumerate_essential_curves(2, 10)
    lines = [f"{c.coords} {boundary_word(c, d.side(side)).letters}"
             for d in (standard_diagram(2), twisted_diagram())
             for side in ("red", "blue")
             for c in curves]
    assert len(lines) == 208
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_BOUNDARY_WORDS_SHA256
