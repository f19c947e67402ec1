import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from heegaard_lab.ghs import (
    GHS,
    CompressionDescriptor,
    Destabilization,
    InvalidGHS,
    InvalidMove,
    MoveReport,
    WeakReduction,
    _descriptors,
    _moves_with_reports,
    _one_compression_apart,
    _one_step_compressions,
    apply_move,
    apply_move_report,
    compare_collections,
    compare_ghs,
    complexity,
    compress,
    enumerate_moves,
    ghs_key,
    stabilize,
    validate_ghs,
)
from heegaard_lab.proptools import (
    check_commutation,
    check_move_monotonicity,
    random_ghs,
)
from heegaard_lab.serialize import (
    dumps,
    ghs_to_jsonable,
    move_from_jsonable,
    move_to_jsonable,
)
from heegaard_lab.sog import SymbolicBudget, SymbolicOracle

from reference import (
    reference_apply_move_report,
    reference_moves_with_reports,
    reference_validate_ghs,
)


def nonsep(side, g):
    return CompressionDescriptor(side, g, ("nonsep",))


def test_complexity_examples():
    assert complexity([1]) == 4
    assert complexity([3]) == 36
    assert complexity([2, 2]) == 32
    assert complexity([]) == 0
    assert complexity([0, 0]) == 0
    for g in range(11):
        assert complexity([g]) == 4 * g * g


def test_compare_collections():
    assert compare_collections([3], [2, 2]) == "greater"
    assert compare_collections([1], [1]) == "equal"
    assert compare_collections([], [1]) == "less"


def test_ghs_key_examples():
    assert ghs_key(GHS.closed_splitting(3)) == [36]
    g = GHS.of([[], [2], [1], [2], []])
    assert ghs_key(g) == [16, 16]
    assert compare_ghs(g, GHS.closed_splitting(3)) == "less"
    assert compare_ghs(g, g) == "equal"
    assert [16, 16] < [36]


def test_key_is_multiset_of_thick_levels():
    a = GHS.of([[], [2, 1], []])
    b = GHS.of([[], [1, 2], []])
    assert a.levels == b.levels             # collections are multisets
    assert ghs_key(a) == ghs_key(b)


def test_compress_examples():
    assert compress([3], nonsep("down", 3)) == (2,)
    assert compress([3], CompressionDescriptor("down", 3, ("sep", 1, 2))) \
        == (2, 1)
    with pytest.raises(InvalidMove):
        nonsep("down", 0)
    with pytest.raises(InvalidMove):
        compress([2], CompressionDescriptor("down", 3, ("sep", 1, 2)))
    with pytest.raises(InvalidMove):
        CompressionDescriptor("down", 3, ("sep", 1, 1))


def test_descriptor_of_an_unknown_kind_is_refused():
    with pytest.raises(InvalidMove) as exc:
        CompressionDescriptor("down", 2, ("weird",))
    assert str(exc.value) == "descriptor kind ('weird',)"


def test_separating_zero_part_allowed_in_type_rejected_in_moves():
    d = CompressionDescriptor("down", 2, ("sep", 0, 2))
    assert compress([2], d) == (2, 0)
    move = WeakReduction(1, d, nonsep("up", 2), (1,))
    with pytest.raises(InvalidMove):
        apply_move(GHS.closed_splitting(2), move)


GOLDEN_CASES = [
    # (name, input levels, move, expected levels, expected case)
    ("1a", [[], [3], []],
     WeakReduction(1, nonsep("down", 3), nonsep("up", 3), (1,)),
     [[], [2], [1], [2], []], "1a"),
    ("1b", [[], [1], [1], [2], []],
     WeakReduction(3, nonsep("down", 2), nonsep("up", 2), (0,)),
     [[], [1, 1], []], "1b"),
    ("1c", [[], [2], [1], [1], []],
     WeakReduction(1, nonsep("down", 2), nonsep("up", 2), (0,)),
     [[], [1, 1], []], "1c"),
    ("1d", [[], [1], [1], [2], [1], [1], []],
     WeakReduction(3, nonsep("down", 2), nonsep("up", 2), (0,)),
     [[], [1, 1], []], "1d"),
    ("2a", [[], [2], []], Destabilization(1, 2), [[], [1], []], "2a"),
    ("2b", [[], [1], [1], [2], []], Destabilization(3, 2),
     [[], [1], []], "2b"),
    ("2c", [[], [2], [1], [1], []], Destabilization(1, 2),
     [[], [1], []], "2c"),
    ("2d", [[], [1], [1], [2], [1], [1], []], Destabilization(3, 2, "right"),
     [[], [1], [1], [1], []], "2d"),
]

GOLDEN_JSON = {
    "1a": '{"boundary":[true,true],"levels":[[],[2],[1],[2],[]]}\n',
    "1b": '{"boundary":[true,true],"levels":[[],[1,1],[]]}\n',
    "1c": '{"boundary":[true,true],"levels":[[],[1,1],[]]}\n',
    "1d": '{"boundary":[true,true],"levels":[[],[1,1],[]]}\n',
    "2a": '{"boundary":[true,true],"levels":[[],[1],[]]}\n',
    "2b": '{"boundary":[true,true],"levels":[[],[1],[]]}\n',
    "2c": '{"boundary":[true,true],"levels":[[],[1],[]]}\n',
    "2d": '{"boundary":[true,true],"levels":[[],[1],[1],[1],[]]}\n',
}


@pytest.mark.parametrize("name,levels,move,want,case",
                         GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_case_matrix(name, levels, move, want, case):
    g = GHS.of(levels)
    report = apply_move_report(g, move)
    assert report.case == case
    assert report.result.levels == GHS.of(want).levels
    assert dumps(ghs_to_jsonable(report.result)) == GOLDEN_JSON[name]
    assert compare_ghs(report.result, g) == "less"


def test_case_2d_left_choice():
    g = GHS.of([[], [1], [1], [2], [1], [1], []])
    right = apply_move_report(g, Destabilization(3, 2, "right"))
    left = apply_move_report(g, Destabilization(3, 2, "left"))
    assert right.case == left.case == "2d"
    assert right.result.levels == left.result.levels == ((), (1,), (1,), (1,), ())


def test_sphere_and_merge_normalization():
    # 1b produces an interior sphere and an empty thin level; both normalize.
    g = GHS.of([[], [1], [1], [2], []])
    move = WeakReduction(3, nonsep("down", 2), nonsep("up", 2), (0,))
    report = apply_move_report(g, move)
    assert report.merged
    assert report.result.levels == ((), (1, 1), ())


def test_stabilize_examples():
    g1 = GHS.closed_splitting(1)
    g2 = stabilize(g1, 1, 1)
    assert g2.levels == ((), (2,), ())
    back = apply_move(g2, Destabilization(1, 2))
    assert ghs_key(back) == ghs_key(g1)
    assert stabilize(stabilize(g1, 1, 1), 1, 2).levels == ((), (3,), ())
    with pytest.raises(InvalidMove):
        stabilize(g1, 2, 1)
    with pytest.raises(InvalidMove):
        stabilize(g1, 1, 5)


def test_validate_examples():
    assert validate_ghs(GHS.closed_splitting(1)) == []
    errs = validate_ghs(GHS(((), (), ())))
    assert any("thick level 1 is empty" in e for e in errs)
    errs = validate_ghs(GHS(((), (1,), (0,), (1,), ())))
    assert any("2-sphere" in e for e in errs)
    errs = validate_ghs(GHS(((), (1,))))
    assert errs
    with pytest.raises(InvalidGHS):
        GHS.of([[], [], []])


def random_levels(rng):
    """0 to 7 levels of 0 to 3 genera each, drawn so that every fault
    `validate_ghs` names shows up: negative genera, zeros, empty levels,
    unsorted levels and an even level count."""
    levels = []
    for _ in range(rng.randint(0, 7)):
        level = [rng.choice((-1, 0, 0, 1, 2, 3))
                 for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.7:
            level.sort(reverse=True)
        levels.append(tuple(level))
    return tuple(levels)


FAULTS = ("not an odd number", "negative genus", "not sorted",
          "thick level", "interior thin level", "2-sphere")


def test_validate_ghs_matches_reference():
    # The per-level memo must give today's messages, in today's order, for
    # valid and invalid level tuples alike, also when a level is met again.
    rng = random.Random(23)
    seen = set()
    for k in range(4000):
        g = random_ghs(rng) if k % 4 == 0 else GHS(random_levels(rng))
        want = reference_validate_ghs(g)
        assert validate_ghs(g) == want, g.levels
        assert validate_ghs(g) == want, g.levels
        seen.update(fault for message in want for fault in FAULTS
                    if fault in message)
        seen.add("invalid" if want else "valid")
    assert seen == {*FAULTS, "valid", "invalid"}, seen


def test_ghs_key_is_a_fresh_list_and_not_a_field():
    a = GHS.of([[], [2], [1], [3], []])
    key = ghs_key(a)
    key.append(99)
    assert ghs_key(a) == [36, 16]
    b = GHS.of([[], [2], [1], [3], []])
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert compare_ghs(a, b) == "equal"


def test_boundary_protection():
    bounded = GHS.of([[1], [2], [1]])
    # F_D = [1] = lower boundary: case 2b would delete it.
    with pytest.raises(InvalidMove):
        apply_move(bounded, Destabilization(1, 2))


def test_destabilize_genus1_closed_is_invalid():
    with pytest.raises(InvalidMove):
        apply_move(GHS.closed_splitting(1), Destabilization(1, 1))


@pytest.mark.parametrize("apply", [apply_move, apply_move_report])
@pytest.mark.parametrize("move", ["x", None, (1, 2)])
def test_unknown_move_rejected(apply, move):
    with pytest.raises(InvalidMove) as exc:
        apply(GHS.closed_splitting(3), move)
    assert exc.value.args == (f"unknown move {move!r}",)


def test_weak_reduction_needs_consistent_fde():
    g = GHS.closed_splitting(3)
    with pytest.raises(InvalidMove):
        apply_move(g, WeakReduction(1, nonsep("down", 3), nonsep("up", 3),
                                    (2, 2)))


def test_weak_reduction_at_genus_10_to_the_12():
    # Consistency of F_DE is read off the multiset difference, so the work
    # does not grow with the genus.
    big = 10 ** 12
    g = GHS.closed_splitting(big)
    report = apply_move_report(g, WeakReduction(
        1, nonsep("down", big), nonsep("up", big), (big - 2,)))
    assert report.case == "1a"
    assert report.result.levels == ((), (big - 1,), (big - 2,), (big - 1,), ())
    assert ghs_key(report.result) == [4 * (big - 1) ** 2] * 2
    sep = CompressionDescriptor("down", big, ("sep", 1, big - 1))
    result = apply_move(g, WeakReduction(1, sep, nonsep("up", big),
                                         (big - 2, 1)))
    assert result.levels == ((), (big - 1, 1), (big - 2, 1), (big - 1,), ())
    assert ghs_key(result) == [4 * (big - 1) ** 2 + 4,
                               4 * (big - 1) ** 2]
    with pytest.raises(InvalidMove, match="not one compression away"):
        apply_move(g, WeakReduction(1, nonsep("down", big),
                                    nonsep("up", big), (big - 3,)))


def test_one_compression_apart_matches_enumeration():
    # Every pair of collections of total genus <= 8, each with up to two
    # spheres, since a compression of a torus leaves one.
    positive = [c for k in range(9) for c in
                itertools.combinations_with_replacement(range(8, 0, -1), k)
                if sum(c) <= 8]
    colls = [c + (0,) * zeros for c in positive for zeros in range(3)]
    apart = 0
    for a in colls:
        reach = _one_step_compressions(a)
        for b in colls:
            assert _one_compression_apart(a, b) == (b in reach), (a, b)
            apart += b in reach
    assert apart == 642, apart


def test_move_monotonicity_seeded():
    report = check_move_monotonicity(random.Random(101), 300)
    assert report.passed, report.failures[:3]


def test_commutation_seeded():
    report = check_commutation(random.Random(7), 120)
    assert report.passed, report.failures[:3]


def test_commutation_spec_shape():
    # Two weak reductions at distinct thick indices of a long GHS.
    g = GHS.of([[], [3], [1], [3], []])
    m1 = WeakReduction(1, nonsep("down", 3), nonsep("up", 3), (1,))
    m3 = WeakReduction(3, nonsep("down", 3), nonsep("up", 3), (1,))
    r1 = apply_move_report(g, m1)
    m3_shift = WeakReduction(3 + r1.level_delta, nonsep("down", 3),
                             nonsep("up", 3), (1,))
    a = apply_move(r1.result, m3_shift)
    r3 = apply_move_report(g, m3)
    b = apply_move(r3.result, m1)
    assert a.levels == b.levels


def test_move_json_roundtrip():
    from heegaard_lab.serialize import move_to_jsonable
    for _, _, move, _, _ in GOLDEN_CASES:
        assert move_from_jsonable(move_to_jsonable(move)) == move
    # Every move from GHSs with a thick component of genus >= 2, through the
    # text of the wire format; a separating compression is ["sep", g1, g2].
    sep = []
    for levels in ([[], [2], []], [[], [4], []], [[], [2, 2], []],
                   [[], [3], [1], [3], []]):
        for move in enumerate_moves(GHS.of(levels)):
            data = json.loads(dumps(move_to_jsonable(move)))
            assert move_from_jsonable(data) == move
            if isinstance(move, WeakReduction):
                sep += [d.kind for d in (move.d, move.e)
                        if d.kind[0] == "sep"]
    assert {("sep", 1, 1), ("sep", 1, 2), ("sep", 1, 3), ("sep", 2, 2)} \
        == set(sep)


def test_random_ghs_always_valid():
    rng = random.Random(2)
    for _ in range(100):
        g = random_ghs(rng)
        assert validate_ghs(g) == []


def test_move_on_unsorted_raw_ghs_is_rejected():
    # GHS(...) does not sort its levels; a move keeps them as they are, so
    # the unsorted level of the result is reported, not repaired.
    raw = GHS(((), (2,), (1,), (1, 3), ()))
    with pytest.raises(InvalidMove) as info:
        apply_move(raw, Destabilization(1, 2))
    assert str(info.value) == ("move yields an invalid GHS: "
                               "level 1 is not sorted non-increasing")


# ---------------------------------------------------------------------------
# Enumerated moves carry the report they were checked with
# ---------------------------------------------------------------------------


def outcome(g, m):
    try:
        return apply_move_report(g, m)
    except InvalidMove as exc:
        return str(exc)


def test_enumerated_move_carries_its_checked_report():
    # A fresh copy carries no report, so applying it checks the move again.
    rng = random.Random(31)
    ghss = [random_ghs(rng) for _ in range(500)]
    moves = 0
    for g in ghss:
        for m, report in _moves_with_reports(g):
            fresh = dataclasses.replace(m)
            assert apply_move_report(g, m) is report
            assert apply_move_report(g, fresh) == report
            assert apply_move_report(GHS(g.levels), m) is report
            moves += 1
    assert moves > 5000, moves


def test_enumerated_move_is_its_fresh_copy():
    rng = random.Random(37)
    for _ in range(100):
        for m in enumerate_moves(random_ghs(rng)):
            fresh = dataclasses.replace(m)
            assert m == fresh and hash(m) == hash(fresh)
            assert repr(m) == repr(fresh)
            assert move_to_jsonable(m) == move_to_jsonable(fresh)


def test_enumerated_move_on_another_ghs_is_checked_there():
    # Applied to a GHS other than its own, the move is derived again: the
    # same result as its fresh copy, or the same refusal.
    rng = random.Random(41)
    ghss = [random_ghs(rng) for _ in range(200)]
    applied = refused = 0
    for g, other in zip(ghss, ghss[1:]):
        for m in enumerate_moves(g):
            got = outcome(other, m)
            assert got == outcome(other, dataclasses.replace(m)), (g, other, m)
            if isinstance(got, str):
                refused += 1
            else:
                applied += 1
    assert applied > 100 and refused > 100, (applied, refused)


# ---------------------------------------------------------------------------
# Every candidate move's outcome, refusals included
# ---------------------------------------------------------------------------

# GHSs whose boundary equals a compression of the thick level next to it,
# so that each case tries to cancel into a boundary collection.
BOUNDARY_GHSS = [
    [[1], [2], [1]],
    [[1], [2], []],
    [[], [2], [1]],
    [[2], [3], [2]],
    [[1], [2], [1], [2], [1]],
    [[2], [3], [2], [3], [2]],
]


def candidate_moves(g):
    """Each destabilization of a genus of a thick level, or of genus 0 or 9,
    with both `remove` sides; each weak reduction with a down and an up
    descriptor of the level and F_DE one compression from F_D or F_E, or
    F_D or F_E itself.  A move its own constructor refuses is its message."""
    for t in g.thick_indices():
        f_t = g.levels[t]
        for genus in sorted(set(f_t) | {0, 9}):
            for remove in ("right", "left"):
                try:
                    yield Destabilization(t, genus, remove)
                except InvalidMove as exc:
                    yield str(exc)
        for d in _descriptors(f_t, "down"):
            f_d = compress(f_t, d)
            for e in _descriptors(f_t, "up"):
                f_e = compress(f_t, e)
                for f_de in sorted(_one_step_compressions(f_d)
                                   | _one_step_compressions(f_e)
                                   | {f_d, f_e}):
                    yield WeakReduction(t, d, e, f_de)


def candidate_outcomes():
    rng = random.Random(5)
    ghss = ([random_ghs(rng) for _ in range(400)]
            + [GHS.of(levels) for levels in BOUNDARY_GHSS])
    for g in ghss:
        for m in candidate_moves(g):
            if isinstance(m, str):
                yield f"{g}: {m}"
                continue
            got = outcome(g, m)
            if not isinstance(got, str):
                got = (f"{got.result} {got.case} {got.merged} "
                       f"{got.level_delta}")
            yield f"{g} {m}: {got}"


REFUSALS = (
    "case 1b would rewrite the lower boundary",
    "case 1c would rewrite the upper boundary",
    "case 1d would rewrite a boundary collection",
    "case 2b would delete the lower boundary",
    "case 2c would delete the upper boundary",
    "case 2d (right) would delete the upper boundary",
    "case 2d (left) would delete the lower boundary",
)


def test_every_candidate_move_outcome_is_pinned():
    # Pins every result, case and refusal message.  The lines are hashed as
    # they come, so the suite's memory stays small.
    digest, count, refusals = hashlib.sha256(), 0, set()
    for line in candidate_outcomes():
        digest.update((("\n" if count else "") + line).encode())
        count += 1
        refusals.update(r for r in REFUSALS if line.endswith(": " + r))
    assert refusals == set(REFUSALS)
    assert (count, digest.hexdigest()) == GOLDEN_CANDIDATES


GOLDEN_CANDIDATES = (
    32198, "5839dd7be1519875a419335935027327861952496863c9ad3dfe1d2f7f1dca4d")


# ---------------------------------------------------------------------------
# The per-collection move table against the descriptor-pair loop
# ---------------------------------------------------------------------------


def move_listing(moves_with_reports, g, within=None):
    """The ordered (move, report) pairs, in repr too so that the bytes are
    compared, or the type and message of the error the listing raised: a
    raw GHS with a negative genus or an even number of levels."""
    try:
        return [(m, repr(m), r, repr(r))
                for m, r in moves_with_reports(g, within)]
    except (InvalidGHS, IndexError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_moves(g, withins=()):
    want = move_listing(reference_moves_with_reports, g)
    assert move_listing(_moves_with_reports, g) == want, g
    if isinstance(want, list):
        # Every other result, so that `within` drops some moves and keeps
        # others, and the GHS itself, which no move reaches.
        kept = [r.result for _, _, r, _ in want[::2]] + [g]
        withins = ({h.levels: h for h in kept}, *withins)
    for within in withins:
        assert move_listing(_moves_with_reports, g, within) == \
            move_listing(reference_moves_with_reports, g, within), g
    return want


def raw_invalid_ghss(rng):
    """Raw GHS(...) values, each a valid random GHS with one fault: a
    2-sphere in an interior level, an empty interior thin level, an empty
    thick level or an unsorted level."""
    while True:
        g = random_ghs(rng)
        levels = list(g.levels)
        fault = rng.choice(["sphere", "thin", "thick", "unsorted"])
        if fault == "sphere":
            i = rng.randrange(1, len(levels) - 1)
            levels[i] = tuple(sorted(levels[i] + (0,), reverse=True))
        elif fault == "thin" and len(levels) > 3:
            levels[rng.randrange(2, len(levels) - 2, 2)] = ()
        elif fault == "thick":
            levels[rng.randrange(1, len(levels) - 1, 2)] = ()
        elif fault == "unsorted":
            i = rng.randrange(1, len(levels) - 1)
            levels[i] = levels[i] + (max(levels[i]) + 1,)
        else:
            continue
        yield fault, GHS(tuple(levels))


def test_move_table_matches_descriptor_pair_loop_on_random_ghss():
    rng = random.Random(43)
    moves = 0
    for _ in range(3000):
        moves += len(assert_same_moves(random_ghs(rng)))
    assert moves > 50000, moves


def test_move_table_matches_descriptor_pair_loop_on_invalid_ghss():
    # An invalid input is checked move by move, as `apply_move` checks it;
    # each fault must leave some inputs with moves and some without.
    rng = random.Random(47)
    seen = set()
    for fault, g in itertools.islice(raw_invalid_ghss(rng), 1200):
        assert validate_ghs(g)
        seen.add((fault, bool(assert_same_moves(g))))
    assert seen == {(fault, has) for fault in
                    ("sphere", "thin", "thick", "unsorted")
                    for has in (False, True)}
    # A negative genus or an even level count raises in both listings, with
    # the same error; a lone empty thick level has no moves.
    for levels in [((), (2, -1), ()), ((), (3,)), ((), (3,), (), (2,)),
                   ((), (), ()), ((1,), (2,), (1,), (2,))]:
        assert_same_moves(GHS(levels))
    assert move_listing(_moves_with_reports, GHS(((), (2, -1), ()))) == \
        ("InvalidGHS", "negative genus")


def test_apply_move_matches_reference_on_invalid_ghss():
    # Every candidate move on raw GHS(...) values with each fault gets the
    # report, or the refusal message, of `reference_apply_move_report`,
    # which normalizes and validates every result in full.
    rng = random.Random(53)
    faults, outcomes = set(), set()
    for fault, g in itertools.islice(raw_invalid_ghss(rng), 300):
        faults.add(fault)
        for m in candidate_moves(g):
            if isinstance(m, str):
                continue
            got = outcome(g, m)
            try:
                want = reference_apply_move_report(g, m)
            except InvalidMove as exc:
                want = str(exc)
            assert got == want, (g, m)
            if not isinstance(got, str):
                assert repr(got) == repr(want), (g, m)
            outcomes.add(type(got))
    assert faults == {"sphere", "thin", "thick", "unsorted"}
    assert outcomes == {str, MoveReport}


@pytest.mark.parametrize("boundary", [((), ()), ((1,), (1,)), ((2,), ()),
                                      ((1, 1), (2,))])
def test_move_table_matches_descriptor_pair_loop_on_oracle_states(boundary):
    for max_levels in (5, 7):
        for total in range(1, 8):
            states = SymbolicOracle(SymbolicBudget(total, max_levels),
                                    boundary).nodes()
            by_levels = {g.levels: g for g in states}
            for g in states:
                assert_same_moves(g, (by_levels,))
