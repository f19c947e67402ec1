import ast
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

import heegaard_lab
from heegaard_lab import serialize
from heegaard_lab.disk_complex import DistanceResult, splitting_distance
from heegaard_lab.errors import InputError
from heegaard_lab.ghs import (
    GHS,
    Destabilization,
    InvalidGHS,
    _moves_with_reports,
    apply_move,
    apply_move_report,
    collection,
    enumerate_moves,
    ghs_key,
    validate_ghs,
)
from heegaard_lab.handlebody import s3_genus1, standard_diagram
from heegaard_lab.proptools import random_ghs
from heegaard_lab.sog import (
    SOG,
    FlattenBudgetExhausted,
    InvalidSOG,
    InventoryOracle,
    MoveGraph,
    OracleEdge,
    SOGStep,
    SymbolicBudget,
    SymbolicOracle,
    compare_sogs,
    flatten,
    max_key,
    maximal_positions,
    minimal_positions,
    verify_single_maximal,
)
from heegaard_lab.surface import CurveClass

from reference import (
    reference_flatten,
    reference_symbolic_edges,
    reference_symbolic_states,
)


def destab(g):
    return Destabilization(1, g)


def test_replay_soundness():
    P, R, Q = (GHS.closed_splitting(g) for g in (2, 3, 2))
    good = SOG.of([P, R, Q], [SOGStep(1, destab(3)), SOGStep(1, destab(3))])
    assert len(good) == 3
    with pytest.raises(InvalidSOG):
        SOG.of([P, R, Q], [SOGStep(1, destab(3)), SOGStep(1, destab(2))])
    with pytest.raises(InvalidSOG):
        SOG.of([P, R], [SOGStep(0, destab(2))])   # wrong direction source
    with pytest.raises(InvalidSOG):
        SOG.of([P, R, Q], [SOGStep(1, destab(3))])


def test_sog_rejects_a_ghs_built_without_validation():
    # The bare constructor skips the checks `GHS.of` makes; `SOG.of` makes
    # them again.
    with pytest.raises(InvalidSOG) as exc:
        SOG.of([GHS(((), (0,), ()))], [])
    assert str(exc.value) == \
        "invalid GHS in sequence: interior level 1 has a 2-sphere component"


def test_positions_shapes():
    P, R, Q = (GHS.closed_splitting(g) for g in (2, 3, 2))
    lam = SOG.of([P, R, Q], [SOGStep(1, destab(3)), SOGStep(1, destab(3))])
    assert maximal_positions(lam) == [1]
    assert minimal_positions(lam) == [0, 2]
    A, B, C = (GHS.closed_splitting(g) for g in (3, 2, 3))
    vee = SOG.of([A, B, C], [SOGStep(0, destab(3)), SOGStep(2, destab(3))])
    assert maximal_positions(vee) == [0, 2]
    assert minimal_positions(vee) == [1]
    single = SOG.of([A], [])
    assert maximal_positions(single) == [0]
    assert minimal_positions(single) == [0]


def test_w_shape_and_single_maximal():
    g4, g3 = GHS.closed_splitting(4), GHS.closed_splitting(3)
    w = SOG.of([g4, g3, g4, g3, g4],
               [SOGStep(0, destab(4)), SOGStep(2, destab(4)),
                SOGStep(2, destab(4)), SOGStep(4, destab(4))])
    assert maximal_positions(w) == [0, 2, 4]
    assert not verify_single_maximal(w)


def test_max_key_examples():
    P, R, Q = (GHS.closed_splitting(g) for g in (2, 3, 2))
    lam = SOG.of([P, R, Q], [SOGStep(1, destab(3)), SOGStep(1, destab(3))])
    assert max_key(lam) == ((36,),)
    # MaxKeys [[36]] vs [[16,16],[16,16]]: the second is smaller.
    assert ((16, 16), (16, 16)) < ((36,),)
    assert compare_sogs(lam, lam) == "equal"


def test_descending_run_keys_strictly_decrease():
    o = InventoryOracle({2: ["P", "Q"], 3: ["R"], 4: ["T"]},
                        {"P": "R", "Q": "R", "R": "T"})
    sog = flatten("T", "Q", o)
    for k, step in enumerate(sog.steps):
        hi, lo = (k, k + 1) if step.src == k else (k + 1, k)
        assert ghs_key(sog.ghss[hi]) > ghs_key(sog.ghss[lo])


def test_flatten_inventory_examples():
    o1 = InventoryOracle({2: ["P", "Q"], 3: ["R"]}, {"P": "R", "Q": "R"})
    sog = flatten("P", "Q", o1)
    assert sog.labels == ("P", "R", "Q")
    assert max_key(sog) == ((36,),)
    assert verify_single_maximal(sog)

    o2 = InventoryOracle({2: ["P", "Q"], 3: ["R", "S"], 4: ["T"]},
                         {"P": "R", "Q": "S", "R": "T", "S": "T"})
    sog2 = flatten("P", "Q", o2)
    assert max_key(sog2) == ((64,),)
    assert verify_single_maximal(sog2)
    assert sog2.labels == ("P", "R", "T", "S", "Q")


def test_flatten_identity():
    o1 = InventoryOracle({2: ["P", "Q"], 3: ["R"]}, {"P": "R", "Q": "R"})
    sog = flatten("P", "P", o1)
    assert sog.labels == ("P",)
    assert max_key(sog) == ((16,),)


def test_flatten_beats_naive_common_stabilization():
    # P and Q join both at genus 3 and, higher up, at genus 4; flattening
    # must come back with the genus-3 peak.
    o = InventoryOracle(
        {2: ["P", "Q"], 3: ["R"], 4: ["T"]},
        {"P": "R", "Q": "R", "R": "T"})
    sog = flatten("P", "Q", o)
    assert max_key(sog) == ((36,),)       # not ((64,),)
    naive = SOG.of(
        [o.ghs_of("P"), o.ghs_of("R"), o.ghs_of("T"),
         o.ghs_of("R"), o.ghs_of("Q")],
        [SOGStep(1, destab(3)), SOGStep(2, destab(4)),
         SOGStep(2, destab(4)), SOGStep(3, destab(3))])
    assert max_key(sog) <= max_key(naive)
    assert compare_sogs(sog, naive) == "less"


def test_inventory_ghss_are_validated_when_built():
    # A genus-0 label has no GHS; the oracle is rejected even when no
    # flatten would reach the label.
    with pytest.raises(InvalidGHS) as exc:
        InventoryOracle({0: ["Z"], 2: ["P", "Q"], 3: ["R"]},
                        {"P": "R", "Q": "R"})
    assert str(exc.value) == "interior level 1 has a 2-sphere component"


@pytest.mark.parametrize("boundary, why", [
    (((1,), (1,)), "case 2d (right) would delete the upper boundary"),
    (((1,), ()), "case 2b would delete the lower boundary"),
])
def test_inventory_edges_are_checked_when_built(boundary, why):
    # Destabilizing b must not delete a boundary collection; the oracle is
    # rejected when built, not when a flatten crosses the edge.
    with pytest.raises(ValueError) as exc:
        InventoryOracle({1: ["a"], 2: ["b"]}, {"a": "b"}, boundary=boundary)
    assert exc.value.args == (f"stabilize(a) = b is not a move: {why}",)
    fine = InventoryOracle({1: ["a"], 2: ["b"]}, {"a": "b"},
                           boundary=((2,), ()))
    assert flatten("b", "a", fine).labels == ("b", "a")


def test_resolve_error_messages():
    inventory = InventoryOracle({2: ["P", "Q"], 3: ["R"]},
                                {"P": "R", "Q": "R"})
    symbolic = SymbolicOracle(SymbolicBudget(3))
    assert inventory.resolve(GHS.closed_splitting(3)) == "R"
    for oracle, x, error, message in [
        (inventory, "X", InputError, "unknown splitting label 'X'"),
        (inventory, GHS.closed_splitting(2), InputError,
         "GHS (-) [2] (-) matches 2 inventory labels; pass the label itself"),
        (inventory, GHS.closed_splitting(5), InputError,
         "GHS (-) [5] (-) matches 0 inventory labels; pass the label itself"),
        (inventory, 5, TypeError, "cannot resolve 5 to an inventory label"),
        (symbolic, "P", TypeError, "symbolic oracle nodes are GHS values"),
        (symbolic, GHS.closed_splitting(9), KeyError,
         "GHS (-) [9] (-) lies outside the budgeted state space"),
    ]:
        with pytest.raises(error) as exc:
            oracle.resolve(x)
        assert exc.value.args == (message,)


def test_ghs_stack_imports_no_curve_module():
    # The GHS calculus and flattening stand apart from the curve stack.
    curve_modules = {"surface", "arrangement", "handlebody", "disk_complex"}
    package = Path(heegaard_lab.__file__).parent
    for name in ("ghs.py", "sog.py"):
        imported = set()
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported.update(alias.name.split("."))
        assert not imported & curve_modules, (name, imported & curve_modules)


def test_flatten_unreachable():
    o = InventoryOracle({2: ["P", "Q"]}, {})
    with pytest.raises(FlattenBudgetExhausted):
        flatten("P", "Q", o)


def test_flatten_budget_exhaustion():
    o = InventoryOracle({2: ["P", "Q"], 3: ["R"]}, {"P": "R", "Q": "R"})
    with pytest.raises(FlattenBudgetExhausted):
        flatten("P", "Q", o, budget=1)


def test_flatten_on_random_stabilization_trees():
    rng = random.Random(23)
    for _ in range(20):
        labels = {2: ["A0", "B0"]}
        stab = {}
        prev = ["A0", "B0"]
        for level in range(3, 6):
            here = []
            for i, lo in enumerate(prev):
                hi = f"N{level}_{i // 2}" if rng.random() < 0.5 else f"N{level}_{i}"
                stab[lo] = hi
                if hi not in here:
                    here.append(hi)
            labels[level] = here
            prev = here
        if len(prev) > 1:
            top = f"T{rng.randint(0, 99)}"
            labels[6] = [top]
            for lo in prev:
                stab[lo] = top
        oracle = InventoryOracle(labels, stab)
        sog = flatten("A0", "B0", oracle)
        assert verify_single_maximal(sog)


def test_symbolic_oracle_flatten():
    oracle = SymbolicOracle(SymbolicBudget(4, 5))
    start = GHS.closed_splitting(2)
    end = GHS.closed_splitting(1)
    sog = flatten(start, end, oracle)
    assert sog.ghss[0].levels == start.levels
    assert sog.ghss[-1].levels == end.levels
    assert max_key(sog) == ((16,),)       # straight descent, peak at start


def test_symbolic_oracle_contains_weak_reductions():
    oracle = SymbolicOracle(SymbolicBudget(5, 5))
    g3 = GHS.closed_splitting(3)
    thin = GHS.of([[], [2], [1], [2], []])
    edges = oracle.edges_at(g3)
    assert any(e.child == thin for e in edges if e.parent == g3)


def test_splitting_distance_same_edge_and_component():
    d = s3_genus1()
    k10 = CurveClass.from_slope(1, 0).coords
    k01 = CurveClass.from_slope(0, 1).coords
    e = (k10, k01)
    r = splitting_distance(d, e, e, 12)
    assert r == DistanceResult(True, 0, 12)
    with pytest.raises(InputError):
        splitting_distance(d, (k10, k10), e, 12)


def test_splitting_distance_genus2_dual_pairs():
    d = standard_diagram(2)
    g = None
    from heegaard_lab.disk_complex import build_gamma
    g = build_gamma(d, 4)
    ones = sorted(e for e, i in g.edges.items() if i == 1)
    assert len(ones) == 2
    r = splitting_distance(d, ones[0], ones[1], 4)
    # The two dual pairs sit in one component of the capped complex
    # (the meridian 4-cycle), so the cap does not separate them.
    assert r.value == 0 and r.connected


def test_splitting_distance_on_separated_components():
    import json

    from heegaard_lab.disk_complex import build_gamma, build_lambda, emit_graph
    from test_disk_complex import critical_witness_diagram

    d = critical_witness_diagram()
    g = build_gamma(d, 8)
    ones = sorted(e for e, i in g.edges.items() if i == 1)
    assert len(ones) == 2
    r = splitting_distance(d, ones[0], ones[1], 8)
    assert r.connected and r.value == 1

    # Independent BFS oracle over the emitted curve-complex JSON.
    data = json.loads(emit_graph(build_lambda(d, 8)))
    index = {tuple(v["coords"]): i for i, v in enumerate(data["vertices"])}
    adj = {}
    for e in data["edges"]:
        adj.setdefault(e["u"], set()).add(e["v"])
        adj.setdefault(e["v"], set()).add(e["u"])
    best = None
    for u in ones[0]:
        dist = {index[u]: 0}
        frontier = [index[u]]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adj.get(a, ()):
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        for v in ones[1]:
            got = dist.get(index[v])
            if got is not None and (best is None or got < best):
                best = got
    assert best == r.value


# ---------------------------------------------------------------------------
# Golden digests: the oracle graphs, flatten results and move enumeration
# are pinned byte for byte, so a faster calculus must give the same answers.
# ---------------------------------------------------------------------------


def sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_oracles():
    return {
        "closed7": SymbolicOracle(SymbolicBudget(max_total_genus=7)),
        "bounded6": SymbolicOracle(SymbolicBudget(max_total_genus=6),
                                   boundary=((1,), (1,))),
    }


GOLDEN_ORACLE_LISTINGS = {
    "closed7": "7dd0d2b3a701523ed80e18455945f0e630437337602ab5069dbe353031e3e1df",
    "bounded6": "615e167be38b92e17bd9bcc3f8d951f97832c896a0f2a4fd659b5c705d24ed55",
}

GOLDEN_FLATTENS = {
    "closed7": (1, "86136f56f39f33e6b77be5f93fdc375a8c9260c526085ee1f32a10d12eebb33b"),
    "bounded6": (2, "c55b1295ecb8744f4cee9e05fe4462639122fae1e21f3f55f95f56932d2b63fc"),
}

GOLDEN_MOVES = "c2e0bbbbd052c23f3c88bd72a6aaa14cb64ab706c847f9c5aeabd9d2abb1b371"


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE_LISTINGS))
def test_symbolic_oracle_listing_golden(golden_oracles, name):
    oracle = golden_oracles[name]
    lines = []
    for node in oracle.nodes():
        lines.append(oracle.label_of(node))
        for e in oracle.edges_at(node):
            lines.append(f"  {oracle.label_of(e.parent)} > "
                         f"{oracle.label_of(e.child)} {e.move!r}")
    assert sha256_lines(lines) == GOLDEN_ORACLE_LISTINGS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_FLATTENS))
def test_flatten_golden(golden_oracles, name):
    # 40 seeded pairs; every fourth search gets a budget of 40 expansions,
    # so the scoped verdicts of both kinds are pinned as well.
    oracle = golden_oracles[name]
    seed, digest = GOLDEN_FLATTENS[name]
    rng = random.Random(seed)
    nodes = oracle.nodes()
    lines = []
    for k in range(40):
        s, t = rng.choice(nodes), rng.choice(nodes)
        budget = 40 if k % 4 == 3 else 100000
        try:
            sog = flatten(s, t, oracle, budget)
        except FlattenBudgetExhausted as exc:
            lines.append(f"{s!r} -> {t!r}: {exc}")
        else:
            lines.append(serialize.dumps(serialize.sog_to_jsonable(sog)))
    assert sha256_lines(lines) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE_LISTINGS))
def test_oracle_edges_carry_their_checked_reports(golden_oracles, name):
    oracle = golden_oracles[name]
    edges = 0
    for node in oracle.nodes():
        for e in oracle.edges_at(node):
            if e.parent == node:
                report = apply_move_report(e.parent, e.move)
                assert report.result is e.child
                assert report == apply_move_report(
                    e.parent, dataclasses.replace(e.move))
                edges += 1
    assert edges > 100, edges


def test_replay_rejects_a_carried_move_with_a_wrong_target():
    g, wrong = GHS.closed_splitting(3), GHS.closed_splitting(1)
    messages = []
    for move, report in _moves_with_reports(g):
        for m in (move, dataclasses.replace(move)):
            with pytest.raises(InvalidSOG) as exc:
                SOG.of([g, wrong], [SOGStep(0, m)])
            messages.append(str(exc.value))
        assert messages[-2] == messages[-1] == \
            f"step 0 replays to {report.result}, recorded {wrong}"
    assert len(messages) == 2 * len(enumerate_moves(g)) > 2


def test_enumerate_and_apply_moves_golden():
    rng = random.Random(5)
    lines = []
    for _ in range(200):
        g = random_ghs(rng)
        for m in enumerate_moves(g):
            lines.append(f"{g!r} | {m!r} | {apply_move(g, m)!r}")
    assert sha256_lines(lines) == GOLDEN_MOVES


# ---------------------------------------------------------------------------
# Flatten against brute force on small random inventories
# ---------------------------------------------------------------------------

# Labels are "A" or "B" and up to two characters more, mostly ones that sort
# below "/": one label is then often a prefix of another, followed by such a
# character, which is where a tiebreak on joined strings could go wrong.
LABEL_CHARS = "!- .b"


def random_stock(rng, max_labels):
    """3 to max_labels distinct labels with genera 1 to 4."""
    n = rng.randint(3, max_labels)
    labels = set()
    while len(labels) < n:
        labels.add(rng.choice("AB") + "".join(
            rng.choice(LABEL_CHARS) for _ in range(rng.randint(0, 2))))
    return {lab: rng.randint(1, 4) for lab in sorted(labels)}


def random_inventory(rng):
    genus_of = random_stock(rng, 8)
    stab = {}
    for lo, g in genus_of.items():
        above = [hi for hi, h in genus_of.items() if h == g + 1]
        if above and rng.random() < 0.8:
            stab[lo] = rng.choice(above)
    splittings = {}
    for lab, g in genus_of.items():
        splittings.setdefault(g, []).append(lab)
    return InventoryOracle(splittings, stab), list(stab.items())


class RelationOracle(MoveGraph):
    """An inventory whose stabilizations form a relation, not a function.
    Its move graph has cycles, so zigzags of equal MaxKey and length exist
    and the label tiebreak decides between them; an InventoryOracle's graph
    is a forest, where the best zigzag is the only simple one."""

    def __init__(self, genus_of, pairs):
        labels = sorted(genus_of)
        super().__init__(
            labels, [GHS.closed_splitting(genus_of[lab]) for lab in labels],
            labels, [OracleEdge(hi, lo, destab(genus_of[hi]))
                     for lo, hi in pairs])

    def resolve(self, label):
        return label


def random_relation_oracle(rng):
    # Cycles multiply the walks, so the brute force stays at 6 labels here.
    genus_of = random_stock(rng, 6)
    pairs = []
    for lo, g in genus_of.items():
        above = [hi for hi, h in genus_of.items() if h == g + 1]
        pairs += [(lo, hi) for hi in rng.sample(above, min(len(above), 2))]
    return RelationOracle(genus_of, pairs), pairs


def brute_force_best(oracle, pairs, s, t):
    """The minimum of (MaxKey, length, "/"-joined labels) over every walk
    from s to t of at most 2n+2 steps along the (lower, upper) pairs, or
    None when t is not reachable from s.  A best walk never repeats a
    (node, arrived ascending) state, since cutting the loop drops peaks and
    steps, so 2n steps suffice.  Peaks and length only grow along a walk,
    so a walk whose (peaks, length) already reach the best one found is
    not extended."""
    key = {lab: tuple(ghs_key(oracle.ghs_of(lab))) for lab in oracle.nodes()}
    above, below = {}, {}
    for lo, hi in pairs:
        above.setdefault(lo, []).append(hi)
        below.setdefault(hi, []).append(lo)
    seen, frontier = {s}, [s]
    for node in frontier:
        for other in above.get(node, []) + below.get(node, []):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    if t not in seen:
        return None
    limit = 2 * len(key) + 2
    best = None

    def walk(path, peaks, arrived_asc):
        # arrived_asc: the last step went up (the start counts as such), so
        # leaving downward, or stopping, makes the current node a peak.
        nonlocal best
        node = path[-1]
        if node == t:
            final = tuple(sorted(peaks + ((key[node],) if arrived_asc
                                          else ()), reverse=True))
            cand = (final, len(path) - 1, "/".join(path))
            if best is None or cand < best:
                best = cand
        if len(path) - 1 == limit or best is not None and \
                (tuple(sorted(peaks, reverse=True)), len(path) - 1) >= best[:2]:
            return
        for hi in above.get(node, ()):
            walk(path + [hi], peaks, True)
        for lo in below.get(node, ()):
            gained = (key[node],) if arrived_asc else ()
            walk(path + [lo], peaks + gained, False)

    walk([s], (), True)
    return best


@pytest.mark.parametrize("make_oracle, seed", [
    (random_inventory, 41),
    (random_relation_oracle, 43),
])
def test_flatten_matches_brute_force(make_oracle, seed):
    rng = random.Random(seed)
    reachable = 0
    for _ in range(300):
        oracle, pairs = make_oracle(rng)
        nodes = oracle.nodes()
        s, t = rng.choice(nodes), rng.choice(nodes)
        best = brute_force_best(oracle, pairs, s, t)
        try:
            sog = flatten(s, t, oracle)
        except FlattenBudgetExhausted:
            assert best is None, (pairs, s, t)
            continue
        reachable += 1
        got = (max_key(sog), len(sog.steps), "/".join(sog.labels))
        assert got == best, (pairs, s, t)
    assert reachable >= 100, reachable


# ---------------------------------------------------------------------------
# Flatten against the search it replaced
# ---------------------------------------------------------------------------


def search_states(oracle, s):
    """The (node, arrived ascending) states a search from (s, ascending)
    reaches, read from the public edges: down an edge to its child, or up
    an edge to its parent."""
    seen, frontier = {(s, True)}, [(s, True)]
    for node, _ in frontier:
        for e in oracle.edges_at(node):
            state = (e.child, False) if e.parent == node else (e.parent, True)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return seen


def flatten_outcome(search, s, t, oracle, budget):
    try:
        sog = search(s, t, oracle, budget)
    except FlattenBudgetExhausted as exc:
        return str(exc)
    return serialize.dumps(serialize.sog_to_jsonable(sog))


@pytest.mark.parametrize("name", ["closed4", "bounded6"])
def test_flatten_unjoined_verdicts_match_reference(golden_oracles, name):
    # Endpoints the move graph does not join are answered without a search.
    # The search pops each state it reaches once, so a budget of one less
    # than that count is spent and that count itself is not.
    oracle = golden_oracles.get(name) or SymbolicOracle(SymbolicBudget(4))
    nodes = oracle.nodes()
    pairs = 0
    for s in nodes:
        states = search_states(oracle, s)
        reach = len(states)
        joined = {node for node, _ in states}
        for t in nodes:
            if t in joined:
                continue
            pairs += 1
            got = [flatten_outcome(flatten, s, t, oracle, budget)
                   for budget in (reach - 1, reach, reach + 1)]
            assert got == [flatten_outcome(reference_flatten, s, t, oracle,
                                           budget)
                           for budget in (reach - 1, reach, reach + 1)]
            assert got == [f"unknown: flattening budget of {reach - 1} "
                           "expansions exhausted"] + 2 * [
                "unknown: the endpoints are not joined within the "
                "oracle's space"], (s, t)
    assert pairs >= 100, pairs


def test_flatten_joined_pairs_match_reference(golden_oracles):
    rng = random.Random(59)
    names = sorted(golden_oracles)
    joined: dict = {}
    outcomes = set()
    for _ in range(200):
        oracle = golden_oracles[rng.choice(names)]
        nodes = oracle.nodes()
        while True:
            s = rng.choice(nodes)
            if (oracle, s) not in joined:
                joined[oracle, s] = sorted(
                    {node for node, _ in search_states(oracle, s)} - {s},
                    key=repr)
            if joined[oracle, s]:
                break
        t = rng.choice(joined[oracle, s])
        budget = rng.randint(1, 2 * len(nodes))
        got = flatten_outcome(flatten, s, t, oracle, budget)
        assert got == flatten_outcome(reference_flatten, s, t, oracle,
                                      budget), (s, t, budget)
        outcomes.add(got.startswith("unknown:"))
    assert outcomes == {False, True}


@pytest.mark.parametrize("oracle", [
    SymbolicOracle(SymbolicBudget(7)),
    SymbolicOracle(SymbolicBudget(6), ((1,), (1,)))])
def test_symbolic_states_distinct_and_moves_sorted(oracle):
    states = oracle.nodes()
    assert len(set(states)) == len(states)
    for g in states:
        for _, report in _moves_with_reports(g):
            assert all(level == collection(level)
                       for level in report.result.levels)


@pytest.mark.parametrize("boundary", [((), ()), ((1,), (1,)), ((2,), ()),
                                      ((1, 1), (2,))])
def test_state_first_oracle_states_pass_the_checks_they_skip(boundary):
    # The oracle builds its states by `GHS(...)`, unchecked; the proof in
    # `_enumerate_states` says each is what `GHS.of` would build.
    for max_levels in (3, 5, 7):
        for total in range(8):
            budget = SymbolicBudget(total, max_levels)
            states = SymbolicOracle(budget, boundary).nodes()
            for g in states:
                assert validate_ghs(g) == [] and g == GHS.of(g.levels), g
            assert states == reference_symbolic_states(budget, boundary), \
                (budget, boundary)


@pytest.mark.parametrize("boundary", [((), ()), ((1,), (1,)), ((2,), ()),
                                      ((1, 1), (2,))])
def test_state_first_oracle_matches_reference(boundary):
    # The oracle drops a move whose result is not a state before checking
    # it; its edges must be those of checking every move first.
    for max_levels in (5, 7):
        for total in range(1, 8):
            budget = SymbolicBudget(total, max_levels)
            oracle = SymbolicOracle(budget, boundary)
            assert oracle.nodes() == reference_symbolic_states(budget,
                                                               boundary)
            edges = [(e.parent, e.child, e.move) for n in oracle.nodes()
                     for e in oracle.edges_at(n) if e.parent == n]
            assert edges == reference_symbolic_edges(budget, boundary), \
                (budget, boundary)
