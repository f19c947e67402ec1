import collections
import itertools
import json
import random

import pytest

from heegaard_lab.disk_complex import (
    CurveTable,
    DiskComplexGraph,
    DistanceResult,
    LambdaGraph,
    build_gamma,
    _bfs_distance,
    _lambda_rows,
    _with_meridians,
    build_lambda,
    classify,
    component_distance,
    components,
    edge_distance,
    emit_graph,
    enumerate_disk_boundaries,
    find_destab_edge,
    isolated_vertices,
    quotient_by_symmetry,
    splitting_distance,
    vertex_distance,
)
from heegaard_lab.handlebody import (
    HeegaardDiagram,
    InvalidCutSystem,
    lens_space,
    s2_x_s1,
    s3_genus1,
    standard_diagram,
    torus_diagram,
    validate_cut_system,
)
from heegaard_lab.surface import (
    BudgetExhausted,
    CurveClass,
    ModelSurface,
    SurfaceMismatch,
    enumerate_essential_curves,
    geometric_intersection,
)

from reference import reference_bfs_distance, reference_splitting_distance

K10 = CurveClass.from_slope(1, 0).coords
K01 = CurveClass.from_slope(0, 1).coords


def bfs_oracle(emitted: bytes, src: int):
    """Independent BFS over the emitted JSON graph."""
    data = json.loads(emitted)
    adj = {}
    for e in data["edges"]:
        if e["u"] != e["v"]:
            adj.setdefault(e["u"], set()).add(e["v"])
            adj.setdefault(e["v"], set()).add(e["u"])
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def test_gamma_s3():
    g = build_gamma(s3_genus1(), 12)
    assert g.vertex_keys() == [K10, K01][::-1] or set(g.vertex_keys()) == {K10, K01}
    assert g.colors[K10] == frozenset({"red"})
    assert g.colors[K01] == frozenset({"blue"})
    assert list(g.edges.items()) == [(tuple(sorted((K10, K01))), 1)]
    assert components(g) == [sorted([K10, K01])]
    assert isolated_vertices(g) == []


def test_gamma_l21():
    g = build_gamma(lens_space(2, 1), 12)
    assert len(g.classes) == 2 and not g.edges
    assert len(components(g)) == 2
    assert len(isolated_vertices(g)) == 2


def test_gamma_s2xs1_self_loop():
    g = build_gamma(s2_x_s1(), 12)
    assert g.vertex_keys() == [K10]
    assert g.colors[K10] == frozenset({"red", "blue"})
    assert g.edges == {(K10, K10): 0}
    assert isolated_vertices(g) == []       # a self-loop is an edge


def test_lambda_farey_fragment():
    lam = build_lambda(s3_genus1(), 12)
    # Adjacency in the fragment is exactly |ps - qr| = 1.
    keys = lam.vertex_keys()
    for i, u in enumerate(keys):
        su = lam.classes[u].slope()
        for v in keys[i + 1:]:
            sv = lam.classes[v].slope()
            det = abs(su.p * sv.q - su.q * sv.p)
            assert ((u, v) in lam.edges or (v, u) in lam.edges) == (det == 1)


def test_gamma_embeds_in_lambda():
    for diagram, cap in [(s3_genus1(), 12), (lens_space(2, 1), 12),
                         (standard_diagram(2), 4)]:
        gam = build_gamma(diagram, cap)
        lam = build_lambda(diagram, cap)
        for v in gam.vertex_keys():
            assert v in lam.classes
        for (u, v), i in gam.edges.items():
            assert lam.contains_edge(u, v)
            if u != v:
                assert lam.edges[(u, v) if (u, v) in lam.edges else (v, u)] == i


def seeded_genus2_diagrams(n: int, seed: int) -> list[HeegaardDiagram]:
    """n diagrams whose sides are drawn from the cut systems of two disjoint
    genus-2 classes of weight at most 8."""
    systems = []
    for a, b in itertools.combinations(enumerate_essential_curves(2, 8), 2):
        if geometric_intersection(a, b) == 0:
            try:
                systems.append(validate_cut_system(2, [a, b]))
            except InvalidCutSystem:
                pass
    rng = random.Random(seed)
    return [HeegaardDiagram(ModelSurface(2), rng.choice(systems),
                            rng.choice(systems)) for _ in range(n)]


def test_classify_finds_disks_on_both_sides():
    # Both sides of a Heegaard surface are handlebodies: each meridian is on
    # the class list, budget or not, and bounds on its own side.  So no cap
    # or budget leaves a side without a disk, and every summary is one of
    # the four outcomes that allow for that.
    outcomes = ("reducible: ", "critical within cap ",
                "strongly irreducible within cap ", "edge present: ")
    table = CurveTable(2)
    runs = [(d, cap, budget, table) for d in seeded_genus2_diagrams(30, 0)
            for cap in (1, 3, 8) for budget in (None, 1, 5)]
    runs += [(d, 4, None, None)
             for d in (lens_space(5, 2), s2_x_s1(), standard_diagram(3))]
    for diagram, cap, budget, shared in runs:
        v = classify(diagram, cap, budget, shared)
        assert v.has_red_disk and v.has_blue_disk, (diagram, cap, budget)
        assert v.red_witness is not None and v.blue_witness is not None
        assert v.summary().startswith(outcomes), v.summary()


def test_classification_table():
    v = classify(s3_genus1(), 12)
    assert v.edge_witness is not None and v.reducing_class is None
    gam = build_gamma(s3_genus1(), 12)
    assert gam.edges[v.edge_witness] == 1
    for p in range(2, 8):
        v = classify(lens_space(p, 1), 12)
        assert v.has_red_disk and v.has_blue_disk
        assert v.edge_witness is None and v.reducing_class is None
        assert "strongly irreducible" in v.summary()
        assert v.negative_claims_cap == 12
    v = classify(s2_x_s1(), 12)
    assert v.reducing_class is not None
    assert v.reducing_class.coords == K10


def test_quotient_s3_slope_swap():
    g = build_gamma(s3_genus1(), 12)
    q = quotient_by_symmetry(g, [{K10: K01, K01: K10}])
    assert len(q.classes) == 1
    (vk,) = q.vertex_keys()
    assert q.edges == {(vk, vk): 1}
    assert q.colors[vk] == frozenset({"red", "blue"})


def test_quotient_identity_and_invariance():
    g = build_gamma(lens_space(2, 1), 12)
    ident = {k: k for k in g.classes}
    q = quotient_by_symmetry(g, [ident])
    assert len(components(q)) == 2
    g3 = build_gamma(s3_genus1(), 12)
    with pytest.raises(ValueError):
        quotient_by_symmetry(g3, [{K10: K10, K01: K10}])


def test_quotient_is_homomorphism_and_preserves_connectivity():
    g = build_gamma(s3_genus1(), 12)
    q = quotient_by_symmetry(g, [{K10: K01, K01: K10}])
    assert len(components(q)) <= len(components(g))
    for (u, v), i in g.edges.items():
        assert q.edges        # images exist


def test_quotient_of_lambda_keeps_least_edge():
    # A hand-made Λ whose symmetry swaps a with c and b with d: the edges
    # a-d and b-c (i = 1) land on the orbit pair of a-b and c-d (i = 0),
    # after them or before them, and the quotient records the least.
    a, b, c, d = (CurveClass.from_slope(*s)
                  for s in ((1, 0), (0, 1), (1, 1), (1, -1)))
    sigma = {a.coords: c.coords, c.coords: a.coords,
             b.coords: d.coords, d.coords: b.coords}
    for order in ([(a, d, 1), (c, b, 1), (a, b, 0), (c, d, 0)],
                  [(a, b, 0), (c, d, 0), (a, d, 1), (c, b, 1)]):
        lam = LambdaGraph(1, 4, True)
        for v in (a, b, c, d):
            lam.add_vertex(v)
        for u, v, i in order:
            lam.add_edge(u.coords, v.coords, i)
        q = quotient_by_symmetry(lam, [sigma])
        assert isinstance(q, LambdaGraph)
        assert len(q.classes) == 2
        assert list(q.edges.values()) == [0]
        dot = emit_graph(q, "dot").decode()
        assert dot.count("color=black") == 2 and " [label=0];" in dot


def test_find_destab_edge():
    g = build_gamma(s3_genus1(), 12)
    assert find_destab_edge(g, components(g)[0]) == tuple(sorted((K10, K01)))
    g21 = build_gamma(lens_space(2, 1), 12)
    for comp in components(g21):
        assert find_destab_edge(g21, comp) is None
    synthetic = DiskComplexGraph(s2_x_s1(), 12, True)
    synthetic.add_vertex(CurveClass.from_slope(1, 0), {"red", "blue"})
    synthetic.add_edge(K10, K10, 0)
    assert find_destab_edge(synthetic, [K10]) is None


def test_three_site_property_at_graph_level():
    # Two edges in distinct components are never joined by a path of
    # length <= 2 (no shared-neighbor vertex).
    lam = LambdaGraph(1, 10, True)
    for p, q in [(1, 0), (0, 1), (1, 1), (5, 2), (2, 1), (7, 3)]:
        lam.add_vertex(CurveClass.from_slope(p, q))
    pairs = [((1, 0), (0, 1)), ((5, 2), (7, 3))]
    for (a, b) in pairs:
        lam.add_edge(CurveClass.from_slope(*a).coords,
                     CurveClass.from_slope(*b).coords, 1)
    comps = [c for c in components(lam) if len(c) > 1]
    assert len(comps) == 2
    for u in comps[0]:
        nb_u = set(lam.neighbors(u))
        for v in comps[1]:
            assert v not in nb_u
            assert not (nb_u & set(lam.neighbors(v)))


def test_edge_and_component_distance():
    lam = build_lambda(s3_genus1(), 20)
    e1 = tuple(sorted((K10, K01)))
    k11 = CurveClass.from_slope(1, 1).coords
    e2 = tuple(sorted((K10, k11)))
    assert edge_distance(lam, e1, e2).value == 0     # shared endpoint
    assert edge_distance(lam, e1, e1).value == 0
    k52 = CurveClass.from_slope(5, 2).coords
    k21 = CurveClass.from_slope(2, 1).coords
    e3 = tuple(sorted((k52, k21)))
    emitted = emit_graph(lam)
    keys = lam.vertex_keys()
    index = {k: i for i, k in enumerate(keys)}
    d = edge_distance(lam, e1, e3)
    got_parts = []
    for u in e1:
        du = bfs_oracle(emitted, index[u])
        got_parts.append(min(du[index[k]] for k in e3))
    assert d.value == min(got_parts)
    c = component_distance(lam, [e1], [e3])
    assert c.value == d.value

    def oracle_min(c1, c2):
        dists = [bfs_oracle(emitted, index[u]) for e in c1 for u in e]
        reached = [du[index[v]] for du in dists for e in c2 for v in e
                   if index[v] in du]
        return min(reached) if reached else None

    rng = random.Random(5)
    edges, values = sorted(lam.edges), set()
    for _ in range(30):
        c1, c2 = rng.sample(edges, 3), rng.sample(edges, 2)
        got = component_distance(lam, c1, c2)
        assert got.connected and got.value == oracle_min(c1, c2)
        values.add(got.value)
    assert len(values) >= 2

    # Two edges with no path between them in the graph.
    split = LambdaGraph(1, 10, True)
    for p, q in [(1, 0), (0, 1), (5, 2), (7, 3)]:
        split.add_vertex(CurveClass.from_slope(p, q))
    k73 = CurveClass.from_slope(7, 3).coords
    split.add_edge(K10, K01, 1)
    split.add_edge(k52, k73, 1)
    apart = component_distance(split, [(K10, K01)], [(k52, k73)])
    assert not apart.connected and apart.value is None
    with pytest.raises(ValueError):
        apart.require()

    with pytest.raises(KeyError):
        vertex_distance(lam, K10, (9, 9, 9))
    missing = tuple(sorted((K10, CurveClass.from_slope(1, 2).coords)))
    assert missing not in lam.edges
    with pytest.raises(KeyError):
        edge_distance(lam, e1, missing)
    with pytest.raises(KeyError):
        component_distance(lam, [e1], [e3, missing])
    with pytest.raises(ValueError):
        component_distance(lam, [], [e1])
    with pytest.raises(ValueError):
        component_distance(lam, [e1], [])


def test_distance_require():
    # An explicit raise, so `python -O` keeps the check.
    assert DistanceResult(True, 3, 8).require() == 3
    with pytest.raises(ValueError, match="not connected within cap 8"):
        DistanceResult(False, None, 8).require()
    with pytest.raises(AssertionError) as exc:
        DistanceResult(True, None, 8).require()
    assert str(exc.value) == "a connected distance has no value"


def test_distance_vs_bfs_oracle_seeded():
    lam = build_lambda(s3_genus1(), 40)
    emitted = emit_graph(lam)
    keys = lam.vertex_keys()
    index = {k: i for i, k in enumerate(keys)}
    oracle = bfs_oracle(emitted, index[K10])
    rng = random.Random(17)
    candidates = [k for k in keys if k != K10]
    for k in rng.sample(candidates, 12):
        want = oracle.get(index[k])
        got = vertex_distance(lam, K10, k)
        assert got.connected == (want is not None)
        if want is not None:
            assert got.value == want


def reducible_split_diagram():
    """A genus-2 diagram whose cap-8 complex has a self-loop, at the class
    bounding on both sides, and two components.  Found by seeded search
    over pairs of cut systems of weight <= 8."""
    red = validate_cut_system(2, [CurveClass(2, (0, 0, 1, 2, 0, 0, 0, 1, 3)),
                                  CurveClass(2, (2, 1, 0, 0, 3, 1, 0, 0, 0))])
    blue = validate_cut_system(2, [CurveClass(2, (0, 1, 0, 0, 1, 1, 0, 0, 0)),
                                   CurveClass(2, (0, 1, 1, 1, 1, 1, 2, 1, 0))])
    return HeegaardDiagram(ModelSurface(2), red, blue)


def search_outcome(search, *args):
    """A distance, or the message of the KeyError the search raised."""
    try:
        return search(*args)
    except KeyError as exc:
        return str(exc)


def test_search_matches_one_sided_reference():
    """The search from both ends gives the one-sided search's result on
    every vertex pair of torus Λ at cap 24 for two lens spaces (the blue
    meridian of L(89, 34) weighs 178 and has no neighbour within the cap),
    of the twisted genus-2 Λ at cap 8, and of Γ at cap 8 for the twisted
    diagram and for a reducible one (a self-loop, and two or three
    components, so some pairs are not connected); then on seeded edge and
    component queries on torus Λ at cap 134.  A vertex off the graph, on
    either side, raises the same error."""
    twisted, split = critical_witness_diagram(), reducible_split_diagram()
    graphs = [build_lambda(lens_space(7, 2), 24),
              build_lambda(lens_space(89, 34), 24),
              build_lambda(twisted, 8), build_gamma(twisted, 8),
              build_gamma(split, 8)]
    assert any(u == v for u, v in graphs[-1].edges)
    assert len(components(graphs[-1])) >= 2
    values = set()
    for graph in graphs:
        keys = graph.vertex_keys()
        for u, v in itertools.product(keys, repeat=2):
            got = vertex_distance(graph, u, v)
            assert got == reference_bfs_distance(graph, [u], [v]), (u, v)
            values.add(got.value)
        for args in (((9, 9, 9), keys[0]), (keys[0], (9, 9, 9))):
            assert search_outcome(vertex_distance, graph, *args) == \
                search_outcome(reference_bfs_distance, graph,
                               [args[0]], [args[1]])
    assert {None, 0, 1, 2, 3} <= values

    lam = build_lambda(lens_space(7, 2), 134)
    edges = lam.edge_keys()
    rng = random.Random(37)
    values = set()
    for _ in range(100):
        e1, e2 = rng.sample(edges, 2)
        c1, c2 = rng.sample(edges, 3), rng.sample(edges, 3)
        ends1, ends2 = [w for e in c1 for w in e], [w for e in c2 for w in e]
        got = edge_distance(lam, e1, e2)
        assert got == reference_bfs_distance(lam, e1, e2), (e1, e2)
        values.add(got.value)
        got = component_distance(lam, c1, c2)
        assert got == reference_bfs_distance(lam, ends1, ends2), (c1, c2)
        values.add(got.value)
    assert set(range(8)) <= values


def far_meridian_diagram():
    """A genus-2 diagram whose four meridians each meet both classes of
    the cap-8 list cut short by budget 5 at least twice, so that Λ on the
    partial list has three components: those two classes, and each side's
    meridians.  Found by scanning the cut systems of weight <= 14 for such
    meridians."""
    red = validate_cut_system(2, [CurveClass(2, (0, 0, 2, 3, 0, 0, 0, 2, 1)),
                                  CurveClass(2, (0, 1, 2, 3, 1, 1, 2, 2, 1))])
    blue = validate_cut_system(2, [CurveClass(2, (0, 0, 3, 2, 0, 0, 0, 3, 1)),
                                   CurveClass(2, (0, 1, 3, 2, 1, 1, 2, 3, 1))])
    return HeegaardDiagram(ModelSurface(2), red, blue)


def test_row_search_matches_full_lambda():
    """The search over Λ rows gives the answers of the search over the
    whole Λ on the same list.  Twisted Λ at cap 10 is connected: the
    search runs from its first vertex to every vertex, some of them 2
    away, then between seeded vertex sets.  The far-meridian diagram's
    budgeted list has three components, and sets drawn from two of them
    are not connected: one side expands its whole component."""
    rng = random.Random(43)
    for diagram, cap, budget in ((critical_witness_diagram(), 10, None),
                                 (far_meridian_diagram(), 8, 5)):
        table = CurveTable(2)
        curves, _ = table.capped_curves(diagram, cap, budget)
        rows = _lambda_rows(curves, table)
        lam = build_lambda(diagram, cap, budget)
        keys = lam.vertex_keys()
        assert sorted(c.coords for c in curves) == keys
        pairs = [([keys[0]], [v]) for v in keys]
        pairs += [(rng.sample(keys, rng.randint(1, 3)),
                   rng.sample(keys, rng.randint(1, 3))) for _ in range(40)]
        comps = components(lam)
        pairs.append((comps[0], comps[-1]))
        values = collections.Counter()
        for sources, targets in pairs:
            got = _bfs_distance(rows, sources, targets, cap)
            assert got == reference_bfs_distance(lam, sources, targets), \
                (sources, targets)
            values[got.value] += 1
        if budget is None:
            assert len(comps) == 1 and values[2] >= 1, values
        else:
            assert len(comps) == 3 and values[None] >= 1, values


def test_splitting_distance_matches_full_build_reference():
    """The row search gives the full build's distance on every pair of
    i = 1 edges of the genus-2 classify diagrams at caps 6-12, and on the
    twisted diagram's two cap-8 i = 1 edges at cap 14."""
    from test_cli import CLASSIFY_DIAGRAMS

    from heegaard_lab.serialize import diagram_from_jsonable
    values = collections.Counter()
    for name in ("standard", "critical"):
        d = diagram_from_jsonable(json.loads(CLASSIFY_DIAGRAMS[name]))
        table, ref_table = CurveTable(2), CurveTable(2)
        for cap in range(6, 13):
            gamma = build_gamma(d, cap, table=table)
            ones = sorted(e for e, i in gamma.edges.items() if i == 1)
            for e1, e2 in itertools.combinations(ones, 2):
                got = splitting_distance(d, e1, e2, cap, table=table)
                assert got == reference_splitting_distance(
                    d, e1, e2, cap, table=ref_table), (name, cap, e1, e2)
                values[got.value] += 1
    assert values == {0: 191, 1: 19}, values
    d = critical_witness_diagram()
    ones = sorted(e for e, i in build_gamma(d, 8).edges.items() if i == 1)
    assert splitting_distance(d, *ones, 14) \
        == reference_splitting_distance(d, *ones, 14) \
        == DistanceResult(True, 1, 14)


def test_splitting_distance_asks_only_the_rows_it_expands():
    """On a fresh table, twisted `distance` at cap 12 between the two
    cap-8 i = 1 edges stores Γ's pairs and the pairs of one row: its
    search expands one vertex, where all of Λ has 5,995 pairs."""
    d = critical_witness_diagram()
    ones = sorted(e for e, i in build_gamma(d, 8).edges.items() if i == 1)
    gamma_table, table = CurveTable(2), CurveTable(2)
    build_gamma(d, 12, table=gamma_table)
    assert splitting_distance(d, *ones, 12, table=table) \
        == DistanceResult(True, 1, 12)
    n = len(table.capped_curves(d, 12, None)[0])
    assert n * (n - 1) // 2 == 5_995
    assert len(table._meets) <= len(gamma_table._meets) + n - 1


def test_cap_monotonicity():
    for diagram in (s3_genus1(), lens_space(2, 1), s2_x_s1()):
        small = build_gamma(diagram, 8)
        large = build_gamma(diagram, 14)
        for v in small.vertex_keys():
            assert v in large.classes
            assert small.colors[v] <= large.colors[v]
        for e, i in small.edges.items():
            assert large.edges.get(e) == i
        # induced: large edges between small vertices appear in small
        for (u, v), i in large.edges.items():
            if u in small.classes and v in small.classes:
                assert small.edges.get((u, v)) == i
        v_small = classify(diagram, 8)
        v_large = classify(diagram, 14)
        for field in ("has_red_disk", "has_blue_disk"):
            if getattr(v_small, field):
                assert getattr(v_large, field)
        if v_small.reducing_class is not None:
            assert v_large.reducing_class is not None
        if v_small.edge_witness is not None:
            assert v_large.edge_witness is not None


def test_emission_deterministic_and_dot():
    g = build_gamma(s3_genus1(), 12)
    assert emit_graph(g) == emit_graph(build_gamma(s3_genus1(), 12))
    dot = emit_graph(g, "dot").decode()
    assert dot.count(" -- ") == len(g.edges)
    assert "color=red" in dot and "color=blue" in dot
    q = quotient_by_symmetry(g, [{K10: K01, K01: K10}])
    assert "color=purple" in emit_graph(q, "dot").decode()
    data = json.loads(emit_graph(g))
    assert len(data["vertices"]) == 2 and len(data["edges"]) == 1
    with pytest.raises(ValueError):
        emit_graph(g, "svg")


def test_emit_empty_graph():
    g = LambdaGraph(1, 4, True)
    data = json.loads(emit_graph(g))
    assert data["vertices"] == [] and data["edges"] == []
    assert components(g) == []


def test_genus2_gamma_contains_meridian_cycle():
    d = standard_diagram(2)
    g = build_gamma(d, 4)
    reds = {c.coords for c in d.red.curves}
    blues = {c.coords for c in d.blue.curves}
    assert reds <= set(g.vertex_keys())
    assert blues <= set(g.vertex_keys())
    ones = [e for e, i in g.edges.items() if i == 1]
    assert len(ones) == 2                   # a_i - b_i dual pairs


def critical_witness_diagram():
    """A genus-2 diagram whose cap-8 complex splits: each handle carries one
    dual red/blue pair, and no within-cap disk boundary bridges them.
    Found by seeded search over blue cut systems against the standard red."""
    from heegaard_lab.handlebody import HeegaardDiagram, validate_cut_system
    from heegaard_lab.surface import ModelSurface, canonical_triangulation

    tri = canonical_triangulation(2)

    def puff(name):
        e = tri.edge_index(name)
        return CurveClass(2, min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                                 key=lambda v: (sum(v), v)))

    red = validate_cut_system(2, [puff("a1"), puff("a2")])
    blue = validate_cut_system(2, [CurveClass(2, (1, 0, 2, 1, 1, 2, 2, 2, 1)),
                                   CurveClass(2, (2, 1, 1, 1, 1, 1, 2, 1, 0))])
    return HeegaardDiagram(ModelSurface(2), red, blue)


def test_critical_witness_classification():
    d = critical_witness_diagram()
    v = classify(d, 8)
    assert v.critical_witness is not None
    e1, e2, c1, c2 = v.critical_witness
    assert c1 != c2
    g = build_gamma(d, 8)
    assert g.edges[e1] == 1 and g.edges[e2] == 1
    assert "critical within cap 8" in v.summary()
    # positive claims persist at a larger cap
    assert classify(d, 10).critical_witness is not None


# sha256 of emit_graph(build(diagram, cap)), recorded before the homology
# certificates (minimal-position exit, isotopy and disk-test rejection, edge
# pruning) were added; every certificate must leave these bytes unchanged.
GOLDEN_GRAPH_SHA256 = {
    ("twisted", 8, "gamma"):
        "dcdd25c2992bbeeb75c07f715b6f87a04e254c72dc3f58370d273ee9418a5bf6",
    ("twisted", 8, "lambda"):
        "0a4e50af9459bee79978c6319514f854fed649c1c1111e7d78dd3d835d590cf3",
    ("twisted", 10, "gamma"):
        "f8cd5d0ca209c277801f32be0c88b8e06f4d7006209f6c214047e64a1d9ce240",
    ("twisted", 10, "lambda"):
        "6d9e912833a920a5fa5011d6366018b04815d04545c1ab677795ecb760bd1f27",
    ("standard", 8, "gamma"):
        "0c24b4b18b36eb0b886dc0b8f265b92262a4c2c606ecf99fbf638ac02bef05a7",
    ("standard", 8, "lambda"):
        "640dfe4a23b6e008048da7095cf02e64d82975c1ff6ea420ee9f119a9a2f0354",
    ("standard", 10, "gamma"):
        "14083daf78f8346685cfe1a40182f7880201714456af84506b123d37d006efa4",
    ("standard", 10, "lambda"):
        "8c5f2db6481d362c21930d7fa2274c391dfef4beff32fde2133fa546bc49e346",
}


def test_genus2_graph_bytes_golden():
    import hashlib
    diagrams = {"twisted": critical_witness_diagram(),
                "standard": standard_diagram(2)}
    builders = {"gamma": build_gamma, "lambda": build_lambda}
    for (name, cap, kind), want in GOLDEN_GRAPH_SHA256.items():
        graph = builders[kind](diagrams[name], cap)
        got = hashlib.sha256(emit_graph(graph)).hexdigest()
        assert got == want, (name, cap, kind)


def pair_loop_lambda(graph):
    """Reference torus Λ edges: the determinant |ps - qr| <= 1 tested on
    every pair of vertices, in index order."""
    keys = graph.vertex_keys()
    ref = LambdaGraph(graph.genus, graph.cap, graph.certified)
    for k in keys:
        ref.add_vertex(graph.classes[k])
    slopes = [graph.classes[k].slope() for k in keys]
    for i in range(len(keys)):
        p, q = slopes[i].p, slopes[i].q
        for j in range(i + 1, len(keys)):
            det = p * slopes[j].q - q * slopes[j].p
            if -1 <= det <= 1:
                ref.add_edge(keys[i], keys[j], abs(det))
    return ref


@pytest.mark.parametrize("diagram", [s3_genus1(), lens_space(7, 2),
                                     s2_x_s1()], ids=["S3", "L72", "S2xS1"])
def test_farey_edges_match_pair_loop(diagram):
    for cap in range(1, 61):
        graph = build_lambda(diagram, cap)
        ref = pair_loop_lambda(graph)
        # Same edges, added in the same order, so the adjacency index and
        # everything that walks it are unchanged.
        assert list(graph.edges.items()) == list(ref.edges.items()), cap
        assert list(graph._adj.items()) == list(ref._adj.items()), cap


def test_farey_edges_match_pair_loop_on_partial_lists():
    """Lists cut short by a budget, and meridians heavier than the cap:
    L(200, 3)'s blue meridian weighs 400, L(200, 1)'s meets (0, 1) once,
    and the slopes (1, 50) and (1, 51), of weights 100 and 102, meet once."""
    heavy_pair = torus_diagram((1, 50), (1, 51))
    runs = [(d, cap, None) for d in (lens_space(200, 3), lens_space(200, 1),
                                     heavy_pair) for cap in range(1, 41)]
    runs += [(d, 40, budget) for d in (lens_space(7, 2), heavy_pair)
             for budget in range(1, 400, 9)]
    runs += [(lens_space(7, 2), cap, 5) for cap in (1000, 3000)]
    for diagram, cap, budget in runs:
        graph = build_lambda(diagram, cap, budget)
        ref = pair_loop_lambda(graph)
        assert list(graph.edges.items()) == list(ref.edges.items()), \
            (cap, budget)
        assert list(graph._adj.items()) == list(ref._adj.items()), \
            (cap, budget)


# sha256 of emit_graph(build(diagram, cap)) for torus diagrams, recorded
# while Λ still tested every vertex pair and slopes were read from traces.
# L(200, 3) has a blue meridian of weight 400, far beyond its cap.
GOLDEN_TORUS_GRAPH_SHA256 = {
    ((7, 2), 134, "lambda"):
        "1293c14ad381fd55832fcaee81b867ade7fc286eb2e2f3287e998ec6e27515f9",
    ((200, 3), 40, "lambda"):
        "d27eab92e1444550289472452c1aa8c47b19de47691617ebfe45bdf181ff7187",
    ((7, 2), 134, "gamma"):
        "99c166bccd774f7193e677076ad426b7109e3eba10d4b892139b4ecf43d39602",
    ((12, 5), 134, "gamma"):
        "8a85e02927c257f03373eafffd64239605d93d698f78089fe2524072981c7f24",
}


def test_torus_graph_bytes_golden():
    import hashlib
    builders = {"gamma": build_gamma, "lambda": build_lambda}
    for (pq, cap, kind), want in GOLDEN_TORUS_GRAPH_SHA256.items():
        graph = builders[kind](lens_space(*pq), cap)
        got = hashlib.sha256(emit_graph(graph)).hexdigest()
        assert got == want, (pq, cap, kind)


def heavy_meridian_diagram():
    """The standard red side against a blue side whose first meridian has
    weight 9 and also bounds on the red side."""
    from heegaard_lab.handlebody import HeegaardDiagram, validate_cut_system

    red = standard_diagram(2).red
    blue = validate_cut_system(2, [CurveClass(2, (0, 1, 0, 1, 1, 1, 2, 2, 1)),
                                   CurveClass(2, (0, 0, 0, 1, 0, 0, 0, 0, 1))])
    return HeegaardDiagram(red.surface, red, blue)


def colored(graph, side):
    return sorted(k for k in graph.classes if side in graph.colors[k])


@pytest.mark.parametrize("diagram", [
    s3_genus1(), lens_space(7, 1), s2_x_s1(), standard_diagram(2),
    heavy_meridian_diagram()])
def test_disk_boundaries_are_gamma_vertices(diagram):
    for cap in range(1, 11):
        gamma = build_gamma(diagram, cap)
        for side in ("red", "blue"):
            got = enumerate_disk_boundaries(diagram, side, cap)
            assert [c.coords for c in got] == colored(gamma, side), (cap, side)


def test_disk_boundaries_partial_on_budget():
    d = heavy_meridian_diagram()
    gamma = build_gamma(d, 8, budget=40)
    assert not gamma.certified
    for side in ("red", "blue"):
        with pytest.raises(BudgetExhausted) as info:
            enumerate_disk_boundaries(d, side, 8, budget=40)
        assert str(info.value) == "enumeration budget exhausted"
        assert [c.coords for c in info.value.partial] == colored(gamma, side)


def test_disk_boundaries_argument_errors():
    d = s3_genus1()
    with pytest.raises(ValueError, match="cap must be at least 1"):
        enumerate_disk_boundaries(d, "green", 0)
    with pytest.raises(ValueError, match="side must be 'red' or 'blue'"):
        enumerate_disk_boundaries(d, "green", 1)


def test_disk_boundaries_exported_from_package_root():
    import heegaard_lab
    from heegaard_lab import disk_complex

    assert heegaard_lab.enumerate_disk_boundaries \
        is disk_complex.enumerate_disk_boundaries


def test_twisted_lambda_arrangement_counts(monkeypatch):
    """Arrangements built for Λ of the twisted diagram of demos/05.  The
    block certificate settles most pairs with |a . b| <= 1 first; without
    it, caps 8 and 12 built 104 and 1,786.  A pair the table has not
    stored then reads the answer of a stored image under the
    triangulation's automorphisms, so an arrangement is built once per
    orbit of pairs; without that, caps 8 and 12 built 23 and 970.  The counts
    include enumeration's isotopy tests.  At genus 2 those ask the pair
    ladder whether two classes of one homology bucket are disjoint, so
    the block certificate and the normal sum settle some pairs that an
    arrangement settled before; with an arrangement per isotopy test,
    caps 8 and 12 built 12 and 292.  A change here is a change in the work
    done, and should be explained."""
    from heegaard_lab import arrangement
    built = []
    init = arrangement.Arrangement.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    d = critical_witness_diagram()
    monkeypatch.setattr(arrangement.Arrangement, "__init__", counting)
    for cap, n_built in [(8, 11), (12, 288)]:
        built.clear()
        build_lambda(d, cap)
        assert len(built) == n_built, cap


@pytest.mark.parametrize("genus, cap", [(1, 60), (2, 12), (3, 9)])
def test_smaller_caps_are_weight_filters(genus, cap):
    # What CurveTable relies on to serve a smaller cap from a stored list.
    big = enumerate_essential_curves(genus, cap)
    for smaller in range(cap):
        assert enumerate_essential_curves(genus, smaller) \
            == [c for c in big if c.weight <= smaller], smaller


@pytest.mark.parametrize("diagram, cap", [(s3_genus1(), 60), (lens_space(7, 2), 40),
                                          (standard_diagram(2), 12)])
def test_stored_list_is_cut_at_each_smaller_cap(diagram, cap):
    # The cut at the last class within the cap serves what filtering the
    # stored list by weight served, in the same order.
    table = CurveTable(diagram.genus)
    table.capped_curves(diagram, cap, None)
    stored = list(table._classes)
    for smaller in range(1, cap + 1):
        want = _with_meridians(diagram,
                               [c for c in stored if c.weight <= smaller])
        assert table.capped_curves(diagram, smaller, None) == (want, True), \
            smaller


def test_shared_table_matches_fresh_calls():
    # Caps fall and rise, so lists are served both stored and afresh.
    table = CurveTable(2)
    for cap in (10, 6, 8, 10):
        for d in (critical_witness_diagram(), heavy_meridian_diagram()):
            for build in (build_gamma, build_lambda):
                assert emit_graph(build(d, cap, table=table)) \
                    == emit_graph(build(d, cap)), (cap, build)
            assert classify(d, cap, table=table) == classify(d, cap)
    with pytest.raises(SurfaceMismatch, match="genus 2 table"):
        build_gamma(s3_genus1(), 8, table=table)


def test_disk_tests_are_keyed_by_the_diagrams_cut_vectors():
    # Every key refers to the cut vectors the diagram keeps, not to a copy.
    d = critical_witness_diagram()
    table = CurveTable(2)
    build_gamma(d, 8, table=table)
    assert {id(cut) for cut, _ in table._disks} \
        == {id(d.red.vectors), id(d.blue.vectors)}


def pair_loop_graph(graph, known):
    """The graph's vertices, joined pair by pair where
    `geometric_intersection` is at most 1: no table, no symmetry.
    `known` keeps each pair's number, by coordinates, across calls."""
    ref = LambdaGraph(graph.genus, graph.cap, graph.certified)
    for c in graph.classes.values():
        ref.add_vertex(c)
    for u, v in itertools.combinations(ref.vertex_keys(), 2):
        if (u, v) not in known:
            known[u, v] = geometric_intersection(ref.classes[u],
                                                 ref.classes[v])
        n = known[u, v]
        if n <= 1:
            ref.add_edge(u, v, n)
    return ref


def test_pair_store_matches_pair_loop(monkeypatch):
    # One table serves the rising caps, so later caps read answers stored
    # by earlier ones, under the pair's own key or an image's.  The ladder
    # runs for fewer pairs than the store holds, so images answered some.
    from heegaard_lab import disk_complex
    laddered = []
    ladder = disk_complex._intersection

    def counting(*args):
        laddered.append(args)
        return ladder(*args)
    monkeypatch.setattr(disk_complex, "_intersection", counting)
    table, known = CurveTable(2), {}
    for cap in range(8, 13):
        graph = build_lambda(critical_witness_diagram(), cap, table=table)
        want = emit_graph(pair_loop_graph(graph, known))
        assert emit_graph(graph) == want, cap
    assert len(laddered) < len(table._meets)
    graph = build_lambda(standard_diagram(3), 8, table=CurveTable(3))
    assert emit_graph(graph) == emit_graph(pair_loop_graph(graph, {}))


def test_fresh_tables_share_no_stored_answer(monkeypatch):
    # A memo kept outside the table would let the second table build
    # fewer arrangements than the first.
    from heegaard_lab import arrangement
    built = []
    init = arrangement.Arrangement.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(arrangement.Arrangement, "__init__", counting)
    d = critical_witness_diagram()
    counts, tables = [], [CurveTable(2), CurveTable(2)]
    for table in tables:
        built.clear()
        build_lambda(d, 8, table=table)
        counts.append(len(built))
    assert counts == [11, 11]
    assert tables[0]._meets == tables[1]._meets
    assert tables[0]._meets is not tables[1]._meets


def test_pair_store_stays_within_bound(monkeypatch):
    # A full store stops growing, and the pairs it does not hold run the
    # ladder again, so the output is the same.
    from heegaard_lab import disk_complex
    d = critical_witness_diagram()
    want = emit_graph(build_lambda(d, 10))
    monkeypatch.setattr(disk_complex, "MAX_STORED_PAIRS", 40)
    table = CurveTable(2)
    assert emit_graph(build_lambda(d, 10, table=table)) == want
    assert len(table._meets) == 40
