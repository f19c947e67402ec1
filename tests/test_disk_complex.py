import json
import random

import pytest

from heegaard_lab.disk_complex import (
    CurveTable,
    DiskComplexGraph,
    LambdaGraph,
    build_gamma,
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
    vertex_distance,
)
from heegaard_lab.handlebody import (
    lens_space,
    s2_x_s1,
    s3_genus1,
    standard_diagram,
)
from heegaard_lab.surface import (
    BudgetExhausted,
    CurveClass,
    SurfaceMismatch,
    enumerate_essential_curves,
)

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
    it, caps 8 and 12 built 104 and 1,786.  A change here is a change in
    the work done, and should be explained."""
    from heegaard_lab import arrangement
    built = []
    init = arrangement.Arrangement.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    d = critical_witness_diagram()
    monkeypatch.setattr(arrangement.Arrangement, "__init__", counting)
    for cap, n_built in [(8, 23), (12, 970)]:
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
