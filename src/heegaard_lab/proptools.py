"""Seeded generators and the randomized property suite.

Used by the `proptest` command and by the test suite; everything is driven
by an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from . import arrangement
from .disk_complex import (
    CurveTable,
    build_gamma,
    build_lambda,
    emit_graph,
    vertex_distance,
)
from .ghs import (
    GHS,
    InvalidGHS,
    InvalidMove,
    Move,
    apply_move,
    apply_move_report,
    compare_ghs,
    enumerate_moves,
    validate_ghs,
)
from .handlebody import (
    HeegaardDiagram,
    InvalidCutSystem,
    lens_space,
    standard_diagram,
    validate_cut_system,
)
from .surface import (
    CurveClass,
    ModelSurface,
    Slope,
    _blocks_meet,
    admissible_vectors,
    algebraic_intersection,
    canonical_triangulation,
    enumerate_essential_curves,
    geometric_intersection,
    slope_intersection,
)


# Size of a random GHS: thick levels, and genus of a thick component.
MAX_THICK = 3
MAX_GENUS = 4
# The arrangement engine is checked on slopes up to this size.
ENGINE_BOUND = 4


def random_ghs(rng: random.Random) -> GHS:
    """A random valid GHS; boundary collections may be nonempty."""
    while True:
        n_thick = rng.randint(1, MAX_THICK)
        levels = []
        if rng.random() < 0.3:
            levels.append([rng.randint(0, 2)
                           for _ in range(rng.randint(1, 2))])
        else:
            levels.append([])
        for k in range(n_thick):
            levels.append([rng.randint(1, MAX_GENUS)
                           for _ in range(1 if rng.random() < 0.8 else 2)])
            if k < n_thick - 1:
                levels.append([rng.randint(1, MAX_GENUS - 1)])
        if rng.random() < 0.3:
            levels.append([rng.randint(0, 2)
                           for _ in range(rng.randint(1, 2))])
        else:
            levels.append([])
        try:
            return GHS.of(levels)
        except InvalidGHS:
            continue


def random_move(rng: random.Random, ghs: GHS) -> Optional[Move]:
    moves = enumerate_moves(ghs)
    return rng.choice(moves) if moves else None


def random_coprime_pair(rng: random.Random, bound: int) -> Slope:
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            return Slope.of(p, q)


@dataclass
class PropertyReport:
    name: str
    iterations: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def check_torus_oracle(rng: random.Random, iterations: int) -> PropertyReport:
    """geometric_intersection equals |ps - qr| through the slope fast path,
    and so does the arrangement engine on a second pair of small slopes."""
    failures = []
    tri = canonical_triangulation(1)
    for _ in range(iterations):
        a = random_coprime_pair(rng, 50)
        b = random_coprime_pair(rng, 50)
        want = slope_intersection(a, b)
        got = geometric_intersection(CurveClass(1, a.coords()),
                                     CurveClass(1, b.coords()))
        if got != want:
            failures.append(("fast-path", a, b, got, want))
        c = random_coprime_pair(rng, ENGINE_BOUND)
        d = random_coprime_pair(rng, ENGINE_BOUND)
        if c != d:
            raw = arrangement.intersection_number(tri, c.coords(), d.coords())
            if raw != slope_intersection(c, d):
                failures.append(("engine", c, d, raw))
    return PropertyReport("torus-intersection-oracle", iterations, failures)


def check_move_monotonicity(rng: random.Random,
                            iterations: int) -> PropertyReport:
    """Every valid move yields a valid GHS that is strictly smaller."""
    failures = []
    done = 0
    while done < iterations:
        g = random_ghs(rng)
        move = random_move(rng, g)
        if move is None:
            continue
        done += 1
        try:
            # A fresh copy carries no report, so apply_move checks it.
            out = apply_move(g, dataclasses.replace(move))
        except InvalidMove as exc:
            failures.append(("rejected", g, move, str(exc)))
            continue
        if validate_ghs(out):
            failures.append(("invalid-output", g, move, out))
        if compare_ghs(out, g) != "less":
            failures.append(("not-smaller", g, move, out))
    return PropertyReport("move-monotonicity", iterations, failures)


def check_commutation(rng: random.Random, iterations: int) -> PropertyReport:
    """Moves at distinct thick indices commute whenever both orders stay
    valid as the same moves.

    A move's subcase is part of its identity: rewriting a shared thin level
    can flip the other move's neighbor-equality tests, after which it is a
    different surgery.  Pairs where either subcase flips, or where a merge
    reshapes the sequence around the other move, are skipped.
    """
    failures = []
    done = 0
    attempts = 0
    while done < iterations and attempts < iterations * 400:
        attempts += 1
        g = random_ghs(rng)
        moves = enumerate_moves(g)
        if len(moves) < 2:
            continue
        m1, m2 = rng.sample(moves, 2)
        if m1.thick_index == m2.thick_index:
            continue
        if m1.thick_index > m2.thick_index:
            m1, m2 = m2, m1
        try:
            r1 = apply_move_report(g, m1)
            r2 = apply_move_report(g, m2)
            if r1.merged or r2.merged:
                continue
            m2_shift = dataclasses.replace(
                m2, thick_index=m2.thick_index + r1.level_delta)
            r12 = apply_move_report(r1.result, m2_shift)
            r21 = apply_move_report(r2.result, m1)
            if r12.merged or r21.merged:
                continue
            if r12.case != r2.case or r21.case != r1.case:
                continue
        except InvalidMove:
            continue
        done += 1
        if r12.result.levels != r21.result.levels:
            failures.append((g, m1, m2, r12.result, r21.result))
    if done < iterations:
        failures.append(("insufficient-samples", done, iterations))
    return PropertyReport("move-commutation", done, failures)


def check_genus2_intersection(rng: random.Random,
                               iterations: int) -> PropertyReport:
    """On pairs of genus-2 classes of weight <= 8, |a . b| <= i(a, b) with
    the same parity, and i(a, b) = i(b, a)."""
    failures = []
    curves = enumerate_essential_curves(2, 8)
    for _ in range(iterations):
        a, b = rng.sample(curves, 2)
        alg = algebraic_intersection(a, b)
        i_ab = geometric_intersection(a, b)
        i_ba = geometric_intersection(b, a)
        if alg > i_ab or (i_ab - alg) % 2 or i_ab != i_ba:
            failures.append((a, b, alg, i_ab, i_ba))
    return PropertyReport("genus2-intersection-bounds", iterations, failures)


def check_genus2_minimal_position(rng: random.Random,
                                  iterations: int) -> PropertyReport:
    """On ordered pairs of genus-2 classes of weight <= 12, `minimize`
    leaves exactly i(b, a) crossings."""
    failures = []
    tri = canonical_triangulation(2)
    curves = enumerate_essential_curves(2, 12)
    for _ in range(iterations):
        a, b = rng.sample(curves, 2)
        arr = arrangement.Arrangement(tri, [a.coords, b.coords])
        n = len(arrangement.minimize(arr))
        if n != geometric_intersection(b, a):
            failures.append((a, b, n))
    return PropertyReport("genus2-minimal-position", iterations, failures)


def check_genus2_block_certificate(rng: random.Random,
                                   iterations: int) -> PropertyReport:
    """On random pairs of connected essential genus-2 vectors of weight
    <= 16 that `_blocks_meet` settles, `minimize` ends at |a . b|."""
    failures, done = [], 0
    tri = canonical_triangulation(2)
    curves = [CurveClass(2, v) for v in admissible_vectors(tri, 16)
              if len(tri.trace(v)) == 1 and v != tri.vertex_link_vector()]
    while done < iterations:        # about one draw in 20 is settled
        a, b = rng.choice(curves), rng.choice(curves)
        alg = algebraic_intersection(a, b)
        if alg <= 1 and _blocks_meet(tri, a._corners, b._corners, alg):
            done += 1
            arr = arrangement.Arrangement(tri, [a.coords, b.coords])
            if len(arrangement.minimize(arr)) != alg:
                failures.append((a, b, alg))
    return PropertyReport("genus2-block-certificate", iterations, failures)


def check_session_table(rng: random.Random,
                        iterations: int) -> PropertyReport:
    """On random genus-2 diagrams whose cut systems are disjoint pairs of
    classes of weight <= 8, Γ and Λ built through one table shared by every
    iteration emit the bytes of the same builds on fresh tables.  Caps are
    drawn up to 8, so smaller caps are served from larger stored lists, and
    one iteration in four has a budget of at most 80 vectors (cap 8 has
    72), which often leaves the list partial."""
    failures = []
    curves = enumerate_essential_curves(2, 8)
    systems = []
    for a, b in itertools.combinations(curves, 2):
        if geometric_intersection(a, b) == 0:
            try:
                systems.append(validate_cut_system(2, [a, b]))
            except InvalidCutSystem:
                pass
    table = CurveTable(2)
    for _ in range(iterations):
        diagram = HeegaardDiagram(ModelSurface(2), rng.choice(systems),
                                  rng.choice(systems))
        cap = rng.randint(1, 8)
        budget = rng.randint(1, 80) if rng.random() < 0.25 else None
        for build in (build_gamma, build_lambda):
            shared = emit_graph(build(diagram, cap, budget, table))
            if shared != emit_graph(build(diagram, cap, budget)):
                failures.append((diagram, cap, budget, build.__name__))
    return PropertyReport("session-table", iterations, failures)


def check_automorphism_invariance(rng: random.Random,
                                  iterations: int) -> PropertyReport:
    """On random pairs of connected essential vectors, of weight <= 12 at
    genus 2 and <= 8 at genus 3, every automorphism σ of the triangulation
    keeps the intersection number: i(σa, σb) = i(a, b)."""
    failures = []
    pools = []
    for genus, cap in ((2, 12), (3, 8)):
        tri = canonical_triangulation(genus)
        pools.append((tri, [v for v in admissible_vectors(tri, cap)
                            if len(tri.trace(v)) == 1
                            and v != tri.vertex_link_vector()]))
    for _ in range(iterations):
        tri, vecs = rng.choice(pools)
        a, b = rng.choice(vecs), rng.choice(vecs)
        want = geometric_intersection(CurveClass(tri.genus, a),
                                      CurveClass(tri.genus, b))
        for perm in tri.automorphisms[1:]:      # the identity comes first
            got = geometric_intersection(
                CurveClass(tri.genus, tuple(a[e] for e in perm)),
                CurveClass(tri.genus, tuple(b[e] for e in perm)))
            if got != want:
                failures.append((a, b, perm, got, want))
    return PropertyReport("automorphism-invariance", iterations, failures)


def check_genus2_isotopy_lemma(rng: random.Random,
                               iterations: int) -> PropertyReport:
    """On random pairs of distinct connected essential genus-2 vectors of
    weight <= 16 in one homology bucket, the arrangement finds the curves
    isotopic exactly when they are disjoint, as `same_class` assumes."""
    failures = []
    tri = canonical_triangulation(2)
    buckets: dict = {}
    for v in admissible_vectors(tri, 16):
        if len(tri.trace(v)) == 1 and v != tri.vertex_link_vector():
            c = CurveClass(2, v)
            buckets.setdefault(c._bucket, []).append(c)
    pool = [c for group in buckets.values() if len(group) > 1 for c in group]
    for _ in range(iterations):
        a = rng.choice(pool)
        b = rng.choice([c for c in buckets[a._bucket] if c is not a])
        want = geometric_intersection(a, b) == 0
        if arrangement.isotopic(tri, a.coords, b.coords) != want:
            failures.append((a, b, want))
    return PropertyReport("genus2-isotopy-lemma", iterations, failures)


def check_capped_distance_metric(rng: random.Random,
                                 iterations: int) -> PropertyReport:
    """On Λ of a random lens space at a random cap <= 40, and on Λ of the
    standard genus-2 diagram at cap 8, each built once, `vertex_distance`
    on random triples of vertices is symmetric, is 0 only on equal
    vertices and 1 exactly on edges, and meets the triangle inequality,
    where a pair that is not connected is infinitely far apart."""
    failures = []
    p = rng.randint(2, 30)
    q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
    graphs = [build_lambda(lens_space(p, q), rng.randint(2, 40)),
              build_lambda(standard_diagram(2), 8)]
    keys = [graph.vertex_keys() for graph in graphs]

    def dist(graph, u, v) -> float:
        d = vertex_distance(graph, u, v)
        return d.value if d.connected else math.inf

    for _ in range(iterations):
        k = rng.randrange(2)
        graph, triple = graphs[k], [rng.choice(keys[k]) for _ in range(3)]
        for u, v, w in itertools.permutations(triple):
            uv = dist(graph, u, v)
            if uv != dist(graph, v, u) or (uv == 0) != (u == v) or \
                    (uv == 1) != (u != v and graph.contains_edge(u, v)) or \
                    dist(graph, u, w) > uv + dist(graph, v, w):
                failures.append((graph.genus, graph.cap, u, v, w))
                break
    return PropertyReport("capped-distance-metric", iterations, failures)


def property_suite(seed: int, iterations: int) -> list[PropertyReport]:
    """The randomized invariants behind the `proptest` command, each run
    `iterations // divisor` times on its own seed.  Seeds are drawn in the
    order of `checks`, so a new property goes last and the others keep
    theirs."""
    rng = random.Random(seed)
    checks = ((check_torus_oracle, 1), (check_move_monotonicity, 1),
              (check_commutation, 2), (check_genus2_intersection, 1),
              (check_genus2_minimal_position, 1),
              (check_genus2_block_certificate, 1), (check_session_table, 2),
              (check_automorphism_invariance, 1),
              (check_genus2_isotopy_lemma, 1),
              (check_capped_distance_metric, 1))
    return [check(random.Random(rng.randrange(2 ** 32)), iterations // divisor)
            for check, divisor in checks]
