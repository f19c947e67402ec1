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
from .disk_complex import CurveTable, build_gamma, build_lambda, emit_graph
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
from .handlebody import HeegaardDiagram, InvalidCutSystem, validate_cut_system
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
# Slopes up to this size are also checked through the arrangement engine.
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
    """geometric_intersection equals |ps - qr|, both through the slope fast
    path and, for small slopes, through the arrangement engine."""
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
        if max(abs(a.p), abs(a.q), abs(b.p), abs(b.q)) <= ENGINE_BOUND \
                and a != b:
            raw = arrangement.intersection_number(tri, a.coords(), b.coords())
            if raw != want:
                failures.append(("engine", a, b, raw, want))
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
            out = apply_move(g, move)
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
    leaves no bigon region, and exactly i(b, a) crossings."""
    failures = []
    tri = canonical_triangulation(2)
    curves = enumerate_essential_curves(2, 12)
    for _ in range(iterations):
        a, b = rng.sample(curves, 2)
        arr = arrangement.Arrangement(tri, [a.coords, b.coords])
        n = len(arrangement.minimize(arr))
        if n != geometric_intersection(b, a) or any(
                r.chi == 1 and len(r.crossing_keys) == 2
                for r in arr.analyze()):
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


def property_suite(seed: int, iterations: int) -> list[PropertyReport]:
    """The randomized invariants behind the `proptest` command."""
    reports = []
    rng = random.Random(seed)
    reports.append(check_torus_oracle(
        random.Random(rng.randrange(2 ** 32)), iterations))
    reports.append(check_move_monotonicity(
        random.Random(rng.randrange(2 ** 32)), iterations))
    reports.append(check_commutation(
        random.Random(rng.randrange(2 ** 32)), iterations // 2))
    reports.append(check_genus2_intersection(
        random.Random(rng.randrange(2 ** 32)), iterations))
    reports.append(check_genus2_minimal_position(
        random.Random(rng.randrange(2 ** 32)), iterations))
    reports.append(check_genus2_block_certificate(
        random.Random(rng.randrange(2 ** 32)), iterations))
    reports.append(check_session_table(
        random.Random(rng.randrange(2 ** 32)), iterations // 2))
    return reports
