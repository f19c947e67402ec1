"""Sequences of GHSs: orderings, flattening, and splitting distance.

A SOG is a zigzag of GHSs in which each consecutive pair is related by one
recorded move; the engine replays every move to admit a sequence.  Flattening
minimizes, lexicographically, the non-increasing multiset of keys of the
locally maximal GHSs, over all zigzags through an oracle's move graph; the
search is an exact Dijkstra whose priority is that multiset (extended by
length and a serialized-path tiebreak, so results are schedule-independent).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import disk_complex
from .disk_complex import DistanceResult
from .ghs import (
    GHS,
    Destabilization,
    InvalidGHS,
    InvalidMove,
    Move,
    _moves_with_reports,
    apply_move,
    collection,
    ghs_key,
    validate_ghs,
)
from .handlebody import HeegaardDiagram


class InvalidSOG(ValueError):
    pass


class FlattenBudgetExhausted(RuntimeError):
    """Flattening could not connect the endpoints within the budgeted space."""


@dataclass(frozen=True)
class SOGStep:
    """Annotation of one consecutive pair: ghss[src] is the source and the
    other member is obtained from it by `move`."""

    src: int
    move: Move


@dataclass(frozen=True)
class SOG:
    ghss: tuple[GHS, ...]
    steps: tuple[SOGStep, ...]
    labels: Optional[tuple[str, ...]] = None

    @staticmethod
    def of(ghss: Sequence[GHS], steps: Sequence[SOGStep],
           labels: Optional[Sequence[str]] = None) -> "SOG":
        sog = SOG(tuple(ghss), tuple(steps),
                  tuple(labels) if labels is not None else None)
        sog.validate()
        return sog

    def validate(self) -> None:
        """Replay soundness: every recorded move reproduces its target."""
        if not self.ghss:
            raise InvalidSOG("a SOG needs at least one GHS")
        if len(self.steps) != len(self.ghss) - 1:
            raise InvalidSOG("need exactly one step per consecutive pair")
        if self.labels is not None and len(self.labels) != len(self.ghss):
            raise InvalidSOG("labels must match the GHS list")
        for g in self.ghss:
            errors = validate_ghs(g)
            if errors:
                raise InvalidSOG(f"invalid GHS in sequence: {'; '.join(errors)}")
        for k, step in enumerate(self.steps):
            if step.src not in (k, k + 1):
                raise InvalidSOG(f"step {k} names source {step.src}")
            src, dst = self.ghss[step.src], self.ghss[2 * k + 1 - step.src]
            try:
                result = apply_move(src, step.move)
            except InvalidMove as exc:
                raise InvalidSOG(f"step {k} does not replay: {exc}") from exc
            if result.levels != dst.levels:
                raise InvalidSOG(
                    f"step {k} replays to {result}, recorded {dst}")

    def __len__(self) -> int:
        return len(self.ghss)


def _extremal_positions(sog: SOG, peaks: bool) -> list[int]:
    """Indices that are the source of both neighboring steps (peaks) or
    obtained by both (valleys); an endpoint needs only its one step."""
    left, right = (0, 0) if peaks else (-1, 1)
    n = len(sog.ghss)
    return [k for k in range(n)
            if (k == 0 or sog.steps[k - 1].src == k + left)
            and (k == n - 1 or sog.steps[k].src == k + right)]


def maximal_positions(sog: SOG) -> list[int]:
    """Indices whose GHS is obtained-from by both neighbors.  An endpoint is
    maximal iff its single neighbor is obtained from it; a singleton SOG is
    both maximal and minimal."""
    return _extremal_positions(sog, peaks=True)


def minimal_positions(sog: SOG) -> list[int]:
    return _extremal_positions(sog, peaks=False)


MaxKey = tuple[tuple[int, ...], ...]


def max_key(sog: SOG) -> MaxKey:
    """Keys of the maximal GHSs, reordered non-increasingly."""
    keys = [tuple(ghs_key(sog.ghss[k])) for k in maximal_positions(sog)]
    return tuple(sorted(keys, reverse=True))


def compare_sogs(a: SOG, b: SOG) -> str:
    ka, kb = max_key(a), max_key(b)
    return "less" if ka < kb else "greater" if ka > kb else "equal"


def verify_single_maximal(sog: SOG) -> bool:
    return len(maximal_positions(sog)) == 1


# ---------------------------------------------------------------------------
# Move oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleEdge:
    parent: object
    child: object
    move: Move


class InventoryOracle:
    """A declared finite stock of splitting labels per genus with a
    stabilization map.  The map is a function: stabilization is unique, so
    each label has exactly one stabilization."""

    def __init__(self, splittings: dict[int, Sequence[str]],
                 stabilize_map: dict[str, str],
                 boundary: tuple = ((), ())):
        self.genus_of: dict[str, int] = {}
        for genus, labels in splittings.items():
            for label in labels:
                if label in self.genus_of:
                    raise ValueError(f"label {label!r} declared twice")
                self.genus_of[label] = int(genus)
        self.stab: dict[str, str] = dict(stabilize_map)
        for lo, hi in self.stab.items():
            if lo not in self.genus_of or hi not in self.genus_of:
                raise ValueError(f"stabilize map uses undeclared label {lo}->{hi}")
            if self.genus_of[hi] != self.genus_of[lo] + 1:
                raise ValueError(
                    f"stabilize({lo}) = {hi} does not raise genus by one")
        self.boundary = (collection(boundary[0]), collection(boundary[1]))
        self._edges: dict[str, list[OracleEdge]] = {
            label: [] for label in self.genus_of}
        for lo, hi in self.stab.items():
            edge = OracleEdge(hi, lo, Destabilization(1, self.genus_of[hi]))
            self._edges[lo].append(edge)
            self._edges[hi].append(edge)
        for edges in self._edges.values():
            edges.sort(key=lambda e: (str(e.parent), str(e.child)))

    def nodes(self) -> list[str]:
        return sorted(self.genus_of)

    def ghs_of(self, label: str) -> GHS:
        b1, b2 = self.boundary
        return GHS.of([b1, [self.genus_of[label]], b2])

    def label_of(self, node: str) -> str:
        return node

    def resolve(self, x) -> str:
        if isinstance(x, str):
            if x not in self.genus_of:
                raise KeyError(f"unknown splitting label {x!r}")
            return x
        if isinstance(x, GHS):
            matches = [lab for lab in self.genus_of
                       if self.ghs_of(lab).levels == x.levels]
            if len(matches) != 1:
                raise KeyError(
                    f"{x} matches {len(matches)} inventory labels; "
                    "pass the label itself")
            return matches[0]
        raise TypeError(f"cannot resolve {x!r} to an inventory label")

    def edges_at(self, node: str) -> list[OracleEdge]:
        return list(self._edges.get(node, ()))


@dataclass(frozen=True)
class SymbolicBudget:
    """Bounds for the symbolic state space: total genus summed over all
    interior collections, and the number of levels in a sequence."""

    max_total_genus: int
    max_levels: int = 7


class SymbolicOracle:
    """The full move graph over every valid GHS within a budget, with the
    fixed boundary pair.  Exact within the budget: edges are all valid moves
    whose results stay inside the space; geometric realizability is not
    checked, so the graph over-approximates the SOG space."""

    def __init__(self, budget: SymbolicBudget, boundary: tuple = ((), ())):
        self.budget = budget
        self.boundary = (collection(boundary[0]), collection(boundary[1]))
        self._nodes = self._enumerate_states()
        self._labels = {g: repr(g) for g in self._nodes}
        self._edges: dict[GHS, list[OracleEdge]] = {g: [] for g in self._nodes}
        for g in self._nodes:
            for move, report in _moves_with_reports(g):
                if report.result in self._edges:
                    edge = OracleEdge(g, report.result, move)
                    self._edges[g].append(edge)
                    self._edges[report.result].append(edge)
        labels = self._labels
        for edges in self._edges.values():
            edges.sort(key=lambda e: (labels[e.parent], labels[e.child],
                                      repr(e.move)))

    @staticmethod
    def _nonempty_collections(total: int) -> list[tuple]:
        """Non-increasing tuples of genera >= 1 with sum <= total."""
        out: list[tuple] = []

        def rec(prefix: tuple, maxpart: int, remaining: int):
            for g in range(min(maxpart, remaining), 0, -1):
                cand = prefix + (g,)
                out.append(cand)
                rec(cand, g, remaining - g)

        rec((), total, total)
        return out

    def _enumerate_states(self) -> list[GHS]:
        budget = self.budget
        states = []
        max_thick = max(1, (budget.max_levels - 1) // 2)
        for n_thick in range(1, max_thick + 1):
            n_interior = 2 * n_thick - 1

            def rec(i, remaining, acc):
                if i == n_interior:
                    levels = [self.boundary[0]] + acc + [self.boundary[1]]
                    try:
                        states.append(GHS.of(levels))
                    except InvalidGHS:
                        pass
                    return
                for coll in self._nonempty_collections(remaining):
                    rec(i + 1, remaining - sum(coll), acc + [list(coll)])

            rec(0, budget.max_total_genus, [])
        return sorted(set(states), key=lambda g: (g.n_levels, ghs_key(g), g.levels))

    def nodes(self) -> list[GHS]:
        return list(self._nodes)

    def ghs_of(self, node: GHS) -> GHS:
        return node

    def label_of(self, node: GHS) -> str:
        return self._labels.get(node) or repr(node)

    def resolve(self, x) -> GHS:
        if not isinstance(x, GHS):
            raise TypeError("symbolic oracle nodes are GHS values")
        if x not in self._edges:
            raise KeyError(f"{x} lies outside the budgeted state space")
        return x

    def edges_at(self, node: GHS) -> list[OracleEdge]:
        return list(self._edges[node])


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


_TERMINAL = -1       # flatten's sentinel state, reached from the end node


def flatten(start, end, oracle, budget: int = 100000) -> SOG:
    """A SOG from start to end that minimizes (MaxKey, length, labels
    joined by "/"), compared in that order, over every zigzag between them
    in the oracle's graph.  Exact within the oracle's space.

    The search is a Dijkstra over (node, arrived ascending) states, sound
    because every part of the priority only grows along a zigzag and keeps
    its order under a common extension.  For the joined labels that needs
    no label to contain "/": two zigzags of one length to one node then
    never have joined labels of which one is a proper prefix of the other.

    Raises FlattenBudgetExhausted when the endpoints cannot be joined within
    the budgeted search.
    """
    s = oracle.resolve(start)
    t = oracle.resolve(end)
    if s == t:
        return SOG.of([oracle.ghs_of(s)], [], labels=[oracle.label_of(s)])

    # Nodes are numbered as the search meets them, each label and key found
    # once.  State 2*i + 1 means node i arrived at ascending, 2*i
    # descending.  The start counts as arrived ascending, so leaving it
    # downward records it as a peak; reaching the end ascending records the
    # end.  A terminal sentinel carries the end node's own contribution so
    # the heap order reflects final objectives.
    ids: dict = {}
    nodes: list = []
    labels: list[str] = []
    keys: list[tuple] = []

    def node_id(n) -> int:
        i = ids.get(n)
        if i is None:
            i = ids[n] = len(nodes)
            nodes.append(n)
            labels.append(oracle.label_of(n))
            keys.append(tuple(ghs_key(oracle.ghs_of(n))))
        return i

    start_state = 2 * node_id(s) + 1
    end_id = node_id(t)
    counter = itertools.count()
    best_push: dict = {start_state: ((), 0, "")}
    parent: dict = {start_state: None}
    heap = [((), 0, "", next(counter), start_state)]
    done: set = set()
    pops = 0

    def relax(new_state, priority, origin):
        if new_state in done:
            return
        if new_state not in best_push or priority < best_push[new_state]:
            best_push[new_state] = priority
            parent[new_state] = origin
            heapq.heappush(heap, (*priority, next(counter), new_state))

    while heap:
        multiset, length, serial, _, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        pops += 1
        if pops > budget:
            raise FlattenBudgetExhausted(
                f"unknown: flattening budget of {budget} expansions exhausted")
        if state == _TERMINAL:
            return _reconstruct(oracle, parent, multiset, nodes, labels)
        i, arrived_asc = divmod(state, 2)
        node = nodes[i]
        # The multiset after leaving downward: a peak if we came up.
        peaked = tuple(sorted(multiset + (keys[i],), reverse=True)) \
            if arrived_asc else multiset
        if i == end_id:
            relax(_TERMINAL, (peaked, length, serial), (state, None, None))
        for edge in oracle.edges_at(node):
            descending = edge.parent == node
            j = node_id(edge.child if descending else edge.parent)
            relax(2 * j + (not descending),
                  (peaked if descending else multiset, length + 1,
                   serial + "/" + labels[j]),
                  (state, edge, descending))
    raise FlattenBudgetExhausted(
        "unknown: the endpoints are not joined within the oracle's space")


def _reconstruct(oracle, parent, final_multiset, nodes, labels) -> SOG:
    # Walk back from the terminal sentinel.
    state, _, _ = parent[_TERMINAL]
    chain = [state]
    edges = []
    while parent[state] is not None:
        prev, edge, descending = parent[state]
        edges.append((edge, descending))
        state = prev
        chain.append(state)
    chain.reverse()
    edges.reverse()
    ids = [c // 2 for c in chain]
    ghss = [oracle.ghs_of(nodes[i]) for i in ids]
    steps = []
    for k, (edge, descending) in enumerate(edges):
        steps.append(SOGStep(k if descending else k + 1, edge.move))
    sog = SOG.of(ghss, steps, labels=[labels[i] for i in ids])
    if max_key(sog) != final_multiset:
        raise AssertionError(
            f"flatten bookkeeping mismatch: {max_key(sog)} != {final_multiset}")
    return sog


# ---------------------------------------------------------------------------
# Splitting distance (the metric pipeline)
# ---------------------------------------------------------------------------


def splitting_distance(diagram: HeegaardDiagram, e1, e2, cap: int,
                       budget: Optional[int] = None) -> DistanceResult:
    """Distance between the two splittings destabilized by the given edges
    of the diagram's disk complex.

    e1 and e2 must be recorded intersection-1 edges of the capped complex;
    the result is the distance between their components measured in the
    capped curve complex, and 0 when one component contains both (the cap
    does not distinguish the splittings).
    """
    curves, certified = disk_complex._capped_curves(diagram, cap, budget)
    gamma = disk_complex._gamma_of(diagram, cap, curves, certified)
    e1 = tuple(sorted(tuple(map(tuple, e1))))
    e2 = tuple(sorted(tuple(map(tuple, e2))))
    for e in (e1, e2):
        if gamma.edges.get(e) != 1:
            raise KeyError(f"{e} is not an i=1 edge of the capped complex")
    comp_of = disk_complex._component_index(gamma)
    c1, c2 = comp_of[e1[0]], comp_of[e2[0]]
    if c1 == c2:
        return DistanceResult(True, 0, cap)
    lam = disk_complex._lambda_of(diagram, cap, curves, certified)
    edges1 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c1]
    edges2 = [e for e in gamma.edge_keys() if comp_of[e[0]] == c2]
    return disk_complex.component_distance(lam, edges1, edges2)
