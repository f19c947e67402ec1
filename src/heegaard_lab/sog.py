"""Sequences of GHSs: orderings, move graphs, and flattening.

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
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .ghs import (
    GHS,
    Destabilization,
    InvalidMove,
    Move,
    _carrying,
    _moves_with_reports,
    apply_move,
    apply_move_report,
    collection,
    validate_ghs,
)


class InvalidSOG(InputError):
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
    keys = [sog.ghss[k]._key for k in maximal_positions(sog)]
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


class MoveGraph:
    """A finite move graph, numbered once for flattening.

    `nodes` are distinct hashable values in the order `nodes()` lists them,
    `ghss` and `labels` their GHSs and labels, and each edge joins two
    nodes.  Each node's edges are sorted by (parent label, child label,
    repr(move)), so flattening reads every oracle alike.  A subclass builds
    the nodes and edges and supplies `resolve`, which names a node from what
    a caller passes.
    """

    def __init__(self, nodes: Sequence, ghss: Sequence[GHS],
                 labels: Sequence[str], edges: Iterable[OracleEdge]):
        self._nodes = list(nodes)
        self._number = {node: i for i, node in enumerate(self._nodes)}
        self._ghss = list(ghss)
        self._labels = list(labels)
        self._keys = [g._key for g in self._ghss]
        arcs: list[list] = [[] for _ in self._nodes]
        for edge in edges:
            p, c = self._number[edge.parent], self._number[edge.child]
            order = (self._labels[p], self._labels[c], repr(edge.move))
            arcs[p].append((order, c, True, edge))
            arcs[c].append((order, p, False, edge))
        # Each node's edges as (the other end's number, whether the edge
        # descends from this node, the edge); the sort is stable.
        self._arcs = [[arc[1:] for arc in sorted(a, key=itemgetter(0))]
                      for a in arcs]

    def nodes(self) -> list:
        return list(self._nodes)

    def ghs_of(self, node) -> GHS:
        return self._ghss[self._number[node]]

    def label_of(self, node) -> str:
        return self._labels[self._number[node]]

    def edges_at(self, node) -> list[OracleEdge]:
        return [edge for _, _, edge in self._arcs[self._number[node]]]


class InventoryOracle(MoveGraph):
    """A declared finite stock of splitting labels per genus with a
    stabilization map.  The map is a function: stabilization is unique, so
    each label has exactly one stabilization.  Nodes are the labels, in
    sorted order; each label's GHS, and each edge as a move from the higher
    label's GHS to the lower one's, is checked when the oracle is built.
    Labels must be printable, so that a message naming one is one line."""

    def __init__(self, splittings: dict[int, Sequence[str]],
                 stabilize_map: dict[str, str],
                 boundary: tuple = ((), ())):
        for label in itertools.chain(*splittings.values(), stabilize_map,
                                     stabilize_map.values()):
            if not str.isprintable(label):
                raise InputError(f"label {label!r} is not printable")
        genus_of: dict[str, int] = {}
        for genus, labels in splittings.items():
            for label in labels:
                if label in genus_of:
                    raise InputError(f"label {label!r} declared twice")
                genus_of[label] = int(genus)
        for lo, hi in stabilize_map.items():
            if lo not in genus_of or hi not in genus_of:
                raise InputError(f"stabilize map uses undeclared label {lo}->{hi}")
            if genus_of[hi] != genus_of[lo] + 1:
                raise InputError(
                    f"stabilize({lo}) = {hi} does not raise genus by one")
        self.boundary = b1, b2 = (collection(boundary[0]),
                                  collection(boundary[1]))
        labels = sorted(genus_of)
        ghs_of = {lab: GHS.of([b1, [genus_of[lab]], b2]) for lab in labels}
        edges = []
        for lo, hi in stabilize_map.items():
            move = Destabilization(1, genus_of[hi])
            try:
                report = apply_move_report(ghs_of[hi], move)
                if report.result != ghs_of[lo]:
                    raise InvalidMove(f"it gives {report.result}")
            except InvalidMove as exc:
                raise InputError(
                    f"stabilize({lo}) = {hi} is not a move: {exc}") from None
            edges.append(OracleEdge(hi, lo, _carrying(move, ghs_of[hi],
                                                      report)))
        super().__init__(labels, list(ghs_of.values()), labels, edges)

    def resolve(self, x) -> str:
        if isinstance(x, str):
            if x not in self._number:
                raise InputError(f"unknown splitting label {x!r}")
            return x
        if isinstance(x, GHS):
            matches = [lab for lab, g in zip(self._nodes, self._ghss)
                       if g.levels == x.levels]
            if len(matches) != 1:
                raise InputError(
                    f"{x} matches {len(matches)} inventory labels; "
                    "pass the label itself")
            return matches[0]
        raise TypeError(f"cannot resolve {x!r} to an inventory label")


@dataclass(frozen=True)
class SymbolicBudget:
    """Bounds for the symbolic state space: total genus summed over all
    interior collections, and the number of levels in a sequence."""

    max_total_genus: int
    max_levels: int = 7


class SymbolicOracle(MoveGraph):
    """The full move graph over every valid GHS within a budget, with the
    fixed boundary pair.  Exact within the budget: edges are all valid moves
    whose results stay inside the space; geometric realizability is not
    checked, so the graph over-approximates the SOG space.  Nodes are the
    GHSs themselves, labelled by their repr."""

    def __init__(self, budget: SymbolicBudget, boundary: tuple = ((), ())):
        self.budget = budget
        self.boundary = (collection(boundary[0]), collection(boundary[1]))
        states = self._enumerate_states()
        inside = frozenset(states)
        super().__init__(
            states, states, [repr(g) for g in states],
            (OracleEdge(g, report.result, move) for g in states
             for move, report in _moves_with_reports(g, inside)))

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
        """Every GHS with at most max(1, (max_levels - 1) // 2) thick
        levels whose interior collections are nonempty with total genus
        within the budget.  Each is valid and is built once."""
        budget = self.budget
        colls = [(coll, sum(coll)) for coll in
                 self._nonempty_collections(budget.max_total_genus)]
        states = []
        max_thick = max(1, (budget.max_levels - 1) // 2)
        for n_thick in range(1, max_thick + 1):
            n_interior = 2 * n_thick - 1

            def rec(i, remaining, acc):
                if i == n_interior:
                    states.append(GHS.of(
                        [self.boundary[0], *acc, self.boundary[1]]))
                    return
                for coll, genus in colls:
                    if genus <= remaining:
                        rec(i + 1, remaining - genus, acc + [coll])

            rec(0, budget.max_total_genus, [])
        return sorted(states, key=lambda g: (g.n_levels, g._key, g.levels))

    def resolve(self, x) -> GHS:
        if not isinstance(x, GHS):
            raise TypeError("symbolic oracle nodes are GHS values")
        if x not in self._number:
            raise KeyError(f"{x} lies outside the budgeted state space")
        return x


# ---------------------------------------------------------------------------
# Flattening
# ---------------------------------------------------------------------------


_TERMINAL = -1       # flatten's sentinel state, reached from the end node


def flatten(start, end, oracle: MoveGraph, budget: int = 100000) -> SOG:
    """A SOG from start to end that minimizes (MaxKey, length, labels
    joined by "/"), compared in that order, over every zigzag between them
    in the oracle's move graph.  Exact within the oracle's space.

    The oracle resolves both endpoints to nodes; the search then reads the
    graph's node numbers, labels, keys and sorted edges.  It is a Dijkstra
    over (node, arrived ascending) states, sound because every part of the
    priority only grows along a zigzag and keeps its order under a common
    extension.  For the joined labels that needs no label to contain "/":
    two zigzags of one length to one node then never have joined labels of
    which one is a proper prefix of the other.

    Raises FlattenBudgetExhausted when the endpoints cannot be joined within
    the budgeted search.
    """
    s = oracle._number[oracle.resolve(start)]
    t = oracle._number[oracle.resolve(end)]
    labels, keys, arcs = oracle._labels, oracle._keys, oracle._arcs
    if s == t:
        return SOG.of([oracle._ghss[s]], [], labels=[labels[s]])

    # State 2*i + 1 means node i arrived at ascending, 2*i descending.  The
    # start counts as arrived ascending, so leaving it downward records it
    # as a peak; reaching the end ascending records the end.  A terminal
    # sentinel carries the end node's own contribution so the heap order
    # reflects final objectives.
    start_state = 2 * s + 1
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
            return _reconstruct(oracle, parent, multiset)
        i, arrived_asc = divmod(state, 2)
        # The multiset after leaving downward: a peak if we came up.
        peaked = tuple(sorted(multiset + (keys[i],), reverse=True)) \
            if arrived_asc else multiset
        if i == t:
            relax(_TERMINAL, (peaked, length, serial), (state, None, None))
        for j, descending, edge in arcs[i]:
            relax(2 * j + (not descending),
                  (peaked if descending else multiset, length + 1,
                   serial + "/" + labels[j]),
                  (state, edge, descending))
    raise FlattenBudgetExhausted(
        "unknown: the endpoints are not joined within the oracle's space")


def _reconstruct(oracle: MoveGraph, parent, final_multiset) -> SOG:
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
    steps = []
    for k, (edge, descending) in enumerate(edges):
        steps.append(SOGStep(k if descending else k + 1, edge.move))
    sog = SOG.of([oracle._ghss[i] for i in ids], steps,
                 labels=[oracle._labels[i] for i in ids])
    if max_key(sog) != final_multiset:
        raise AssertionError(
            f"flatten bookkeeping mismatch: {max_key(sog)} != {final_multiset}")
    return sog
