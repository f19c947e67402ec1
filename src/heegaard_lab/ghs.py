"""The symbolic generalized-Heegaard-splitting calculus.

Surfaces appear only through the multiset of genera of their closed
components; the complexity of a collection is sum (2g)^2 over components,
which every weak reduction and destabilization strictly decreases.  A GHS is
an alternating sequence of collections: even indices thin (first and last
being the boundary of the ambient manifold, empty for closed manifolds), odd
indices thick and nonempty.

Both moves follow one rule, the cancellation step of thin position: the
thick level becomes a zigzag of levels (F_D, F_DE, F_E for a weak reduction
along disks D and E, F_D alone for a destabilization), and an end of the
zigzag that equals the thin level beside it cancels with that level.  The
case letter says which ends match: (a) neither, (b) the lower, (c) the
upper, (d) both; the single level of a destabilization then cancels on the
side the move names.  A move that would cancel into a boundary collection
is rejected.

Move normalization: genus-0 components produced by a move are deleted, and
an interior thin level left empty merges its two flanking thick levels into
one (a union of splittings of the now-joined submanifold).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import InputError


class InvalidGHS(InputError):
    pass


class InvalidMove(InputError):
    pass


Collection = tuple[int, ...]        # genera, sorted non-increasing


def collection(genera: Sequence[int]) -> Collection:
    out = tuple(sorted(map(int, genera), reverse=True))
    if out and out[-1] < 0:
        raise InvalidGHS("negative genus")
    return out


def complexity(sc: Sequence[int]) -> int:
    """c(F) = sum over components of (2 - chi)^2 = sum (2g)^2."""
    return sum((2 * g) ** 2 for g in sc)


def compare_collections(a: Sequence[int], b: Sequence[int]) -> str:
    ca, cb = complexity(a), complexity(b)
    return "less" if ca < cb else "greater" if ca > cb else "equal"


# Entries kept by each memo of the calculus; a long session evicts the least
# recently used collections instead of keeping them all.
MEMO_ENTRIES = 4096


@dataclass(frozen=True)
class GHS:
    """Alternating thin/thick sequence F_0, ..., F_2n; F_0 and F_2n are the
    (possibly empty) boundary collections and are never touched by moves."""

    levels: tuple[Collection, ...]

    @staticmethod
    def of(levels: Sequence[Sequence[int]]) -> "GHS":
        g = GHS(tuple(collection(level) for level in levels))
        errors = validate_ghs(g)
        if errors:
            raise InvalidGHS("; ".join(errors))
        return g

    @staticmethod
    def closed_splitting(genus: int) -> "GHS":
        return GHS.of([[], [genus], []])

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def thick_indices(self) -> list[int]:
        return list(range(1, self.n_levels, 2))

    def boundary(self) -> tuple[Collection, Collection]:
        return (self.levels[0], self.levels[-1])

    @functools.cached_property
    def _key(self) -> tuple[int, ...]:
        """`ghs_key` as a tuple, computed on first use.  It is not a field,
        so it takes no part in ==, hash or repr."""
        return tuple(sorted((complexity(level) for level in self.levels[1::2]),
                            reverse=True))

    def __repr__(self) -> str:
        parts = []
        for i, level in enumerate(self.levels):
            inner = ",".join(str(g) for g in level) if level else "-"
            parts.append(f"[{inner}]" if i % 2 else f"({inner})")
        return "GHS " + " ".join(parts)


def validate_ghs(ghs: GHS) -> list[str]:
    """Itemized violations; empty list means valid."""
    errors = []
    levels = ghs.levels
    last = len(levels) - 1
    if len(levels) % 2 == 0 or len(levels) < 3:
        errors.append(f"level count {len(levels)} is not an odd number >= 3")
    for i, level in enumerate(levels):
        problems = _level_problems(level, i % 2 == 1, 0 < i < last)
        if problems:
            errors += [problem.format(i) for problem in problems]
    return errors


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _level_problems(level: Collection, thick: bool,
                    interior: bool) -> tuple[str, ...]:
    """The violations of one level, each with {} for its index.  A level is
    judged only by its genera, its parity and whether it is interior."""
    problems = []
    if level and min(level) < 0:
        problems.append("level {} has a negative genus")
    if tuple(sorted(level, reverse=True)) != level:
        problems.append("level {} is not sorted non-increasing")
    if thick and not level:
        problems.append("thick level {} is empty")
    if not thick and interior and not level:
        problems.append(
            "interior thin level {} is empty (unmerged thick levels)")
    if interior and 0 in level:
        problems.append("interior level {} has a 2-sphere component")
    return tuple(problems)


def ghs_key(ghs: GHS) -> list[int]:
    """Thick-level complexities in non-increasing order."""
    return list(ghs._key)


def compare_ghs(a: GHS, b: GHS) -> str:
    """Lexicographic on keys; a shorter list that is a prefix is smaller."""
    ka, kb = a._key, b._key
    return "less" if ka < kb else "greater" if ka > kb else "equal"


# ---------------------------------------------------------------------------
# Compressions and moves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompressionDescriptor:
    """A symbolic compressing disk: side "down" means the disk lives toward
    the lower-index thin level, "up" toward the higher one."""

    side: str
    target_genus: int
    kind: tuple          # ("nonsep",) or ("sep", g1, g2)

    def __post_init__(self):
        if self.side not in ("down", "up"):
            raise InvalidMove(f"descriptor side {self.side!r}")
        if self.kind[0] == "nonsep":
            if self.target_genus < 1:
                raise InvalidMove("non-separating compression needs genus >= 1")
        elif self.kind[0] == "sep":
            _, g1, g2 = self.kind
            if g1 < 0 or g2 < 0 or g1 + g2 != self.target_genus:
                raise InvalidMove(
                    f"separating split {g1}+{g2} != {self.target_genus}")
        else:
            raise InvalidMove(f"descriptor kind {self.kind!r}")

    def essential(self) -> bool:
        return self.kind[0] == "nonsep" or min(self.kind[1], self.kind[2]) >= 1


def compress(sc: Sequence[int], d: CompressionDescriptor) -> Collection:
    """Apply one compression to the collection; genus-0 components are kept
    (normalization happens at the move level)."""
    return _compress(collection(sc), d)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _compress(sc: Collection, d: CompressionDescriptor) -> Collection:
    if d.target_genus not in sc:
        raise InvalidMove(f"no component of genus {d.target_genus} in {sc}")
    rest = list(sc)
    rest.remove(d.target_genus)
    if d.kind[0] == "nonsep":
        rest.append(d.target_genus - 1)
    else:
        rest.extend([d.kind[1], d.kind[2]])
    return collection(rest)


@dataclass(frozen=True)
class WeakReduction:
    """Case 1: disjoint disks D (down) and E (up) on a thick level; the
    caller supplies the jointly compressed collection F_DE, which must be
    reachable from F_D and from F_E by a single essential compression."""

    thick_index: int
    d: CompressionDescriptor
    e: CompressionDescriptor
    f_de: Collection

    def __post_init__(self):
        if self.d.side != "down" or self.e.side != "up":
            raise InvalidMove("weak reduction needs D down and E up")


@dataclass(frozen=True)
class Destabilization:
    """Case 2: dual disks (|D cap E| = 1) on one component.  `remove` picks
    the side in case 2(d), defaulting to the right pair {F_2i-1, F_2i}."""

    thick_index: int
    target_genus: int
    remove: str = "right"

    def __post_init__(self):
        if self.remove not in ("left", "right"):
            raise InvalidMove(f"remove must be left or right, not {self.remove!r}")
        if self.target_genus < 1:
            raise InvalidMove("destabilization needs a genus >= 1 target")


Move = WeakReduction | Destabilization


@dataclass(frozen=True)
class MoveReport:
    result: GHS
    case: str            # "1a".."1d", "2a".."2d"
    merged: bool         # normalization merged across an emptied thin level
    level_delta: int


def _strip_and_merge(levels: list[Collection]) -> tuple[list[Collection], bool]:
    """Sphere rule, then collapse interior thin levels that became empty."""
    out = [tuple(filter(None, level)) if 0 < i < len(levels) - 1 and 0 in level
           else level for i, level in enumerate(levels)]
    merged = False
    while True:
        empty_thin = next((i for i in range(2, len(out) - 2, 2) if not out[i]),
                          None)
        if empty_thin is None:
            break
        joined = collection(out[empty_thin - 1] + out[empty_thin + 1])
        out = out[:empty_thin - 1] + [joined] + out[empty_thin + 2:]
        merged = True
    return out, merged


def _finish(old: GHS, levels: list[Collection], case: str,
            within: Optional[frozenset] = None) -> Optional[MoveReport]:
    """Normalize the moved levels, each already a sorted collection, and
    check the result.  Given `within`, a result outside it is dropped
    (None) before any check runs."""
    levels, merged = _strip_and_merge(levels)
    new = GHS(tuple(levels))
    if within is not None and new not in within:
        return None
    errors = validate_ghs(new)
    if errors:
        raise InvalidMove(f"move yields an invalid GHS: {'; '.join(errors)}")
    if new.boundary() != old.boundary():
        # Cannot happen: `_cancel` refuses to cancel into a boundary, and
        # `_strip_and_merge` touches only interior levels.
        raise AssertionError(f"move changed the boundary: {old} -> {new}")
    if compare_ghs(new, old) != "less":
        # Happens only when the merge rule collapses the result back onto the
        # input (cross-component disks whose spheres empty a thin level);
        # such a pair is not a move of a connected manifold's GHS.
        raise InvalidMove(f"move does not shrink the GHS: {old} -> {new}")
    return MoveReport(new, case, merged, new.n_levels - old.n_levels)


def _thick(ghs: GHS, t: int) -> Collection:
    if t not in ghs.thick_indices():
        raise InvalidMove(f"{t} is not a thick index of {ghs}")
    return ghs.levels[t]


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _one_step_compressions(sc: Collection) -> frozenset[Collection]:
    """Collections reachable from sc by one essential compression."""
    return frozenset(_compress(sc, d) for d in _descriptors(sc, "down"))


def _one_compression_apart(sc: Collection, out: Collection) -> bool:
    """Whether out is in `_one_step_compressions(sc)`: one component g >= 1
    of sc is replaced by g - 1, or by g1, g2 >= 1 with g1 + g2 = g.  Read
    off the multiset difference of the sorted collections, in time linear in
    their length, not in the genus.  Its two sides share no genus, so no
    part of a split is 0; no genus is negative, so a gained g - 1 has g >= 1.
    """
    lost, gained = [], []
    i = j = 0
    while i < len(sc) and j < len(out):
        if sc[i] == out[j]:
            i, j = i + 1, j + 1
        elif sc[i] > out[j]:
            lost.append(sc[i])
            i += 1
        else:
            gained.append(out[j])
            j += 1
    lost += sc[i:]
    gained += out[j:]
    if len(lost) != 1:
        return False
    g = lost[0]
    return gained == [g - 1] or (len(gained) == 2 and sum(gained) == g)


def _cancel(ghs: GHS, t: int, zigzag: tuple[Collection, ...],
            remove: str = "right") -> tuple[list[Collection], str]:
    """Cases 1(a)-2(d) by the module's one rule: thick level t becomes the
    zigzag, (F_D, F_DE, F_E) or, as dual disks give F_E = F_D, (F_D,), and
    an end equal to the thin level beside it cancels with that level; a
    one-level zigzag cancels once, on the `remove` side if both match.
    Returns the moved levels, not yet normalized, and the case."""
    levels = list(ghs.levels)
    lower = zigzag[0] == levels[t - 1]
    upper = zigzag[-1] == levels[t + 1]
    n = len(zigzag)
    case = ("1" if n == 3 else "2") + "abcd"[lower + 2 * upper]
    if n == 1 and lower and upper:
        lower, upper = remove == "left", remove == "right"
    if (lower and t == 1) or (upper and t == len(levels) - 2):
        choice = f" ({remove})" if case == "2d" else ""
        verb = "rewrite" if n == 3 else "delete"
        where = ("a boundary collection" if lower and upper
                 else "the lower boundary" if lower else "the upper boundary")
        raise InvalidMove(f"case {case}{choice} would {verb} {where}")
    levels[t - lower:t + 1 + upper] = zigzag[lower:n - upper]
    return levels, case


def apply_move(ghs: GHS, m: Move) -> GHS:
    return apply_move_report(ghs, m).result


def apply_move_report(ghs: GHS, m: Move) -> MoveReport:
    """A move from `enumerate_moves` carries its checked report, returned
    for a GHS equal to the one it came from; any other move is checked."""
    checked = getattr(m, "_checked", None)
    if checked is not None and (checked[0] is ghs or checked[0] == ghs):
        return checked[1]
    if not isinstance(m, Move):
        raise InvalidMove(f"unknown move {m!r}")
    t = m.thick_index
    f_t = _thick(ghs, t)
    if isinstance(m, Destabilization):
        f_d = compress(f_t, CompressionDescriptor(
            "down", m.target_genus, ("nonsep",)))
        return _finish(ghs, *_cancel(ghs, t, (f_d,), m.remove))
    if not (m.d.essential() and m.e.essential()):
        raise InvalidMove("compressions along inessential disks are not moves")
    f_d, f_e, f_de = compress(f_t, m.d), compress(f_t, m.e), collection(m.f_de)
    if not (_one_compression_apart(f_d, f_de)
            and _one_compression_apart(f_e, f_de)):
        raise InvalidMove(
            f"F_DE={f_de} is not one compression away from both "
            f"F_D={f_d} and F_E={f_e}")
    return _finish(ghs, *_cancel(ghs, t, (f_d, f_de, f_e)))


def stabilize(ghs: GHS, thick_index: int, component_genus: int) -> GHS:
    """Connect-sum the standard genus-1 splitting into one thick component:
    its genus grows by one.  Inverse of a 2(a) destabilization there."""
    f_t = _thick(ghs, thick_index)
    if component_genus not in f_t:
        raise InvalidMove(
            f"no component of genus {component_genus} at level {thick_index}")
    rest = list(f_t)
    rest.remove(component_genus)
    rest.append(component_genus + 1)
    levels = list(ghs.levels)
    levels[thick_index] = collection(rest)
    return GHS(tuple(levels))


# ---------------------------------------------------------------------------
# Move enumeration (the symbolic oracle's ground truth)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _descriptors(sc: Collection,
                 side: str) -> tuple[CompressionDescriptor, ...]:
    out = []
    for g in sorted(set(sc), reverse=True):
        if g >= 1:
            out.append(CompressionDescriptor(side, g, ("nonsep",)))
        for g1 in range(1, g // 2 + 1):
            out.append(CompressionDescriptor(side, g, ("sep", g1, g - g1)))
    return tuple(out)


def enumerate_moves(ghs: GHS) -> list[Move]:
    """Every valid move from the GHS, deterministically ordered: all weak
    reductions (with every consistent F_DE) and all destabilizations
    (including both 2(d) removal choices when the case arises)."""
    return [move for move, _ in _moves_with_reports(ghs)]


def _carrying(move: Move, ghs: GHS, report: MoveReport) -> Move:
    """The move, carrying its report on the GHS: like `GHS._key` not a
    field, so a copy by `dataclasses.replace` or from JSON carries none."""
    object.__setattr__(move, "_checked", (ghs, report))
    return move


def _moves_with_reports(ghs: GHS, within: Optional[frozenset] = None
                        ) -> Iterator[tuple[Move, MoveReport]]:
    """The moves of `enumerate_moves`, each carrying and paired with its
    report; given `within`, only those whose result lies in it.  Every
    descriptor is essential and F_DE one compression from F_D and F_E by
    construction, so the checks `apply_move` adds to `_finish` pass."""
    for t in ghs.thick_indices():
        f_t = ghs.levels[t]
        for d in _descriptors(f_t, "down"):
            f_d = _compress(f_t, d)
            for e in _descriptors(f_t, "up"):
                f_e = _compress(f_t, e)
                for f_de in sorted(_one_step_compressions(f_d)
                                   & _one_step_compressions(f_e)):
                    try:
                        report = _finish(ghs, *_cancel(
                            ghs, t, (f_d, f_de, f_e)), within)
                    except InvalidMove:
                        continue
                    if report is not None:
                        yield _carrying(WeakReduction(t, d, e, f_de), ghs,
                                        report), report
        for g in sorted({g for g in f_t if g >= 1}, reverse=True):
            f_d = _compress(f_t, CompressionDescriptor("down", g, ("nonsep",)))
            # Only case 2(d), F_D on both flanking thin levels, has a choice.
            case_2d = f_d == ghs.levels[t - 1] == ghs.levels[t + 1]
            for remove in ("right", "left") if case_2d else ("right",):
                try:
                    report = _finish(ghs, *_cancel(
                        ghs, t, (f_d,), remove), within)
                except InvalidMove:
                    continue
                if report is not None:
                    yield _carrying(Destabilization(t, g, remove), ghs,
                                    report), report
