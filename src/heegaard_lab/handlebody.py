"""Heegaard diagrams: cut systems, boundary words, and the disk test.

A side of a diagram is a handlebody H with the given cut system as
meridians.  The cyclic word of signed crossings of a curve with the
meridians spells its free homotopy class in pi_1(H), the free group on the
meridians' dual loops.  By Dehn's lemma the curve bounds a disk in H iff that
class is trivial, that is iff the word reduces (freely and cyclically) to
the empty word.  Any representative transverse to the meridians gives the
word up to that reduction, so the disk test reads it off the curve as first
drawn.  `boundary_word` reads it from a minimal-position arrangement, so its
length equals the total geometric intersection with the system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import arrangement
from .errors import InputError
from .surface import (
    CurveClass,
    ModelSurface,
    SurfaceMismatch,
    _component_counts,
    _z2_rank,
    algebraic_intersection,
    canonical_triangulation,
    geometric_intersection,
    same_class,
)


class InvalidCutSystem(InputError):
    """The curves do not cut the surface into a single planar piece."""


@dataclass(frozen=True)
class SignedWord:
    """A cyclic word in the free group on g generators.

    Letters are (generator index 1..g, sign).  Words compare by their
    stored letters; `min_rotation` gives the lexicographically least
    rotation, which is the same for every rotation of a cyclic word.
    Reduction cancels adjacent inverse pairs, including around the wrap.
    """

    letters: tuple[tuple[int, int], ...]

    @staticmethod
    def of(letters) -> "SignedWord":
        return SignedWord(tuple((int(g), int(s)) for g, s in letters))

    def __len__(self) -> int:
        return len(self.letters)

    def min_rotation(self) -> tuple[tuple[int, int], ...]:
        if not self.letters:
            return ()
        rots = [self.letters[i:] + self.letters[:i]
                for i in range(len(self.letters))]
        return min(rots)

    def reduced(self) -> "SignedWord":
        return SignedWord(tuple(arrangement._free_reduce(
            self.letters, lambda x: (x[0], -x[1]))))

    def is_trivial(self) -> bool:
        return not self.reduced().letters

    def __repr__(self) -> str:
        if not self.letters:
            return "SignedWord(1)"
        parts = [f"x{g}" + ("" if s == 1 else "^-1") for g, s in self.letters]
        return f"SignedWord({' '.join(parts)})"


@dataclass(frozen=True)
class CutSystem:
    """g disjoint curves cutting a genus-g surface into a planar piece."""

    surface: ModelSurface
    curves: tuple[CurveClass, ...]

    @property
    def genus(self) -> int:
        return self.surface.genus

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """The curves' coordinate vectors, one tuple per system."""
        return tuple(c.coords for c in self.curves)

    def union_vector(self) -> tuple[int, ...]:
        n = canonical_triangulation(self.genus).n_edges
        return tuple(sum(c.coords[e] for c in self.curves) for e in range(n))


def validate_cut_system(surface: ModelSurface | int,
                        curves: Sequence[CurveClass]) -> CutSystem:
    """Check the two cut-system invariants and return the system.

    g pairwise disjoint curves whose stored vectors overlay disjointly cut
    S into 1 + g - r pieces, r the rank of their classes in H_1(S; Z/2), so
    into one piece, planar by its Euler characteristic, exactly when r = g.

    Raises InvalidCutSystem on: wrong curve count, an intersecting or
    repeated pair, a system whose stored vectors cannot be realized
    disjointly, or a cut complement that is not a single piece.
    """
    genus = surface.genus if isinstance(surface, ModelSurface) else surface
    surface = ModelSurface(genus)
    curves = tuple(curves)
    if len(curves) != genus:
        raise InvalidCutSystem(
            f"need exactly {genus} curves for genus {genus}, got {len(curves)}")
    for c in curves:
        if c.genus != genus:
            raise SurfaceMismatch("cut curve lives on a different surface")
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            if same_class(curves[i], curves[j]):
                raise InvalidCutSystem(
                    f"curves {i} and {j} are parallel copies of one class")
            n = geometric_intersection(curves[i], curves[j])
            if n != 0:
                raise InvalidCutSystem(
                    f"curves {i} and {j} intersect in {n} points")
    tri = canonical_triangulation(genus)
    system = CutSystem(surface, curves)
    if _component_counts(tri, system.union_vector()) != Counter(
            c.coords for c in curves):
        raise InvalidCutSystem(
            "the stored coordinate vectors do not overlay disjointly; "
            "re-supply representatives that are disjoint as drawn")
    rank = _z2_rank(c._bucket for c in curves)
    if rank != genus:
        raise InvalidCutSystem(
            f"cut complement has {1 + genus - rank} pieces, expected 1")
    return system


@dataclass(frozen=True)
class HeegaardDiagram:
    """A closed surface with a red and a blue cut system."""

    surface: ModelSurface
    red: CutSystem
    blue: CutSystem

    def __post_init__(self):
        if self.red.surface != self.surface or self.blue.surface != self.surface:
            raise SurfaceMismatch("cut systems live on different surfaces")

    @property
    def genus(self) -> int:
        return self.surface.genus

    def side(self, name: str) -> CutSystem:
        if name == "red":
            return self.red
        if name == "blue":
            return self.blue
        raise ValueError(f"side must be 'red' or 'blue', not {name!r}")


def boundary_word(c: CurveClass, cut: CutSystem,
                  minimal: bool = True) -> SignedWord:
    """Cyclic signed crossing sequence of the curve with the cut system, read
    from a minimal-position representative.  Its length is the sum of the
    geometric intersection numbers with the cut curves.  `minimal=False`
    reads it off the curve as first drawn (see the module docstring)."""
    if c.genus != cut.genus:
        raise SurfaceMismatch("curve and cut system on different surfaces")
    tri = canonical_triangulation(c.genus)
    letters, _counts = arrangement.crossing_word(
        tri, c.coords, cut.vectors, minimal)
    return SignedWord.of((g + 1, s) for g, s in letters)


def bounds_disk(c: CurveClass, side: str, diagram: HeegaardDiagram) -> bool:
    """Does the curve bound a disk in the named handlebody?  By Dehn's
    lemma, iff its boundary word freely and cyclically reduces to the empty
    word.  Any representative transverse to the meridians spells that word
    up to reduction, so it is read off the curve as first drawn.

    The exponent sum of generator j in that word is the algebraic
    intersection with meridian j, and reduction preserves exponent sums, so
    a nonzero one rules the disk out before any arrangement is built.  A
    solid torus has one disk boundary, its meridian, and that is the only
    torus class pairing to 0 with it, so at genus 1 this test decides."""
    cut = diagram.side(side)
    if any(algebraic_intersection(c, z) for z in cut.curves):
        return False
    return c.genus == 1 or boundary_word(c, cut, minimal=False).is_trivial()


# ---------------------------------------------------------------------------
# Stock diagrams
# ---------------------------------------------------------------------------


def torus_diagram(red_slope: tuple[int, int],
                  blue_slope: tuple[int, int]) -> HeegaardDiagram:
    surface = ModelSurface(1)
    red = validate_cut_system(surface, [CurveClass.from_slope(*red_slope)])
    blue = validate_cut_system(surface, [CurveClass.from_slope(*blue_slope)])
    return HeegaardDiagram(surface, red, blue)


def s3_genus1() -> HeegaardDiagram:
    return torus_diagram((1, 0), (0, 1))


def lens_space(p: int, q: int) -> HeegaardDiagram:
    """L(p, q): red meridian (1, 0), blue meridian (q, p) up to convention."""
    return torus_diagram((1, 0), (q, p))


def s2_x_s1() -> HeegaardDiagram:
    return torus_diagram((1, 0), (1, 0))


def standard_diagram(genus: int) -> HeegaardDiagram:
    """The standard genus-g diagram of the 3-sphere: red meridians are the
    a-handle loops, blue meridians the b-handle loops, i(r_i, b_j) = delta."""
    if genus == 1:
        return s3_genus1()
    tri = canonical_triangulation(genus)
    surface = ModelSurface(genus)

    def small_pushoff(name: str) -> CurveClass:
        e = tri.edge_index(name)
        best = min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                   key=lambda v: (sum(v), v))
        return CurveClass(genus, best)

    red = validate_cut_system(
        surface, [small_pushoff(f"a{i}") for i in range(1, genus + 1)])
    blue = validate_cut_system(
        surface, [small_pushoff(f"b{i}") for i in range(1, genus + 1)])
    return HeegaardDiagram(surface, red, blue)
