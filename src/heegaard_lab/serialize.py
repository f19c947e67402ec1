"""JSON wire formats for curves, diagrams, GHSs, moves, SOGs, and oracles.

All emitters produce deterministic, key-sorted JSON; all parsers reject
unknown fields and values of the wrong JSON type with an InputError.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from .errors import InputError
from .ghs import (
    GHS,
    CompressionDescriptor,
    Destabilization,
    Move,
    WeakReduction,
    collection,
)
from .handlebody import HeegaardDiagram, validate_cut_system
from .sog import SOG, SOGStep, InventoryOracle
from .surface import CurveClass, ModelSurface, normalize


_SHAPE_NAMES = {int: "an integer", str: "a string", list: "a list",
                dict: "an object"}


def _expect(value, shape, what: str):
    """Return `value` if it has the JSON shape `shape`, else raise an
    InputError naming `what`.  A shape is int, str, list or dict, or [shape]
    for a list whose entries all have that shape; booleans are not
    integers."""
    if isinstance(shape, list):
        for item in _expect(value, list, what):
            _expect(item, shape[0], f"each entry of {what}")
    elif not isinstance(value, shape) or isinstance(value, bool):
        echo = json.dumps(value)     # clipped: an error is one short line
        raise InputError(f"{what} must be {_SHAPE_NAMES[shape]}, got "
                          + (echo if len(echo) <= 80 else echo[:80] + "..."))
    return value


def _check_keys(data: dict, required: set, optional: set = frozenset()):
    if not isinstance(data, dict):
        raise InputError(f"expected an object, got {type(data).__name__}")
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"missing fields {sorted(missing)}")
    if unknown:
        raise InputError(f"unknown fields {sorted(unknown)}")


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- curves -------------------------------------------------------------------


def curve_to_jsonable(c: CurveClass) -> dict:
    if c.genus == 1:
        s = c.slope()
        return {"slope": [s.p, s.q]}
    return {"genus": c.genus, "coords": list(c.coords)}


def verdict_to_jsonable(verdict) -> dict:
    """A `ClassificationVerdict`'s fields and summary; a class becomes its
    curve object and a tuple a list, recursively."""

    def jsonable(value):
        if isinstance(value, CurveClass):
            return curve_to_jsonable(value)
        if isinstance(value, tuple):
            return [jsonable(v) for v in value]
        return value

    payload = {f.name: jsonable(getattr(verdict, f.name))
               for f in dataclasses.fields(verdict)}
    payload["summary"] = verdict.summary()
    return payload


def curve_from_jsonable(data: dict) -> CurveClass:
    if "slope" in _expect(data, dict, "a curve"):
        _check_keys(data, {"slope"})
        slope = _expect(data["slope"], [int], "slope")
        if len(slope) != 2:
            raise InputError(f"slope needs 2 integers, got {len(slope)}")
        return CurveClass.from_slope(*slope)
    _check_keys(data, {"genus", "coords"})
    result = normalize(_expect(data["genus"], int, "genus"),
                       _expect(data["coords"], [int], "coords"))
    if not isinstance(result, CurveClass):
        raise InputError("coords carry a multicurve, not a single curve")
    return result


# -- diagrams -----------------------------------------------------------------


def diagram_from_jsonable(data: dict) -> HeegaardDiagram:
    _check_keys(data, {"genus", "red", "blue"})
    surface = ModelSurface(_expect(data["genus"], int, "genus"))
    red = validate_cut_system(surface, [
        curve_from_jsonable(c) for c in _expect(data["red"], list, "red")])
    blue = validate_cut_system(surface, [
        curve_from_jsonable(c) for c in _expect(data["blue"], list, "blue")])
    return HeegaardDiagram(surface, red, blue)


def edge_from_jsonable(data, what: str = "an edge") -> tuple:
    """Two curves given as [curve, curve], such as a disk-complex edge, as
    a pair of coordinate vectors."""
    pair = _expect(data, list, what)
    if len(pair) != 2:
        raise InputError(f"{what} needs 2 curves, got {len(pair)}")
    return tuple(curve_from_jsonable(c).coords for c in pair)


def _bijection_from_jsonable(data) -> dict:
    """A curve bijection given as [curve, curve] pairs, as a map between
    coordinate vectors."""
    sigma = {}
    for pair in _expect(data, [list], "the bijection"):
        a, b = edge_from_jsonable(pair, "each bijection pair")
        sigma[a] = b
    return sigma


# -- GHSs and moves -----------------------------------------------------------


def ghs_to_jsonable(g: GHS) -> dict:
    return {"levels": [list(level) for level in g.levels],
            "boundary": [True, True]}


def ghs_from_jsonable(data: dict) -> GHS:
    _check_keys(data, {"levels"}, {"boundary"})
    boundary = data.get("boundary", [True, True])
    if boundary != [True, True]:
        raise InputError("the first and last levels are always boundary")
    return GHS.of(_expect(data["levels"], [[int]], "levels"))


def _descriptor_to_jsonable(d: CompressionDescriptor) -> dict:
    kind: Any = "nonsep" if d.kind[0] == "nonsep" else list(d.kind)
    return {"side": d.side, "target_genus": d.target_genus, "kind": kind}


def _descriptor_from_jsonable(data: dict) -> CompressionDescriptor:
    _check_keys(data, {"side", "target_genus", "kind"})
    kind = data["kind"]
    if kind == "nonsep":
        parsed = ("nonsep",)
    elif isinstance(kind, list) and len(kind) == 3 and kind[0] == "sep":
        parsed = ("sep", _expect(kind[1], int, "a sep genus"),
                  _expect(kind[2], int, "a sep genus"))
    else:
        raise InputError(f"unknown compression kind {kind!r}")
    return CompressionDescriptor(
        data["side"], _expect(data["target_genus"], int, "target_genus"),
        parsed)


def move_to_jsonable(m: Move) -> dict:
    if isinstance(m, WeakReduction):
        return {
            "type": "weak_reduction",
            "thick_index": m.thick_index,
            "D": _descriptor_to_jsonable(m.d),
            "E": _descriptor_to_jsonable(m.e),
            "F_DE": list(m.f_de),
        }
    return {
        "type": "destabilization",
        "thick_index": m.thick_index,
        "target_genus": m.target_genus,
        "remove": m.remove,
    }


def move_from_jsonable(data: dict) -> Move:
    if not isinstance(data, dict) or "type" not in data:
        raise InputError("a move needs a 'type' field")
    if data["type"] == "weak_reduction":
        _check_keys(data, {"type", "thick_index", "D", "E", "F_DE"})
        return WeakReduction(
            _expect(data["thick_index"], int, "thick_index"),
            _descriptor_from_jsonable(data["D"]),
            _descriptor_from_jsonable(data["E"]),
            collection(_expect(data["F_DE"], [int], "F_DE")),
        )
    if data["type"] == "destabilization":
        _check_keys(data, {"type", "thick_index", "target_genus"}, {"remove"})
        return Destabilization(
            _expect(data["thick_index"], int, "thick_index"),
            _expect(data["target_genus"], int, "target_genus"),
            data.get("remove", "right"))
    raise InputError(f"unknown move type {data['type']!r}")


# -- SOGs and oracles ---------------------------------------------------------


def sog_to_jsonable(s: SOG) -> dict:
    out = {
        "ghss": [ghs_to_jsonable(g) for g in s.ghss],
        "steps": [{"src": st.src, "move": move_to_jsonable(st.move)}
                  for st in s.steps],
    }
    if s.labels is not None:
        out["labels"] = list(s.labels)
    return out


def sog_from_jsonable(data: dict) -> SOG:
    _check_keys(data, {"ghss", "steps"}, {"labels"})
    ghss = [ghs_from_jsonable(g) for g in _expect(data["ghss"], list, "ghss")]
    steps = []
    for st in _expect(data["steps"], list, "steps"):
        _check_keys(st, {"src", "move"})
        steps.append(SOGStep(_expect(st["src"], int, "src"),
                             move_from_jsonable(st["move"])))
    labels = data.get("labels")
    return SOG.of(ghss, steps,
                  None if labels is None else _expect(labels, [str], "labels"))


def oracle_from_jsonable(data: dict) -> InventoryOracle:
    _check_keys(data, {"splittings", "stabilize"}, {"boundary"})
    splittings = {}
    for key, labels in _expect(data["splittings"], dict, "splittings").items():
        try:
            genus = int(key)
        except ValueError:
            raise InputError(
                f"splittings key {key!r} must be an integer genus") from None
        if genus in splittings:
            raise InputError(f"splittings key {key!r} repeats genus {genus}")
        splittings[genus] = _expect(labels, [str], "the labels of a genus")
    for label in _expect(data["stabilize"], dict, "stabilize").values():
        _expect(label, str, "a stabilize target")
    boundary = _expect(data.get("boundary", [[], []]), [[int]], "boundary")
    if len(boundary) != 2:
        raise InputError("boundary needs 2 collections")
    return InventoryOracle(splittings, data["stabilize"], boundary)
