"""Batch front door: parse input files, dispatch to the engines, and emit
deterministic reports.

Exit codes: 0 for certified results, 1 for input errors (usage errors
included) and for an output pipe its reader closed, 2 when a verdict is
scoped by an exhausted cap or budget, 3 when an internal invariant check
fails (a bug, not bad input).  JSON is the stable contract; text is for
humans; DOT is for graph rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import proptools, serialize, sog
from .disk_complex import (
    CurveTable,
    _stored,
    build_gamma,
    build_lambda,
    classify,
    emit_graph,
    quotient_by_symmetry,
    splitting_distance,
)
from .errors import InputError
from .ghs import apply_move, compare_ghs, ghs_key
from .serialize import dumps
from .sog import FlattenBudgetExhausted, flatten, max_key, verify_single_maximal
from .surface import (BudgetExhausted, enumerate_essential_curves,
                      geometric_intersection)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SCOPED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error (an unknown command or flag, or a value of the
    wrong type or range) as one input-error line, not usage text and exit
    code 2 (which means a scoped verdict here)."""

    def error(self, message):
        raise InputError(message)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`.  argparse names
    the function in its message when int() fails ("invalid integer value")."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return integer


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _load_json(path: str):
    """The one place where JSON text, inline or in a file, becomes data;
    every way that fails is an input error."""
    try:
        inline = path.strip().startswith(("{", "["))
        return json.loads(path if inline else Path(path).read_text())
    except RecursionError:
        raise InputError("JSON is nested too deeply") from None
    except (OSError, ValueError) as exc:
        # Unreadable or undecodable files, malformed JSON, an integer over
        # the interpreter's digit limit, a path with a null byte.
        raise InputError(str(exc)) from None


def _load_diagram(path: str):
    """The diagram the JSON describes, parsed and validated once per
    process.  The store is keyed by the loaded data, so a file rewritten
    between calls is read again, and holds no failure, so an invalid
    diagram fails again with the same message."""
    data = _load_json(path)
    # Encoding recurses once per level, as decoding did, from a shallower
    # frame, so whatever json.loads took encodes.
    return _stored(_session_diagrams, MAX_SESSION_DIAGRAMS,
                   json.dumps(data, sort_keys=True),
                   lambda: serialize.diagram_from_jsonable(data))


def _emit(args, payload: dict) -> None:
    # Inputs keep the interpreter's digit limit, but a result may print a
    # longer integer, such as the key (2g)^2 of a GHS of a long genus.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "text":
            for key, value in sorted(payload.items()):
                print(f"{key}: {value}")
        else:
            sys.stdout.write(dumps(payload))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_surface_curves(args) -> int:
    try:
        curves = enumerate_essential_curves(args.genus, args.cap, args.budget)
        scoped = False
    except BudgetExhausted as exc:
        curves = exc.partial
        scoped = True
    payload = {
        "genus": args.genus, "cap": args.cap,
        "complete": not scoped,
        "curves": [serialize.curve_to_jsonable(c) for c in curves],
    }
    _emit(args, payload)
    return EXIT_SCOPED if scoped else EXIT_OK


def cmd_intersect(args) -> int:
    a = serialize.curve_from_jsonable(_load_json(args.a))
    b = serialize.curve_from_jsonable(_load_json(args.b))
    n = geometric_intersection(a, b)
    _emit(args, {"intersection": n})
    return EXIT_OK


def cmd_diagram(args) -> int:
    if args.action == "quotient" and args.bijection is None:
        raise InputError("diagram quotient needs --bijection")
    diagram = _load_diagram(args.diagram)
    table = _session_table(diagram.genus)
    if args.action == "classify":
        verdict = classify(diagram, args.cap, args.budget, table)
        _emit(args, serialize.verdict_to_jsonable(verdict))
        return EXIT_OK if verdict.certified else EXIT_SCOPED
    build = build_lambda if args.action == "lambda" else build_gamma
    graph = build(diagram, args.cap, args.budget, table)
    if args.action == "quotient":
        sigma = serialize._bijection_from_jsonable(_load_json(args.bijection))
        graph = quotient_by_symmetry(graph, [sigma])
    fmt = "dot" if args.format == "dot" else "json"
    sys.stdout.write(emit_graph(graph, fmt).decode())
    return EXIT_OK if graph.certified else EXIT_SCOPED


def cmd_ghs(args) -> int:
    if args.action == "reduce":
        ghs = serialize.ghs_from_jsonable(_load_json(args.infile))
        move = serialize.move_from_jsonable(_load_json(args.move))
        result = apply_move(ghs, move)
        _emit(args, {"result": serialize.ghs_to_jsonable(result),
                     "key": ghs_key(result)})
        return EXIT_OK
    a = serialize.ghs_from_jsonable(_load_json(args.a))
    b = serialize.ghs_from_jsonable(_load_json(args.b))
    _emit(args, {"order": compare_ghs(a, b),
                 "key_a": ghs_key(a), "key_b": ghs_key(b)})
    return EXIT_OK


def cmd_sog(args) -> int:
    if args.action == "flatten":
        oracle = serialize.oracle_from_jsonable(_load_json(args.oracle))

        def endpoint(text: str):
            # Inline JSON, a file, or text with a directory or suffix is a
            # GHS; anything else is a label, so a bad label reads as one.
            path = Path(text)
            if text not in oracle.nodes() and (
                    text.strip().startswith(("{", "[")) or os.path.exists(text)
                    or path.name != text or path.suffix):
                return serialize.ghs_from_jsonable(_load_json(text))
            return oracle.resolve(text)

        try:
            result = flatten(endpoint(args.start), endpoint(args.end),
                             oracle, args.budget)
        except FlattenBudgetExhausted as exc:
            _emit(args, {"error": str(exc)})
            return EXIT_SCOPED
        _emit(args, {
            "sog": serialize.sog_to_jsonable(result),
            "max_key": [list(k) for k in max_key(result)],
            "single_maximal": verify_single_maximal(result),
        })
        return EXIT_OK
    s = serialize.sog_from_jsonable(_load_json(args.infile))
    _emit(args, {
        "valid": True,
        "maximal_positions": sog.maximal_positions(s),
        "minimal_positions": sog.minimal_positions(s),
        "max_key": [list(k) for k in max_key(s)],
        "single_maximal": verify_single_maximal(s),
    })
    return EXIT_OK


def cmd_distance(args) -> int:
    diagram = _load_diagram(args.diagram)
    e1, e2 = (serialize.edge_from_jsonable(_load_json(text))
              for text in (args.edge1, args.edge2))
    result = splitting_distance(diagram, e1, e2, args.cap, args.budget,
                                _session_table(diagram.genus))
    payload = {"connected_within_cap": result.connected,
               "distance": result.value, "cap": result.cap}
    _emit(args, payload)
    return EXIT_OK if result.connected and result.certified else EXIT_SCOPED


def cmd_proptest(args) -> int:
    reports = proptools.property_suite(args.seed, args.iterations)
    payload = {"seed": args.seed, "iterations": args.iterations,
               "results": [
                   {"name": r.name, "iterations": r.iterations,
                    "passed": r.passed,
                    "failures": [repr(f) for f in r.failures[:5]]}
                   for r in reports]}
    _emit(args, payload)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heegaard-lab",
        description="Disk complexes, Heegaard diagrams, and GHS calculus.")
    parser.add_argument("--format", choices=("json", "text", "dot"),
                        default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="model surface queries")
    ps = p.add_subparsers(dest="action", required=True)
    pc = ps.add_parser("curves", help="enumerate essential curves")
    pc.add_argument("--genus", type=int, required=True)
    pc.add_argument("--cap", type=_positive, required=True)
    pc.add_argument("--budget", type=_positive, default=None)
    pc.set_defaults(func=cmd_surface_curves)

    p = sub.add_parser("intersect", help="geometric intersection number")
    p.add_argument("--a", required=True, help="curve JSON (file or inline)")
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("diagram", help="disk-complex operations")
    p.add_argument("action",
                   choices=("classify", "gamma", "lambda", "quotient"))
    p.add_argument("--diagram", required=True)
    p.add_argument("--cap", type=_positive, required=True)
    p.add_argument("--budget", type=_positive, default=None)
    p.add_argument("--bijection", default=None,
                   help="JSON list of [curve, curve] pairs (quotient only)")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("ghs", help="generalized Heegaard splitting calculus")
    gs = p.add_subparsers(dest="action", required=True)
    gr = gs.add_parser("reduce", help="apply one move")
    gr.add_argument("--in", dest="infile", required=True)
    gr.add_argument("--move", required=True)
    gr.set_defaults(func=cmd_ghs)
    gc = gs.add_parser("compare", help="compare two GHSs")
    gc.add_argument("a")
    gc.add_argument("b")
    gc.set_defaults(func=cmd_ghs)

    p = sub.add_parser("sog", help="sequences of GHSs")
    ss = p.add_subparsers(dest="action", required=True)
    sf = ss.add_parser("flatten")
    sf.add_argument("--start", required=True,
                    help="inventory label or GHS JSON")
    sf.add_argument("--end", required=True)
    sf.add_argument("--oracle", required=True)
    sf.add_argument("--budget", type=_positive, default=100000)
    sf.set_defaults(func=cmd_sog)
    sv = ss.add_parser("verify")
    sv.add_argument("--in", dest="infile", required=True)
    sv.set_defaults(func=cmd_sog)

    p = sub.add_parser("distance", help="distance between splittings")
    p.add_argument("--diagram", required=True)
    p.add_argument("--edge1", required=True,
                   help="JSON pair of curves (file or inline)")
    p.add_argument("--edge2", required=True)
    p.add_argument("--cap", type=_positive, required=True)
    p.add_argument("--budget", type=_positive, default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("proptest", help="randomized property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=_nonnegative, default=200)
    p.set_defaults(func=cmd_proptest)

    return parser


# One parser per process, built at the first `main` call: building it takes
# far longer than parsing one command line.
_parser = functools.cache(build_parser)

# One curve table per genus for the life of the process, so that the jobs
# of a session enumerate, intersect and disk-test each class once.  Each
# table bounds its own stores (34-41 MB when full, see disk_complex);
# this bounds the number of tables.
MAX_SESSION_TABLES = 4
_session_table = functools.lru_cache(maxsize=MAX_SESSION_TABLES)(CurveTable)

# The validated diagrams of the session, keyed by their JSON in canonical
# form; a full store keeps what it holds and validates new diagrams afresh.
# Measured with tracemalloc, a stored diagram with its cut systems' word
# tables takes about 14 kB at genus 2 and 99 kB at genus 10.
MAX_SESSION_DIAGRAMS = 64
_session_diagrams: dict = {}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()          # a closed pipe fails here, not at exit
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader stopped reading, which is no bug.  What is still
        # buffered goes to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except Exception as exc:        # any other failure is a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
