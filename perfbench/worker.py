"""Runs one workload in a fresh interpreter and prints one JSON record.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \\
        --seconds S [--setup-only | --trace]

`run.py` starts this script; it is not the benchmark's entry point.  The
record holds the set-up time (from the first line of this script, through
importing the program, to the last generated input) with its speed factor,
and unless --setup-only, one entry per job: kind, role, latency in seconds,
speed factor, operations performed and whether its check passed, plus the
sha256 of every job's output in order.  With --trace the program's layers
are wrapped (see tracer.py), the record adds the per-layer metrics, and the
spans go to perfbench/out/.

Interpreter speed on a shared host drifts by more than ten percent within
minutes, which would swamp the regressions the benchmark has to catch.  So
a fixed calibration loop (calls, dict lookups, small-int arithmetic; it
allocates no tracked objects, so it never runs the garbage collector) is
timed three times after set-up and then at least every CALIBRATION_EVERY_S
between jobs.  A job's speed factor is CALIBRATION_REF_S over the median
loop time within CALIBRATION_WINDOW_S of the job; set-up's is over the
median of the three loops that follow it.  Latency times factor is the
latency at the reference speed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

CALIBRATION_ITERS = 20000
CALIBRATION_REF_S = 0.004
CALIBRATION_EVERY_S = 0.2
CALIBRATION_WINDOW_S = 1.5
_TABLE = {k: (k * 37) % 251 for k in range(256)}


def _step(table, x):
    return table[x & 255] ^ (x >> 3)


def calibrate(samples: list) -> None:
    """Time the calibration loop once; append (start, seconds)."""
    t0 = time.perf_counter()
    x = 1
    for i in range(CALIBRATION_ITERS):
        x = (_step(_TABLE, x + i) * 33 + 7) & 0xFFFF
    samples.append((t0, time.perf_counter() - t0))


OUT = Path(__file__).resolve().parent / "out"


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from one traced batch (ratios are 0 when their
    denominator is)."""
    calls, counts = tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("surface", "arrangement", "handlebody", "disk_complex",
                  "ghs", "sog", "serialize", "cli"):
        m[f"{layer}.self_s"] = tracer.self_s[layer]
    for name, key in [
        ("surface.trace", "surface.Triangulation.trace"),
        ("surface.coords_to_slope", "surface.coords_to_slope"),
        ("surface.enumerate_essential_curves",
         "surface.enumerate_essential_curves"),
        ("surface.geometric_intersection", "surface.geometric_intersection"),
        ("surface.same_class", "surface.same_class"),
        ("arrangement.intersection_number", "arrangement.intersection_number"),
        ("arrangement.isotopic", "arrangement.isotopic"),
        ("arrangement.crossing_word", "arrangement.crossing_word"),
        ("arrangement.complement_regions", "arrangement.complement_regions"),
        ("arrangement.analyze", "arrangement.Arrangement.analyze"),
        ("handlebody.bounds_disk", "handlebody.bounds_disk"),
        ("handlebody.validate_cut_system", "handlebody.validate_cut_system"),
        ("disk_complex.build_gamma", "disk_complex.build_gamma"),
        ("disk_complex.build_lambda", "disk_complex.build_lambda"),
        ("disk_complex.vertex_distance", "disk_complex.vertex_distance"),
        ("ghs.enumerate_moves", "ghs.enumerate_moves"),
        ("ghs.apply_move", "ghs.apply_move"),
        ("sog.flatten", "sog.flatten"),
        ("sog.validate", "sog.SOG.validate"),
        ("serialize.diagram_from_jsonable", "serialize.diagram_from_jsonable"),
        ("cli.main", "cli.main"),
    ]:
        m[f"{name}.calls"] = calls[key]
    entries = sum(calls[f"arrangement.{f}"] for f in (
        "intersection_number", "isotopic", "crossing_word",
        "complement_regions"))
    m["arrangement.analyses_per_query"] = ratio(
        calls["arrangement.Arrangement.analyze"], entries)
    intersections = tracer.site_calls["disk_complex",
                                      "surface.geometric_intersection"]
    m["disk_complex.intersections"] = intersections
    m["disk_complex.edge_yield"] = ratio(
        calls["disk_complex._GraphCore.add_edge"], intersections)
    attempts = calls["ghs.weak_reduce"] + calls["ghs.destabilize_report"]
    m["ghs.move_attempts"] = attempts
    m["ghs.move_yield"] = ratio(counts["ghs.moves_returned"], attempts)
    expansions = calls["sog.SymbolicOracle.edges_at"] \
        + calls["sog.InventoryOracle.edges_at"]
    m["sog.expansions_per_flatten"] = ratio(expansions, calls["sog.flatten"])
    m["sog.oracle_states"] = counts["sog.oracle_states"]
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    scale = args.seconds / workloads.NOMINAL_SECONDS
    workload = workloads.WORKLOADS[args.workload](args.seed, scale)
    workload.setup()
    setup_s = time.perf_counter() - T0
    calibration: list = []
    for _ in range(3):
        calibrate(calibration)
    setup_factor = CALIBRATION_REF_S / statistics.median(
        s for _, s in calibration)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    digest = hashlib.sha256()
    jobs, times, failures = [], [], []
    perf = time.perf_counter
    for job_id, job in enumerate(workload.jobs()):
        if perf() - calibration[-1][0] >= CALIBRATION_EVERY_S:
            calibrate(calibration)
        problem = None
        t0 = perf()
        try:
            if tracer is None:
                result = job.call()
            else:
                result = tracer.run_job(job_id, job.kind, job.call)
        except Exception as exc:  # a failed job is counted, not fatal
            problem = f"raised {type(exc).__name__}: {exc}"
        t1 = perf()
        if t1 - calibration[-1][0] >= CALIBRATION_EVERY_S:
            calibrate(calibration)
        times.append((t0, t1))
        outcome = workloads.Outcome(b"", problem)
        if problem is None:
            try:
                outcome = job.finish(result)
            except Exception as exc:  # a check that cannot run fails the job
                outcome = workloads.Outcome(
                    b"", f"check raised {type(exc).__name__}: {exc}")
        digest.update(job.kind.encode() + b"\0" + outcome.output + b"\0")
        jobs.append([job.kind, job.role, t1 - t0, outcome.units,
                     outcome.problem is None])
        if outcome.problem is not None:
            failures.append(f"job {job_id} {job.kind}: {outcome.problem}")
        if tracer is not None:
            tracer.counts.update(outcome.counts)

    for job, (t0, t1) in zip(jobs, times):
        near = [s for t, s in calibration
                if t0 - CALIBRATION_WINDOW_S <= t <= t1 + CALIBRATION_WINDOW_S]
        job.insert(3, CALIBRATION_REF_S / statistics.median(near))
    record = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "jobs": jobs,
        "digest": digest.hexdigest(),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        record["spans"] = {"file": str(spans.relative_to(OUT.parent.parent)),
                           "count": len(tracer.spans)}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
