"""Benchmark entry point for heegaard-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ./src, so
there is nothing to build.  Workloads: genus2-session, torus-farey and
ghs-flatten (see perfbench/README.md).  Each measurement runs in a fresh
interpreter (worker.py) with HEEGAARD_LAB_THREADS unset, so the module
caches start empty as they do for a command-line user, and one closed-loop
client issues each job after the previous one returns.

--trace 0 runs the batch once, plus set-up alone SETUP_SAMPLES - 1 more
times, and reports the end-to-end metrics.  --trace 1 runs the same batch
untraced and then traced, and reports the per-layer metrics, including
trace.overhead_s, the traced minus the untraced job time.  The line before
the last is a report (digest, sample counts, Python version, cores, source
size); the last line is the result.  Exits 2 without a result when there
is no program to measure, and 3 when a worker fails or time runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("genus2-session", "torus-farey", "ghs-flatten")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _worker(root: Path, env: dict, args, deadline: float,
            *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {' '.join(extra)} ran out of time")
    if done.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(extra)} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tail(values: list) -> dict:
    """The 90th percentile, or where fewer than ten samples lie beyond it,
    the highest whole percentile that has ten (never below the median);
    Python's default (exclusive) quantile method."""
    n = len(values)
    pct = max((p for p in range(50, 91) if n - n * p / 100 >= 10),
              default=50)
    value = statistics.quantiles(values, n=100)[pct - 1] if n > 1 \
        else values[0]
    return {"percentile": pct, "value": value, "n": n}


def end_to_end(jobs: list, setup_s: list, peak_rss_mb: float) -> dict:
    """The end-to-end metrics from one batch's job records
    [kind, role, seconds, speed factor, operations, passed]."""
    by_role: dict = {}
    for kind, role, seconds, factor, units, ok in jobs:
        by_role.setdefault(role, []).append((seconds, units))
    build = [t for t, _ in by_role["build"]]
    query = [t * 1000 for t, _ in by_role["query"]]
    ops = by_role["op"]
    return {
        "setup_s": statistics.median(setup_s),
        "jobs_per_s": len(jobs) / sum(j[2] for j in jobs),
        "ok_ratio": sum(1 for j in jobs if j[5]) / len(jobs),
        "peak_rss_mb": peak_rss_mb,
        "build_p50_s": statistics.median(build),
        "query_p50_ms": statistics.median(query),
        "query_tail_ms": _tail(query)["value"],
        "ops_per_s": sum(u for _, u in ops) / sum(t for t, _ in ops),
    }


def _at_reference_speed(jobs: list) -> list:
    return [[k, r, t * f, f, u, ok] for k, r, t, f, u, ok in jobs]


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "heegaard_lab" / "__init__.py").is_file():
        print("error: no program here: run from the root of a heegaard-lab "
              "checkout (src/heegaard_lab is missing)", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads_set = env.pop("HEEGAARD_LAB_THREADS", None) is not None
    env["PYTHONPATH"] = str(root / "src")
    # Fixed string hashing, so set iteration inside the program, and with it
    # every traced count, repeats from run to run.
    env["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            plain = _worker(root, env, args, deadline)
            traced = _worker(root, env, args, deadline, "--trace")
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead_s"] = sum(
                j[2] * j[3] for j in traced["jobs"]) - sum(
                j[2] * j[3] for j in plain["jobs"])
            runs = [plain, traced]
            extra = {"spans": traced["spans"],
                     "digest_untraced": plain["digest"]}
        else:
            setups = [_worker(root, env, args, deadline, "--setup-only")
                      for _ in range(SETUP_SAMPLES - 1)]
            record = _worker(root, env, args, deadline)
            setups.append(record)
            jobs = record["jobs"]
            metrics = end_to_end(_at_reference_speed(jobs),
                                 [r["setup_s"] * r["setup_factor"]
                                  for r in setups],
                                 record["peak_rss_mb"])
            tail = _tail([j[2] for j in jobs if j[1] == "query"])
            runs = [record]
            extra = {
                "samples": {
                    "setup": len(setups),
                    "jobs": len(jobs),
                    **{role: sum(1 for j in jobs if j[1] == role)
                       for role in ("build", "query", "op")},
                    "ops": sum(j[4] for j in jobs if j[1] == "op"),
                    "query_tail": {"percentile": tail["percentile"],
                                   "n": tail["n"]},
                },
                "raw_metrics": end_to_end(
                    jobs, [r["setup_s"] for r in setups],
                    record["peak_rss_mb"]),
                "speed_factor_median": statistics.median(j[3] for j in jobs),
            }
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(1 for r in runs for j in r["jobs"] if not j[5])
    digests = {r["digest"] for r in runs}
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "digest": runs[-1]["digest"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "heegaard_lab_threads_was_set": threads_set,
        "src_lines": _src_lines(root),
        "failures": [f for r in runs for f in r["failures"]][:20],
        **extra,
    }
    print(json.dumps(report))
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print("error: measured metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
