"""Smoke runs of the benchmark at a small size.

    python3 -m pytest perfbench/tests

Each workload runs at --seconds 1 (about 1/25 of a full batch): every job
must pass its check, and two traced runs must report identical call counts.
The benchmark must also refuse to run, without printing a result, where
there is no program to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("genus2-session", "torus-farey", "ghs-flatten")


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_size_passes_checks_and_counts_repeat(workload):
    plain = result(bench(workload, 0))
    assert plain["correct"] and plain["failed"] == 0
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(plain["metrics"]) == [m["name"]
                                      for m in declared["end_to_end"]]

    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert first["failed"] == 0 and second["failed"] == 0

    def counts(r):
        return {k: v["value"] for k, v in r["metrics"].items()
                if not k.endswith("_s")}

    assert counts(first) == counts(second)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("torus-farey", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
