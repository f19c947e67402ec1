"""Each demo script runs as a user runs it, in a fresh interpreter with
`PYTHONPATH=src`, and prints exactly the recorded bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout.
GOLDEN_DEMO_SHA256 = {
    "01_curves_and_intersections.py":
        "808a1f4c576b2eabcfc9e02aeb9873f29a6428b009a50e709fe0ef2f1903d91b",
    "02_diagrams_and_disk_complexes.py":
        "76d713bac43268b8e90be0cb10d22020561193b177901f0f1206f8f883e17dc3",
    "03_farey_distances.py":
        "0861107b77b563e3b89db07d4428e574ac972d20b57aab14982f218c3552a433",
    "04_ghs_calculus.py":
        "06d57a08512f27516a9160388f8d132b20607d6e0e5ab05e767093921df082e6",
    "05_flattening_and_distance.py":
        "20e5a798460c10f8c496728099019d5891fc94bbf2429c4ef49c8b1292d5d8e7",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DEMO_SHA256))
def test_demo_output_golden(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         cwd=ROOT, env=env, capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == GOLDEN_DEMO_SHA256[name]
