"""The demo scripts run end to end and print their seeded results."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.glob("*_demo_*")) == []  # the demo cleaned up
    return done.stdout.splitlines()


def test_cleaning_walkthrough_stage_lines(tmp_path):
    lines = run_demo("cleaning_walkthrough.py", tmp_path)
    # every line but the studentized mean, whose last digits depend on the
    # summation order numpy picks for the machine
    assert [line for line in lines if not line.startswith("studentize:")] == [
        "series syn000: 1800 grid positions at 1.25 Hz, marker at index 1234",
        "  mBP: 1671 samples kept, 129 dropped in 11 gaps, 7 spikes planted",
        "  HR: 1723 samples kept, 77 dropped in 7 gaps, 5 spikes planted",
        "",
        "trim: kept [400.0s, 1399.2s], 1170 mBP samples remain",
        "fill: 1250 grid positions, no NaNs left (mBP finite: True), "
        "marker now at index 734",
        "outliers[mBP]: removed 4 samples in 2 iterations (thresholds [3.0, 2.4])",
        "    largest correction at index 336: 154.1 -> 89.6",
        "outliers[HR]: removed 5 samples in 2 iterations (thresholds [3.0, 2.4])",
        "    largest correction at index 848: 103.0 -> 53.5",
        "",
        "minmax: mBP raw range [53.2, 92.0] mapped to [-1.00, 1.00]",
    ]


def test_hyperparameter_search_prints_both_phases(tmp_path):
    lines = run_demo("hyperparameter_search.py", tmp_path)
    phase1 = lines.index("phase 1 (full space):")
    phase2 = lines.index("phase 2 (architecture dims, rest pinned):")
    trial = re.compile(r"\s+\d+: units=")
    assert sum(bool(trial.match(line)) for line in lines[phase1:phase2]) == 10
    assert sum(bool(trial.match(line)) for line in lines[phase2:]) == 6
    assert sum(line.startswith("best objective ") for line in lines) == 1
