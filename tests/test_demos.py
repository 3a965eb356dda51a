"""The demos run to completion without writing to stderr.

Demo 02 is left out: it runs ``gaussian_case_experiment(case=1)``, which
acceptance criterion 1 already runs, and takes most of the demos' time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_ratio_objective.py",
        "03_threshold_summary_adaptation.py",
        "05_baseline_overfitting.py",
        "06_shift_robustness_10d.py",
    ],
)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert (proc.returncode, proc.stderr) == (0, "")
