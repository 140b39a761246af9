"""The benchmark's own self-check, so that a change which breaks a
workload's report checks or its metric names fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selfcheck():
    # run.py imports the package from src/ of the checkout it sits in
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selfcheck"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
