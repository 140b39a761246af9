"""Regenerate the reference figures in README.md.

    python3 perfbench/figures.py --runs 10 --seconds 20 [--workloads corpus,numeric]

Runs perfbench/run.py once per seed (1..runs) and workload, one process
at a time, and prints for every end-to-end metric, and for the raw
seconds and the tail time beside them, the median and the quartile spread
(Q3 - Q1) / median that statistics.quantiles(values, n=4) gives.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# unbounded figures from the audit line: raw seconds and the scaled tail
AUDIT = ("raw_wall_s", "raw_op_p50_ms", "raw_setup_s", "op_tail_ms")


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--workloads", default="corpus,counting,numeric")
    args = ap.parse_args(argv)
    import numpy

    print(f"python {platform.python_version()}, numpy {numpy.__version__}, {platform.machine()}")
    for name in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: failed\n{done.stderr[-2000:]}")
                return 1
            audit, result = json.loads(lines[-2])["audit"], json.loads(lines[-1])
            runs.append((audit, result))
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr)
        failed = sorted({r["failed"] / r["attempted"] for _, r in runs})
        rounds = [a["rounds"] for a, _ in runs]
        ops = [a["operations"] for a, _ in runs]
        print(
            f"\n{name}: {len(runs)} runs, rounds {min(rounds)}-{max(rounds)}, "
            f"operations {min(ops)}-{max(ops)}, failed share {failed}"
        )
        for metric, cell in runs[0][1]["metrics"].items():
            values = [r["metrics"][metric]["value"] for _, r in runs]
            print(
                f"  {metric:12s} {statistics.median(values):10.4f} {cell['unit']:4s} "
                f"spread {spread(values):6.2%}"
            )
        for key in AUDIT:
            values = [a[key] for a, _ in runs]
            print(f"  {key:12s} {statistics.median(values):10.4f}      spread {spread(values):6.2%}")
        refs = [a["ref_kernel_ms"]["median"] for a, _ in runs]
        print(f"  ref kernel   {statistics.median(refs):10.4f} ms   spread {spread(refs):6.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
