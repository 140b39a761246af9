"""End-to-end benchmark of the spectral-affine command line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Runs from the root of a source checkout and imports the package from its
src/ directory. A run repeats rounds until --seconds have passed; each
round re-imports spectral_affine (so its caches start cold, as for a CLI
user), generates a fresh seeded set of problem files, and calls
spectral_affine.cli.main(argv) once per operation, capturing and checking
each report. Times are reference-scaled (see refclock.py). The last line
of standard output is one JSON object: correct, attempted, failed and
metrics; with --trace 1 the metrics are the per-layer ones of a traced
run, each round of which also runs untraced to measure the overhead.
"""

from __future__ import annotations

import os

# one process, one compute thread: set before numpy is imported
os.environ.pop("SPECTRAL_AFFINE_THREADS", None)
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path[:0] = [str(SRC), str(HERE)]

import refclock  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

# the tail percentile in the audit line: the highest whole one, up to the
# 99th, with at least ten operations beyond it in the shortest runs seen on
# the reference host (see README.md)
TAIL_PERCENTILE = {"corpus": 99, "counting": 97, "numeric": 97}

SELF_S = (
    "cli.main",
    "cli.parse_problem",
    "cli.emit",
    "conjugacy.spectrality_criterion",
    "conjugacy.make_conjugate",
    "hadamard.find_spectrum_set",
    "hadamard.verify_triple",
    "zeros.zero_set",
    "zeros.ZeroSet.__post_init__",
    "zeros.is_zero_exact",
    "zeros.mask_eval",
    "linalg.coset_transversal",
    "linalg.is_expanding",
    "linalg.mat_vec",
    "ortho._Measure.membership",
    "ortho.nstar_bounds",
    "ortho.transport_inclusion_check",
    "ortho.nonspectral_certificate",
    "fourier.completeness_scan",
    "fourier.suggest_eta",
    "fourier.attractor_sample",
    "fourier.spectrum_candidate",
)
CALLS = (
    "zeros.zero_set",
    "zeros.is_zero_exact",
    "zeros.mask_eval",
    "linalg.is_expanding",
    "linalg.mat_vec",
    "linalg.det_and_adjugate",
    "ortho.reduce_mod1",
    "ortho._Measure.membership",
    "ortho.zero_membership",
    "fourier.mu_hat_numeric",
)
FIELDS = ("hadamard.find_spectrum_set.examined", "ortho.nstar_bounds.search_nodes")
TRACE_SUMMARY = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_pct", "%"),
)


def per_layer_units() -> dict:
    units = {f"{n}.self_s": "s" for n in SELF_S}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({n: "count" for n in FIELDS})
    units.update(dict(TRACE_SUMMARY))
    return units


END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------- program


def fresh_cli():
    """Import spectral_affine anew from the checkout's src/ and return cli."""
    for name in [n for n in sys.modules if n.split(".")[0] == "spectral_affine"]:
        del sys.modules[name]
    pkg = importlib.import_module("spectral_affine")
    if Path(pkg.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"spectral_affine imported from {pkg.__file__}, not {SRC}")
    return importlib.import_module("spectral_affine.cli")


def write_problem(path: Path, problem: dict) -> str:
    path.write_text(json.dumps(workloads.encode(problem)), encoding="utf-8")
    return str(path)


def parse_output(op, out: str, err: str):
    text = out or err
    if op.fmt == "csv" and out:
        return [line.split(",") for line in out.splitlines()]
    try:
        return json.loads(text)
    except ValueError:
        return None


class Round:
    """The problem files and operations of one round."""

    def __init__(self, name, seed, index, directory: Path):
        rng = random.Random(f"{name}:{seed}:{index}")
        self.ops = workloads.WORKLOADS[name](rng)
        self.dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = [
            write_problem(directory / f"op{i}.json", op.problem) if op.problem is not None else None
            for i, op in enumerate(self.ops)
        ]


class Run:
    """Attempted and failed operations over the rounds of one run."""

    def __init__(self, plant=None):
        self.plant = plant
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.commands: list = []

    def execute(self, rnd: Round, main, clock, on_time, tracer=None):
        """Run every operation of a round; on_time(raw, factor) per operation."""
        for i, op in enumerate(rnd.ops):
            path = rnd.paths[i]
            if op.build is not None:
                problem = op.build()
                if problem is None:
                    continue
                path = write_problem(rnd.dir / f"op{i}.json", problem)
            argv = [op.command, "--input", path, "--format", op.fmt]
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op = self.attempted
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            raw = time.perf_counter() - t0
            if tracer is not None:
                selfs = tracer.take()
                clock.add(raw, lambda r, f, s=selfs: on_time(r, f, s))
            else:
                clock.add(raw, on_time)
            self.attempted += 1
            if tracer is None:
                self.commands.append(op.command)
            report = parse_output(op, out.getvalue(), err.getvalue())
            if self.plant is not None and self.plant[0] == op.command:
                report = self.plant[1](report)
                self.plant = None
            try:
                ok = bool(op.check(code, report))
            except Exception:
                ok = False
            if not ok:
                self.failed += 1
                problem = workloads.encode(op.problem)
                self.failures.append((op.command, problem, str(code), err.getvalue()[-300:]))


def by_command(commands, scaled, raw) -> dict:
    """Median scaled and raw milliseconds of each command."""
    out = {}
    for cmd in sorted(set(commands)):
        idx = [i for i, c in enumerate(commands) if c == cmd]
        out[cmd] = {
            "count": len(idx),
            "scaled": statistics.median(scaled[i] for i in idx) * 1e3,
            "raw": statistics.median(raw[i] for i in idx) * 1e3,
        }
    return out


def pct(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(name, seed, seconds, traced, plant=None, max_rounds=None):
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    run = Run(plant)
    clock = refclock.ScaledClock()
    setups, setups_raw, rounds_wall, rounds_raw = [], [], [], []
    op_times, op_raw, traced_walls = [], [], []
    tracer = layertrace.Tracer() if traced else None
    self_scaled: dict = {}
    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while index == 0 or (
            time.perf_counter() < deadline and (max_rounds is None or index < max_rounds)
        ):
            gc.collect()
            t0 = time.perf_counter()
            cli = fresh_cli()
            # one directory for every round: overwriting files costs a steady
            # ~60 ms per corpus round, creating them afresh 130-240 ms
            rnd = Round(name, seed, index, run_dir)
            raw = time.perf_counter() - t0
            setups_raw.append(raw)
            clock.add(raw, lambda r, f: setups.append(r * f))
            wall = [0.0, 0.0]

            def on_time(r, f):
                wall[0] += r * f
                wall[1] += r
                op_times.append(r * f)
                op_raw.append(r)

            run.execute(rnd, cli.main, clock, on_time)
            if traced:
                cli = fresh_cli()
                tracer.install()
                main = tracer.wrap(layertrace.ROOT, cli.main)
                twall = [0.0]

                def on_traced(r, f, selfs):
                    twall[0] += r * f
                    for k, v in selfs.items():
                        self_scaled[k] = self_scaled.get(k, 0.0) + v * f

                run.execute(rnd, main, clock, on_traced, tracer)
            clock.flush()
            rounds_wall.append(wall[0])
            rounds_raw.append(wall[1])
            if traced:
                traced_walls.append(twall[0])
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rounds = len(rounds_wall)
    audit = {
        "workload": name,
        "seed": seed,
        "rounds": rounds,
        "operations": run.attempted,
        "raw_wall_s": statistics.median(rounds_raw),
        "raw_op_p50_ms": statistics.median(op_raw) * 1e3,
        "raw_setup_s": statistics.median(setups_raw),
        "ref_kernel_ms": {
            "nominal": refclock.NOMINAL_S * 1e3,
            "min": min(clock.refs) * 1e3,
            "median": statistics.median(clock.refs) * 1e3,
            "max": max(clock.refs) * 1e3,
            "samples": len(clock.refs),
        },
        "tail_percentile": TAIL_PERCENTILE[name],
        "op_tail_ms": pct(op_times, TAIL_PERCENTILE[name]) * 1e3,
        "by_command_ms": by_command(run.commands, op_times, op_raw),
        "failures": run.failures[:5],
    }
    if not traced:
        metrics = {
            "wall_s": statistics.median(rounds_wall),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{name}-{seed}.jsonl")
        untraced = sum(rounds_wall) / rounds
        traced_wall = sum(traced_walls) / rounds
        metrics = {f"{n}.self_s": self_scaled.get(n, 0.0) / rounds for n in SELF_S}
        metrics.update({f"{n}.calls": tracer.calls[n] / rounds for n in CALLS})
        metrics.update({n: tracer.fields[n] / rounds for n in FIELDS})
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.self_sum_s"] = sum(self_scaled.values()) / rounds
        metrics["trace.overhead_pct"] = (traced_wall / untraced - 1) * 100
        units = per_layer_units()
    return run, audit, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------- self-check


def _flip_verdict(report):
    r = report["result"]
    r["verdict"] = "NonSpectral" if r["verdict"] == "Spectral" else "Spectral"
    return report


def _shift_witness(report):
    wit = report["result"]["witness"]
    wit[-1] = [workloads.encode(workloads.rat(c) + Fraction(1, 7)) for c in wit[-1]]
    return report


def _nudge_value(report):
    report["result"]["re"] += 1e-6
    return report


# one wrong answer planted per workload, in the first report of a command
PLANTS = {
    "corpus": ("criterion-1-8", _flip_verdict),
    "counting": ("nstar", _shift_witness),
    "numeric": ("fourier-eval", _nudge_value),
}
TINY = {
    "CORPUS_THREE": 4,
    "CORPUS_FOUR": 2,
    "COUNTING_PAIRS": 2,
    "COUNTING_CERTS": 2,
    "NUMERIC_LEVELS": (2, 3),
    "QSCAN_GRID": 3,
    "FOURIER_EVALS": 4,
    "FOURIER_ZEROS": 2,
    "ATTRACTOR_SYSTEMS": 1,
    "ATTRACTOR_K": 4,
    "CHAOS_N": 200,
}


def selfcheck() -> bool:
    """Tiny runs: a planted wrong answer must count as exactly one failed
    operation, the traced run must work, and the printed metric names must
    be the ones BENCHMARK.json lists."""
    for key, value in TINY.items():
        setattr(workloads, key, value)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name in workloads.WORKLOADS:
        run, _, metrics = measure(name, 0, 0, False, plant=PLANTS[name], max_rounds=1)
        planted = run.failed == 1 and run.attempted > 1
        want = {m["name"] for m in spec["end_to_end"]}
        named = set(metrics) == want
        trun, _, tmetrics = measure(name, 0, 0, True, max_rounds=1)
        traced = trun.failed == 0 and set(tmetrics) == {m["name"] for m in spec["per_layer"]}
        print(
            f"{name}: planted failure counted: {planted}; "
            f"end-to-end names match: {named}; traced run clean and named: {traced}"
        )
        ok = ok and planted and named and traced
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    try:
        fresh_cli()
    except ImportError as exc:
        print(f"cannot import spectral_affine from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return 0 if selfcheck() else 1
    if args.workload is None:
        ap.error("--workload is required")
    run, audit, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"audit": audit}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
