"""Command-line front end.

Reads a JSON problem file describing one digit system plus per-command
parameters, dispatches to the library, and emits a report as JSON, plain
text, or CSV point data. All numeric inputs are exact: integers or
two-element [numerator, denominator] lists; floats are rejected so that
exact verdicts are never computed from inexact data.

Exit codes: 0 for a definite verdict, 2 when a search or scan ended
undetermined (budget exhausted, incomplete zero set, failed certificate),
1 for errors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional, Sequence

from . import __version__
from .conjugacy import (
    make_conjugate,
    sierpinski_class,
    spectrality_criterion,
)
from .errors import ProblemFormatError
from .fourier import (
    DEFAULT_DEPTH,
    attractor_sample,
    completeness_scan,
    mu_hat_numeric,
    spectrum_candidate,
    suggest_eta,
)
from .hadamard import find_spectrum_set, unitarity_defect, verify_triple
from .linalg import square_matrix
from .ortho import (
    has_infinite_orthogonal,
    nonspectral_certificate,
    nstar_bounds,
    suggest_certificate,
    transport_inclusion_check,
)
from .zeros import DigitSystem, digit_set_shape, zero_set

if TYPE_CHECKING:
    import argparse

COMMANDS = (
    "zero-set",
    "find-hadamard",
    "verify-triple",
    "conjugate",
    "classify",
    "criterion-1-8",
    "infinite-orthogonal",
    "nstar",
    "nonspectral-cert",
    "transport-check",
    "fourier-eval",
    "attractor",
    "spectrum",
    "q-scan",
)
FORMATS = ("json", "text", "csv")
DEFAULT_FORMAT = "text"


# ---------------------------------------------------------------- parsing


def _fail(where: str, why: str) -> ProblemFormatError:
    return ProblemFormatError(f"{where}: {why}")


def _int_value(x: Any, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise _fail(where, "expected an exact integer")
    return x


def _rat_value(x: Any, where: str) -> Fraction:
    if isinstance(x, bool):
        raise _fail(where, "expected a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise _fail(where, "floats are not accepted; use [num, den]")
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(c, int) and not isinstance(c, bool) for c in x)
    ):
        if x[1] == 0:
            raise _fail(where, "zero denominator")
        return Fraction(x[0], x[1])
    raise _fail(where, "expected an integer or a [num, den] pair")


def _int_matrix(x: Any, where: str):
    if not isinstance(x, list) or not x:
        raise _fail(where, "expected a list of rows")
    for i, row in enumerate(x):
        if not isinstance(row, list):
            raise _fail(f"{where}[{i}]", "expected a list")
        # a decoded JSON value is an exact integer iff its type is int
        if not all(type(c) is int for c in row):
            raise _fail(f"{where}[{i}]", "expected an exact integer")
    return tuple(map(tuple, x))


def _rat_vectors(x: Any, where: str):
    if not isinstance(x, list) or not x:
        raise _fail(where, "expected a list of points")
    rows = []
    for i, row in enumerate(x):
        if not isinstance(row, list):
            raise _fail(f"{where}[{i}]", "expected a list")
        rows.append(tuple(_rat_value(c, f"{where}[{i}]") for c in row))
    return tuple(rows)


def _rat_vector(x: Any, where: str):
    if not isinstance(x, list) or not x:
        raise _fail(where, "expected a list of coordinates")
    return tuple(_rat_value(c, where) for c in x)


_SCALAR_INT_FIELDS = ("p", "J", "R", "depth", "grid", "seed", "j0", "levels", "k", "N", "budget")
_FIELDS = ("M", "D", "S", "A", "B", "C", "xi", "L", "eta", "mode", "q_hints", *_SCALAR_INT_FIELDS)


def parse_problem(path: str) -> dict:
    """Parse and validate a JSON problem file into typed fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("problem file must hold a JSON object")
    for key in raw:
        if key not in _FIELDS:
            raise _fail(key, "unknown field")

    out: dict[str, Any] = {}
    if "M" not in raw:
        raise ProblemFormatError("problem file must define the matrix M")
    out["M"] = square_matrix(_int_matrix(raw["M"], "M"))
    n = len(out["M"])

    if "D" in raw:
        D = digit_set_shape(_int_matrix(raw["D"], "D"))
        if len(D[0]) != n:
            raise _fail("D", "digit dimension does not match M")
        out["D"] = D
    for key in ("S",):
        if key in raw:
            vec = _int_matrix(raw[key], key)
            if any(len(v) != n for v in vec):
                raise _fail(key, "dimension does not match M")
            out[key] = vec
    for key in ("A", "B"):
        if key in raw:
            mat = square_matrix(_int_matrix(raw[key], key))
            if len(mat) != n:
                raise _fail(key, "dimension does not match M")
            out[key] = mat
    if "C" in raw:
        pts = _rat_vectors(raw["C"], "C")
        if any(len(v) != n for v in pts):
            raise _fail("C", "dimension does not match M")
        out["C"] = pts
    if "xi" in raw:
        xi = _rat_vector(raw["xi"], "xi")
        if len(xi) != n:
            raise _fail("xi", "dimension does not match M")
        out["xi"] = xi
    if "L" in raw:
        out["L"] = _rat_value(raw["L"], "L")
    for key in _SCALAR_INT_FIELDS:
        if key in raw:
            out[key] = _int_value(raw[key], key)
    if "eta" in raw:
        out["eta"] = _rat_value(raw["eta"], "eta")
    if "mode" in raw:
        if raw["mode"] not in ("a", "b", "digit_expansion", "chaos_game"):
            raise _fail("mode", "unknown mode")
        out["mode"] = raw["mode"]
    if "q_hints" in raw:
        hints = raw["q_hints"]
        if not isinstance(hints, list):
            raise _fail("q_hints", "expected a list of integers")
        out["q_hints"] = tuple(_int_value(h, "q_hints") for h in hints)
    return out


def _need(problem: dict, key: str, command: str) -> Any:
    if key not in problem:
        raise ProblemFormatError(f"{command} needs the field '{key}'")
    return problem[key]


# ---------------------------------------------------------------- dispatch


def _csv_header(n: int) -> list[str]:
    """Coordinate column names for n-dimensional points."""
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i}" for i in range(1, n + 1)]


def _criterion(system: DigitSystem) -> dict:
    verdict = spectrality_criterion(system)
    return {"verdict": verdict.verdict, "A": verdict.A, "B": verdict.B}


def _given(problem: dict, **params: str) -> dict:
    """The problem's fields named by params' values, keyed by parameter
    name: a field the problem leaves out takes its library default."""
    return {param: problem[field] for param, field in params.items() if field in problem}


def dispatch(command: str, problem: dict) -> tuple[dict, int, Optional[list]]:
    """Run one command; returns (result-dict, exit-code, csv-rows). The
    result and the rows, a header then one tuple per point, hold library
    values (tuples, Fractions, floats) that emit renders. A command that
    asks about the measure of (M, D) builds its one DigitSystem here and
    hands it to every library call."""
    M = problem["M"]
    if command not in ("classify", "attractor"):
        D = _need(problem, "D", command)
        if command not in ("zero-set", "conjugate"):
            system = DigitSystem(M, D)

    if command == "zero-set":
        zs = zero_set(D, **_given(problem, q_hints="q_hints"))
        rows = [_csv_header(len(M)), *zs.points]
        result = {
            "points": zs.points,
            "q": zs.q,
            "complete": zs.complete,
        }
        return result, 0 if zs.complete else 2, rows

    if command == "find-hadamard":
        found = find_spectrum_set(system, **_given(problem, budget="budget"))
        result = {
            "status": found.status,
            "S": found.S,
            "search_space": found.search_space,
            "examined": found.examined,
        }
        code = 2 if found.status == "undetermined" else 0
        return result, code, None

    if command == "verify-triple":
        S = _need(problem, "S", command)
        ok = verify_triple(system, S)
        result = {
            "admissible_with_S": ok,
            "unitarity_defect": unitarity_defect(system, S),
        }
        return result, 0, None

    if command == "conjugate":
        B = _need(problem, "B", command)
        p = _need(problem, "p", command)
        conj = make_conjugate(M, D, B, p, A=problem.get("A"), **_given(problem, mode="mode"))
        result = {
            "M_conjugate": conj.Mt,
            "D_conjugate": conj.Dt,
            "witness": {
                "p": conj.p,
                "A": conj.A,
                "B": conj.B,
                "mode": conj.mode,
            },
        }
        return result, 0, None

    if command == "classify":
        label = sierpinski_class(M)
        result = {
            "class": label,
            "m1_criterion": label == "M1",
            "theorem18": None,
        }
        if "D" in problem and len(problem["D"]) == 3:
            result["theorem18"] = _criterion(DigitSystem(M, problem["D"]))
        return result, 0, None

    if command == "criterion-1-8":
        return _criterion(system), 0, None

    if command == "infinite-orthogonal":
        infinite, level = has_infinite_orthogonal(system)
        return {"infinite": infinite, "witness_level": level}, 0, None

    if command == "nstar":
        if "J" not in problem:  # the default cap J comes from p
            _need(problem, "p", command)
        bounds = nstar_bounds(
            system, **_given(problem, p="p", J="J", R="R", node_budget="budget")
        )
        result = {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "method": bounds.method,
            "witness": bounds.witness,
            # nstar_bounds raises unless every difference re-verifies
            "witness_verified": True,
            "search_nodes": bounds.search_nodes,
            "search_complete": bounds.search_complete,
        }
        return result, 0 if bounds.search_complete else 2, None

    if command == "nonspectral-cert":
        # a certificate is given whole or suggested whole
        suggested = "L" not in problem and "j0" not in problem
        if suggested:
            pair = suggest_certificate(system)
            if pair is None:
                result = {
                    "verdict": "inconclusive",
                    "note": "no certificate scale found by the helper",
                }
                return result, 2, None
            L, j0 = pair
        else:
            L, j0 = _need(problem, "L", command), _need(problem, "j0", command)
        cert = nonspectral_certificate(system, L, j0)
        result = {
            "verdict": cert.verdict,
            "L": cert.L,
            "j0": cert.j0,
            "suggested": suggested,
            "checks": {
                "difference_closure": cert.difference_closure,
                "window_empty": cert.window_empty,
                "tail_integral": cert.tail_integral,
            },
        }
        return result, 0 if cert.valid else 2, None

    if command == "transport-check":
        B = _need(problem, "B", command)
        p = _need(problem, "p", command)
        report = transport_inclusion_check(
            system, problem.get("A"), B, p, **_given(problem, J="J", mode="mode")
        )
        result = {
            "c1": report.c1,
            "c2": report.c2,
            "ok": report.ok,
            "forward_checks": len(report.forward_hits),
            "backward_checks": len(report.backward_hits),
            "M_conjugate": report.conjugate_matrix,
            "D_conjugate": report.conjugate_digits,
        }
        return result, 0, None

    if command == "fourier-eval":
        xi = _need(problem, "xi", command)
        depth = problem.get("depth", DEFAULT_DEPTH)
        val = mu_hat_numeric(system, xi, depth=depth)
        return {"re": val.real, "im": val.imag, "depth": depth}, 0, None

    if command == "attractor":
        digits = problem.get("C") or _need(problem, "D", command)
        sample = attractor_sample(
            M, digits, **_given(problem, mode="mode", k="k", N="N", seed="seed")
        )
        rows = [_csv_header(len(M)), *sample.points]
        result = {
            "count": len(sample.points),
            "eps": sample.eps,
            "mode": sample.mode,
            "detail": sample.detail,
        }
        return result, 0, rows

    if command == "spectrum":
        C = _need(problem, "C", command)
        cand = spectrum_candidate(system, C, **_given(problem, levels="levels"))
        rows = [_csv_header(len(M)), *cand.frequencies]
        result = {
            "levels": cand.levels,
            "count": len(cand.frequencies),
            "orthogonal": cand.orthogonal,
            "failing_pair": cand.failing_pair,
            "frequencies": cand.frequencies,
        }
        return result, 0, rows

    if command == "q-scan":
        C = _need(problem, "C", command)
        cand = spectrum_candidate(system, C, **_given(problem, levels="levels"))
        eta = problem.get("eta")
        eta_source = "given"
        if eta is None:
            eta = suggest_eta(system, C).eta
            eta_source = "computed"
        scan = completeness_scan(
            system, cand, float(eta), **_given(problem, resolution="grid", depth="depth")
        )
        flat = [q for row in scan.values for q in row]
        grid = itertools.product(scan.axis, repeat=len(M))
        rows = [_csv_header(len(M)) + ["q"]] + [
            (*pt, q) for pt, q in zip(grid, flat)
        ]
        result = {
            "eta": scan.eta,
            "eta_source": eta_source,
            "resolution": scan.resolution,
            "depth": scan.depth,
            "levels": cand.levels,
            "orthogonal": cand.orthogonal,
            "min_q": scan.min_q,
            "max_q": scan.max_q,
        }
        return result, 0, rows

    raise ProblemFormatError(f"unknown command: {command}")


# ---------------------------------------------------------------- emission


def _fraction(x: Any) -> Any:
    """The JSON form of a Fraction: n, or [n, d]."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


_quote = json.encoder.encode_basestring_ascii


def _dumps(x: Any, pad: str = "") -> str:
    """x as json.dumps(x, sort_keys=True, indent=1, default=_fraction)
    writes it at indentation pad; dict keys are strings. With indent set,
    json.dumps runs its slower pure-Python encoder."""
    if isinstance(x, (list, tuple, dict)):
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = pad + " "
        if isinstance(x, dict):
            items = [f"{_quote(k)}: {_dumps(v, inner)}" for k, v in sorted(x.items())]
            brackets = "{}"
        else:
            items = [int.__repr__(c) if type(c) is int else _dumps(c, inner) for c in x]
            brackets = "[]"
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return _dumps(_fraction(x), pad)


def _emit_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    for key, value in report["result"].items():
        lines.append(f"{key}: {json.dumps(value, sort_keys=True, default=_fraction)}")
    lines.append(f"elapsed: {report['timing_seconds']:.3f}s")
    return "\n".join(lines) + "\n"


def _csv(rows: Sequence[Sequence]) -> str:
    """A header and its rows, one line each, cells joined by commas: one
    "%s" template per line, repeated for all lines and filled at once. %s
    is str, so a float is written as its repr and a Fraction as n/d. A row
    whose width differs from the header's is refused, since the filled
    template would shift every later cell."""
    width = len(rows[0])
    if set(map(len, rows)) != {width}:
        raise ValueError("every csv row must have the header's width")
    line = ",".join(["%s"] * width) + "\n"
    return line * len(rows) % tuple(itertools.chain.from_iterable(rows))


def emit(report: dict, fmt: str, csv_rows: Optional[list]) -> str:
    if fmt == "json":
        return _dumps(report) + "\n"
    if fmt == "text":
        return _emit_text(report)
    if fmt == "csv":
        if csv_rows is None:
            raise ProblemFormatError(
                "csv output is only available for point-producing commands"
            )
        return _csv(csv_rows)
    raise ProblemFormatError(f"unknown format: {fmt}")


def read_documented(argv: Sequence[str]) -> Optional[tuple[str, str, str]]:
    """(command, input, format) of an argv in the documented form, or None.

    The documented form is a command, then --input FILE and optionally
    --format F, in either order, each value nonempty and not starting with
    "-". argparse reads such an argv the same way; any other argv, an
    abbreviation, --opt=value, -h, --, a repeated option or a usage error,
    is left to it.
    """
    if len(argv) not in (3, 5) or argv[0] not in COMMANDS:
        return None
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in ("--input", "--format") or flag in opts or value[:1] in ("", "-"):
            return None
        opts[flag] = value
    fmt = opts.get("--format", DEFAULT_FORMAT)
    if "--input" not in opts or fmt not in FORMATS:
        return None
    return argv[0], opts["--input"], fmt


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for any argv outside the documented form, built
    on the first call and reused: parsing keeps no state in the parser, and
    every option's default is immutable. argparse is imported here, so a
    documented call neither imports nor builds it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="spectral-affine",
        description="Exact spectrality tools for self-affine digit systems.",
    )
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", required=True, help="JSON problem file")
    ap.add_argument("--format", default=DEFAULT_FORMAT, choices=FORMATS)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    call = read_documented(args)
    if call is None:
        opts = build_parser().parse_args(args)
        call = opts.command, opts.input, opts.format
    command, path, fmt = call
    start = time.perf_counter()
    envelope = {
        "library": {"name": "spectral-affine", "version": __version__},
        "schema": 1,
        "command": command,
    }
    try:
        problem = parse_problem(path)
        result, code, csv_rows = dispatch(command, problem)
        report = {**envelope, "result": result, "timing_seconds": time.perf_counter() - start}
        rendered = emit(report, fmt, csv_rows)
    except Exception as exc:
        # every failure, an overflow in the float layer included, gets the
        # same parseable report with the exception's class name
        error = {"type": type(exc).__name__, "message": str(exc)}
        report = {**envelope, "error": error, "timing_seconds": time.perf_counter() - start}
        out = (
            _dumps(report) + "\n"
            if fmt == "json"
            else f"error ({type(exc).__name__}): {exc}\n"
        )
        sys.stderr.write(out)
        return 1
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
