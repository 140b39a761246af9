"""CLI replay against committed golden reports.

Every exact command runs on a fixed set of problem files: the paper's
SKEW, 2I and 3I instances, a GL_2(3) conjugate pair, certificate and
swap-matrix systems, an infinite orthogonal family, refusals (collinear,
singular, unit-eigenvalue, five-digit, single-digit and 1-D systems),
and malformed inputs. q-scan and fourier-eval are replayed where they
refuse in the library, which every refusal problem reaches with its C
and xi: their other reports carry libm floats. The attractor's point clouds are
replayed in csv, both modes, on SKEW, the swap matrix with its rational
C, the 1-D [[4]] and 2I in 3-D: their floats come from IEEE + * / alone,
never from libm.
stdout, stderr and the exit code must match tests/golden/cli_reports.json
byte for byte, apart from two masked values: timing_seconds, and
verify-triple's float unitarity_defect, whose last bits follow the
platform's libm.

To regenerate the golden file after a deliberate change of a report, run
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_reports.json"

THREE = [[0, 0], [1, 0], [0, 1]]
FOUR = [[0, 0], [1, 0], [0, 1], [-1, -1]]
STRETCH = [[0, 0], [1, 0], [0, 2]]
SKEW = [[3, 1], [1, 4]]
COLLINEAR = [[0, 0], [1, 1], [2, 2]]
FIVE = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 0]]
REFUSAL_FIELDS = dict(
    p=3, J=2, R=1, B=[[1, 0], [0, 1]], S=THREE, C=[[0, 0], [1, 0]], xi=[1, [1, 3]],
    L=1, j0=2,
)

PROBLEMS = {
    "skew": dict(M=SKEW, D=THREE, p=3, J=8, R=0, B=[[1, 0], [0, 1]], S=THREE),
    "skew_stretch_pair": dict(
        M=SKEW, D=STRETCH, p=3, J=2, R=1, B=[[1, 0], [0, 2]], A=[[4, 0], [0, 5]], mode="b"
    ),
    "skew_mode_a": dict(M=SKEW, D=THREE, p=3, J=2, R=1, B=[[1, 0], [1, 1]], mode="a"),
    "3i_four": dict(M=[[3, 0], [0, 3]], D=FOUR, p=2, S=[[0, 0], [0, 1], [1, 0], [1, 1]]),
    "3i_three": dict(
        M=[[3, 0], [0, 3]], D=THREE, p=3, J=2, R=0, S=[[0, 0], [1, 2], [2, 1]],
        C=[[0, 0], [1, 2], [2, 1]], levels=2, L=1, j0=2,
    ),
    "2i": dict(M=[[2, 0], [0, 2]], D=THREE, p=3, J=8, R=2, C=[[0, 0], [1, 0]]),
    "certificate": dict(M=[[4, 1], [2, 5]], D=THREE, p=3, J=2, R=1),
    "certificate_fraction": dict(M=[[4, 1], [2, 5]], D=THREE, L=[1, 3], j0=2),
    "certificate_stretch": dict(M=[[4, 2], [1, 5]], D=STRETCH, L=65, j0=2),
    "swap": dict(
        M=[[0, 10], [9, 0]], D=[[0, 0], [1, 0], [2, 9]], C=[[0, 0], [[1, 3], 0], [[2, 3], 0]]
    ),
    "infinite_family": dict(M=[[1, 1], [-2, 1]], D=[[0, -1], [-6, 6], [-4, 3]], p=3, J=2),
    "hint_mode": dict(
        M=[[4, 0], [6, -5]], D=[[-1, 3], [0, -1], [1, 3], [2, 0]], q_hints=[2, 4]
    ),
    # refusals, whose order depends on when the zero set is built
    "collinear_small": dict(M=[[2, 0], [0, 1]], D=COLLINEAR, **REFUSAL_FIELDS),
    "collinear": dict(M=[[3, 0], [0, 1]], D=COLLINEAR, **REFUSAL_FIELDS),
    "singular": dict(M=[[1, 2], [2, 4]], D=THREE, **REFUSAL_FIELDS),
    "unit_eigenvalue": dict(M=[[1, 1], [0, 2]], D=THREE, **REFUSAL_FIELDS),
    "five_digits": dict(
        M=SKEW, D=FIVE, p=3, J=2, R=1, B=[[1, 0], [0, 1]], S=FIVE,
        C=[[0, 0], [1, 0]], xi=[1, [1, 3]], L=1, j0=2,
    ),
    "single_digit": dict(
        M=SKEW, D=[[0, 0]], p=3, J=2, R=1, B=[[1, 0], [0, 1]], S=[[0, 0]],
        C=[[0, 0], [1, 0]], xi=[1, [1, 3]], L=1, j0=2,
    ),
    "line": dict(
        M=[[4]], D=[[0], [2]], p=2, J=2, R=1, B=[[1]], S=[[0], [1]],
        C=[[0], [[1, 2]]], xi=[[1, 3]], L=1, j0=2,
    ),
}
ATTRACTOR = {
    f"{name}_{mode}": dict(problem, mode=mode, k=4, N=60, seed=5)
    for name, problem in {
        "attractor_skew": dict(M=SKEW, D=THREE),
        "attractor_swap": dict(PROBLEMS["swap"]),
        "attractor_line": dict(M=[[4]], D=[[0], [2]]),
        "attractor_2i_3d": dict(
            M=[[2, 0, 0], [0, 2, 0], [0, 0, 2]],
            D=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        ),
    }.items()
    for mode in ("digit_expansion", "chaos_game")
}
MALFORMED = {
    "not_json": "{M: 1",
    "not_object": "[1, 2]",
    "float_entry": json.dumps(dict(M=[[3, 1], [1, 4.0]], D=THREE)),
    "digit_dimension": json.dumps(dict(M=SKEW, D=[[0], [1], [2]], p=3)),
    "zero_denominator": json.dumps(dict(M=SKEW, D=THREE, C=[[0, 0], [1, 0]], xi=[[1, 0], 1])),
    "unknown_mode": json.dumps(dict(M=SKEW, D=THREE, B=[[1, 0], [0, 1]], p=3, mode="c")),
    "composite_p": json.dumps(dict(M=SKEW, D=THREE, B=[[1, 0], [0, 1]], p=4)),
}
EXACT_COMMANDS = (
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
    "spectrum",
)
# q-scan and fourier-eval, with the field each needs, and their successful
# reports among the problems that carry it
NUMERIC_INPUTS = {"q-scan": "C", "fourier-eval": "xi"}
NUMERIC_REPORTS = {
    "2i q-scan",
    "swap q-scan",
    "five_digits fourier-eval",
    "single_digit fourier-eval",
    "line fourier-eval",
}
MASKS = (
    (re.compile(r'"timing_seconds": [^\n]*'), '"timing_seconds": "masked"'),
    (re.compile(r'"unitarity_defect": [^,\n]*'), '"unitarity_defect": "masked"'),
)


def write_problems(directory):
    for name, problem in {**PROBLEMS, **ATTRACTOR}.items():
        (directory / f"{name}.json").write_text(json.dumps(problem))
    for name, text in MALFORMED.items():
        (directory / f"{name}.json").write_text(text)


def replay(directory, name, command, fmt="json"):
    """[exit code, stdout, stderr] of one CLI run, masked."""
    from spectral_affine.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--input", str(directory / f"{name}.json"), "--format", fmt])
    texts = []
    for text in (out.getvalue(), err.getvalue()):
        for pattern, mask in MASKS:
            text = pattern.sub(mask, text)
        # the file name is the case name, whatever directory it was read from
        texts.append(text.replace(str(directory), "<dir>"))
    return [code, *texts]


CASES = [
    (name, command, "json")
    for name in [*PROBLEMS, *MALFORMED, "missing_file"]
    for command in EXACT_COMMANDS
] + [
    (name, command, "json")
    for name, problem in PROBLEMS.items()
    for command, field in NUMERIC_INPUTS.items()
    if field in problem and f"{name} {command}" not in NUMERIC_REPORTS
] + [(name, "attractor", "csv") for name in ATTRACTOR]


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{name} {command}" for name, command, _ in CASES)


def test_cli_matches_golden_reports(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    write_problems(tmp_path)
    mismatches = [
        f"{name} {command}"
        for name, command, fmt in CASES
        if replay(tmp_path, name, command, fmt) != golden[f"{name} {command}"]
    ]
    assert mismatches == []


def test_each_command_builds_one_system_and_decides_each_hypothesis_once(
    tmp_path, monkeypatch
):
    # every command on every problem, and the numeric ones on the swap
    # instance too: one DigitSystem for the (M, D) the command asks about
    # (two for transport-check, the source and its conjugate, which may be
    # equal), and per system at most one zero-set build and one expansion
    # decision
    from spectral_affine import zeros
    from spectral_affine.cli import COMMANDS

    systems, calls = [], Counter()
    init = zeros.DigitSystem.__init__

    def counted_init(self, M, D):
        init(self, M, D)
        systems.append((self.M, self.D))

    monkeypatch.setattr(zeros.DigitSystem, "__init__", counted_init)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("spectral_affine")]
    for name in ("zero_set", "is_expanding"):
        orig = getattr(zeros, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)

    write_problems(tmp_path)
    (tmp_path / "swap_xi.json").write_text(json.dumps(dict(PROBLEMS["swap"], xi=[1, [1, 3]])))
    cases = [
        *((name, command) for name in PROBLEMS for command in COMMANDS if command != "attractor"),
        *((name, "attractor") for name in ATTRACTOR),
        ("swap_xi", "q-scan"),
        ("swap_xi", "fourier-eval"),
    ]
    over = []
    for name, command in cases:
        systems.clear()
        calls.clear()
        replay(tmp_path, name, command)
        allowed = max(1, len(systems))
        if (
            len(systems) > (2 if command == "transport-check" else 1)
            or calls["zero_set"] > allowed
            or calls["is_expanding"] > allowed
        ):
            over.append(
                f"{name} {command}: {len(systems)} systems, {calls['zero_set']} zero sets, "
                f"{calls['is_expanding']} expansion decisions"
            )
    assert over == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_problems(directory)
        reports = {f"{n} {c}": replay(directory, n, c, f) for n, c, f in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(reports)} reports to {GOLDEN}\n")
