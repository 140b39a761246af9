"""Command-line interface: parsing, dispatch, formats, exit codes."""

import inspect
import itertools
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_affine.cli import COMMANDS, _dumps, build_parser, emit, main, read_documented
from spectral_affine.fourier import mu_hat_numeric
from spectral_affine.zeros import DigitSystem, ZeroSet

THREE = [[0, 0], [1, 0], [0, 1]]
SWAP = [[0, 10], [9, 0]]
SWAP_D = [[0, 0], [1, 0], [2, 9]]
SWAP_C = [[0, 0], [[1, 3], 0], [[2, 3], 0]]


def problem(tmp_path, **fields):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(fields))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out) if out else json.loads(err)
    return code, payload


def test_zero_set_json(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, payload = run_json(capsys, "zero-set", "--input", path)
    assert code == 0
    assert payload["command"] == "zero-set"
    assert payload["schema"] == 1
    assert payload["library"]["name"] == "spectral-affine"
    assert payload["result"]["complete"] is True
    assert payload["result"]["q"] == 3
    assert payload["result"]["points"] == [[[1, 3], [2, 3]], [[2, 3], [1, 3]]]


def test_zero_set_csv(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, out, _ = run(capsys, "zero-set", "--input", path, "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["x,y", "1/3,2/3", "2/3,1/3"]


def test_zero_set_incomplete_exit_code(tmp_path, capsys):
    D = [[0, 0], [1, 0], [0, 1], [1, 1]]
    path = problem(tmp_path, M=[[2, 0], [0, 2]], D=D)
    code, payload = run_json(capsys, "zero-set", "--input", path)
    assert code == 2 and payload["result"]["complete"] is False
    hinted = problem(tmp_path, M=[[2, 0], [0, 2]], D=D, q_hints=[2])
    code, payload = run_json(capsys, "zero-set", "--input", hinted)
    assert code == 2
    assert len(payload["result"]["points"]) == 3


def test_find_hadamard(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, payload = run_json(capsys, "find-hadamard", "--input", path)
    assert code == 0 and payload["result"]["status"] == "found"
    assert payload["result"]["search_space"] == 28
    stopped = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, budget=0)
    code, payload = run_json(capsys, "find-hadamard", "--input", stopped)
    assert code == 2 and payload["result"]["status"] == "undetermined"


@pytest.mark.parametrize("command", ["find-hadamard", "nstar"])
def test_negative_budget_rejected(tmp_path, capsys, command):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, p=3, J=1, R=0, budget=-1)
    code, payload = run_json(capsys, command, "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"]["type"] == "ValueError"
    assert "budget" in payload["error"]["message"]


def test_verify_triple(tmp_path, capsys):
    path = problem(
        tmp_path, M=[[3, 0], [0, 3]], D=THREE, S=[[0, 0], [1, 2], [2, 1]]
    )
    code, payload = run_json(capsys, "verify-triple", "--input", path)
    assert code == 0
    assert payload["result"]["admissible_with_S"] is True
    assert payload["result"]["unitarity_defect"] < 1e-9


def test_conjugate(tmp_path, capsys):
    path = problem(
        tmp_path,
        M=[[3, 1], [1, 4]],
        D=[[0, 0], [1, 0], [0, 2]],
        B=[[1, 0], [0, 2]],
        p=3,
        mode="b",
    )
    code, payload = run_json(capsys, "conjugate", "--input", path)
    assert code == 0
    assert payload["result"]["M_conjugate"] == [[3, 2], [2, 16]]
    assert payload["result"]["D_conjugate"] == THREE
    assert payload["result"]["witness"] == {
        "p": 3,
        "A": [[1, 0], [0, 2]],
        "B": [[1, 0], [0, 2]],
        "mode": "b",
    }


def test_conjugate_reads_the_problems_A(tmp_path, capsys):
    fields = dict(M=[[3, 1], [1, 4]], D=[[0, 0], [1, 0], [0, 2]], B=[[1, 0], [0, 2]], p=3)
    path = problem(tmp_path, A=[[4, 0], [0, 5]], **fields)
    code, payload = run_json(capsys, "conjugate", "--input", path)
    assert code == 0
    assert payload["result"]["M_conjugate"] == [[12, 8], [5, 40]]
    assert payload["result"]["witness"]["A"] == [[4, 0], [0, 5]]
    code, payload = run_json(capsys, "transport-check", "--input", path)
    assert code == 0
    assert payload["result"]["M_conjugate"] == [[12, 8], [5, 40]]
    # I B = diag(1, 2) is not I mod 3 (A = B would pass: 2 * 2 = 1 mod 3)
    path = problem(tmp_path, A=[[1, 0], [0, 1]], **fields)
    code, payload = run_json(capsys, "conjugate", "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"] == {
        "type": "HypothesisViolation",
        "message": "A*B must be the identity mod p",
    }


def test_classify_with_and_without_digits(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE)
    code, payload = run_json(capsys, "classify", "--input", path)
    assert code == 0
    assert payload["result"]["class"] == "M2"
    assert payload["result"]["m1_criterion"] is False
    assert payload["result"]["theorem18"]["verdict"] == "NonSpectral"
    bare = problem(tmp_path, M=[[3, 0], [0, 3]])
    code, payload = run_json(capsys, "classify", "--input", bare)
    assert payload["result"]["class"] == "M1"
    assert payload["result"]["m1_criterion"] is True
    assert payload["result"]["theorem18"] is None


def test_criterion_command(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, payload = run_json(capsys, "criterion-1-8", "--input", path)
    assert code == 0
    assert payload["result"]["verdict"] == "Spectral"
    assert payload["result"]["A"] == [[1, 0], [0, 1]]


def test_infinite_orthogonal(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, payload = run_json(capsys, "infinite-orthogonal", "--input", path)
    assert code == 0
    assert payload["result"] == {"infinite": True, "witness_level": 1}


@pytest.mark.parametrize("M", [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[1, 1], [0, 2]]])
def test_infinite_orthogonal_refuses_non_expanding(tmp_path, capsys, M):
    path = problem(tmp_path, M=M, D=THREE)
    code, payload = run_json(capsys, "infinite-orthogonal", "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"]["type"] == "HypothesisViolation"


@pytest.mark.parametrize(
    "command, M, message",
    [
        (
            "nstar",
            [[1, 1], [0, 2]],
            "inverse-transpose powers do not contract; matrix not expanding",
        ),
        (
            "attractor",
            [[0, -1], [1, 0]],
            "inverse-transpose powers do not contract; matrix not expanding",
        ),
    ],
)
def test_unit_eigenvalue_maps_refused(tmp_path, capsys, command, M, message):
    path = problem(tmp_path, M=M, D=THREE, C=THREE, p=3, J=1, R=0, k=2)
    code, payload = run_json(capsys, command, "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"] == {"type": "HypothesisViolation", "message": message}


def test_nstar_reads_its_window_from_the_problem(tmp_path, capsys):
    path = problem(tmp_path, M=[[2, 0], [0, 2]], D=THREE, p=3, J=1, R=0)
    code, payload = run_json(capsys, "nstar", "--input", path)
    assert code == 0
    assert payload["result"]["lower"] == 3 and payload["result"]["upper"] == 3
    assert payload["result"]["method"] == "clique"
    assert payload["result"]["witness_verified"] is True


def test_nstar_needs_p_only_for_the_default_window(tmp_path, capsys):
    fields = dict(M=[[3, 1], [1, 4]], D=THREE, J=3, R=1)
    _, with_p = run_json(capsys, "nstar", "--input", problem(tmp_path, p=3, **fields))
    code, without_p = run_json(capsys, "nstar", "--input", problem(tmp_path, **fields))
    assert code == 0
    with_p.pop("timing_seconds")
    without_p.pop("timing_seconds")
    assert without_p == with_p
    # a given p is still checked, and the default window still needs one
    code, payload = run_json(capsys, "nstar", "--input", problem(tmp_path, p=1, **fields))
    assert code == 1 and "at least 2" in payload["error"]["message"]
    del fields["J"]
    code, payload = run_json(capsys, "nstar", "--input", problem(tmp_path, **fields))
    assert code == 1 and payload["error"]["message"] == "nstar needs the field 'p'"


def test_corpus_commands_build_no_zero_points(tmp_path, capsys, monkeypatch):
    # every decision reads the residues; Fraction points are built only for
    # a report that prints zeros, and none of these does
    built = []
    post_init = ZeroSet.__post_init__

    def record(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(ZeroSet, "__post_init__", record)
    systems = [
        dict(M=[[3, 0], [0, 3]], D=THREE, S=[[0, 0], [1, 2], [2, 1]], B=[[1, 0], [1, 1]], p=3),
        dict(
            M=[[3, 0], [0, 3]], D=[[0, 0], [1, 0], [0, 1], [-1, -1]],
            S=[[0, 0], [0, 1], [1, 0], [1, 1]], B=[[1, 0], [1, 1]], p=2,
        ),
    ]
    for fields in systems:
        path = problem(tmp_path, **fields)
        commands = ["classify", "find-hadamard", "conjugate", "verify-triple"]
        if len(fields["D"]) == 3:
            commands.append("criterion-1-8")
        for command in commands:
            code, payload = run_json(capsys, command, "--input", path)
            assert code == 0, payload
    assert built and all("points" not in zs.__dict__ for zs in built)


def test_nstar_zero_budget(tmp_path, capsys):
    # the search of each window, of 1, 2, 4 and 8 shells, stops at its first
    # node; frequency 0 alone is a verified family, and the stopped search
    # exits 2
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE, p=3, J=8, R=0, budget=0)
    code, payload = run_json(capsys, "nstar", "--input", path)
    assert code == 2
    result = payload["result"]
    assert (result["lower"], result["upper"], result["method"]) == (1, 9, "clique")
    assert result["witness"] == [[0, 0]] and result["witness_verified"] is True
    assert (result["search_nodes"], result["search_complete"]) == (4, False)


def test_nstar_budget_stop_at_the_upper_bound_exits_0(tmp_path, capsys):
    # the windows of 1, 2 and 4 shells are searched to their end in 4, 4
    # and 6 nodes, short of the bound; budget 9 stops the search of 8 shells
    # at its tenth node, on a path whose family with frequency 0 already has
    # the upper bound's 9 members: decided
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE, p=3, J=8, R=0)
    _, full = run_json(capsys, "nstar", "--input", path)
    stopped = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE, p=3, J=8, R=0, budget=9)
    code, payload = run_json(capsys, "nstar", "--input", stopped)
    assert code == 0
    result = payload["result"]
    assert (result["lower"], result["upper"]) == (9, 9)
    assert (result["search_nodes"], result["search_complete"]) == (24, True)
    assert result["witness"] == full["result"]["witness"]


def test_nstar_bounds_when_det_shares_p(tmp_path, capsys):
    # det -3: the zeros' orbit mod 3 is {(0, 1), (0, 2)}, two classes
    # joined by an edge, so three exponentials are the most
    path = problem(tmp_path, M=[[-3, 1], [-3, 2]], D=THREE, p=3, J=4, R=1)
    code, payload = run_json(capsys, "nstar", "--input", path)
    assert code == 0
    result = payload["result"]
    assert (result["lower"], result["upper"], result["method"]) == (3, 3, "clique")


def test_nstar_infinite_family(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, p=3, J=2, R=0)
    code, payload = run_json(capsys, "nstar", "--input", path)
    assert code == 0
    assert payload["result"]["upper"] is None
    assert payload["result"]["method"] == "infinite"


def test_nonspectral_cert_suggested(tmp_path, capsys):
    path = problem(tmp_path, M=[[4, 1], [2, 5]], D=THREE)
    code, payload = run_json(capsys, "nonspectral-cert", "--input", path)
    assert code == 0
    assert payload["result"]["verdict"] == "NonSpectral"
    assert payload["result"]["suggested"] is True
    assert payload["result"]["L"] == 1 and payload["result"]["j0"] == 2
    assert payload["result"]["checks"] == {
        "difference_closure": True,
        "window_empty": True,
        "tail_integral": True,
    }


def test_nonspectral_cert_explicit_and_inconclusive(tmp_path, capsys):
    # the CLI reads any rational L; the library refuses one that is not a
    # positive integer
    bad = problem(tmp_path, M=[[4, 1], [2, 5]], D=THREE, L=[1, 3], j0=2)
    code, payload = run_json(capsys, "nonspectral-cert", "--input", bad)
    assert code == 1 and "result" not in payload
    assert payload["error"] == {
        "type": "ValueError",
        "message": "scale L must be a positive integer",
    }
    off = problem(tmp_path, M=[[4, 1], [2, 5]], D=THREE, L=3, j0=2)
    code, payload = run_json(capsys, "nonspectral-cert", "--input", off)
    assert code == 2
    assert payload["result"]["verdict"] == "inconclusive"
    assert payload["result"]["L"] == 3
    assert payload["result"]["suggested"] is False
    spectral = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, payload = run_json(capsys, "nonspectral-cert", "--input", spectral)
    assert code == 2
    assert payload["result"]["verdict"] == "inconclusive"
    assert "note" in payload["result"]


@pytest.mark.parametrize("given, missing", [("L", "j0"), ("j0", "L")])
def test_nonspectral_cert_refuses_half_a_certificate(tmp_path, capsys, given, missing):
    # the suggested pair would replace the given half, so the report would
    # not be about the given certificate
    fields = dict(M=[[4, 1], [2, 5]], D=THREE, **{given: 7})
    code, payload = run_json(capsys, "nonspectral-cert", "--input", problem(tmp_path, **fields))
    assert code == 1
    assert payload["error"] == {
        "type": "ProblemFormatError",
        "message": f"nonspectral-cert needs the field '{missing}'",
    }


def test_transport_check(tmp_path, capsys):
    path = problem(
        tmp_path, M=[[3, 1], [1, 4]], D=THREE, B=[[1, 0], [0, 1]], p=3
    )
    code, payload = run_json(capsys, "transport-check", "--input", path)
    assert code == 0
    assert payload["result"]["ok"] is True
    assert payload["result"]["c1"] == 11**16
    assert payload["result"]["c2"] == 11**16
    assert payload["result"]["forward_checks"] == 8
    assert payload["result"]["backward_checks"] == 8


def test_fourier_eval(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, xi=[0, 0])
    code, payload = run_json(capsys, "fourier-eval", "--input", path)
    assert code == 0
    assert payload["result"]["re"] == pytest.approx(1.0)
    assert payload["result"]["im"] == pytest.approx(0.0)
    assert payload["result"]["depth"] == 40
    deeper = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, xi=[0, 0], depth=60)
    deep = run_json(capsys, "fourier-eval", "--input", deeper)[1]
    assert deep["result"]["depth"] == 60


def test_fourier_eval_reports_the_library_default_depth(tmp_path, capsys):
    # a problem without depth is evaluated at mu_hat_numeric's own default,
    # and the report names that depth
    default = inspect.signature(mu_hat_numeric).parameters["depth"].default
    M, xi = [[3, 0], [0, 3]], [[1, 7], [2, 5]]
    path = problem(tmp_path, M=M, D=THREE, xi=xi)
    code, payload = run_json(capsys, "fourier-eval", "--input", path)
    assert code == 0 and payload["result"]["depth"] == default
    value = mu_hat_numeric(DigitSystem(M, THREE), [Fraction(1, 7), Fraction(2, 5)])
    assert (payload["result"]["re"], payload["result"]["im"]) == (value.real, value.imag)
    assert value != mu_hat_numeric(DigitSystem(M, THREE), [Fraction(1, 7), Fraction(2, 5)], depth=1)


def test_attractor_csv_and_chaos(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, k=2)
    code, payload = run_json(capsys, "attractor", "--input", path)
    assert code == 0 and payload["result"]["count"] == 9
    code, out, _ = run(capsys, "attractor", "--input", path, "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "x,y" and len(lines) == 10
    chaos = problem(
        tmp_path,
        M=[[3, 0], [0, 3]],
        D=THREE,
        mode="chaos_game",
        N=50,
        seed=9,
    )
    code, payload = run_json(capsys, "attractor", "--input", chaos)
    assert code == 0
    assert payload["result"]["mode"] == "chaos_game"
    assert payload["result"]["count"] == 50


def test_attractor_level_ignores_problem_depth(tmp_path, capsys):
    # depth is the fourier-eval product depth; read as k it would ask for
    # 3^40 expansions
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, depth=40)
    code, payload = run_json(capsys, "attractor", "--input", path)
    assert code == 0 and payload["result"]["count"] == 3**8
    both = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE, depth=40, k=2)
    code, payload = run_json(capsys, "attractor", "--input", both)
    assert code == 0 and payload["result"]["count"] == 3**2


def test_csv_header_follows_dimension(tmp_path, capsys):
    path = problem(tmp_path, M=[[3]], D=[[0], [1]], k=2)
    code, out, _ = run(capsys, "attractor", "--input", path, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x" and len(lines) == 5
    assert all("," not in line for line in lines)
    hinted = problem(tmp_path, M=[[3]], D=[[0], [1]], q_hints=[2])
    code, out, _ = run(capsys, "zero-set", "--input", hinted, "--format", "csv")
    assert code == 2 and out.splitlines() == ["x", "1/2"]


def test_spectrum(tmp_path, capsys):
    path = problem(
        tmp_path,
        M=[[3, 0], [0, 3]],
        D=THREE,
        C=[[0, 0], [1, 2], [2, 1]],
        levels=2,
    )
    code, payload = run_json(capsys, "spectrum", "--input", path)
    assert code == 0
    assert payload["result"]["count"] == 9
    assert payload["result"]["orthogonal"] is True
    assert payload["result"]["failing_pair"] is None


def test_spectrum_csv(tmp_path, capsys):
    C = [[0, 0], [[1, 3], [2, 3]], [[2, 3], [1, 3]]]
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE, C=C, levels=2)
    code, out, _ = run(capsys, "spectrum", "--input", path, "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "x,y",
        "0,0",
        "5/3,3",
        "7/3,2",
        "8,41/3",
        "9,31/3",
        "29/3,50/3",
        "31/3,47/3",
        "32/3,40/3",
        "34/3,37/3",
    ]


def test_q_scan_given_and_computed_eta(tmp_path, capsys):
    given = problem(
        tmp_path, M=SWAP, D=SWAP_D, C=SWAP_C, levels=1, eta=[2, 25], grid=3
    )
    code, payload = run_json(capsys, "q-scan", "--input", given)
    assert code == 0
    res = payload["result"]
    assert res["eta_source"] == "given" and res["eta"] == pytest.approx(0.08)
    assert res["resolution"] == 3 and res["orthogonal"] is True
    assert 0 < res["min_q"] <= res["max_q"] <= 1 + 1e-9
    computed = problem(tmp_path, M=SWAP, D=SWAP_D, C=SWAP_C, levels=1, grid=3)
    code, payload = run_json(capsys, "q-scan", "--input", computed)
    assert payload["result"]["eta_source"] == "computed"
    assert payload["result"]["eta"] == pytest.approx(0.16292134, abs=1e-6)


def test_q_scan_csv(tmp_path, capsys):
    path = problem(
        tmp_path, M=SWAP, D=SWAP_D, C=SWAP_C, levels=1, eta=[2, 25], grid=3
    )
    code, out, _ = run(capsys, "q-scan", "--input", path, "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "x,y,q" and len(lines) == 10


@pytest.mark.parametrize("n, header", [(1, "x,q"), (3, "x,y,z,q")])
def test_q_scan_csv_off_the_plane(tmp_path, capsys, n, header):
    M = [[4 if i == j else 0 for j in range(n)] for i in range(n)]
    path = problem(tmp_path, M=M, D=[[0] * n], C=[[0] * n], eta=[1, 10], grid=3)
    code, out, _ = run(capsys, "q-scan", "--input", path, "--format", "csv")
    lines = out.splitlines()
    assert code == 0 and lines[0] == header and len(lines) == 1 + 3**n
    assert all(len(line.split(",")) == n + 1 for line in lines)
    assert lines[1] == ",".join(["-0.1"] * n + ["1.0"])
    code, out, _ = run(capsys, "q-scan", "--input", path)
    assert code == 0 and "min_q: 1.0" in out


@pytest.mark.parametrize("command", ["spectrum", "q-scan"])
def test_colliding_level_sums_reported(tmp_path, capsys, command):
    # (3, 6) = M^T (1, 2): the level sums of C collide at two levels
    path = problem(
        tmp_path, M=[[3, 0], [0, 3]], D=THREE, C=[[0, 0], [3, 6], [1, 2]], levels=2
    )
    code, payload = run_json(capsys, command, "--input", path)
    assert code == 1
    assert payload["error"] == {
        "type": "ValueError",
        "message": "level sums must be distinct",
    }


@pytest.mark.parametrize("command", ["spectrum", "q-scan"])
@pytest.mark.parametrize(
    "fields, error",
    [
        (
            {"M": [[0]], "D": [[0], [1]], "C": [[0], [1], [2]]},
            {"type": "SingularMatrix", "message": "expanding map must be invertible"},
        ),
        (
            {"M": [[2, 0], [0, 0]], "D": THREE, "C": [[0, 0], [0, 1], [0, 2]]},
            {"type": "SingularMatrix", "message": "expanding map must be invertible"},
        ),
        (
            {"M": [[1, 0], [0, 1]], "D": THREE, "C": [[0, 0], [1, 0]], "levels": 2},
            {
                "type": "HypothesisViolation",
                "message": "inverse-transpose powers do not contract; matrix not expanding",
            },
        ),
    ],
)
def test_the_gate_refuses_before_the_level_sums(tmp_path, capsys, command, fields, error):
    # each C gives colliding level sums; the measure's refusal comes first
    path = problem(tmp_path, **fields)
    code, payload = run_json(capsys, command, "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"] == error


@pytest.mark.parametrize(
    "command, fields",
    [
        ("fourier-eval", {"D": THREE, "xi": [[10**400, 1], 0]}),
        ("q-scan", {"D": SWAP_D, "C": SWAP_C, "levels": 1, "eta": [10**400, 1]}),
        ("attractor", {"C": [[0, 0], [[10**400, 3], 0]], "k": 2}),
    ],
)
def test_float_overflow_reported(tmp_path, capsys, command, fields):
    M = SWAP if command == "q-scan" else [[3, 0], [0, 3]]
    path = problem(tmp_path, M=M, **fields)
    code, out, err = run(capsys, command, "--input", path, "--format", "json")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert "result" not in payload
    assert payload["error"]["type"] == "OverflowError"
    code, out, err = run(capsys, command, "--input", path, "--format", "text")
    assert code == 1 and err.startswith("error (OverflowError): ")
    assert "Traceback" not in err


def test_spectrum_on_a_singular_map_is_refused_for_a_one_point_base(tmp_path, capsys):
    # no pair is walked, yet the measure of a singular map does not exist
    path = problem(tmp_path, M=[[1, 2], [2, 4]], D=THREE, C=[[0, 0]])
    code, payload = run_json(capsys, "spectrum", "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"] == {
        "type": "SingularMatrix",
        "message": "expanding map must be invertible",
    }


def test_fourier_eval_names_a_frequency_too_large_for_floats(tmp_path, capsys):
    # on the swap instance 10**306 still evaluates; 10**308 overflows a phase
    path = problem(tmp_path, M=SWAP, D=SWAP_D, xi=[10**306, 10**306])
    assert run_json(capsys, "fourier-eval", "--input", path)[0] == 0
    path = problem(tmp_path, M=SWAP, D=SWAP_D, xi=[10**308, 10**308])
    code, payload = run_json(capsys, "fourier-eval", "--input", path)
    assert code == 1 and "result" not in payload
    shown = f"{10**308}, {10**308}"
    assert payload["error"] == {
        "type": "OverflowError",
        "message": f"frequency ({shown}) is too large for the float product",
    }


def test_q_scan_refuses_a_radius_without_a_finite_grid(tmp_path, capsys):
    path = problem(tmp_path, M=SWAP, D=SWAP_D, C=SWAP_C, levels=1, eta=[10**308, 1], grid=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload = run_json(capsys, "q-scan", "--input", path)
    assert code == 1 and "result" not in payload
    assert payload["error"] == {
        "type": "ValueError",
        "message": "scan radius must give a finite grid",
    }


def test_float_input_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"M": [[3, 0], [0, 3]], "eta": 0.1}))
    code, _, err = run(capsys, "zero-set", "--input", str(path))
    assert code == 1
    assert "ProblemFormatError" in err and "[num, den]" in err


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(p="3"), "p: expected an exact integer"),
        (dict(L=True), "L: expected a number"),
        (dict(L="1/3"), "L: expected an integer or a [num, den] pair"),
        (dict(M=[]), "M: expected a list of rows"),
        (dict(M=[[3, 0], 3]), "M[1]: expected a list"),
        (dict(C=[]), "C: expected a list of points"),
        (dict(C=[[0, 0], 1]), "C[1]: expected a list"),
        (dict(xi=3), "xi: expected a list of coordinates"),
        (dict(M=None), "problem file must define the matrix M"),
        (dict(S=[[0, 0], [1, 0, 0]]), "S: dimension does not match M"),
        (dict(A=[[1]]), "A: dimension does not match M"),
        (dict(B=[[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "B: dimension does not match M"),
        (dict(C=[[0, 0], [1]]), "C: dimension does not match M"),
        (dict(xi=[1, 2, 3]), "xi: dimension does not match M"),
        (dict(q_hints=2), "q_hints: expected a list of integers"),
        (dict(r=3), "r: unknown field"),
    ],
)
def test_problem_fields_refused(tmp_path, capsys, fields, message):
    fields = dict(dict(M=[[3, 0], [0, 3]], D=THREE), **fields)
    if fields["M"] is None:
        del fields["M"]
    path = problem(tmp_path, **fields)
    code, out, err = run(capsys, "zero-set", "--input", path)
    assert (code, out) == (1, "")
    assert err == f"error (ProblemFormatError): {message}\n"


def test_c_is_read_from_c_alone(tmp_path, capsys):
    # a key named base is no alias of C: it is refused, not skipped
    fields = dict(M=SWAP, D=SWAP_D, C=SWAP_C, levels=1)
    code, plain = run_json(capsys, "spectrum", "--input", problem(tmp_path, **fields))
    assert code == 0 and len(plain["result"]["frequencies"]) == 3
    code, both = run_json(
        capsys, "spectrum", "--input", problem(tmp_path, base=[[0, 0], [1, 0]], **fields)
    )
    assert code == 1 and "result" not in both
    assert both["error"] == {"type": "ProblemFormatError", "message": "base: unknown field"}


@pytest.mark.parametrize(
    "command, fields, error",
    [
        (
            "zero-set",
            dict(D=[[], []]),
            ("WrongDimension", "digit vectors must have positive dimension"),
        ),
        ("attractor", dict(C=[[0, 0], [0, 0]], k=2), ("ValueError", "points must be distinct")),
        ("spectrum", dict(D=THREE, C=[[0, 0], [0, 0]]), ("ValueError", "points must be distinct")),
    ],
)
def test_input_refusals_from_the_library(tmp_path, capsys, command, fields, error):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], **fields)
    code, payload = run_json(capsys, command, "--input", path)
    assert code == 1 and "result" not in payload
    assert (payload["error"]["type"], payload["error"]["message"]) == error


def test_csv_header_past_three_dimensions(tmp_path, capsys):
    M = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    D = [[0] * 4] + M
    path = problem(tmp_path, M=M, D=D, k=2)
    code, out, _ = run(capsys, "attractor", "--input", path, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3,x4" and len(lines) == 1 + 5**2


def test_missing_field_and_bad_json(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]])
    code, _, err = run(capsys, "zero-set", "--input", str(path))
    assert code == 1 and "zero-set needs the field 'D'" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "zero-set", "--input", str(broken))
    assert code == 1 and "not valid JSON" in err
    code, _, err = run(capsys, "zero-set", "--input", str(tmp_path / "no.json"))
    assert code == 1 and "cannot read" in err


def test_csv_rejected_for_scalar_commands(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 0], [0, 3]], D=THREE)
    code, _, err = run(capsys, "classify", "--input", path, "--format", "csv")
    assert code == 1 and "csv" in err


csv_cells = st.one_of(
    st.sampled_from((-0.0, 0.0, 1e16, -1e16, 5e-324, 0.1, 1 / 3, float("inf"))),
    st.floats(allow_nan=False),
    st.fractions(max_denominator=1000),
    st.integers(-(10**20), 10**20),
)


@st.composite
def csv_tables(draw):
    """A header of width 1 to 4, then zero or more rows of that width."""
    width = draw(st.integers(1, 4))
    header = ["x", "y", "z", "q"][:width]
    rows = draw(st.lists(st.lists(csv_cells, min_size=width, max_size=width).map(tuple)))
    return [header, *rows]


@settings(max_examples=200, deadline=None)
@given(csv_tables())
def test_csv_matches_the_joined_rows(rows):
    joined = "\n".join(",".join(map(str, row)) for row in rows) + "\n"
    assert emit({}, "csv", rows) == joined


def test_csv_header_only_and_fixed_cells():
    assert emit({}, "csv", [["x", "y"]]) == "x,y\n"
    rows = [["x", "y"], (-0.0, 5e-324), (Fraction(-1, 3), 1e16), (0.1, 7)]
    assert emit({}, "csv", rows) == "x,y\n-0.0,5e-324\n-1/3,1e+16\n0.1,7\n"


def test_csv_refuses_a_row_of_another_width():
    # the last table has as many cells as three full rows: a flat template
    # would fill it without complaint, shifted by one cell
    for rows in ([["x", "y"], (1, 2), (3,)], [["x"], (1,), (2, 3)], [["x", "y"], (1,), (2, 3, 4)]):
        with pytest.raises(ValueError, match="width"):
            emit({}, "csv", rows)


def test_json_reports_are_deterministic(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE)
    _, first = run_json(capsys, "classify", "--input", path)
    _, second = run_json(capsys, "classify", "--input", path)
    del first["timing_seconds"], second["timing_seconds"]
    assert first == second


def untimed(capsys, argv):
    """Exit code and report of one in-process call, timing removed."""
    code, out, err = run(capsys, *argv)
    if "json" in argv:
        payload = json.loads(out or err)
        del payload["timing_seconds"]
        return code, payload
    lines = (out or err).splitlines()
    return code, [line for line in lines if not line.startswith("elapsed:")]


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    narrow = problem(tmp_path, M=[[2, 0], [0, 2]], D=THREE, p=3, J=3, R=0)
    wide = str(tmp_path / "wide.json")
    (tmp_path / "wide.json").write_text(
        json.dumps(dict(M=[[2, 0], [0, 2]], D=THREE, p=3, J=5, R=2))
    )
    # argparse-only spellings, so that every call goes through the parser
    calls = [
        ["nstar", "--inp", narrow, "--form", "json"],
        ["nstar", "--inp", wide, "--form", "json"],
        ["classify", "--inp", wide],
    ]
    build_parser.cache_clear()
    reused = [untimed(capsys, argv) for argv in calls]
    assert build_parser.cache_info().hits == len(calls) - 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(untimed(capsys, argv))
    assert reused == fresh
    assert reused[2][0] == 0 and reused[2][1][0] == "command: classify"


def test_the_problem_file_is_the_only_input(tmp_path, capsys):
    # every parameter is a problem field; the parser takes no other option
    options = {s for action in build_parser()._actions for s in action.option_strings}
    assert options == {"-h", "--help", "--input", "--format"}
    path = problem(tmp_path, M=[[2, 0], [0, 2]], D=THREE, p=3)
    with pytest.raises(SystemExit) as stop:
        main(["nstar", "--input", path, "--J", "8"])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --J 8" in err


ARGV_TOKENS = (
    *COMMANDS,
    "--input",
    "--format",
    "--inp",
    "--form",
    "--input=a.json",
    "--format=json",
    "-h",
    "--help",
    "--",
    "-",
    "-1",
    "",
    "a b.json",
    "@f",
    "json",
    "text",
    "csv",
    "xml",
)


def read_by_both(argv):
    """read_documented's triple for argv, after checking that argparse
    reads an argv it accepts the same way; None when it leaves argv to
    argparse."""
    call = read_documented(argv)
    if call is not None:
        try:
            opts = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which is read directly")
        assert (opts.command, opts.input, opts.format) == call
    return call


tokens = st.sampled_from(ARGV_TOKENS)
# near the documented form, which few lists of arbitrary tokens reach
commands = st.sampled_from(COMMANDS)
flags = st.sampled_from(["--input", "--format", "--inp", "--form"])
values = st.sampled_from(["a b.json", "@f", "json", "csv", "xml", "", "-1", "--format"])


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(tokens, max_size=7),
        st.tuples(commands, flags, values).map(list),
        st.tuples(commands, flags, values, flags, values).map(list),
    )
)
def test_a_documented_argv_is_read_as_argparse_reads_it(argv):
    read_by_both(argv)


def test_every_documented_five_token_argv_is_read_as_argparse_reads_it():
    alphabet = ("classify", "nstar", *ARGV_TOKENS[len(COMMANDS) :])
    accepted = [
        argv for argv in itertools.product(alphabet, repeat=5) if read_documented(argv)
    ]
    # 2 commands x 2 option orders x 8 input values x 3 formats: every
    # token that is nonempty and does not start with "-" is a file name
    assert len(alphabet) == 20 and len(accepted) == 96
    for argv in accepted:
        assert read_by_both(list(argv)) == read_documented(argv)


def test_only_an_undocumented_argv_builds_the_parser(tmp_path, capsys, monkeypatch):
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE)
    documented = untimed(capsys, ["classify", "--format", "json", "--input", path])
    monkeypatch.setattr("sys.argv", ["spectral-affine", "classify", "--input", path])
    build_parser.cache_clear()
    assert untimed(capsys, ["classify", "--inp", path, "--form", "json"]) == documented
    # main(None) reads sys.argv[1:] the same way
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    text = untimed(capsys, ["classify", "--input", path])
    assert (0, [line for line in lines if not line.startswith("elapsed:")]) == text
    assert build_parser.cache_info().misses == 1


def test_text_format(tmp_path, capsys):
    path = problem(tmp_path, M=[[3, 1], [1, 4]], D=THREE)
    code, out, _ = run(capsys, "classify", "--input", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: classify"
    assert any(line.startswith("class:") for line in lines)
    assert lines[-1].startswith("elapsed:")


def test_mode_validation(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"M": [[3, 0], [0, 3]], "mode": "spiral"}))
    code, _, err = run(capsys, "zero-set", "--input", str(path))
    assert code == 1 and "unknown mode" in err


class Count(int):
    pass


def as_json(f):
    return f.numerator if f.denominator == 1 else [f.numerator, f.denominator]


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(Count),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é ü", "\u2028", "\U0001f600"]),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.fractions(),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
    ),
    max_leaves=40,
)


@given(json_values)
def test_report_writer_matches_the_stdlib(x):
    assert _dumps(x) == json.dumps(x, sort_keys=True, indent=1, default=as_json)


@pytest.mark.parametrize("command", COMMANDS + ("error",))
def test_json_reports_render_as_the_stdlib_does(tmp_path, capsys, command):
    path = problem(
        tmp_path,
        M=[[3, 1], [1, 4]],
        D=THREE,
        S=[[0, 0], [1, 0], [2, 0]],
        B=[[1, 0], [0, 1]],
        p=3,
        C=SWAP_C,
        xi=[[1, 3], [2, 7]],
        levels=1,
        grid=3,
        depth=8,
        k=2,
        J=2,
        R=0,
    )
    if command == "error":
        command, path = "zero-set", problem(tmp_path, M=[[3, 0], [0, 3.5]])
    _, out, err = run(capsys, command, "--input", path, "--format", "json")
    text = out or err
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
