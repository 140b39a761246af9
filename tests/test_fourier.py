"""Numerical transform, attractor sampling, and frame-sum scans."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_affine.errors import (
    HypothesisViolation,
    IncompleteZeroSet,
    WrongDimension,
)
from spectral_affine.fourier import (
    attractor_sample,
    completeness_scan,
    mu_hat_numeric,
    spectrum_candidate,
    suggest_eta,
)

THREE = ((0, 0), (1, 0), (0, 1))
M3 = ((3, 0), (0, 3))
S3 = ((0, 0), (1, 2), (2, 1))
# swap-form map with an infinite orthogonal family but no exponential basis
SWAP = ((0, 10), (9, 0))
SWAP_D = ((0, 0), (1, 0), (2, 9))
SWAP_C = ((0, 0), (Fraction(1, 3), 0), (Fraction(2, 3), 0))


def test_mu_hat_at_zero_and_at_a_mask_zero_image():
    assert mu_hat_numeric(M3, THREE, (0, 0)) == pytest.approx(1.0)
    # (1,2) pulls back to the mask zero (1/3,2/3) at the first factor
    assert abs(mu_hat_numeric(M3, THREE, (1, 2))) < 1e-12
    assert abs(mu_hat_numeric(M3, THREE, (3, 6))) < 1e-12


def test_mu_hat_depth_stability():
    for xi in ((0.1, 0.2), (1.7, -4.2), (9.9, 9.9), (-3.3, 0.0)):
        a = mu_hat_numeric(SWAP, SWAP_D, xi, depth=40)
        b = mu_hat_numeric(SWAP, SWAP_D, xi, depth=80)
        assert abs(a - b) < 1e-10


@settings(max_examples=40)
@given(st.tuples(st.floats(-20, 20), st.floats(-20, 20)))
def test_mu_hat_bounded_by_one(xi):
    assert abs(mu_hat_numeric(M3, THREE, xi)) <= 1 + 1e-12


def test_mu_hat_validations():
    with pytest.raises(ValueError):
        mu_hat_numeric(M3, THREE, (0, 0), depth=0)
    with pytest.raises(HypothesisViolation):
        mu_hat_numeric(((1, 0), (0, 2)), THREE, (0, 0))


def test_attractor_digit_expansion_exact_level():
    s = attractor_sample(M3, THREE, k=2)
    assert s.mode == "digit_expansion" and s.detail == 2
    assert len(s.points) == 9
    assert s.eps == pytest.approx(1 / 18)
    assert s.points[0] == (0.0, 0.0)
    # prefix sums of d/3 + d'/9 over the three digits
    assert (1 / 3 + 1 / 9, 0.0) in s.points
    assert all(0 <= c <= 0.5 for p in s.points for c in p)


def test_attractor_swap_form_lands_in_small_box():
    s = attractor_sample(SWAP, SWAP_C, k=8)
    assert len(s.points) == 3**8
    assert all(0 <= c <= 1 / 12 for p in s.points for c in p)


def test_attractor_chaos_game_reproducible_and_inside_hull():
    a = attractor_sample(M3, THREE, mode="chaos_game", N=400, seed=11)
    b = attractor_sample(M3, THREE, mode="chaos_game", N=400, seed=11)
    assert a.points == b.points and len(a.points) == 400
    c = attractor_sample(M3, THREE, mode="chaos_game", N=400, seed=12)
    assert c.points != a.points
    ref = attractor_sample(M3, THREE, k=12)
    lo = [min(p[i] for p in ref.points) - 1e-6 for i in range(2)]
    hi = [max(p[i] for p in ref.points) + 1e-6 for i in range(2)]
    for p in a.points:
        assert all(lo[i] <= p[i] <= hi[i] for i in range(2))


def test_attractor_validations():
    with pytest.raises(ValueError):
        attractor_sample(M3, THREE, mode="chaos_game", N=100)
    with pytest.raises(ValueError):
        attractor_sample(M3, THREE, mode="spiral")
    with pytest.raises(ValueError):
        attractor_sample(M3, THREE, k=0)
    with pytest.raises(ValueError):
        attractor_sample(M3, THREE, mode="chaos_game", N=0, seed=1)
    with pytest.raises(HypothesisViolation):
        attractor_sample(((1, 0), (0, 2)), THREE)
    with pytest.raises(WrongDimension):
        attractor_sample(M3, ((0,), (1,)))


def test_spectrum_candidate_level_one():
    cand = spectrum_candidate(M3, THREE, S3, 1)
    assert cand.orthogonal and cand.failing_pair is None
    assert cand.frequencies == ((0, 0), (3, 6), (6, 3))


def test_spectrum_candidate_grows_exponentially():
    for n in (1, 2, 3):
        cand = spectrum_candidate(M3, THREE, S3, n)
        assert len(cand.frequencies) == 3**n
        assert cand.orthogonal


def test_spectrum_candidate_swap_form_rational_base():
    cand = spectrum_candidate(SWAP, SWAP_D, SWAP_C, 1)
    assert cand.orthogonal
    assert cand.frequencies == (
        (0, 0),
        (0, Fraction(10, 3)),
        (0, Fraction(20, 3)),
    )


def test_spectrum_candidate_detects_failure():
    cand = spectrum_candidate(M3, THREE, ((0, 0), (1, 0)), 1)
    assert not cand.orthogonal
    assert cand.failing_pair == ((0, 0), (3, 0))


def test_spectrum_candidate_validations():
    with pytest.raises(ValueError):
        spectrum_candidate(M3, THREE, ((1, 2), (2, 1)), 1)
    with pytest.raises(ValueError):
        spectrum_candidate(M3, THREE, S3, 0)
    with pytest.raises(AssertionError):
        # (3,6) = M^T (1,2) collides across levels
        spectrum_candidate(M3, THREE, ((0, 0), (3, 6), (1, 2)), 2)


def test_suggest_eta_swap_form():
    e = suggest_eta(SWAP, SWAP_D, SWAP_C, k=8)
    assert e.eta == pytest.approx(0.16292134, abs=1e-6)
    assert e.distance == pytest.approx(2 * e.eta + e.sampling_error)
    assert e.sampling_error < 1e-8


def test_suggest_eta_rejects_touching_attractor():
    # the level-one truncated expansion lands exactly on a mask zero
    with pytest.raises(HypothesisViolation):
        suggest_eta(M3, THREE, ((0, 0), (1, 2), (2, 1)), k=3)


def test_suggest_eta_validations():
    with pytest.raises(IncompleteZeroSet):
        suggest_eta(M3, ((0, 0), (1, 1)), ((0, 0),), k=2)
    with pytest.raises(HypothesisViolation):
        # single-digit masks never vanish
        suggest_eta(M3, ((1, 1),), ((0, 0),), k=2)


def test_completeness_scan_shape_and_bound():
    cand = spectrum_candidate(SWAP, SWAP_D, SWAP_C, 2)
    scan = completeness_scan(SWAP, SWAP_D, cand, 0.16, resolution=5, depth=40)
    assert scan.resolution == 5 and scan.depth == 40
    assert len(scan.axis) == 5 and len(scan.values) == 5
    assert all(len(row) == 5 for row in scan.values)
    assert scan.axis[0] == -0.16 and scan.axis[-1] == pytest.approx(0.16)
    assert scan.max_q <= 1 + 1e-9
    assert 0 < scan.min_q <= scan.max_q
    # the family is orthogonal, so the center value sits below one too
    assert scan.values[2][2] <= 1 + 1e-9


def test_completeness_scan_monotone_in_levels():
    eta = 0.16
    mins = []
    for n in (1, 2, 3):
        cand = spectrum_candidate(SWAP, SWAP_D, SWAP_C, n)
        scan = completeness_scan(SWAP, SWAP_D, cand, eta, resolution=3, depth=40)
        mins.append(scan.min_q)
    assert mins[0] <= mins[1] <= mins[2]


def test_completeness_scan_validations():
    cand = spectrum_candidate(M3, THREE, S3, 1)
    with pytest.raises(ValueError):
        completeness_scan(M3, THREE, cand, 0.0)
    with pytest.raises(ValueError):
        completeness_scan(M3, THREE, cand, 0.1, resolution=1)
