"""Numerical transform, attractor sampling, and frame-sum scans."""

import itertools
import math
import random
import struct
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_affine import fourier
from spectral_affine.errors import (
    HypothesisViolation,
    IncompleteZeroSet,
    WrongDimension,
)
from spectral_affine.fourier import (
    EtaSuggestion,
    SpectrumCandidate,
    _MuHat,
    _pairwise_sum,
    attractor_sample,
    completeness_scan,
    mu_hat_numeric,
    spectrum_candidate,
    suggest_eta,
)
from spectral_affine.hadamard import find_spectrum_set
from spectral_affine.linalg import (
    as_matrix,
    det_and_adjugate,
    is_expanding,
    mat_mul,
    mat_vec,
    transpose,
)
from spectral_affine.ortho import zero_membership
from spectral_affine.zeros import DigitSystem, as_digit_set, mask_eval, zero_set

THREE = ((0, 0), (1, 0), (0, 1))
M3 = ((3, 0), (0, 3))
S3 = ((0, 0), (1, 2), (2, 1))
# swap-form map with an infinite orthogonal family but no exponential basis
SWAP = ((0, 10), (9, 0))
SWAP_D = ((0, 0), (1, 0), (2, 9))
SWAP_C = ((0, 0), (Fraction(1, 3), 0), (Fraction(2, 3), 0))


def test_mu_hat_at_zero_and_at_a_mask_zero_image():
    assert mu_hat_numeric(DigitSystem(M3, THREE), (0, 0)) == pytest.approx(1.0)
    # (1,2) pulls back to the mask zero (1/3,2/3) at the first factor
    assert abs(mu_hat_numeric(DigitSystem(M3, THREE), (1, 2))) < 1e-12
    assert abs(mu_hat_numeric(DigitSystem(M3, THREE), (3, 6))) < 1e-12


def test_mu_hat_depth_stability():
    for xi in ((0.1, 0.2), (1.7, -4.2), (9.9, 9.9), (-3.3, 0.0)):
        a = mu_hat_numeric(DigitSystem(SWAP, SWAP_D), xi, depth=40)
        b = mu_hat_numeric(DigitSystem(SWAP, SWAP_D), xi, depth=80)
        assert abs(a - b) < 1e-10


@settings(max_examples=40)
@given(st.tuples(st.floats(-20, 20), st.floats(-20, 20)))
def test_mu_hat_bounded_by_one(xi):
    assert abs(mu_hat_numeric(DigitSystem(M3, THREE), xi)) <= 1 + 1e-12


def test_mu_hat_validations():
    with pytest.raises(ValueError):
        mu_hat_numeric(DigitSystem(M3, THREE), (0, 0), depth=0)
    with pytest.raises(HypothesisViolation):
        mu_hat_numeric(DigitSystem(((1, 0), (0, 2)), THREE), (0, 0))


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
    cand = spectrum_candidate(DigitSystem(M3, THREE), S3, 1)
    assert cand.orthogonal and cand.failing_pair is None
    assert cand.frequencies == ((0, 0), (3, 6), (6, 3))


def test_spectrum_candidate_grows_exponentially():
    for n in (1, 2, 3):
        cand = spectrum_candidate(DigitSystem(M3, THREE), S3, n)
        assert len(cand.frequencies) == 3**n
        assert cand.orthogonal


def test_spectrum_candidate_swap_form_rational_base():
    cand = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, 1)
    assert cand.orthogonal
    assert cand.frequencies == (
        (0, 0),
        (0, Fraction(10, 3)),
        (0, Fraction(20, 3)),
    )


def test_spectrum_candidate_detects_failure():
    cand = spectrum_candidate(DigitSystem(M3, THREE), ((0, 0), (1, 0)), 1)
    assert not cand.orthogonal
    assert cand.failing_pair == ((0, 0), (3, 0))


def test_spectrum_candidate_validations():
    with pytest.raises(ValueError):
        spectrum_candidate(DigitSystem(M3, THREE), ((1, 2), (2, 1)), 1)
    with pytest.raises(ValueError):
        spectrum_candidate(DigitSystem(M3, THREE), S3, 0)
    with pytest.raises(ValueError, match="level sums must be distinct"):
        # (3,6) = M^T (1,2) collides across levels
        spectrum_candidate(DigitSystem(M3, THREE), ((0, 0), (3, 6), (1, 2)), 2)
    with pytest.raises(WrongDimension, match="digit dimension does not match the map"):
        spectrum_candidate(DigitSystem(((2, 0), (0, 2)), ((5,),)), ((0, 0), (1, 0)), 1)
    with pytest.raises(WrongDimension, match="base dimension does not match the map"):
        spectrum_candidate(DigitSystem(M3, THREE), ((0,), (1,)), 1)
    with pytest.raises(ValueError, match="point list must be nonempty"):
        spectrum_candidate(DigitSystem(M3, THREE), (), 1)
    with pytest.raises(WrongDimension, match="points must share one dimension"):
        spectrum_candidate(DigitSystem(M3, THREE), ((0, 0), (1,)), 1)


def test_suggest_eta_swap_form():
    e = suggest_eta(DigitSystem(SWAP, SWAP_D), SWAP_C, k=8)
    assert e.eta == pytest.approx(0.16292134, abs=1e-6)
    assert e.distance == pytest.approx(2 * e.eta + e.sampling_error)
    assert e.sampling_error < 1e-8


def test_suggest_eta_rejects_touching_attractor():
    # the level-one truncated expansion lands exactly on a mask zero
    with pytest.raises(HypothesisViolation):
        suggest_eta(DigitSystem(M3, THREE), ((0, 0), (1, 2), (2, 1)), k=3)


@pytest.mark.parametrize("D", [((0,), (1,), (2,)), ((0,),)])
def test_suggest_eta_digit_dimension_must_match_the_map(D):
    # 1-D digits under a planar map: not an incomplete or empty zero set
    with pytest.raises(WrongDimension, match="digit dimension does not match the map"):
        suggest_eta(DigitSystem(((2, 0), (0, 2)), D), ((0, 0), (1, 0)))


def test_suggest_eta_validations():
    with pytest.raises(IncompleteZeroSet):
        suggest_eta(DigitSystem(M3, ((0, 0), (1, 1))), ((0, 0),), k=2)
    with pytest.raises(HypothesisViolation):
        # single-digit masks never vanish
        suggest_eta(DigitSystem(M3, ((1, 1),)), ((0, 0),), k=2)
    with pytest.raises(WrongDimension, match="^base dimension does not match the map$"):
        suggest_eta(DigitSystem(SWAP, SWAP_D), ((0, 0, 0), (1, 0, 0)), k=2)


def test_completeness_scan_shape_and_bound():
    cand = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, 2)
    scan = completeness_scan(DigitSystem(SWAP, SWAP_D), cand, 0.16, resolution=5, depth=40)
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
        cand = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, n)
        scan = completeness_scan(DigitSystem(SWAP, SWAP_D), cand, eta, resolution=3, depth=40)
        mins.append(scan.min_q)
    assert mins[0] <= mins[1] <= mins[2]


def test_completeness_scan_validations():
    cand = spectrum_candidate(DigitSystem(M3, THREE), S3, 1)
    with pytest.raises(ValueError):
        completeness_scan(DigitSystem(M3, THREE), cand, 0.0)
    with pytest.raises(ValueError):
        completeness_scan(DigitSystem(M3, THREE), cand, 0.1, resolution=1)
    # 2 * 1e308 overflows to inf, and inf * 0 is NaN on the axis; the swap
    # family is orthogonal, so a NaN axis would fail its frame-sum bound
    swap = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, 1)
    for eta in (math.nan, math.inf, 1e308):
        with pytest.raises(ValueError, match="scan radius must give a finite grid"):
            completeness_scan(DigitSystem(SWAP, SWAP_D), swap, eta, resolution=3)


# ------------------------------------------- differential: batch and integer


@st.composite
def expanding_maps(draw, n=st.integers(1, 3), diag=st.sampled_from((-4, -3, -2, 2, 3, 5))):
    """Triangular integer maps with diagonal entries drawn from diag (of
    modulus at least 2 by default), conjugated by an integer shear so that
    they need not stay triangular."""
    n = draw(n)
    M = [
        [draw(diag) if i == j else draw(st.integers(-2, 2)) if i < j else 0
         for j in range(n)]
        for i in range(n)
    ]
    if n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        t = draw(st.integers(-2, 2))
        U = [[int(r == c) for c in range(n)] for r in range(n)]
        Uinv = [row[:] for row in U]
        U[i][j], Uinv[i][j] = t, -t
        M = mat_mul(mat_mul(U, M), Uinv)
    return tuple(tuple(row) for row in M)


def _fraction_expansion(M, digits, k):
    """Every k-term sum of M^{-j} d_j in Fractions, sorted exactly and
    rounded once per coordinate."""
    det_m, adj = det_and_adjugate(M)
    Minv = tuple(tuple(Fraction(x, det_m) for x in row) for row in adj)
    pts = [tuple(Fraction(c) for c in d) for d in digits]
    sums = {(Fraction(0),) * len(M)}
    power = Minv
    for _ in range(k):
        terms = [mat_vec(power, d) for d in pts]
        sums = {tuple(s + t for s, t in zip(b, term)) for b in sums for term in terms}
        power = mat_mul(power, Minv)
    return tuple(tuple(float(c) for c in p) for p in sorted(sums))


@pytest.mark.parametrize(
    "M, digits, k",
    [
        (SWAP, SWAP_C, 5),  # det -90, odd k: negative denominator
        (SWAP, SWAP_D, 4),
        (((-3,),), ((0,), (Fraction(1, 2),), (Fraction(-2, 3),)), 5),
        (
            ((2, 1, 0), (0, -3, 1), (1, 0, 2)),
            ((0, 0, 0), (1, 0, 0), (0, Fraction(1, 4), 1)),
            3,
        ),
        (((0, 0, 2), (1, 0, 0), (0, 1, 0)), ((0, 0, 0), (1, 2, 0), (0, 0, 1)), 4),
    ],
)
def test_attractor_expansion_matches_fraction_reference(M, digits, k):
    assert attractor_sample(M, digits, k=k).points == _fraction_expansion(M, digits, k)


@settings(max_examples=40, deadline=None)
@given(
    expanding_maps(),
    st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 4),
)
def test_attractor_expansion_matches_fraction_reference_random(M, rows, k):
    digits = {tuple(r[: len(M)]) for r in rows}
    assert attractor_sample(M, digits, k=k).points == _fraction_expansion(M, digits, k)


def _fraction_tail_bound(Minv, digits, k):
    """The tail bound computed on Fraction matrix powers of M^{-1}, with the
    first contracting power searched among the first 400."""

    def sup_norm(P):
        return max(sum(abs(x) for x in row) for row in P)

    dmax = max(max(abs(c) for c in d) for d in digits)
    if dmax == 0:
        return Fraction(0)
    Q = Minv
    for K in range(1, 400):
        theta = sup_norm(Q)
        if theta < 1:
            break
        Q = mat_mul(Q, Minv)
    else:
        raise AssertionError("no contracting power among the first 400")
    P = Minv
    for _ in range(k):
        P = mat_mul(P, Minv)
    S0 = Fraction(0)
    for _ in range(K):
        S0 += sup_norm(P)
        P = mat_mul(P, Minv)
    return dmax * S0 / (1 - theta)


@settings(max_examples=60, deadline=None)
@given(
    expanding_maps(),
    st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 12),
)
def test_tail_bound_matches_fraction_reference(M, rows, k):
    digits = {tuple(r[: len(M)]) for r in rows}
    pts = tuple(tuple(Fraction(c) for c in d) for d in digits)
    det_m, adj = det_and_adjugate(M)
    Minv = tuple(tuple(Fraction(x, det_m) for x in row) for row in adj)
    assert fourier._tail_bound(adj, abs(det_m), pts, k) == _fraction_tail_bound(
        Minv, pts, k
    )
    chaos = attractor_sample(M, digits, mode="chaos_game", N=1, seed=0)
    assert chaos.eps == float(_fraction_tail_bound(Minv, pts, 50))


def _bits(x):
    """IEEE bit patterns of a float, a complex, or a nested tuple or list
    of them: unlike ==, they tell -0.0 from 0.0."""
    if isinstance(x, complex):
        return struct.pack("dd", x.real, x.imag)
    if isinstance(x, float):
        return struct.pack("d", x)
    return tuple(_bits(c) for c in x)


def _orbit(M, z, k, m):
    """(M^T)^m (z + k) as floats."""
    x = tuple(Fraction(c) + e for c, e in zip(z, k))
    for _ in range(m):
        x = mat_vec(transpose(M), x)
    return tuple(float(c) for c in x)


small = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(
    expanding_maps(),
    st.lists(small, min_size=6, max_size=6),
    st.lists(st.tuples(small, small, small, st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(*[st.floats(-30, 30)] * 3), min_size=1, max_size=4),
)
def test_mu_hat_batch_matches_scalar(M, coords, orbits, free):
    n = len(M)
    # a_0 = 1 and b_0 = 2 mod 3 make z = (1/3, 0, ...) a zero of the mask;
    # the orbit points (M^T)^m (z + k) are zeros of the transform
    a = (1 + 3 * coords[0],) + tuple(coords[2 : n + 1])
    b = (2 + 3 * coords[1],) + tuple(coords[n + 1 : 2 * n])
    D = ((0,) * n, a, b)
    z = (Fraction(1, 3),) + (Fraction(0),) * (n - 1)
    xs = [_orbit(M, z, o[:n], o[3]) for o in orbits] + [tuple(f[:n]) for f in free]
    engine = _MuHat(DigitSystem(M, D), 30)
    assert _bits(engine.values(np.array(xs))) == _bits([engine.value(x) for x in xs])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_hat_batch_cutoff_matches_scalar(n):
    # M^T = -2I fixes the mask zero z = (1/3, 0, ...) mod 1 and M^{-T} is
    # exact in binary, so along (M^T)^m z every factor is tiny: the product
    # crosses the 1e-300 cutoff for m = 25 to 27 before it underflows
    M = tuple(tuple(-2 if i == j else 0 for j in range(n)) for i in range(n))
    e = tuple(int(i == 0) for i in range(n))
    D = ((0,) * n, e, tuple(2 * c for c in e))
    z = (Fraction(1, 3),) + (Fraction(0),) * (n - 1)
    xs = [_orbit(M, z, (0,) * n, m) for m in range(18, 32)] + [(0.3,) * n]
    engine = _MuHat(DigitSystem(M, D), 40)
    want = [engine.value(x) for x in xs]
    assert _bits(engine.values(np.array(xs))) == _bits(want)
    assert want[24 - 18] != 0 and want[25 - 18] == 0


# ------------------------------------ differential: planar float kernels


def _expansion_loop(M, digits, k):
    """The digit expansion's n-dimensional loop, the reference for the
    planar path."""
    pts = fourier._rational_points(digits, len(M), "digit")
    det_m, adj = det_and_adjugate(M)
    den, levels = fourier._level_terms(det_m, adj, pts, k)
    sums = {(0,) * len(M)}
    for terms in levels:
        sums = {tuple(map(add, base, term)) for base in sums for term in terms}
    return tuple(tuple(c / den for c in p) for p in sorted(sums))


def _float_mat_vec(M, v):
    """mat_vec on floats with each row summed 0.0 + m0*v0 + m1*v1 + ...,
    the builtin sum's order up to Python 3.11, on any version."""
    if len(M[0]) != len(v):
        raise WrongDimension("matrix-vector dimension mismatch")
    return tuple(reduce(add, map(mul, row, v), 0.0) for row in M)


def _chaos_loop(M, digits, N, seed, burn_in=50):
    """The chaos game's n-dimensional loop through _float_mat_vec."""
    pts = fourier._rational_points(digits, len(M), "digit")
    det_m, adj = det_and_adjugate(M)
    rng = random.Random(seed)
    Mf = tuple(tuple(x / det_m for x in row) for row in adj)
    df = [tuple(float(c) for c in d) for d in pts]
    x = (0.0,) * len(M)
    out = []
    for t in range(burn_in + N):
        d = df[rng.randrange(len(df))]
        x = _float_mat_vec(Mf, tuple(a + b for a, b in zip(x, d)))
        if t >= burn_in:
            out.append(x)
    return tuple(out)


def _mu_hat_loop(M, D, xi, depth):
    """The truncated product's n-dimensional loop through _float_mat_vec
    and mask_eval."""
    minvT = _MuHat(DigitSystem(M, D), depth).minvT
    y = tuple(float(c) for c in xi)
    prod = complex(1.0)
    for _ in range(depth):
        y = _float_mat_vec(minvT, y)
        prod *= mask_eval(as_digit_set(D), y)
        if abs(prod) < 1e-300:
            return 0j
    return prod


@st.composite
def planar_maps(draw):
    """Expanding 2x2 integer maps with entries up to 6 in modulus, either
    sign of det M."""
    M = tuple(tuple(draw(st.integers(-6, 6)) for _ in range(2)) for _ in range(2))
    assume(is_expanding(M))
    return M


rational_digits = st.lists(
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize(
    "M, digits",
    [
        (SWAP, SWAP_C),  # det -90, 0 on the diagonal of M^{-1}
        (SWAP, SWAP_D),
        (((3, 1), (1, 4)), THREE),
        (((-2, 0), (0, -2)), ((0, 0), (-1, 0), (0, Fraction(-1, 2)))),
        (((-3,),), ((0,), (Fraction(1, 2),), (Fraction(-2, 3),))),
        (((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 0), (1, 0, 0), (0, 1, 0))),
    ],
)
def test_attractor_matches_loops_bitwise_fixed(M, digits):
    for k in (1, 4):
        assert _bits(attractor_sample(M, digits, k=k).points) == _bits(
            _expansion_loop(M, digits, k)
        )
    chaos = attractor_sample(M, digits, mode="chaos_game", N=300, seed=3)
    assert _bits(chaos.points) == _bits(_chaos_loop(M, digits, 300, 3))
    # without burn-in, a first step by a zero digit sums two zero products
    for seed in range(8):
        chaos = attractor_sample(M, digits, mode="chaos_game", N=5, seed=seed, burn_in=0)
        assert _bits(chaos.points) == _bits(_chaos_loop(M, digits, 5, seed, 0))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(planar_maps(), expanding_maps()),
    rational_digits,
    st.booleans(),
    st.integers(1, 5),
    st.integers(0, 2**32),
    st.sampled_from((0, 1, 50)),
)
def test_attractor_matches_loops_bitwise(M, rows, zero, k, seed, burn_in):
    digits = {tuple(r[: len(M)]) for r in rows} | ({(0,) * len(M)} if zero else set())
    assume(len(digits) ** k <= 1024)
    got = attractor_sample(M, digits, k=k).points
    assert _bits(got) == _bits(_expansion_loop(M, digits, k))
    chaos = attractor_sample(
        M, digits, mode="chaos_game", N=200, seed=seed, burn_in=burn_in
    )
    assert _bits(chaos.points) == _bits(_chaos_loop(M, digits, 200, seed, burn_in))


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(planar_maps(), expanding_maps()),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=5),
    st.lists(
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 1000)),
        min_size=3,
        max_size=3,
    ),
    st.integers(1, 80),
)
def test_mu_hat_matches_loop_bitwise(M, rows, xi, depth):
    D = tuple({tuple(r[: len(M)]) for r in rows})
    xi = xi[: len(M)]
    assert _bits(mu_hat_numeric(DigitSystem(M, D), xi, depth)) == _bits(_mu_hat_loop(M, D, xi, depth))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(planar_maps(), expanding_maps(st.just(2))),
    st.lists(small, min_size=4, max_size=4),
    st.tuples(small, small),
    st.integers(0, 3),
    st.integers(1, 80),
)
def test_mu_hat_matches_loop_bitwise_at_mask_zero_images(M, coords, k, m, depth):
    # z = (1/3, 0) is a zero of the mask, as in the batch test above
    D = ((0, 0), (1 + 3 * coords[0], coords[2]), (2 + 3 * coords[1], coords[3]))
    xi = _orbit(M, (Fraction(1, 3), Fraction(0)), k, m)
    assert _bits(mu_hat_numeric(DigitSystem(M, D), xi, depth)) == _bits(_mu_hat_loop(M, D, xi, depth))


def test_mu_hat_matches_loop_bitwise_across_the_cutoff():
    # M^T = -2I keeps the mask zero (1/3, 0) mod 1 and M^{-T} is exact in
    # binary: the product crosses 1e-300 between m = 24 and m = 25
    M = ((-2, 0), (0, -2))
    D = ((0, 0), (1, 0), (2, 0))
    for m in range(18, 32):
        xi = _orbit(M, (Fraction(1, 3), Fraction(0)), (0, 0), m)
        want = _mu_hat_loop(M, D, xi, 40)
        assert _bits(mu_hat_numeric(DigitSystem(M, D), xi, 40)) == _bits(want)
        assert (want == 0) == (m >= 25)


I3 = ((2, 0, 0), (0, 2, 0), (0, 0, 2))
I3_D = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "M, D, xi",
    [
        # the planar step: an infinite phase, then a coordinate beyond floats
        (SWAP, SWAP_D, (10**308, 10**308)),
        (SWAP, SWAP_D, (10**400, 1)),
        # a phase inf - inf, whose NaN cmath.exp passes on silently
        (((2, 0), (0, 2)), ((0, 0), (1, 0), (100, -100)), (8 * 10**306, 8 * 10**306)),
        # the n-dimensional step
        (I3, I3_D, (10**308, 10**308, 10**308)),
        (I3, I3_D, (10**400, 1, 1)),
    ],
)
def test_mu_hat_refuses_a_frequency_too_large_for_floats(M, D, xi):
    shown = ", ".join(map(str, xi))
    with pytest.raises(OverflowError) as exc:
        mu_hat_numeric(DigitSystem(M, D), xi)
    assert str(exc.value) == f"frequency ({shown}) is too large for the float product"


@pytest.mark.parametrize(
    "M, D, xi", [(SWAP, SWAP_D, (10**306, 10**306)), (I3, I3_D, (10**306,) * 3)]
)
def test_mu_hat_keeps_large_finite_frequencies(M, D, xi):
    assert _bits(mu_hat_numeric(DigitSystem(M, D), xi)) == _bits(_mu_hat_loop(M, D, xi, 40))


@pytest.mark.parametrize(
    "M, D, xi",
    [
        (M3, ((0,), (1,), (2,)), (0, 0)),  # 1-D digits under a planar map
        (M3, THREE, (0, 0, 0)),  # a 3-D point under a planar map
        (M3, THREE, (0,)),
        (((3,),), ((0,), (1,)), (1, 2)),
    ],
)
def test_mu_hat_refusals_match_loop(M, D, xi):
    got = _outcome(on_system(mu_hat_numeric), M, D, xi, 5)
    assert got == _outcome(_mu_hat_loop, M, D, xi, 5)
    assert got[0] is WrongDimension


def _scalar_scan(M, D, freqs, eta, resolution, depth):
    engine = _MuHat(DigitSystem(M, D), depth)
    axis = tuple(-eta + 2 * eta * i / (resolution - 1) for i in range(resolution))
    fl = [tuple(float(c) for c in f) for f in freqs]
    return [
        _pairwise_sum(
            [abs(engine.value(tuple(p + l for p, l in zip(pt, f)))) ** 2 for f in fl]
        )
        for pt in itertools.product(axis, repeat=len(M))
    ]


def _candidate(freqs):
    return SpectrumCandidate(
        base=(), levels=1, frequencies=freqs, orthogonal=False, failing_pair=None
    )


@pytest.mark.parametrize(
    "M, D, cand, eta, resolution",
    [
        (SWAP, SWAP_D, spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, 2), 0.16, 5),
        (M3, THREE, spectrum_candidate(DigitSystem(M3, THREE), S3, 2), 0.3, 4),
        (
            ((3,),),
            ((0,), (1,), (2,)),
            _candidate(((0,), (1,), (Fraction(5, 2),))),
            0.4,
            7,
        ),
        (
            ((2, 1, 0), (0, 3, 0), (0, 0, -2)),
            ((0, 0, 0), (1, 0, 0), (0, 1, 1)),
            _candidate(((0, 0, 0), (1, 2, 0), (Fraction(1, 3), 0, 4))),
            0.25,
            3,
        ),
        # rows of three nonzero terms: a compensated sum (the builtin one
        # from Python 3.12) moves the last bit at 47 of these 81 points
        (
            ((3, 1, 1), (1, 4, 1), (2, 1, 5)),
            ((0, 0, 0), (1, 0, 0), (0, 1, 1)),
            _candidate(((0, 0, 0), (1, 2, 0), (Fraction(1, 3), 0, 4))),
            0.25,
            3,
        ),
    ],
)
@pytest.mark.parametrize("batch", [1 << 16, 5])
def test_completeness_scan_matches_scalar_loop(
    monkeypatch, M, D, cand, eta, resolution, batch
):
    # a small batch splits the grid into uneven blocks
    monkeypatch.setattr(fourier, "_BATCH", batch)
    scan = completeness_scan(DigitSystem(M, D), cand, eta, resolution=resolution, depth=40)
    want = _scalar_scan(M, D, cand.frequencies, eta, resolution, 40)
    assert [q for row in scan.values for q in row] == want
    assert (scan.min_q, scan.max_q) == (min(want), max(want))


# ------------------------------- differential: integer level sums, radius


def _outcome(f, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def on_system(f):
    """f called on (M, D, ...) as on (DigitSystem(M, D), ...), so that the
    system's own refusals are part of the outcome, as for a reference that
    takes (M, D)."""
    return lambda M, D, *args: f(DigitSystem(M, D), *args)


def _fraction_spectrum_candidate(M, D, base, levels):
    """Reference: level sums and differences in Fractions, each sign-
    canonical difference walked by zero_membership."""
    M = as_matrix(M)
    D = as_digit_set(D)
    n = len(M)
    pts = fourier._rational_points(base, n, "base")
    zero = (Fraction(0),) * n
    if zero not in pts:
        raise ValueError("base must contain the zero vector")
    if levels < 1:
        raise ValueError("level count must be positive")
    # the measure's gate, asked before the level sums and even of a
    # one-point base with no pair to walk
    system = DigitSystem(M, D)
    system.walkable
    Mt = transpose(M)
    freqs = {zero}
    power = Mt
    for _ in range(levels):
        terms = [tuple(mat_vec(power, c)) for c in pts]
        freqs = {tuple(f + t for f, t in zip(b, term)) for b in freqs for term in terms}
        power = mat_mul(power, Mt)
    if len(freqs) != len(pts) ** levels:
        raise ValueError("level sums must be distinct")
    ordered = tuple(sorted(freqs))
    memo = {}
    failing = None
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            w = tuple(x - y for x, y in zip(a, b))
            for c in w:
                if c != 0:
                    if c < 0:
                        w = tuple(-x for x in w)
                    break
            hit = memo.get(w)
            if hit is None:
                hit = zero_membership(system, w) is not None
                memo[w] = hit
            if not hit:
                failing = (a, b)
                break
        if failing is not None:
            break
    return SpectrumCandidate(
        base=pts,
        levels=levels,
        frequencies=ordered,
        orthogonal=failing is None,
        failing_pair=failing,
    )


def _full_box_square(pts, zeros):
    """Reference: every point against every zero translate in the box."""
    lo = np.floor(pts.min(axis=0)).astype(int) - 1
    hi = np.ceil(pts.max(axis=0)).astype(int) + 1
    shifts = np.array(list(np.ndindex(*[int(h - l + 1) for l, h in zip(lo, hi)]))) + lo
    return min(
        float(((pts[:, None, :] - (z + shifts)[None, :, :]) ** 2).sum(axis=2).min())
        for z in zeros
    )


def _full_box_suggest_eta(M, D, base, k):
    M = as_matrix(M)
    D = as_digit_set(D)
    zs = zero_set(D)
    if not zs.complete:
        raise IncompleteZeroSet("orthogonality decisions need a provably complete zero set")
    if not zs.points:
        raise HypothesisViolation("mask has no zeros; any radius works")
    sample = attractor_sample(M, base, "digit_expansion", k=k)
    pts = np.array(sample.points, dtype=float)
    zarr = np.array([[float(c) for c in z] for z in zs.points])
    dist = math.sqrt(_full_box_square(pts, zarr))
    eta = (dist - sample.eps) / 2
    if eta <= 0:
        raise HypothesisViolation(
            "sampled attractor is not separated from the mask zeros"
        )
    return EtaSuggestion(eta=eta, distance=dist, sampling_error=sample.eps)


frame = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
# base coordinates with mixed denominators 1, 2, 3 and 6
base_coord = st.builds(
    Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 6))
)


@st.composite
def digit_systems(draw):
    """(M, D, zeros): a planar three- or four-digit set with its complete
    zero set, or, in any of n = 1, 2, 3, a single digit (complete, no zeros)
    or two digits (no complete zero set)."""
    n = draw(st.sampled_from((1, 2, 2, 2, 3)))
    M = draw(expanding_maps(st.just(n)))
    if n == 2 and draw(st.integers(0, 3)):
        a, b = draw(frame), draw(frame)
        assume(a[0] * b[1] - a[1] * b[0] != 0)
        m = draw(st.sampled_from((3, 2)))
        if m == 3:
            D = ((0, 0), a, b)
        else:
            D = ((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1]))
        if draw(st.booleans()):
            # m K with det K prime to m: (M, D) often has a dual set
            units = (-2, -1, 1, 2) if m == 3 else (-1, 1)
            K = draw(expanding_maps(st.just(2), st.sampled_from(units)))
            M = tuple(tuple(m * x for x in row) for row in K)
    else:
        D = ((0,) * n,)
        if draw(st.booleans()):
            D += (tuple(draw(st.integers(-2, 2)) for _ in range(n)),)
            assume(any(D[1]))
    zs = zero_set(D)
    return M, D, zs.points if zs.complete else ()


@st.composite
def spectrum_problems(draw):
    """Base sets with 0: a dual set S of (M, D), or M^{-T} S with the
    denominators of det M (orthogonal families at every level), mask
    zeros, random rationals (failing families), and c with M^T c
    (colliding level sums)."""
    M, D, zeros = draw(digit_systems())
    n = len(M)
    base = {(Fraction(0),) * n}
    found = find_spectrum_set(DigitSystem(M, D)) if zeros else None
    if found is not None and found.status == "found" and draw(st.booleans()):
        d, adj = det_and_adjugate(M)
        minvT = [[Fraction(x, d) for x in row] for row in transpose(adj)]
        scale = draw(st.sampled_from((None, minvT)))
        base |= {tuple(s) if scale is None else tuple(mat_vec(scale, s)) for s in found.S}
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("zero", "random", "collide")))
        if kind == "zero" and zeros:
            z = draw(st.sampled_from(zeros))
            shift = tuple(draw(st.integers(-1, 1)) for _ in range(n))
            base.add(tuple(c + s for c, s in zip(z, shift)))
        elif kind == "collide":
            c = tuple(draw(base_coord) for _ in range(n))
            base |= {c, tuple(mat_vec(transpose(M), c))}
        else:
            base.add(tuple(draw(base_coord) for _ in range(n)))
    levels = draw(st.integers(1, 3 if len(base) <= 5 else 2))
    return M, D, sorted(base), levels


def _walked(f, *args):
    """_outcome of f and the number of membership walks it started."""
    real = DigitSystem.membership
    walks = []

    def counted(self, N, Q):
        walks.append(N)
        return real(self, N, Q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DigitSystem, "membership", counted)
        return _outcome(f, *args), len(walks)


@settings(max_examples=200, deadline=None)
@given(spectrum_problems())
def test_spectrum_candidate_matches_fraction_reference(problem):
    M, D, base, levels = problem
    # the orthogonality graph decides with no walk; the reference walks
    got, walks = _walked(on_system(spectrum_candidate), M, D, base, levels)
    assert got == _walked(_fraction_spectrum_candidate, M, D, base, levels)[0]
    assert walks == 0


@pytest.mark.parametrize("levels, reference_walks", [(1, 2), (2, 12), (3, 62), (4, 312)])
def test_spectrum_candidate_swap_matches_fraction_reference(levels, reference_walks):
    got = _walked(on_system(spectrum_candidate), SWAP, SWAP_D, SWAP_C, levels)
    want = _walked(_fraction_spectrum_candidate, SWAP, SWAP_D, SWAP_C, levels)
    assert got[0] == want[0]
    assert got[1] == 0
    # one reference walk per distinct difference up to sign
    assert want[1] == reference_walks


@st.composite
def eta_problems(draw):
    """Digit systems with a rational base; sometimes the base holds M z for
    a mask zero z, so the expansion lands on z and no radius exists."""
    M, D, zeros = draw(digit_systems())
    n = len(M)
    # small digits keep the attractor near 0 and away from most zeros
    coord = st.builds(Fraction, st.integers(-1, 1), st.sampled_from((1, 2, 3, 6)))
    base = {tuple(draw(coord) for _ in range(n)) for _ in range(draw(st.integers(1, 3)))}
    if zeros and draw(st.booleans()):
        base |= {(0,) * n, tuple(mat_vec(M, draw(st.sampled_from(zeros))))}
    k = draw(st.integers(1, 4 if len(base) <= 3 else 3))
    return M, D, sorted(base), k


@settings(max_examples=150, deadline=None)
@given(eta_problems())
def test_suggest_eta_matches_full_box(problem):
    M, D, base, k = problem
    got = _outcome(on_system(suggest_eta), M, D, base, k)
    want = _outcome(_full_box_suggest_eta, M, D, base, k)
    # float equality is exact: equal results have bit-identical floats
    assert got == want


def test_suggest_eta_swap_matches_full_box():
    assert suggest_eta(DigitSystem(SWAP, SWAP_D), SWAP_C) == _full_box_suggest_eta(SWAP, SWAP_D, SWAP_C, 8)


def test_suggest_eta_swap_scores_few_leaves():
    leaves = []
    real = fourier._leaf_square

    def counted(N, den, zeros):
        leaves.append(N)
        return real(N, den, zeros)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fourier, "_leaf_square", counted)
        got = suggest_eta(DigitSystem(SWAP, SWAP_D), SWAP_C)
    assert got.distance == 0.3258426967433826
    # the branch and bound leaves all but a handful of the 3^8 leaves
    assert 1 <= len(leaves) < 3**8 // 100


@st.composite
def deep_eta_problems(draw):
    """Planar three- and four-digit systems at k = 5..8, whose base often
    holds M z plus a small offset for a mask zero z: the level-one
    expansion z + M^{-1} offset then lies near z, and many subtrees sit
    within a hair of the best leaf, where pruning and its slack decide."""
    M, D, zeros = draw(digit_systems())
    assume(zeros)
    coord = st.builds(Fraction, st.integers(-1, 1), st.sampled_from((1, 2, 3, 6)))
    point = st.tuples(coord, coord).filter(any)
    base = {(Fraction(0),) * 2} | set(draw(st.lists(point, min_size=1, max_size=2)))
    if draw(st.integers(0, 3)):
        e = draw(st.integers(1, 14))
        offset = (Fraction(draw(st.integers(-3, 3)), 10**e), Fraction(draw(st.integers(-3, 3)), 10**e))
        z = draw(st.sampled_from(zeros))
        base.add(tuple(c + o for c, o in zip(mat_vec(M, z), offset)))
    k = draw(st.integers(5, 8 if len(base) <= 3 else 6))
    return M, D, sorted(base), k


@settings(max_examples=40, deadline=None)
@given(deep_eta_problems())
def test_suggest_eta_deep_matches_full_box(problem):
    M, D, base, k = problem
    got = _outcome(on_system(suggest_eta), M, D, base, k)
    assert got == _outcome(_full_box_suggest_eta, M, D, base, k)
    if isinstance(got, EtaSuggestion):
        return
    # a refused eta hides the minimum; compare it directly
    det_m, adj = det_and_adjugate(M)
    den, levels = fourier._level_terms(det_m, adj, base, k)
    zeros = [tuple(float(c) for c in z) for z in zero_set(D).points]
    cloud = np.array(attractor_sample(M, base, k=k).points)
    assert fourier._nearest_leaf_square(den, levels, zeros) == _full_box_square(
        cloud, np.array(zeros)
    )


# over den = 9 the points lie on a ninths grid, where ties and near ties
# between shifts are common
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=30),
    st.sampled_from((1, 9, 7 * 2**40)),
    st.lists(st.tuples(*[st.floats(0, 1, exclude_max=True)] * 2), min_size=1, max_size=5),
)
def test_leaf_square_matches_full_box(numerators, den, zeros):
    pts = np.array([[c / den for c in N] for N in numerators])
    got = min(fourier._leaf_square(N, den, zeros) for N in numerators)
    assert got == _full_box_square(pts, np.array(zeros))
