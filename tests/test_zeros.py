"""Exact mask zero sets."""

import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_affine.errors import (
    DegenerateDigits,
    IncompleteZeroSet,
    WrongDimension,
)
from spectral_affine.linalg import coset_transversal, det_and_adjugate, in_lattice, transpose
from spectral_affine.zeros import (
    DigitSystem,
    _lattice_preimage,
    _vanishes_at,
    ZeroSet,
    as_digit_set,
    as_rational_point,
    cyclotomic,
    four_digit_frame,
    is_zero_exact,
    lattice_form,
    mask_eval,
    reduce_mod1,
    three_digit_frame,
    zero_set,
    zero_set_in_punctured_grid,
)

THREE = ((0, 0), (1, 0), (0, 1))
FOUR = ((0, 0), (1, 0), (0, 1), (-1, -1))

F = Fraction
THIRD_PAIR = ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))
HALF_TRIPLE = ((F(0), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1, 2)))


def test_as_digit_set_validation():
    assert as_digit_set([[0, 0], [1, 0]]) == ((0, 0), (1, 0))
    with pytest.raises(ValueError):
        as_digit_set([[0, 0], [0, 0]])
    with pytest.raises(WrongDimension):
        as_digit_set([[0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        as_digit_set([])
    with pytest.raises(ValueError):
        as_digit_set([[0.5, 0], [1, 0]])


def test_as_rational_point_and_reduce():
    assert as_rational_point([1, F(1, 2)]) == (F(1), F(1, 2))
    assert reduce_mod1((F(7, 3), F(-1, 4))) == (F(1, 3), F(3, 4))
    assert reduce_mod1((F(1), F(-2))) == (F(0), F(0))


@pytest.mark.parametrize("x", [(F(1, 3),), (F(1, 3), F(2, 3), 0)])
def test_point_dimension_must_match_the_digits(x):
    message = "point dimension does not match digits"
    with pytest.raises(WrongDimension, match=message):
        mask_eval(THREE, x)
    with pytest.raises(WrongDimension, match=message):
        is_zero_exact(THREE, x)


def test_mask_eval_numeric():
    assert mask_eval(THREE, (0.0, 0.0)) == pytest.approx(1.0)
    assert abs(mask_eval(THREE, (1 / 3, 2 / 3))) == pytest.approx(0.0, abs=1e-12)
    assert abs(mask_eval(FOUR, (0.5, 0.5))) == pytest.approx(0.0, abs=1e-12)
    assert abs(mask_eval(FOUR, (0.25, 0.25))) == pytest.approx(0.5)


def test_cyclotomic_small_table():
    # ascending-degree coefficient tuples
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(5) == (1, 1, 1, 1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_recovers_power():
    # product of phi_d over divisors d of q equals x^q - 1
    for q in (6, 8, 12):
        prod = [1]
        for d in range(1, q + 1):
            if q % d == 0:
                phi = cyclotomic(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [-1] + [0] * (q - 1) + [1]
        assert prod == expect


def test_is_zero_exact_known_points():
    assert is_zero_exact(THREE, (F(1, 3), F(2, 3)))
    assert is_zero_exact(THREE, (F(2, 3), F(1, 3)))
    assert not is_zero_exact(THREE, (F(1, 3), F(1, 3)))
    assert not is_zero_exact(THREE, (F(0), F(0)))
    assert is_zero_exact(FOUR, (F(0), F(1, 2)))
    assert is_zero_exact(FOUR, (F(1, 2), F(1, 2)))
    assert not is_zero_exact(FOUR, (F(1, 4), F(1, 4)))


@settings(max_examples=80)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
)
def test_is_zero_exact_matches_numeric_mask(digits, num):
    D = tuple(digits)
    x = (F(num[0], 12), F(num[1], 12))
    numeric = abs(mask_eval(D, (float(x[0]), float(x[1]))))
    assert is_zero_exact(D, x) == (numeric < 1e-9)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=2,
        max_size=5,
        unique=True,
    ),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
    st.integers(1, 12),
    st.integers(1, 60),
)
def test_vanishes_at_any_terms_matches_numeric_mask(digits, N, q, k):
    # the exact test reduces k N / (k q) to lowest terms before it builds
    # a cyclotomic polynomial
    D = tuple(digits)
    numeric = abs(mask_eval(D, (N[0] / q, N[1] / q)))
    assert _vanishes_at(D, (k * N[0], k * N[1]), k * q) == (numeric < 1e-9)


def test_zero_set_three_digit_canonical():
    zs = zero_set(THREE)
    assert zs.complete and zs.q == 3
    assert zs.points == THIRD_PAIR


def test_zero_set_three_digit_stretched():
    zs = zero_set(((0, 0), (1, 0), (0, 2)))
    assert zs.complete and zs.q == 6
    assert zs.points == (
        (F(1, 3), F(1, 3)),
        (F(1, 3), F(5, 6)),
        (F(2, 3), F(1, 6)),
        (F(2, 3), F(2, 3)),
    )


def test_zero_set_three_digit_translated_invariance():
    base = zero_set(THREE)
    shifted = zero_set(((5, -2), (6, -2), (5, -1)))
    assert shifted.points == base.points


def test_zero_set_four_digit_canonical():
    zs = zero_set(FOUR)
    assert zs.complete and zs.q == 2
    assert zs.points == HALF_TRIPLE


def test_zero_set_four_digit_scaled_and_translated():
    scaled = zero_set(((0, 0), (2, 0), (0, 2), (-2, -2)))
    assert scaled.complete and scaled.q == 4
    assert len(scaled.points) == 12
    moved = zero_set(((1, 1), (3, 1), (1, 3), (-1, -1)))
    assert moved.points == scaled.points


def test_zero_set_degenerate_digits():
    with pytest.raises(DegenerateDigits):
        zero_set(((0, 0), (1, 0), (2, 0)))


def test_zero_set_singleton_is_empty_and_complete():
    zs = zero_set(((4, 7),))
    assert zs.points == () and zs.complete


def test_zero_set_hint_mode():
    # a product-form mask outside both closed-form families
    D = ((0, 0), (1, 0), (0, 1), (1, 1))
    zs = zero_set(D, q_hints=[2])
    assert not zs.complete
    assert frozenset(zs.points) == {
        (F(0), F(1, 2)),
        (F(1, 2), F(0)),
        (F(1, 2), F(1, 2)),
    }
    empty = zero_set(D)
    assert empty.points == () and not empty.complete
    with pytest.raises(ValueError):
        zero_set(D, q_hints=[0])


def test_zero_set_points_are_sorted_and_in_cube():
    zs = zero_set(((0, 0), (3, 1), (1, 3)))
    assert zs.points == tuple(sorted(zs.points))
    assert all(0 <= c < 1 for pt in zs.points for c in pt)


def test_zero_set_symmetry_guard():
    with pytest.raises(AssertionError):
        ZeroSet(3, ((1, 1),), complete=True)
    with pytest.raises(AssertionError):
        ZeroSet(3, ((4, 2),), complete=True)
    with pytest.raises(AssertionError, match="symmetric"):
        ZeroSet(3, ((1, 1), (1, 2)), complete=True)


def test_zero_set_refuses_a_form_that_is_not_its_own():
    assert list(inspect.signature(ZeroSet).parameters) == ["q", "residues", "complete"]
    for q, residues in ((6, ((2, 4), (4, 2))), (2, ()), (0, ())):
        with pytest.raises(AssertionError, match="least common denominator"):
            ZeroSet(q, residues, complete=True)
    with pytest.raises(AssertionError, match=r"\[0,1\)"):
        ZeroSet(3, ((1, 2), (-1, 1)), complete=True)
    with pytest.raises(AssertionError, match="symmetric"):
        ZeroSet(3, ((1, 2),), complete=True)
    zs = ZeroSet(3, ((1, 2), (2, 1)), complete=True)
    assert "points" not in zs.__dict__
    assert zs.points == THIRD_PAIR and zs.residue_set == {(1, 2), (2, 1)}
    for field in ("q", "residues", "complete", "points"):
        with pytest.raises(AttributeError):
            setattr(zs, field, None)


def test_zero_set_residues_are_scaled_points():
    stretched = ((0, 0), (1, 0), (0, 2))
    negative = ((0, 0), (1, 3), (2, -1), (-3, -2))  # det B = -7
    for D in (THREE, FOUR, stretched, ((0, 0), (3, 1), (1, 3)), negative):
        zs = zero_set(D)
        # Fraction == int only when the scaled coordinate is integral
        assert zs.residues == tuple(tuple(c * zs.q for c in pt) for pt in zs.points)
    hinted = zero_set(((0, 0), (1, 0), (0, 1), (1, 1)), q_hints=[2])
    assert hinted.residues == ((0, 1), (1, 0), (1, 1))
    assert zero_set(((4, 7),)).residues == ()


def _grid_scan(D, q):
    """Every zero of the mask of D on the (1/q)-grid, by exact testing."""
    found = set()
    for a in range(q):
        for b in range(q):
            x = (F(a, q), F(b, q))
            if is_zero_exact(D, x):
                found.add(x)
    return found


frame_vectors = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(frame_vectors, frame_vectors, frame_vectors)
@example((0, 0), (2, 1), (1, 3))
@example((1, -2), (1, 3), (2, 1))
@example((0, 0), (4, 1), (0, -3))
def test_three_digit_closed_form_against_exact_scan(d0, alpha, beta):
    detB = alpha[0] * beta[1] - alpha[1] * beta[0]
    if detB == 0 or abs(detB) > 12:
        return
    D = (d0, (d0[0] + alpha[0], d0[1] + alpha[1]), (d0[0] + beta[0], d0[1] + beta[1]))
    if len(set(D)) != 3:
        return
    zs = zero_set(D)
    assert zs.complete
    assert len(zs.points) == 2 * abs(detB)
    assert zs.points == tuple(sorted(zs.points))
    # the closed form must find everything the grid scan finds
    assert _grid_scan(D, zs.q) == frozenset(zs.points)
    # and no zero hides off that grid: every zero has denominator 3|det B|
    assert _grid_scan(D, 3 * abs(detB)) == frozenset(zs.points)


@settings(max_examples=60, deadline=None)
@given(
    frame_vectors,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
@example((0, 0), (2, 1), (1, 3))
@example((1, 1), (1, 3), (2, 1))
@example((0, 0), (3, 1), (0, -3))
def test_four_digit_closed_form_is_exact(c, alpha, beta):
    detB = alpha[0] * beta[1] - alpha[1] * beta[0]
    if detB == 0 or abs(detB) > 12:
        return
    gamma = (-alpha[0] - beta[0], -alpha[1] - beta[1])
    D = tuple((c[0] + v[0], c[1] + v[1]) for v in ((0, 0), alpha, beta, gamma))
    if len(set(D)) != 4:
        return
    zs = zero_set(D)
    assert zs.complete
    assert len(zs.points) == 3 * abs(detB)
    assert zs.points == tuple(sorted(zs.points))
    assert _grid_scan(D, zs.q) == frozenset(zs.points)
    assert _grid_scan(D, 2 * abs(detB)) == frozenset(zs.points)


def _fraction_preimage(B, base):
    """Reference: the preimages of the base points b/m under B^T mod Z^2 as
    sorted Fraction points over m |det B|, as zero_set built them before it
    stored residues."""
    d, adj = det_and_adjugate(B)
    m, numerators = base
    den = m * abs(d)
    (a00, a01), (a10, a11) = adj
    found = set()
    for b0, b1 in numerators:
        for r0, r1 in coset_transversal(transpose(B)):
            y0, y1 = b0 + m * r0, b1 + m * r1
            found.add(((a00 * y0 + a10 * y1) % den, (a01 * y0 + a11 * y1) % den))
    return tuple(tuple(F(v, den) for v in x) for x in sorted(found))


@settings(max_examples=150, deadline=None)
@given(frame_vectors, frame_vectors, frame_vectors, st.booleans())
@example((0, 0), (1, 0), (0, 1), False)
@example((1, 1), (1, 3), (2, 1), True)
@example((0, 0), (2, 1), (-1, 3), False)
def test_zero_set_residues_match_fraction_reference(d0, alpha, beta, four):
    assume(alpha[0] * beta[1] - alpha[1] * beta[0] != 0)
    offsets = [(0, 0), alpha, beta]
    if four:
        offsets.append((-alpha[0] - beta[0], -alpha[1] - beta[1]))
    D = tuple((d0[0] + a, d0[1] + b) for a, b in offsets)
    assume(len(set(D)) == len(D))
    zs = zero_set(D)
    if four:
        expected = _fraction_preimage(four_digit_frame(D), (2, ((0, 1), (1, 0), (1, 1))))
    else:
        expected = _fraction_preimage(three_digit_frame(D), (3, ((1, 2), (2, 1))))
    assert "points" not in zs.__dict__
    assert zs.points == expected
    assert lattice_form(zs.points) == (zs.q, zs.residues)


difference_frames = st.tuples(*[st.integers(-12, 12)] * 4).map(
    lambda e: ((e[0], e[1]), (e[2], e[3]))
)


@settings(max_examples=100, deadline=None)
@given(difference_frames)
@example(((0, 2), (3, 1)))  # a zero first-column entry
@example(((4, 0), (0, 3)))  # g = 4 on the diagonal
@example(((1, 0), (0, 7)))  # g = 1: one column
@example(((5, 1), (0, 1)))  # g = |det B| = 5: one row
@example(((2, 5), (1, 1)))  # a negative det
def test_gcd_box_is_a_transversal(B):
    # the box [0, g) x [0, |det B| / g), g the gcd of the first coordinates
    # of the columns of B^T, has |det B| members in distinct classes mod
    # B^T Z^2
    d, _ = det_and_adjugate(B)
    assume(d != 0 and abs(d) <= 60)
    A = transpose(B)
    g = math.gcd(A[0][0], A[0][1])
    box = [(x, y) for x in range(g) for y in range(abs(d) // g)]
    assert len(box) == abs(d)
    for i, a in enumerate(box):
        for b in box[:i]:
            assert not in_lattice(A, (a[0] - b[0], a[1] - b[1]))


THIRD_BASE = (3, ((1, 2), (2, 1)))
HALF_BASE = (2, ((0, 1), (1, 0), (1, 1)))


@settings(max_examples=100, deadline=None)
@given(difference_frames, st.sampled_from([THIRD_BASE, HALF_BASE]))
@example(((0, 2), (3, 1)), HALF_BASE)
@example(((5, 1), (0, 1)), THIRD_BASE)
@example(((2, 5), (1, 1)), HALF_BASE)
def test_lattice_preimage_matches_the_transversal_reference(B, base):
    d, _ = det_and_adjugate(B)
    assume(d != 0 and abs(d) <= 120)
    # the reference runs over coset_transversal(B^T)
    assert _lattice_preimage(B, base) == lattice_form(_fraction_preimage(B, base))


def four_digit_frame_reference(D):
    """[alpha | beta] by trying every digit c as the centre of
    {c, c + alpha, c + beta, c - alpha - beta}, alpha and beta the first
    two other digits minus c in digit order; None when no centre fits."""
    if len(D) != 4 or len(D[0]) != 2:
        return None
    for c in D:
        rest = [(d[0] - c[0], d[1] - c[1]) for d in D if d != c]
        if all(sum(v[i] for v in rest) == 0 for i in range(2)):
            (a, b, _) = rest
            return ((a[0], b[0]), (a[1], b[1]))
    return None


@st.composite
def four_digit_sets(draw):
    small = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    if draw(st.booleans()):
        c, alpha, beta = draw(small), draw(small), draw(small)
        shape = [(0, 0), alpha, beta, (-alpha[0] - beta[0], -alpha[1] - beta[1])]
        D = [(c[0] + v[0], c[1] + v[1]) for v in draw(st.permutations(shape))]
    else:
        D = draw(st.lists(small, min_size=4, max_size=4))
    if len(set(D)) != 4:
        D = draw(st.lists(small, min_size=4, max_size=4, unique=True))
    return tuple(D)


@settings(max_examples=300, deadline=None)
@given(four_digit_sets())
@example(((0, 0), (1, 0), (0, 1), (3, 3)))  # digit sum 4(1, 1), (1, 1) no digit
@example(((0, 0), (2, 0), (0, 2), (2, 2)))  # mean (1, 1) no digit
@example(((1, 1), (3, 1), (1, 3), (-1, -1)))
def test_four_digit_frame_matches_brute_force(D):
    assert four_digit_frame(D) == four_digit_frame_reference(D)


def test_four_digit_frame_mean_off_the_digits():
    # the digit sum is divisible by 4, but the mean (1, 1) is not a digit
    D = ((0, 0), (1, 0), (0, 1), (3, 3))
    assert four_digit_frame(D) is None
    zs = zero_set(D)
    assert not zs.complete and zs.points == ()


def test_punctured_grid_inclusion():
    zs3 = zero_set(THREE)
    assert zero_set_in_punctured_grid(zs3, 3)
    assert not zero_set_in_punctured_grid(zs3, 2)
    assert zero_set_in_punctured_grid(zs3, 9)
    zs4 = zero_set(FOUR)
    assert zero_set_in_punctured_grid(zs4, 2)
    stretched = zero_set(((0, 0), (1, 0), (0, 2)))
    assert not zero_set_in_punctured_grid(stretched, 3)
    assert not zero_set_in_punctured_grid(stretched, 2)
    assert zero_set_in_punctured_grid(stretched, 6)
    # the origin is never a mask zero, but the grid test refuses it
    with_origin = ((0, 0), (1, 2), (2, 1))
    assert not zero_set_in_punctured_grid(ZeroSet(3, with_origin, complete=True), 3)
    assert zero_set_in_punctured_grid(ZeroSet(1, (), complete=True), 6)
    incomplete = zero_set(((0, 0), (1, 0), (0, 1), (1, 1)), q_hints=[2])
    with pytest.raises(IncompleteZeroSet):
        zero_set_in_punctured_grid(incomplete, 2)


def _fraction_in_punctured_grid(Z, p):
    """Reference: each Fraction point nonzero, every denominator dividing p."""
    return all(
        any(c != 0 for c in pt) and all(p % c.denominator == 0 for c in pt)
        for pt in Z.points
    )


@st.composite
def complete_zero_sets(draw):
    """The zero set of a planar three- or four-digit set, or an arbitrary
    negation-closed set of points of a (1/q)-grid, the origin allowed."""
    if draw(st.booleans()):
        a, b = draw(frame_vectors), draw(frame_vectors)
        detB = a[0] * b[1] - a[1] * b[0]
        if detB == 0 or abs(detB) > 12:
            return zero_set(THREE)
        if draw(st.booleans()):
            return zero_set(((0, 0), a, b))
        return zero_set(((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1])))
    q = draw(st.integers(1, 12))
    cells = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
    picked = draw(st.lists(cells, max_size=5))
    closed = {r for x in picked for r in (x, tuple(-v % q for v in x))}
    points = tuple(tuple(F(v, q) for v in r) for r in sorted(closed))
    return ZeroSet(*lattice_form(points), complete=True)


@settings(max_examples=200, deadline=None)
@given(complete_zero_sets(), st.sampled_from([2, 3, 4, 5, 6, 7, 9, 12, 18, 36]))
def test_punctured_grid_and_classes_match_fraction_reference(zs, p):
    assert zero_set_in_punctured_grid(zs, p) == _fraction_in_punctured_grid(zs, p)


@settings(max_examples=100, deadline=None)
@given(
    frame_vectors,
    frame_vectors,
    st.booleans(),
    st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)), min_size=1, max_size=8),
    st.integers(-36, 36).filter(bool),
)
def test_is_zero_matches_exact_test(a, b, four, numerators, Q):
    detB = a[0] * b[1] - a[1] * b[0]
    if detB == 0 or abs(detB) > 12:
        return
    D = ((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1])) if four else ((0, 0), a, b)
    zs = zero_set(D)
    # numerators on the zeros' own grid too, so that some of them vanish
    for N in numerators + [tuple(Q * v for v in r) for r in zs.residues[:2]]:
        assert zs.is_zero(N, Q) == is_zero_exact(D, (F(N[0], Q), F(N[1], Q)))


def _inverse_transpose_times(M, v):
    """M^{-T} v in Fractions, by Cramer's rule on M^T."""
    if len(M) == 1:
        return (F(v[0], M[0][0]),)
    (a, b), (c, d) = M
    det = a * d - b * c
    return (F(d * v[0] - c * v[1], det), F(a * v[1] - b * v[0], det))


@st.composite
def vanishing_problems(draw):
    """(M, D, vs): a planar three- or four-digit set (complete zero set) or
    a hint-mode set (five planar digits, a non-antipodal square, or 1-D
    digits), an invertible M of either sign of det, and integer vectors
    v, some with M^{-T} v on the (1/scale)-grid, where small-denominator
    mask zeros lie."""
    kind = draw(st.sampled_from(["three", "four", "five", "square", "line"]))
    if kind == "line":
        D = tuple((x,) for x in draw(st.sets(st.integers(-6, 6), min_size=2, max_size=4)))
        n = 1
    else:
        n = 2
        a, b = draw(frame_vectors), draw(frame_vectors)
        if kind == "three":
            D = ((0, 0), a, b)
        elif kind == "four":
            D = ((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1]))
        elif kind == "square":
            D = ((0, 0), (1, 0), (0, 1), (1, 1))
        else:
            D = ((0, 0), a, b, (1, 1), (2, -1))
        if len(set(D)) != len(D) or (kind in ("three", "four") and a[0] * b[1] == a[1] * b[0]):
            D = ((0, 0), (1, 0), (0, 1))
    entry = st.integers(-5, 5)
    A = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    if n == 1:
        detA = A[0][0]
    else:
        detA = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if detA == 0:
        A = ((-1,),) if n == 1 else ((1, 2), (3, 1))  # det -5
    scale = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    M = tuple(tuple(scale * x for x in row) for row in A)
    vs = draw(st.lists(st.tuples(*[st.integers(-40, 40)] * n), min_size=1, max_size=6))
    # planted: v = A^T t for an integer t, so M^{-T} v = t / scale
    for t in draw(st.lists(st.tuples(*[st.integers(-12, 12)] * n), max_size=6)):
        vs.append(tuple(sum(A[k][i] * t[k] for k in range(n)) for i in range(n)))
    return M, as_digit_set(D), vs


@settings(max_examples=200, deadline=None)
@given(vanishing_problems())
@example((((3, 0), (0, -3)), THREE, [(1, 2), (2, 1), (1, -2), (0, 0)]))  # det -9
@example((((-6, 0), (0, 6)), FOUR, [(3, 0), (0, 3), (3, 3), (1, 0)]))  # det -36
@example((((4,),), ((0,), (2,)), [(1,), (3,), (2,), (-1,)]))  # incomplete, 1-D
def test_digit_system_vanishes_matches_exact_test(problem):
    M, D, vs = problem
    ds = DigitSystem(M, D)
    for v in vs:
        assert ds.vanishes(v) == is_zero_exact(D, _inverse_transpose_times(M, v))
