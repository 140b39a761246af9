"""Residue classes mod 3 and conjugacy witnesses."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_affine.conjugacy import (
    check_witness,
    make_conjugate,
    sierpinski_class,
    spectral_residue_criterion,
    spectrality_criterion,
)
from spectral_affine.errors import (
    BadDigitForm,
    DegenerateDigits,
    HypothesisViolation,
    NonIntegerDigits,
    WrongDimension,
)
from spectral_affine.linalg import det, identity, mat_mod, mat_mul, order_mod
from spectral_affine.zeros import DigitSystem

THREE = ((0, 0), (1, 0), (0, 1))

ALL_RESIDUES = [
    ((a, b), (c, d))
    for a in range(3)
    for b in range(3)
    for c in range(3)
    for d in range(3)
]


def test_class_counts_over_all_residues():
    labels = [sierpinski_class(R) for R in ALL_RESIDUES]
    assert labels.count("M1") == 9
    assert labels.count("M2") == 12
    assert labels.count("Other") == 81 - 9 - 12


def test_first_class_is_rows_equal():
    for R in ALL_RESIDUES:
        expect = R[0] == R[1]
        assert (sierpinski_class(R) == "M1") == expect


def test_second_class_is_the_order_eight_part_of_the_group():
    # the twelve listed residues are exactly the elements of order 8
    # among the 48 invertible matrices mod 3
    for R in ALL_RESIDUES:
        invertible = det(R) % 3 != 0
        is_order8 = invertible and order_mod(R, 3) == 8
        assert (sierpinski_class(R) == "M2") == is_order8


def test_second_class_closed_under_conjugation():
    group = [R for R in ALL_RESIDUES if det(R) % 3 != 0]
    m2 = {R for R in ALL_RESIDUES if sierpinski_class(R) == "M2"}
    from spectral_affine.linalg import gl_inverse_mod

    for R in m2:
        for U in group:
            Uinv = gl_inverse_mod(U, 3)
            conj = mat_mod(mat_mul(mat_mul(U, R), Uinv), 3)
            assert conj in m2


def test_classification_examples():
    assert sierpinski_class(((3, 0), (0, 3))) == "M1"
    assert sierpinski_class(((4, 3), (1, 3))) == "M1"
    assert sierpinski_class(((3, 1), (1, 4))) == "M2"
    assert sierpinski_class(((0, 10), (9, 0))) == "Other"
    assert sierpinski_class(((2, 0), (0, 2))) == "Other"
    with pytest.raises(WrongDimension):
        sierpinski_class(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(WrongDimension, match="criterion is defined for 2x2 matrices"):
        spectral_residue_criterion(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_residue_criterion_matches_first_class():
    for R in ALL_RESIDUES:
        assert spectral_residue_criterion(R) == (sierpinski_class(R) == "M1")


def test_spectrality_criterion_canonical():
    out = spectrality_criterion(DigitSystem(((3, 0), (0, 3)), THREE))
    assert out.verdict == "Spectral"
    assert out.B == ((1, 0), (0, 1)) and out.A == ((1, 0), (0, 1))
    assert spectrality_criterion(DigitSystem(((3, 1), (1, 4)), THREE)).verdict == "NonSpectral"
    assert spectrality_criterion(DigitSystem(((0, 10), (9, 0)), THREE)).verdict == "NonSpectral"


def test_spectrality_criterion_digit_frame_matters():
    # same matrix, digit frame twisted by a unimodular map: the verdict
    # follows the conjugated residue, not the bare one
    M = ((3, 1), (1, 4))
    D = ((0, 0), (1, 0), (1, 1))
    out = spectrality_criterion(DigitSystem(M, D))
    B = ((1, 1), (0, 1))
    assert out.B == B
    AMB = mat_mul(mat_mul(out.A, M), B)
    assert (out.verdict == "Spectral") == (
        tuple(x % 3 for x in AMB[0]) == tuple(x % 3 for x in AMB[1])
    )


def test_spectrality_criterion_translation_invariant():
    M = ((3, 1), (1, 4))
    base = spectrality_criterion(DigitSystem(M, THREE)).verdict
    shifted = spectrality_criterion(DigitSystem(M, ((2, 3), (3, 3), (2, 4)))).verdict
    assert base == shifted


def test_spectrality_criterion_validations():
    with pytest.raises(BadDigitForm):
        spectrality_criterion(DigitSystem(((3, 0), (0, 3)), ((0, 0), (1, 0))))
    with pytest.raises(DegenerateDigits):
        spectrality_criterion(DigitSystem(((3, 0), (0, 3)), ((0, 0), (1, 0), (2, 0))))
    with pytest.raises(DegenerateDigits):
        # frame invertible over Q but singular mod 3
        spectrality_criterion(DigitSystem(((3, 0), (0, 3)), ((0, 0), (3, 0), (0, 1))))
    with pytest.raises(HypothesisViolation):
        spectrality_criterion(DigitSystem(((1, 0), (0, 3)), THREE))


def test_make_conjugate_identity_witness():
    c = make_conjugate(((3, 0), (0, 3)), THREE, identity(2), 3)
    assert c.Mt == ((3, 0), (0, 3)) and c.Dt == THREE
    assert (c.M, c.D) == (((3, 0), (0, 3)), THREE)
    assert c.p == 3 and c.mode == "b"
    assert check_witness(c.A, c.B, 3)


def test_make_conjugate_mode_b_divides_digits():
    B = ((1, 0), (1, 1))
    D = tuple(tuple(sum(B[i][j] * d[j] for j in range(2)) for i in range(2)) for d in THREE)
    c = make_conjugate(((3, 1), (1, 4)), D, B, 3, mode="b")
    assert c.Dt == THREE
    assert mat_mod(mat_mul(c.A, c.B), 3) == identity(2)
    assert c.Mt == mat_mul(mat_mul(c.A, ((3, 1), (1, 4))), B)


def test_make_conjugate_mode_b_rejects_indivisible():
    with pytest.raises(NonIntegerDigits):
        make_conjugate(((3, 0), (0, 3)), THREE, ((1, 0), (0, 2)), 3, mode="b")


def test_make_conjugate_mode_a():
    B = ((1, 0), (0, 2))
    c = make_conjugate(((3, 0), (0, 3)), THREE, B, 3, mode="a")
    assert c.A == ((1, 0), (0, 2))
    assert c.Dt == ((0, 0), (1, 0), (0, 2))
    assert c.Mt == ((3, 0), (0, 12))


def test_make_conjugate_explicit_witness():
    # A + pI is a valid witness too, and the value is built from it
    M, B = ((3, 1), (1, 4)), ((1, 0), (0, 2))
    D = ((0, 0), (1, 0), (0, 2))
    canonical = make_conjugate(M, D, B, 3)
    assert canonical.A == ((1, 0), (0, 2))
    other = ((4, 0), (0, 5))
    c = make_conjugate(M, D, B, 3, A=other)
    assert c.A == other and c.Mt == mat_mul(mat_mul(other, M), B)
    assert c.Mt == ((12, 8), (5, 40)) != canonical.Mt
    assert c.Dt == canonical.Dt == THREE


def test_make_conjugate_validations():
    with pytest.raises(ValueError):
        make_conjugate(((3, 0), (0, 3)), THREE, identity(2), 4)
    with pytest.raises(ValueError):
        make_conjugate(((3, 0), (0, 3)), THREE, identity(2), 3, mode="c")
    with pytest.raises(HypothesisViolation, match="A\\*B must be the identity mod p"):
        make_conjugate(((3, 0), (0, 3)), THREE, ((1, 0), (1, 1)), 3, A=((1, 0), (1, 1)))
    with pytest.raises(WrongDimension):
        make_conjugate(((3, 0), (0, 3)), THREE, identity(2), 3, A=((1,),))
    with pytest.raises(WrongDimension, match="matrix and digit dimensions must agree"):
        make_conjugate(((3, 0), (0, 3)), THREE, identity(3), 3)
    with pytest.raises(WrongDimension, match="matrix and digit dimensions must agree"):
        make_conjugate(((3, 0), (0, 3)), ((0,), (1,), (2,)), identity(2), 3)


def test_check_witness_examples():
    assert check_witness(((1, 0), (2, 1)), ((1, 0), (1, 1)), 3)
    assert not check_witness(((1, 0), (1, 1)), ((1, 0), (1, 1)), 3)


unimodular_b = st.sampled_from(
    [
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 0), (-1, 1)),
        ((2, 1), (1, 1)),
        ((1, 2), (1, 1)),
    ]
)

expanding_m = st.sampled_from(
    [
        ((3, 0), (0, 3)),
        ((3, 1), (1, 4)),
        ((4, 1), (1, 4)),
        ((2, 1), (1, -2)),
        ((5, 0), (1, 3)),
    ]
)


@settings(max_examples=40)
@given(expanding_m, unimodular_b)
def test_conjugation_preserves_spectrality_verdict(M, B):
    # digits built as B * {0, e1, e2} make mode "b" exact, and the verdict
    # must match the plain canonical-digit verdict of the conjugated matrix
    D = tuple(
        tuple(sum(B[i][j] * d[j] for j in range(2)) for i in range(2)) for d in THREE
    )
    if det(B) % 3 == 0:
        return
    c = make_conjugate(M, D, B, 3, mode="b")
    assert c.Dt == THREE
    left = spectrality_criterion(DigitSystem(M, D)).verdict
    # for canonical digits the criterion reduces to the bare residue test,
    # which needs no expansion hypothesis on the conjugated matrix
    assert (left == "Spectral") == spectral_residue_criterion(c.Mt)
