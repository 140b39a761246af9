"""Triple verification and spectrum-set search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_affine.errors import SingularMatrix, WrongDimension
from spectral_affine.hadamard import (
    find_spectrum_set,
    transport_spectrum_set,
    unitarity_defect,
    verify_triple,
)

THREE = ((0, 0), (1, 0), (0, 1))
FOUR = ((0, 0), (1, 0), (0, 1), (-1, -1))
M3 = ((3, 0), (0, 3))
S3 = ((0, 0), (1, 2), (2, 1))


def test_verify_triple_canonical_pairs():
    assert verify_triple(M3, THREE, S3)
    assert verify_triple(M3, THREE, ((0, 0), (2, 1), (1, 2)))
    # lattice translates of single frequencies keep the property
    assert verify_triple(M3, THREE, ((0, 0), (1, 2), (2, 4)))
    assert verify_triple(((2, 0), (0, 2)), FOUR, ((0, 0), (1, 0), (0, 1), (1, 1)))


def test_verify_triple_rejections():
    assert not verify_triple(M3, THREE, ((0, 0), (1, 0), (0, 1)))
    # the pair (1,2), (1,5) collides: their difference maps into the lattice
    assert not verify_triple(M3, THREE, ((0, 0), (1, 2), (1, 5)))
    assert not verify_triple(((3, 1), (1, 4)), THREE, S3)
    with pytest.raises(WrongDimension):
        verify_triple(M3, THREE, ((0, 0), (1, 2)))
    with pytest.raises(WrongDimension):
        verify_triple(M3, THREE, ((0, 0), (1, 2), (1, 2)))
    with pytest.raises(WrongDimension):
        verify_triple(M3, THREE, ((0,), (1,), (2,)))


def test_verify_triple_translation_invariance():
    # shifting every frequency by one lattice vector preserves the property
    shifted = tuple((s[0] + 5, s[1] - 7) for s in S3)
    assert verify_triple(M3, THREE, shifted)


def test_unitarity_defect_values():
    assert unitarity_defect(M3, THREE, S3) < 1e-12
    assert unitarity_defect(M3, THREE, ((0, 0), (1, 0), (0, 1))) > 0.1


def test_find_spectrum_set_canonical():
    out = find_spectrum_set(M3, THREE)
    assert out.status == "found"
    assert out.S is not None and out.S[0] == (0, 0)
    assert verify_triple(M3, THREE, out.S)
    assert out.search_space == 28


def test_find_spectrum_set_skew_has_no_solution():
    # the mask zeros have denominator 3 but the transversal images have
    # denominator 11, so the zero-difference prefilter removes everything
    out = find_spectrum_set(((3, 1), (1, 4)), THREE)
    assert out.status == "none" and out.S is None
    assert out.search_space == 45 and out.examined == 0


def test_find_spectrum_set_four_digits():
    M = ((2, 0), (0, 2))
    out = find_spectrum_set(M, FOUR)
    assert out.status == "found"
    assert out.S == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert out.search_space == 1


def test_find_spectrum_set_none():
    # mask zeros of this digit set miss every nonzero coset representative
    out = find_spectrum_set(((2, 0), (0, 2)), THREE)
    assert out.status == "none" and out.S is None
    assert out.search_space == 3


def test_find_spectrum_set_none_large():
    out = find_spectrum_set(((0, 10), (9, 0)), FOUR)
    assert out.status == "none" and out.S is None
    assert out.search_space == 113564 and out.examined == 0


def test_find_spectrum_set_budget_zero():
    out = find_spectrum_set(M3, THREE, budget=0)
    assert out.status == "undetermined" and out.examined == 0


def test_find_spectrum_set_budget_cutoff():
    # a hint-mode zero set and a long prefix of failing subsets
    M = ((4, 0), (6, -5))
    D = ((-1, 3), (0, -1), (1, 3), (2, 0))
    full = find_spectrum_set(M, D)
    assert full.status == "found" and full.examined == 21
    assert full.S == ((0, 0), (-5, 15), (-10, 30), (-15, 45))
    assert find_spectrum_set(M, D, budget=21) == full
    cut = find_spectrum_set(M, D, budget=20)
    assert cut.status == "undetermined" and cut.S is None
    assert cut.examined == 20 and cut.search_space == full.search_space


def test_find_spectrum_set_singular():
    with pytest.raises(SingularMatrix):
        find_spectrum_set(((1, 2), (2, 4)), THREE)


def test_transport_forward_fixture():
    A = ((1, 0), (0, 2))
    B = ((1, 0), (0, 2))
    out = transport_spectrum_set(S3, A, B, 3, direction="forward")
    assert out == ((0, 0), (4, 16), (8, 8))


def test_transport_backward_inverts_classes_mod_p():
    A = ((1, 0), (0, 2))
    B = ((1, 0), (0, 2))
    fwd = transport_spectrum_set(S3, A, B, 3, direction="forward")
    back = transport_spectrum_set(fwd, A, B, 3, direction="backward")
    assert back == ((0, 0), (16, 32), (32, 16))
    # the round trip multiplies by a scalar congruent to 1 mod p
    for s, t in zip(S3, back):
        assert tuple(x % 3 for x in s) == tuple(x % 3 for x in t)


def test_transport_validations():
    with pytest.raises(ValueError):
        transport_spectrum_set(S3, ((1, 0), (0, 1)), ((1, 0), (0, 1)), 3, direction="sideways")
    from spectral_affine.errors import HypothesisViolation

    with pytest.raises(HypothesisViolation):
        transport_spectrum_set(S3, ((1, 0), (0, 1)), ((1, 0), (0, 2)), 3)


unimodular_pairs = st.sampled_from(
    [
        (((1, 0), (1, 1)), ((1, 0), (2, 1))),
        (((1, 1), (0, 1)), ((1, 2), (0, 1))),
        (((1, 0), (0, 2)), ((1, 0), (0, 2))),
        (((2, 1), (1, 1)), ((1, 2), (2, 2))),
    ]
)


@settings(max_examples=30)
@given(
    unimodular_pairs,
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        min_size=1,
        max_size=4,
        unique=True,
    ),
)
def test_transport_round_trip_preserves_residues(pair, S):
    B, A = pair
    S = tuple(S)
    fwd = transport_spectrum_set(S, A, B, 3, direction="forward")
    back = transport_spectrum_set(fwd, A, B, 3, direction="backward")
    for s, t in zip(S, back):
        assert tuple(x % 3 for x in s) == tuple(x % 3 for x in t)
