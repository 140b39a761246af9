"""Triple verification and spectrum-set search."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_affine.errors import SingularMatrix, WrongDimension
from spectral_affine.hadamard import (
    find_spectrum_set,
    transport_spectrum_set,
    unitarity_defect,
    verify_triple,
)
from spectral_affine.linalg import coset_transversal, det, det_and_adjugate, mat_vec, transpose
from spectral_affine.zeros import is_zero_exact

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


def test_find_spectrum_set_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        find_spectrum_set(M3, THREE, budget=-1)
    # refused before the trivial one-digit answer, too
    with pytest.raises(ValueError, match="budget"):
        find_spectrum_set(M3, ((0, 0),), budget=-1)


def _reference_search(M, D, budget):
    """find_spectrum_set's contract with the exact mask test as predicate:
    (status, S, examined) over lexicographic subsets of the transversal."""
    d, adj = det_and_adjugate(M)
    adjT = transpose(adj)

    def vanishes(v):
        return is_zero_exact(D, tuple(Fraction(c, d) for c in mat_vec(adjT, v)))

    k = len(D) - 1
    reps = coset_transversal(transpose(M)).reps
    filtered = [r for r in reps if any(r) and vanishes(r)]
    examined = 0
    for subset in combinations(filtered, k):
        if examined >= budget:
            return "undetermined", None, examined
        examined += 1
        if all(vanishes(tuple(x - y for x, y in zip(a, b))) for a, b in combinations(subset, 2)):
            return "found", ((0, 0), *subset), examined
    return "none", None, examined


small = st.integers(-4, 4)


@st.composite
def planar_systems(draw):
    four = draw(st.booleans())
    M = ((draw(small), draw(small)), (draw(small), draw(small)))
    if draw(st.booleans()):
        # multiples of |D| carry many dual sets and long searches
        M = tuple(tuple((3 + four) * x for x in row) for row in M)
    assume(2 <= abs(det(M)) <= 48)
    c = (draw(small), draw(small))
    alpha = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    beta = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    assume(alpha[0] * beta[1] - alpha[1] * beta[0] != 0)
    shape = [(0, 0), alpha, beta]
    if four:
        shape.append((-alpha[0] - beta[0], -alpha[1] - beta[1]))
    D = tuple((c[0] + v[0], c[1] + v[1]) for v in shape)
    assume(len(set(D)) == len(D))
    return M, D


@settings(max_examples=150, deadline=None)
@given(planar_systems())
# long searches, both signs of det M: found after 6 or 71 subsets, none after 56
@example((((-6, 9), (0, 3)), ((0, 0), (-3, 1), (0, 2))))
@example((((12, -9), (0, 3)), ((0, 0), (0, -2), (-3, -1))))
@example((((-4, 0), (16, 12)), ((0, 0), (3, 0), (-1, -2), (-2, 2))))
@example((((-12, -12), (8, 4)), ((0, 0), (-3, -3), (-3, 3), (6, 0))))
@example((((-12, -4), (4, 4)), ((0, 0), (-2, -2), (-1, 3), (3, -1))))
@example((((8, -12), (-4, 8)), ((0, 0), (-2, -2), (2, -2), (0, 4))))
def test_find_spectrum_set_matches_reference_search(system):
    M, D = system
    full = find_spectrum_set(M, D)
    status, S, examined = _reference_search(M, D, 10_000_000)
    assert (full.status, full.S, full.examined) == (status, S, examined)
    for budget in sorted({0, 1, max(examined - 1, 0), examined}):
        out = find_spectrum_set(M, D, budget=budget)
        assert (out.status, out.S, out.examined) == _reference_search(M, D, budget)
        assert out.search_space == full.search_space


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
