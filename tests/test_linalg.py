"""Exact integer linear algebra."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_affine.conjugacy import make_conjugate
from spectral_affine.errors import SingularMatrix, SingularModP, WrongDimension
from spectral_affine.hadamard import find_spectrum_set
from spectral_affine.linalg import (
    as_matrix,
    char_poly,
    coset_representatives,
    coset_transversal,
    det,
    det_and_adjugate,
    euler_phi,
    gl_inverse_mod,
    hermite_basis,
    identity,
    in_lattice,
    is_expanding,
    is_prime,
    mat_mul,
    mat_vec,
    order_mod,
    sign_canonical,
    transpose,
)
from spectral_affine.ortho import nstar_bounds
from spectral_affine.zeros import DigitSystem

small_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_as_matrix_validates_shape():
    assert as_matrix([[1, 2], [3, 4]]) == ((1, 2), (3, 4))
    with pytest.raises(WrongDimension):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(WrongDimension):
        as_matrix([])



@pytest.mark.parametrize("entry", [3.5, Fraction(10, 3), 1e-9])
def test_as_matrix_refuses_a_non_integer_entry(entry):
    # such an entry was truncated without a word, to another map's answers
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        as_matrix([[entry, 1], [1, 4]])
    # integral values of other types are exact and kept
    assert as_matrix([[Fraction(6, 2), 1.0], [1, 4]]) == ((3, 1), (1, 4))


def test_measure_questions_and_conjugacy_refuse_a_non_integer_matrix():
    D = ((0, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        nstar_bounds(DigitSystem([[3.5, 1], [1, 4]], D), 3, J=8, R=0)
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        find_spectrum_set(DigitSystem([[Fraction(10, 3), 0], [0, 3]], D))
    for A, B in [(None, [[1, 0], [0, 1.5]]), ([[1, 0], [0, Fraction(1, 2)]], [[1, 0], [0, 1]])]:
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            make_conjugate(((3, 1), (1, 4)), D, B, 3, "a", A)

def test_det_known_values():
    assert det(((3, 0), (0, 3))) == 9
    assert det(((3, 1), (1, 4))) == 11
    assert det(((0, 10), (9, 0))) == -90
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 5))) == 30
    assert det(((1, 2), (2, 4))) == 0
    assert det(((7,),)) == 7


def test_det_agrees_with_permutation_expansion():
    M = ((2, -1, 3), (0, 4, 1), (-2, 5, 2))
    # cofactor expansion along the first row, by hand
    assert det(M) == 2 * (8 - 5) - (-1) * (0 + 2) + 3 * (0 + 8)


@settings(max_examples=60)
@given(small_matrices)
def test_adjugate_identity(rows):
    M = as_matrix(rows)
    d, adj = det_and_adjugate(M)
    n = len(M)
    prod = mat_mul(M, adj)
    assert prod == tuple(
        tuple(d if i == j else 0 for j in range(n)) for i in range(n)
    )


def _leibniz_det(M):
    """Reference: the permutation expansion, sum over sigma of
    sign(sigma) prod_i M[i][sigma(i)], with no elimination or recursion."""
    n = len(M)
    total = 0
    for sigma in permutations(range(n)):
        inversions = sum(sigma[i] > sigma[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][sigma[i]] for i in range(n))
    return total


def _leibniz_adjugate(M):
    """Reference: adj[j][i] is the (i, j) cofactor, each minor's
    determinant by the permutation expansion."""
    n = len(M)

    def minor(i, j):
        return tuple(
            tuple(x for c, x in enumerate(row) if c != j)
            for r, row in enumerate(M)
            if r != i
        )

    return tuple(
        tuple((-1) ** (i + j) * _leibniz_det(minor(i, j)) for i in range(n))
        for j in range(n)
    )


def _leibniz_char_poly(M):
    """Reference: the coefficient of t^(n-k) in det(t I - M) is (-1)^k
    times the sum of the principal k x k minors of M."""
    n = len(M)
    return tuple(
        (-1) ** k * sum(
            _leibniz_det(tuple(tuple(M[i][j] for j in rows) for i in rows))
            for rows in combinations(range(n), k)
        )
        for k in range(n + 1)
    )


@st.composite
def square_of_low_rank(draw):
    """An n x n integer matrix, n = 1..4, of rank at most r: U V with U
    n x r and V r x n. r < n makes it singular, and r = n - 1 usually gives
    a nonzero adjugate."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    entries = st.integers(-6, 6)
    U = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    V = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    return tuple(
        tuple(sum(U[i][k] * V[k][j] for k in range(r)) for j in range(n))
        for i in range(n)
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices.map(as_matrix), square_of_low_rank()))
@example(((0,),))
@example(((1, 2), (2, 4)))
# rank n - 1, adjugates ((-3, 6, -3), (6, -12, 6), (-3, 6, -3)) and
# diag(8 adj((2, 4), (1, 2)), 0)
@example(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
@example(((2, 4, 0, 0), (1, 2, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)))
# rank n - 2: the adjugate is zero
@example(((1, 2, 3), (2, 4, 6), (3, 6, 9)))
def test_invariants_match_the_permutation_expansion(M):
    d, adj = det_and_adjugate(M)
    assert d == det(M) == _leibniz_det(M)
    assert adj == _leibniz_adjugate(M)
    assert char_poly(M) == _leibniz_char_poly(M)


big = st.integers(-(10**6), 10**6)


@settings(max_examples=200)
@given(st.tuples(st.tuples(big, big), st.tuples(big, big)))
def test_planar_adjugate_closed_form(M):
    d, adj = det_and_adjugate(M)
    assert mat_mul(M, adj) == ((d, 0), (0, d))
    assert d == _leibniz_det(M) and adj == _leibniz_adjugate(M)


@settings(max_examples=40)
@given(small_matrices)
def test_char_poly_matches_resolvent_determinant(rows):
    M = as_matrix(rows)
    coeffs = char_poly(M)
    n = len(M)
    assert len(coeffs) == n + 1 and coeffs[0] == 1
    for t in (-2, -1, 0, 1, 2, 3):
        shifted = tuple(
            tuple(t * (i == j) - M[i][j] for j in range(n)) for i in range(n)
        )
        value = sum(c * t ** (n - k) for k, c in enumerate(coeffs))
        assert value == _leibniz_det(shifted)


def test_is_expanding():
    assert is_expanding(((3, 0), (0, 3))) is True
    assert is_expanding(((0, 10), (9, 0))) is True
    assert is_expanding(((2, 3), (1, 2))) is False
    assert is_expanding(((1, 0), (0, 5))) is False
    assert is_expanding(((0, 1), (1, 0))) is False
    assert is_expanding(((3,),)) and is_expanding(((-2,),))
    assert not any(is_expanding(((c,),)) for c in (-1, 0, 1))


def _companion(coeffs):
    """Companion matrix of the monic z^n + coeffs[n-1] z^(n-1) + ... +
    coeffs[0]."""
    n = len(coeffs)
    return tuple(
        tuple(int(i == j + 1) for j in range(n - 1)) + (-coeffs[i],)
        for i in range(n)
    )


def test_is_expanding_refuses_unit_eigenvalues():
    # cyclotomic Phi_3, Phi_4, Phi_5, Phi_6, Phi_8: every root on the circle
    for coeffs in ((1, 1), (1, 0), (1, 1, 1, 1), (1, -1), (1, 0, 0, 0)):
        C = _companion(coeffs)
        assert char_poly(C) == (1,) + tuple(reversed(coeffs))
        assert is_expanding(C) is False
        assert is_expanding(tuple(tuple(2 * x for x in row) for row in C)) is True
    diag_2_rot90 = ((2, 0, 0), (0, 0, -1), (0, 1, 0))
    for M in (((1, 1), (0, 2)), ((0, -1), (1, 0)), diag_2_rot90):
        assert is_expanding(M) is False


def test_is_expanding_planar_closed_form():
    for a, b, c, d in product(range(-4, 5), repeat=4):
        tr, dt = a + d, a * d - b * c
        closed = abs(dt) > 1 and abs(tr) < abs(1 + dt)
        assert is_expanding(((a, b), (c, d))) is closed, (a, b, c, d)


def test_is_expanding_matches_eigenvalue_moduli():
    rng = random.Random(909090)
    checked = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        moduli = np.abs(np.linalg.eigvals(np.array(M, dtype=float)))
        if np.any(np.abs(moduli - 1.0) < 1e-6):
            continue
        assert is_expanding(M) is bool(moduli.min() > 1.0), M
        checked += 1
    assert checked > 2500


def test_gl_inverse_mod_fixtures():
    B = ((1, 0), (0, 2))
    A = gl_inverse_mod(B, 3)
    assert A == ((1, 0), (0, 2))
    assert gl_inverse_mod(((1, 0), (1, 1)), 3) == ((1, 0), (2, 1))
    with pytest.raises(SingularModP):
        gl_inverse_mod(((3, 0), (0, 1)), 3)


@settings(max_examples=60)
@given(small_matrices, st.sampled_from([2, 3, 5]))
def test_gl_inverse_mod_is_inverse(rows, p):
    B = as_matrix(rows)
    if det(B) % p == 0:
        with pytest.raises(SingularModP):
            gl_inverse_mod(B, p)
        return
    A = gl_inverse_mod(B, p)
    n = len(B)
    prod = mat_mul(A, B)
    assert tuple(
        tuple(x % p for x in row) for row in prod
    ) == identity(n)
    assert all(0 <= x < p for row in A for x in row)


def test_order_mod_known():
    assert order_mod(((1, 0), (0, 1)), 3) == 1
    assert order_mod(((2, 0), (0, 2)), 3) == 2
    assert order_mod(((0, 1), (1, 1)), 3) == 8
    assert order_mod(((3, 1), (1, 4)), 3) == 8
    with pytest.raises(SingularModP):
        order_mod(((3, 0), (0, 1)), 3)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 5]))
def test_order_divides_no_smaller_and_bound(rows, p):
    M = as_matrix(rows)
    if det(M) % p == 0:
        return
    n = len(M)
    k = order_mod(M, p)
    assert 1 <= k <= p**n - 1
    P = identity(n)
    for j in range(1, k):
        P = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in zip(*M))
            for row in P
        )
        assert P != identity(n)


def test_is_prime_and_euler_phi():
    primes = [x for x in range(2, 60) if is_prime(x)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-3)
    for m in range(1, 60):
        brute = sum(1 for a in range(1, m + 1) if _gcd(a, m) == 1)
        assert euler_phi(m) == brute


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


square_1_3 = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-12, 12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(as_matrix).filter(lambda M: det(M) != 0)


@st.composite
def unimodular(draw, n):
    """A product of elementary column operations and a sign: det +-1."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        if n == 1:
            break
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        c = draw(st.integers(-3, 3))
        for row in U:
            row[j] += c * row[i]
    if draw(st.booleans()):
        U[0] = [-x for x in U[0]]
    return as_matrix(U)


@settings(max_examples=150, deadline=None)
@given(square_1_3)
@example(((3, 1), (1, 4)))
@example(((0, 9), (10, 0)))
@example(((0, 0, 2), (0, 3, 0), (5, 0, 0)))
def test_hermite_basis_is_lower_triangular_and_spans_the_lattice(M):
    H = hermite_basis(M)
    n = len(M)
    assert all(H[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    assert all(H[i][i] > 0 for i in range(n))
    assert math.prod(H[i][i] for i in range(n)) == abs(det(M))
    # H Z^n = M Z^n: each basis lies in the other's lattice
    assert all(in_lattice(M, col) for col in zip(*H))
    assert all(in_lattice(H, col) for col in zip(*M))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coset_transversal_depends_on_the_lattice_alone(data):
    M = data.draw(square_1_3.filter(lambda M: abs(det(M)) <= 300))
    U = data.draw(unimodular(len(M)))
    assert coset_transversal(mat_mul(M, U)) == coset_transversal(M)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_reduced_vector_lies_in_the_box_and_in_its_own_class(data):
    M = data.draw(square_1_3)
    n = len(M)
    v = data.draw(st.tuples(*[st.integers(-10**6, 10**6)] * n))
    H = hermite_basis(M)
    (x,) = coset_representatives(M, [v])
    assert all(0 <= x[i] < H[i][i] for i in range(n))
    assert in_lattice(M, tuple(a - b for a, b in zip(v, x)))


def test_coset_transversal_pinned_on_non_diagonal_lattices():
    # the order of the box fixes find_spectrum_set's witnesses
    assert coset_transversal(((3, 1), (1, 4))) == tuple((0, k) for k in range(11))
    t = coset_transversal(((0, 9), (10, 0)))
    assert t == tuple((a, b) for a in range(9) for b in range(10))
    assert t[:3] == ((0, 0), (0, 1), (0, 2)) and t[-1] == (8, 9)
    assert coset_representatives(((3, 1), (1, 4)), [(5, 7), (-1, 0)]) == ((0, 4), (0, 9))
    assert coset_representatives(((0, 9), (10, 0)), [(-1, -1), (10, 9)]) == ((1, 9), (8, 9))


def test_coset_transversal_fixtures():
    t = coset_transversal(((1, 0), (0, 2)))
    assert t == ((0, 0), (0, 1))
    t = coset_transversal(((3, 0), (0, 3)))
    assert len(t) == 9
    assert t[0] == (0, 0)
    with pytest.raises(SingularMatrix):
        coset_transversal(((1, 2), (2, 4)))


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_coset_transversal_is_complete(rows):
    M = as_matrix(rows)
    if det(M) == 0 or abs(det(M)) > 40:
        return
    t = coset_transversal(M)
    assert len(t) == abs(det(M))
    assert t[0] == (0,) * len(M)
    seen = set()
    for a in t:
        for b in t:
            if a < b:
                diff = tuple(x - y for x, y in zip(a, b))
                assert not in_lattice(M, diff)
        seen.add(a)
    assert len(seen) == len(t)


planar_lattices = st.tuples(*[st.integers(-12, 12)] * 4).map(
    lambda e: ((e[0], e[1]), (e[2], e[3]))
)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
@example([[0, 3], [2, 1]])  # a zero first-column entry, det -6
@example([[3, 0], [0, 5]])  # diagonal: the box is [0, 3) x [0, 5)
@example([[2, 1], [0, -3]])  # a negative det
def test_coset_representatives_fix_the_transversal(rows):
    # every member is its own representative, in its own position, and a
    # lattice translate of it is taken back to it
    M = as_matrix(rows)
    if det(M) == 0 or abs(det(M)) > 200:
        return
    t = coset_transversal(M)
    assert coset_representatives(M, t) == t
    shift = mat_vec(M, tuple(range(1, len(M) + 1)))
    moved = [tuple(a - 7 * b for a, b in zip(r, shift)) for r in reversed(t)]
    assert coset_representatives(M, moved) == t


@settings(max_examples=100, deadline=None)
@given(planar_lattices, st.lists(st.tuples(*[st.integers(-40, 40)] * 2), max_size=12))
@example(((0, 4), (3, 5)), [(1, 1), (13, 9), (0, 0)])
@example(((6, 0), (0, 6)), [(5, 5), (-1, -1), (7, 1)])
@example(((1, 5), (2, -3)), [(2, 2), (-2, 3)])
def test_coset_representatives_match_the_transversal_scan(A, vectors):
    # reference: the transversal members whose class holds one of the
    # vectors, found by in_lattice, in transversal order
    if det(A) == 0 or abs(det(A)) > 150:
        return
    expected = tuple(
        r for r in coset_transversal(A)
        if any(in_lattice(A, tuple(a - b for a, b in zip(v, r))) for v in vectors)
    )
    assert coset_representatives(A, vectors) == expected


def test_coset_representatives_refuse_a_singular_lattice():
    with pytest.raises(SingularMatrix, match="lattice matrix must be nonsingular"):
        coset_representatives(((1, 2), (2, 4)), [(1, 0)])


def test_in_lattice():
    M = ((3, 1), (1, 4))
    for k in ((0, 0), (1, 0), (-2, 3)):
        v = mat_vec(M, k)
        assert in_lattice(M, v)
    assert not in_lattice(M, (1, 0))
    assert not in_lattice(M, (0, 1))
    with pytest.raises(SingularMatrix, match="lattice matrix must be nonsingular"):
        in_lattice(((1, 2), (2, 4)), (1, 2))


def test_transpose_and_mat_vec_fraction_support():
    M = ((1, 2), (3, 4))
    assert transpose(M) == ((1, 3), (2, 4))
    out = mat_vec(M, (Fraction(1, 2), Fraction(1, 3)))
    assert out == (Fraction(7, 6), Fraction(17, 6))


def test_sign_canonical_fixed_cases():
    assert sign_canonical((0, -1, 2)) == (0, 1, -2)
    assert sign_canonical((3, -4)) == (3, -4)
    assert sign_canonical((-5,)) == (5,)
    assert sign_canonical((0, 0)) is None


@settings(max_examples=100)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_sign_canonical_keys_a_vector_and_its_negative(v):
    v = tuple(v)
    key = sign_canonical(v)
    neg = tuple(-x for x in v)
    assert key == sign_canonical(neg)
    if any(v):
        assert key in (v, neg)
        assert next(c for c in key if c) > 0
    else:
        assert key is None
