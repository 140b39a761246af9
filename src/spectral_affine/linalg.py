"""Exact integer linear algebra and matrix arithmetic over F_p.

Matrices are immutable tuples of tuples of Python ints, so determinants,
adjugates, Smith normal forms and coset transversals are computed without
floating point. The expansion test is exact too: the Schur-Cohn recursion
on the integer characteristic polynomial decides whether every eigenvalue
lies strictly outside the unit circle, with no tolerance, so an eigenvalue
of modulus exactly 1 gives a plain "not expanding".
"""

from __future__ import annotations

from operator import add, mul, neg
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SingularMatrix, SingularModP, WrongDimension

Matrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validate and freeze a square integer matrix."""
    return square_matrix(tuple(tuple(int(x) for x in row) for row in rows))


def square_matrix(M: Matrix) -> Matrix:
    """M, a tuple of integer rows, once checked to be nonempty and square."""
    n = len(M)
    if n == 0:
        raise WrongDimension("empty matrix")
    for row in M:
        if len(row) != n:
            raise WrongDimension(f"matrix is not square: {len(row)} != {n}")
    return M


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M))


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if len(A[0]) != len(B):
        raise WrongDimension("matrix product dimension mismatch")
    Bt = tuple(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bt) for row in A
    )


def mat_vec(M: Matrix, v: Sequence) -> tuple:
    """Matrix times column vector; entries may be ints or Fractions."""
    if len(M[0]) != len(v):
        raise WrongDimension("matrix-vector dimension mismatch")
    return tuple(sum(m * x for m, x in zip(row, v)) for row in M)


def sign_canonical(v: IntVector) -> Optional[IntVector]:
    """The one of v and -v whose first nonzero coordinate is positive, or
    None for the zero vector: one key for a difference and its negative."""
    for c in v:
        if c:
            return v if c > 0 else tuple(map(neg, v))
    return None


def mat_scale(M: Matrix, c: int) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in M)


def mat_pow(M: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power not supported here")
    result = identity(len(M))
    base = M
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_mod(M: Matrix, p: int) -> Matrix:
    return tuple(tuple(x % p for x in row) for row in M)


def det(M: Matrix) -> int:
    # Bareiss fraction-free elimination; exact for integer matrices.
    n = len(M)
    a = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _minor(M: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(x for cj, x in enumerate(row) if cj != j)
        for ri, row in enumerate(M)
        if ri != i
    )


def det_and_adjugate(M: Matrix) -> tuple[int, Matrix]:
    """Exact determinant and adjugate, satisfying M * adj = det * I."""
    n = len(M)
    if n == 1:
        return M[0][0], ((1,),)
    if n == 2:
        (a, b), (c, d) = M
        return a * d - b * c, ((d, -b), (-c, a))
    d = det(M)
    # adj[j][i] is the (i, j) cofactor.
    adj = tuple(
        tuple((-1) ** (i + j) * det(_minor(M, i, j)) for i in range(n))
        for j in range(n)
    )
    return d, adj


def char_poly(M: Matrix) -> tuple[int, ...]:
    """Monic characteristic polynomial coefficients, highest degree first.

    Computed by the trace recursion on powers of M (Newton identities) in
    integers; every division by k is exact for an integer matrix.
    """
    n = len(M)
    traces = []
    P = M
    for _ in range(n):
        traces.append(sum(P[i][i] for i in range(n)))
        P = mat_mul(P, M)
    coeffs = [1]
    for k in range(1, n + 1):
        s = sum(coeffs[k - i] * traces[i - 1] for i in range(1, k + 1))
        if s % k:
            raise AssertionError("characteristic polynomial must be integral")
        coeffs.append(-s // k)
    return tuple(coeffs)


def is_expanding(M: Matrix) -> bool:
    """Whether every eigenvalue of M has modulus strictly greater than 1.

    Decided by the Schur-Cohn recursion (Jury's stability table) on the
    reversed characteristic polynomial g(z) = z^n P(1/z), whose
    coefficients in ascending order are char_poly(M). Its roots are the
    reciprocal eigenvalues, and they all lie strictly inside the unit disc
    iff |g_0| < |g_m| and (g_m g(z) - g_0 z^m g(1/z)) / z, of degree m - 1,
    has the same property; a constant has no roots. In the plane this is
    |det| > 1 and |tr| < |1 + det|.
    """
    g = list(char_poly(M))
    while len(g) > 1:
        g0, gm = g[0], g[-1]
        if abs(g0) >= abs(gm):
            return False
        m = len(g) - 1
        g = [gm * g[i] - g0 * g[m - i] for i in range(1, m + 1)]
    return True


def power_norms(A: Matrix, scale: int) -> Iterator[tuple[int, int]]:
    """Yield (||A^j||_inf, scale^j) for j = 1, 2, ...: the max-row-sum norm
    of (A / scale)^j as an integer numerator over its denominator.

    With A / scale the inverse of an expanding matrix (or its transpose),
    the norms tend to 0, so a search for the first one below 1 ends.
    """
    P = A
    den = scale
    while True:
        yield max(sum(map(abs, row)) for row in P), den
        P = mat_mul(P, A)
        den *= scale


def gl_inverse_mod(B: Matrix, p: int) -> Matrix:
    """Integer matrix A with entries in [0, p) and A*B = I (mod p)."""
    d, adj = det_and_adjugate(B)
    try:
        inv = pow(d % p, -1, p)
    except ValueError:
        raise SingularModP(f"matrix is singular mod {p}") from None
    return tuple(tuple((inv * x) % p for x in row) for row in adj)


def order_mod(M: Matrix, p: int) -> int:
    """Multiplicative order of M in GL_n(p); asserts it is <= p^n - 1."""
    n = len(M)
    R = mat_mod(M, p)
    if det(R) % p == 0:
        raise SingularModP(f"matrix is singular mod {p}")
    I = identity(n)
    P = R
    bound = p**n - 1
    for k in range(1, bound + 1):
        if P == I:
            return k
        P = mat_mod(mat_mul(P, R), p)
    raise AssertionError(f"group order exceeded the p^n - 1 bound for p={p}, n={n}")


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def euler_phi(m: int) -> int:
    """Euler totient, with euler_phi(1) = 1."""
    if m < 1:
        raise ValueError("totient argument must be positive")
    result = m
    k = m
    f = 2
    while f * f <= k:
        if k % f == 0:
            while k % f == 0:
                k //= f
            result -= result // f
        f += 1
    if k > 1:
        result -= result // k
    return result


def _is_snf(A: Matrix) -> bool:
    n = len(A)
    for i in range(n):
        for j in range(n):
            if i != j and A[i][j] != 0:
                return False
        if A[i][i] < 0:
            return False
    diag = [A[i][i] for i in range(n)]
    # zero entries must come last, nonzero ones must divide their successor
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b != 0 and b % a != 0:
            return False
    return True


def smith_normal_form(A: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (S, L, R) with L*A*R = S diagonal, diag ascending divisibility.

    L and R are unimodular. A matrix already in Smith form is returned
    unchanged with identity factors, which keeps canonical transversals of
    diagonal lattices in their natural coordinates.
    """
    n = len(A)
    if _is_snf(A):
        return A, identity(n), identity(n)

    a = [[int(x) for x in row] for row in A]
    L = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in R:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        for j in range(n):
            a[dst][j] += c * a[src][j]
            L[dst][j] += c * L[src][j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in R:
            row[dst] += c * row[src]

    def negate_row(i):
        for j in range(n):
            a[i][j] = -a[i][j]
            L[i][j] = -L[i][j]

    for k in range(n):
        while True:
            # locate a pivot of minimal absolute value in the submatrix
            pivot = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    v = abs(a[i][j])
                    if v != 0 and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            p = a[k][k]
            done = True
            for i in range(k + 1, n):
                if a[i][k] % p != 0:
                    done = False
                add_row(k, i, -(a[i][k] // p))
            for j in range(k + 1, n):
                if a[k][j] % p != 0:
                    done = False
                add_col(k, j, -(a[k][j] // p))
            if not done:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, k, 1)
        if a[k][k] < 0:
            negate_row(k)

    S = tuple(tuple(row) for row in a)
    Lm = tuple(tuple(row) for row in L)
    Rm = tuple(tuple(row) for row in R)
    if not _is_snf(S):
        raise AssertionError("Smith reduction did not reach normal form")
    if abs(det(Lm)) != 1 or abs(det(Rm)) != 1:
        raise AssertionError("Smith factors must be unimodular")
    if mat_mul(mat_mul(Lm, A), Rm) != S:
        raise AssertionError("Smith factorization check failed")
    return S, Lm, Rm


def unimodular_inverse(U: Matrix) -> Matrix:
    d, adj = det_and_adjugate(U)
    if d not in (1, -1):
        raise SingularMatrix("matrix is not unimodular")
    return mat_scale(adj, d)


def _smith_box(A: Matrix) -> tuple[IntVector, Matrix, Matrix]:
    """The Smith diagonal s of L*A*R = diag(s), with L and L^{-1}: the box
    coordinate of an integer vector v mod A Z^n is L v mod s."""
    if det(A) == 0:
        raise SingularMatrix("lattice matrix must be nonsingular")
    S, L, _ = smith_normal_form(A)
    return tuple(S[i][i] for i in range(len(A))), L, unimodular_inverse(L)


def coset_transversal(M: Matrix) -> tuple[IntVector, ...]:
    """Canonical coset representatives of Z^n / M Z^n, zero vector first.

    Derived from the Smith form L*M*R = S: the boxes [0, s_i) pushed through
    L^{-1} enumerate each coset exactly once, and the count is |det M|.
    """
    s, _, Linv = _smith_box(M)
    # L^{-1} u for u over the box in lexicographic order, summed one
    # column of L^{-1} at a time
    reps = [(0,) * len(M)]
    for si, col in zip(s, zip(*Linv)):
        steps = [tuple(u * c for c in col) for u in range(si)]
        reps = [tuple(map(add, v, w)) for v in reps for w in steps]
    if len(reps) != abs(det(M)):
        raise AssertionError("transversal size must equal |det|")
    return tuple(reps)


def coset_representatives(
    M: Matrix, vectors: Iterable[Sequence[int]]
) -> tuple[IntVector, ...]:
    """The coset_transversal(M) members of the classes of the given integer
    vectors mod M Z^n, each once and in transversal order: the class of v
    has box coordinate u = L v mod s and member L^{-1} u, and the
    transversal lists its members in lexicographic order of u.
    """
    s, L, Linv = _smith_box(M)
    box = {
        tuple([sum(map(mul, row, v)) % si for row, si in zip(L, s)])
        for v in vectors
    }
    return tuple(
        tuple([sum(map(mul, row, u)) for row in Linv]) for u in sorted(box)
    )


def in_lattice(M: Matrix, v: Sequence[int]) -> bool:
    """Whether integer vector v lies in the column lattice M Z^n."""
    d, adj = det_and_adjugate(M)
    if d == 0:
        raise SingularMatrix("lattice matrix must be nonsingular")
    w = mat_vec(adj, v)
    return all(x % d == 0 for x in w)
