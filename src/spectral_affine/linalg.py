"""Exact integer linear algebra and matrix arithmetic over F_p.

Matrices are immutable tuples of tuples of Python ints, so determinants,
adjugates and coset transversals are computed without floating point. The
one lattice normal form is the Hermite basis: a lower-triangular basis H of
M Z^n with a positive diagonal, whose box 0 <= x_i < H[i][i] is the
transversal of Z^n / M Z^n. coset_transversal lists the box in
lexicographic order, and coset_representatives moves vectors into it, so a
dual set found over it has entries in [0, H[i][i]). The expansion test is
exact too: the Schur-Cohn recursion on the integer characteristic
polynomial decides whether every eigenvalue lies strictly outside the unit
circle, with no tolerance, so an eigenvalue of modulus exactly 1 gives a
plain "not expanding".
"""

from __future__ import annotations

from itertools import chain, product
from operator import ne, neg
from typing import Iterable, Iterator, Optional, Sequence

from .errors import SingularMatrix, SingularModP, WrongDimension

Matrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def integer_rows(rows: Sequence[Sequence], what: str) -> tuple[IntVector, ...]:
    """The rows frozen as tuples of ints; an entry that is not an integer,
    such as 3.5 or Fraction(10, 3), is refused rather than truncated."""
    out = tuple([tuple([int(x) for x in row]) for row in rows])
    # rows that are already tuples of ints compare equal at once
    if out != rows and any(map(ne, chain.from_iterable(rows), chain.from_iterable(out))):
        raise ValueError(f"{what} entries must be integers")
    return out


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validate and freeze a square integer matrix."""
    return square_matrix(integer_rows(rows, "matrix"))


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


def hermite_basis(M: Matrix) -> Matrix:
    """The lower-triangular basis H of the column lattice M Z^n with a
    positive diagonal (column i is zero above row i), by unimodular column
    operations: one Euclid pass per row gathers the gcd of that row's
    remaining entries into the diagonal column.

    The diagonal depends on the lattice alone: H[0][0] generates the first
    coordinates of M Z^n, and H[i][i] the i-th coordinates of its vectors
    whose earlier coordinates are 0. So the box 0 <= x_i < H[i][i] holds
    exactly one point of each class of Z^n / M Z^n, and |det M| is the
    product of the diagonal.
    """
    cols = [list(c) for c in zip(*M)]
    for i, a in enumerate(cols):
        for j in range(i + 1, len(cols)):
            b = cols[j]
            while b[i]:
                t = a[i] // b[i]
                a, b = b, [x - t * y for x, y in zip(a, b)]
            cols[j] = b
        if not a[i]:
            raise SingularMatrix("lattice matrix must be nonsingular")
        cols[i] = a if a[i] > 0 else [-x for x in a]
    return transpose(cols)


def coset_transversal(M: Matrix) -> tuple[IntVector, ...]:
    """Canonical coset representatives of Z^n / M Z^n: the Hermite box
    0 <= x_i < H[i][i] of hermite_basis(M) in lexicographic order, zero
    first, |det M| points."""
    H = hermite_basis(M)
    return tuple(product(*[range(H[i][i]) for i in range(len(H))]))


def coset_representatives(
    M: Matrix, vectors: Iterable[Sequence[int]]
) -> tuple[IntVector, ...]:
    """The coset_transversal(M) members of the classes of the given integer
    vectors mod M Z^n, each once and in transversal order. A vector moves
    into the Hermite box one coordinate at a time: x_i is reduced mod
    H[i][i] by a multiple of column i, which leaves coordinates 0..i-1 as
    they are.
    """
    cols = tuple(enumerate(zip(*hermite_basis(M))))
    box = set()
    for v in vectors:
        for i, col in cols:
            t = v[i] // col[i]
            if t:
                v = [x - t * c for x, c in zip(v, col)]
        box.add(tuple(v))
    return tuple(sorted(box))


def in_lattice(M: Matrix, v: Sequence[int]) -> bool:
    """Whether integer vector v lies in the column lattice M Z^n."""
    d, adj = det_and_adjugate(M)
    if d == 0:
        raise SingularMatrix("lattice matrix must be nonsingular")
    w = mat_vec(adj, v)
    return all(x % d == 0 for x in w)
