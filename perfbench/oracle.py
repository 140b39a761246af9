"""Independent planar arithmetic used to generate inputs and check reports.

Nothing here imports spectral_affine: every check the benchmark makes is
computed from these helpers (exact integers and Fractions for verdicts,
``cmath`` for the float cross-checks), never from the program under test.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations


def det2(M):
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def adj2(M):
    return ((M[1][1], -M[0][1]), (-M[1][0], M[0][0]))


def transpose(M):
    return tuple(zip(*M))


def mat_mul(A, B):
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*B)) for row in A
    )


def mat_vec(M, v):
    return tuple(sum(m * x for m, x in zip(row, v)) for row in M)


def inv_mod(B, p):
    """Integer A with entries in [0, p) and A*B = I mod p."""
    inv = pow(det2(B) % p, -1, p)
    return tuple(tuple((inv * x) % p for x in row) for row in adj2(B))


def expanding(M) -> bool:
    """Exact test that both eigenvalues of a 2x2 integer M exceed 1 in modulus.

    Jury's conditions on the reversed characteristic polynomial
    d z^2 - t z + 1, whose roots are the inverse eigenvalues.
    """
    d, t = det2(M), M[0][0] + M[1][1]
    if d > 0:
        return d > 1 and abs(t) < d + 1
    return d < -1 and abs(t) < -d - 1


def inv_t(M):
    """M^{-T} as exact Fractions."""
    d = det2(M)
    return tuple(tuple(Fraction(x, d) for x in row) for row in transpose(adj2(M)))


def inv(M):
    d = det2(M)
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj2(M))


def sup_norm(P):
    return max(sum(abs(x) for x in row) for row in P)


def rows_agree_mod3(M) -> bool:
    return all((a - b) % 3 == 0 for a, b in zip(M[0], M[1]))


def frame(D):
    """Difference frame [d1-d0 | d2-d0] of a three-digit planar set."""
    d0, d1, d2 = D[:3]
    return ((d1[0] - d0[0], d2[0] - d0[0]), (d1[1] - d0[1], d2[1] - d0[1]))


def criterion_spectral(M, D) -> bool:
    """The paper's mod-3 criterion, recomputed: rows of A M B agree mod 3."""
    B = frame(D)
    return rows_agree_mod3(mat_mul(mat_mul(inv_mod(B, 3), M), B))


def same_coset(M, a, b) -> bool:
    """Whether a - b lies in the lattice M Z^2."""
    w = mat_vec(adj2(M), (a[0] - b[0], a[1] - b[1]))
    return all(x % det2(M) == 0 for x in w)


def mask(D, x) -> complex:
    xs = [float(c) for c in x]
    return sum(cmath.exp(2j * cmath.pi * (d[0] * xs[0] + d[1] * xs[1])) for d in D) / len(D)


def mu_hat(M, D, xi, depth) -> complex:
    """Truncated product of mask values along exact M^{-T} iterates."""
    T = inv_t(M)
    y = tuple(Fraction(c) for c in xi)
    prod = complex(1.0)
    for _ in range(depth):
        y = mat_vec(T, y)
        prod *= mask(D, y)
    return prod


def orthogonal_float(M, D, w, depth=60) -> bool:
    """Float evidence that w lies in the Fourier zero set of (M, D): some
    factor m_D(M^{-Tj} w) of the transform's product vanishes. Iterates
    are exact and reduced mod 1 before the float mask is taken, so a zero
    factor reads about 1e-16. The product itself is no test: for large w it
    falls below any threshold from the many factors of modulus under one."""
    T = inv_t(M)
    y = tuple(Fraction(c) for c in w)
    for _ in range(depth):
        y = mat_vec(T, y)
        if abs(mask(D, (y[0] % 1, y[1] % 1))) < 1e-9:
            return True
    return False


def unitarity_defect(M, D, S) -> float:
    """Max-norm distance of (1/sqrt N)[exp(2 pi i <d, M^{-T} s>)] from unitary."""
    T = inv_t(M)
    cols = []
    for s in S:
        x = [float(c) for c in mat_vec(T, s)]
        cols.append([cmath.exp(2j * cmath.pi * (d[0] * x[0] + d[1] * x[1])) for d in D])
    n = len(S)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            g = sum(a.conjugate() * b for a, b in zip(cols[i], cols[j])) / len(D)
            worst = max(worst, abs(g - (1.0 if i == j else 0.0)))
    return worst


def transport_forward(S, A, B):
    """det(AB) * B^T s for each s, the forward transport of a dual set."""
    scale = det2(A) * det2(B)
    Bt = transpose(B)
    return tuple(tuple(scale * c for c in mat_vec(Bt, s)) for s in S)


def level_sums(M, base, levels):
    """All sums over i = 1..levels of (M^T)^i c_i with c_i in base."""
    Mt = transpose(M)
    freqs = {(Fraction(0), Fraction(0))}
    power = Mt
    for _ in range(levels):
        terms = [mat_vec(power, c) for c in base]
        freqs = {(f[0] + t[0], f[1] + t[1]) for f in freqs for t in terms}
        power = mat_mul(power, Mt)
    return freqs


def attractor_radius(M, digits, terms=None) -> Fraction:
    """Sup-norm bound on sum_{j>=1} M^{-j} d_j (or its first `terms` terms)."""
    Minv = inv(M)
    dmax = max(max(abs(Fraction(c)) for c in d) for d in digits)
    total, P, j = Fraction(0), Minv, 1
    while True:
        total += sup_norm(P)
        if terms is not None and j == terms:
            return dmax * total
        theta = sup_norm(P)
        if terms is None and theta < 1:
            # later blocks of j terms shrink by theta each
            return dmax * total / (1 - theta)
        P = mat_mul(P, Minv)
        j += 1


def pairs(seq):
    return combinations(seq, 2)
