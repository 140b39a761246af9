"""Orthogonal exponential counting, transport inclusions, certificates.

Two frequencies are orthogonal for the self-affine measure of (M, D) iff
their difference lies in the measure's Fourier-transform zero set, which
is the union over j >= 1 of M^{T j} applied to the mask zeros plus Z^n.
Membership is decided exactly by the walk of zeros.DigitSystem. The
candidate frequencies of the orthogonal-family search, the transported
zeros and the zero orbits all lie on the (1/q)-grid of the mask zeros
and are handled as integer vectors q*x, and the non-spectrality
certificate runs its three parts as divisibility tests on the residues.
Fractions appear only at the public boundary.

On top of that decision procedure sit the maximal-orthogonal-family
bounds (exact max clique below, Cayley-graph counting above), the scaled
zero-set transport inclusions between conjugate digit systems, and the
three-part non-spectrality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import sub
from typing import Optional, Sequence

from .conjugacy import make_conjugate, spectrality_criterion
from .errors import HypothesisViolation, IncompleteZeroSet, WrongDimension
from .linalg import (
    IntVector,
    Matrix,
    as_matrix,
    det,
    identity,
    is_expanding,
    is_prime,
    mat_mod,
    mat_mul,
    mat_pow,
    mat_vec,
    order_mod,
    sign_canonical,
    transpose,
)
from .zeros import (
    DigitSet,
    DigitSystem,
    RationalPoint,
    ZeroSet,
    as_digit_set,
    as_rational_point,
    four_digit_frame,
    lattice_form,
    reduce_mod1,  # unused here; perfbench --trace 1 wraps ortho.reduce_mod1
    digit_system,
    three_digit_frame,
    zero_classes_mod_p,
    zero_set_in_punctured_grid,
)


# perfbench --trace 1 wraps ortho._Measure.membership by name
_Measure = DigitSystem


def measure(M: Matrix, D: DigitSet) -> DigitSystem:
    """digit_system(M, D), M and D validated, once bound has raised the
    walk's refusals."""
    ds = digit_system(M, D)
    ds.bound  # raises the walk's refusals
    return ds


def zero_membership(M: Matrix, D: DigitSet, xi: Sequence) -> Optional[int]:
    """Least level j at which xi enters the Fourier zero set, or None.

    Returns the smallest j >= 1 such that M^{-T j} xi reduced mod 1 is a
    mask zero of D. Termination is certified by an exact contraction bound,
    so None is a proof of non-membership rather than a timeout.
    """
    eng = measure(as_matrix(M), as_digit_set(D))
    Q, (N,) = lattice_form((as_rational_point(xi),))
    if len(N) != eng.n:
        raise WrongDimension("frequency dimension does not match the map")
    return eng.membership(N, Q)


def has_infinite_orthogonal(
    M: Matrix, D: DigitSet
) -> tuple[bool, Optional[int]]:
    """Whether some power M^{T j} maps a mask zero into Z^n.

    When it does, scaling that zero through successive powers yields
    arbitrarily large orthogonal families, so the count n* is infinite.
    The witness is the least such j. Decided by exact orbit iteration of
    the residues q*z mod q, q the common denominator of the mask zeros.
    One memo across all zeros holds each visited residue's least number
    of steps to 0, or None when its orbit cycles without reaching 0, so
    every residue is stepped from once.
    """
    ds = digit_system(as_matrix(M), as_digit_set(D))
    if not is_expanding(ds.M):
        raise HypothesisViolation("orbit test requires an expanding matrix")
    zs = ds.zs
    if not zs.complete:
        raise IncompleteZeroSet("orbit test needs a complete zero set")
    Mt = transpose(ds.M)
    q = zs.q
    zero = (0,) * ds.n
    steps: dict[IntVector, Optional[int]] = {zero: 0}
    for x in zs.residues:
        path: dict[IntVector, None] = {}
        while x not in steps and x not in path:
            path[x] = None
            x = tuple(c % q for c in mat_vec(Mt, x))
        # x is either known or a repeat on the path: a cycle that misses 0
        tail = steps.get(x)
        for x in reversed(path):
            tail = None if tail is None else tail + 1
            steps[x] = tail
    hits = [steps[x] for x in zs.residues if steps[x] is not None]
    best = min(hits, default=None)
    return (best is not None, best)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _max_clique(
    adj: Sequence[int], node_budget: Optional[int]
) -> tuple[list[int], int, bool]:
    """Exact maximum clique by branch and bound with greedy coloring.

    adj[i] is a bitmask of neighbors. Returns (vertices, nodes, complete);
    when the node budget runs out the best clique found so far is returned
    with complete False, which still certifies a lower bound.
    """
    best: list[int] = []
    nodes = 0
    truncated = False

    def expand(P: int, clique: list[int]) -> None:
        nonlocal best, nodes, truncated
        if truncated:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            truncated = True
            return
        if P == 0:
            if len(clique) > len(best):
                best = clique.copy()
            return
        color: dict[int, int] = {}
        classes: list[int] = []
        for v in _bits(P):
            for ci in range(len(classes)):
                if not (classes[ci] & adj[v]):
                    classes[ci] |= 1 << v
                    color[v] = ci + 1
                    break
            else:
                classes.append(1 << v)
                color[v] = len(classes)
        ordered = sorted(_bits(P), key=lambda v: color[v])
        while ordered:
            v = ordered.pop()
            if len(clique) + color[v] <= len(best):
                return
            clique.append(v)
            rest = 0
            for u in ordered:
                rest |= 1 << u
            expand(rest & adj[v], clique)
            clique.pop()
            if truncated:
                return

    expand((1 << len(adj)) - 1, [])
    return best, nodes, not truncated


def _family_upper_applies(D: DigitSet, p: int) -> bool:
    """Digit families whose orthogonality count is capped by p^n even when
    their own mask zeros leave the (1/p)-grid: planar three-digit sets with
    difference frame invertible mod 3, and planar antipodal four-digit sets
    with odd difference frame, each under the matching modulus."""
    if len(D[0]) != 2:
        return False
    if len(D) == 3 and p == 3:
        return det(three_digit_frame(D)) % 3 != 0
    if len(D) == 4 and p == 2:
        B = four_digit_frame(D)
        return B is not None and det(B) % 2 != 0
    return False


def _clique_upper(M: Matrix, zs: ZeroSet, p: int) -> int:
    """Max clique of the Cayley graph of realizable difference classes.

    Valid when det M is coprime to p and the mask zeros lie in the
    punctured (1/p)-grid: every pairwise difference of an orthogonal
    family then falls, mod p, in the union of the matrix-power images of
    the zero classes, and distinct members occupy distinct classes.
    """
    n = len(M)
    zbar = zero_classes_mod_p(zs, p)
    Mbar = mat_mod(transpose(M), p)
    tau = order_mod(transpose(M), p)
    U: set[tuple[int, ...]] = set()
    cur = set(zbar)
    for _ in range(tau):
        cur = {tuple(x % p for x in mat_vec(Mbar, v)) for v in cur}
        U |= cur
    vertices = list(product(range(p), repeat=n))
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * len(vertices)
    for i, a in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            b = vertices[j]
            diff = tuple((x - y) % p for x, y in zip(a, b))
            if diff in U:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best, _, complete = _max_clique(adj, None)
    if not complete:
        raise AssertionError("unbudgeted clique search must complete")
    return len(best)


@dataclass(frozen=True)
class OrthogonalFamily:
    frequencies: tuple[RationalPoint, ...]
    verified: bool


@dataclass(frozen=True)
class NStarBounds:
    """Two-sided bounds on the maximal orthogonal exponential count.

    lower always comes with a re-verified witness family. upper carries a
    method tag: "clique" for the Cayley-graph count, "trivial_pn" for the
    p^n cap from the digit-family hypotheses, "inapplicable" when no
    finite upper bound is certified (upper is then None).
    """

    lower: int
    witness: OrthogonalFamily
    upper: Optional[int]
    method: str
    search_nodes: int
    search_complete: bool


def nstar_bounds(
    M: Matrix,
    D: DigitSet,
    p: int,
    J: Optional[int] = None,
    R: int = 4,
    node_budget: int = 500_000,
) -> NStarBounds:
    """Bound the maximal number of mutually orthogonal exponentials.

    The lower bound searches candidate frequencies M^{T j} z + v for mask
    zeros z, 1 <= j <= J, integer offsets with max-norm at most R, keeps
    those lying in the Fourier zero set, and extracts an exact maximum
    clique of the pairwise-orthogonality graph (seeded with frequency 0).
    The upper bound uses the Cayley-graph count when det M is coprime to p
    and the zeros sit in the punctured (1/p)-grid, the p^n family cap when
    only the digit-shape hypotheses hold, and None otherwise.
    """
    M = as_matrix(M)
    D = as_digit_set(D)
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    if R < 0 or (J is not None and J < 1):
        raise ValueError("search window must be positive")
    if node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    eng = measure(M, D)
    n = eng.n
    if J is None:
        J = 2 * (p**n - 1)

    if eng.det % p != 0 and zero_set_in_punctured_grid(eng.zs, p):
        upper: Optional[int] = _clique_upper(M, eng.zs, p)
        method = "clique"
    elif eng.det % p != 0 and _family_upper_applies(D, p):
        upper = p**n
        method = "trivial_pn"
    else:
        upper = None
        method = "inapplicable"

    # every candidate M^{T j} z + v lies on the (1/q)-grid, so the search
    # runs on the integer vectors q*x, planar as the zeros, and converts the
    # chosen clique back
    q = eng.q
    zero = (0,) * n
    box = [
        tuple(q * c for c in v)
        for v in sorted(product(range(-R, R + 1), repeat=n))
    ]
    candidates: list[IntVector] = []
    seen: set[IntVector] = set()
    for shell in eng.shells(J):
        for x, y in shell:
            for ox, oy in box:
                cand = (x + ox, y + oy)
                if cand in seen or cand == zero:
                    continue
                seen.add(cand)
                if eng.membership(cand, q) is not None:
                    candidates.append(cand)

    vertices: list[IntVector] = [zero] + candidates
    adj = eng.orthogonality_graph(vertices)
    best, nodes, complete = _max_clique(adj, node_budget)
    chosen = [vertices[i] for i in sorted(best)]
    # an independent walk per difference up to sign: w and -w share their
    # verdict, as the residues are closed under negation
    diffs = {sign_canonical(tuple(map(sub, u, v))) for u, v in combinations(chosen, 2)}
    if any(eng.membership(w, q) is None for w in diffs):
        raise AssertionError("witness family failed re-verification")
    family = tuple(tuple(Fraction(c, q) for c in v) for v in chosen)
    witness = OrthogonalFamily(frequencies=family, verified=True)
    return NStarBounds(
        lower=len(family),
        witness=witness,
        upper=upper,
        method=method,
        search_nodes=nodes,
        search_complete=complete,
    )


@dataclass(frozen=True)
class TransportReport:
    """Scaled zero-set transport between conjugate digit systems.

    c1 scales B^T images of the original Fourier zeros into the conjugated
    system's zeros; c2 scales A^T images back. Each hit records the level
    at which the transported frequency lands.
    """

    c1: int
    c2: int
    forward_hits: tuple[tuple[int, RationalPoint, int], ...]
    backward_hits: tuple[tuple[int, RationalPoint, int], ...]
    ok: bool
    conjugate_matrix: Matrix
    conjugate_digits: DigitSet


def transport_inclusion_check(
    M: Matrix,
    D: DigitSet,
    A: Optional[Matrix],
    B: Matrix,
    p: int,
    J: int = 4,
    mode: str = "b",
) -> TransportReport:
    """Verify the scaled transport inclusions on a window of levels.

    Requires det M coprime to p and the conjugated digits' mask zeros
    inside the punctured (1/p)-grid. With e = (p-1)(p^n - 1), the scalings
    are c1 = det(AB) |det(AMB)|^e and c2 = |det M|^e; both are congruent
    to 1 mod p, which is what lets them re-enter the grid classes.
    """
    if J < 1:
        raise ValueError("level window must be positive")
    conj = make_conjugate(M, D, B, p, mode, A)
    n = len(conj.M)
    dM = det(conj.M)
    if dM % p == 0:
        raise HypothesisViolation("transport needs det M coprime to p")
    src = measure(conj.M, conj.D)
    dst = measure(conj.Mt, conj.Dt)
    if not zero_set_in_punctured_grid(dst.zs, p):
        raise HypothesisViolation(
            "conjugated mask zeros must lie in the punctured (1/p)-grid"
        )

    e = (p - 1) * (p**n - 1)
    c1 = det(conj.A) * det(conj.B) * abs(det(conj.Mt)) ** e
    c2 = abs(dM) ** e

    def hits(frm: DigitSystem, to: DigitSystem, T: Matrix, c: int) -> list:
        # c T^T M_frm^{T j} z for the zeros z of frm, on frm's (1/q)-grid
        Tt = transpose(T)
        out = []
        for j, shell in enumerate(frm.shells(J), 1):
            for z, vec in zip(frm.zs.points, shell):
                xi = tuple(c * x for x in mat_vec(Tt, vec))
                hit = to.membership(xi, frm.q)
                out.append((j, z, -1 if hit is None else hit))
        return out

    forward = hits(src, dst, conj.B, c1)
    backward = hits(dst, src, conj.A, c2)
    ok = all(hit != -1 for _, _, hit in forward + backward)

    return TransportReport(
        c1=c1,
        c2=c2,
        forward_hits=tuple(forward),
        backward_hits=tuple(backward),
        ok=ok,
        conjugate_matrix=conj.Mt,
        conjugate_digits=conj.Dt,
    )


@dataclass(frozen=True)
class NonSpectralCertificate:
    """Checkable witness that a digit system admits no exponential basis.

    difference_closure: scaled differences of mask zeros either fall back
    into the zero set or clear to integers, with at least one genuinely
    non-integer scaled difference present. window_empty: no level below
    j0 lets the scaled zero set touch Z^n. tail_integral: from level j0 on
    the scaling pushes everything into Z^n. Together these pin every
    candidate spectrum inside a structure too sparse to be complete.
    """

    L: Fraction
    j0: int
    difference_closure: bool
    window_empty: bool
    tail_integral: bool
    valid: bool
    verdict: str


def nonspectral_certificate(
    M: Matrix, D: DigitSet, L, j0: int
) -> NonSpectralCertificate:
    M = as_matrix(M)
    ds = digit_system(M, as_digit_set(D))
    L = Fraction(L)
    u, v = L.numerator, L.denominator
    if u <= 0:
        raise ValueError("scale L must be positive")
    if j0 < 2:
        raise ValueError("tail level j0 must be at least 2")
    zs = ds.zs
    if not zs.complete:
        raise IncompleteZeroSet("certificate needs a complete zero set")
    # each part is a divisibility test on the residues r = q z: for an
    # integer vector N, L N / q is integral iff v q divides every u N_i
    n = len(M)
    q = zs.q
    res = zs.residues

    # (a) closure of scaled differences; the closure argument needs the
    # scale to preserve the integer lattice, so a fractional scale fails
    # this part outright
    difference_closure = False
    if v == 1:
        diffs = (tuple(map(sub, r, rp)) for r in res for rp in res)
        nonint = [w for w in diffs if any(u * c % q for c in w)]
        difference_closure = bool(nonint) and all(zs.is_zero(w, q) for w in nonint)

    # (b) empty window below j0: at each level j < j0 the scaled image of
    # the zero set plus the integer lattice must miss Z^n entirely
    Mt = transpose(M)
    window_empty = True
    P = identity(n)
    for _ in range(1, j0):
        P = mat_mul(Mt, P)
        Pv = mat_mod(P, v)
        for r in res:
            scaled = [u * c for c in mat_vec(P, r)]
            if any(c % q for c in scaled):
                continue  # no integer translate can clear the denominator
            target = tuple(-(c // q) % v for c in scaled)
            for k in product(range(v), repeat=n):
                if tuple((u * x) % v for x in mat_vec(Pv, k)) == target:
                    window_empty = False
                    break
            if not window_empty:
                break
        if not window_empty:
            break

    # (c) integral tail at j0: the scaled matrix power clears the whole
    # lattice into Z^n, and the zero set with it, for every later level
    T = mat_pow(Mt, j0)
    tail_integral = all(u * x % v == 0 for row in T for x in row) and not any(
        u * c % (v * q) for r in res for c in mat_vec(T, r)
    )

    valid = difference_closure and window_empty and tail_integral
    return NonSpectralCertificate(
        L=L,
        j0=j0,
        difference_closure=difference_closure,
        window_empty=window_empty,
        tail_integral=tail_integral,
        valid=valid,
        verdict="NonSpectral" if valid else "inconclusive",
    )


def suggest_certificate(
    M: Matrix, D: DigitSet, max_j: int = 64
) -> Optional[tuple[int, int]]:
    """Suggest a certificate scale and tail level for a three-digit system.

    Follows the residue criterion sequence: conjugate to A M B and find the
    first level j0 >= 2 at which (A M B)^{T j} (1, -1) enters 3Z^2 for all
    subsequent levels. The suggested scale is |det(AB)|^(j0 + 1). Returns
    None when the sequence never enters (no certificate of this shape) or
    enters at level one (the spectral case).
    """
    M = as_matrix(M)
    D = as_digit_set(D)
    res = spectrality_criterion(M, D)
    MtT = transpose(res.Mt)
    w = (1, -1)
    j0 = None
    for j in range(1, max_j + 1):
        w = mat_vec(MtT, w)
        if all(x % 3 == 0 for x in w):
            j0 = j
            break
    if j0 is None or j0 < 2:
        return None
    L = abs(det(res.A) * det(res.B)) ** (j0 + 1)
    return (L, j0)
