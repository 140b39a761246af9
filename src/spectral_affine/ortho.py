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
from math import gcd
from operator import sub
from typing import Optional, Sequence

from .conjugacy import make_conjugate, spectrality_criterion
from .errors import HypothesisViolation, IncompleteZeroSet, WrongDimension
from .linalg import (
    IntVector,
    Matrix,
    as_matrix,
    det,
    is_expanding,
    mat_pow,
    mat_vec,
    smith_normal_form,
    transpose,
)
from .zeros import (
    DigitSet,
    DigitSystem,
    RationalPoint,
    as_digit_set,
    as_rational_point,
    lattice_form,
    reduce_mod1,  # unused here; perfbench --trace 1 wraps ortho.reduce_mod1
    zero_set_in_punctured_grid,
)


# perfbench --trace 1 wraps ortho._Measure.membership by name
_Measure = DigitSystem


def measure(M: Matrix, D: DigitSet) -> DigitSystem:
    """DigitSystem(M, D), M and D validated, once walkable has raised the
    walk's refusals."""
    ds = DigitSystem(M, D)
    ds.walkable  # raises the walk's refusals
    return ds


def zero_membership(M: Matrix, D: DigitSet, xi: Sequence) -> Optional[int]:
    """Least level j at which xi enters the Fourier zero set, or None.

    Returns the smallest j >= 1 such that M^{-T j} xi reduced mod 1 is a
    mask zero of D. The walk ends on the integer lattice: an iterate
    leaves it or reaches 0, which is never a mask zero, so None is a proof
    of non-membership rather than a timeout.
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
    The witness is the least such j, the level at which 0 enters
    DigitSystem.orbit(q), the orbit of the residues q*z mod q, q the common
    denominator of the mask zeros.
    """
    ds = DigitSystem(as_matrix(M), as_digit_set(D))
    if not is_expanding(ds.M):
        raise HypothesisViolation("orbit test requires an expanding matrix")
    if not ds.zs.complete:
        raise IncompleteZeroSet("orbit test needs a complete zero set")
    level = ds.orbit(ds.q)[1]
    return (level is not None, level)


def _max_clique(
    adj: Sequence[int], node_budget: Optional[int], target: Optional[int] = None
) -> tuple[list[int], int, bool]:
    """Exact maximum clique by branch and bound with greedy coloring
    (Tomita and Seki's MCQ), run on an explicit stack.

    adj[i] is a bitmask of neighbors. A search node colors its candidates
    first-fit in index order, one class at a time, and branches on them
    from the last class back; it is abandoned once the clique plus a
    vertex's color cannot beat the best. Returns (vertices, nodes,
    complete); when the node budget runs out the longer of the best clique
    and the current path, itself a clique, is returned with complete False,
    which still certifies a lower bound. A best clique that reaches target,
    a proven bound on the clique number, is the maximum the full search
    would keep, as only a larger clique replaces it: the search returns.
    """
    best: list[int] = []
    clique: list[int] = []
    stack: list[list] = []  # per open node: [(vertex, color), ...], unbranched mask
    nodes = 0
    P = (1 << len(adj)) - 1
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return max(best, clique, key=len), nodes, False
        if P:
            order, U, color = [], P, 0
            while U:
                color += 1
                Q = U
                while Q:
                    b = Q & -Q
                    v = b.bit_length() - 1
                    order.append((v, color))
                    U ^= b
                    Q &= ~(adj[v] | b)
            stack.append([order, P])
        elif len(clique) > len(best):
            best = clique.copy()
            if len(best) == target:
                return best, nodes, True
        while stack:
            order, rest = frame = stack[-1]
            del clique[len(stack) - 1 :]
            if order and len(clique) + order[-1][1] > len(best):
                v = order.pop()[0]
                frame[1] = rest = rest ^ (1 << v)
                P = rest & adj[v]
                clique.append(v)
                break
            stack.pop()
        else:
            return best, nodes, True


def _cayley_upper(eng: DigitSystem) -> Optional[int]:
    """Certified bound on the size of an orthogonal family, None when the
    family can be infinite.

    The difference of two members is a Fourier zero, congruent mod Z^n to
    some M^{T j} z, so q times it is a class of the orbit U mod q
    (DigitSystem.orbit). For a divisor m of q with 0 not in U mod m, the
    map x -> q*x mod m is injective on a family through 0, onto a clique of
    the Cayley graph of (Z/m)^n on U mod m, so at most 1 + |U mod m| of
    them; m is the least such divisor. Along the primes l of m in order,
    d the product of the earlier ones, the members sharing a class mod d
    differ by elements of U_d = {u/d : u in U mod m, d | u}, and they meet
    at most 1 + w classes mod d l, w the clique number of the graph on
    U_d mod l minus 0 (a maximum clique of a Cayley graph can be translated
    through 0). The product of these counts bounds the family too, and is
    that clique count on (Z/m)^n when m is prime. Each search runs on at
    most l^n - 1 vertices and to the end. 0 in U mod q is exactly an
    infinite family; without zeros, m = q = 1 and the bound is 1.
    """
    q = eng.q
    zero = (0,) * eng.n
    for m in range(1, q + 1):
        if q % m == 0:
            Um, level = eng.orbit(m)
            if level is None:
                break
    else:
        return None
    bound, Ud, rest, l = 1, Um, m, 2
    while rest > 1:
        if rest % l:
            l += 1
            continue
        rest //= l
        V = sorted({tuple([c % l for c in u]) for u in Ud} - {zero})
        Vset = set(V)
        adj = [
            sum(
                1 << i
                for i, v in enumerate(V)
                if tuple([(a - b) % l for a, b in zip(u, v)]) in Vset
            )
            for u in V
        ]
        best, _, _ = _max_clique(adj, None)
        bound *= 1 + len(best)
        Ud = {tuple([c // l for c in u]) for u in Ud if not any(c % l for c in u)}
    return min(bound, 1 + len(Um))


@dataclass(frozen=True)
class NStarBounds:
    """Two-sided bounds on the maximal orthogonal exponential count.

    lower is the size of witness, a family of frequencies through 0 whose
    pairwise differences were re-verified one walk each. upper is the
    Cayley-graph count on the orbit of the mask zeros, tagged "clique", or
    None, tagged "infinite", when some power M^{T j} maps a mask zero into
    Z^n and the family is unbounded. search_nodes counts the nodes of the
    lower search, the only one the node budget stops; search_complete holds
    when that search ran to its end or the witness reaches upper.
    """

    lower: int
    witness: tuple[RationalPoint, ...]
    upper: Optional[int]
    method: str
    search_nodes: int
    search_complete: bool


def nstar_bounds(
    M: Matrix,
    D: DigitSet,
    p: Optional[int] = None,
    J: Optional[int] = None,
    R: int = 4,
    node_budget: int = 500_000,
) -> NStarBounds:
    """Bound the maximal number of mutually orthogonal exponentials.

    The lower bound searches candidate frequencies M^{T j} z + v for mask
    zeros z, 1 <= j <= J, integer offsets with max-norm at most R, keeps
    those lying in the Fourier zero set, and extracts an exact maximum
    clique of the pairwise-orthogonality graph (seeded with frequency 0).
    The upper bound counts the Cayley graph on the orbit of the mask zeros
    mod the least divisor m of their common denominator q that keeps 0 out
    of it, one prime of m at a time (1 without zeros), and is None when the
    orbit reaches 0 mod q. Neither bound needs a condition on det M or p;
    p, any integer >= 2 (the paper's similarity takes a prime), only sets
    the default window J = 2(p^n - 1). The candidates are DigitSystem.window
    (J, R). The search is complete at the upper bound.
    """
    M = as_matrix(M)
    D = as_digit_set(D)
    if J is None and p is None:
        raise ValueError("the default window J needs p")
    if p is not None and p < 2:
        raise ValueError("window modulus p must be at least 2")
    if R < 0 or (J is not None and J < 1):
        raise ValueError("search window must be positive")
    if node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    eng = measure(M, D)
    n = eng.n
    if J is None:
        J = 2 * (p**n - 1)

    upper = _cayley_upper(eng)

    # every candidate M^{T j} z + v lies on the (1/q)-grid, so the search
    # runs on the integer vectors q*x and converts the chosen clique back
    q = eng.q
    vertices: list[IntVector] = [(0,) * eng.n] + eng.window(J, R)
    adj = eng.orthogonality_graph(vertices)
    best, nodes, complete = _max_clique(adj, node_budget, upper)
    # vertex 0 is joined to every candidate, so a stopped search keeps it too
    chosen = [vertices[i] for i in sorted({0, *best})]
    # an independent walk per difference up to sign
    if eng.first_failing_pair(chosen, q) is not None:
        raise AssertionError("witness family failed re-verification")
    witness = tuple(tuple(Fraction(c, q) for c in v) for v in chosen)
    return NStarBounds(
        lower=len(witness),
        witness=witness,
        upper=upper,
        method="infinite" if upper is None else "clique",
        search_nodes=nodes,
        # a witness at the certified bound is a maximum, however the search stopped
        search_complete=complete or len(witness) == upper,
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
    ds = DigitSystem(M, as_digit_set(D))
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
    # the zero set plus the integer lattice must miss Z^n entirely. With
    # P = M^{T j} and w = u P r / q integral (otherwise no integer translate
    # clears the denominator), some k has L P (r/q + k) = (w + u P k) / v
    # integral iff w is in P Z^n + v Z^n, u being a unit mod v; with
    # A P B = S the Smith form, iff gcd(s_i, v) divides (A w)_i for every i.
    # The images P r are the residue shells
    Mt = transpose(M)
    window_empty = True
    for j, shell in enumerate(ds.shells(j0 - 1), 1):
        scaled = [[u * c for c in x] for x in shell]
        ws = [[c // q for c in x] for x in scaled if not any(c % q for c in x)]
        if ws:
            S, A, _ = smith_normal_form(mat_pow(Mt, j))
            g = [gcd(S[i][i], v) for i in range(n)]
            if any(all(c % gi == 0 for c, gi in zip(mat_vec(A, w), g)) for w in ws):
                window_empty = False
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


def suggest_certificate(M: Matrix, D: DigitSet) -> Optional[tuple[int, int]]:
    """Suggest a certificate scale and tail level for a three-digit system.

    Follows the residue criterion sequence N^j v mod 3, v = (1, -1), N =
    (A M B)^T and A B the criterion's frame pair. The mask zeros of
    {0, e1, e2} are (1, 2)/3 and (2, 1)/3, so that sequence is their orbit
    under N, and j0 is the least level at which it reaches 0 mod 3. That
    level is one (the spectral case), two or never: an invertible N never
    sends v to 0, and by Cayley-Hamilton over F_3 a singular N has
    N^2 = tr(N) N, so some N^j v is 0 iff N v is (tr N != 0) or N^2 v is
    (tr N = 0). The suggested scale is |det(AB)|^(j0 + 1). Returns None
    unless the level is two.
    """
    res = spectrality_criterion(M, D)
    if res.verdict == "Spectral":
        return None
    N = transpose(res.Mt)
    if any(c % 3 for c in mat_vec(N, mat_vec(N, (1, -1)))):
        return None
    return (abs(det(res.A) * det(res.B)) ** 3, 2)
