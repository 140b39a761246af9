"""Orthogonal exponential counting, transport inclusions, certificates.

Two frequencies are orthogonal for the self-affine measure of (M, D) iff
their difference lies in the measure's Fourier-transform zero set, which
is the union over j >= 1 of M^{T j} applied to the mask zeros plus Z^n.
Each question here takes that measure as one zeros.DigitSystem, whose
gate, walkable, raises its refusals first, and whose walk decides
membership exactly. The candidate frequencies of the orthogonal-family
search, the transported zeros and the zero orbits all lie on the
(1/q)-grid of the mask zeros and are handled as integer vectors q*x, and
the non-spectrality certificate, at an integer scale, runs its three
parts as residue tests mod q on the residues and their shells. Fractions
appear only at the public boundary.

On top of that decision procedure sit the maximal-orthogonal-family
bounds (exact max clique below, Cayley-graph counting above), the scaled
zero-set transport inclusions between conjugate digit systems, and the
three-part non-spectrality certificate.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import NamedTuple, Optional, Sequence

from .conjugacy import make_conjugate, spectrality_criterion
from .errors import HypothesisViolation, WrongDimension
from .linalg import (
    IntVector,
    Matrix,
    det,
    mat_pow,
    mat_vec,
    transpose,
)
from .zeros import (
    DigitSet,
    DigitSystem,
    RationalPoint,
    as_rational_point,
    lattice_form,
    reduce_mod1,  # unused here; perfbench --trace 1 wraps ortho.reduce_mod1
    zero_set_in_punctured_grid,
)


# perfbench --trace 1 wraps ortho._Measure.membership by name
_Measure = DigitSystem


def zero_membership(system: DigitSystem, xi: Sequence) -> Optional[int]:
    """Least level j at which xi enters the Fourier zero set, or None.

    Returns the smallest j >= 1 such that M^{-T j} xi reduced mod 1 is a
    mask zero of D. The walk ends on the integer lattice: an iterate
    leaves it or reaches 0, which is never a mask zero, so None is a proof
    of non-membership rather than a timeout.
    """
    system.walkable  # raises the gate's refusals
    Q, (N,) = lattice_form((as_rational_point(xi),))
    if len(N) != system.n:
        raise WrongDimension("frequency dimension does not match the map")
    return system.membership(N, Q)


def has_infinite_orthogonal(system: DigitSystem) -> tuple[bool, Optional[int]]:
    """Whether some power M^{T j} maps a mask zero into Z^n.

    When it does, scaling that zero through successive powers yields
    arbitrarily large orthogonal families, so the count n* is infinite.
    The witness is the least such j, the level at which 0 enters
    DigitSystem.orbit(q), the orbit of the residues q*z mod q, q the common
    denominator of the mask zeros.
    """
    system.walkable  # raises the gate's refusals
    level = system.orbit(system.q)[1]
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


class NStarBounds(NamedTuple):
    """Two-sided bounds on the maximal orthogonal exponential count.

    lower is the size of witness, a family of frequencies through 0 whose
    pairwise differences were re-verified one walk each. upper is the
    Cayley-graph count on the orbit of the mask zeros, tagged "clique", or
    None, tagged "infinite", when some power M^{T j} maps a mask zero into
    Z^n and the family is unbounded. search_nodes sums the nodes of the
    lower search over the windows it searched, the only search the node
    budget stops; search_complete holds when the last window's search ran
    to its end or the witness reaches upper.
    """

    lower: int
    witness: tuple[RationalPoint, ...]
    upper: Optional[int]
    method: str
    search_nodes: int
    search_complete: bool


def nstar_bounds(
    system: DigitSystem,
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
    p, any integer >= 2 (the paper's similarity takes a prime), only caps
    the window at the default J = 2(p^n - 1).

    J and R are caps. With a finite upper bound the search runs on nested
    windows DigitSystem.window(j, r): the zero images (r = 0) of j = 1, 2,
    4, ... < J shells, then (J, 0), then (J, R) when R > 0, and it stops at
    the first window whose family reaches upper, which proves it maximum.
    The last window is the whole (J, R), so lower is never below that
    window's search. Each window's search gets the whole node budget, and
    search_nodes sums them. With upper None only (J, R) is searched.
    """
    if J is None and p is None:
        raise ValueError("the default window J needs p")
    if p is not None and p < 2:
        raise ValueError("window modulus p must be at least 2")
    if R < 0 or (J is not None and J < 1):
        raise ValueError("search window must be positive")
    if node_budget < 0:
        raise ValueError("node budget must be nonnegative")
    system.walkable  # raises the gate's refusals
    n = system.n
    if J is None:
        J = 2 * (p**n - 1)

    upper = _cayley_upper(system)
    windows = [(J, R)]
    if upper is not None:
        staged = [(1 << k, 0) for k in range((J - 1).bit_length())] + [(J, 0)]
        windows = staged + windows if R else staged

    # every candidate M^{T j} z + v lies on the (1/q)-grid, so the search
    # runs on the integer vectors q*x and converts the chosen clique back
    q = system.q
    nodes = 0
    for j, r in windows:
        vertices: list[IntVector] = [(0,) * n] + system.window(j, r)
        adj = system.orthogonality_graph(vertices)
        best, spent, complete = _max_clique(adj, node_budget, upper)
        nodes += spent
        # vertex 0 is joined to every candidate, so a stopped search keeps it too
        chosen = [vertices[i] for i in sorted({0, *best})]
        if len(chosen) == upper:
            break
    # an independent walk per difference up to sign
    if system.first_failing_pair(chosen, q) is not None:
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


class TransportReport(NamedTuple):
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
    system: DigitSystem,
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
    to 1 mod p, which is what lets them re-enter the grid classes. The
    system is the source (M, D); its conjugate is built here.
    """
    if J < 1:
        raise ValueError("level window must be positive")
    conj = make_conjugate(system.M, system.D, B, p, mode, A)
    n = system.n
    dM = system.det
    if dM % p == 0:
        raise HypothesisViolation("transport needs det M coprime to p")
    system.walkable  # raises the gate's refusals
    dst = DigitSystem(conj.Mt, conj.Dt)
    dst.walkable
    if not zero_set_in_punctured_grid(dst.zs, p):
        raise HypothesisViolation(
            "conjugated mask zeros must lie in the punctured (1/p)-grid"
        )

    e = (p - 1) * (p**n - 1)
    c1 = det(conj.A) * det(conj.B) * abs(dst.det) ** e
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

    forward = hits(system, dst, conj.B, c1)
    backward = hits(dst, system, conj.A, c2)
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


class NonSpectralCertificate(NamedTuple):
    """Checkable witness that a digit system admits no exponential basis,
    at an integer scale L.

    difference_closure: scaled differences of mask zeros either fall back
    into the zero set or clear to integers, with at least one genuinely
    non-integer scaled difference present. window_empty: no level below
    j0 lets the scaled zero set touch Z^n. tail_integral: from level j0 on
    the scaling pushes everything into Z^n. Together these pin every
    candidate spectrum inside a structure too sparse to be complete.
    """

    L: int
    j0: int
    difference_closure: bool
    window_empty: bool
    tail_integral: bool
    valid: bool
    verdict: str


def nonspectral_certificate(
    system: DigitSystem, L, j0: int
) -> NonSpectralCertificate:
    """Check the three-part certificate at a positive integer scale L (an
    int or an integral Fraction) and tail level j0.

    Only such an L keeps the integer lattice, as the closure needs, so any
    other is refused first, then j0; then the measure must exist:
    DigitSystem.walkable refuses a singular or non-expanding M and an
    incomplete zero set, as for every other question about the measure.
    Each part is a residue test, as L x / q is integral iff L x = 0 mod q.
    """
    L = Fraction(L)
    if L.denominator != 1 or L <= 0:
        raise ValueError("scale L must be a positive integer")
    L = L.numerator
    if j0 < 2:
        raise ValueError("tail level j0 must be at least 2")
    system.walkable  # raises the gate's refusals
    zs = system.zs
    q = zs.q
    res = zs.residues

    # (a) closure of scaled differences
    diffs = (tuple(map(sub, r, rp)) for r in res for rp in res)
    nonint = [w for w in diffs if any(L * c % q for c in w)]
    difference_closure = bool(nonint) and all(zs.is_zero(w, q) for w in nonint)

    # (b) empty window below j0: at each level j < j0 the scaled image of
    # the zero set plus the integer lattice must miss Z^n entirely. L is an
    # integer, so L M^{Tj} (r/q + k) is integral iff L M^{Tj} r / q is:
    # no vector of the residue shells may have every L c = 0 mod q
    window_empty = all(
        any(L * c % q for c in x) for shell in system.shells(j0 - 1) for x in shell
    )

    # (c) integral tail at j0: the scaled zero set clears into Z^n, and
    # every later level with it, as M^T keeps the integer lattice
    T = mat_pow(transpose(system.M), j0)
    tail_integral = not any(L * c % q for r in res for c in mat_vec(T, r))

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


def suggest_certificate(system: DigitSystem) -> Optional[tuple[int, int]]:
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
    res = spectrality_criterion(system)
    if res.verdict == "Spectral":
        return None
    N = transpose(res.Mt)
    if any(c % 3 for c in mat_vec(N, mat_vec(N, (1, -1)))):
        return None
    return (abs(det(res.A) * det(res.B)) ** 3, 2)
