"""Digit sets, exact mask evaluation, and rational zero sets.

The mask of a digit set D is the normalized exponential sum
m_D(x) = (1/|D|) * sum_d exp(2 pi i <d, x>). Whether it vanishes at a
rational point is decided exactly: the point is reduced to exponents in
Z/q, and the induced integer polynomial is tested for divisibility by the
q-th cyclotomic polynomial. Zero sets are produced in closed form for the
two digit families where a complete finite description is available, and
by grid scanning otherwise, with an explicit completeness flag either way.

A zero set is stored as the integer residues q*z over the zeros' least
common denominator q, which every exact decision reads; its Fraction
points are built only when a report asks for them.

DigitSystem is the measure of one pair (M, D): it holds the integer data
that every question about the measure reads, and every such question
takes it. Its walk decides whether a frequency lies in the Fourier zero
set of the measure, the union over j >= 1 of M^{T j} applied to the mask
zeros plus Z^n: iterate xi <- M^{-T} xi and compare against the finite
mask zero set mod Z^n. The walk runs on the integer lattice. The zero
set lies on the (1/q)-grid, and M^T maps that grid into itself: an
iterate that leaves the grid never comes back.
A frequency N/Q is therefore mapped to the integer vector u = q*N/Q (not
in the zero set when that is not integral), and one step is an integer
mat-vec with adj(M)^T followed by an exact division by |det M|; the
first inexact division ends the walk. The iterate is a zero mod Z^n iff
u mod q is a residue. Since M^{-T} contracts, integer iterates that
never leave the lattice reach 0, which stays 0 and is never a residue
(the mask is 1 there), so the walk ends there too, with no contraction
constant.

The step is planar, on a pair (x, y): complete zero sets are known only
for planar three- and four-digit sets and a single digit has none, so a
walk over zeros off the plane is refused with WrongDimension, and
without zeros a walk and the graph end before the first step.

The orthogonality graph is built without pairwise walks: a - b is in the
zero set iff a = b mod M^{T j} Z^n and M^{-T j}(a - b) mod q is a residue
for some j >= 1, so the vertices are split level by level into classes
mod M^{T j} Z^n, and within a class a dict on the scaled iterate mod q
joins the pairs whose difference is a residue. Over a denominator L, a
multiple of q, the dict is on the iterate mod L and the residues are scaled
by L/q; spectrum's level sums are lifted to such an L, and their first
failing pair is read from the graph with no walk.
"""

from __future__ import annotations

import cmath
import functools
import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from typing import Iterator, Optional, Sequence

from .errors import (
    DegenerateDigits,
    HypothesisViolation,
    IncompleteZeroSet,
    SingularMatrix,
    WrongDimension,
)
from .linalg import (
    IntVector,
    Matrix,
    as_matrix,
    det_and_adjugate,
    integer_rows,
    is_expanding,
    mat_vec,
    sign_canonical,
    transpose,
)

DigitSet = tuple[tuple[int, ...], ...]
RationalPoint = tuple[Fraction, ...]


def as_digit_set(rows: Sequence[Sequence[int]]) -> DigitSet:
    """Validate and freeze a set of distinct integer digit vectors."""
    return digit_set_shape(integer_rows(rows, "digit"))


def digit_set_shape(D: DigitSet) -> DigitSet:
    """D, once checked: nonempty, distinct, of one positive dimension."""
    if not D:
        raise ValueError("digit set must be nonempty")
    n = len(D[0])
    if n == 0:
        raise WrongDimension("digit vectors must have positive dimension")
    for row in D:
        if len(row) != n:
            raise WrongDimension("digit vectors must share one dimension")
    if len(set(D)) != len(D):
        raise ValueError("digit set entries must be distinct")
    return D


def as_rational_point(coords: Sequence) -> RationalPoint:
    return tuple(Fraction(c) for c in coords)


def reduce_mod1(x: Sequence) -> RationalPoint:
    return tuple(Fraction(c) % 1 for c in x)


def lattice_form(points: Sequence[RationalPoint]) -> tuple[int, tuple[IntVector, ...]]:
    """Points of Fractions or ints as their least common denominator Q (1
    for no points) and the integer vectors Q*x, in point order."""
    Q = lcm(*[c.denominator for pt in points for c in pt])
    return Q, tuple([tuple([c.numerator * (Q // c.denominator) for c in pt]) for pt in points])


def mask_eval(D: DigitSet, x: Sequence) -> complex:
    """Numeric mask value at x; x may hold floats, ints, or Fractions.

    Each phase is added left to right from 0.0, the order of the builtin
    sum up to Python 3.11, whose compensated sum from 3.12 could move its
    last bit."""
    xs = [float(c) for c in x]
    if len(xs) != len(D[0]):
        raise WrongDimension("point dimension does not match digits")
    total = 0j
    for d in D:
        phase = 0.0
        for di, xi in zip(d, xs):
            phase = phase + di * xi
        total += cmath.exp(2j * cmath.pi * phase)
    return total / len(D)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic, a cyclotomic polynomial; exact integer division
    num = list(num)
    dd = len(den) - 1
    q = [0] * max(1, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@functools.lru_cache(maxsize=None)
def cyclotomic(q: int) -> tuple[int, ...]:
    """Coefficients of the q-th cyclotomic polynomial, ascending degree."""
    if q < 1:
        raise ValueError("cyclotomic index must be positive")
    if q == 1:
        return (-1, 1)
    num = [0] * (q + 1)
    num[0] = -1
    num[q] = 1
    for d in range(1, q):
        if q % d == 0:
            quot, rem = _poly_divmod(num, list(cyclotomic(d)))
            if rem != [0]:
                raise AssertionError("cyclotomic division must be exact")
            num = quot
    return tuple(num)


def is_zero_exact(D: DigitSet, x: Sequence) -> bool:
    """Exact vanishing test for the mask of D at a rational point.

    The value is (1/|D|) * P(zeta_q) for the integer polynomial P collecting
    digit exponents mod q, so it vanishes iff the q-th cyclotomic polynomial
    divides P.
    """
    pt = as_rational_point(x)
    if len(pt) != len(D[0]):
        raise WrongDimension("point dimension does not match digits")
    q, (N,) = lattice_form((pt,))
    return _vanishes_at(D, N, q)


def _vanishes_at(D: DigitSet, N: IntVector, q: int) -> bool:
    """is_zero_exact at N/q, N an integer vector and q > 0, in any terms:
    the test runs at the point's order, N/q in lowest terms."""
    g = gcd(q, *N)
    q, N = q // g, [c // g for c in N]
    coeffs = [0] * q
    for d in D:
        coeffs[sum(map(mul, d, N)) % q] += 1
    phi = list(cyclotomic(q))
    if len(coeffs) < len(phi):
        coeffs += [0] * (len(phi) - len(coeffs))
    _, rem = _poly_divmod(coeffs, phi)
    return rem == [0]


class ZeroSet:
    """Mask zeros z in [0,1)^n as the integer residues q*z, q their least
    common denominator (1 for none), and a completeness guarantee flag: when
    set, they are provably all of the zeros in the unit cube. residue_set and
    points, the zeros as Fractions in residue order, are built on first use.
    The fields are read-only.
    """

    q: int
    residues: tuple[IntVector, ...]
    complete: bool

    def __init__(self, q: int, residues: tuple[IntVector, ...], complete: bool):
        self.__dict__.update(q=q, residues=residues, complete=complete)
        self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __post_init__(self):
        q, residues = self.q, self.residues
        if q < 1 or gcd(q, *[v for r in residues for v in r]) != 1:
            raise AssertionError("q must be the least common denominator of the zeros")
        if not all(0 <= v < q for r in residues for v in r):
            raise AssertionError("zero set points must lie in [0,1)")
        if not all(tuple([-v % q for v in r]) in self.residue_set for r in residues):
            raise AssertionError("zero set must be symmetric under negation")

    @functools.cached_property
    def residue_set(self) -> frozenset[IntVector]:
        return frozenset(self.residues)

    @functools.cached_property
    def points(self) -> tuple[RationalPoint, ...]:
        return tuple([tuple([Fraction(v, self.q) for v in r]) for r in self.residues])

    def is_zero(self, N: IntVector, Q: int) -> bool:
        """Whether N/Q (N an integer vector, Q a nonzero int) is a listed
        zero mod Z^n; a proof of non-vanishing only when complete."""
        q = self.q
        u = [q * c for c in N]
        for c in u:
            if c % Q:
                return False
        return tuple([c // Q % q for c in u]) in self.residue_set


# base zeros as integer numerators over their common denominator
_THIRD_PAIR = (3, ((1, 2), (2, 1)))
_HALF_TRIPLE = (2, ((0, 1), (1, 0), (1, 1)))


def _lattice_preimage(
    B: Matrix, base: tuple[int, Sequence[IntVector]]
) -> tuple[int, tuple[IntVector, ...]]:
    """All x in [0,1)^2 with B^T x congruent mod Z^2 to a base point b/m,
    as their least common denominator q and the sorted vectors q*x.

    Those x are adj(B)^T (b + m r) / (m det B) for r over any transversal
    of Z^2 / B^T Z^2: exactly |det B| classes mod Z^2 per base point, found
    as integer numerators over m |det B|, reduced mod m |det B| and sorted,
    so the transversal chosen does not show. The one taken is the Hermite
    box of linalg.coset_transversal(B^T) in its 2x2 case, [0, g) x
    [0, |det B| / g), g the gcd of the first coordinates of the columns of
    B^T, looped inline: those coordinates of B^T Z^2 are gZ, and the
    lattice vectors with first coordinate 0 are {0} x (|det B| / g)Z.
    Both base sets are closed under negation, so the sign of det B only
    permutes the preimages and is dropped.
    """
    d, adj = det_and_adjugate(B)
    if d == 0:
        raise DegenerateDigits("digit difference matrix is singular")
    m, numerators = base
    den = m * abs(d)
    (a00, a01), (a10, a11) = adj
    g = gcd(B[0][0], B[1][0])
    found = {
        ((a00 * y0 + a10 * y1) % den, (a01 * y0 + a11 * y1) % den)
        for b0, b1 in numerators
        for y0 in range(b0, b0 + m * g, m)
        for y1 in range(b1, b1 + den // g, m)
    }
    # distinct cosets and distinct base classes give distinct preimages, so
    # the count also certifies that the box is a transversal
    if len(found) != len(numerators) * abs(d):
        raise AssertionError("preimage count must equal |base| * |det|")
    c = gcd(den, *[v for x in found for v in x])
    return den // c, tuple(sorted([(x // c, y // c) for x, y in found]))


def three_digit_frame(D: DigitSet) -> Matrix:
    """Difference frame [d1-d0 | d2-d0] of a planar three-digit set."""
    d0, d1, d2 = D
    return (
        (d1[0] - d0[0], d2[0] - d0[0]),
        (d1[1] - d0[1], d2[1] - d0[1]),
    )


def four_digit_frame(D: DigitSet) -> Matrix | None:
    """Difference frame [alpha | beta] when D is a translate of a set
    {0, alpha, beta, -alpha-beta}; None when it is not of that shape."""
    if len(D) != 4 or len(D[0]) != 2:
        return None
    s = [sum(d[i] for d in D) for i in range(2)]
    if any(v % 4 != 0 for v in s):
        return None
    c = tuple(v // 4 for v in s)
    if c not in D:
        return None
    # the other three digits minus c sum to 4c - c - 3c = 0, so the third
    # is -alpha-beta
    a, b, _ = [tuple(di - ci for di, ci in zip(d, c)) for d in D if d != c]
    return ((a[0], b[0]), (a[1], b[1]))


def _closed_form(D: DigitSet) -> tuple[Matrix, tuple[int, Sequence[IntVector]]] | None:
    """The difference frame and base zeros of a planar three-digit set or a
    planar translate of an antipodal four-digit set, the shapes whose zeros
    have a closed form; None for any other shape."""
    if len(D) == 3 and len(D[0]) == 2:
        return three_digit_frame(D), _THIRD_PAIR
    B = four_digit_frame(D)
    return None if B is None else (B, _HALF_TRIPLE)


def zero_set(D: DigitSet, q_hints: Sequence[int] = ()) -> ZeroSet:
    """Mask zeros of a digit set in the unit cube.

    Three-digit planar sets and planar translates of antipodal four-digit
    sets {0, alpha, beta, -alpha-beta} get exact complete zero sets via the
    classification of three- and four-term vanishing sums of roots of unity.
    Every other shape falls back to exhaustive exact scanning of the grids
    (1/q)Z^n for the hinted values of q, flagged incomplete. The residues
    are listed in ascending order.
    """
    D = as_digit_set(D)
    n = len(D[0])
    if len(D) == 1:
        # a unimodular exponential never vanishes
        return ZeroSet(1, (), complete=True)
    form = _closed_form(D)
    if form is not None:
        return ZeroSet(*_lattice_preimage(*form), complete=True)
    # hint mode: exact scan of each (1/q)Z^n grid, on integers
    if any(qh < 1 for qh in q_hints):
        raise ValueError("grid denominators must be positive")
    found = {
        tuple([Fraction(c, qh) for c in coords])
        for qh in q_hints
        for coords in itertools.product(range(qh), repeat=n)
        if _vanishes_at(D, coords, qh)
    }
    return ZeroSet(*lattice_form(sorted(found)), complete=False)


def zero_set_in_punctured_grid(Z: ZeroSet, p: int) -> bool:
    """Whether every zero lies in the punctured grid (1/p)Z^n minus Z^n:
    q divides p and no residue is 0.

    Requires a complete zero set; an incomplete scan could not certify the
    inclusion.
    """
    if not Z.complete:
        raise IncompleteZeroSet("punctured grid inclusion needs a complete zero set")
    return p % Z.q == 0 and all(any(r) for r in Z.residues)


def require_expanding(M: Matrix) -> None:
    """The refusal of an M that is not expanding, for which the measure
    does not exist: the gate's, and that of every question that needs an
    expanding map without a digit system."""
    if not is_expanding(M):
        raise HypothesisViolation(
            "inverse-transpose powers do not contract; matrix not expanding"
        )


class DigitSystem:
    """The measure of (M, D), the one argument of every question about it:
    M and D validated by as_matrix and as_digit_set, det M, M^{-T} as
    adjT = sign(det M) adj(M)^T over absdet = |det M|, and the zero set
    zs, built on first use. Building it checks the inputs and the digit
    dimension only. Each hypothesis is decided once, on first use, by a
    cached gate: expanding, for the float layer and the criterion, and
    walkable, the gate of every exact question about the measure, which
    exists for an expanding M only: the walk, the orbit test, the
    certificate and the scan radius raise its refusals."""

    def __init__(self, M: Sequence[Sequence[int]], D: Sequence[Sequence[int]]):
        M = as_matrix(M)
        D = as_digit_set(D)
        if len(D[0]) != len(M):
            raise WrongDimension("digit dimension does not match the map")
        self.M = M
        self.D = D
        self.n = len(M)
        d, adj = det_and_adjugate(M)
        self.det = d
        # M^{-T} = adjT / absdet with the sign of det M moved into adjT
        sign = -1 if d < 0 else 1
        self.adjT = tuple(tuple(sign * x for x in col) for col in zip(*adj))
        self.absdet = abs(d)

    @functools.cached_property
    def zs(self) -> ZeroSet:
        return zero_set(self.D)

    @functools.cached_property
    def q(self) -> int:
        return self.zs.q

    @functools.cached_property
    def residues(self) -> frozenset[IntVector]:
        return self.zs.residue_set

    def orbit(self, m: int) -> tuple[frozenset[IntVector], Optional[int]]:
        """U mod m = {M^{T j} r mod m : j >= 1, r a residue}, m a divisor
        of q, and the least j with 0 in M^{T j} r mod m, None when 0 is not
        in U mod m. Reduction mod m commutes with M^T, so the closure
        starts from the residues mod m. Level j is the image of level j - 1,
        so U is closed once a level adds nothing new."""
        Mt = transpose(self.M)
        zero = (0,) * self.n
        U: set[IntVector] = set()
        level = {tuple([c % m for c in r]) for r in self.residues}
        first = None
        for j in itertools.count(1):
            level = {tuple([c % m for c in mat_vec(Mt, x)]) for x in level}
            if first is None and zero in level:
                first = j
            if level <= U:
                return frozenset(U), first
            U |= level

    @functools.cached_property
    def listed(self) -> bool:
        """Whether zs lists every zero, so that its residues decide
        vanishing. False, without building zs, for a closed-form shape with
        a singular frame (a collinear three-digit set, say): its zeros fill
        lines, and zs refuses it with DegenerateDigits."""
        form = _closed_form(self.D)
        if form is not None and det_and_adjugate(form[0])[0] == 0:
            return False
        return self.zs.complete

    def vanishes(self, v: IntVector) -> bool:
        """Whether the mask vanishes at M^{-T} v, v an integer vector and M
        invertible: on the residues when listed, by cyclotomic_zero
        otherwise."""
        w = [sum(map(mul, row, v)) for row in self.adjT]
        if self.listed:
            return self.zs.is_zero(w, self.absdet)
        return self.cyclotomic_zero(w)

    def cyclotomic_zero(self, w: IntVector) -> bool:
        """is_zero_exact's test at w/|det M|, w an integer vector; reads no zero set."""
        return _vanishes_at(self.D, w, self.absdet)

    def first_failing_pair(
        self, vectors: Sequence[IntVector], Q: int
    ) -> Optional[tuple[int, int]]:
        """The first pair (i, j), i < j, whose difference (vectors[i] -
        vectors[j]) / Q is not in the Fourier zero set, or None; vectors are
        distinct integer vectors and Q > 0. Each difference is walked once
        up to sign, as the residues are closed under negation. The walk's
        refusals are raised whatever the family size."""
        self.walkable
        memo: dict[IntVector, bool] = {}
        for (i, a), (j, b) in itertools.combinations(enumerate(vectors), 2):
            w = sign_canonical(tuple(map(sub, a, b)))
            hit = memo.get(w)
            if hit is None:
                hit = memo[w] = self.membership(w, Q) is not None
            if not hit:
                return i, j
        return None

    def first_unjoined_pair(
        self, vectors: Sequence[IntVector], Q: int
    ) -> Optional[tuple[int, int]]:
        """first_failing_pair's answer read from the orthogonality graph,
        with no walk: the vectors are lifted from denominator Q to lcm(Q, q),
        and the pair is the first vertex whose bitmask misses a later vertex,
        with the first vertex it misses. Without zeros every pair fails. The
        gate's refusals come first, as in first_failing_pair."""
        self.walkable
        L = lcm(Q, self.q)
        s = L // Q
        adj = self.orthogonality_graph([tuple([s * c for c in v]) for v in vectors], L)
        for i, row in enumerate(adj, 1):
            missing = ((1 << len(adj)) - (1 << i)) & ~row
            if missing:
                return i - 1, (missing & -missing).bit_length() - 1
        return None

    @functools.cached_property
    def invertible(self) -> bool:
        """True, or the refusal of a singular M: the one place it is decided."""
        if self.det == 0:
            raise SingularMatrix("expanding map must be invertible")
        return True

    @functools.cached_property
    def expanding(self) -> bool:
        """True, or the refusal of an M that is not expanding: the one place
        a system decides it. A singular M is not expanding, and is refused
        as such here; invertible is not asked first."""
        require_expanding(self.M)
        return True

    @functools.cached_property
    def walkable(self) -> bool:
        """Whether there are zeros to walk to. Refuses, in this order, a
        singular M, an incomplete zero set, zeros off the plane and an M
        that is not expanding: the one place these are decided."""
        self.invertible
        if not self.zs.complete:
            raise IncompleteZeroSet(
                "orthogonality decisions need a provably complete zero set"
            )
        if self.zs.residues and self.n != 2:
            raise WrongDimension("mask zeros are walked in the plane only")
        self.expanding
        return bool(self.residues)

    def shells(self, J: int) -> Iterator[list[IntVector]]:
        """The residue shells M^{T j} r for j = 1..J, each in residue
        order; each level is built from the previous one when reached, so a
        caller that stops early builds no later level. Without zeros it
        yields no shell."""
        if self.residues:
            (a, b), (c, d) = self.M
            shell = self.zs.residues
            for _ in range(J):
                shell = [(a * x + c * y, b * x + d * y) for x, y in shell]
                yield shell

    def window(self, J: int, R: int) -> list[IntVector]:
        """The distinct nonzero vectors q*(M^{T j} z + v), for the mask
        zeros z, 1 <= j <= J and integer offsets v of max-norm at most R,
        that lie in the Fourier zero set; in shell, residue and offset
        order, the offsets in lexicographic order. A candidate at offset 0
        is kept without a walk: q*M^{T j} z is a zero image, whose integral
        iterates reach the nonzero residue q*z, so its walk ends at a level
        of at most j."""
        if not self.walkable:
            return []
        q = self.q
        box = [(q * i, q * k) for i in range(-R, R + 1) for k in range(-R, R + 1)]
        candidates: list[IntVector] = []
        seen: set[IntVector] = set()
        for shell in self.shells(J):
            for x, y in shell:
                for ox, oy in box:
                    cand = (x + ox, y + oy)
                    if cand in seen or cand == (0, 0):
                        continue
                    seen.add(cand)
                    if not (ox or oy) or self.membership(cand, q) is not None:
                        candidates.append(cand)
        return candidates

    def membership(self, N: IntVector, Q: int) -> Optional[int]:
        """Least j >= 1 with M^{-T j}(N/Q) in the mask zeros mod Z^n, or None.

        N is an integer vector of the map's dimension and Q > 0; N/Q need
        not be in lowest terms. The zero set lies on the (1/q)-grid and M^T
        maps that grid into itself, so an iterate off the grid has no
        successor on it: the walk runs on u = q*M^{-T j}(N/Q) and stops with
        None at the first step whose division by |det M| is not exact. The
        integer iterates of the contraction M^{-T} that stay on the lattice
        reach 0, which stays 0 and is never a residue, so the walk also
        stops with None at u = 0.
        """
        if not self.walkable:
            return None
        (a, b), (c, d) = self.adjT
        absdet = self.absdet
        q = self.q
        residues = self.residues
        x, y = N
        if q * x % Q or q * y % Q:
            return None
        x, y = q * x // Q, q * y // Q
        for j in itertools.count(1):
            x, y = a * x + b * y, c * x + d * y
            if x % absdet or y % absdet:
                return None
            x, y = x // absdet, y // absdet
            if (x % q, y % q) in residues:
                return j
            if not (x or y):
                return None

    def orthogonality_graph(
        self, vertices: Sequence[IntVector], den: Optional[int] = None
    ) -> list[int]:
        """Adjacency bitmasks of the relation "(a - b)/den is in the Fourier
        zero set" on distinct integer vectors a, b; den, q when None, is a
        positive multiple of q, so the vertices are points of the
        (1/den)-grid scaled by den.

        (a - b)/den is in the zero set iff for some j >= 1, a = b mod
        M^{T j} Z^n and M^{-T j}(a - b) mod den is a residue scaled by
        den/q. Level by level, every vertex a carries an integer t with
        a = c + M^{T j} t, c constant on its class of a mod M^{T j} Z^n:
        the next level splits a class by adjT*t mod |det M| and takes
        t <- adjT*t // |det M|, so two members of one class have
        M^{-T j}(a - b) = t_a - t_b, and a dict on t mod den joins each
        member with those differing from it by a scaled residue (the
        residues are closed under negation, so the relation is symmetric).
        A class with one member is dropped. Since M is expanding (certified
        exactly by is_expanding in walkable), the powers of M^{-T} tend
        to 0, so the intersection of the lattices M^{T j} Z^n is {0}: two
        distinct vertices share a class at finitely many levels only, and
        the loop ends once every class is a singleton.
        """
        if len(set(vertices)) != len(vertices):
            raise ValueError("orthogonality graph vertices must be distinct")
        adj = [0] * len(vertices)
        if not self.walkable:
            return adj
        (a, b), (c, d) = self.adjT
        absdet = self.absdet
        if den is None:
            den = self.q
        if den < 1 or den % self.q:
            raise ValueError("graph denominator must be a positive multiple of q")
        s = den // self.q
        residues = [(s * rx, s * ry) for rx, ry in self.zs.residues]
        t = list(vertices)
        classes = [list(range(len(vertices)))]
        while classes:
            refined: list[list[int]] = []
            for members in classes:
                parts: dict[IntVector, list[int]] = {}
                for i in members:
                    x, y = t[i]
                    x, y = a * x + b * y, c * x + d * y
                    parts.setdefault((x % absdet, y % absdet), []).append(i)
                    t[i] = (x // absdet, y // absdet)
                refined += [part for part in parts.values() if len(part) > 1]
            for part in refined:
                groups: dict[IntVector, list[int]] = {}
                for i in part:
                    x, y = t[i]
                    groups.setdefault((x % den, y % den), []).append(i)
                masks = {g: sum(1 << i for i in grp) for g, grp in groups.items()}
                for (x, y), grp in groups.items():
                    hit = 0
                    for rx, ry in residues:
                        hit |= masks.get(((x - rx) % den, (y - ry) % den), 0)
                    if hit:
                        for i in grp:
                            adj[i] |= hit
            classes = refined
        return adj

