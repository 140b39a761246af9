"""Numerical Fourier transform, attractor sampling, and the Q scan.

The Fourier transform of the self-affine measure is the infinite product
of mask values along inverse-transpose iterates of the frequency; it is
evaluated here as a truncated product in floating point. The attractor is
sampled either by enumerating truncated digit expansions or by a seeded
chaos game; both come with an explicit contraction-based accuracy bound.
These feed the completeness scan: a candidate spectrum is complete iff
the quadratic frame sum Q of squared transform moduli is identically one,
which the scan probes on a grid around the origin.

Everything in this module is corroborative floating-point numerics; the
exact verdicts live in the zeros, hadamard, and ortho modules.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

# only the two array paths import numpy, so exact commands never load it
if TYPE_CHECKING:
    import numpy as np

from .errors import HypothesisViolation, WrongDimension
from .linalg import (
    IntVector,
    Matrix,
    as_matrix,
    det_and_adjugate,
    mat_mul,
    mat_vec,
    power_norms,
    transpose,
)
from .zeros import (
    DigitSystem,
    RationalPoint,
    as_rational_point,
    lattice_form,
    mask_eval,
    require_expanding,
)


def _rational_points(rows: Sequence[Sequence], n: int, noun: str) -> tuple[RationalPoint, ...]:
    """The rows as distinct rational points of the map's dimension n; noun
    names them in the refusal of another dimension."""
    out = tuple(as_rational_point(row) for row in rows)
    if not out:
        raise ValueError("point list must be nonempty")
    for row in out:
        if len(row) != len(out[0]):
            raise WrongDimension("points must share one dimension")
    if len(set(out)) != len(out):
        raise ValueError("points must be distinct")
    if len(out[0]) != n:
        raise WrongDimension(f"{noun} dimension does not match the map")
    return out


def _pairwise_sum(vals: Sequence[float]) -> float:
    """Sum in a balanced order fixed by len(vals) alone, so that every Q
    value is reproducible bit for bit."""
    k = len(vals)
    if k == 1:
        return float(vals[0])
    mid = k // 2
    return _pairwise_sum(vals[:mid]) + _pairwise_sum(vals[mid:])


def _tail_bound(
    adj: Matrix, absdet: int, digits: Sequence[RationalPoint], k: int
) -> Fraction:
    """Bound on the distance from k-term truncated sums to the attractor.

    M^{-1} = adj / det M, so its powers have the norms of adj / |det M|.
    With K the first inverse power whose sup norm theta drops below one
    (it exists because M is expanding), the norm tail X past level k
    satisfies X <= S0 + theta * X for the exact K-term partial sum S0
    starting at k + 1, so X <= S0/(1 - theta) and the point error is that
    times the largest digit coordinate.
    """
    dmax = max(max(abs(c) for c in d) for d in digits)
    if dmax == 0:
        return Fraction(0)
    K, theta = next(
        (j, Fraction(num, den))
        for j, (num, den) in enumerate(power_norms(adj, absdet), 1)
        if num < den
    )
    S0 = sum(
        Fraction(num, den)
        for num, den in itertools.islice(power_norms(adj, absdet), k, k + K)
    )
    return dmax * S0 / (1 - theta)


class AttractorSample(NamedTuple):
    """Point cloud near the attractor of the inverse-map digit system.

    Every sampled point lies within eps of the attractor; for the full
    digit-expansion mode the cloud also covers the attractor to within
    eps, so eps bounds the Hausdorff distance. The chaos-game cloud only
    covers it in the long-run statistical sense.
    """

    points: tuple[tuple[float, ...], ...]
    eps: float
    mode: str
    detail: int


def _level_terms(
    scale: int, A: Matrix, pts: Sequence[RationalPoint], k: int
) -> tuple[int, list[list[IntVector]]]:
    """Integer numerators of the k-level expansions sum_j (A/scale)^j p_j,
    j = 1..k, p_j among the points: attractor points under (det M, adj M),
    whose A/scale is M^{-1}, and spectrum candidates under (1, M^T).

    With q the points' common denominator, such a sum is the integer
    vector sum_j scale^{k-j} A^j (q p_j) over den = q |scale|^k; the sign
    of scale^k moves into the numerators, so they sort like the points and
    divide once, correctly rounded. Returns den and, for each level j, the
    terms scale^{k-j} A^j (q p) in point order.
    """
    if k < 1:
        raise ValueError("expansion length must be positive")
    q, scaled = lattice_form(pts)
    sign = -1 if scale**k < 0 else 1
    den = q * abs(scale) ** k
    levels = []
    power = A
    for j in range(1, k + 1):
        c = sign * scale ** (k - j)
        levels.append([tuple(c * x for x in mat_vec(power, p)) for p in scaled])
        power = mat_mul(power, A)
    return den, levels


def attractor_sample(
    M: Matrix,
    digits: Sequence[Sequence],
    mode: str = "digit_expansion",
    k: int = 8,
    N: int = 2000,
    seed: Optional[int] = None,
    burn_in: int = 50,
) -> AttractorSample:
    """Sample the attractor of x -> M^{-1}(x + d) over the given digits.

    digit_expansion enumerates all k-term truncated expansions exactly and
    rounds once at the end. chaos_game iterates randomly chosen digit maps
    from the origin; the seed is mandatory so runs are reproducible. Digit
    coordinates may be rational.
    """
    M = as_matrix(M)
    require_expanding(M)
    pts = _rational_points(digits, len(M), "digit")
    det_m, adj = det_and_adjugate(M)

    if mode == "digit_expansion":
        den, levels = _level_terms(det_m, adj, pts, k)
        if len(M) == 2:
            sums: set[IntVector] = {(0, 0)}
            for terms in levels:
                sums = {(x + a, y + b) for x, y in sums for a, b in terms}
            cloud = tuple((x / den, y / den) for x, y in sorted(sums))
        else:
            sums = {(0,) * len(M)}
            for terms in levels:
                sums = {tuple(map(add, base, term)) for base in sums for term in terms}
            cloud = tuple(tuple(c / den for c in p) for p in sorted(sums))
        eps = _tail_bound(adj, abs(det_m), pts, k)
        return AttractorSample(
            points=cloud, eps=float(eps), mode=mode, detail=k
        )

    if mode == "chaos_game":
        if seed is None:
            raise ValueError("chaos_game requires a seed")
        if N < 1:
            raise ValueError("sample count must be positive")
        rng = random.Random(seed)
        Mf = tuple(tuple(x / det_m for x in row) for row in adj)
        df = [tuple(float(c) for c in d) for d in pts]
        x = (0.0,) * len(M)
        out = []
        if len(M) == 2:
            # the step below unpacked on a pair, in _dot's order, whose
            # 0.0 + turns a -0.0 into 0.0
            (a, b), (c, e) = Mf
            u, v = x
            for t in range(burn_in + N):
                du, dv = df[rng.randrange(len(df))]
                du, dv = u + du, v + dv
                u, v = 0.0 + a * du + b * dv, 0.0 + c * du + e * dv
                if t >= burn_in:
                    out.append((u, v))
        else:
            for t in range(burn_in + N):
                d = df[rng.randrange(len(df))]
                y = [a + b for a, b in zip(x, d)]
                x = tuple([_dot(row, y) for row in Mf])
                if t >= burn_in:
                    out.append(x)
        eps = _tail_bound(adj, abs(det_m), pts, burn_in)
        return AttractorSample(
            points=tuple(out), eps=float(eps), mode=mode, detail=N
        )

    raise ValueError("mode must be 'digit_expansion' or 'chaos_game'")


class _MuHat:
    """Truncated-product evaluator with precomputed float inverse, for a
    system whose expanding gate has passed."""

    def __init__(self, system: DigitSystem, depth: int):
        if depth < 1:
            raise ValueError("product depth must be positive")
        system.expanding
        self.minvT = tuple(tuple(x / system.absdet for x in row) for row in system.adjT)
        self.D = system.D
        self.depth = depth

    def value(self, xi: Sequence) -> complex:
        """The truncated product at xi. A frequency too large for the
        float steps, whose conversion or phases overflow, is refused with
        one OverflowError; the check wraps the product, not each step."""
        try:
            prod = self._product(xi)
        except (OverflowError, ValueError):
            pass  # float() of a huge coordinate, or cmath.exp of an infinite phase
        else:
            if cmath.isfinite(prod):
                return prod
        shown = ", ".join(map(str, xi))
        raise OverflowError(f"frequency ({shown}) is too large for the float product")

    def _product(self, xi: Sequence) -> complex:
        y = tuple(float(c) for c in xi)
        prod = complex(1.0)
        if len(y) == len(self.D[0]) == len(self.minvT) == 2:
            # the steps below unpacked on a pair, in their float order
            (a, b), (c, e) = self.minvT
            u, v = y
            digits = [(float(d0), float(d1)) for d0, d1 in self.D]
            tau_j = 2j * math.pi
            for _ in range(self.depth):
                u, v = 0.0 + a * u + b * v, 0.0 + c * u + e * v
                total = 0j
                for d0, d1 in digits:
                    total += cmath.exp(tau_j * (0.0 + d0 * u + d1 * v))
                prod *= total / len(digits)
                if abs(prod) < 1e-300:
                    return 0j
            return prod
        # mat_vec's refusal, in its words; its builtin sum is not used
        if len(y) != len(self.minvT):
            raise WrongDimension("matrix-vector dimension mismatch")
        for _ in range(self.depth):
            y = [_dot(row, y) for row in self.minvT]
            prod *= mask_eval(self.D, y)
            if abs(prod) < 1e-300:
                return 0j
        return prod

    def values(self, Y: np.ndarray) -> list[complex]:
        """value() at every row of Y, one product level for all rows at once.

        Each step repeats the scalar path's IEEE operations in its order on
        separate float64 real and imaginary arrays: the mat-vec and the
        phases as 0.0 + a0*y0 + a1*y1 + ..., the mask as cos and sin of
        (2*pi)*phase summed over the digits and divided by len(D), the
        product as (ar*br - ai*bi, ar*bi + ai*br), and the 1e-300 cutoff
        on the hypot of the product. numpy's complex multiply, divide and
        abs are not used, since they may round differently from Python's.
        So every entry equals value() bit for bit. mu_hat_numeric keeps
        the scalar path, whose planar step unpacks the same operations on
        a pair of floats: for a single point the array path is many times
        slower.
        """
        import numpy as np
        ys = [Y[:, i] for i in range(Y.shape[1])]
        re = np.ones(len(Y))
        im = np.zeros(len(Y))
        two_pi = 2 * math.pi
        for _ in range(self.depth):
            ys = [_dot(row, ys) for row in self.minvT]
            mr = mi = 0.0
            for d in self.D:
                th = two_pi * _dot(d, ys)
                mr = mr + np.cos(th)
                mi = mi + np.sin(th)
            mr = mr / len(self.D)
            mi = mi / len(self.D)
            re, im = re * mr - im * mi, re * mi + im * mr
            dead = np.hypot(re, im) < 1e-300
            re[dead] = 0.0
            im[dead] = 0.0
        return [complex(r, i) for r, i in zip(re.tolist(), im.tolist())]


def _dot(coeffs: Sequence, ys: Sequence) -> float | np.ndarray:
    """0.0 + c0*y0 + c1*y1 + ..., on floats or arrays: the order in which
    the builtin sum adds floats up to Python 3.11. From 3.12 it
    compensates, which can move the last bit of a sum of three or more
    terms, so no float path sums with it."""
    acc = 0.0
    for c, y in zip(coeffs, ys):
        acc = acc + c * y
    return acc


# product depth of mu_hat_numeric and completeness_scan when none is given
DEFAULT_DEPTH = 40


def mu_hat_numeric(system: DigitSystem, xi: Sequence, depth: int = DEFAULT_DEPTH) -> complex:
    """Truncated product of mask values along inverse-transpose iterates.

    Since the map is expanding, the iterates decay geometrically and the
    mask values approach one at the same rate, so the truncation error
    decays geometrically in depth; depth doubling is the practical
    convergence check.
    """
    return _MuHat(system, depth).value(xi)


class SpectrumCandidate(NamedTuple):
    """Level-wise sum construction of candidate spectrum frequencies.

    frequencies holds every sum of transpose-power images of the base
    points, one per level. orthogonal reports the exact pairwise check
    against the measure's Fourier zero set; failing_pair is a witness
    when it fails.
    """

    base: tuple[RationalPoint, ...]
    levels: int
    frequencies: tuple[RationalPoint, ...]
    orthogonal: bool
    failing_pair: Optional[tuple[RationalPoint, RationalPoint]]


def spectrum_candidate(
    system: DigitSystem, base: Sequence[Sequence], levels: int = 1
) -> SpectrumCandidate:
    """Build the level-sum frequency family and verify orthogonality.

    The family at n levels is all sums over i = 1..n of the i-th
    transpose power applied to a base point. Distinctness of the sums is
    asserted, the orthogonality graph of DigitSystem decides exactly which
    differences lie in the Fourier zero set, and the first failing pair,
    if any, is reported.
    """
    n = system.n
    pts = _rational_points(base, n, "base")
    zero = (Fraction(0),) * n
    if zero not in pts:
        raise ValueError("base must contain the zero vector")
    if levels < 1:
        raise ValueError("level count must be positive")
    system.walkable  # the gate's refusals come before the level sums

    # the level sums run on the integer vectors Q*x, Q the base points'
    # common denominator; one positive denominator keeps the sort order of
    # the rational points, and the family goes to the graph over Q
    Q, terms_by_level = _level_terms(1, transpose(system.M), pts, levels)
    sums: set[IntVector] = {(0,) * n}
    for terms in terms_by_level:
        sums = {tuple(map(add, f, t)) for f in sums for t in terms}
    if len(sums) != len(pts) ** levels:
        raise ValueError("level sums must be distinct")
    ordered = sorted(sums)

    failing = system.first_unjoined_pair(ordered, Q)
    freqs = tuple(tuple(Fraction(c, Q) for c in f) for f in ordered)
    return SpectrumCandidate(
        base=pts,
        levels=levels,
        frequencies=freqs,
        orthogonal=failing is None,
        failing_pair=None if failing is None else tuple(freqs[i] for i in failing),
    )


class EtaSuggestion(NamedTuple):
    """Scan radius derived from attractor-to-mask-zero separation.

    distance is the smallest Euclidean distance between a k-term digit
    expansion of the base (a point of the digit_expansion cloud) and the
    integer-periodized mask zeros; sampling_error bounds how far those
    expansions sit from the true attractor; eta is half the safely
    deflated distance.
    """

    eta: float
    distance: float
    sampling_error: float


def _leaf_square(
    N: IntVector, den: int, zeros: Sequence[tuple[float, ...]]
) -> float:
    """Squared distance from the expansion point N / den to the nearest
    translate z + k of a zero z, k an integer vector.

    The square is one term per coordinate, added left to right from 0.0,
    and float rounding is monotone. So a coordinate's smallest term over
    all integer shifts s is at s = floor(p - z) or one above, floor taken
    exactly. The rounded p - z has that floor, or it has rounded up to the
    integer one above, which is then the nearer shift; either way the
    smallest term is at f or f + 1, f the floor of the rounded p - z.
    """
    p = [c / den for c in N]
    best = math.inf
    for z in zeros:
        acc = 0.0
        for x, zc in zip(p, z):
            f = math.floor(x - zc)
            acc = acc + min((x - (zc + s)) * (x - (zc + s)) for s in (f, f + 1))
        best = min(best, acc)
    return best


def _box_square(
    lo: Sequence[float], width: Sequence[float], z: tuple[float, ...]
) -> float:
    """Squared distance from the box lo + [0, width] to the translates
    z + Z^n of one zero, coordinate by coordinate."""
    acc = 0.0
    for a0, w, zc in zip(lo, width, z):
        a = (a0 - zc) % 1.0
        gap = min(a, 1.0 - a - w)
        if gap > 0.0:
            acc += gap * gap
    return acc


def _nearest_leaf_square(
    den: int, levels: Sequence[Sequence[IntVector]], zeros: Sequence[tuple[float, ...]]
) -> float:
    """The smallest _leaf_square over every leaf N = sum of one term per
    level, by a depth-first branch and bound over the digit tree.

    Every leaf below a node at depth L lies in the integer box
    N_L + [low_L, high_L], with low_L and high_L the sums over the deeper
    levels of each coordinate's smallest and largest term. A zero is
    dropped from a subtree, and a subtree with no zero left is skipped,
    only when the box's squared distance to the zero's translates exceeds
    the best leaf so far by more than slack. The slack bounds the float
    error of both the box distance and any leaf's _leaf_square (each a few
    units in the last place of the cloud's extent), so a dropped zero is
    farther from every leaf below than the minimum, and the minimum is the
    one over all leaves and zeros, bit for bit.
    """
    n = len(zeros[0])
    low, high = [(0,) * n], [(0,) * n]
    for terms in reversed(levels):
        columns = list(zip(*terms))
        low.append(tuple(a + min(c) for a, c in zip(low[-1], columns)))
        high.append(tuple(b + max(c) for b, c in zip(high[-1], columns)))
    low.reverse()
    high.reverse()
    slack = 1e-12 * n * (1 + max(map(abs, low[0] + high[0])) / den)
    best = math.inf
    # (box bound, depth, partial numerator, zeros still near the box)
    stack = [(0.0, 0, (0,) * n, zeros)]
    while stack:
        bound, depth, N, near = stack.pop()
        if bound > best + slack:
            continue
        if depth + 1 == len(levels):
            for term in levels[depth]:
                best = min(best, _leaf_square(tuple(map(add, N, term)), den, near))
            continue
        below, above = low[depth + 1], high[depth + 1]
        width = [(b - a) / den for a, b in zip(below, above)]
        children = []
        for term in levels[depth]:
            child = tuple(map(add, N, term))
            lo = [(c + a) / den for c, a in zip(child, below)]
            squares = [_box_square(lo, width, z) for z in near]
            kept = [z for z, sq in zip(near, squares) if sq <= best + slack]
            children.append((min(squares), depth + 1, child, kept))
        # nearest child on top, so a good leaf is found first
        children.sort(key=lambda c: c[0], reverse=True)
        stack += children
    return best


def suggest_eta(
    system: DigitSystem, base: Sequence[Sequence], k: int = 8
) -> EtaSuggestion:
    """Scan radius from the distance between the base's attractor and the
    mask zeros of D.

    distance is the exact minimum, over all |base|^k k-term digit
    expansions of the base (the points of attractor_sample's
    digit_expansion cloud), of the Euclidean distance to a translate
    z + Z^n of a mask zero, as one float: each point is rounded once from
    its integer numerator, each coordinate's squared gap is added left to
    right, and one sqrt is taken of the smallest sum. The expansions are
    not enumerated: a branch and bound over the digit tree skips every
    subtree whose bounding box lies farther from all zero translates than
    the best expansion so far, beyond a slack that covers float rounding,
    so no skipped expansion could have been the minimum. eta is
    (distance - sampling_error) / 2, sampling_error the tail bound of the
    truncated expansions; a nonpositive eta is refused. DigitSystem.walkable
    raises its refusals first, and a mask with no zeros is refused.
    """
    if not system.walkable:
        raise HypothesisViolation("mask has no zeros; any radius works")
    zs = system.zs
    pts = _rational_points(base, system.n, "base")
    det_m, adj = det_and_adjugate(system.M)
    den, levels = _level_terms(det_m, adj, pts, k)
    # int true division is correctly rounded, as float(Fraction) is
    zeros = [tuple([c / zs.q for c in r]) for r in zs.residues]
    # sqrt is monotone and correctly rounded, so one sqrt of the smallest
    # square is the smallest distance
    dist = math.sqrt(_nearest_leaf_square(den, levels, zeros))
    eps = float(_tail_bound(adj, abs(det_m), pts, k))
    eta = (dist - eps) / 2
    if eta <= 0:
        raise HypothesisViolation(
            "sampled attractor is not separated from the mask zeros"
        )
    return EtaSuggestion(eta=eta, distance=dist, sampling_error=eps)


class QScanResult(NamedTuple):
    """Grid of quadratic frame sums for a candidate frequency family.

    values is row-major over the Cartesian grid of axis coordinates, which
    is centered at the origin. For
    an exactly orthogonal family every value is at most one up to float
    slack; a minimum staying near one as levels and depth grow supports
    completeness of the family.
    """

    eta: float
    resolution: int
    depth: int
    axis: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    min_q: float
    max_q: float


_BATCH = 1 << 16


def completeness_scan(
    system: DigitSystem,
    candidate: SpectrumCandidate,
    eta: float,
    resolution: int = 11,
    depth: int = DEFAULT_DEPTH,
) -> QScanResult:
    """Evaluate the frame sum Q over the origin-centered eta grid.

    Q at a grid point is the sum over candidate frequencies of the
    squared transform modulus at point + frequency. Accumulation uses a
    fixed balanced summation order, so every Q value is reproducible bit
    for bit.
    """
    import numpy as np
    if eta <= 0:
        raise ValueError("scan radius must be positive")
    if not math.isfinite(2 * eta):
        # the axis -eta + 2 eta i / (resolution - 1) would hold NaN
        raise ValueError("scan radius must give a finite grid")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    n = system.n
    engine = _MuHat(system, depth)
    freqs = np.array([[float(c) for c in f] for f in candidate.frequencies])
    nf = len(freqs)
    axis = tuple(
        -eta + 2 * eta * i / (resolution - 1) for i in range(resolution)
    )
    grid = np.array(list(itertools.product(axis, repeat=n)))
    # blocks of grid points bound the arrays at about _BATCH rows
    step = max(1, _BATCH // nf)
    flat: list[float] = []
    for start in range(0, len(grid), step):
        block = grid[start : start + step]
        Y = (block[:, None, :] + freqs[None, :, :]).reshape(-1, n)
        sq = [abs(v) ** 2 for v in engine.values(Y)]
        flat += [_pairwise_sum(sq[i * nf : (i + 1) * nf]) for i in range(len(block))]

    rows = tuple(
        tuple(flat[i * resolution : (i + 1) * resolution])
        for i in range(len(flat) // resolution)
    )
    min_q = min(flat)
    max_q = max(flat)
    if candidate.orthogonal and not max_q <= 1 + 1e-9:
        raise AssertionError("frame sum exceeded the orthogonality bound")
    return QScanResult(
        eta=float(eta),
        resolution=resolution,
        depth=depth,
        axis=axis,
        values=rows,
        min_q=min_q,
        max_q=max_q,
    )
