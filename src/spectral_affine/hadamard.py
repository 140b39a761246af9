"""Hadamard triple verification and spectrum-set search.

A triple (M, D, S) is verified by testing, for every pair of distinct
frequencies s, s' in S, that the mask of D vanishes exactly at
M^{-T}(s - s'). The search for S enumerates subsets of the Hermite box of
Z^n / M^T Z^n (linalg.coset_transversal: 0 <= x_i < H[i][i], H the
lower-triangular basis of M^T Z^n), which is complete because a valid S
can always be translated to contain 0 and reduced coset-wise without
changing any of the vanishing conditions. When the zero set is complete,
the candidates come from the listed zeros: the classes of M^T rho / q for
the residues rho, each moved into the box, with no box enumerated.
Otherwise (an incomplete zero set, or a singular digit frame, whose zeros
fill lines) every class is enumerated and tested. Moving a dual set across
a GL_n(p) similarity is conjugacy.Conjugacy.transport, which verifies
with verify_triple on both sides.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import WrongDimension
from .linalg import (
    coset_representatives,
    coset_transversal,
    mat_vec,
    sign_canonical,
    transpose,
)
from .zeros import DigitSystem

FrequencySet = tuple[tuple[int, ...], ...]


def unitarity_defect(system: DigitSystem, S: FrequencySet) -> float:
    """Max-norm distance of the normalized exponential matrix from unitarity.

    Entry (d, s) is exp(2 pi i <d, M^{-T} s>). The phase is the integer
    sign(det M) <d, adj(M)^T s> reduced mod |det M|, over |det M|, so it
    becomes a float only once it lies in [0, 1) and the defect keeps its
    precision however large s is.
    """
    system.invertible  # refuses a singular M
    absdet = system.absdet
    rows = []
    for s in S:
        v = mat_vec(system.adjT, s)
        rows.append([
            cmath.exp(2j * math.pi * (sum(map(mul, d, v)) % absdet / absdet))
            for d in system.D
        ])
    return max(
        abs(sum(x.conjugate() * y for x, y in zip(a, b)) / len(S) - (i == j))
        for i, a in enumerate(rows)
        for j, b in enumerate(rows)
    )


def verify_triple(system: DigitSystem, S: Sequence[Sequence[int]]) -> bool:
    """Exact Hadamard-triple check, cross-validated numerically.

    Returns True iff every pairwise frequency difference lands in the mask
    zero set after applying M^{-T}, by DigitSystem.cyclotomic_zero on the
    integer vector adjT (s - s') over |det M|. That test reads no zero set,
    so the check stays independent of the search it re-checks. When the
    exact answer is affirmative, the Gram matrix of the associated
    exponential system is additionally required to be unitary to within
    1e-9, as a guard against bookkeeping errors between the two routes.
    """
    D = system.D
    S = tuple(tuple(int(x) for x in s) for s in S)
    if len(S) != len(D):
        raise WrongDimension("frequency set size must match digit set size")
    if len(set(S)) != len(S):
        raise WrongDimension("frequency set entries must be distinct")
    for s in S:
        if len(s) != len(D[0]):
            raise WrongDimension("frequency dimension does not match digits")
    system.invertible  # refuses a singular M
    ok = all(
        system.cyclotomic_zero(mat_vec(system.adjT, [a - b for a, b in zip(s, t)]))
        for s, t in combinations(S, 2)
    )
    if ok:
        defect = unitarity_defect(system, S)
        if not defect < 1e-9:
            raise AssertionError(
                f"exact check passed but numeric unitarity defect is {defect}"
            )
    return ok


class HadamardSearch(NamedTuple):
    """Outcome of a spectrum-set search over a coset transversal.

    status is one of "found", "none", "undetermined"; search_space is the
    nominal number of candidate subsets before pruning; examined counts the
    subsets actually tested before stopping.
    """

    status: str
    S: Optional[FrequencySet]
    search_space: int
    examined: int


def find_spectrum_set(system: DigitSystem, budget: int = 10_000_000) -> HadamardSearch:
    """Deterministic search for a frequency set making (M, D, S) Hadamard.

    Candidates are (|D|-1)-subsets of the nonzero points of the Hermite
    box of M^T, always together with 0, enumerated in lexicographic order
    of the points; a dual set found has entries in [0, H[i][i]). Points
    that fail the vanishing condition against 0 are pruned first; this
    loses no solutions because every member of a valid S containing 0 must
    satisfy it. With a complete zero set the survivors are read off the
    listed zeros: the class of r vanishes iff it holds M^T rho / q for a
    residue rho, so only those classes are moved into the box, by
    coset_representatives, in O(|zeros|) rather than O(|det M|). An
    incomplete zero set proves no non-vanishing, and a singular digit
    frame has no finite zero set to list, so there every point of
    coset_transversal takes the cyclotomic test. Exceeding the budget
    yields status "undetermined" rather than a guess.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    system.invertible  # refuses a singular M
    k = len(system.D) - 1
    nreps = system.absdet
    search_space = math.comb(max(0, nreps - 1), k)
    zero = (0,) * system.n
    if k == 0:
        return HadamardSearch("found", (zero,), search_space, 0)
    if nreps - 1 < k:
        return HadamardSearch("none", None, search_space, 0)

    Mt = transpose(system.M)
    vanishes = system.vanishes
    if system.listed:
        # M^{-T} r is a listed zero rho / q mod Z^n iff r is in the class
        # of M^T rho / q mod M^T Z^n, which needs q | M^T rho; distinct
        # residues give distinct classes, and 0, where the mask is 1, is
        # no residue, so the zero class is not among them
        q = system.q
        images = [[sum(map(mul, row, rho)) for row in Mt] for rho in system.zs.residues]
        filtered = coset_representatives(
            Mt, [[c // q for c in v] for v in images if not any(c % q for c in v)]
        )
    else:
        filtered = [r for r in coset_transversal(Mt) if any(r) and vanishes(r)]

    pair_cache: dict[tuple[int, ...], bool] = {}

    def pair_ok(a: Sequence[int], b: Sequence[int]) -> bool:
        diff = sign_canonical(tuple(x - y for x, y in zip(a, b)))
        hit = pair_cache.get(diff)
        if hit is None:
            hit = pair_cache[diff] = vanishes(diff)
        return hit

    examined = 0
    for subset in combinations(filtered, k):
        if examined >= budget:
            return HadamardSearch("undetermined", None, search_space, examined)
        examined += 1
        if all(pair_ok(a, b) for a, b in combinations(subset, 2)):
            S = (zero, *subset)
            if not verify_triple(system, S):
                raise AssertionError("search result failed re-verification")
            return HadamardSearch("found", S, search_space, examined)
    return HadamardSearch("none", None, search_space, examined)
