"""Seeded workload generators.

Each generator returns the operations of one round: a list of Op, each a
single CLI command on one problem file plus the check its report must
pass. Rounds are drawn from random.Random(f"{workload}:{seed}:{round}"),
so the same seed gives the same inputs, and every (M, D) drawn in a run is
new. The paper's fixed instances (SKEW, 3I and 2I in `counting`, the swap
matrix in `numeric`) are the deliberate exceptions; they recur in every
round, and each round starts from a fresh import, so they stay cold too.

Checks use only the benchmark's own arithmetic in oracle.py and
properties the method must have; none compares against stored output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import oracle as o

D1 = ((0, 0), (1, 0), (0, 1))
D2 = ((0, 0), (1, 0), (0, 1), (-1, -1))
SKEW = ((3, 1), (1, 4))
SWAP = ((0, 10), (9, 0))
SWAP_D = ((0, 0), (1, 0), (2, 9))
SWAP_C = ((0, 0), (Fraction(1, 3), 0), (Fraction(2, 3), 0))

# the sizes of one round of each workload
CORPUS_THREE = 48  # three-digit pairs, half of them spectral
CORPUS_FOUR = 24  # antipodal four-digit pairs
# counting: transport-check on a quarter of the pairs, infinite-orthogonal
# on another; with the certificates nstar is two thirds of a round, and
# the 3I and 2I instances its slowest 4%
COUNTING_PAIRS = 16
COUNTING_CERTS = 7
NSTAR_J = 8
TRANSPORT_J = 4
NUMERIC_LEVELS = (2, 3, 4)
QSCAN_GRID = 5
QSCAN_DEPTH = 40
FOURIER_EVALS = 40
FOURIER_ZEROS = 8  # of which at M^T (z + k) for a mask zero z
FOURIER_DEPTH = 40
ATTRACTOR_SYSTEMS = 3
ATTRACTOR_K = 7
CHAOS_N = 3000

# bins of |det M|, cycled over the systems of a round so that every round
# carries the same mix of search sizes
DET_BINS = ((2, 6), (7, 12), (13, 20), (21, 30))


@dataclass
class Op:
    """One CLI command. `problem` is written during set-up; `build`, when
    given, makes the problem from earlier reports and may return None to
    skip the operation. `check(code, output)` returns whether the report
    is right; output is the parsed JSON report, or CSV rows for csv."""

    command: str
    check: Callable[[int, Any], bool]
    problem: Optional[dict] = None
    build: Optional[Callable[[], Optional[dict]]] = None
    fmt: str = "json"


def encode(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]
    if isinstance(x, (list, tuple)):
        return [encode(c) for c in x]
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    return x


def rat(x):
    return Fraction(x[0], x[1]) if isinstance(x, list) else Fraction(x)


def rat_points(rows):
    return tuple(tuple(rat(c) for c in row) for row in rows)


def int_matrix(rows):
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------- drawing


def grid_frame(D) -> bool:
    return abs(o.det2(o.frame(D))) == 1


def draw_matrix(rng, lo, hi, accept=lambda M: True, span=6):
    while True:
        M = (
            (rng.randint(-span, span), rng.randint(-span, span)),
            (rng.randint(-span, span), rng.randint(-span, span)),
        )
        if lo <= abs(o.det2(M)) <= hi and o.expanding(M) and accept(M):
            return M


def draw_digits(rng, four, p, on_grid):
    """A translate of {0, a, b} or {0, a, b, -a-b} with det[a|b] prime to p,
    unimodular exactly when on_grid (then the mask zeros lie in the
    punctured (1/p)-grid; otherwise there are 2 or 3 times |det| of them)."""
    while True:
        a = (rng.randint(-3, 3), rng.randint(-3, 3))
        b = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = a[0] * b[1] - a[1] * b[0]
        if f % p == 0 or (abs(f) == 1) != on_grid:
            continue
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
        base = [(0, 0), a, b] + ([(-a[0] - b[0], -a[1] - b[1])] if four else [])
        return tuple((x + c[0], y + c[1]) for x, y in base)


def draw_points(rng, count=3, span=3):
    while True:
        D = tuple((rng.randint(-span, span), rng.randint(-span, span)) for _ in range(count))
        if len(set(D)) == count:
            return D


def draw_witness(rng, p, unimodular):
    while True:
        B = (
            (rng.randint(-2, 2), rng.randint(-2, 2)),
            (rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        d = o.det2(B)
        if d % p and abs(d) <= (1 if unimodular else 2):
            return B


def conjugate_pair(rng, M, Dp, p, on_grid, max_det=120):
    """Draw (B, mode) and the conjugate system (A M B, D~), or None. With
    on_grid both sides keep their mask zeros on the (1/p)-grid."""
    B = draw_witness(rng, p, on_grid)
    A = o.inv_mod(B, p)
    mode = rng.choice("ab")
    if mode == "b":
        D, Dt = tuple(o.mat_vec(B, d) for d in Dp), Dp
    else:
        D, Dt = Dp, tuple(o.mat_vec(A, d) for d in Dp)
    Mt = o.mat_mul(o.mat_mul(A, M), B)
    if not o.expanding(Mt) or abs(o.det2(Mt)) > max_det:
        return None
    if on_grid and not (grid_frame(D) and grid_frame(Dt)):
        return None
    return dict(M=M, D=D, B=B, A=A, p=p, mode=mode, Mt=Mt, Dt=Dt)


# ---------------------------------------------------------------- checks


def dual_set_ok(M, D, S) -> bool:
    S = int_matrix(S)
    return len(S) == len(D) and len(set(S)) == len(S) and o.unitarity_defect(M, D, S) < 1e-9


def witness_ok(M, D, res) -> bool:
    """lower <= upper, and every witness difference vanishes numerically."""
    if res["upper"] is not None and res["lower"] > res["upper"]:
        return False
    fam = rat_points(res["witness"])
    if len(fam) != res["lower"] or not res["witness_verified"]:
        return False
    return all(
        o.orthogonal_float(M, D, (a[0] - b[0], a[1] - b[1])) for a, b in o.pairs(fam)
    )


def result(report):
    return report.get("result") if isinstance(report, dict) else None


# ---------------------------------------------------------------- corpus


def corpus(rng) -> list[Op]:
    """Slots cycle through the |det M| bins, spectral or not (three-digit),
    and unimodular or wider difference frames. Unimodular frames put the
    mask zeros on the punctured (1/p)-grid, the transport theorem's
    hypothesis; wider ones give 2 or 3 times |det| zeros instead of 2 or 3."""
    ops: list[Op] = []
    slots = [(False, i) for i in range(CORPUS_THREE)] + [(True, i) for i in range(CORPUS_FOUR)]
    rng.shuffle(slots)
    for four, i in slots:
        p = 2 if four else 3
        lo, hi = DET_BINS[i % len(DET_BINS)]
        on_grid = (i // len(DET_BINS)) % 2 == 0
        spectral = (i // (2 * len(DET_BINS))) % 2 == 0
        while True:
            Dp = draw_digits(rng, four, p, on_grid)
            M = draw_matrix(rng, lo, hi)
            pair = conjugate_pair(rng, M, Dp, p, on_grid)
            if pair is None:
                continue
            if not four and o.criterion_spectral(M, pair["D"]) != spectral:
                continue
            break
        ops += corpus_pair_ops(pair, four)
    return ops


def corpus_pair_ops(c, four) -> list[Op]:
    M, D, Mt, Dt, A, B, p = c["M"], c["D"], c["Mt"], c["Dt"], c["A"], c["B"], c["p"]
    seen: dict = {}
    ops = []
    if not four:
        spectral = o.criterion_spectral(M, D)

        def criterion_check(Mx, Dx):
            def check(code, rep):
                r = result(rep)
                F = o.frame(Dx)
                return (
                    code == 0
                    and r["verdict"] == ("Spectral" if spectral else "NonSpectral")
                    and o.criterion_spectral(Mx, Dx) == spectral
                    and int_matrix(r["B"]) == F
                    and int_matrix(r["A"]) == o.inv_mod(F, 3)
                )

            return check

        ops.append(Op("criterion-1-8", criterion_check(M, D), dict(M=M, D=D)))

    def classify_check(code, rep):
        r = result(rep)
        m1 = o.rows_agree_mod3(M)
        ok = code == 0 and r["m1_criterion"] == m1 and (r["class"] == "M1") == m1
        if four:
            return ok and r["theorem18"] is None
        return ok and r["theorem18"]["verdict"] == ("Spectral" if spectral else "NonSpectral")

    ops.append(Op("classify", classify_check, dict(M=M, D=D)))

    def find_check(Mx, Dx, side):
        def check(code, rep):
            r = result(rep)
            if code != 0 or r["status"] not in ("found", "none"):
                return False
            seen[side] = r
            if not four and (r["status"] == "found") != spectral:
                return False
            if side == "conjugate" and r["status"] != seen["original"]["status"]:
                return False
            return r["status"] == "none" or dual_set_ok(Mx, Dx, r["S"])

        return check

    ops.append(Op("find-hadamard", find_check(M, D, "original"), dict(M=M, D=D)))

    def conjugate_check(code, rep):
        r = result(rep)
        w = r["witness"]
        return (
            code == 0
            and int_matrix(r["M_conjugate"]) == Mt
            and int_matrix(r["D_conjugate"]) == Dt
            and int_matrix(w["A"]) == A
            and int_matrix(w["B"]) == B
        )

    ops.append(
        Op("conjugate", conjugate_check, dict(M=M, D=D, B=B, p=p, mode=c["mode"]))
    )
    if not four:
        ops.append(Op("criterion-1-8", criterion_check(Mt, Dt), dict(M=Mt, D=Dt)))
    ops.append(Op("find-hadamard", find_check(Mt, Dt, "conjugate"), dict(M=Mt, D=Dt)))

    def transported():
        # the transport theorem needs the mask zeros on both sides inside
        # the punctured (1/p)-grid, which for these families means
        # unimodular difference frames
        first = seen.get("original")
        if not first or first["status"] != "found" or not grid_frame(D) or not grid_frame(Dt):
            return None
        S = o.transport_forward(int_matrix(first["S"]), A, B)
        seen["moved"] = S
        return dict(M=Mt, D=Dt, S=S)

    def verify_check(code, rep):
        r = result(rep)
        return (
            code == 0
            and r["admissible_with_S"] is True
            and r["unitarity_defect"] < 1e-9
            and o.unitarity_defect(Mt, Dt, seen["moved"]) < 1e-9
        )

    ops.append(Op("verify-triple", verify_check, build=transported))
    return ops


# ---------------------------------------------------------------- counting


def counting(rng) -> list[Op]:
    ops: list[Op] = []
    for i in range(COUNTING_PAIRS):
        four = i % 2 == 1
        p = 2 if four else 3
        while True:
            Dp = draw_digits(rng, four, p, True)
            M = draw_matrix(rng, 2, 20, accept=lambda M: o.det2(M) % p != 0, span=5)
            pair = conjugate_pair(rng, M, Dp, p, True)
            if pair is not None:
                break
        ops += counting_pair_ops(pair, four, (i // 2) % 4)
    for i in range(COUNTING_CERTS):
        ops.append(certificate_op(rng, on_grid=i % 2 == 0))
    ops.append(nstar_op(SKEW, D1, 3, dict(J=8, R=0), exact=9))
    ops.append(nstar_op(((3, 0), (0, 3)), D2, 2, {}, exact=4))
    ops.append(nstar_op(((2, 0), (0, 2)), D1, 3, dict(J=8, R=2)))
    return ops


def nstar_op(M, D, p, window, exact=None, seen=None, key=None):
    def check(code, rep):
        r = result(rep)
        bounds = (r["lower"], r["upper"])
        if seen is not None:
            seen[key] = bounds
            if key == "conjugate" and seen.get("original") != bounds:
                return False
        if exact is not None and bounds != (exact, exact):
            return False
        return code == 0 and r["search_complete"] and witness_ok(M, D, r)

    return Op("nstar", check, dict(M=M, D=D, p=p, **window))


def counting_pair_ops(c, four, slot) -> list[Op]:
    M, D, Mt, Dt, A, B, p = c["M"], c["D"], c["Mt"], c["Dt"], c["A"], c["B"], c["p"]
    seen: dict = {}
    window = dict(J=NSTAR_J, R=0)
    nzeros = 3 if four else 2
    e = (p - 1) * (p * p - 1)

    def transport_check(code, rep):
        r = result(rep)
        return (
            code == 0
            and r["ok"] is True
            and r["c1"] == o.det2(A) * o.det2(B) * abs(o.det2(Mt)) ** e
            and r["c2"] == abs(o.det2(M)) ** e
            and r["c1"] % p == 1
            and r["c2"] % p == 1
            and r["forward_checks"] == TRANSPORT_J * nzeros
            and r["backward_checks"] == TRANSPORT_J * nzeros
            and int_matrix(r["M_conjugate"]) == Mt
        )

    def infinite_check(code, rep):
        # det M prime to p and zeros in the punctured (1/p)-grid: M^T
        # permutes that grid mod Z^2, so no zero ever reaches Z^2
        r = result(rep)
        return code == 0 and r["infinite"] is False and r["witness_level"] is None

    ops = [
        nstar_op(M, D, p, window, seen=seen, key="original"),
        nstar_op(Mt, Dt, p, window, seen=seen, key="conjugate"),
    ]
    if slot == 0:
        problem = dict(M=M, D=D, B=B, p=p, mode=c["mode"], J=TRANSPORT_J)
        ops.append(Op("transport-check", transport_check, problem))
    elif slot == 2:
        ops.append(Op("infinite-orthogonal", infinite_check, dict(M=M, D=D)))
    return ops


def certificate_level(M, D, max_j=64):
    """First j with (A M B)^{T j} (1, -1) in 3Z^2, A B the mod-3 frame pair."""
    B = o.frame(D)
    MtT = o.transpose(o.mat_mul(o.mat_mul(o.inv_mod(B, 3), M), B))
    w = (1, -1)
    for j in range(1, max_j + 1):
        w = o.mat_vec(MtT, w)
        if all(x % 3 == 0 for x in w):
            return j
    return None


def certificate_op(rng, on_grid) -> Op:
    """A non-spectral three-digit system whose certificate level is >= 2."""
    while True:
        D = draw_digits(rng, False, 3, on_grid)
        M = draw_matrix(rng, 3, 30, accept=lambda M: o.det2(M) % 3 == 0)
        j0 = certificate_level(M, D)
        if not o.criterion_spectral(M, D) and j0 is not None and j0 >= 2:
            break
    B = o.frame(D)
    L = abs(o.det2(o.inv_mod(B, 3)) * o.det2(B)) ** (j0 + 1)

    def check(code, rep):
        r = result(rep)
        T = o.transpose(M)
        P = ((1, 0), (0, 1))
        for _ in range(j0):
            P = o.mat_mul(T, P)
        return (
            code == 0
            and r["verdict"] == "NonSpectral"
            and r["suggested"] is True
            and (r["L"], r["j0"]) == (L, j0)
            and all(r["checks"].values())
            # the tail part, recomputed: L (M^T)^j0 is an integer matrix
            and all((L * x) % 1 == 0 for row in P for x in row)
        )

    return Op("nonspectral-cert", check, dict(M=M, D=D))


# ---------------------------------------------------------------- numeric


def swap_zeros():
    """Mask zeros of SWAP_D, found by the benchmark's own float mask on the
    (1/3, 1/9) grid and confirmed exactly by the vanishing-sum shape."""
    out = []
    for a in range(3):
        for b in range(9):
            z = (Fraction(a, 3), Fraction(b, 9))
            if abs(o.mask(SWAP_D, z)) < 1e-12:
                out.append(z)
    return out


def numeric(rng) -> list[Op]:
    minima: dict = {}
    # q-scans in level order: each scan's minimum is compared with the lower
    # levels
    heavy = [spectrum_op(rng, L) for L in NUMERIC_LEVELS]
    heavy += [qscan_op(L, minima) for L in NUMERIC_LEVELS]
    heavy += [attractor_op(rng) for _ in range(ATTRACTOR_SYSTEMS)] + [chaos_op(rng)]
    zeros = swap_zeros()
    evals = []
    for i in range(FOURIER_EVALS):
        if i < FOURIER_ZEROS:
            z = rng.choice(zeros)
            k = (rng.randint(-3, 3), rng.randint(-3, 3))
            xi = o.mat_vec(o.transpose(SWAP), (z[0] + k[0], z[1] + k[1]))
        else:
            xi = tuple(Fraction(rng.randint(-400, 400), rng.randint(1, 9)) for _ in range(2))
        evals.append(fourier_op(xi, at_zero=i < FOURIER_ZEROS))
    # the short fourier-evals set op_p50_ms; spread them between the long
    # operations so that they meet the host in many states, not one
    ops: list[Op] = []
    per = len(evals) // len(heavy)
    for j, op in enumerate(heavy):
        ops += evals[j * per : (j + 1) * per] + [op]
    return ops + evals[len(heavy) * per :]


def spectrum_op(rng, L) -> Op:
    expected = o.level_sums(SWAP, SWAP_C, L)
    ordered = sorted(expected)
    sample = [rng.choice(ordered[1:]) for _ in range(6)]

    def check(code, rep):
        r = result(rep)
        freqs = set(rat_points(r["frequencies"]))
        return (
            code == 0
            and r["orthogonal"] is True
            and r["failing_pair"] is None
            and r["count"] == 3**L
            and freqs == expected
            and all(
                o.orthogonal_float(SWAP, SWAP_D, (f[0] - ordered[0][0], f[1] - ordered[0][1]))
                for f in sample
            )
        )

    return Op("spectrum", check, dict(M=SWAP, D=SWAP_D, C=SWAP_C, levels=L))


def qscan_op(L, minima) -> Op:
    def check(code, rep):
        r = result(rep)
        minima[L] = r["min_q"]
        ok = (
            code == 0
            and r["eta_source"] == "computed"
            and r["eta"] > 0
            and r["orthogonal"] is True
            and r["max_q"] <= 1 + 1e-9  # Bessel's inequality
            and all(minima[m] <= r["min_q"] for m in minima if m < L)
        )
        if L == max(NUMERIC_LEVELS):
            ok = ok and r["min_q"] >= 0.90
        return ok

    problem = dict(M=SWAP, D=SWAP_D, C=SWAP_C, levels=L, grid=QSCAN_GRID, depth=QSCAN_DEPTH)
    return Op("q-scan", check, problem)


def fourier_op(xi, at_zero) -> Op:
    def check(code, rep):
        r = result(rep)
        got = complex(r["re"], r["im"])
        if at_zero:
            return code == 0 and abs(got) < 1e-9
        want = o.mu_hat(SWAP, SWAP_D, xi, FOURIER_DEPTH)
        # both sides are double-precision products of FOURIER_DEPTH factors
        return code == 0 and abs(got - want) < 1e-9

    return Op("fourier-eval", check, dict(M=SWAP, D=SWAP_D, xi=xi, depth=FOURIER_DEPTH))


def attractor_points(rows):
    if not rows or rows[0] != ["x", "y"]:
        return None
    return [tuple(float(c) for c in row) for row in rows[1:]]


def attractor_op(rng) -> Op:
    """Digit expansion with digits distinct mod M Z^2, so all 3^k sums differ."""
    while True:
        M = draw_matrix(rng, 3, 12, span=4)
        D = draw_points(rng)
        if not any(o.same_coset(M, a, b) for a, b in o.pairs(D)):
            break
    radius = float(o.attractor_radius(M, D, terms=ATTRACTOR_K))

    def check(code, rows):
        pts = attractor_points(rows)
        return (
            code == 0
            and pts is not None
            and len(pts) == 3**ATTRACTOR_K
            and len(set(pts)) == len(pts)
            and all(max(abs(c) for c in pt) <= radius + 1e-9 for pt in pts)
        )

    problem = dict(M=M, D=D, mode="digit_expansion", k=ATTRACTOR_K)
    return Op("attractor", check, problem, fmt="csv")


def chaos_op(rng) -> Op:
    M = draw_matrix(rng, 3, 12, span=4)
    D = draw_points(rng)
    radius = float(o.attractor_radius(M, D))

    def check(code, rows):
        pts = attractor_points(rows)
        return (
            code == 0
            and pts is not None
            and len(pts) == CHAOS_N
            and all(max(abs(c) for c in pt) <= radius + 1e-9 for pt in pts)
        )

    problem = dict(M=M, D=D, mode="chaos_game", N=CHAOS_N, seed=rng.randint(0, 2**31))
    return Op("attractor", check, problem, fmt="csv")


WORKLOADS = {"corpus": corpus, "counting": counting, "numeric": numeric}
