"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line with its wall time and enforces the
runtime cap it is allowed. A failure anywhere leaves the line unprinted,
so the pass/fail status of every guarantee is visible at a glance under
pytest -s.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

from spectral_affine import (
    DigitSystem,
    completeness_scan,
    det,
    euler_phi,
    find_spectrum_set,
    is_expanding,
    make_conjugate,
    nonspectral_certificate,
    nstar_bounds,
    order_mod,
    reduce_mod1,
    sierpinski_class,
    spectral_residue_criterion,
    spectrality_criterion,
    spectrum_candidate,
    suggest_certificate,
    suggest_eta,
    transport_inclusion_check,
    verify_triple,
    zero_set,
    zero_set_in_punctured_grid,
)
from spectral_affine.linalg import mat_mul, mat_vec

D1 = ((0, 0), (1, 0), (0, 1))
D2 = ((0, 0), (1, 0), (0, 1), (-1, -1))
STRETCH = ((0, 0), (1, 0), (0, 2))
SKEW = ((3, 1), (1, 4))
SWAP = ((0, 10), (9, 0))
SWAP_D = ((0, 0), (1, 0), (2, 9))
SWAP_C = ((0, 0), (Fraction(1, 3), 0), (Fraction(2, 3), 0))


def finish(number, started, cap_seconds):
    elapsed = time.perf_counter() - started
    assert elapsed < cap_seconds
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s)")


def test_acceptance_1_closed_form_zero_sets():
    t0 = time.perf_counter()
    zs = zero_set(D1)
    assert zs.complete
    assert set(zs.points) == {
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    }
    zs = zero_set(D2)
    assert zs.complete
    assert set(zs.points) == {
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    }
    zs = zero_set(SWAP_D)
    assert zs.complete
    expected = {
        (Fraction(x, 3), Fraction(k, 9)) for x in (1, 2) for k in range(9)
    }
    assert set(zs.points) == expected and len(zs.points) == 18
    finish(1, t0, 1.0)


def test_acceptance_2_residue_classification_matches_row_criterion():
    t0 = time.perf_counter()
    for a, b, c, d in product(range(3), repeat=4):
        M = ((a, b), (c, d))
        in_first_class = sierpinski_class(M) == "M1"
        assert spectral_residue_criterion(M) == in_first_class
    finish(2, t0, 1.0)


def test_acceptance_3_criterion_agrees_with_search_on_random_corpus():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    cases = []
    while len(cases) < 200:
        M = (
            (rng.randint(-6, 6), rng.randint(-6, 6)),
            (rng.randint(-6, 6), rng.randint(-6, 6)),
        )
        d = det(M)
        if d == 0 or abs(d) > 30:
            continue
        if not is_expanding(M):
            continue
        alpha = (rng.randint(-6, 6), rng.randint(-6, 6))
        beta = (rng.randint(-6, 6), rng.randint(-6, 6))
        if (alpha[0] * beta[1] - alpha[1] * beta[0]) % 3 == 0:
            continue
        cases.append((M, ((0, 0), alpha, beta)))
    for M, D in cases:
        verdict = spectrality_criterion(DigitSystem(M, D)).verdict
        search = find_spectrum_set(DigitSystem(M, D))
        assert search.status != "undetermined"
        assert (verdict == "Spectral") == (search.status == "found")
    finish(3, t0, 300.0)


def test_acceptance_4_nine_exponentials_reached_exactly_on_m2():
    t0 = time.perf_counter()
    res = nstar_bounds(DigitSystem(SKEW, D1), 3, J=8, R=0)
    assert res.lower == 9 and res.upper == 9
    assert len(res.witness) == 9
    assert res.method == "clique" and res.search_complete
    other = ((2, 0), (0, 2))
    assert sierpinski_class(other) == "Other" and det(other) % 3 != 0
    capped = nstar_bounds(DigitSystem(other, D1), 3)
    assert capped.upper is not None and capped.upper < 9
    assert capped.search_complete
    finish(4, t0, 120.0)


def test_acceptance_5_four_exponentials_for_odd_determinant():
    t0 = time.perf_counter()
    res = nstar_bounds(DigitSystem(((3, 0), (0, 3)), D2), 2)
    assert res.lower == 4 and res.upper == 4
    assert res.search_complete
    finish(5, t0, 60.0)


def _random_unimodular(rng):
    B = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            E = ((1, k), (0, 1))
        else:
            E = ((1, 0), (k, 1))
        B = mat_mul(B, E)
    if rng.random() < 0.5:
        B = (B[1], B[0])
    return B


def _random_expanding(rng, p):
    while True:
        M = (
            (rng.randint(-5, 5), rng.randint(-5, 5)),
            (rng.randint(-5, 5), rng.randint(-5, 5)),
        )
        d = det(M)
        if d == 0 or abs(d) > 20 or d % p == 0:
            continue
        if is_expanding(M):
            return M


def test_acceptance_6_conjugate_pairs_agree_on_all_verdicts():
    t0 = time.perf_counter()
    rng = random.Random(606060)
    pairs = []
    while len(pairs) < 50:
        p, D = rng.choice(((3, D1), (2, D2)))
        M = _random_expanding(rng, p)
        B = _random_unimodular(rng)
        mode = rng.choice(("a", "b"))
        if mode == "b":
            # divisibility: feed digits that B divides exactly
            D = tuple(mat_vec(B, d) for d in D)
        conj = make_conjugate(M, D, B, p, mode)
        Mt, Dt = conj.Mt, conj.Dt
        if not is_expanding(Mt):
            continue
        if not zero_set_in_punctured_grid(zero_set(Dt), p):
            continue
        if not zero_set_in_punctured_grid(zero_set(D), p):
            continue
        pairs.append((p, M, D, Mt, Dt, conj))
    for p, M, D, Mt, Dt, conj in pairs:
        first = find_spectrum_set(DigitSystem(M, D))
        second = find_spectrum_set(DigitSystem(Mt, Dt))
        assert first.status != "undetermined"
        assert first.status == second.status
        if first.status == "found":
            moved = conj.transport(first.S)
            assert verify_triple(DigitSystem(Mt, Dt), moved)
        ours = nstar_bounds(DigitSystem(M, D), p, J=8, R=0)
        theirs = nstar_bounds(DigitSystem(Mt, Dt), p, J=8, R=0)
        assert (ours.lower, ours.upper) == (theirs.lower, theirs.upper)
    finish(6, t0, 300.0)


def test_acceptance_7_swap_instance_full_reproduction():
    t0 = time.perf_counter()
    search = find_spectrum_set(DigitSystem(SWAP, SWAP_D))
    assert search.status == "none"
    assert search.search_space == 3916
    top = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, 4)
    assert len(top.frequencies) == 81 and top.orthogonal
    eta = suggest_eta(DigitSystem(SWAP, SWAP_D), SWAP_C).eta
    minima = {}
    for levels in (2, 3, 4):
        cand = spectrum_candidate(DigitSystem(SWAP, SWAP_D), SWAP_C, levels)
        assert cand.orthogonal
        scan = completeness_scan(
            DigitSystem(SWAP, SWAP_D), cand, eta, resolution=11, depth=40
        )
        assert scan.max_q <= 1 + 1e-9
        minima[levels] = scan.min_q
    assert minima[2] <= minima[3] <= minima[4]
    assert minima[4] >= 0.90
    finish(7, t0, 180.0)


def test_acceptance_8_group_theory_identities():
    t0 = time.perf_counter()
    for m in range(1, 51):
        phi = euler_phi(m)
        for N in range(1, m + 1):
            if math.gcd(N, m) == 1:
                assert pow(N, phi, m) == 1 % m
    for p in (2, 3):
        for a, b, c, d in product(range(p), repeat=4):
            M = ((a, b), (c, d))
            if det(M) % p == 0:
                continue
            assert order_mod(M, p) <= p * p - 1
    rng = random.Random(808080)
    seen = 0
    while seen < 100:
        p = rng.choice((2, 3, 5))
        M = (
            (rng.randint(-9, 9), rng.randint(-9, 9)),
            (rng.randint(-9, 9), rng.randint(-9, 9)),
        )
        if det(M) % p == 0:
            continue
        grid = {
            (Fraction(i, p), Fraction(j, p))
            for i in range(p)
            for j in range(p)
            if (i, j) != (0, 0)
        }
        image = {reduce_mod1(mat_vec(M, x)) for x in grid}
        assert image == grid
        seen += 1
    finish(8, t0, 30.0)


def test_acceptance_9_transport_constants_exact():
    t0 = time.perf_counter()
    rep = transport_inclusion_check(DigitSystem(SKEW, D1), None, ((1, 0), (0, 1)), 3, J=4)
    assert rep.ok and rep.c1 == 11**16 and rep.c2 == 11**16
    rep = transport_inclusion_check(
        DigitSystem(SKEW, STRETCH), None, ((1, 0), (0, 2)), 3, J=4, mode="b"
    )
    assert rep.ok and rep.c1 == 4 * 44**16 and rep.c2 == 11**16
    rep = transport_inclusion_check(
        DigitSystem(SKEW, D1), None, ((1, 0), (1, 1)), 3, J=4, mode="a"
    )
    assert rep.ok and rep.c1 == 11**16 and rep.c2 == 11**16
    finish(9, t0, 60.0)


def test_acceptance_10_certificate_validates_and_perturbation_fails():
    t0 = time.perf_counter()
    M = ((4, 2), (1, 5))
    suggestion = suggest_certificate(DigitSystem(M, STRETCH))
    assert suggestion == (64, 2)
    cert = nonspectral_certificate(DigitSystem(M, STRETCH), 64, 2)
    assert cert.difference_closure and cert.window_empty
    assert cert.tail_integral and cert.valid
    assert cert.verdict == "NonSpectral"
    bad = nonspectral_certificate(DigitSystem(M, STRETCH), 65, 2)
    assert not bad.valid
    assert not bad.difference_closure and not bad.tail_integral
    assert bad.window_empty
    finish(10, t0, 30.0)
