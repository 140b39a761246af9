"""Triple verification, spectrum-set search, and the transport of dual
sets across a conjugacy, which verify_triple checks on both sides."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_affine.conjugacy import make_conjugate
from spectral_affine.errors import (
    DegenerateDigits,
    HypothesisViolation,
    IncompleteZeroSet,
    SingularMatrix,
    WrongDimension,
)
from spectral_affine.hadamard import find_spectrum_set, unitarity_defect, verify_triple
from spectral_affine.linalg import coset_transversal, det, det_and_adjugate, mat_vec, transpose
from spectral_affine.zeros import DigitSystem, is_zero_exact, zero_set, zero_set_in_punctured_grid

THREE = ((0, 0), (1, 0), (0, 1))
FOUR = ((0, 0), (1, 0), (0, 1), (-1, -1))
M3 = ((3, 0), (0, 3))
S3 = ((0, 0), (1, 2), (2, 1))


def test_verify_triple_canonical_pairs():
    assert verify_triple(DigitSystem(M3, THREE), S3)
    assert verify_triple(DigitSystem(M3, THREE), ((0, 0), (2, 1), (1, 2)))
    # lattice translates of single frequencies keep the property
    assert verify_triple(DigitSystem(M3, THREE), ((0, 0), (1, 2), (2, 4)))
    assert verify_triple(DigitSystem(((2, 0), (0, 2)), FOUR), ((0, 0), (1, 0), (0, 1), (1, 1)))


def test_verify_triple_rejections():
    assert not verify_triple(DigitSystem(M3, THREE), ((0, 0), (1, 0), (0, 1)))
    # the pair (1,2), (1,5) collides: their difference maps into the lattice
    assert not verify_triple(DigitSystem(M3, THREE), ((0, 0), (1, 2), (1, 5)))
    assert not verify_triple(DigitSystem(((3, 1), (1, 4)), THREE), S3)
    with pytest.raises(WrongDimension):
        verify_triple(DigitSystem(M3, THREE), ((0, 0), (1, 2)))
    with pytest.raises(WrongDimension):
        verify_triple(DigitSystem(M3, THREE), ((0, 0), (1, 2), (1, 2)))
    with pytest.raises(WrongDimension):
        verify_triple(DigitSystem(M3, THREE), ((0,), (1,), (2,)))


@pytest.mark.parametrize("D", [((0,), (1,)), ((0,),)])
def test_verify_triple_refuses_digits_off_the_map(D):
    # 1-D digits and frequencies under a planar map: consistent with each
    # other, so the digit system's own check names the mismatch
    with pytest.raises(WrongDimension, match="digit dimension does not match the map"):
        verify_triple(DigitSystem(((2, 0), (0, 2)), D), D)


def test_verify_triple_translation_invariance():
    # shifting every frequency by one lattice vector preserves the property
    shifted = tuple((s[0] + 5, s[1] - 7) for s in S3)
    assert verify_triple(DigitSystem(M3, THREE), shifted)


def test_unitarity_defect_values():
    assert unitarity_defect(DigitSystem(M3, THREE), S3) < 1e-12
    assert unitarity_defect(DigitSystem(M3, THREE), ((0, 0), (1, 0), (0, 1))) > 0.1


@pytest.mark.parametrize("e", [9, 15, 30])
def test_far_shifted_dual_set_verifies(e):
    # (3 10^e, 0) lies in M^T Z^2, so the shifted set is still dual; float
    # phases of adj(M)^T s / det M lost the defect to |s| from e = 9 on
    S = ((0, 0), (1 + 3 * 10**e, 2), (2, 1))
    assert verify_triple(DigitSystem(M3, THREE), S) is True
    assert unitarity_defect(DigitSystem(M3, THREE), S) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from((M3, ((3, 1), (0, 3)), ((-2, 1), (1, 4)), ((2, 0), (0, 2)))),
    st.lists(st.tuples(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40)), min_size=4, max_size=4),
)
def test_dual_sets_survive_large_lattice_shifts(M, ks):
    D = FOUR if det(M) % 2 == 0 else THREE
    found = find_spectrum_set(DigitSystem(M, D))
    assume(found.status == "found")
    MT = transpose(M)
    S = tuple(
        tuple(a + b for a, b in zip(s, mat_vec(MT, k))) for s, k in zip(found.S, ks)
    )
    assert verify_triple(DigitSystem(M, D), S) is True


def test_find_spectrum_set_canonical():
    out = find_spectrum_set(DigitSystem(M3, THREE))
    assert out.status == "found"
    assert out.S is not None and out.S[0] == (0, 0)
    assert verify_triple(DigitSystem(M3, THREE), out.S)
    assert out.search_space == 28


def test_find_spectrum_set_skew_has_no_solution():
    # the mask zeros have denominator 3 but the transversal images have
    # denominator 11, so the zero-difference prefilter removes everything
    out = find_spectrum_set(DigitSystem(((3, 1), (1, 4)), THREE))
    assert out.status == "none" and out.S is None
    assert out.search_space == 45 and out.examined == 0


def test_find_spectrum_set_four_digits():
    M = ((2, 0), (0, 2))
    out = find_spectrum_set(DigitSystem(M, FOUR))
    assert out.status == "found"
    assert out.S == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert out.search_space == 1


def test_find_spectrum_set_none():
    # mask zeros of this digit set miss every nonzero coset representative
    out = find_spectrum_set(DigitSystem(((2, 0), (0, 2)), THREE))
    assert out.status == "none" and out.S is None
    assert out.search_space == 3


def test_find_spectrum_set_none_large():
    out = find_spectrum_set(DigitSystem(((0, 10), (9, 0)), FOUR))
    assert out.status == "none" and out.S is None
    assert out.search_space == 113564 and out.examined == 0


def test_find_spectrum_set_digit_dimension_must_match_the_map():
    # a one-dimensional digit set under a planar map
    with pytest.raises(WrongDimension, match="digit dimension does not match the map"):
        find_spectrum_set(DigitSystem(((2, 0), (0, 2)), ((5,),)))


def test_unitarity_defect_digit_dimension_must_match_the_map():
    # one coordinate of S was dropped against a 1-D digit, so the planar
    # map with two digits passed as unitary
    with pytest.raises(WrongDimension, match="digit dimension does not match the map"):
        unitarity_defect(DigitSystem(((2, 0), (0, 2)), ((0,), (1,))), ((0, 0), (1, 0)))


def test_find_spectrum_set_budget_zero():
    out = find_spectrum_set(DigitSystem(M3, THREE), budget=0)
    assert out.status == "undetermined" and out.examined == 0


def test_find_spectrum_set_budget_cutoff():
    # a hint-mode zero set and a long prefix of failing subsets
    M = ((4, 0), (6, -5))
    D = ((-1, 3), (0, -1), (1, 3), (2, 0))
    full = find_spectrum_set(DigitSystem(M, D))
    assert full.status == "found" and full.examined == 31
    assert full.S == ((0, 0), (0, 5), (1, 0), (1, 5))
    assert find_spectrum_set(DigitSystem(M, D), budget=31) == full
    cut = find_spectrum_set(DigitSystem(M, D), budget=30)
    assert cut.status == "undetermined" and cut.S is None
    assert cut.examined == 30 and cut.search_space == full.search_space


def test_find_spectrum_set_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        find_spectrum_set(DigitSystem(M3, THREE), budget=-1)
    # refused before the trivial one-digit answer, too
    with pytest.raises(ValueError, match="budget"):
        find_spectrum_set(DigitSystem(M3, ((0, 0),)), budget=-1)


def _reference_search(M, D, budget):
    """find_spectrum_set's contract with the exact mask test as predicate:
    (status, S, examined) over lexicographic subsets of the transversal."""
    d, adj = det_and_adjugate(M)
    adjT = transpose(adj)

    def vanishes(v):
        return is_zero_exact(D, tuple(Fraction(c, d) for c in mat_vec(adjT, v)))

    k = len(D) - 1
    reps = coset_transversal(transpose(M))
    filtered = [r for r in reps if any(r) and vanishes(r)]
    examined = 0
    for subset in combinations(filtered, k):
        if examined >= budget:
            return "undetermined", None, examined
        examined += 1
        if all(vanishes(tuple(x - y for x, y in zip(a, b))) for a, b in combinations(subset, 2)):
            return "found", ((0, 0), *subset), examined
    return "none", None, examined


small = st.integers(-4, 4)


@st.composite
def planar_systems(draw):
    four = draw(st.booleans())
    M = ((draw(small), draw(small)), (draw(small), draw(small)))
    if draw(st.booleans()):
        # multiples of |D| carry many dual sets and long searches
        M = tuple(tuple((3 + four) * x for x in row) for row in M)
    assume(2 <= abs(det(M)) <= 48)
    c = (draw(small), draw(small))
    alpha = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    beta = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    assume(alpha[0] * beta[1] - alpha[1] * beta[0] != 0)
    shape = [(0, 0), alpha, beta]
    if four:
        shape.append((-alpha[0] - beta[0], -alpha[1] - beta[1]))
    D = tuple((c[0] + v[0], c[1] + v[1]) for v in shape)
    assume(len(set(D)) == len(D))
    return M, D


@settings(max_examples=150, deadline=None)
@given(planar_systems())
# long searches, both signs of det M: found after 6 or 71 subsets, none after 56
@example((((-6, 9), (0, 3)), ((0, 0), (-3, 1), (0, 2))))
@example((((12, -9), (0, 3)), ((0, 0), (0, -2), (-3, -1))))
@example((((-4, 0), (16, 12)), ((0, 0), (3, 0), (-1, -2), (-2, 2))))
@example((((-12, -12), (8, 4)), ((0, 0), (-3, -3), (-3, 3), (6, 0))))
@example((((-12, -4), (4, 4)), ((0, 0), (-2, -2), (-1, 3), (3, -1))))
@example((((8, -12), (-4, 8)), ((0, 0), (-2, -2), (2, -2), (0, 4))))
def test_find_spectrum_set_matches_reference_search(system):
    M, D = system
    full = find_spectrum_set(DigitSystem(M, D))
    status, S, examined = _reference_search(M, D, 10_000_000)
    assert (full.status, full.S, full.examined) == (status, S, examined)
    for budget in sorted({0, 1, max(examined - 1, 0), examined}):
        out = find_spectrum_set(DigitSystem(M, D), budget=budget)
        assert (out.status, out.S, out.examined) == _reference_search(M, D, budget)
        assert out.search_space == full.search_space


def _box_status(M, D):
    """Whether (M, D) has a dual set through 0, decided with no transversal:
    |det M| Z^n lies in M^T Z^n, and the mask at M^{-T} s depends on s only
    mod M^T Z^n, so reducing each member of a dual set mod |det M| keeps it
    one. The members stay distinct, as two in one class would difference
    to an integer point, where the mask is 1. So the box [0, |det M|)^n
    decides, by is_zero_exact on every difference."""
    d, adj = det_and_adjugate(M)
    adjT = transpose(adj)

    def vanishes(v):
        return is_zero_exact(D, tuple(Fraction(c, d) for c in mat_vec(adjT, v)))

    box = [x for x in product(range(abs(d)), repeat=len(M)) if any(x) and vanishes(x)]
    for subset in combinations(box, len(D) - 1):
        if all(vanishes(tuple(a - b for a, b in zip(x, y))) for x, y in combinations(subset, 2)):
            return "found"
    return "none"


@st.composite
def small_det_systems(draw):
    """1-D M up to 12 and planar M with 2 <= |det M| <= 8, with two to four
    distinct digits."""
    n = draw(st.sampled_from((1, 2)))
    if n == 1:
        M = ((draw(st.integers(2, 12)) * draw(st.sampled_from((1, -1))),),)
    else:
        M = ((draw(small), draw(small)), (draw(small), draw(small)))
        assume(2 <= abs(det(M)) <= 8)
    D = draw(st.lists(st.tuples(*[small] * n), min_size=2, max_size=4, unique=True))
    return M, tuple(D)


@settings(max_examples=200, deadline=None)
@given(small_det_systems())
@example((((3,),), ((0,), (1,), (2,))))
@example((((2, 0), (0, 2)), FOUR))
@example((((3, 1), (1, 4)), THREE))
def test_find_spectrum_set_status_matches_the_box_search(system):
    M, D = system
    assert find_spectrum_set(DigitSystem(M, D)).status == _box_status(M, D)


def _enumerating_search(M, D, budget):
    """find_spectrum_set as it was before it read the candidates off the
    listed zeros: every member of coset_transversal(M^T) through
    DigitSystem.vanishes, then the same subset walk."""
    ds = DigitSystem(M, D)
    k = len(D) - 1
    nreps = abs(det(M))
    search_space = math.comb(max(0, nreps - 1), k)
    filtered = [r for r in coset_transversal(transpose(M)) if any(r) and ds.vanishes(r)]
    examined = 0
    for subset in combinations(filtered, k):
        if examined >= budget:
            return "undetermined", None, search_space, examined
        examined += 1
        if all(ds.vanishes(tuple(x - y for x, y in zip(a, b))) for a, b in combinations(subset, 2)):
            return "found", ((0,) * len(D[0]), *subset), search_space, examined
    return "none", None, search_space, examined


wide = st.integers(-30, 30)


@st.composite
def wide_planar_systems(draw):
    # |det M| into the hundreds: three-digit and antipodal four-digit sets,
    # whose zero sets are complete
    M = ((draw(wide), draw(wide)), (draw(wide), draw(wide)))
    assume(det(M) != 0)
    c = (draw(small), draw(small))
    alpha = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    beta = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    assume(alpha[0] * beta[1] - alpha[1] * beta[0] != 0)
    shape = [(0, 0), alpha, beta]
    if draw(st.booleans()):
        shape.append((-alpha[0] - beta[0], -alpha[1] - beta[1]))
    D = tuple((c[0] + v[0], c[1] + v[1]) for v in shape)
    assume(len(set(D)) == len(D))
    return M, D


@st.composite
def hint_mode_systems(draw):
    # five planar digits, and digit sets on the line and in space: no
    # closed form, so the zero set is incomplete
    n, count = draw(st.sampled_from([(2, 5), (1, 2), (1, 3), (1, 4), (3, 2), (3, 3), (3, 4)]))
    M = tuple(tuple(draw(st.integers(-5, 5)) for _ in range(n)) for _ in range(n))
    assume(0 < abs(det(M)) <= 150)
    digit = st.tuples(*[st.integers(-3, 3)] * n)
    D = tuple(draw(st.lists(digit, min_size=count, max_size=count, unique=True)))
    return M, D


def _check_against_enumeration(M, D):
    full = find_spectrum_set(DigitSystem(M, D), budget=2000)
    assert tuple(full) == _enumerating_search(M, D, 2000)
    if full.examined:
        cut = find_spectrum_set(DigitSystem(M, D), budget=full.examined - 1)
        assert tuple(cut) == _enumerating_search(M, D, full.examined - 1)


@settings(max_examples=150, deadline=None)
@given(wide_planar_systems())
@example((((30, -29), (17, 25)), ((0, 0), (1, 2), (3, -1))))
@example((((-24, 12), (18, 30)), ((1, 1), (3, 2), (0, 4), (0, -3))))
@example((((-6, 9), (0, 3)), ((0, 0), (-3, 1), (0, 2))))
@example((((-12, -12), (8, 4)), ((0, 0), (-3, -3), (-3, 3), (6, 0))))
def test_find_spectrum_set_matches_the_enumeration_on_complete_zero_sets(system):
    M, D = system
    assert zero_set(D).complete
    _check_against_enumeration(M, D)


@settings(max_examples=100, deadline=None)
@given(hint_mode_systems())
@example((((4, 0), (6, -5)), ((-1, 3), (0, -1), (1, 3), (2, 0), (3, 3))))
@example((((6,),), ((0,), (1,), (2,))))
@example((((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 0), (1, 0, 0))))
def test_find_spectrum_set_matches_the_enumeration_on_incomplete_zero_sets(system):
    M, D = system
    assert not zero_set(D).complete
    _check_against_enumeration(M, D)


@st.composite
def singular_frame_systems(draw):
    """A planar three-digit set on a line, or a translate of {0, a, b, -a-b}
    with a and b parallel: the closed-form shapes whose frame is singular,
    so that their zeros fill lines and no finite zero set lists them."""
    four = draw(st.booleans())
    M = ((draw(small), draw(small)), (draw(small), draw(small)))
    if draw(st.booleans()):
        M = tuple(tuple((3 + four) * x for x in row) for row in M)
    assume(2 <= abs(det(M)) <= 48)
    c = (draw(small), draw(small))
    # u != 0 and distinct multiples 0, s, t (and -s-t) by construction: a
    # filter on them, with the determinant's, trips Hypothesis's
    # filter_too_much health check on some seeds
    u = draw(st.sampled_from([(x, y) for x in range(-2, 3) for y in range(-2, 3) if x or y]))
    s, t = draw(
        st.sampled_from(
            [
                (s, t)
                for s in range(-3, 4)
                for t in range(-3, 4)
                if len({0, s, t} | ({-s - t} if four else set())) == 3 + four
            ]
        )
    )
    shape = [(0, 0), (s * u[0], s * u[1]), (t * u[0], t * u[1])]
    if four:
        shape.append((-(s + t) * u[0], -(s + t) * u[1]))
    D = tuple((c[0] + v[0], c[1] + v[1]) for v in shape)
    return M, D


@settings(max_examples=150, deadline=None)
@given(singular_frame_systems())
@example((((3, 0), (0, 3)), ((0, 0), (1, 0), (2, 0))))
@example((((4, 0), (0, 2)), ((0, 0), (1, 1), (2, 2), (-3, -3))))
def test_find_spectrum_set_decides_a_singular_frame_by_the_cyclotomic_test(system):
    M, D = system
    with pytest.raises(DegenerateDigits):
        zero_set(D)
    ds = DigitSystem(M, D)
    assert ds.listed is False and "zs" not in ds.__dict__
    found = find_spectrum_set(DigitSystem(M, D))
    assert (found.status, found.S, found.examined) == _reference_search(M, D, 10_000_000)
    if found.S is not None:
        assert verify_triple(DigitSystem(M, D), found.S)
    # the measure's questions still refuse: no finite zero set exists
    with pytest.raises(DegenerateDigits):
        ds.walkable


def test_find_spectrum_set_singular():
    with pytest.raises(SingularMatrix):
        find_spectrum_set(DigitSystem(((1, 2), (2, 4)), THREE))


def test_unitarity_defect_singular():
    with pytest.raises(SingularMatrix, match="expanding map must be invertible"):
        unitarity_defect(DigitSystem(((1, 2), (2, 4)), THREE), S3)


def _fixture_conjugacy():
    # 3I with the canonical digits, moved by B = diag(1, 2) in mode "a"
    return make_conjugate(M3, THREE, ((1, 0), (0, 2)), 3, mode="a")


def test_transport_forward_fixture():
    conj = _fixture_conjugacy()
    assert conj.A == ((1, 0), (0, 2))
    out = conj.transport(S3, direction="forward")
    assert out == ((0, 0), (4, 16), (8, 8))
    assert verify_triple(DigitSystem(conj.Mt, conj.Dt), out)


def test_transport_backward_inverts_classes_mod_p():
    conj = _fixture_conjugacy()
    fwd = conj.transport(S3, direction="forward")
    back = conj.transport(fwd, direction="backward")
    assert back == ((0, 0), (16, 32), (32, 16))
    assert verify_triple(DigitSystem(M3, THREE), back)
    # the round trip multiplies by a scalar congruent to 1 mod p
    for s, t in zip(S3, back):
        assert tuple(x % 3 for x in s) == tuple(x % 3 for x in t)


def test_transport_validations():
    conj = _fixture_conjugacy()
    with pytest.raises(ValueError):
        conj.transport(S3, direction="sideways")
    # only a spectrum of the source system is moved
    with pytest.raises(HypothesisViolation, match="not a spectrum"):
        conj.transport(((0, 0), (1, 0), (2, 0)))
    with pytest.raises(HypothesisViolation, match="not a spectrum"):
        conj.transport(S3, direction="backward")
    with pytest.raises(WrongDimension):
        conj.transport(S3[:2])
    with pytest.raises(HypothesisViolation, match="identity mod p"):
        make_conjugate(M3, THREE, ((1, 0), (0, 2)), 3, mode="a", A=((1, 0), (0, 1)))
    # a 1-D digit set has only a hint-mode zero set, so nothing certifies
    # the grid hypothesis
    line = make_conjugate(((4,),), ((0,), (2,)), ((1,),), 2)
    with pytest.raises(IncompleteZeroSet):
        line.transport(((0,), (1,)))


def test_transport_refuses_zeros_off_the_grid():
    # the zeros of D have denominators 3, 4, 6 and 12; moved anyway, the
    # dual set S becomes ((0, 0), (2, 0), (4, 0)), which is not a spectrum
    # of the conjugate, although ((0, 0), (4, 0), (8, 0)) is
    conj = make_conjugate(((-2, 1), (0, 3)), ((0, 1), (3, 2), (1, 0)), ((-1, 0), (0, 1)), 3)
    S = ((0, 0), (1, 0), (2, 0))
    assert verify_triple(DigitSystem(conj.M, conj.D), S)
    assert not verify_triple(DigitSystem(conj.Mt, conj.Dt), ((0, 0), (2, 0), (4, 0)))
    with pytest.raises(HypothesisViolation, match="punctured"):
        conj.transport(S)
    assert verify_triple(DigitSystem(conj.Mt, conj.Dt), ((0, 0), (4, 0), (8, 0)))
    with pytest.raises(HypothesisViolation, match="punctured"):
        conj.transport(((0, 0), (4, 0), (8, 0)), direction="backward")


UNIMODULAR = (
    ((1, 0), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 1), (0, 1)),
    ((2, 1), (1, 1)),
    ((0, 1), (1, 0)),
    ((1, -2), (1, -1)),
)
# determinant 2: invertible mod 3 and 5, and a non-unimodular digit frame
DOUBLING = (((1, 0), (0, 2)), ((2, 1), (0, 1)), ((1, 1), (-1, 1)))


@st.composite
def conjugacies(draw):
    """A conjugacy of a planar three-digit or antipodal four-digit system
    with p in {2, 3, 5}. A unimodular digit frame puts the mask zeros on
    the (1/3)-grid for three digits and on the (1/2)-grid for four; the
    other draws, and every draw with p = 5, leave the grid."""
    four = draw(st.booleans())
    p = draw(st.sampled_from((2 if four else 3, 2, 3, 5)))
    if draw(st.booleans()):
        F = draw(st.sampled_from(UNIMODULAR))
    else:
        F = ((draw(small), draw(small)), (draw(small), draw(small)))
        assume(det(F) != 0)
    shape = [(0, 0), (1, 0), (0, 1)] + ([(-1, -1)] if four else [])
    c = (draw(small), draw(small))
    Dp = tuple(tuple(ci + x for ci, x in zip(c, mat_vec(F, v))) for v in shape)
    if draw(st.booleans()):
        M = ((draw(small), draw(small)), (draw(small), draw(small)))
    else:
        # with the zeros on the grid a dual set needs p | det M
        tiny = st.integers(-2, 2)
        M = ((p * draw(tiny), p * draw(tiny)), (p * draw(tiny), p * draw(tiny)))
    assume(2 <= abs(det(M)) <= 48)
    B = draw(st.sampled_from(UNIMODULAR + DOUBLING))
    assume(det(B) % p != 0)
    mode = draw(st.sampled_from("ab"))
    D = tuple(tuple(mat_vec(B, d)) for d in Dp) if mode == "b" else Dp
    return make_conjugate(M, D, B, p, mode)


@settings(max_examples=300, deadline=None)
@given(conjugacies())
def test_transport_round_trip_preserves_residues(conj):
    # the transport theorem: with the mask zeros of D in the punctured
    # (1/p)-grid a dual set moves to one of the conjugate and back, to
    # the same classes mod p; without that hypothesis transport refuses
    found = find_spectrum_set(DigitSystem(conj.M, conj.D))
    if not zero_set_in_punctured_grid(zero_set(conj.D), conj.p):
        S = found.S or tuple((i, 0) for i in range(len(conj.D)))
        for direction in ("forward", "backward"):
            with pytest.raises(HypothesisViolation, match="punctured"):
                conj.transport(S, direction)
        return
    if found.status != "found":
        return
    fwd = conj.transport(found.S)
    assert verify_triple(DigitSystem(conj.Mt, conj.Dt), fwd)
    back = conj.transport(fwd, direction="backward")
    assert verify_triple(DigitSystem(conj.M, conj.D), back)
    p = conj.p
    for s, t in zip(found.S, back):
        assert tuple(x % p for x in s) == tuple(x % p for x in t)
