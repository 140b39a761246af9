"""Orthogonality counting, transport inclusions, certificates."""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import count, product
from operator import sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spectral_affine import zeros
from spectral_affine.conjugacy import (
    SpectralityVerdict,
    make_conjugate,
    spectrality_criterion,
)
from spectral_affine.fourier import (
    attractor_sample,
    mu_hat_numeric,
    spectrum_candidate,
    suggest_eta,
)
from spectral_affine.hadamard import find_spectrum_set, unitarity_defect, verify_triple
from spectral_affine.errors import (
    HypothesisViolation,
    IncompleteZeroSet,
    NonIntegerDigits,
    SingularMatrix,
    WrongDimension,
)
from spectral_affine.linalg import (
    det,
    identity,
    is_expanding,
    mat_mod,
    mat_mul,
    mat_pow,
    mat_vec,
    order_mod,
    sign_canonical,
    transpose,
)
from spectral_affine.ortho import (
    _max_clique,
    has_infinite_orthogonal,
    nonspectral_certificate,
    nstar_bounds,
    suggest_certificate,
    transport_inclusion_check,
    zero_membership,
)
from spectral_affine.zeros import (
    DigitSystem,
    ZeroSet,
    as_rational_point,
    four_digit_frame,
    lattice_form,
    reduce_mod1,
    three_digit_frame,
    zero_set,
    zero_set_in_punctured_grid,
)

THREE = ((0, 0), (1, 0), (0, 1))
FOUR = ((0, 0), (1, 0), (0, 1), (-1, -1))
STRETCH = ((0, 0), (1, 0), (0, 2))
M3 = ((3, 0), (0, 3))
SKEW = ((3, 1), (1, 4))
WIDE = ((0, -1), (-6, 6), (-4, 3))  # eight zeros, q = 12
# |det M| from 60 to 120, as large as the corpus workload's conjugates,
# with both signs
LARGE_DET = [
    (((0, 10), (9, 0)), FOUR),  # det -90
    (((8, 1), (3, 9)), THREE),  # det 69
    (((11, 2), (5, -10)), ((0, 1), (3, 2), (1, 0))),  # det -120
    (((10, 1), (-2, 10)), WIDE),  # det 102
    (((-8, 5), (7, 4)), FOUR),  # det -67
]


def measure(M, D):
    """DigitSystem(M, D) once its gate, walkable, has raised its refusals."""
    system = DigitSystem(M, D)
    system.walkable
    return system


def test_zero_membership_levels():
    assert zero_membership(DigitSystem(M3, THREE), (1, 2)) == 1
    assert zero_membership(DigitSystem(M3, THREE), (3, 6)) == 2
    assert zero_membership(DigitSystem(M3, THREE), (9, 18)) == 3
    assert zero_membership(DigitSystem(M3, THREE), (2, 1)) == 1
    assert zero_membership(DigitSystem(M3, THREE), (1, 1)) is None
    assert zero_membership(DigitSystem(M3, THREE), (0, 0)) is None
    # a mask zero itself sits below every level for this map
    assert zero_membership(DigitSystem(M3, THREE), (Fraction(1, 3), Fraction(2, 3))) is None


def test_zero_membership_none_is_certified():
    # levels shrink geometrically, so None is a proof, not a timeout;
    # spot-check against a wide direct sweep
    for xi in ((1, 0), (0, 1), (1, 1), (2, 2), (5, 8)):
        assert zero_membership(DigitSystem(M3, THREE), xi) is None


def test_zero_membership_validations():
    with pytest.raises(IncompleteZeroSet):
        zero_membership(DigitSystem(M3, ((0, 0), (1, 1))), (1, 1))
    with pytest.raises(HypothesisViolation):
        zero_membership(DigitSystem(((1, 0), (0, 2)), THREE), (1, 1))
    with pytest.raises(WrongDimension, match="frequency dimension does not match the map"):
        zero_membership(DigitSystem(M3, THREE), (1, 1, 1))


NOT_EXPANDING = "inverse-transpose powers do not contract; matrix not expanding"


def test_unit_eigenvalue_refusals():
    # eigenvalues 1 and 2: refused as not expanding, with the same message
    # from the search and from a single membership query
    M = ((1, 1), (0, 2))
    with pytest.raises(HypothesisViolation) as exc:
        nstar_bounds(DigitSystem(M, THREE), 3)
    assert str(exc.value) == NOT_EXPANDING
    with pytest.raises(HypothesisViolation) as exc:
        zero_membership(DigitSystem(M, THREE), (1, 1))
    assert str(exc.value) == NOT_EXPANDING
    # off the plane the incomplete zero set is reported before the map
    diag_2_rot90 = ((2, 0, 0), (0, 0, -1), (0, 1, 0))
    with pytest.raises(IncompleteZeroSet):
        zero_membership(DigitSystem(diag_2_rot90, ((0, 0, 0), (1, 0, 0), (0, 1, 0))), (1, 0, 0))


def test_has_infinite_orthogonal():
    assert has_infinite_orthogonal(DigitSystem(M3, THREE)) == (True, 1)
    assert has_infinite_orthogonal(DigitSystem(SKEW, THREE)) == (False, None)
    assert has_infinite_orthogonal(DigitSystem(((0, 10), (9, 0)), FOUR)) == (True, 1)
    # non-spectral systems can still carry infinite orthogonal families
    assert has_infinite_orthogonal(DigitSystem(((4, 1), (2, 5)), THREE)) == (True, 2)


@pytest.mark.parametrize(
    "M", [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 1), (0, 2)), ((1, 0), (0, 3))]
)
def test_has_infinite_orthogonal_needs_expanding_matrix(M):
    # the measure, and with it n*, is not defined for these maps
    with pytest.raises(HypothesisViolation, match="expanding"):
        has_infinite_orthogonal(DigitSystem(M, THREE))


# the measure of (M, D) exists for an expanding M only, and its questions
# need every mask zero; each asks DigitSystem.walkable and raises its refusal
GATE_REFUSALS = {
    "singular": (((1, 2), (2, 4)), THREE, SingularMatrix, "expanding map must be invertible"),
    "not_expanding": (((1, 1), (0, 2)), THREE, HypothesisViolation, NOT_EXPANDING),
    "incomplete": (
        M3,
        ((0, 0), (1, 1)),
        IncompleteZeroSet,
        "orthogonality decisions need a provably complete zero set",
    ),
}
QUESTIONS = {
    "zero_membership": lambda M, D: zero_membership(DigitSystem(M, D), (1, 1)),
    "has_infinite_orthogonal": lambda M, D: has_infinite_orthogonal(DigitSystem(M, D)),
    "nstar_bounds": lambda M, D: nstar_bounds(DigitSystem(M, D), 3, J=1, R=0),
    "nonspectral_certificate": lambda M, D: nonspectral_certificate(DigitSystem(M, D), 1, 2),
    "suggest_eta": lambda M, D: suggest_eta(DigitSystem(M, D), ((0, 0), (1, 0))),
    # one base point, so no pair is walked
    "spectrum_candidate": lambda M, D: spectrum_candidate(DigitSystem(M, D), ((0, 0),), 1),
}


@pytest.mark.parametrize("system", sorted(GATE_REFUSALS))
@pytest.mark.parametrize("question", sorted(QUESTIONS))
def test_every_question_about_the_measure_refuses_through_the_gate(question, system):
    M, D, error, message = GATE_REFUSALS[system]
    with pytest.raises(error) as exc:
        QUESTIONS[question](M, D)
    assert type(exc.value) is error and str(exc.value) == message


# questions that need only an invertible or only an expanding M, outside
# the gate, refuse it with the gate's type and message
OUTSIDE_THE_GATE = {
    "singular": {
        "find_spectrum_set": lambda M: find_spectrum_set(DigitSystem(M, THREE)),
        "verify_triple": lambda M: verify_triple(DigitSystem(M, THREE), THREE),
        "unitarity_defect": lambda M: unitarity_defect(DigitSystem(M, THREE), THREE),
    },
    "not_expanding": {
        "mu_hat_numeric": lambda M: mu_hat_numeric(DigitSystem(M, THREE), (1, 1)),
        "attractor_sample": lambda M: attractor_sample(M, THREE),
        "spectrality_criterion": lambda M: spectrality_criterion(DigitSystem(M, THREE)),
    },
}


@pytest.mark.parametrize(
    "system, question",
    [(system, question) for system, asks in OUTSIDE_THE_GATE.items() for question in asks],
)
def test_questions_outside_the_gate_refuse_in_the_gates_words(system, question):
    M, _, error, message = GATE_REFUSALS[system]
    with pytest.raises(error) as exc:
        OUTSIDE_THE_GATE[system][question](M)
    assert type(exc.value) is error and str(exc.value) == message


def test_no_certificate_for_a_map_that_is_not_expanding():
    # every non-expanding 2x2 matrix with entries in [-3, 3], singular ones
    # included, is refused at every scale and tail level
    entries = range(-3, 4)
    maps = [
        M
        for M in product(product(entries, repeat=2), repeat=2)
        if not is_expanding(M)
    ]
    assert len(maps) == 993
    for M in maps:
        error = SingularMatrix if det(M) == 0 else HypothesisViolation
        for L in (1, 2, 3, 4, 6, 9, 27):
            for j0 in (2, 3, 4):
                with pytest.raises(error):
                    nonspectral_certificate(DigitSystem(M, THREE), L, j0)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(1, 3),
)
def test_membership_is_shift_covariant(v, j):
    # multiplying by M^T raises the entry level by exactly one
    base = zero_membership(DigitSystem(M3, THREE), v)
    Mt = ((3, 0), (0, 3))
    w = tuple(sum(Mt[i][k] * v[k] for k in range(2)) for i in range(2))
    lifted = zero_membership(DigitSystem(M3, THREE), w)
    if base is not None:
        assert lifted == base + 1


def lattice_point(xi):
    """xi as (N, Q), the arguments of a membership walk."""
    Q, (N,) = lattice_form((as_rational_point(xi),))
    return N, Q


def fraction_membership(M, D, xi):
    """Reference walk in Fractions: xi <- M^{-T} xi until the iterate is a
    mask zero mod 1 or drops below the certified contraction bound."""
    d = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    minvT = (
        (Fraction(M[1][1], d), Fraction(-M[1][0], d)),
        (Fraction(-M[0][1], d), Fraction(M[0][0], d)),
    )
    zeros = set(zero_set(D).points)
    if not zeros:
        return None
    delta = min(max(min(c, 1 - c) for c in pt) for pt in zeros)
    growth, P = Fraction(1), minvT
    while max(abs(a) + abs(b) for a, b in P) >= 1:
        growth = max(growth, max(abs(a) + abs(b) for a, b in P))
        P = tuple(
            tuple(r[0] * minvT[0][j] + r[1] * minvT[1][j] for j in range(2))
            for r in P
        )
    x = tuple(Fraction(c) for c in xi)
    for j in count(1):
        x = tuple(r[0] * x[0] + r[1] * x[1] for r in minvT)
        if tuple(c % 1 for c in x) in zeros:
            return j
        if max(abs(c) for c in x) < delta / growth:
            return None


small = st.integers(-3, 3)


@st.composite
def planar_systems(draw, expanding=True):
    """An expanding 2x2 matrix (any integer one if not expanding) with a
    three-digit or an antipodal four-digit set whose zero set is
    complete."""
    entry = st.integers(-6, 6)
    M = draw(st.tuples(st.tuples(entry, entry), st.tuples(entry, entry)))
    assume(not expanding or is_expanding(M))
    a, b = draw(st.tuples(small, small)), draw(st.tuples(small, small))
    assume(a[0] * b[1] - a[1] * b[0] != 0)
    if draw(st.booleans()):
        return M, ((0, 0), a, b)
    return M, ((0, 0), a, b, (-a[0] - b[0], -a[1] - b[1]))


@settings(max_examples=150, deadline=None)
@given(planar_systems(), st.data())
def test_lattice_membership_matches_fraction_walk(system, data):
    M, D = system
    eng = measure(M, D)
    assume(eng.zs.points)
    rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    for _ in range(6):
        if data.draw(st.booleans()):
            xi = data.draw(st.tuples(rational, rational))
        else:
            # M^{T j}(z + k) + v, which enters the zero set unless v spoils it
            z = data.draw(st.sampled_from(eng.zs.points))
            k = data.draw(st.tuples(small, small))
            xi = tuple(c + o for c, o in zip(z, k))
            for _ in range(data.draw(st.integers(0, 3))):
                xi = tuple(M[0][i] * xi[0] + M[1][i] * xi[1] for i in range(2))
            v = data.draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
            xi = tuple(c + o for c, o in zip(xi, v))
        assert eng.membership(*lattice_point(xi)) == fraction_membership(M, D, xi)
    # far out on the (1/q)-grid: a long contraction walk, unless an iterate
    # leaves the grid, after which none can return to a zero
    z = data.draw(st.sampled_from(eng.zs.points))
    xi = z
    for _ in range(data.draw(st.integers(3, 6))):
        xi = tuple(M[0][i] * xi[0] + M[1][i] * xi[1] for i in range(2))
    v = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    xi = tuple(c + Fraction(o, eng.q) for c, o in zip(xi, v))
    assert eng.membership(*lattice_point(xi)) == fraction_membership(M, D, xi)


def window_walking_every_candidate(eng, J, R):
    """DigitSystem.window as it was before it kept the offset-0 candidates
    unwalked: every distinct nonzero candidate takes a membership walk."""
    q = eng.q
    kept, seen = [], set()
    for shell in eng.shells(J):
        for x, y in shell:
            for ox, oy in product(range(-R, R + 1), repeat=2):
                cand = (x + q * ox, y + q * oy)
                if cand in seen or cand == (0, 0):
                    continue
                seen.add(cand)
                if eng.membership(cand, q) is not None:
                    kept.append(cand)
    return kept


@settings(max_examples=150, deadline=None)
@given(planar_systems(), st.integers(1, 6), st.integers(0, 2))
def test_window_matches_a_walk_of_every_candidate(system, J, R):
    M, D = system
    eng = measure(M, D)
    assert eng.window(J, R) == window_walking_every_candidate(eng, J, R)


def mat_t_vec(M, v):
    return tuple(sum(M[k][i] * v[k] for k in range(len(v))) for i in range(len(v)))


def graph_vertices(M, eng, picks):
    """Distinct integer vectors q*x: 0 first, then for each pick either
    M^{T j}(r + q k) + q v, r = q z for a mask zero z, or a raw point
    of the (1/q)-grid."""
    q = eng.q
    residues = sorted(eng.residues)
    out = {(0, 0): None}
    for pick in picks:
        if len(pick) == 2:
            out[pick] = None
            continue
        i, j, k, v = pick
        x = tuple(c + q * o for c, o in zip(residues[i % len(residues)], k))
        for _ in range(j):
            x = mat_t_vec(M, x)
        out[tuple(c + q * o for c, o in zip(x, v))] = None
    return list(out)


def pairwise_graph(M, D, q, vertices):
    """Reference adjacency: one Fraction walk per ordered vertex pair."""
    adj = [0] * len(vertices)
    for i, a in enumerate(vertices):
        for j, b in enumerate(vertices):
            w = tuple(Fraction(x - y, q) for x, y in zip(a, b))
            if i != j and fraction_membership(M, D, w) is not None:
                adj[i] |= 1 << j
    return adj


unit = st.integers(-1, 1)
picks = st.lists(
    st.one_of(
        st.tuples(
            st.integers(0, 50),
            st.integers(1, 4),
            st.tuples(small, small),
            st.one_of(st.just((0, 0)), st.tuples(unit, unit)),
        ),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    ),
    max_size=14,
)


@settings(max_examples=120, deadline=None)
@given(planar_systems(), picks)
def test_orthogonality_graph_matches_pairwise_walks(system, chosen):
    M, D = system
    eng = measure(M, D)
    vertices = graph_vertices(M, eng, chosen)
    assert eng.orthogonality_graph(vertices) == pairwise_graph(M, D, eng.q, vertices)


@pytest.mark.parametrize(
    "M, D",
    [
        (((0, 3), (2, 1)), THREE),  # det -6
        (((1, 3), (3, -1)), FOUR),  # det -10
        (((-2, 1), (0, 3)), ((0, 1), (3, 2), (1, 0))),  # det -6
        (((2, 0), (0, 2)), THREE),
        (SKEW, FOUR),
    ]
    + LARGE_DET,
)
def test_orthogonality_graph_matches_pairwise_walks_fixed(M, D):
    eng = measure(M, D)
    rng = random.Random(repr((M, D)))
    chosen = [
        (
            rng.randrange(50),
            rng.randint(1, 4),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
            rng.choice([(0, 0), (0, 0), (1, 0), (0, -1), (1, 1)]),
        )
        if rng.random() < 0.7
        else (rng.randint(-40, 40), rng.randint(-40, 40))
        for _ in range(24)
    ]
    vertices = graph_vertices(M, eng, chosen)
    adj = eng.orthogonality_graph(vertices)
    assert adj == pairwise_graph(M, D, eng.q, vertices)
    assert any(adj)


@pytest.mark.parametrize("M, D", LARGE_DET)
def test_lattice_membership_matches_fraction_walk_fixed(M, D):
    eng = measure(M, D)
    rng = random.Random(repr((M, D)))
    hits = 0
    for _ in range(40):
        if rng.random() < 0.3:
            xi = tuple(Fraction(rng.randint(-400, 400), rng.randint(1, 12)) for _ in M)
        else:
            # M^{T j}(z + k) + v, in the zero set unless v spoils it
            z = rng.choice(eng.zs.points)
            xi = tuple(c + rng.randint(-3, 3) for c in z)
            for _ in range(rng.randint(0, 3)):
                xi = mat_t_vec(M, xi)
            v = rng.choice([(0, 0), (0, 0), (1, 0), (0, -1), (1, eng.q)])
            xi = (xi[0] + v[0], xi[1] + Fraction(v[1], eng.q))
        got = eng.membership(*lattice_point(xi))
        assert got == fraction_membership(M, D, xi)
        hits += got is not None
    assert hits


@pytest.mark.parametrize(
    "M, D, xi",
    [
        (((2, -3), (0, 2)), ((0, 0), (-1, 3), (1, -1)), (Fraction(2, 3), -2)),
        (
            ((5, 6), (-3, 3)),
            ((0, 0), (-3, -1), (-3, -3)),
            (Fraction(-5, 9), Fraction(29, 6)),
        ),
        (((2, -6), (0, 4)), ((0, 0), (-2, 0), (2, -3), (0, 3)), (0, Fraction(-1, 3))),
    ],
)
def test_lattice_membership_matches_fraction_walk_pinned(M, D, xi):
    # the reference's contraction bound ends these walks on a nonzero
    # lattice iterate; the lattice walk goes on to an inexact division
    assert measure(M, D).membership(*lattice_point(xi)) is None
    assert fraction_membership(M, D, xi) is None


def test_orthogonality_graph_edge_cases():
    eng = measure(SKEW, THREE)
    assert eng.orthogonality_graph([]) == []
    assert eng.orthogonality_graph([(0, 0)]) == [0]
    # (1, 2)/3 is a mask zero, so its image under M^T is a level-1 zero
    assert eng.orthogonality_graph([(0, 0), (5, 9)]) == [0b10, 0b01]
    with pytest.raises(ValueError, match="distinct"):
        eng.orthogonality_graph([(0, 0), (1, 2), (0, 0)])


def level_sums(M, base, levels):
    """Every sum over i = 1..levels of M^{T i} c_i, c_i in base, in
    Fractions; the family spectrum_candidate builds, in no fixed order."""
    sums = {(Fraction(0), Fraction(0))}
    power = [tuple(c) for c in base]
    for _ in range(levels):
        power = [mat_t_vec(M, c) for c in power]
        sums = {tuple(map(sum, zip(f, t))) for f in sums for t in power}
    return list(sums)


@st.composite
def pair_check_problems(draw):
    """(eng, vectors, Q): distinct integer vectors over a denominator Q.
    Either the level sums of a dual set S of (M, D), found by
    find_spectrum_set, with base S or M^{-T} S (orthogonal at every level),
    perturbed or not and written over a multiple of their denominator; or
    graph_vertices' zero images and random points of the (1/q)-grid,
    lifted to Q when q divides it and read over Q as they are otherwise,
    with Q one of 1, 2, 3, q, 2q or a value that does not divide q. The
    order is shuffled, so the first pair is not always read from sorted
    vectors."""
    M, D = draw(planar_systems())
    found = None
    if draw(st.booleans()):
        # m K: (m K, D) often has a dual set
        m = 3 if len(D) == 3 else 2
        M = tuple(tuple(m * x for x in row) for row in M)
        assume(max(map(abs, sum(M, ()))) <= 12)
        found = find_spectrum_set(DigitSystem(M, D), budget=20_000)
    eng = measure(M, D)
    q = eng.q
    if found is not None and found.status == "found":
        base = [tuple(map(Fraction, s)) for s in found.S]
        if draw(st.booleans()):
            d = det(M)
            base = [
                (Fraction(M[1][1] * x - M[1][0] * y, d), Fraction(-M[0][1] * x + M[0][0] * y, d))
                for x, y in base
            ]
        levels = draw(st.integers(1, 3 if len(base) == 3 else 2))
        Q, vectors = lattice_form(level_sums(M, base, levels))
        f = draw(st.sampled_from((1, 2, 3)))
        Q, vectors = f * Q, [tuple(f * c for c in v) for v in vectors]
        if draw(st.booleans()):
            i = draw(st.integers(0, len(vectors) - 1))
            delta = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
            vectors[i] = tuple(map(sum, zip(vectors[i], delta)))
    else:
        Q = draw(
            st.one_of(
                st.sampled_from((1, 2, 3, q, 2 * q)),
                st.integers(1, 40).filter(lambda Q: q % Q),
            )
        )
        # vectors over q, lifted to Q when q divides it and read over Q
        # as they are otherwise
        s = Q // q if Q % q == 0 else 1
        vectors = [tuple(s * c for c in v) for v in graph_vertices(M, eng, draw(picks))]
    vectors = list(dict.fromkeys(vectors))
    return eng, draw(st.permutations(vectors)), Q


@settings(max_examples=150, deadline=None)
@given(pair_check_problems())
def test_graph_pair_check_matches_the_walk(problem):
    eng, vectors, Q = problem
    assert eng.first_unjoined_pair(vectors, Q) == eng.first_failing_pair(vectors, Q)


def test_graph_pair_check_fixed_cases():
    eng = measure(SKEW, THREE)
    assert eng.first_unjoined_pair([], 1) is None
    assert eng.first_unjoined_pair([(0, 0)], 7) is None
    # (5, 9)/3 is the level-1 image of the mask zero (1, 2)/3; over Q = 6
    # the same point is (10, 18), and (5, 9)/6 is not in the zero set
    assert eng.first_unjoined_pair([(0, 0), (5, 9)], 3) is None
    assert eng.first_unjoined_pair([(0, 0), (10, 18), (5, 9)], 6) == (0, 2)
    assert eng.first_failing_pair([(0, 0), (10, 18), (5, 9)], 6) == (0, 2)
    # without zeros every pair fails
    none = measure(M3, ((0, 0),))
    assert none.first_unjoined_pair([(0, 0), (1, 0), (2, 0)], 1) == (0, 1)
    assert none.first_failing_pair([(0, 0), (1, 0), (2, 0)], 1) == (0, 1)
    with pytest.raises(ValueError, match="multiple of q"):
        eng.orthogonality_graph([(0, 0)], 4)


def test_nstar_clique_small():
    out = nstar_bounds(DigitSystem(((2, 0), (0, 2)), THREE), 3, J=1, R=0)
    assert (out.lower, out.upper) == (3, 3)
    assert out.method == "clique" and out.search_complete
    assert len(out.witness) == 3
    assert out.witness[0] == (0, 0)


def test_nstar_nine_exponentials():
    out = nstar_bounds(DigitSystem(SKEW, THREE), 3, J=8, R=0)
    assert (out.lower, out.upper) == (9, 9)
    assert out.method == "clique"
    assert len(out.witness) == 9


@pytest.mark.parametrize(
    "M, window, nodes, witness",
    [
        (
            SKEW,
            dict(J=8, R=0),
            24,
            [
                (0, 0),
                ("2446/3", 1329),
                ("2177/3", 1117),
                (3775, "18394/3"),
                (3294, "15581/3"),
                ("52369/3", "84901/3"),
                ("45227/3", "72206/3"),
                ("242008/3", "391973/3"),
                ("207887/3", "334051/3"),
            ],
        ),
        (
            ((2, 0), (0, 2)),
            dict(J=8, R=2),
            4,
            [(0, 0), ("2/3", "4/3"), ("4/3", "2/3")],
        ),
    ],
)
def test_nstar_pinned_witness(M, window, nodes, witness):
    # SKEW's zero images reach its bound 9 only at J = 8, after windows of
    # 1, 2 and 4 shells whose searches took 4, 4 and 6 nodes; those of 2I
    # reach its bound 3 at one shell
    out = nstar_bounds(DigitSystem(M, THREE), 3, **window)
    assert out.search_nodes == nodes and out.search_complete
    assert out.witness == tuple(
        tuple(Fraction(c) for c in f) for f in witness
    )


def test_nstar_2i_default_window():
    # the window J = 16, R = 4 has 721 vertices; the zero images of its
    # first shell, 3 vertices with frequency 0, reach the bound already
    out = nstar_bounds(DigitSystem(((2, 0), (0, 2)), THREE), 3)
    assert (out.lower, out.upper, out.method) == (3, 3, "clique")
    assert out.search_nodes == 4 and out.search_complete
    assert out.witness == (
        (0, 0),
        (Fraction(2, 3), Fraction(4, 3)),
        (Fraction(4, 3), Fraction(2, 3)),
    )


def test_nstar_reverifies_each_difference_once():
    # an infinite orthogonal family: at J=2 the witness has 116 members,
    # so 6,670 pairs, whose differences are 213 up to sign
    M, D = ((1, 1), (-2, 1)), WIDE
    real_walk = DigitSystem.membership
    real_graph = DigitSystem.orthogonality_graph
    walks, built = [], []

    def walk(self, N, Q):
        walks.append(N)
        return real_walk(self, N, Q)

    def graph(self, vertices):
        built.append(len(walks))
        return real_graph(self, vertices)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DigitSystem, "membership", walk)
        mp.setattr(DigitSystem, "orthogonality_graph", graph)
        out = nstar_bounds(DigitSystem(M, D), 3, J=2)
    family = out.witness
    diffs = {
        sign_canonical(tuple(map(sub, a, b)))
        for i, a in enumerate(family)
        for b in family[:i]
    }
    assert len(family) == 116 and len(diffs) == 213
    q = measure(M, D).q
    assert sorted(walks[built[0] :]) == sorted(tuple(q * c for c in w) for w in diffs)
    # the same witness as with one walk per pair
    assert out.search_nodes == 117 and (out.upper, out.method) == (None, "infinite")
    digest = hashlib.sha256(repr(family).encode()).hexdigest()
    assert digest == "6a46feb2cfa8bd41cc395da831f9d621ce79f54654fa2b23af6ebf5c60e87ffd"


@pytest.mark.parametrize(
    "M, D, upper, method",
    [
        (((3,),), ((0,),), 1, "clique"),
        (((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 0),), 1, "clique"),
    ],
)
def test_nstar_without_zeros_off_the_plane(M, D, upper, method):
    # a single digit has no mask zeros, so no candidate and no edge
    out = nstar_bounds(DigitSystem(M, D), 3)
    zero = (Fraction(0),) * len(M)
    assert (out.lower, out.upper, out.method) == (1, upper, method)
    assert out.witness == (zero,)
    assert out.search_nodes == 2 and out.search_complete
    eng = measure(M, D)
    vertices = [(0,) * len(M), (1,) * len(M), (5,) + (0,) * (len(M) - 1)]
    assert eng.orthogonality_graph(vertices) == [0, 0, 0]
    assert eng.membership(vertices[1], 1) is None


def test_measure_refuses_zeros_off_the_plane(monkeypatch):
    # the mask zeros 1/4 and 3/4 of {0, 2}, complete but one-dimensional:
    # the walk has only a planar step
    zs = ZeroSet(4, ((1,), (3,)), complete=True)
    monkeypatch.setattr(zeros, "zero_set", lambda D: zs)
    with pytest.raises(WrongDimension, match="plane"):
        measure(((4,),), ((0,), (2,)))


def test_nstar_inapplicable_when_det_shares_p():
    # 3I maps the zeros (1/3, 2/3) and (2/3, 1/3) into Z^2 at once
    out = nstar_bounds(DigitSystem(M3, THREE), 3, J=2, R=0)
    assert out.upper is None and out.method == "infinite"
    assert out.lower == 5
    assert out.witness == (
        (0, 0),
        (1, 2),
        (2, 1),
        (3, 6),
        (6, 3),
    )


def test_nstar_family_cap_without_grid_zeros():
    # zeros of the stretched digits leave the (1/3)-grid (q = 6); their
    # orbit reaches 0 mod 2, and mod 3 it is all of the punctured (Z/3)^2
    out = nstar_bounds(DigitSystem(SKEW, STRETCH), 3, J=2, R=1)
    assert out.method == "clique" and out.upper == 9
    assert out.lower >= 3


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def max_clique_reference(adj, node_budget):
    """The recursive branch and bound that _max_clique replaced: colors
    each node's candidates vertex by vertex first-fit, sorts them by color
    and recurses per branch. A stopped search returns the longer of the
    best clique and the path to the node that went over the budget."""
    best, path = [], None
    nodes = 0

    def expand(P, clique):
        nonlocal best, path, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            path = clique.copy()
            return
        if P == 0:
            if len(clique) > len(best):
                best = clique.copy()
            return
        color, classes = {}, []
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
            if path is not None:
                return

    expand((1 << len(adj)) - 1, [])
    if path is None:
        return best, nodes, True
    return max(best, path, key=len), nodes, False


@st.composite
def symmetric_graphs(draw):
    """Adjacency bitmasks of a random simple graph on 0-30 vertices, its
    edge density drawn too."""
    n = draw(st.integers(0, 30))
    density = draw(st.floats(0, 1))
    rng = draw(st.randoms(use_true_random=False))
    adj = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


@settings(max_examples=400, deadline=None)
@given(symmetric_graphs(), st.one_of(st.none(), st.integers(0, 50)))
def test_max_clique_matches_the_recursive_reference(adj, budget):
    best, nodes, complete = _max_clique(adj, budget)
    assert (best, nodes, complete) == max_clique_reference(adj, budget)
    assert all(adj[u] >> v & 1 for u in best for v in best if u != v)


@settings(max_examples=300, deadline=None)
@given(symmetric_graphs())
def test_max_clique_stops_at_a_proven_target(adj):
    # with the clique number as target, the first maximum found is kept
    best, nodes, _ = max_clique_reference(adj, None)
    got, got_nodes, complete = _max_clique(adj, None, len(best))
    assert (got, complete) == (best, True) and got_nodes <= nodes


def test_nstar_stops_at_the_upper_bound():
    # at the default window J = 16 the search without a target ran into the
    # 500,000-node budget with lower 9 = upper 9; the bound proves a first
    # 9-clique maximal, here among the zero images of 2 shells, searched in
    # 10 nodes after 8 on one shell
    out = nstar_bounds(DigitSystem(((-4, -1), (3, 2)), ((2, 2), (4, 1), (0, 0))), 3)
    assert (out.lower, out.upper, out.method) == (9, 9, "clique")
    assert (out.search_nodes, out.search_complete) == (18, True)
    digest = hashlib.sha256(repr(out.witness).encode()).hexdigest()
    assert digest == "67eb9f9223ccd8b01145116380560f64a85c25235dae498272f670c5508a0f5d"


@settings(max_examples=40, deadline=None)
@given(planar_systems(), st.integers(1, 4), st.integers(0, 1))
def test_nstar_staged_windows_match_the_whole_window(system, J, R):
    # the zero images of 1, 2, 4, ... shells first, then (J, 0) and (J, R):
    # the same lower bound as one exact search of the whole window (J, R)
    M, D = system
    assume(not has_infinite_orthogonal(DigitSystem(M, D))[0])
    out = nstar_bounds(DigitSystem(M, D), J=J, R=R)
    eng = measure(M, D)
    vertices = [(0, 0)] + eng.window(J, R)
    best, _, complete = _max_clique(eng.orthogonality_graph(vertices), None)
    assert complete and out.lower == len({0, *best}) <= out.upper
    q = eng.q
    family = [tuple(int(c * q) for c in f) for f in out.witness]
    assert family[0] == (0, 0) and eng.first_failing_pair(family, q) is None
    if out.lower == out.upper:
        assert out.search_complete


def test_nstar_offset_window_raises_a_finite_lower_bound():
    # the one system of a census of 1,235 seeded finite planar systems on
    # which the zero images (J, 0) fell short of the upper bound and the
    # offsets (J, R) raised the lower bound, so the offset window is kept
    M, D = ((-5, -3), (9, 4)), ((0, 0), (-6, 3), (6, 1), (0, -4))
    whole = nstar_bounds(DigitSystem(M, D), 2)
    images = nstar_bounds(DigitSystem(M, D), 2, R=0)
    assert (images.lower, whole.lower, whole.upper) == (14, 16, 136)


def test_max_clique_beyond_the_recursion_limit():
    # one search node per member: deeper than the interpreter's recursion
    # limit, which stopped the recursive search with RecursionError
    n = 1500
    full = (1 << n) - 1
    best, nodes, complete = _max_clique([full ^ (1 << i) for i in range(n)], None)
    assert sorted(best) == list(range(n))
    assert (nodes, complete) == (n + 1, True)


def test_nstar_budget_truncation():
    # a stopped search keeps the longer of its best clique and its current
    # path, and frequency 0, joined to every candidate: here the path down
    # the first branch, one member per search node, then frequency 0; from
    # budget 8 that family reaches the upper bound 9, which proves it maximum.
    # Each of the windows of 1, 2, 4 and 8 shells spends up to the budget;
    # their full searches take 4, 4, 6 and 10 nodes, the last one decides
    nodes = [4, 8, 12, 16, 18, 20, 21, 22, 23, 24]
    for budget in range(10):
        out = nstar_bounds(DigitSystem(SKEW, THREE), 3, J=8, R=0, node_budget=budget)
        assert out.search_nodes == nodes[budget]
        family = out.witness
        assert out.lower == min(budget + 1, 9) == len(family)
        assert out.upper == 9 and out.search_complete == (out.lower == 9)
        assert family[0] == (0, 0)
        assert all(
            zero_membership(DigitSystem(SKEW, THREE), tuple(map(sub, a, b))) is not None
            for i, a in enumerate(family)
            for b in family[:i]
        )


def test_nstar_validations():
    with pytest.raises(ValueError, match="at least 2"):
        nstar_bounds(DigitSystem(M3, THREE), 1)
    with pytest.raises(ValueError, match="the default window J needs p"):
        nstar_bounds(DigitSystem(M3, THREE))
    # with J given, p sets nothing, so a composite p is no refusal
    assert nstar_bounds(DigitSystem(M3, THREE), 4, J=2, R=1) == nstar_bounds(DigitSystem(M3, THREE), 3, J=2, R=1)
    with pytest.raises(ValueError):
        nstar_bounds(DigitSystem(M3, THREE), 3, J=0)
    with pytest.raises(ValueError):
        nstar_bounds(DigitSystem(M3, THREE), 3, R=-1)
    with pytest.raises(ValueError, match="budget"):
        nstar_bounds(DigitSystem(M3, THREE), 3, node_budget=-1)
    # a zero budget is an honest, truncated search
    assert not nstar_bounds(DigitSystem(SKEW, THREE), 3, J=8, R=0, node_budget=0).search_complete


def test_transport_identity_witness():
    rep = transport_inclusion_check(DigitSystem(SKEW, THREE), None, ((1, 0), (0, 1)), 3, J=4)
    assert rep.ok
    assert rep.c1 == 11**16 and rep.c2 == 11**16
    assert rep.conjugate_matrix == SKEW and rep.conjugate_digits == THREE
    assert len(rep.forward_hits) == 2 * 4 and len(rep.backward_hits) == 2 * 4
    assert all(hit[2] >= 1 for hit in rep.forward_hits + rep.backward_hits)
    assert rep.c1 % 3 == 1 and rep.c2 % 3 == 1


def test_transport_mode_b_fixture():
    B = ((1, 0), (0, 2))
    rep = transport_inclusion_check(DigitSystem(SKEW, STRETCH), None, B, 3, J=4, mode="b")
    assert rep.ok
    assert rep.conjugate_matrix == ((3, 2), (2, 16))
    assert rep.conjugate_digits == THREE
    assert rep.c1 == 4 * 44**16 and rep.c2 == 11**16
    assert rep.c1 % 3 == 1 and rep.c2 % 3 == 1


def test_transport_mode_a_fixture():
    B = ((1, 0), (1, 1))
    rep = transport_inclusion_check(DigitSystem(SKEW, THREE), None, B, 3, J=4, mode="a")
    assert rep.ok
    assert rep.conjugate_matrix == ((4, 1), (13, 6))
    assert rep.conjugate_digits == ((0, 0), (1, 2), (0, 1))
    assert rep.c1 == 11**16 and rep.c2 == 11**16


def test_transport_explicit_witness():
    # a non-canonical A reaches the report through make_conjugate
    B, A = ((1, 0), (0, 2)), ((4, 0), (0, 5))
    rep = transport_inclusion_check(DigitSystem(SKEW, STRETCH), A, B, 3, J=4, mode="b")
    assert rep.ok
    assert rep.conjugate_matrix == make_conjugate(SKEW, STRETCH, B, 3, A=A).Mt
    assert rep.conjugate_matrix == ((12, 8), (5, 40))
    assert rep.c1 == 20 * 2 * 440**16 and rep.c1 % 3 == 1


def test_transport_validations():
    with pytest.raises(HypothesisViolation):
        transport_inclusion_check(DigitSystem(M3, THREE), None, ((1, 0), (0, 1)), 3)
    with pytest.raises(HypothesisViolation):
        transport_inclusion_check(DigitSystem(SKEW, STRETCH), None, ((1, 0), (0, 1)), 3)
    with pytest.raises(HypothesisViolation):
        transport_inclusion_check(
            DigitSystem(SKEW, THREE), ((1, 0), (1, 1)), ((1, 0), (1, 1)), 3
        )
    with pytest.raises(NonIntegerDigits):
        transport_inclusion_check(DigitSystem(SKEW, THREE), None, ((1, 0), (0, 2)), 3, mode="b")
    with pytest.raises(ValueError):
        transport_inclusion_check(DigitSystem(SKEW, THREE), None, ((1, 0), (0, 1)), 6)
    with pytest.raises(ValueError):
        transport_inclusion_check(DigitSystem(SKEW, THREE), None, ((1, 0), (0, 1)), 3, J=0)
    with pytest.raises(ValueError):
        transport_inclusion_check(DigitSystem(SKEW, THREE), None, ((1, 0), (0, 1)), 3, mode="x")


def test_certificate_plain_scale():
    M = ((4, 1), (2, 5))
    cert = nonspectral_certificate(DigitSystem(M, THREE), 1, 2)
    assert cert.difference_closure and cert.window_empty and cert.tail_integral
    assert cert.valid and cert.verdict == "NonSpectral"
    assert suggest_certificate(DigitSystem(M, THREE)) == (1, 2)


def test_certificate_plain_scale_perturbations():
    M = ((4, 1), (2, 5))
    c3 = nonspectral_certificate(DigitSystem(M, THREE), 3, 2)
    assert not c3.difference_closure and not c3.window_empty
    assert c3.tail_integral and not c3.valid


def test_certificate_stretched_digits():
    M = ((4, 2), (1, 5))
    cert = nonspectral_certificate(DigitSystem(M, STRETCH), 64, 2)
    assert cert.valid
    assert suggest_certificate(DigitSystem(M, STRETCH)) == (64, 2)
    off = nonspectral_certificate(DigitSystem(M, STRETCH), 65, 2)
    assert not off.difference_closure and off.window_empty
    assert not off.tail_integral and not off.valid


@pytest.mark.parametrize(
    "M, D, L, j0",
    [
        (((4, 1), (2, 5)), THREE, Fraction(1, 3), 2),
        (((0, 10), (9, 0)), FOUR, Fraction(4, 5), 4),
        (((-1, -1), (2, -2)), THREE, Fraction(3, 3001), 4),
        (M3, THREE, 0, 2),
        (M3, THREE, -2, 2),
    ],
)
def test_certificate_refuses_a_scale_that_is_not_a_positive_integer(M, D, L, j0):
    # only a positive integer keeps the integer lattice, as the closure
    # needs; any other scale is refused as given, and before the tail level
    # (j0 = 1), a singular M and an incomplete zero set
    refused = [(M, D, j0), (M, D, 1), (((1, 2), (2, 4)), D, j0), (M, ((0, 0), (1, 1)), j0)]
    for M, D, j0 in refused:
        with pytest.raises(ValueError) as exc:
            nonspectral_certificate(DigitSystem(M, D), L, j0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "scale L must be a positive integer"


def test_certificate_validations():
    with pytest.raises(ValueError):
        nonspectral_certificate(DigitSystem(M3, THREE), 1, 1)
    with pytest.raises(IncompleteZeroSet):
        nonspectral_certificate(DigitSystem(M3, ((0, 0), (1, 1))), 1, 2)


def fraction_certificate(M, D, L, j0):
    """Reference: the three certificate parts computed on the Fraction zero
    points, through reduce_mod1 and Fraction denominators, as the library
    did before its parts became integer tests on the residues."""
    L = Fraction(L)
    zs = zero_set(D)
    n = len(M)
    pts = zs.points
    zset = frozenset(pts)

    # (a) closure of scaled differences
    if L.denominator != 1:
        difference_closure = False
    else:
        closure_ok = True
        witness_nonint = False
        for z in pts:
            for zp in pts:
                w = tuple(a - b for a, b in zip(z, zp))
                scaled_int = all((L * c).denominator == 1 for c in w)
                if not scaled_int:
                    witness_nonint = True
                    if reduce_mod1(w) not in zset:
                        closure_ok = False
        difference_closure = closure_ok and witness_nonint

    # (b) empty window below j0
    u = L.numerator
    v = L.denominator
    Mt = transpose(M)
    window_empty = True
    P = identity(n)
    for _ in range(1, j0):
        P = mat_mul(Mt, P)
        Pv = mat_mod(P, v) if v > 1 else None
        for z in pts:
            scaled = [u * c for c in mat_vec(P, z)]
            if any(c.denominator != 1 for c in scaled):
                continue
            if v == 1:
                window_empty = False
                break
            target = tuple((-int(c)) % v for c in scaled)
            for k in product(range(v), repeat=n):
                img = tuple((u * x) % v for x in mat_vec(Pv, k))
                if img == target:
                    window_empty = False
                    break
            if not window_empty:
                break
        if not window_empty:
            break

    # (c) integral tail at j0
    T = mat_pow(Mt, j0)
    tail_integral = all((L * x).denominator == 1 for row in T for x in row)
    if tail_integral:
        for z in pts:
            img = mat_vec(T, z)
            if any((L * c).denominator != 1 for c in img):
                tail_integral = False
                break
    return difference_closure, window_empty, tail_integral


scales = st.one_of(
    st.integers(1, 40),
    st.sampled_from([64, 81, 144, 243, 729, 1728]),
)


@settings(max_examples=150, deadline=None)
@given(planar_systems(), scales, st.integers(2, 5))
def test_certificate_matches_fraction_reference(system, L, j0):
    M, D = system
    cert = nonspectral_certificate(DigitSystem(M, D), L, j0)
    parts = (cert.difference_closure, cert.window_empty, cert.tail_integral)
    assert parts == fraction_certificate(M, D, L, j0)
    assert cert.valid == all(parts) and cert.L == L and cert.j0 == j0


@pytest.mark.parametrize(
    "M, D, L, j0",
    [
        (((4, 1), (2, 5)), THREE, 1, 2),
        (((4, 1), (2, 5)), THREE, 3, 2),
        # an integral Fraction, as the CLI reads L, is an integer scale
        (((4, 1), (2, 5)), THREE, Fraction(2), 2),
        (((4, 2), (1, 5)), STRETCH, 64, 2),
        (((4, 2), (1, 5)), STRETCH, 65, 3),
        (((-3, 4), (-6, 1)), ((3, 1), (15, -4), (7, -11), (-13, 18)), 4, 3),
        (((0, 10), (9, 0)), FOUR, Fraction(4), 4),
    ],
)
def test_certificate_matches_fraction_reference_fixed(M, D, L, j0):
    cert = nonspectral_certificate(DigitSystem(M, D), L, j0)
    parts = (cert.difference_closure, cert.window_empty, cert.tail_integral)
    assert parts == fraction_certificate(M, D, L, j0)


@settings(max_examples=100, deadline=None)
@given(planar_systems(expanding=False), st.data())
def test_certificate_window_matches_enumeration(system, data):
    # the residue-shell window test against the reference's window; any
    # integer M is drawn, and a singular or non-expanding one is refused,
    # as the measure does not exist; a scale L with q | L makes every
    # L P r / q integral
    M, D = system
    q = zero_set(D).q
    L = data.draw(st.integers(1, 30)) * data.draw(st.sampled_from([1, q]))
    j0 = data.draw(st.integers(2, 4))
    if det(M) == 0:
        with pytest.raises(SingularMatrix, match="expanding map must be invertible"):
            nonspectral_certificate(DigitSystem(M, D), L, j0)
    elif not is_expanding(M):
        with pytest.raises(HypothesisViolation, match=NOT_EXPANDING):
            nonspectral_certificate(DigitSystem(M, D), L, j0)
    else:
        cert = nonspectral_certificate(DigitSystem(M, D), L, j0)
        assert cert.window_empty == fraction_certificate(M, D, L, j0)[1]


def test_certificate_holds_no_memory_once_it_returns():
    # the window's residue shells grow with the level; each is dropped once
    # the next is built, and nothing keeps the digit system after the call
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = nonspectral_certificate(DigitSystem(SKEW, THREE), 1, 2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cert.window_empty and held < 1 << 20


def test_digit_dimension_must_match_the_map():
    # a one-dimensional digit set under a planar map, and the reverse
    M, D = ((2, 0), (0, 2)), ((5,),)
    message = "digit dimension does not match the map"
    with pytest.raises(WrongDimension, match=message):
        nstar_bounds(DigitSystem(M, D), 3, J=1, R=0)
    with pytest.raises(WrongDimension, match=message):
        has_infinite_orthogonal(DigitSystem(M, D))
    with pytest.raises(WrongDimension, match=message):
        nonspectral_certificate(DigitSystem(M, D), 1, 2)
    with pytest.raises(WrongDimension, match=message):
        zero_membership(DigitSystem(((3,),), THREE), (1,))


def test_suggest_certificate_none_cases():
    # spectral systems enter at level one; this one never enters at all
    assert suggest_certificate(DigitSystem(M3, THREE)) is None
    assert suggest_certificate(DigitSystem(SKEW, THREE)) is None


def loop_certificate(M, D, max_j=64):
    """Reference for suggest_certificate: the criterion sequence
    (A M B)^{T j} (1, -1) on unreduced integers, up to a 64-step cap."""
    res = spectrality_criterion(DigitSystem(M, D))
    MtT = transpose(res.Mt)
    w = (1, -1)
    for j in range(1, max_j + 1):
        w = mat_vec(MtT, w)
        if all(x % 3 == 0 for x in w):
            break
    else:
        return None
    if j < 2:
        return None
    return (abs(det(res.A) * det(res.B)) ** (j + 1), j)


def orbit_certificate(M, D):
    """Reference for suggest_certificate: j0 is the level at which the
    orbit of the conjugate's zeros mod 3 reaches 0 (DigitSystem.orbit)."""
    res = spectrality_criterion(DigitSystem(M, D))
    j0 = DigitSystem(res.Mt, THREE).orbit(3)[1]
    if j0 is None or j0 < 2:
        return None
    return (abs(det(res.A) * det(res.B)) ** (j0 + 1), j0)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


coarse = st.integers(-6, 6)
digit = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
any_planar_three = st.tuples(
    st.tuples(st.tuples(coarse, coarse), st.tuples(coarse, coarse)),
    st.tuples(digit, digit, digit),
)


@settings(max_examples=400, deadline=None)
@given(any_planar_three)
@example((((4, 1), (2, 5)), THREE))  # level 2
@example((((3, 1), (0, 3)), THREE))  # det M = 0 mod 3
@example((((4, 1), (2, 5)), ((0, 0), (1, 0), (0, 3))))  # frame singular mod 3
@example((((4, 1), (2, 5)), ((0, 0), (1, 1), (2, 2))))  # collinear digits
@example((((1, 1), (0, 2)), THREE))  # not expanding
@example((((4, 1), (2, 5)), ((0, 0), (1, 0), (1, 0))))  # repeated digit
def test_suggest_certificate_matches_the_step_loop(system):
    # the closed form, the capped loop and the orbit of the conjugate's
    # zeros mod 3 agree; a refusal comes from the criterion in each
    M, D = system
    suggested = _outcome(lambda: suggest_certificate(DigitSystem(M, D)))
    assert suggested == _outcome(loop_certificate, M, D) == _outcome(orbit_certificate, M, D)


def test_suggest_certificate_matches_the_orbit_level_on_every_residue_matrix():
    # the level depends only on A M B mod 3, which is M mod 3 for D = THREE
    # (A = B = I); by Gershgorin the offset 6 I keeps every map expanding
    levels = set()
    for a, b, c, d in product(range(3), repeat=4):
        M = ((a + 6, b), (c, d + 6))
        assert suggest_certificate(DigitSystem(M, THREE)) == orbit_certificate(M, THREE), M
        levels.add(orbit_certificate(M, THREE))
    assert levels == {None, (1, 2)}


def test_suggest_certificate_builds_no_zero_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("zero_set called")

    monkeypatch.setattr(zeros, "zero_set", refuse)
    assert suggest_certificate(DigitSystem(((4, 1), (2, 5)), THREE)) == (1, 2)
    assert suggest_certificate(DigitSystem(((4, 2), (1, 5)), STRETCH)) == (64, 2)
    assert suggest_certificate(DigitSystem(M3, THREE)) is None
    assert suggest_certificate(DigitSystem(SKEW, THREE)) is None


@settings(max_examples=300, deadline=None)
@given(any_planar_three)
def test_criterion_is_spectral_iff_the_conjugate_orbit_level_is_one(system):
    # (A M B)^T (1, -1) in 3Z^2, the paper's mod-3 rule, against the level
    # at which DigitSystem's orbit of the zeros (1, 2)/3, (2, 1)/3 of
    # {0, e1, e2} under (A M B)^T reaches 0 mod 3
    M, D = system
    res = _outcome(lambda: spectrality_criterion(DigitSystem(M, D)))
    assume(isinstance(res, SpectralityVerdict))
    level = DigitSystem(res.Mt, THREE).orbit(3)[1]
    assert (res.verdict == "Spectral") == (level == 1)


def per_zero_orbit_walk(M, D):
    """Reference for has_infinite_orthogonal: each mask zero's residue
    orbit under M^T mod q, walked with its own seen set."""
    zs = zero_set(D)
    Mt = tuple(zip(*M))
    q = zs.q
    best = None
    for x in zs.residues:
        seen = set()
        j = 0
        while x not in seen:
            seen.add(x)
            x = tuple(sum(m * c for m, c in zip(row, x)) % q for row in Mt)
            j += 1
            if not any(x):
                if best is None or j < best:
                    best = j
                break
            if best is not None and j >= best:
                break
    return (best is not None, best)


@settings(max_examples=150, deadline=None)
@given(planar_systems())
def test_has_infinite_orthogonal_matches_per_zero_walk(system):
    M, D = system
    assert has_infinite_orthogonal(DigitSystem(M, D)) == per_zero_orbit_walk(M, D)


@pytest.mark.parametrize(
    "M, D",
    [
        # 372 zeros with q = 248: 11,532 residues on 345,620 reference steps
        (((-3, 4), (-6, 1)), ((3, 1), (15, -4), (7, -11), (-13, 18))),
        (SKEW, THREE),
        (((4, 1), (2, 5)), THREE),
    ],
)
def test_has_infinite_orthogonal_matches_per_zero_walk_fixed(M, D):
    assert has_infinite_orthogonal(DigitSystem(M, D)) == per_zero_orbit_walk(M, D)


def fraction_orbit_level(M, D):
    """Reference for the witness level: the least j <= q^2 at which some
    M^{T j} z is integral, iterating each mask zero z in Fractions mod Z^2
    and ending early once a point repeats."""
    zs = zero_set(D)
    Mt = tuple(zip(*M))
    best = None
    for z in zs.points:
        x, seen = z, set()
        for j in range(1, zs.q**2 + 1):
            x = tuple(sum(m * c for m, c in zip(row, x)) % 1 for row in Mt)
            if not any(x):
                best = j if best is None else min(best, j)
                break
            if x in seen:
                break
            seen.add(x)
    return best


def residue_orbit_closure(M, D):
    """Reference for DigitSystem.orbit's set: every M^{T j} r mod q, j >= 1,
    followed from each residue r on its own until it repeats."""
    zs = zero_set(D)
    Mt = tuple(zip(*M))
    q = zs.q
    U = set()
    for x in zs.residues:
        while True:
            x = tuple(sum(m * c for m, c in zip(row, x)) % q for row in Mt)
            if x in U:
                break
            U.add(x)
    return U


@settings(max_examples=60, deadline=None)
@given(planar_systems())
def test_orbit_matches_fraction_iteration(system):
    M, D = system
    level = fraction_orbit_level(M, D)
    assert has_infinite_orthogonal(DigitSystem(M, D)) == (level is not None, level)
    eng = measure(M, D)
    U, first = eng.orbit(eng.q)
    assert first == level
    assert U == residue_orbit_closure(M, D)
    # the orbit mod each divisor m of q is U mod m, its level None exactly
    # when 0 is not in it
    for m in range(1, eng.q + 1):
        if eng.q % m == 0:
            Um, first_m = eng.orbit(m)
            assert Um == {tuple(c % m for c in u) for u in U}
            assert (first_m is None) == ((0, 0) not in Um)


def _old_clique_upper(M, zs, p):
    """The former Cayley-graph bound, valid when det M is prime to p and
    the zeros lie on the punctured (1/p)-grid: the clique number of the
    graph on all of (Z/p)^n joined by the orbit of the zero classes."""
    zbar = {tuple(v * (p // zs.q) for v in r) for r in zs.residues}
    Mbar = mat_mod(transpose(M), p)
    U, cur = set(), zbar
    for _ in range(order_mod(transpose(M), p)):
        cur = {tuple(x % p for x in mat_vec(Mbar, v)) for v in cur}
        U |= cur
    vertices = list(product(range(p), repeat=len(M)))
    adj = [
        sum(
            1 << j
            for j, b in enumerate(vertices)
            if tuple((x - y) % p for x, y in zip(a, b)) in U
        )
        for a in vertices
    ]
    best, _, complete = _max_clique(adj, None)
    assert complete
    return len(best)


def _old_family_upper_applies(D, p):
    """The former p^n cap's digit hypotheses: a three-digit frame
    invertible mod 3, or an antipodal four-digit frame of odd det."""
    if len(D) == 3 and p == 3:
        return det(three_digit_frame(D)) % 3 != 0
    if len(D) == 4 and p == 2:
        B = four_digit_frame(D)
        return B is not None and det(B) % 2 != 0
    return False


def old_upper(M, D, p):
    """(upper, method) of the former three-branch rule."""
    zs = zero_set(D)
    if det(M) % p != 0 and zero_set_in_punctured_grid(zs, p):
        return _old_clique_upper(M, zs, p), "clique"
    if det(M) % p != 0 and _old_family_upper_applies(D, p):
        return p**2, "trivial_pn"
    return None, "inapplicable"


@settings(max_examples=60, deadline=None)
@given(planar_systems(), st.sampled_from([2, 3]))
def test_nstar_upper_against_the_former_rule(system, p):
    M, D = system
    out = nstar_bounds(DigitSystem(M, D), p, J=2, R=0)
    infinite, _ = has_infinite_orthogonal(DigitSystem(M, D))
    assert (out.upper is None) == infinite
    assert out.method == ("infinite" if infinite else "clique")
    if not infinite:
        assert out.upper >= out.lower
    before, method = old_upper(M, D, p)
    if before is not None:
        assert out.upper is not None and out.upper <= before
        if method == "clique":
            assert out.upper == before


@pytest.mark.parametrize(
    "M, D, p, before",
    [
        (SKEW, THREE, 3, (9, "clique")),
        (((2, 0), (0, 2)), THREE, 3, (3, "clique")),
        (SKEW, STRETCH, 3, (9, "trivial_pn")),
        (((3, 0), (0, 3)), FOUR, 2, (4, "clique")),
        (M3, THREE, 3, (None, "inapplicable")),
    ],
)
def test_former_rule_reference_fixed(M, D, p, before):
    assert old_upper(M, D, p) == before


@pytest.mark.parametrize(
    "M, D, p, upper",
    [
        (SKEW, THREE, 3, 9),
        # q = 12; the orbit reaches 0 mod 2, and mod 3 it is (1,0), (2,0),
        # (1,1), (2,2): two disjoint edges, clique number 2
        (((-1, -1), (2, -2)), ((0, 0), (-2, 0), (1, -2)), 3, 3),
    ],
)
def test_nstar_upper_ignores_the_node_budget(M, D, p, upper):
    # the budget stops the lower search only; the upper search on the
    # prime-step graphs runs to the end, as the p^n clique search did
    out = nstar_bounds(DigitSystem(M, D), p, J=1, R=0, node_budget=1)
    assert not out.search_complete
    assert (out.upper, out.method) == (upper, "clique")
    assert nstar_bounds(DigitSystem(M, D), p, J=1, R=0).upper == upper


def least_orbit_modulus(M, D):
    """The least divisor m of q with 0 not in U mod m and U mod m, from the
    brute-force orbit; None when 0 is in U."""
    U = residue_orbit_closure(M, D)
    q = zero_set(D).q
    for m in range(2, q + 1):
        Um = {tuple(c % m for c in u) for u in U}
        if q % m == 0 and (0, 0) not in Um:
            return m, Um
    return None


@pytest.mark.parametrize(
    "M, D, q, m, upper",
    [
        # the prime steps count 4 = 2 * 2, the clique count mod 4, under
        # 1 + |U mod 4| = 7
        (((-3, -2), (-4, 1)), ((0, 0), (0, 1), (2, 3), (-2, -4)), 4, 4, 4),
        # three steps count 8 under 1 + |U mod 8| = 13; the clique count
        # mod 8 is 4
        (((3, 4), (0, -3)), ((0, 0), (1, 2), (-1, 2), (0, -4)), 8, 8, 8),
        # the steps count 64, over 1 + |U mod 8| = 34 (|U| = 99)
        (((-2, -1), (-1, -5)), ((0, 0), (-3, -4), (3, 0), (0, 4)), 24, 8, 34),
        # 0 in U mod every proper divisor of q = 32 and q = 128: the steps
        # count more than 1 + |U mod q| = 514 and 4,120
        (((-1, -3), (-5, -4)), ((0, 0), (0, -4), (-4, 1), (4, 3)), 32, 32, 514),
        (((-6, 9), (7, 9)), ((0, 0), (4, -8), (-7, -2), (3, 10)), 128, 128, 4120),
    ],
)
def test_nstar_upper_on_a_prime_power(M, D, q, m, upper):
    assert measure(M, D).q == q and least_orbit_modulus(M, D)[0] == m
    out = nstar_bounds(DigitSystem(M, D), 2, J=1, R=0)
    assert (out.upper, out.method) == (upper, "clique")
    assert out.lower <= upper


@settings(max_examples=60, deadline=None)
@given(planar_systems())
def test_nstar_upper_bounds_the_clique_count_mod_m(system):
    # the prime-step product bounds every clique of the Cayley graph of
    # (Z/m)^2 on U mod m, and is its clique count when m is prime
    M, D = system
    found = least_orbit_modulus(M, D)
    assume(found is not None)
    m, Um = found
    assume(len(Um) <= 80)
    V = sorted(Um)
    adj = [
        sum(
            1 << j
            for j, v in enumerate(V)
            if tuple((a - b) % m for a, b in zip(u, v)) in Um
        )
        for u in V
    ]
    best, _, complete = _max_clique(adj, None)
    assert complete
    upper = nstar_bounds(DigitSystem(M, D), 2, J=1, R=0).upper
    assert 1 + len(best) <= upper <= 1 + len(Um)
    if all(m % d for d in range(2, m)):
        assert upper == 1 + len(best)
