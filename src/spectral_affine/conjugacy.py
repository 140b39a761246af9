"""Residue classification mod 3 and GL_n(p) conjugacy of digit systems.

Planar expanding integer matrices are classified by their residue mod 3
into three families that govern how many mutually orthogonal exponentials
the associated three-digit measures admit: the family whose two rows agree
mod 3 (label "M1", the spectral case), the twelve order-eight residues of
determinant 2 mod 3 (label "M2", where nine orthogonal exponentials are
attained), and everything else. The conjugacy machinery moves a digit
system (M, D) to (A M B, D~) through a witness pair A B = I mod p. When
the mask zeros of D lie in the punctured (1/p)-grid, the similarity
carries spectra across (Conjugacy.transport checks that hypothesis and
re-verifies what it moves); it does not preserve admissibility in
general.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import (
    BadDigitForm,
    DegenerateDigits,
    HypothesisViolation,
    NonIntegerDigits,
    SingularModP,
    WrongDimension,
)
from .hadamard import FrequencySet, verify_triple
from .linalg import (
    Matrix,
    as_matrix,
    det,
    det_and_adjugate,
    gl_inverse_mod,
    identity,
    is_prime,
    mat_mod,
    mat_mul,
    mat_vec,
    transpose,
)
from .zeros import (
    DigitSet,
    DigitSystem,
    as_digit_set,
    three_digit_frame,
    zero_set_in_punctured_grid,
)


def sierpinski_class(M: Matrix) -> str:
    """The residue class of a planar matrix mod 3. "M1": the rows agree
    mod 3, spectral_residue_criterion. "M2": det 2 and trace t nonzero mod
    3, the order-eight part of GL_2(3), as x^2 - t x - 1 is irreducible iff
    t != 0. "Other" otherwise."""
    M = as_matrix(M)
    if len(M) != 2:
        raise WrongDimension("residue classification is defined for 2x2 matrices")
    if spectral_residue_criterion(M):
        return "M1"
    (a, b), (c, d) = M
    if (a * d - b * c) % 3 == 2 and (a + d) % 3:
        return "M2"
    return "Other"


def spectral_residue_criterion(M: Matrix) -> bool:
    """Whether M^T (1, -1) lies in 3Z^2, i.e. the rows of M agree mod 3."""
    M = as_matrix(M)
    if len(M) != 2:
        raise WrongDimension("criterion is defined for 2x2 matrices")
    v = mat_vec(tuple(zip(*M)), (1, -1))
    return all(x % 3 == 0 for x in v)


class SpectralityVerdict(NamedTuple):
    verdict: str  # "Spectral" or "NonSpectral"
    A: Matrix
    B: Matrix
    Mt: Matrix  # A M B, whose rows the criterion compares mod 3


def spectrality_criterion(system: DigitSystem) -> SpectralityVerdict:
    """Decide spectrality for a planar three-digit system.

    The digit set must consist of three points whose difference frame
    B = [d1-d0 | d2-d0] is invertible mod 3; a translate of {0, alpha, beta}
    is accepted since translating digits changes neither the mask zeros nor
    spectrality. The system's expanding gate refuses a map with no measure.
    With A the canonical mod-3 inverse of B, the measure is spectral iff the
    rows of A M B agree mod 3.
    """
    if system.n != 2:
        raise WrongDimension("criterion is defined in the plane")
    if len(system.D) != 3:
        raise BadDigitForm("criterion needs exactly three digits")
    system.expanding
    B = three_digit_frame(system.D)
    try:
        A = gl_inverse_mod(B, 3)
    except SingularModP:
        raise DegenerateDigits("digit difference frame is singular mod 3") from None
    Mt = mat_mul(mat_mul(A, system.M), B)
    verdict = "Spectral" if spectral_residue_criterion(Mt) else "NonSpectral"
    return SpectralityVerdict(verdict=verdict, A=A, B=B, Mt=Mt)


def divide_digits(D: DigitSet, B: Matrix) -> DigitSet:
    """The digit set B^{-1} D, which must be integral."""
    dB, adjB = det_and_adjugate(B)
    new = []
    for d in D:
        w = mat_vec(adjB, d)
        if any(x % dB != 0 for x in w):
            raise NonIntegerDigits(
                "digit set is not divisible by B; conjugacy mode 'b' fails"
            )
        new.append(tuple(x // dB for x in w))
    return as_digit_set(new)


class Conjugacy(NamedTuple):
    """The similarity (M, D) -> (Mt, Dt) = (A M B, D~) for A B = I (mod p).

    mode "b": the digits satisfy D = B Dt; mode "a": Dt = A D. Only
    integers are held, so building the value costs no zero set.
    """

    M: Matrix
    D: DigitSet
    p: int
    A: Matrix
    B: Matrix
    mode: str
    Mt: Matrix
    Dt: DigitSet

    def transport(
        self, S: Sequence[Sequence[int]], direction: str = "forward"
    ) -> FrequencySet:
        """Move a spectrum S of (M, D) to one of (Mt, Dt), or back.

        Forward maps s to det A det B B^T s; backward maps t to
        |det B|^phi(p) B^{-T} t, which is integral. The transport is valid
        when the mask zeros of the original D lie in the punctured
        (1/p)-grid: a zero x then comes back as adj(AB)^T x in mode "b",
        or as c x with c = 1 (mod p) in mode "a", both congruent to x mod
        Z^n since adj(AB) = I (mod p). The hypothesis and S itself are
        checked first, and the moved set is re-verified.
        """
        if direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        src = DigitSystem(self.M, self.D)
        if not zero_set_in_punctured_grid(src.zs, self.p):
            raise HypothesisViolation(
                "mask zeros of D must lie in the punctured (1/p)-grid"
            )
        dst = DigitSystem(self.Mt, self.Dt)
        dB, adjB = det_and_adjugate(self.B)
        if direction == "forward":
            T, scale = transpose(self.B), det(self.A) * dB
        else:
            src, dst = dst, src
            # phi(p) = p - 1 >= 1, so det B divides |det B|^phi(p)
            T, scale = transpose(adjB), abs(dB) ** (self.p - 1) // dB
        if not verify_triple(src, S):
            raise HypothesisViolation("S is not a spectrum of the source system")
        out = tuple(tuple(scale * x for x in mat_vec(T, s)) for s in S)
        if not verify_triple(dst, out):
            raise AssertionError("transported set failed re-verification")
        return out


def make_conjugate(
    M: Matrix,
    D: DigitSet,
    B: Matrix,
    p: int,
    mode: str = "b",
    A: Optional[Matrix] = None,
) -> Conjugacy:
    """Conjugated system (A M B, D~), by default with A the canonical
    inverse of B mod p; a given A must satisfy A B = I (mod p).

    Mode "b" divides the digits by B (requiring B^{-1} D to be integral);
    mode "a" multiplies them by A. Either way the new digits inherit
    distinctness from invertibility.
    """
    M = as_matrix(M)
    D = as_digit_set(D)
    B = as_matrix(B)
    if len(B) != len(M) or len(D[0]) != len(M):
        raise WrongDimension("matrix and digit dimensions must agree")
    if not is_prime(p):
        raise ValueError("modulus must be prime")
    if mode not in ("b", "a"):
        raise ValueError("mode must be 'b' or 'a'")
    A = gl_inverse_mod(B, p) if A is None else as_matrix(A)
    if not check_witness(A, B, p):
        raise HypothesisViolation("A*B must be the identity mod p")
    Mt = mat_mul(mat_mul(A, M), B)
    if mode == "b":
        Dt = divide_digits(D, B)
    else:
        Dt = tuple(tuple(mat_vec(A, d)) for d in D)
    return Conjugacy(M, D, p, A, B, mode, Mt, as_digit_set(Dt))


def check_witness(A: Matrix, B: Matrix, p: int) -> bool:
    """Whether (A, B) is a valid conjugacy witness pair mod p."""
    if len(A) != len(B):
        raise WrongDimension("witness matrices must share a dimension")
    return mat_mod(mat_mul(A, B), p) == identity(len(A))
