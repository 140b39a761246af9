"""Exception types shared across the library.

Errors are split into three families: structural input problems (bad shapes,
non-square matrices), algebraic refusals (singular where invertible was
required, digit sets whose zero set is not finite), and hypothesis violations
(an operation was asked to certify something outside the regime where its
method is valid).
"""


class SpectralAffineError(Exception):
    """Base class for all library errors."""


class WrongDimension(SpectralAffineError):
    """Vectors or matrices with inconsistent or unsupported shapes."""


class SingularMatrix(SpectralAffineError):
    """A matrix required to be invertible over Q has determinant zero."""


class SingularModP(SpectralAffineError):
    """A matrix required to be invertible mod p has determinant in pZ."""


class DegenerateDigits(SpectralAffineError):
    """Digit set whose mask zero set is not a finite union of points."""


class IncompleteZeroSet(SpectralAffineError):
    """An operation needed a provably complete zero set but got hints only."""


class NonIntegerDigits(SpectralAffineError):
    """A digit transport produced non-integral digits."""


class BadDigitForm(SpectralAffineError):
    """Digit set not of the shape a criterion requires."""


class HypothesisViolation(SpectralAffineError):
    """Inputs outside the regime where the requested certificate is valid."""


class ProblemFormatError(SpectralAffineError):
    """Malformed problem file (unknown keys, floats, wrong types)."""
