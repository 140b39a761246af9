"""Exact spectrality tools for self-affine digit systems.

The library decides and certifies properties of the self-affine measure
attached to an expanding integer matrix and a finite integer digit set:
admissibility (existence of a Hadamard-compatible dual set), conjugacy
transport of that structure between digit systems, exact counting bounds
for mutually orthogonal exponentials, checkable non-spectrality
certificates, and a floating-point completeness scan for candidate
spectra. All verdicts outside the explicitly numerical module are
computed in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .errors import (
    BadDigitForm,
    DegenerateDigits,
    HypothesisViolation,
    IncompleteZeroSet,
    NonIntegerDigits,
    ProblemFormatError,
    SingularMatrix,
    SingularModP,
    SpectralAffineError,
    WrongDimension,
)
from .linalg import (
    as_matrix,
    char_poly,
    coset_transversal,
    det,
    det_and_adjugate,
    euler_phi,
    gl_inverse_mod,
    in_lattice,
    is_expanding,
    is_prime,
    order_mod,
)
from .zeros import (
    DigitSystem,
    ZeroSet,
    as_digit_set,
    as_rational_point,
    cyclotomic,
    is_zero_exact,
    mask_eval,
    reduce_mod1,
    zero_set,
    zero_set_in_punctured_grid,
)
from .hadamard import (
    HadamardSearch,
    find_spectrum_set,
    unitarity_defect,
    verify_triple,
)
from .conjugacy import (
    Conjugacy,
    SpectralityVerdict,
    check_witness,
    make_conjugate,
    sierpinski_class,
    spectral_residue_criterion,
    spectrality_criterion,
)
from .ortho import (
    NonSpectralCertificate,
    NStarBounds,
    TransportReport,
    has_infinite_orthogonal,
    nonspectral_certificate,
    nstar_bounds,
    suggest_certificate,
    transport_inclusion_check,
    zero_membership,
)
from .fourier import (
    AttractorSample,
    EtaSuggestion,
    QScanResult,
    SpectrumCandidate,
    attractor_sample,
    completeness_scan,
    mu_hat_numeric,
    spectrum_candidate,
    suggest_eta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
