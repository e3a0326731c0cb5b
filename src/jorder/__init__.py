"""Exact computer algebra for finite-dimensional associative algebras.

Quiver-presented algebras over GF(p) and the rationals, bimodules with exact
tensor/Hom/dual machinery, Krull-Schmidt decomposition with certified
idempotent splitting, finite group actions (invariants and skew algebras),
and replayable certificates for the two-sided divisibility order on
algebras.
"""

from .errors import (
    BadCharacteristic,
    BadParams,
    FingerprintMismatch,
    HypothesisViolated,
    IdealIsWholeAlgebra,
    Inconclusive,
    InvalidInput,
    JorderError,
    NonSplitResidueField,
    NotAdmissible,
    NotASummand,
    NotAutomorphism,
    NotFiniteDimensional,
    NotSurjective,
    RadicalUnavailable,
    SingularMatrix,
    UnknownEntry,
    UnsupportedField,
)
from .fields import GF, QQ, field_from_name

__version__ = "0.1.0"
