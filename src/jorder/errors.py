"""Exception types shared across the library.

Every failure the library can certify carries a dedicated type so callers
(and the command line driver) can map outcomes to exit codes without
string matching.
"""


class JorderError(Exception):
    """Base class for all library errors."""


class UnsupportedField(JorderError):
    """Field outside GF(p) with p prime, or the rationals."""


class SingularMatrix(JorderError):
    """Exact inversion of a non-invertible matrix was requested."""


class NotFiniteDimensional(JorderError):
    """Quiver presentation admits arbitrarily long nonzero paths."""


class NotAdmissible(JorderError):
    """Relations fall outside the supported admissible-ideal shape."""


class IdealIsWholeAlgebra(JorderError):
    """Quotient by an ideal containing the unit."""


class RadicalUnavailable(JorderError):
    """No applicable radical criterion for this field/dimension pair."""


class NonSplitResidueField(JorderError):
    """Simple module whose endomorphism field obstructs integer multiplicities."""


class Inconclusive(JorderError):
    """Randomized search exhausted its budget without a certificate.

    Callers must surface this; it is never converted into a guess.
    """


class NotASummand(JorderError):
    """Split-summand verification failed; carries decomposition evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence


class NotSurjective(JorderError):
    """Map claimed surjective is not."""


class NotAutomorphism(JorderError):
    """Matrix claimed to be an algebra automorphism fails the axioms."""


class BadCharacteristic(JorderError):
    """Field characteristic divides the group order."""


class HypothesisViolated(JorderError):
    """Structural hypotheses of a theorem-backed check do not hold."""


class UnknownEntry(JorderError):
    """Catalog id not recognized."""


class BadParams(JorderError):
    """Catalog entry parameters outside their documented range."""


class FingerprintMismatch(JorderError):
    """Constructed algebra disagrees with its frozen fingerprint."""


class InvalidInput(JorderError):
    """Malformed file or reference handed to a parser."""
