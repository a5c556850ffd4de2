"""Error types shared across the library.

Every failure mode that callers are expected to handle has a named class here;
anything else surfaces as a plain ValueError from precondition checks.
"""

from __future__ import annotations


class NodalcertError(Exception):
    """Base class for all library-specific errors."""


class ParseError(NodalcertError):
    """Input text does not conform to the polynomial or point grammar."""


class MixedDegree(ParseError):
    """A polynomial's terms do not all have the same total degree."""


class UnknownVariable(ParseError):
    """A variable index exceeds the declared ambient dimension."""


class NoStabilization(NodalcertError):
    """A scan that must stabilize (Hilbert tail, saturation chain) did not
    do so within its bound, or needs a matrix past the size cap; the input
    is outside the supported hypotheses."""


class ScanExhausted(NodalcertError):
    """An upward scan reached its cap without finding what it certifies.

    Carries the cap so reports can state how far the scan went.
    """

    def __init__(self, bound: int, message: str = ""):
        self.bound = bound
        super().__init__(message or f"scan exhausted at bound {bound}")


class DegreeTooSmall(NodalcertError):
    """The polynomial degree is below the range an operation supports."""


class NotEffective(NodalcertError):
    """A deformation subspace meets the Jacobian ideal nontrivially."""


class UnsupportedDimension(NodalcertError):
    """The ambient dimension is outside the certified range (n = 4 and
    n < 3 are rejected by the period-differential certificate)."""


class NotSingular(NodalcertError):
    """A point-local operation was invoked at a smooth point."""


class DegeneratePoint(NodalcertError):
    """A projective point with all coordinates zero."""


class MixedParameters(NodalcertError):
    """A batch operation received inputs with differing (n, d)."""


class FieldDisagreement(NodalcertError):
    """The two working primes produced different ranks or pivot sets.

    This voids the run: results are accepted only when both primes agree.
    """


class InconsistentResult(NodalcertError):
    """Two computations of the same quantity disagree (a ledger entry of
    another shape, a basis of the wrong dimension, a negative count).

    This voids the run. It is raised, not asserted, so ``python -O`` cannot
    remove the check.
    """
