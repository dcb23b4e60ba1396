"""Exception hierarchy shared by every covmod module."""

from __future__ import annotations


class CovmodError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CovmodError):
    """A structural axiom failed; the message names the offending witness."""


class NormalityError(ValidationError):
    """A subgroup is not invariant under the required conjugation or action."""


class DomainMismatchError(CovmodError):
    """Two objects that must live on the same group (or subgroup) do not."""


class MeasureError(CovmodError):
    """A weight family is non-positive or inconsistent with its group."""


class ExponentError(CovmodError):
    """A norm exponent outside 1 <= p < infinity was requested."""


class ResourceError(CovmodError):
    """The requested object exceeds the package's hard size guard."""


class DiscretizationError(CovmodError):
    """Incompatible modular parameters for a discretized construction."""


class IdentificationError(CovmodError):
    """A covariant function cannot be identified with a quotient function."""
