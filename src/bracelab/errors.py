"""Exception hierarchy.

Validation failures carry a witness: the smallest tuple of element indices
demonstrating the violated law, so callers can reproduce the failure by hand.
"""

from __future__ import annotations


class BraceLabError(Exception):
    """Base class for every error raised by this package."""


class InvalidPresentationError(BraceLabError):
    """A group presentation (invariant factor list, table shape) is malformed."""


class InvalidGeneratorError(BraceLabError):
    """A claimed permutation or generator is not one."""


class ResourceLimitError(BraceLabError):
    """A requested computation exceeds a configured bound or work limit."""


class PolynomialError(BraceLabError):
    """Bad polynomial input (non-prime modulus, coefficient out of range)."""


class WitnessedError(BraceLabError):
    """Validation failure with a concrete counterexample attached."""

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


class BraceValidationError(WitnessedError):
    """A claimed brace fails one of the defining laws."""


class CircleIdentityError(BraceValidationError):
    pass


class CircleInverseError(BraceValidationError):
    pass


class CircleAssociativityError(BraceValidationError):
    pass


class CompatibilityError(BraceValidationError):
    """The two operations fail the left-distributivity bridge law."""


class SolutionValidationError(WitnessedError):
    """A claimed set-theoretic solution fails one of the defining laws."""


class NonDegeneracyError(SolutionValidationError):
    pass


class InvolutivityError(SolutionValidationError):
    pass


class BraidRelationError(SolutionValidationError):
    pass


class ActionError(WitnessedError):
    """A claimed brace action fails to be one."""


class InternalCheckError(BraceLabError):
    """A value this package computed itself failed its own consistency check."""


class DocumentError(BraceLabError):
    """A serialized document cannot be parsed or fails schema validation."""
