"""Exception types shared across the package, and the one conversion of an
input document's numbers to floats."""

import math


class QuasikitError(Exception):
    """Base class for all quasikit errors."""


class ValidationError(QuasikitError):
    """A precondition or input-format violation (CLI exit code 2)."""


class DomainError(ValidationError):
    """Function evaluation outside its valid domain (bad log/division/power).

    Carries the path of the offending expression node when raised during
    jet propagation.
    """

    def __init__(self, message: str, node_path: str | None = None):
        self.node_path = node_path
        if node_path is not None:
            message = f"{message} (at node {node_path})"
        super().__init__(message)


class ConditioningError(QuasikitError):
    """Numerical blow-up detected (coefficient cap or non-convergent quadrature)."""


def finite_float(value, message: str) -> float:
    """``value``, a number from an input document, as a finite float.  A
    bool, a non-number, a non-finite value and an int past the float range
    raise ``ValidationError(message)``, so the message names the field."""
    import numbers  # numpy's scalars are numbers.Real too; loaded with numpy anyway

    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            raise ValidationError(message) from None
        if math.isfinite(number):
            return number
    raise ValidationError(message)
