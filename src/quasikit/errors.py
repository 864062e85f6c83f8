"""Exception types shared across the package, the four readers of an
input's numbers (``finite_float`` reads one, ``bounded_float`` a named real
argument, ``_frozen`` a list and ``bounded_int`` an integer size, order or
index), and ``_fields_json``, the JSON form of a result that is its fields."""

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
    """Numerical blow-up detected (coefficient cap or a failed cross-check)."""


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


def _frozen(values, name: str = "logs"):
    """A read-only float64 copy of ``values``, a flat list or 1-D array of
    finite numbers.  A string or a bool converts to a float but is no number,
    so an item that is not ``numbers.Real``, or is a bool, is rejected
    (``finite_float``'s rule)."""
    import numbers
    import numpy as np  # on the first call, so that --version loads no numpy

    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a list of numbers") from None
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a flat list of numbers")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        items = values.tolist() if isinstance(values, np.ndarray) else values
        if not set(map(type, items)) <= {float, int}:
            for n, item in enumerate(items):
                if not isinstance(item, numbers.Real) or isinstance(item, bool):
                    raise ValidationError(f"{name}[{n}] = {quoted(item)} is not a number")
    arr.flags.writeable = False
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        n = int(bad[0])
        raise ValidationError(f"{name}[{n}] = {arr[n].item()!r} is not finite")
    return arr


def bounded_float(value, name: str, lo=-math.inf, hi=math.inf, open: bool = False) -> float:
    """``value`` as a float, if it is a finite number (``finite_float``'s
    rule) in [lo, hi], or in (lo, hi) when ``open``.  Otherwise a
    ValidationError names ``name`` and quotes the value: "{name} must be a
    finite number, got ..." or "{name} must be in [lo, hi], got ...", with
    "(lo, hi)" when ``open``."""
    number = finite_float(value, f"{name} must be a finite number, got {quoted(value)}")
    if not (lo < number < hi if open else lo <= number <= hi):
        interval = f"({lo!r}, {hi!r})" if open else f"[{lo!r}, {hi!r}]"
        raise ValidationError(f"{name} must be in {interval}, got {quoted(number)}")
    return number


def bounded_int(value, name: str, lo: int, hi: int) -> int:
    """``value`` as an int, if it is an integer (not a bool) in [lo, hi]; hi
    may be math.inf.  Otherwise a ValidationError names ``name`` and quotes the
    value: "{name} must be an integer, got ..." or "{name} must be in [lo, hi], got ..."."""
    import numbers  # numpy's integer scalars are numbers.Integral, np.bool_ is not

    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {quoted(value)}")
    if not lo <= value <= hi:
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {quoted(int(value))}")
    return int(value)


# longest repr of an input value that a message quotes whole
QUOTE_MAX = 64


def quoted(value) -> str:
    """``repr(value)``, or its first QUOTE_MAX characters and "..." when it
    is longer, so that a message echoing an input value stays short."""
    text = repr(value)
    return text if len(text) <= QUOTE_MAX else f"{text[:QUOTE_MAX]}..."


def _fields_json(result) -> dict:
    """A result dataclass's fields by name, in declaration order.  A nested
    result becomes its own ``to_json()``; every other value, an array too,
    is the same object, so the writer formats an array that two fields
    share once.  A class assigns ``to_json = _fields_json`` in its own body,
    so the method is the class's own attribute."""
    import dataclasses  # loaded by every result module anyway

    values = ((f.name, getattr(result, f.name)) for f in dataclasses.fields(result))
    return {name: v.to_json() if hasattr(v, "to_json") else v for name, v in values}
