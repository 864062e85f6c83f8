"""Partial-sum reports with a declared truncation-aware trend verdict.

Divergence of an infinite series is undecidable from finitely many terms, so
the verdict is an explicit heuristic over the computed horizon:

* fit the partial sums against log k on the last quartile of the horizon;
  slope >= ``sigma_div`` means ``diverging_trend``;
* a final increment below ``eps_conv`` relative to the partial sum means
  ``converging_trend``;
* anything else is ``inconclusive``.

Reports carry the fitted slope so callers can re-threshold.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import EPS_CONV, SIGMA_DIV
from .errors import ValidationError, _fields_json, _frozen, bounded_float

DIVERGING = "diverging_trend"
CONVERGING = "converging_trend"
INCONCLUSIVE = "inconclusive"


def _libm(fn, x, *consts):
    """``fn(x, *consts)`` for a float x; for a 1-D float64 array x, the array
    of ``fn(item, *consts)`` over its items, through the math library.

    Elementary functions are not correctly rounded (Muller et al., Handbook
    of Floating-Point Arithmetic, 2nd ed., 2018, ch. 10), and numpy's SIMD
    loops differ from the math library in the last bit at some arguments
    (np.log from math.log at 69 of 1e6 random floats in [0, 1e6) on an
    AVX-512 host), while numpy's float64 + - * / round as Python's float
    operations do.  So a closed form over an array equals the same form over
    each item bit for bit when its log, exp, lgamma and pow go through here.
    An item that makes ``fn`` raise (as math.exp raises OverflowError)
    raises here too."""
    if not isinstance(x, np.ndarray):
        return fn(x, *consts)
    return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, consts)), float, x.size)


def _exp(x):
    """``_libm(math.exp, x)``, with +inf wherever math.exp overflows: the one
    exit from the log domain, where a bound past the float range holds."""
    if isinstance(x, np.ndarray):
        return _libm(_exp, x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class SeriesReport:
    """First K terms of a nonnegative series plus a trend verdict."""

    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    slope_estimate: float

    to_json = _fields_json


# a sum over finite partial sums below 2**_SUM_TOP cannot overflow
_SUM_TOP = 900


def _down_scale(top: float) -> float:
    """The power of two that brings ``top`` below 2**_SUM_TOP, or 1.0 if it
    is below already.  Dividing by a power of two is exact, so a sum that is
    homogeneous of degree 1 in values up to ``top`` is taken over the scaled
    values and multiplied back."""
    return 2.0 ** max(0, math.frexp(top)[1] - _SUM_TOP)


def _tail_slope(xs: np.ndarray, sums: np.ndarray) -> float:
    """Least-squares slope of sums against xs over the last quartile.  The
    slope is homogeneous of degree 1 in the sums, and the last is the
    largest, so large sums are fitted through ``_down_scale``."""
    k = len(sums)
    start = (3 * (k - 1)) // 4  # leaves at least 2 points, since k >= 2
    x = xs[start:]
    scale = _down_scale(sums[-1])
    y = sums[start:] / scale
    xbar = x.mean()
    ybar = y.mean()
    denom = float(((x - xbar) ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(((x - xbar) * (y - ybar)).sum() / denom) * scale


def diagnose_series(
    terms: Sequence[float],
    xs: Sequence[float] | None = None,
    sigma_div: float = SIGMA_DIV,
    eps_conv: float = EPS_CONV,
) -> SeriesReport:
    """Build a SeriesReport from finite nonnegative terms.

    ``xs`` are the fit abscissae; by default log of the 1-based ordinal.
    """
    sigma_div, eps_conv = bounded_float(sigma_div, "sigma_div"), bounded_float(eps_conv, "eps_conv")
    t = _frozen(terms, "terms")
    if t.size < 2:
        raise ValidationError("diagnose_series needs at least 2 terms")
    if np.any(t < 0):
        raise ValidationError("series terms must be nonnegative")
    with np.errstate(over="ignore"):
        sums = np.cumsum(t)
    # the sums never fall, so the last is finite exactly when all are
    if not math.isfinite(sums[-1]):
        n = int(np.argmax(~np.isfinite(sums)))
        raise ValidationError(f"partial_sums[{n}] of the series leaves the float range")
    if xs is None:
        x = np.log(np.arange(1, t.size + 1, dtype=float))
    else:
        x = _frozen(xs, "xs")
        if x.shape != t.shape:
            raise ValidationError("xs must match terms in length")

    slope = _tail_slope(x, sums)
    total = float(sums[-1])
    if slope >= sigma_div:
        verdict = DIVERGING
    elif total == 0.0 or float(t[-1]) < eps_conv * total:
        verdict = CONVERGING
    else:
        verdict = INCONCLUSIVE
    sums.flags.writeable = False
    return SeriesReport(
        terms=t,
        partial_sums=sums,
        verdict=verdict,
        slope_estimate=slope,
    )
