"""Quasianalyticity criterion series and related inequalities.

Three series decide quasianalyticity of the class attached to a weight
sequence: the reciprocal suffix-root infimum series, the reciprocal-root
series of the convex minorant, and the minorant quotient series.  All agree
on divergence; at a finite horizon the package computes their terms exactly
in the log domain and reports trend verdicts plus the finite-horizon
inequality chain that links them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .sequences import LogSequence, RegularizedSequence, convex_regularize
from .series import EPS_CONV, SIGMA_DIV, SeriesReport, _down_scale, _frozen, diagnose_series

# Flag threshold for the trivial quasianalytic case: the sequence's n-th
# roots stay below e**LIMINF_CAP on the tail of the horizon.  A flag, not a
# proof.
LIMINF_CAP = 50.0

# Relative slack for the finite-horizon inequality chain.
CHAIN_RTOL = 1e-9


def beta_sequence(seq: LogSequence) -> np.ndarray:
    """log beta_n = min_{n <= k < N} L_k / k for n = 1..N-1 (suffix minimum)."""
    if seq.length < 2:
        raise ValidationError("beta_sequence needs at least 2 entries")
    ratios = (seq.logs[1:] / np.arange(1, seq.length))[::-1]
    out = np.minimum.accumulate(ratios)
    # of two equal values a running min() keeps the first it met, the ufunc
    # the last; only 0.0 and -0.0 tell them apart, and once the minimum
    # reaches zero the first zero met stays until a negative value
    zero = out == 0.0
    if zero.any():
        out[zero] = ratios[np.argmax(ratios == 0.0)]
    return out[::-1]


def carleman_series(
    seq: LogSequence,
    sigma_div: float = SIGMA_DIV,
    eps_conv: float = EPS_CONV,
) -> SeriesReport:
    """Terms 1/beta_n for n = 1..N-1, with the trend verdict."""
    return _carleman_from_beta(beta_sequence(seq), sigma_div, eps_conv)


def _carleman_from_beta(log_beta: np.ndarray, sigma_div: float, eps_conv: float) -> SeriesReport:
    with np.errstate(over="ignore"):  # diagnose_series rejects an overflowing term
        terms = np.exp(-log_beta)
    return diagnose_series(terms, sigma_div=sigma_div, eps_conv=eps_conv)


def root_series(
    reg: RegularizedSequence,
    sigma_div: float = SIGMA_DIV,
    eps_conv: float = EPS_CONV,
) -> SeriesReport:
    """Terms exp(-L^c_n / n) for n = 1..N-1."""
    if reg.length < 2:
        raise ValidationError("root_series needs at least 2 entries")
    with np.errstate(over="ignore"):
        terms = np.exp(-reg.logs_c[1:] / np.arange(1, reg.length, dtype=float))
    return diagnose_series(terms, sigma_div=sigma_div, eps_conv=eps_conv)


def ratio_series(
    reg: RegularizedSequence,
    sigma_div: float = SIGMA_DIV,
    eps_conv: float = EPS_CONV,
) -> SeriesReport:
    """Terms exp(L^c_{n-1} - L^c_n) for n = 1..N-1."""
    if reg.length < 2:
        raise ValidationError("ratio_series needs at least 2 entries")
    logs_c = reg.logs_c
    with np.errstate(over="ignore"):
        terms = np.exp(logs_c[:-1] - logs_c[1:])
    return diagnose_series(terms, sigma_div=sigma_div, eps_conv=eps_conv)


@dataclass(frozen=True)
class CarlemanCheck:
    lhs: float
    rhs: float
    ok: bool


def carleman_inequality_check(a: Sequence[float]) -> CarlemanCheck:
    """Check sum_k (a_1...a_k)^(1/k) <= e * sum_k a_k for positive a.

    The left side accumulates running log-sums so products of thousands of
    factors never overflow.  Both sides are homogeneous of degree 1 in a, so
    the check decides on a / s, with s = ``_down_scale(max(a))``, where
    neither sum can overflow; lhs and rhs are s times the scaled sums, inf
    past the float range.
    """
    values = _frozen(a, "a")
    if not values.size:
        raise ValidationError("carleman_inequality_check needs a nonempty input")
    bad = np.flatnonzero(~(values > 0))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"entry a[{i}] = {values[i].item()!r} is not a positive real")
    scale = _down_scale(values.max())
    means = np.cumsum(np.log(values)) / np.arange(1, values.size + 1)
    lhs = float(np.exp(means - math.log(scale)).sum())
    rhs = math.e * math.fsum((values / scale).tolist())
    return CarlemanCheck(lhs=scale * lhs, rhs=scale * rhs, ok=lhs <= rhs)


def liminf_check(seq: LogSequence, cap: float = LIMINF_CAP) -> bool:
    """Flag the trivially quasianalytic case: tail roots bounded by e**cap.

    Takes the minimum of L_n/n over the second half of the horizon and
    compares it against ``cap``.  Heuristic by construction.
    """
    if seq.length < 8:
        raise ValidationError("liminf_check needs at least 8 entries")
    half = seq.length // 2
    tail_min = float((seq.logs[half:] / np.arange(half, seq.length)).min())
    return tail_min < cap


@dataclass(frozen=True, eq=False)
class QAReport:
    """Aggregate of the three criterion series for one sequence."""

    beta: np.ndarray
    carleman: SeriesReport
    root_c: SeriesReport
    ratio_c: SeriesReport
    liminf_flag: bool
    chain_ok: bool

    def verdicts(self) -> tuple[str, str, str]:
        return (self.carleman.verdict, self.root_c.verdict, self.ratio_c.verdict)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "carleman": self.carleman.to_json(),
            "root_c": self.root_c.to_json(),
            "ratio_c": self.ratio_c.to_json(),
            "liminf_flag": self.liminf_flag,
            "chain_ok": self.chain_ok,
        }


def chain_holds(
    root_rep: SeriesReport,
    carleman_rep: SeriesReport,
    ratio_rep: SeriesReport,
) -> bool:
    """Finite-horizon inequality chain over the common index range:

    sum exp(-L^c_n/n) >= sum 1/beta_n >= sum M^c_{n-1}/M^c_n,
    and sum exp(-L^c_n/n) <= e * sum M^c_{n-1}/M^c_n.

    Each report's partial sums are finite, but an exact sum can pass the
    float range where the rounded one did not, so the terms are summed
    through ``_down_scale``; the chain is homogeneous of degree 1.
    """
    reps = (root_rep, carleman_rep, ratio_rep)
    scale = _down_scale(max(rep.partial_sums[-1] for rep in reps))
    s_root, s_beta, s_ratio = (math.fsum((rep.terms / scale).tolist()) for rep in reps)
    return (
        s_root >= s_beta * (1.0 - CHAIN_RTOL)
        and s_beta >= s_ratio * (1.0 - CHAIN_RTOL)
        and s_root <= math.e * s_ratio * (1.0 + CHAIN_RTOL)
    )


def analyze(
    seq: LogSequence,
    sigma_div: float = SIGMA_DIV,
    eps_conv: float = EPS_CONV,
) -> QAReport:
    """Regularize, compute the three criterion series, and aggregate."""
    if seq.length < 8:
        raise ValidationError("analyze needs at least 8 entries")
    reg = convex_regularize(seq)
    log_beta = beta_sequence(seq)
    log_beta.flags.writeable = False
    rep_c = _carleman_from_beta(log_beta, sigma_div, eps_conv)
    rep_root = root_series(reg, sigma_div=sigma_div, eps_conv=eps_conv)
    rep_ratio = ratio_series(reg, sigma_div=sigma_div, eps_conv=eps_conv)
    return QAReport(
        beta=log_beta,
        carleman=rep_c,
        root_c=rep_root,
        ratio_c=rep_ratio,
        liminf_flag=liminf_check(seq),
        chain_ok=chain_holds(rep_root, rep_c, rep_ratio),
    )
