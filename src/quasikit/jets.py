"""Truncated Taylor (jet) arithmetic over closed-form expression trees.

A jet at t of order K is the coefficient vector c_0..c_K with
c_k = f^{(k)}(t)/k!.  Jets propagate exactly through the expression catalog
(+, -, *, /, exp, log, sin, cos, rational powers, affine reparametrization)
via the standard convolution recurrences, so high-order derivatives come out
with no truncation error beyond double rounding.  The catalog is closed-form
only; user-supplied numeric callables would break the exactness the
inequality checks downstream rely on.  A tree is a JSON dict, the same in
the library as on the CLI; README's "Expression tree JSON" lists its nodes.

One propagator runs a whole batch of points; grid experiments read one
derivative table from it and ``jet_eval`` is the batch of one, at about 3x
the cost of a scalar propagator (0.2 ms at order 20).  Grids hold 2 to
GRID_MAX points; at the cap and order 64 a command peaks near 75 MB.

Also hosted here: grid envelopes of derivative magnitudes, the scaled
suffix supremum of derivatives used by the zero-spacing machinery, the
derivative-positivity scan, and the translation estimate for the suffix sup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    ConditioningError, DomainError, ValidationError, _fields_json, _frozen, bounded_int,
    finite_float, quoted,
)
from . import sequences, series

# up to K_MAX each op's c_k is within 5.5e-15 of its recurrence's sum of |terms|
# of mpmath at 60 digits; exp(-1/x) on [0.1, 2] has relative error below 5e-13
K_MAX = 64
COEFF_CAP = 1e280
GRID_MAX = 2**14
# largest |num| and |den| of a pow node: the exponent num/den is then a
# nonzero float, and an integer power takes at most 20 squarings
POW_MAX = 2**20
# deepest node of a tree (root at depth 0); _propagate recurses once per level
TREE_DEPTH_MAX = 256


@dataclass(frozen=True)
class FunctionSpec:
    """A closed-form function: expression tree plus a closed interval domain."""

    expr: dict
    domain: tuple[float, float]

    def __post_init__(self):
        _rows(self.expr, np.empty(0), 0)  # a malformed tree raises; no point, no domain error
        domain = _frozen(self.domain, "domain")
        if domain.size != 2 or not domain[0] < domain[1]:
            raise ValidationError(f"domain must be [a, b] with a < b, got {quoted(self.domain)}")
        object.__setattr__(self, "domain", tuple(domain.tolist()))

    @classmethod
    def from_json(cls, doc: Mapping) -> "FunctionSpec":
        if not isinstance(doc, Mapping) or "expr" not in doc or "domain" not in doc:
            raise ValidationError("function spec JSON needs 'expr' and 'domain'")
        return cls(expr=doc["expr"], domain=doc["domain"])

    def to_json(self) -> dict:
        return {"expr": self.expr, "domain": list(self.domain)}


@dataclass(frozen=True, eq=False)
class Jet:
    """Taylor coefficients c_k = f^{(k)}(center)/k! up to ``order``, a
    read-only float64 array."""

    center: float
    order: int
    coeffs: np.ndarray

    def derivative(self, n: int) -> float:
        """f^{(n)}(center) = n! * c_n."""
        n = bounded_int(n, "derivative order", 0, self.order)
        return _FACT[n] * float(self.coeffs[n])

    @property
    def value(self) -> float:
        return float(self.coeffs[0])


_FACT = [1.0]
for _i in range(1, K_MAX + 2):
    _FACT.append(_FACT[-1] * _i)
_J = np.arange(K_MAX + 1, dtype=float)


# ---------------------------------------------------------------------------
# one propagator over a batch of points: arrays of shape (k_max + 1, points),
# row k holding c_k; the Taylor-mode recurrences of Griewank & Walther,
# Evaluating Derivatives (2nd ed., SIAM 2008), ch. 13

def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j u[j] * v[j] per point, accumulated in j order whatever the batch
    size (ndarray.sum goes pairwise for one point), so a point's jet does not
    depend on the batch it is evaluated in."""
    return np.einsum("jg,jg->g", u, v)


def _conv(u: np.ndarray, v: np.ndarray, k_max: int) -> np.ndarray:
    return np.array([_dot(u[: k + 1], v[: k + 1][::-1]) for k in range(k_max + 1)])


def _check_cap(coeffs: np.ndarray, path: str) -> np.ndarray:
    if not np.all(np.abs(coeffs) <= COEFF_CAP):  # NaN fails too
        raise ConditioningError(f"jet coefficient exceeded {COEFF_CAP:g} at node {path}")
    return coeffs


def _pow_int(u: np.ndarray, exponent: int, k_max: int) -> np.ndarray:
    result = np.zeros_like(u)
    result[0] = 1.0
    base = u
    e = exponent
    while e > 0:
        if e & 1:
            result = _conv(result, base, k_max)
        e >>= 1
        if e:
            base = _conv(base, base, k_max)
    return result


def _tree_number(node: Mapping, key: str, message: str) -> float:
    """Field ``key`` of an expression node as a finite float; a tree reads a
    bool as 0 or 1."""
    value = node.get(key)
    return finite_float(int(value) if isinstance(value, bool) else value, message)


def _propagate(node, t: np.ndarray, k_max: int, path: str) -> np.ndarray:
    """Rows c_0..c_k_max of the expression ``node`` at the points t.  The one
    reader of expression trees: it checks a node's own fields before its
    children, depth first, so a malformed tree raises the same
    ValidationError over zero points as over many."""
    if path.count(".") > TREE_DEPTH_MAX:
        raise ValidationError(f"expression node at {path} is deeper than {TREE_DEPTH_MAX}")
    if not isinstance(node, Mapping) or "op" not in node:
        raise ValidationError(f"expression node at {path} must be a dict with 'op'")
    op = node["op"]
    if op in ("x", "const"):
        out = np.zeros((k_max + 1, t.size))
        if op == "x":
            out[0], out[1:2] = t, 1.0
        else:
            out[0] = _tree_number(node, "value", f"const at {path} needs a finite 'value'")
        return out
    if op == "affine":
        a, b = (_tree_number(node, key, f"affine at {path} needs finite '{key}'")
                for key in ("a", "b"))
        inner = _propagate(node.get("arg"), a * t + b, k_max, f"{path}.arg")
        scale = np.cumprod(np.r_[1.0, np.full(k_max, a)])
        return _check_cap(inner * scale[:, None], path)
    if op in ("add", "sub", "mul", "div"):
        u = _propagate(node.get("left"), t, k_max, f"{path}.left")
        v = _propagate(node.get("right"), t, k_max, f"{path}.right")
        if op == "add":
            out = u + v
        elif op == "sub":
            out = u - v
        elif op == "mul":
            out = _conv(u, v, k_max)
        else:  # div
            if np.any(v[0] == 0.0):
                raise DomainError("division by a jet with zero constant term", path)
            out = np.empty_like(u)
            for k in range(k_max + 1):
                out[k] = (u[k] - _dot(v[1 : k + 1], out[:k][::-1])) / v[0]
        return _check_cap(out, path)
    if op == "pow":
        num, den = node.get("num"), node.get("den", 1)
        if not isinstance(num, int) or not isinstance(den, int) or den == 0:
            raise ValidationError(f"pow at {path} needs integer num/den, den != 0")
        if max(abs(num), abs(den)) > POW_MAX:
            raise ValidationError(f"pow at {path} needs |num| and |den| at most {POW_MAX}")
    elif op not in ("neg", "exp", "log", "sin", "cos"):
        raise ValidationError(f"unknown op {quoted(op)} at {path}")

    u = _propagate(node.get("arg"), t, k_max, f"{path}.arg")
    if op == "neg":
        return -u
    out = np.empty_like(u)
    ju = _J[: k_max + 1, None] * u
    if op == "exp":
        out[0] = np.exp(u[0])
        for k in range(1, k_max + 1):
            out[k] = _dot(ju[1 : k + 1], out[:k][::-1]) / k
        return _check_cap(out, path)
    if op == "log":
        bad = u[0] <= 0.0
        if bad.any():
            raise DomainError(f"log of nonpositive value {float(u[0][bad][0])!r}", path)
        out[0] = np.log(u[0])
        for k in range(1, k_max + 1):
            acc = u[k] - _dot(_J[1:k, None] * out[1:k], u[1:k][::-1]) / k
            out[k] = acc / u[0]
        return _check_cap(out, path)
    if op in ("sin", "cos"):
        s, c = out, np.empty_like(u)
        s[0], c[0] = np.sin(u[0]), np.cos(u[0])
        for k in range(1, k_max + 1):
            s[k] = _dot(ju[1 : k + 1], c[:k][::-1]) / k
            c[k] = -_dot(ju[1 : k + 1], s[:k][::-1]) / k
        return _check_cap(s if op == "sin" else c, path)
    num, den = int(num), int(den)  # pow; a bool reads as 0 or 1
    if den < 0:
        num, den = -num, -den
    if den == 1 and num >= 0:
        return _check_cap(_pow_int(u, num, k_max), path)
    alpha = num / den
    bad = (u[0] == 0.0) | ((u[0] < 0.0) & (den != 1))
    if bad.any():
        raise DomainError(
            f"pow({num}/{den}) needs a positive base, got {float(u[0][bad][0])!r}", path
        )
    out[0] = np.power(u[0], alpha)
    for k in range(1, k_max + 1):
        weighted = (_J[1 : k + 1] * (alpha + 1.0) - k)[:, None] * u[1 : k + 1]
        out[k] = _dot(weighted, out[:k][::-1]) / (k * u[0])
    return _check_cap(out, path)


def _rows(expr, t: np.ndarray, k_max: int) -> np.ndarray:
    """``_propagate`` from the root; the cap and domain checks replace numpy's warnings."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _propagate(expr, t, k_max, "root")


def _taylor_table(f: FunctionSpec, points, order: int) -> np.ndarray:
    """Taylor coefficients c_k of f, k = 0..order, at every point: shape
    (order + 1, len(points)).  A failing node reports its first failing point."""
    order = bounded_int(order, "jet order", 0, K_MAX)
    t = np.asarray(points, dtype=float)
    a, b = f.domain
    outside = t[~((a - 1e-12 <= t) & (t <= b + 1e-12))]
    if outside.size:
        raise ValidationError(f"evaluation point {outside[0]} outside domain [{a}, {b}]")
    return _rows(f.expr, t, order)


def _derivative_table(f: FunctionSpec, points, order: int) -> np.ndarray:
    """f^{(n)} for n = 0..order at every point: shape (order + 1, len(points))."""
    return _taylor_table(f, points, order) * np.array(_FACT[: order + 1])[:, None]


def jet_eval(f: FunctionSpec, t: float, order: int) -> Jet:
    """Exact Taylor coefficients of f at t up to ``order``."""
    coeffs = _taylor_table(f, [t], order)[:, 0]
    coeffs.flags.writeable = False
    return Jet(center=float(t), order=order, coeffs=coeffs)


def jet_derivatives(f: FunctionSpec, t: float, order: int) -> np.ndarray:
    """Vector f(t), f'(t), ..., f^{(order)}(t)."""
    return _derivative_table(f, [t], order)[:, 0]


def domain_grid(f: FunctionSpec, grid_size: int) -> np.ndarray:
    """The uniform grid on f's domain that every grid experiment scans."""
    a, b = f.domain
    return np.linspace(a, b, bounded_int(grid_size, "grid_size", 2, GRID_MAX))


# ---------------------------------------------------------------------------
# derivative envelopes

@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Grid maxima of |f^{(n)}| on the domain, stored as log values in
    read-only float64 arrays.

    A grid max is a lower bound for the true sup; -inf marks a derivative
    that vanished at every grid point, and is ``null`` in the JSON.
    """

    grid: np.ndarray
    m_est_log: np.ndarray

    @property
    def nmax(self) -> int:
        return len(self.m_est_log) - 1

    def m_est(self, n: int) -> float:
        """Grid max of |f^{(n)}| in the linear domain."""
        return series._exp(self.m_est_log[n])

    def to_json(self) -> dict:
        return {
            "grid": self.grid,
            "m_est_log": [v if v > -math.inf else None for v in self.m_est_log.tolist()],
        }


def derivative_envelope(
    f: FunctionSpec, nmax: int, grid_size: int = 256
) -> EnvelopeReport:
    """Grid maxima of |f^{(n)}|, n = 0..nmax, over a uniform grid."""
    grid = domain_grid(f, grid_size)
    peaks = np.abs(_derivative_table(f, grid, nmax)).max(axis=1)
    m_est_log = np.array([math.log(m) if m > 0.0 else -math.inf for m in peaks.tolist()])
    grid.flags.writeable = m_est_log.flags.writeable = False
    return EnvelopeReport(grid=grid, m_est_log=m_est_log)


# ---------------------------------------------------------------------------
# scaled suffix supremum of derivatives

@dataclass(frozen=True)
class TailSup:
    """max_{n <= j <= J} |f^{(j)}(t)| e^{-j} / M_j, computed in logs.

    ``truncated`` means the max sits at the horizon j = J, so the value is
    only a lower bound for the infinite suffix supremum.
    """

    value: float
    log_value: float
    arg_j: int
    truncated: bool


def _check_log_convex(weights: sequences.LogSequence) -> None:
    if weights.length >= 3 and not sequences.is_log_convex(weights):
        raise ValidationError("weight sequence must be log-convex")


def _check_horizon(n: int, horizon: int, weights: sequences.LogSequence) -> None:
    horizon = bounded_int(horizon, "horizon", 0, weights.length - 1)
    bounded_int(n, "n", 0, horizon)


def _tail_sup(derivs: np.ndarray, n: int, logs: np.ndarray) -> TailSup:
    """The suffix sup from n over ``derivs``, the column f^{(j)}(t) for j up
    to the horizon, with ``logs[j]`` = log M_j.  Vanishing derivatives are
    skipped and the first of equal maxima is the argument."""
    js = np.flatnonzero(derivs[n:]) + n
    if not js.size:
        return TailSup(value=0.0, log_value=-math.inf, arg_j=-1, truncated=False)
    terms = series._libm(math.log, np.abs(derivs[js])) - js - logs[js]
    i = int(np.argmax(terms))
    best, arg = float(terms[i]), int(js[i])
    return TailSup(
        value=series._exp(best),
        log_value=best,
        arg_j=arg,
        truncated=(arg == len(derivs) - 1),
    )


def derivative_tail_sup(
    f: FunctionSpec, t: float, n: int, weights: sequences.LogSequence, horizon: int
) -> TailSup:
    """Suffix supremum of |f^{(j)}(t)| / (e^j M_j) over n <= j <= horizon."""
    _check_horizon(n, horizon, weights)
    return _tail_sup(jet_derivatives(f, t, horizon), n, weights.logs)


@dataclass(frozen=True)
class TranslationCheck:
    lhs_log: float
    rhs_log: float
    ok: bool
    truncated: bool


def translation_estimate_check(
    f: FunctionSpec,
    weights: sequences.LogSequence,
    t: float,
    tau: float,
    n: int,
    q: int,
    horizon: int,
) -> TranslationCheck:
    """Translation bound for the suffix sup: with B_n the scaled suffix sup,

        B_n(t + tau) <= max(B_n(t), e^{-q}) * exp(e |tau| M_q / M_{q-1}),

    for any q > n, valid when M is log-convex and sup |f^{(q)}| <= M_q.
    Comparison happens in the log domain with relative slack 1e-9.
    """
    q = bounded_int(q, "q", 1, weights.length - 1)
    bounded_int(n, "n", 0, q - 1)
    _check_log_convex(weights)
    _check_horizon(n, horizon, weights)
    table = _derivative_table(f, [t, t + tau], horizon)
    base, shifted = (_tail_sup(table[:, i], n, weights.logs) for i in (0, 1))
    if base.arg_j < 0 or shifted.arg_j < 0:
        raise ValidationError("suffix sup vanished on the horizon; nothing to check")
    ratio = series._exp(weights.logs[q] - weights.logs[q - 1])
    rhs_log = max(base.log_value, -float(q)) + (math.e * abs(tau) * ratio if tau else 0.0)
    ok = shifted.log_value <= rhs_log + math.log1p(1e-9)
    return TranslationCheck(
        lhs_log=shifted.log_value,
        rhs_log=rhs_log,
        ok=ok,
        truncated=base.truncated or shifted.truncated,
    )


# ---------------------------------------------------------------------------
# derivative positivity scan and the zero-spacing experiment

@dataclass(frozen=True)
class MonotonicityResult:
    holds: bool
    witness: tuple[int, float] | None

    to_json = _fields_json


def monotonicity_check(
    f: FunctionSpec,
    weights: sequences.LogSequence,
    nmax: int,
    grid_size: int = 256,
) -> MonotonicityResult:
    """Scan whether every f^{(n)}, n <= nmax, stays positive on the domain.

    Requires f^{(n)}(a) > 0 for all n <= nmax (rejected otherwise, listing
    the failing orders) and a log-convex weight sequence.  The witness is
    the first violation in (increasing n, then increasing x) order.
    """
    _check_log_convex(weights)
    grid = domain_grid(f, grid_size)
    table = _derivative_table(f, grid, nmax)  # column 0 is the left endpoint
    bad = np.flatnonzero(~(table[:, 0] > 0.0)).tolist()
    if bad:
        raise ValidationError(
            f"derivative positivity fails at the left endpoint for n = {bad}"
        )
    violations = ~(table > 0.0)
    if not violations.any():
        return MonotonicityResult(holds=True, witness=None)
    n, i = np.unravel_index(np.argmax(violations), violations.shape)
    return MonotonicityResult(holds=False, witness=(int(n), float(grid[i])))


def _zeros_by_order(
    f: FunctionSpec, grid: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of every f^{(n)} in the table as (n, x) pairs in (n, then x)
    order: grid points where it vanishes, and sign changes between
    neighbouring points bisected to 1e-12 in x, to an exact zero at a
    midpoint, or until the midpoint is no longer strictly inside (past
    |x| = 2^13 an ulp exceeds 1e-12); a zero within 1e-9 of the last one
    kept is dropped.  Rejects a table with an order that has none."""
    exact = table == 0.0
    pos = table > 0.0
    found = exact.copy()
    found[:, :-1] |= ~exact[:, :-1] & ~exact[:, 1:] & (pos[:, :-1] != pos[:, 1:])
    missing = ~found.any(axis=1)
    if missing.any():
        raise ValidationError(f"no zero found for derivative order {np.argmax(missing)}")
    rows, cols = np.nonzero(found)
    z = grid[cols]
    # every sign change at once: one table per step over the live brackets
    live = np.flatnonzero(~exact[rows, cols])
    lo, hi, f_lo = grid[cols[live]], grid[cols[live] + 1], table[rows[live], cols[live]]
    for _ in range(200):
        if not live.size:
            break
        z[live] = mid = 0.5 * (lo + hi)
        f_mid = _derivative_table(f, mid, len(table) - 1)[rows[live], np.arange(live.size)]
        going = (f_mid != 0.0) & (hi - lo >= 1e-12) & (lo < mid) & (mid < hi)
        same = (f_lo > 0) == (f_mid > 0)
        lo, hi = np.where(same, mid, lo)[going], np.where(same, hi, mid)[going]
        f_lo = np.where(same, f_mid, f_lo)[going]
        live = live[going]
    z[live] = 0.5 * (lo + hi)

    keep = np.r_[True, (np.diff(z) > 1e-9) | (np.diff(rows) != 0)]
    last = 0.0
    for m in np.flatnonzero(~keep):  # zeros closer than 1e-9 to their neighbour
        if keep[m - 1]:
            last = z[m - 1]
        keep[m] = z[m] - last > 1e-9
    return rows[keep], z[keep]


@dataclass(frozen=True, eq=False)
class SpacingResult:
    """Zero chain of successive derivatives with both partial-sum curves,
    each a read-only float64 array."""

    x: np.ndarray
    lhs_partial: np.ndarray
    rhs_partial: np.ndarray

    to_json = _fields_json


def zero_spacing_experiment(
    f: FunctionSpec,
    weights: sequences.LogSequence,
    nmax: int,
    grid_size: int = 1024,
) -> SpacingResult:
    """Chain zeros x_n of f^{(n)} (nearest to the previous zero) and compare
    the accumulated spacing against (1/e) * sum M_{j-1}/M_j.

    Requires each f^{(n)}, n <= nmax, to vanish somewhere on the domain, M
    log-convex with |f^{(n)}| <= M_n on the grid, and f not identically zero.
    """
    nmax = bounded_int(nmax, "nmax", 1, weights.length - 1)
    _check_log_convex(weights)

    grid = domain_grid(f, grid_size)
    table = _derivative_table(f, grid, nmax)
    if not np.any(table[0]):
        raise ValidationError("f vanishes at every grid point; nothing to chain")
    for n, g in enumerate(np.abs(table).max(axis=1).tolist()):
        if g > series._exp(weights.logs[n]) * (1.0 + 1e-9):
            raise ValidationError(
                f"|f^({n})| exceeds M_{n} on the grid; the spacing bound needs "
                "the envelope hypothesis"
            )
    rows, zeros = _zeros_by_order(f, grid, table)
    chain = [float(zeros[0])]
    for n in range(1, nmax + 1):
        # nearest zero; ties resolved toward the smaller abscissa (argmin
        # takes the first of equal distances, and zeros are in x order)
        z = zeros[rows == n]
        chain.append(float(z[np.argmin(np.abs(z - chain[-1]))]))

    x = np.array(chain)
    lhs = np.cumsum(np.r_[0.0, np.abs(np.diff(x))])
    logs = weights.logs
    steps = series._exp(logs[:nmax] - logs[1 : nmax + 1]) / math.e
    rhs = np.cumsum(np.r_[0.0, steps])
    x.flags.writeable = lhs.flags.writeable = rhs.flags.writeable = False
    return SpacingResult(x=x, lhs_partial=lhs, rhs_partial=rhs)
