"""Continuous weight functions m(t) = t log t + t mu(t) and their transforms.

M(t) = e^{m(t)} generalizes weight sequences to a continuous parameter.  The
key transforms are the infimum

    Lambda(r) = inf_{t >= t0} M(t) / r^t        (log domain here),

its exponent omega(r) = -log Lambda(r), and the integer-restricted variant
lambda(r).  The stationary point solves m'(t) = log r, unique because m' is
increasing and unbounded; everything downstream (divergence tests, shift and
algebra bounds, the analyticity criterion) reduces to closed-form evaluation
plus a bisection for that stationary point, run over all of a caller's radii
at once.

The catalog keeps mu in {0, log log t, log t, t^alpha (alpha < 1)}; all
derivatives are closed-form.  Hypothesis constants: delta = m''(t0) (m'' is
decreasing on every catalog entry, asserted on a validation grid).
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .constants import MU_FAMILIES, SAMPLES_MAX
from .errors import ConditioningError, ValidationError, quoted
from .series import SeriesReport, _exp, _libm, diagnose_series

_VALIDATION_GRID = 64
_VALIDATION_SPAN = 2.0**20

# relative tolerance of omega's parametric cross-checks
_OMEGA_CHECK_RTOL = 1e-9

# relative slack of the shift, algebra and analytic-criterion bounds
_SLACK = 1e-9

# The batched bisection trusts its float64-array decision m'(t) < log r only
# where |m'(t) - log r| exceeds this multiple of |m'(t)| + |log t| + 1, the
# scale of the terms m' sums; inside that band it decides again with
# _m_parts's math-library logs and powers.  1e-12 is thousands of ulps, far
# above the error of numpy's float64 log and power loops.
_DECISION_RTOL = 1e-12

# rows (n) per array block of algebra_check, which holds n_max + 1 pairs per row
_ALGEBRA_ROWS = 256

# Below this many live radii the bisection finishes each radius on its own.
# A whole solve of n random radii up to 1e12 (2-core VM, Python 3.11, numpy
# 2.4, best of 15) took, array against one by one: n = 1: 1.2-2.2 ms against
# 0.04-0.13 ms; n = 64: 1.5-2.8 against 1.6-3.3; n = 128: 1.9-4.9 against
# 3.1-9.4.  The array pays from about 42 radii (power) to 52 (zero, log).
_ARRAY_MIN = 48

# log of the largest float, less a margin for the rounding of exp
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-6


@dataclass(frozen=True)
class WeightFunction:
    """Catalog weight function with its hypothesis constant.

    The constructor checks m' > 0 and 0 < m'' <= m''(t0) on a log-spaced
    grid spanning twenty doublings past t0, and sets ``delta`` = m''(t0), the
    bound on m'' over [t0, inf).  The transforms only need the m' and m''
    hypotheses from t0, so m itself may still be negative at t0.
    """

    mu: str
    t0: float
    alpha: float | None = None
    delta: float = field(init=False)

    def __post_init__(self):
        if self.mu not in MU_FAMILIES:
            raise ValidationError(f"unknown mu {quoted(self.mu)}; expected {MU_FAMILIES}")
        if self.mu == "power":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("power family needs 0 < alpha < 1")
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValidationError("t0 must be a positive real")
        if not self.t0 * _VALIDATION_SPAN < math.inf:
            raise ValidationError(f"t0 = {self.t0:g} is too large: t0 2^20 leaves the float range")
        if self.mu == "loglog" and self.t0 <= 1.0:
            raise ValidationError("loglog needs t0 > 1 for log log t to exist")
        _, m1_at_t0, delta = _m_parts(self, self.t0)
        if not (m1_at_t0 > 0.0):
            raise ValidationError(f"m'({self.t0}) = {m1_at_t0:g} must be positive")
        if not (delta > 0.0):
            raise ValidationError(f"m''({self.t0}) = {delta:g} must be positive")
        grid = np.exp(
            np.linspace(math.log(self.t0), math.log(self.t0 * _VALIDATION_SPAN), _VALIDATION_GRID)
        )
        with np.errstate(all="ignore"):
            _, m1, m2 = _m_parts(self, grid)
            bad = np.flatnonzero(~((m1 > 0.0) & (0.0 < m2) & (m2 <= delta * (1.0 + 1e-9))))
        if bad.size:
            t, m1, m2 = (float(v[bad[0]]) for v in (grid, m1, m2))
            raise ValidationError(f"hypotheses fail at t = {t:g}: m' = {m1:g}, m'' = {m2:g}")
        object.__setattr__(self, "delta", delta)


# log t and t ** alpha by the math library, of a float or of each array item
_log = functools.partial(_libm, math.log)
_pow = functools.partial(_libm, pow)


def _m_parts(w: WeightFunction, t, log=_log, power=_pow) -> tuple:
    """(m, m', m'') at t, a float or a float64 array.

    The default ``log`` and ``power`` go through _libm, so each item of an
    array's result equals the float result bit for bit.  Array overflow
    follows numpy's error state; callers run under
    ``np.errstate(all="ignore")``, where it gives inf silently, as float
    arithmetic does.  The batched bisection's filter passes np.log and
    np.power instead.
    """
    lt = log(t)
    if w.mu == "zero":
        return t * lt, lt + 1.0, 1.0 / t
    if w.mu == "log":
        return 2.0 * t * lt, 2.0 * lt + 2.0, 2.0 / t
    if w.mu == "loglog":
        llt = log(lt)
        m = t * (lt + llt)
        m1 = lt + 1.0 + llt + 1.0 / lt
        m2 = (1.0 + 1.0 / lt - 1.0 / (lt * lt)) / t
        return m, m1, m2
    alpha = float(w.alpha)
    ta = power(t, alpha)
    m = t * lt + t * ta
    m1 = lt + 1.0 + (1.0 + alpha) * ta
    m2 = 1.0 / t + alpha * (1.0 + alpha) * ta / t
    return m, m1, m2


def _mu_prime(w: WeightFunction, t: np.ndarray):
    if w.mu == "zero":
        return 0.0
    if w.mu == "log":
        return 1.0 / t
    if w.mu == "loglog":
        return 1.0 / (t * _log(t))
    return float(w.alpha) * _pow(t, float(w.alpha) - 1.0)


def make_weight(mu: str, t0: float, alpha: float | None = None) -> WeightFunction:
    """Build a catalog weight function; the constructor validates it."""
    return WeightFunction(mu=mu, t0=float(t0), alpha=alpha)


@dataclass(frozen=True)
class MEval:
    m: float
    m1: float
    m2: float


def m_eval(w: WeightFunction, t: float) -> MEval:
    """Closed-form (m, m', m'') at t >= t0."""
    if t < w.t0:
        raise ValidationError(f"t = {t:g} below t0 = {w.t0:g}")
    m, m1, m2 = _m_parts(w, float(t))
    return MEval(m=m, m1=m1, m2=m2)


def _stationary_points(
    w: WeightFunction, radii, *, rtol: float = _DECISION_RTOL, log=np.log
) -> tuple[list[float], np.ndarray, ValidationError | None]:
    """log r and the stationary point t* (m'(t*) = log r) of each radius, up
    to the first offending radius, and the error for that radius (or None).

    An offending radius has r <= exp(m'(t0)) (the minimizer would not be
    interior) or a log r that m' does not reach by 2 t0 2^200.  Each radius
    brackets t* between t0 and the first 2 t0 2^k with m'(2 t0 2^k) > log r,
    then all radii bisect together until the midpoint hits an end (at most
    200 halvings).  A midpoint is 0.5 lo + 0.5 hi: halving is exact (t0 >
    1/e), so it equals 0.5 (lo + hi) wherever that sum is finite, and it
    stays finite where the sum does not.  Each halving decides m'(mid) <
    log r over the array with ``log`` and np.power, and again, exactly,
    wherever the difference lies within ``rtol`` of its scale (see
    _DECISION_RTOL); once fewer than _ARRAY_MIN radii are live, each
    finishes on its own.  So every decision, and with it t*, equals that of
    a scalar bisection with math.log bit for bit.

    Every t* is finite, a midpoint of finite ends: no cap overflows, since
    above float max / 2 every catalog m' exceeds 710 > log r for any finite
    r, and an infinite r ends in a bracket failure before any t* exists.
    """
    m1_t0 = _m_parts(w, w.t0)[1]
    caps = [2.0 * w.t0]
    cap_m1 = [_m_parts(w, caps[0])[1]]
    log_r, his, error = [], [], None
    for r in radii:
        if not (r > 0):
            error = ValidationError("r must be positive")
            break
        lr = math.log(r)
        if lr <= m1_t0:
            exp_m1 = _exp(m1_t0)  # past the float range, written as a power of e
            bound = f"{exp_m1:g}" if exp_m1 < math.inf else f"e^{m1_t0:g}"
            error = ValidationError(f"r = {r:g} too small: need r > exp(m'(t0)) = {bound}")
            break
        while cap_m1[-1] <= lr and len(caps) <= 200:
            caps.append(2.0 * caps[-1])
            cap_m1.append(_m_parts(w, caps[-1])[1])
        k = bisect.bisect_right(cap_m1, lr)  # m' is increasing, so cap_m1 is sorted
        if k > 200:
            error = ValidationError("bracket failure: m' never reached log r")
            break
        log_r.append(lr)
        his.append(caps[k])
    # lo, hi and target hold the live radii; ``at`` holds their places in t_star
    t_star = np.empty(len(log_r))
    at = np.arange(len(log_r))
    target = np.array(log_r)
    lo = np.full(len(log_r), w.t0)
    hi = np.array(his)
    halvings = 0
    with np.errstate(all="ignore"):
        while at.size >= _ARRAY_MIN and halvings < 200:
            halvings += 1
            mid = 0.5 * lo + 0.5 * hi
            inside = (mid > lo) & (mid < hi)
            if not inside.all():
                t_star[at[~inside]] = mid[~inside]
                at, target, mid = at[inside], target[inside], mid[inside]
                lo, hi = lo[inside], hi[inside]
            m1 = _m_parts(w, mid, log, np.power)[1]
            below = m1 < target
            near = ~(np.abs(m1 - target) > rtol * (np.abs(m1) + np.abs(log(mid)) + 1.0))
            below[near] = _m_parts(w, mid[near])[1] < target[near]
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    for i, v, a, b in zip(at.tolist(), target.tolist(), lo.tolist(), hi.tolist()):
        for _ in range(200 - halvings):
            mid = 0.5 * a + 0.5 * b
            if not a < mid < b:
                break
            if _m_parts(w, mid)[1] < v:
                a = mid
            else:
                b = mid
        t_star[i] = 0.5 * a + 0.5 * b
    return log_r, t_star, error


@dataclass(frozen=True)
class WeightInf:
    """log of the continuous infimum, with its interior minimizer."""

    log_value: float
    t_star: float


def _transforms(w: WeightFunction, radii) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, ValidationError | ConditioningError | None
]:
    """t*, log Lambda = m(t*) - t* log r, omega = -log Lambda and log lambda
    as float64 arrays from one solve over the radii, up to the first radius
    that the solve rejects or whose omega fails a cross-check against
    t m'(t) - m(t) or t + t^2 mu'(t), and that radius's error (or None).  A
    caller checks its own condition over the arrays before it raises the
    error, and so meets errors in radius order."""
    log_r, t_star, error = _stationary_points(w, radii)
    log_r = np.array(log_r, dtype=float)
    with np.errstate(all="ignore"):
        m, m1, _ = _m_parts(w, t_star)
        log_value = m - t_star * log_r
        value = -log_value
        tol = _OMEGA_CHECK_RTOL * np.where(np.abs(value) > 1.0, np.abs(value), 1.0)
        parametric = t_star * m1 - m
        mu_form = t_star + t_star * (t_star * _mu_prime(w, t_star))  # t * t overflows first
        off_parametric = np.abs(parametric - value) > tol
        off = np.flatnonzero(off_parametric | (np.abs(mu_form - value) > tol))
    if off.size:  # a failed check's radius precedes the solve's
        i = off[0]
        if off_parametric[i]:
            message = f"{value[i]:g} vs t m'-m = {parametric[i]:g}"
        else:
            message = f"{value[i]:g} vs t + t^2 mu' = {mu_form[i]:g}"
        error = ConditioningError(f"parametric cross-check failed: {message}")
        log_r, t_star, log_value, value = log_r[:i], t_star[:i], log_value[:i], value[:i]
    return t_star, log_value, value, _integer_infs(w, log_r, t_star), error


def _transform(w: WeightFunction, r: float) -> tuple[float, float, float, float]:
    """_transforms of the one radius r as floats; raises its error."""
    *values, error = _transforms(w, [r])
    if error:
        raise error
    return tuple(float(v[0]) for v in values)


def weight_inf(w: WeightFunction, r: float) -> WeightInf:
    """log Lambda(r) = m(t*) - t* log r with m'(t*) = log r.

    Rejects r <= exp(m'(t0)): the stationary point would sit on or below the
    boundary and the sandwich reasoning needs an interior minimizer.
    """
    t_star, log_value, _, _ = _transform(w, r)
    return WeightInf(log_value=log_value, t_star=t_star)


def omega(w: WeightFunction, r: float) -> float:
    """omega(r) = -log Lambda(r), cross-checked against the parametric forms
    t m'(t) - m(t) and t + t^2 mu'(t) at the stationary point."""
    return _transform(w, r)[2]


def weight_inf_integer(w: WeightFunction, r: float) -> float:
    """log lambda(r): minimize m(n) - n log r over integers n >= t0.

    The continuous objective is unimodal with minimizer t*, so scanning
    integers within two of t* (clipped to >= t0) suffices.
    """
    return _transform(w, r)[3]


def _integer_infs(w: WeightFunction, log_r: np.ndarray, t_star: np.ndarray) -> np.ndarray:
    """log lambda(r) at each (log r, t*), every t* finite (see _stationary_points).

    Each candidate n is a Python int converted by float(), as ``n * log r``
    converts it; floor(t*) - 2 + k in float arithmetic would round past 2^53.
    A NaN objective never wins the minimum, which is inf when every
    candidate's objective is NaN, as in a running ``min(best, value)``.
    """
    first = math.ceil(w.t0)
    candidates, starts = [], []
    for t in t_star.tolist():
        lo = max(first, math.floor(t) - 2)
        starts.append(len(candidates))
        candidates.extend(map(float, range(lo, max(lo, math.ceil(t) + 2) + 1)))
    n = np.array(candidates, dtype=float)
    counts = np.diff(starts + [n.size])
    with np.errstate(all="ignore"):
        values = _m_parts(w, n)[0] - n * np.repeat(log_r, counts)
    values[np.isnan(values)] = math.inf
    return np.minimum.reduceat(values, starts) if starts else values


def transforms(w: WeightFunction, r: float) -> tuple[float, float, float]:
    """(log Lambda(r), omega(r), log lambda(r)) from one stationary-point
    solve; each equals what weight_inf, omega and weight_inf_integer return."""
    return _transform(w, r)[1:]


def _start_radius(w: WeightFunction, offset: float, factor: float, reach: float) -> float:
    """factor e^{m'(t0 + offset)}, the first radius of a grid that may run to
    ``reach`` times it.  Rejects a t0 that puts that grid past the float range."""
    m1 = _m_parts(w, w.t0 + offset)[1]
    if not m1 + math.log(factor * reach) < _LOG_FLOAT_MAX:
        raise ValidationError(
            f"t0 = {w.t0:g} is too large: the radii from e^(m'(t0 + {offset:g})) = e^{m1:g} "
            "leave the float range"
        )
    return factor * float(np.exp(m1))


def transform_grid(w: WeightFunction, r_max: float, samples: int) -> dict:
    """float64 arrays of log Lambda, omega and log lambda at ``samples`` radii
    ``r``, log-spaced from 1.01 e^{m'(t0 + 1)} to ``r_max`` (1 <= samples <= SAMPLES_MAX)."""
    if not 1 <= samples <= SAMPLES_MAX:
        raise ValidationError(f"samples must be in [1, {SAMPLES_MAX}], got {samples}")
    r_start = _start_radius(w, 1.0, 1.01, 2.0)
    if not r_start * 2 < r_max < math.inf:
        raise ValidationError(f"r_max must be finite and exceed {r_start * 2:g} for this t0")
    r_values = np.exp(np.linspace(np.log(r_start), np.log(r_max), samples))
    _, lam, omega_values, lam_int, error = _transforms(w, r_values.tolist())
    if error:
        raise error
    return {"r": r_values, "Lambda_log": lam, "omega": omega_values, "lambda_log": lam_int}


def invariant_battery(w: WeightFunction, r_max: float) -> dict:
    """The sandwich lambda - delta <= Lambda <= lambda and the growth of omega
    on 100 log-spaced radii up to max(r_max, 4 r_lo), the shift bound for
    j <= 3 and integers p from t0 to max(1000, int(t0) + 2), and the algebra
    property up to n = 200.

    The sandwich allows 1e-9 + 1e-12 |Lambda| on each side: Lambda is
    m(t*) - t* log r and carries the rounding of m(t*), whose ulp exceeds
    1e-9 at large r.  A transform past the float range is a ValidationError,
    not a failed verdict.
    """
    if not math.isfinite(r_max):
        raise ValidationError(f"r_max must be finite, got {r_max!r}")
    r_lo = _start_radius(w, 1.5, 1.05, 4.0)
    grid = np.exp(np.linspace(np.log(r_lo), np.log(max(r_max, 4 * r_lo)), 100)).tolist()
    _, lam, omega_values, lam_int, error = _transforms(w, grid)
    bad = np.flatnonzero(~np.isfinite([lam, lam_int]).all(axis=0))  # omega is -Lambda
    if bad.size:
        r = grid[bad[0]]
        raise ValidationError(f"Lambda, omega or lambda at r = {r:g} leaves the float range")
    if error:
        raise error
    tol = 1e-9 + 1e-12 * np.abs(lam)
    sandwich_ok = bool(((lam_int - w.delta - tol <= lam) & (lam <= lam_int + tol)).all())
    omega_increasing = bool((omega_values[1:] > omega_values[:-1]).all())
    p_hi = max(1000, int(w.t0) + 2)  # never an empty range of p
    shift_ok = all(shift_bound_check(w, j, int(w.t0) + 1, p_hi) for j in (0, 1, 2, 3))
    algebra_ok = algebra_check(w, 200)
    return {
        "sandwich_ok": sandwich_ok,
        "omega_increasing": omega_increasing,
        "shift_ok": shift_ok,
        "algebra_ok": algebra_ok,
        "ok": sandwich_ok and omega_increasing and shift_ok and algebra_ok,
    }


@dataclass(frozen=True)
class IntegralTrend:
    integral: float
    report: SeriesReport


def integral_test(
    w: WeightFunction,
    r0: float,
    r_max: float,
    panels: int = 64,
) -> IntegralTrend:
    """Composite Simpson quadrature of omega(r)/r^2 from r0 to r_max.

    Integration runs in u = log r (uniform panels per doubling); the trend
    verdict treats the per-doubling increments as series terms with
    abscissae log R_j.
    """
    if panels < 1:
        raise ValidationError("panels must be >= 1")
    if not math.isfinite(r_max):
        raise ValidationError(f"r_max must be finite, got {r_max!r}")
    if r_max < r0:
        raise ValidationError("need r0 <= r_max")
    weight_inf(w, r0)  # validates r0 against the boundary condition
    if r_max == r0:
        return IntegralTrend(integral=0.0, report=diagnose_series([0.0, 0.0]))
    if r_max < 2.0 * r0:
        raise ValidationError("need at least one doubling between r0 and r_max")

    edges = [math.log(r0)]
    u_max = math.log(r_max)
    while edges[-1] + math.log(2.0) < u_max - 1e-12:
        edges.append(edges[-1] + math.log(2.0))
    edges.append(u_max)

    steps = [(b - a) / (2 * panels) for a, b in zip(edges, edges[1:])]
    nodes = [a + i * h for a, h in zip(edges, steps) for i in range(2 * panels + 1)]
    _, _, omegas, _, error = _transforms(w, [math.exp(u) for u in nodes])
    if error:
        raise error
    # omega(e^u) e^{-u}: the substitution r = e^u absorbs one 1/r
    integrand = [value * math.exp(-u) for u, value in zip(nodes, omegas.tolist())]
    increments = []
    for start, h in zip(range(0, len(nodes), 2 * panels + 1), steps):
        values = integrand[start : start + 2 * panels + 1]
        acc = values[0] + values[-1]
        acc += 4.0 * sum(values[1:-1:2]) + 2.0 * sum(values[2:-2:2])
        increments.append(acc * h / 3.0)

    xs = edges[1:]
    report = diagnose_series(increments, xs=xs)
    return IntegralTrend(integral=float(math.fsum(increments)), report=report)


def ratio_series_weight(w: WeightFunction, n0: int, n_max: int) -> SeriesReport:
    """Terms M(n)/M(n+1) = exp(m(n) - m(n+1)) for n = n0..n_max-1."""
    if n0 < w.t0:
        raise ValidationError(f"n0 = {n0} must be >= t0 = {w.t0:g}")
    if n_max <= n0 + 1:
        raise ValidationError("need n_max > n0 + 1")
    with np.errstate(all="ignore"):
        m = _m_parts(w, np.array(range(n0, n_max + 1), dtype=float))[0]
        steps = m[:-1] - m[1:]
    return diagnose_series(_libm(math.exp, steps))


def shift_bound_check(w: WeightFunction, j: int, p_lo: int, p_hi: int) -> bool:
    """Check m(p+j) - m(p) <= j(C + j delta) + p j delta for integer p.

    C = m'(t0) - delta t0 realizes the linear bound m'(t) <= delta t + C
    that m'' <= delta forces.  Rejects a range with no p >= t0 in it.
    """
    if j < 0:
        raise ValidationError("j must be nonnegative")
    ps = _p_range(w, p_lo, p_hi)
    delta = w.delta
    c_const = _m_parts(w, w.t0)[1] - delta * w.t0
    # m at each integer of ps and of ps + j, once; float(p * j), not
    # float(p) * j, and float(p) of the int, not a float sum, since p may
    # pass 2^53
    pj = np.array([float(p * j) for p in ps])
    with np.errstate(all="ignore"):
        gap = 0.0
        if j:
            m_at = _m_parts(w, np.array([float(p) for p in range(ps.start, ps.stop + j)]))[0]
            gap = m_at[j:] - m_at[: len(ps)]
        allowed = j * (c_const + j * delta) + pj * delta
        return not (gap > allowed + _SLACK * np.maximum(1.0, np.abs(allowed))).any()


def _p_range(w: WeightFunction, p_lo: int, p_hi: int) -> range:
    """The integers p >= t0 in [p_lo, p_hi]; a check over none would pass vacuously."""
    ps = range(max(p_lo, math.ceil(w.t0)), p_hi + 1)
    if not ps:
        raise ValidationError(f"no integer p >= t0 = {w.t0:g} in [{p_lo}, {p_hi}]")
    return ps


def _extended_m(w: WeightFunction, t: np.ndarray) -> np.ndarray:
    """Convex zero-extension at each item of t: 0 below t0, m(t) - m(t0)
    above."""
    ext = np.zeros(t.size)
    above = t > w.t0
    with np.errstate(all="ignore"):
        ext[above] = _m_parts(w, t[above])[0] - _m_parts(w, w.t0)[0]
    return ext


def algebra_check(w: WeightFunction, n_max: int) -> bool:
    """Check M(n-j) M(j) <= M(n) for 0 <= j <= n <= n_max, in the log domain,
    using the convex zero-extension of m (normalized to vanish at t0).
    Rejects n_max < 1, which leaves nothing to check, and n_max > 2^14: the
    O(n_max^2) work took 1.4 s and 94 MB at 2^14 (2-core VM, numpy 2.4)."""
    if n_max < 1:
        raise ValidationError(f"n_max must be at least 1, got {n_max}")
    if n_max > 2**14:
        raise ValidationError(f"n_max must be at most {2**14}, got {n_max}")
    ext = _extended_m(w, np.arange(n_max + 1, dtype=float))
    with np.errstate(all="ignore"):
        bound = ext + _SLACK * np.maximum(1.0, np.abs(ext))
        # row n of a block holds ext[j] + ext[n - j], kept for j <= n
        for first in range(0, n_max + 1, _ALGEBRA_ROWS):
            n = np.arange(first, min(first + _ALGEBRA_ROWS, n_max + 1))[:, None]
            j = np.arange(n[-1, 0] + 1)
            if ((ext[j] + ext[np.abs(n - j)] > bound[n]) & (j <= n)).any():
                return False
    return True


def analytic_criterion(w: WeightFunction, c: float, r_lo: float, p_lo: int, p_hi: int) -> bool:
    """Linear-growth criterion: if omega(r) >= c r on [r_lo, r_lo * 2^10],
    then m(p) <= delta + log p! - p log c for p in range.

    The hypothesis grid check rejects (reporting the violating r) when the
    transform grows sublinearly, as it does for the loglog entry.  Rejects a
    range with no p >= t0 in it.
    """
    if not (c > 0):
        raise ValidationError("c must be positive")
    if not 0 < r_lo < math.inf:
        raise ValidationError(f"r_lo must be positive and finite, got {r_lo!r}")
    ps = _p_range(w, p_lo, p_hi)
    u_lo = math.log(r_lo)
    radii = _exp(np.linspace(u_lo, u_lo + 10.0 * math.log(2.0), 33)).tolist()
    if math.inf in radii:
        raise ValidationError(f"r_lo * 2^10 leaves the float range (r_lo = {r_lo!r})")
    _, _, omegas, _, error = _transforms(w, radii)
    for r, omega_r in zip(radii, omegas.tolist()):
        if omega_r < c * r:
            raise ValidationError(f"hypothesis fails: omega({r:g}) = {omega_r:g} < c r = {c * r:g}")
    if error:
        raise error
    log_c = math.log(c)
    for p in ps:
        allowed = w.delta + math.lgamma(p + 1) - p * log_c
        tol = _SLACK * max(1.0, abs(allowed))
        if _m_parts(w, float(p))[0] > allowed + tol:
            return False
    return True


def loglog_asymptotics_check(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample omega(s) * e * log(s) / s for the loglog entry (t0 = 10) at the
    64 radii of ``transform_grid``.

    The ratio drifts toward 1 as s grows; convergence is logarithmically
    slow (the correction is of order log log s / log s), so callers should
    only pin tolerances at large s.
    """
    if not 1e3 <= r_max < math.inf:
        raise ValidationError(f"r_max must be finite and at least 1e3, got {r_max!r}")
    table = transform_grid(make_weight("loglog", 10.0), r_max, 64)
    grid = table["r"]
    with np.errstate(over="ignore"):
        return grid, table["omega"] * math.e * _libm(math.log, grid) / grid
