"""Continuous weight functions m(t) = t log t + t mu(t) and their transforms.

M(t) = e^{m(t)} generalizes weight sequences to a continuous parameter.  The
key transforms are the infimum

    Lambda(r) = inf_{t >= t0} M(t) / r^t        (log domain here),

its exponent omega(r) = -log Lambda(r), and the integer-restricted variant
lambda(r).  The stationary point solves m'(t) = log r, unique because m' is
increasing and unbounded; everything downstream (divergence tests, shift and
algebra bounds, the analyticity criterion) reduces to closed-form evaluation
plus a bisection for that stationary point.

The catalog keeps mu in {0, log log t, log t, t^alpha (alpha < 1)}; all
derivatives are closed-form.  Hypothesis constants: delta = m''(t0) (m'' is
decreasing on every catalog entry, asserted on a validation grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, ValidationError
from .series import SeriesReport, diagnose_series

MU_FAMILIES = ("zero", "loglog", "log", "power")

_VALIDATION_GRID = 64
_VALIDATION_SPAN = 2.0**20

# relative tolerance of omega's parametric cross-checks
_OMEGA_CHECK_RTOL = 1e-9

# relative slack of the shift, algebra and analytic-criterion bounds
_SLACK = 1e-9


@dataclass(frozen=True)
class WeightFunction:
    """Catalog weight function with its hypothesis constants.

    ``delta`` bounds m'' on [t0, inf).  The transforms only need the m' and
    m'' hypotheses from t0, so m itself may still be negative at t0.
    """

    mu: str
    t0: float
    alpha: float | None = None
    delta: float = 0.0

    def __post_init__(self):
        if self.mu not in MU_FAMILIES:
            raise ValidationError(f"unknown mu {self.mu!r}; expected {MU_FAMILIES}")
        if self.mu == "power":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("power family needs 0 < alpha < 1")
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValidationError("t0 must be a positive real")


def _m_parts(w: WeightFunction, t: float) -> tuple[float, float, float]:
    lt = math.log(t)
    if w.mu == "zero":
        return t * lt, lt + 1.0, 1.0 / t
    if w.mu == "log":
        return 2.0 * t * lt, 2.0 * lt + 2.0, 2.0 / t
    if w.mu == "loglog":
        llt = math.log(lt)
        m = t * (lt + llt)
        m1 = lt + 1.0 + llt + 1.0 / lt
        m2 = (1.0 + 1.0 / lt - 1.0 / (lt * lt)) / t
        return m, m1, m2
    alpha = float(w.alpha)
    ta = t**alpha
    m = t * lt + t * ta
    m1 = lt + 1.0 + (1.0 + alpha) * ta
    m2 = 1.0 / t + alpha * (1.0 + alpha) * ta / t
    return m, m1, m2


def _mu_prime(w: WeightFunction, t: float) -> float:
    if w.mu == "zero":
        return 0.0
    if w.mu == "log":
        return 1.0 / t
    if w.mu == "loglog":
        return 1.0 / (t * math.log(t))
    return float(w.alpha) * t ** (float(w.alpha) - 1.0)


def make_weight(mu: str, t0: float, alpha: float | None = None) -> WeightFunction:
    """Build and validate a catalog weight function.

    Hypotheses m' > 0 and 0 < m'' <= m''(t0) are checked on a log-spaced
    grid spanning twenty doublings past t0.
    """
    w = WeightFunction(mu=mu, t0=float(t0), alpha=alpha)
    if mu == "loglog" and t0 <= 1.0:
        raise ValidationError("loglog needs t0 > 1 for log log t to exist")
    _, m1_at_t0, m2_at_t0 = _m_parts(w, w.t0)
    if not (m1_at_t0 > 0.0):
        raise ValidationError(f"m'({t0}) = {m1_at_t0:g} must be positive")
    if not (m2_at_t0 > 0.0):
        raise ValidationError(f"m''({t0}) = {m2_at_t0:g} must be positive")
    delta = m2_at_t0

    grid = np.exp(
        np.linspace(math.log(w.t0), math.log(w.t0 * _VALIDATION_SPAN), _VALIDATION_GRID)
    )
    for t in grid:
        _, m1, m2 = _m_parts(w, float(t))
        if not (m1 > 0.0 and 0.0 < m2 <= delta * (1.0 + 1e-9)):
            raise ValidationError(
                f"hypotheses fail at t = {t:g}: m' = {m1:g}, m'' = {m2:g}"
            )
    return WeightFunction(mu=w.mu, t0=w.t0, alpha=w.alpha, delta=delta)


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


def _bisect(above, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] around the point where ``above`` turns true, for at
    most 200 steps or until the midpoint of 0 < lo < hi hits an end."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _solve_stationary(w: WeightFunction, log_r: float) -> float:
    """Bisect m'(t) = log_r; m' is increasing and unbounded."""
    hi = 2.0 * w.t0
    doublings = 0
    while _m_parts(w, hi)[1] <= log_r:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ValidationError("bracket failure: m' never reached log r")
    lo, hi = _bisect(lambda t: not _m_parts(w, t)[1] < log_r, w.t0, hi)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class WeightInf:
    """log of the continuous infimum, with its interior minimizer."""

    log_value: float
    t_star: float


def weight_inf(w: WeightFunction, r: float) -> WeightInf:
    """log Lambda(r) = m(t*) - t* log r with m'(t*) = log r.

    Rejects r <= exp(m'(t0)): the stationary point would sit on or below the
    boundary and the sandwich reasoning needs an interior minimizer.
    """
    if not (r > 0):
        raise ValidationError("r must be positive")
    log_r = math.log(r)
    if log_r <= _m_parts(w, w.t0)[1]:
        raise ValidationError(
            f"r = {r:g} too small: need r > exp(m'(t0)) = {math.exp(_m_parts(w, w.t0)[1]):g}"
        )
    t_star = _solve_stationary(w, log_r)
    m, _, _ = _m_parts(w, t_star)
    return WeightInf(log_value=m - t_star * log_r, t_star=t_star)


def omega(w: WeightFunction, r: float) -> float:
    """omega(r) = -log Lambda(r), cross-checked against the parametric forms
    t m'(t) - m(t) and t + t^2 mu'(t) at the stationary point."""
    return _checked_omega(w, weight_inf(w, r))


def _checked_omega(w: WeightFunction, inf_result: WeightInf) -> float:
    value = -inf_result.log_value
    t = inf_result.t_star
    m, m1, _ = _m_parts(w, t)
    parametric = t * m1 - m
    scale = max(1.0, abs(value))
    if abs(parametric - value) > _OMEGA_CHECK_RTOL * scale:
        raise ConditioningError(
            f"parametric cross-check failed: {value:g} vs t m'-m = {parametric:g}"
        )
    mu_form = t + t * t * _mu_prime(w, t)
    if abs(mu_form - value) > _OMEGA_CHECK_RTOL * scale:
        raise ConditioningError(
            f"parametric cross-check failed: {value:g} vs t + t^2 mu' = {mu_form:g}"
        )
    return value


def weight_inf_integer(w: WeightFunction, r: float) -> float:
    """log lambda(r): minimize m(n) - n log r over integers n >= t0.

    The continuous objective is unimodal with minimizer t*, so scanning
    integers within two of t* (clipped to >= t0) suffices.
    """
    t_star = weight_inf(w, r).t_star
    return _integer_inf(w, math.log(r), t_star)


def _integer_inf(w: WeightFunction, log_r: float, t_star: float) -> float:
    lo = max(math.ceil(w.t0), math.floor(t_star) - 2)
    hi = math.ceil(t_star) + 2
    if hi < lo:
        hi = lo
    best = math.inf
    for n in range(int(lo), int(hi) + 1):
        best = min(best, _m_parts(w, float(n))[0] - n * log_r)
    return best


def transforms(w: WeightFunction, r: float) -> tuple[float, float, float]:
    """(log Lambda(r), omega(r), log lambda(r)) from one stationary-point
    solve; each equals what weight_inf, omega and weight_inf_integer return."""
    inf_result = weight_inf(w, r)
    return (
        inf_result.log_value,
        _checked_omega(w, inf_result),
        _integer_inf(w, math.log(r), inf_result.t_star),
    )


def transform_grid(w: WeightFunction, r_max: float, samples: int) -> dict:
    """log Lambda, omega and log lambda at ``samples`` log-spaced radii from
    1.01 e^{m'(t0 + 1)} up to ``r_max``."""
    r_start = 1.01 * np.exp(m_eval(w, w.t0 + 1.0).m1)
    if not r_start * 2 < r_max < math.inf:
        raise ValidationError(f"r_max must be finite and exceed {r_start * 2:g} for this t0")
    r_values = np.exp(np.linspace(np.log(r_start), np.log(r_max), samples)).tolist()
    lam, omega_values, lam_int = (list(col) for col in zip(*(transforms(w, r) for r in r_values)))
    return {"r": r_values, "Lambda_log": lam, "omega": omega_values, "lambda_log": lam_int}


def invariant_battery(w: WeightFunction, r_max: float) -> dict:
    """The sandwich lambda - delta <= Lambda <= lambda and the growth of omega
    on 100 log-spaced radii up to max(r_max, 4 r_lo), the shift bound for
    j <= 3 and the algebra property up to n = 200.

    The sandwich allows 1e-9 + 1e-12 |Lambda| on each side: Lambda is
    m(t*) - t* log r and carries the rounding of m(t*), whose ulp exceeds
    1e-9 at large r.
    """
    if not math.isfinite(r_max):
        raise ValidationError(f"r_max must be finite, got {r_max!r}")
    r_lo = 1.05 * float(np.exp(m_eval(w, w.t0 + 1.5).m1))
    grid = np.exp(np.linspace(np.log(r_lo), np.log(max(r_max, 4 * r_lo)), 100))
    sandwich_ok = True
    omega_values = []
    for r in grid.tolist():
        lam, omega_r, lam_int = transforms(w, r)
        omega_values.append(omega_r)
        tol = 1e-9 + 1e-12 * abs(lam)
        if not (lam_int - w.delta - tol <= lam <= lam_int + tol):
            sandwich_ok = False
    omega_increasing = all(b > a for a, b in zip(omega_values, omega_values[1:]))
    shift_ok = all(shift_bound_check(w, j, int(w.t0) + 1, 1000) for j in (0, 1, 2, 3))
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
    if r_max < r0:
        raise ValidationError("need r0 <= r_max")
    weight_inf(w, r0)  # validates r0 against the boundary condition
    if r_max == r0:
        return IntegralTrend(integral=0.0, report=diagnose_series([0.0, 0.0]))
    if r_max < 2.0 * r0:
        raise ValidationError("need at least one doubling between r0 and r_max")

    def integrand(u: float) -> float:
        # omega(e^u) e^{-u}: the substitution r = e^u absorbs one 1/r
        return omega(w, math.exp(u)) * math.exp(-u)

    edges = [math.log(r0)]
    u_max = math.log(r_max)
    while edges[-1] + math.log(2.0) < u_max - 1e-12:
        edges.append(edges[-1] + math.log(2.0))
    edges.append(u_max)

    increments = []
    for a, b in zip(edges, edges[1:]):
        h = (b - a) / (2 * panels)
        nodes = [a + i * h for i in range(2 * panels + 1)]
        values = [integrand(u) for u in nodes]
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
    m_values = [_m_parts(w, float(n))[0] for n in range(n0, n_max + 1)]
    terms = [math.exp(a - b) for a, b in zip(m_values, m_values[1:])]
    return diagnose_series(terms)


def shift_bound_check(w: WeightFunction, j: int, p_lo: int, p_hi: int) -> bool:
    """Check m(p+j) - m(p) <= j(C + j delta) + p j delta for integer p.

    C = m'(t0) - delta t0 realizes the linear bound m'(t) <= delta t + C
    that m'' <= delta forces.
    """
    if j < 0:
        raise ValidationError("j must be nonnegative")
    delta = w.delta
    c_const = _m_parts(w, w.t0)[1] - delta * w.t0
    start = max(p_lo, math.ceil(w.t0))
    for p in range(start, p_hi + 1):
        gap = _m_parts(w, float(p + j))[0] - _m_parts(w, float(p))[0] if j > 0 else 0.0
        allowed = j * (c_const + j * delta) + p * j * delta
        tol = _SLACK * max(1.0, abs(allowed))
        if gap > allowed + tol:
            return False
    return True


def _extended_m(w: WeightFunction, t: float) -> float:
    """Convex zero-extension: 0 below t0, m(t) - m(t0) above."""
    if t <= w.t0:
        return 0.0
    return _m_parts(w, t)[0] - _m_parts(w, w.t0)[0]


def algebra_check(w: WeightFunction, n_max: int) -> bool:
    """Check M(n-j) M(j) <= M(n) for 0 <= j <= n <= n_max, in the log domain,
    using the convex zero-extension of m (normalized to vanish at t0)."""
    ext = [_extended_m(w, float(t)) for t in range(n_max + 1)]
    for n in range(n_max + 1):
        m_n = ext[n]
        tol = _SLACK * max(1.0, abs(m_n))
        for j in range(n + 1):
            if ext[j] + ext[n - j] > m_n + tol:
                return False
    return True


def analytic_criterion(w: WeightFunction, c: float, r_lo: float, p_lo: int, p_hi: int) -> bool:
    """Linear-growth criterion: if omega(r) >= c r on [r_lo, r_lo * 2^10],
    then m(p) <= delta + log p! - p log c for p in range.

    The hypothesis grid check rejects (reporting the violating r) when the
    transform grows sublinearly, as it does for the loglog entry.
    """
    if not (c > 0):
        raise ValidationError("c must be positive")
    for u in np.linspace(math.log(r_lo), math.log(r_lo) + 10.0 * math.log(2.0), 33):
        r = math.exp(float(u))
        if omega(w, r) < c * r:
            raise ValidationError(
                f"hypothesis fails: omega({r:g}) = {omega(w, r):g} < c r = {c * r:g}"
            )
    log_c = math.log(c)
    start = max(p_lo, math.ceil(w.t0))
    for p in range(start, p_hi + 1):
        allowed = w.delta + math.lgamma(p + 1) - p * log_c
        tol = _SLACK * max(1.0, abs(allowed))
        if _m_parts(w, float(p))[0] > allowed + tol:
            return False
    return True


def loglog_asymptotics_check(r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample omega(s) * e * log(s) / s for the loglog entry (t0 = 10) at 64
    log-spaced radii.

    The ratio drifts toward 1 as s grows; convergence is logarithmically
    slow (the correction is of order log log s / log s), so callers should
    only pin tolerances at large s.
    """
    if r_max < 1e3:
        raise ValidationError("r_max must be at least 1e3")
    w = make_weight("loglog", 10.0)
    r_start = math.exp(_m_parts(w, w.t0 + 1.0)[1]) * 1.01
    grid = np.exp(np.linspace(math.log(r_start), math.log(r_max), 64))
    ratios = np.array(
        [omega(w, float(s)) * math.e * math.log(s) / s for s in grid]
    )
    return grid, ratios
