"""omega against an independent high-precision oracle.

At 50 digits ``mpmath.findroot`` solves m'(t) = log r in u = log t on a
bracket, from the closed-form m' of each catalog entry, and omega(r) =
t log r - m(t) at the root.  The library bisects for the same stationary
point in floats.
"""

import math

import mpmath
import numpy as np
import pytest

import quasikit as qk

# measured worst case: 1.2e-14 relative (zero entry, r up to 1e30); the
# bound leaves about 80x headroom
OMEGA_RTOL = 1e-12

ENTRIES = {
    "zero": ("zero", 0.5, None),
    "loglog": ("loglog", 10.0, None),
    "log": ("log", 2.0, None),
    "power": ("power", 2.0, 0.5),
    "power-small-alpha": ("power", 10.0, 0.2),
}


def _mp_m(mu, alpha, t):
    """(m, m') in mpmath for m(t) = t log t + t mu(t)."""
    lt = mpmath.log(t)
    if mu == "zero":
        return t * lt, lt + 1
    if mu == "log":
        return 2 * t * lt, 2 * lt + 2
    if mu == "loglog":
        llt = mpmath.log(lt)
        return t * (lt + llt), lt + 1 + llt + 1 / lt
    a = mpmath.mpf(alpha)
    ta = t**a
    return t * lt + t * ta, lt + 1 + (1 + a) * ta


def mp_omega(mu, alpha, t0, r):
    with mpmath.workdps(50):
        log_r = mpmath.log(mpmath.mpf(r))
        # m'(t0) < log r <= m'(r) for every entry, so the root is bracketed
        u = mpmath.findroot(
            lambda u: _mp_m(mu, alpha, mpmath.exp(u))[1] - log_r,
            (mpmath.log(t0), log_r),
            solver="anderson",
        )
        t = mpmath.exp(u)
        return float(t * log_r - _mp_m(mu, alpha, t)[0])


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_omega_matches_mpmath(name):
    mu, t0, alpha = ENTRIES[name]
    w = qk.make_weight(mu, t0, alpha=alpha)
    r_start = 1.01 * math.exp(qk.m_eval(w, w.t0 + 1.0).m1)
    for r in np.exp(np.linspace(math.log(r_start), math.log(1e30), 25)).tolist():
        want = mp_omega(mu, alpha, t0, r)
        assert abs(qk.omega(w, r) - want) <= OMEGA_RTOL * abs(want), r


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_transforms_match_separate_calls(name):
    mu, t0, alpha = ENTRIES[name]
    w = qk.make_weight(mu, t0, alpha=alpha)
    r_start = 1.01 * math.exp(qk.m_eval(w, w.t0 + 1.0).m1)
    for r in np.exp(np.linspace(math.log(r_start), math.log(1e12), 40)).tolist():
        assert qk.transforms(w, r) == (
            qk.weight_inf(w, r).log_value,
            qk.omega(w, r),
            qk.weight_inf_integer(w, r),
        )
