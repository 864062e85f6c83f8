"""The batched weight layer against the scalar code it replaced.

``scalar_stationary`` is the per-radius bisection the library ran before its
solver took all radii at once: the boundary checks of ``weight_inf``, a
doubling bracket and at most 200 halvings, each deciding m'(mid) < log r
with ``math.log``.  The batched solver must return the same t* bit for bit,
and raise the same message at the same radius.  The transforms, the shift
and the algebra checks are compared with their former loops the same way,
and ``_m_parts`` of an array with ``_m_parts`` of each float.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import quasikit as qk
from quasikit import weights as W
from quasikit.errors import (
    ConditioningError, QuasikitError, ValidationError, bounded_float, bounded_int
)


def _m1(w, t):
    return W._m_parts(w, t)[1]


def _bisect(above, lo, hi):
    for _ in range(200):
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            break
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def scalar_stationary(w, r):
    if not (r > 0):
        raise ValidationError("r must be positive")
    log_r = math.log(r)
    if log_r <= _m1(w, w.t0):
        raise ValidationError(
            f"r = {r:g} too small: need r > exp(m'(t0)) = {math.exp(_m1(w, w.t0)):g}"
        )
    hi = 2.0 * w.t0
    doublings = 0
    while _m1(w, hi) <= log_r:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ValidationError("bracket failure: m' never reached log r")
    lo, hi = _bisect(lambda t: not _m1(w, t) < log_r, w.t0, hi)
    return 0.5 * lo + 0.5 * hi


def scalar_prefix(w, radii):
    """t* of each radius up to the first one the scalar solve rejects, and
    that rejection's message (None if there is none)."""
    t_star = []
    for r in radii:
        try:
            t_star.append(scalar_stationary(w, r))
        except ValidationError as exc:
            return t_star, str(exc)
    return t_star, None


def batched_prefix(w, radii, **kwargs):
    _, t_star, error = W._stationary_points(w, radii, **kwargs)
    return t_star.tolist(), None if error is None else str(error)


def solved(w, radii, **kwargs):
    t_star, error = batched_prefix(w, radii, **kwargs)
    assert error is None
    return t_star


def bits(values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def _weight(mu, t0, alpha):
    try:
        return qk.make_weight(mu, t0, alpha=alpha if mu == "power" else None)
    except ValidationError:
        return None


weights = st.builds(
    _weight,
    st.sampled_from(W.MU_FAMILIES),
    st.floats(-1.5, 9.0).map(math.exp),
    st.floats(0.01, 0.99),
)


@settings(max_examples=150)
@given(weights, st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40))
def test_batched_solve_is_bit_identical_to_scalar_bisection(w, exponents):
    # radii up to 1e60, every one past the boundary exp(m'(t0))
    assume(w is not None)
    radii = [10.0**e for e in exponents if e * math.log(10.0) > _m1(w, w.t0)]
    assume(radii)
    want = [scalar_stationary(w, r) for r in radii]
    # so few radii finish one by one; _ARRAY_MIN = 1 runs the array throughout
    for array_min in (W._ARRAY_MIN, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(W, "_ARRAY_MIN", array_min)
            log_r, got, error = W._stationary_points(w, radii)
        assert error is None
        assert log_r == [math.log(r) for r in radii]
        assert bits(got) == bits(want)


@settings(max_examples=150)
@given(weights, st.lists(st.floats(-2.0, 300.0), min_size=1, max_size=20))
def test_errors_name_the_first_offending_radius(w, exponents):
    # small radii fall at or below the boundary, large ones past the
    # doubling bracket of small t0; either way the first offender decides
    assume(w is not None)
    radii = [10.0**e for e in exponents]
    want = scalar_prefix(w, radii)
    for array_min in (W._ARRAY_MIN, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(W, "_ARRAY_MIN", array_min)
            got = batched_prefix(w, radii)
        assert bits(got[0]) == bits(want[0])
        assert got[1] == want[1]


def test_each_error_is_raised_at_the_first_radius_that_has_one():
    w = qk.make_weight("zero", 0.5)
    assert "bracket" in scalar_prefix(w, [1e100])[1]
    for radii in ([10.0, 1e100, 1.0], [10.0, 1.0, 1e100], [10.0, -1.0, 1e100], [1e100, 0.0]):
        got = batched_prefix(w, radii)
        assert got == scalar_prefix(w, radii)
        assert got[1] is not None


@pytest.mark.parametrize("mu,t0,alpha", [("zero", 1.0, None), ("loglog", 3.0, None),
                                          ("log", 10.0, None), ("power", 3.0, 0.2),
                                          ("power", 10.0, 0.5)])
def test_every_family_on_a_dense_grid(mu, t0, alpha):
    w = qk.make_weight(mu, t0, alpha=alpha)
    lo = _m1(w, w.t0) + 1e-6
    radii = np.exp(np.linspace(lo, math.log(1e60), 512)).tolist()
    assert bits(solved(w, radii)) == bits(scalar_prefix(w, radii)[0])


DECISION_CASES = [("zero", 0.5, None), ("loglog", 10.0, None), ("log", 2.0, None),
                  ("power", 2.0, 0.5)]


def _grid(w, n=200, r_max=1e30):
    return np.exp(np.linspace(_m1(w, w.t0) + 0.01, math.log(r_max), n)).tolist()


@pytest.mark.parametrize("mu,t0,alpha", DECISION_CASES)
def test_forced_fallback_decides_every_step_in_scalar(mu, t0, alpha):
    # with an infinite band the array's m' is never trusted, so even a log
    # that is off by one leaves t* exact; with the stated band it would not
    w = qk.make_weight(mu, t0, alpha=alpha)
    radii = _grid(w)
    want = bits(scalar_prefix(w, radii)[0])
    off_by_one = lambda x: np.log(x) + 1.0  # noqa: E731
    assert bits(solved(w, radii, rtol=math.inf, log=off_by_one)) == want
    assert bits(solved(w, radii, log=off_by_one)) != want


def _two_ulps_up(x):
    return np.nextafter(np.nextafter(np.log(x), np.inf), np.inf)


@pytest.mark.parametrize("mu,t0,alpha", DECISION_CASES)
def test_band_absorbs_a_log_two_ulps_off(mu, t0, alpha):
    # a mutation check that does not depend on the host's numpy log: with
    # the stated band a log 2 ulps off still gives equal bits, and with no
    # band the last halvings take its wrong decisions
    w = qk.make_weight(mu, t0, alpha=alpha)
    radii = _grid(w)
    want = bits(scalar_prefix(w, radii)[0])
    assert bits(solved(w, radii, log=_two_ulps_up)) == want
    assert bits(solved(w, radii, rtol=0.0, log=_two_ulps_up)) != want


def test_scalar_entry_points_are_the_batch_of_one():
    w = qk.make_weight("loglog", 10.0)
    radii = _grid(w, 40, 1e12)
    t_star, lam, omegas, lam_int, error = W._transforms(w, radii)
    assert error is None
    rows = list(zip(lam.tolist(), omegas.tolist(), lam_int.tolist()))
    assert rows == [qk.transforms(w, r) for r in radii]
    assert omegas.tolist() == [qk.omega(w, r) for r in radii]
    assert t_star.tolist() == [scalar_stationary(w, r) for r in radii]
    assert [W.WeightInf(v, t) for v, t in zip(lam.tolist(), t_star.tolist())] == [
        qk.weight_inf(w, r) for r in radii
    ]
    assert lam_int.tolist() == [qk.weight_inf_integer(w, r) for r in radii]


SCALAR_ENTRY_POINTS = (qk.weight_inf, qk.omega, qk.weight_inf_integer, qk.transforms)


def _double_mu_prime_from(t_fail):
    """A _mu_prime that doubles mu'(t) from t_fail on, where the check of
    omega against t + t^2 mu'(t) then fails; t m'(t) - m(t) still agrees."""
    mu_prime = W._mu_prime

    def doubled(w, t):
        return np.where(t >= t_fail, 2.0, 1.0) * mu_prime(w, t)

    return doubled


def _doubled_mu_message(w, r):
    """The check's message at r under _double_mu_prime_from(t) for t <= t*(r),
    for loglog, whose mu'(t) is 1 / (t log t)."""
    t = scalar_stationary(w, r)
    value = -(W._m_parts(w, t)[0] - t * math.log(r))
    mu_form = t + t * (t * (2.0 * (1.0 / (t * math.log(t)))))
    return f"parametric cross-check failed: {value:g} vs t + t^2 mu' = {mu_form:g}"


def _raised(call, *args):
    with pytest.raises(QuasikitError) as info:
        call(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("fails", ["parametric", "mu", "solve"])
def test_scalar_entry_points_raise_the_same_error(monkeypatch, fails):
    # the error of the cross-check, in either form, or of the solve
    w = qk.make_weight("loglog", 10.0)
    r = 1e5
    if fails == "parametric":
        want = (ConditioningError, "parametric cross-check failed: 4413.88 vs t m'-m = 4413.88")
        monkeypatch.setattr(W, "_OMEGA_CHECK_RTOL", -1.0)
    elif fails == "mu":
        want = (ConditioningError, _doubled_mu_message(w, r))
        monkeypatch.setattr(W, "_mu_prime", _double_mu_prime_from(w.t0))
    else:
        r = 1.0
        want = (ValidationError, scalar_prefix(w, [r])[1])
    for entry in SCALAR_ENTRY_POINTS:
        assert _raised(entry, w, r) == want
    *arrays, error = W._transforms(w, [r])
    assert [a.size for a in arrays] == [0] * 4
    assert (type(error), str(error)) == want


def test_callers_meet_errors_in_radius_order(monkeypatch):
    # radii past e^139.6 leave the doubling bracket of t0 = 0.5, but an
    # earlier radius fails its own check first, as in a radius-by-radius loop
    w = qk.make_weight("zero", 0.5)
    with pytest.raises(ValidationError, match="hypothesis fails: omega"):
        W.analytic_criterion(w, 1.0, math.exp(135.0), 1, 5)
    with pytest.raises(ValidationError, match="bracket failure"):
        W.analytic_criterion(w, 1e-300, math.exp(135.0), 1, 5)

    # every radius fails the cross-check, so the error of r0, the first node, is met
    monkeypatch.setattr(W, "_OMEGA_CHECK_RTOL", -1.0)
    want = loop_rows(w, [10.0])[1]
    assert want[0] is ConditioningError and "vs t m'-m" in want[1]
    assert _raised(W.integral_test, w, 10.0, math.exp(150.0)) == want


# ---------------------------------------------------------------------------
# _m_parts of an array against _m_parts of each float


def _parts_bits(w, ts):
    with np.errstate(all="ignore"):
        got = W._m_parts(w, np.array(ts, dtype=float))
    want = zip(*(W._m_parts(w, t) for t in ts))
    return [bits(g) for g in got], [bits(v) for v in want]


@settings(max_examples=200)
@given(weights, st.data())
def test_array_parts_equal_float_parts_bitwise(w, data):
    assume(w is not None)
    ts = data.draw(st.lists(st.one_of(
        st.floats(0.0, 1e-9).map(lambda e: w.t0 * (1.0 + e)),  # at and just past t0
        st.floats(0.0, 50.0).map(lambda e: w.t0 * math.exp(e)),
        st.floats(2.0**53, 2.0**64),
        st.floats(1e300, sys.float_info.max) | st.just(math.inf),  # m overflows
    ), min_size=1, max_size=30))
    got, want = _parts_bits(w, ts)
    assert got == want


@pytest.mark.parametrize("mu,t0,alpha", [("zero", 1.5, None), ("log", 1.5, None),
                                          ("loglog", 3.0, None), ("power", 1.5, 0.37)])
def test_array_parts_equal_float_parts_on_many_points(mu, t0, alpha):
    # numpy's own log and power loops differ from the math library's on some
    # of these points on common hosts; the array's results may not
    w = qk.make_weight(mu, t0, alpha=alpha)
    ts = (t0 * np.exp(np.random.default_rng(0).uniform(0.0, math.log(100.0), 20000))).tolist()
    got, want = _parts_bits(w, ts)
    assert got == want


# ---------------------------------------------------------------------------
# the transforms against their former per-radius loops


def loop_checked_omega(w, log_value, t):
    value = -log_value
    m, m1, _ = W._m_parts(w, t)
    parametric = t * m1 - m
    scale = max(1.0, abs(value))
    if abs(parametric - value) > W._OMEGA_CHECK_RTOL * scale:
        raise ConditioningError(
            f"parametric cross-check failed: {value:g} vs t m'-m = {parametric:g}"
        )
    mu_prime = {"zero": lambda: 0.0, "log": lambda: 1.0 / t,
                "loglog": lambda: 1.0 / (t * math.log(t)),
                "power": lambda: w.alpha * t ** (w.alpha - 1.0)}[w.mu]()
    mu_form = t + t * (t * mu_prime)
    if abs(mu_form - value) > W._OMEGA_CHECK_RTOL * scale:
        raise ConditioningError(
            f"parametric cross-check failed: {value:g} vs t + t^2 mu' = {mu_form:g}"
        )
    return value


def loop_integer_inf(w, log_r, t_star):
    lo = max(math.ceil(w.t0), math.floor(t_star) - 2)
    hi = math.ceil(t_star) + 2
    if hi < lo:
        hi = lo
    best = math.inf
    for n in range(int(lo), int(hi) + 1):
        best = min(best, W._m_parts(w, float(n))[0] - n * log_r)
    return best


def loop_rows(w, radii, integer=True):
    """(log Lambda, omega[, log lambda]) per radius from the scalar solve, up
    to the first error, and that error as (type, message) or None."""
    t_star, message = scalar_prefix(w, radii)
    rows = []
    for r, t in zip(radii, t_star):
        log_r = math.log(r)
        lam = W._m_parts(w, t)[0] - t * log_r
        try:
            row = (lam, loop_checked_omega(w, lam, t))
            rows.append(row + (loop_integer_inf(w, log_r, t),) if integer else row[1])
        except (ConditioningError, OverflowError) as exc:
            return rows, (type(exc), str(exc))
    return rows, None if message is None else (ValidationError, message)


def batched_rows(w, radii):
    """_transforms as loop_rows gives it: rows, the omegas alone, t*, and the
    error as (type, message) or None."""
    t_star, lam, omegas, lam_int, error = W._transforms(w, radii)
    rows = list(zip(lam.tolist(), omegas.tolist(), lam_int.tolist()))
    return rows, omegas.tolist(), t_star.tolist(), error and (type(error), str(error))


def assert_rows_equal(w, radii):
    rows, omegas, t_star, error = batched_rows(w, radii)
    want, want_error = loop_rows(w, radii)
    assert bits(rows) == bits(want)
    assert bits(omegas) == bits(loop_rows(w, radii, False)[0])
    assert bits(t_star) == bits(scalar_prefix(w, radii)[0][: len(t_star)])
    assert error == want_error


def _zero_huge_t0():
    # 2 t0 2^19 is 6.5e307: bisecting r = e^709.78 between it and 1.3e308
    # would overflow lo + hi; t* is finite, and m(t*) and t* log r are inf
    return qk.make_weight("zero", 6.5e307 / 2**20)


ROW_CASES = {
    # m(t*) overflows on the upper radii, and every t* is past 2^53
    "zero-t0-1e300": (qk.make_weight("zero", 1e300),
                      np.exp(np.linspace(691.8, 709.7, 300)).tolist() + [1.0]),
    # integer candidates past 2^53, where a float sum would round them
    "zero-t0-2^54": (qk.make_weight("zero", 2.0**54),
                     np.exp(np.linspace(38.43, 42.0, 400)).tolist()),
    "power-t0-2^53": (qk.make_weight("power", 2.0**53, alpha=0.01),
                      np.exp(np.linspace(39.2, 41.0, 200)).tolist()),
    # t* past 1.3e154, where t * t overflows though t^2 mu'(t) = t / log t does not
    "loglog-1e150-then-small": (qk.make_weight("loglog", 1e150),
                                [math.exp(360.0), math.exp(400.0), 1.0]),
    "small-then-loglog-1e150": (qk.make_weight("loglog", 1e150),
                                [math.exp(360.0), 1.0, math.exp(400.0)]),
    # Lambda = inf - inf is NaN at t* near the top of the float range, before
    # or after a radius that is too small
    "inf-then-small": (_zero_huge_t0(), [math.exp(709.0), 1.7928227943945155e308, 1.0]),
    "small-then-inf": (_zero_huge_t0(), [math.exp(709.0), 1.0, 1.7928227943945155e308]),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_transform_rows_equal_their_loops(case):
    w, radii = ROW_CASES[case]
    assert_rows_equal(w, radii)


def test_row_cases_reach_their_errors():
    w, radii = ROW_CASES["loglog-1e150-then-small"]
    rows, error = loop_rows(w, radii)
    assert len(rows) == 2 and np.isfinite(rows).all() and error[0] is ValidationError
    w, radii = ROW_CASES["inf-then-small"]
    rows, error = loop_rows(w, radii)
    assert len(rows) == 2 and math.isnan(rows[1][0]) and error[0] is ValidationError
    assert 1.3e308 > scalar_stationary(w, radii[1]) > 6.5e307
    for case in ("small-then-loglog-1e150", "small-then-inf", "zero-t0-1e300"):
        assert loop_rows(*ROW_CASES[case])[1][0] is ValidationError


def test_midpoints_stay_finite_at_the_top_of_the_float_range(monkeypatch):
    # t* lies between 6.5e307 and 1.3e308, whose sum leaves the float range
    w, radii = ROW_CASES["inf-then-small"]
    want = scalar_stationary(w, radii[1])
    assert math.isfinite(want)
    for array_min in (W._ARRAY_MIN, 1):
        monkeypatch.setattr(W, "_ARRAY_MIN", array_min)
        assert bits(solved(w, radii[1:2])) == bits([want])


@pytest.mark.parametrize("mu,alpha", [("zero", None), ("loglog", None), ("log", None),
                                      ("power", 0.5), ("power", 0.01)])
def test_every_stationary_point_is_finite(mu, alpha):
    # from t0 = 10 up to the largest t0 the constructor admits, each radius
    # up to the float max gets a finite t* or a ValidationError, alone or
    # in an ascending batch past the boundary; none raises anything else
    solved_any = False
    for t0 in (10.0, 1e10, 1e50, 1e100, 1e150, 1e200, 1e300, sys.float_info.max / 2**20):
        w = qk.make_weight(mu, t0, alpha=alpha)
        m1 = _m1(w, t0)
        above = [sys.float_info.max]
        if m1 < 709.0:
            r = math.exp(m1)
            while not math.log(r) > m1:
                r = math.nextafter(r, math.inf)
            grid = np.exp(np.linspace(math.log(r), 709.78, 64)).tolist()
            above = sorted({r, *(x for x in grid if math.log(x) > m1), *above})
        for batch in [[1.0], [math.exp(min(m1, 709.0))]] + [[r] for r in above] + [above]:
            _, t_star, error = W._stationary_points(w, batch)
            assert np.isfinite(t_star).all()
            assert error is None or type(error) is ValidationError
            assert t_star.size == len(batch) if error is None else t_star.size < len(batch)
            solved_any |= t_star.size > 0
    assert solved_any


@pytest.mark.parametrize("radii,fails", [
    ([math.exp(360.0), math.exp(400.0), 1.0], "check"),
    ([math.exp(360.0), 1.0, math.exp(400.0)], "small"),
])
def test_check_failure_and_small_radius_meet_in_radius_order(monkeypatch, radii, fails):
    # the omega cross-check against t + t^2 mu' is made to fail from
    # t*(e^400) on, before or after a radius that is too small; the arrays
    # stop before the earlier one, and its error is the one returned
    w = qk.make_weight("loglog", 1e150)
    want_error = ((ConditioningError, _doubled_mu_message(w, math.exp(400.0)))
                  if fails == "check" else (ValidationError, scalar_prefix(w, radii)[1]))
    t_fail = scalar_stationary(w, math.exp(400.0))
    monkeypatch.setattr(W, "_mu_prime", _double_mu_prime_from(t_fail))
    rows, omegas, _, error = batched_rows(w, radii)
    assert bits(rows) == bits(loop_rows(w, radii[:1])[0])
    assert bits(omegas) == bits(loop_rows(w, radii[:1], False)[0])
    assert error == want_error


@settings(max_examples=100)
@given(weights, st.lists(st.floats(-2.0, 300.0), min_size=1, max_size=20))
def test_transform_rows_equal_their_loops_anywhere(w, exponents):
    assume(w is not None)
    assert_rows_equal(w, [10.0**e for e in exponents])


# ---------------------------------------------------------------------------
# shift and algebra checks against their former loops


def loop_shift_bound_check(w, j, p_lo, p_hi):
    ps = W._p_range(w, p_lo, p_hi)
    c_const = _m1(w, w.t0) - w.delta * w.t0
    for p in ps:
        gap = W._m_parts(w, float(p + j))[0] - W._m_parts(w, float(p))[0] if j > 0 else 0.0
        allowed = j * (c_const + j * w.delta) + p * j * w.delta
        if gap > allowed + W._SLACK * max(1.0, abs(allowed)):
            return False
    return True


def loop_extended_m(w, t):
    if t <= w.t0:
        return 0.0
    return W._m_parts(w, t)[0] - W._m_parts(w, w.t0)[0]


def loop_algebra_check(w, n_max, extended_m=loop_extended_m):
    ext = [extended_m(w, float(t)) for t in range(n_max + 1)]
    for n in range(n_max + 1):
        tol = W._SLACK * max(1.0, abs(ext[n]))
        for j in range(n + 1):
            if ext[j] + ext[n - j] > ext[n] + tol:
                return False
    return True


def _with_delta(w, scale):
    # a delta below m''(t0) breaks the shift bound for some p
    object.__setattr__(w, "delta", w.delta * scale)
    return w


@pytest.mark.parametrize(
    "w,ranges",
    [
        (qk.make_weight("loglog", 10.0), [(11, 1000), (10, 12)]),
        (qk.make_weight("power", 2.0, alpha=0.5), [(3, 400)]),
        # p past 2^53, where float(p) * j may differ from float(p * j)
        (qk.make_weight("zero", 1e300), [(int(1e300) + 1, int(1e300) + 2)]),
        (qk.make_weight("zero", 2.0**60), [(2**60 + 1, 2**60 + 50)]),
        (_with_delta(qk.make_weight("zero", 2.0), 0.01), [(2, 1000), (900, 1000)]),
    ],
)
def test_shift_bound_check_equals_its_loop(w, ranges):
    for p_lo, p_hi in ranges:
        for j in range(5):
            assert W.shift_bound_check(w, j, p_lo, p_hi) == loop_shift_bound_check(w, j, p_lo, p_hi)


def test_shift_bound_check_fails_where_its_loop_fails():
    w = _with_delta(qk.make_weight("zero", 2.0), 0.01)
    assert W.shift_bound_check(w, 2, 2, 1000) is loop_shift_bound_check(w, 2, 2, 1000) is False


@pytest.mark.parametrize("n_max", [1, 2, 200, 255, 256, 600])
def test_algebra_check_equals_its_loop(n_max, monkeypatch):
    for w in (qk.make_weight("zero", 0.5), qk.make_weight("loglog", 10.0)):
        assert W.algebra_check(w, n_max) is loop_algebra_check(w, n_max) is True
    # an extension that breaks the property only at n = 300, past the first block
    w = qk.make_weight("zero", 0.5)
    def broken(w, t):
        return np.where(np.asarray(t) == 300.0, -1.0, 0.0)

    monkeypatch.setattr(W, "_extended_m", broken)
    assert W.algebra_check(w, n_max) is loop_algebra_check(w, n_max, broken) is (n_max < 300)


# ---------------------------------------------------------------------------
# the integral test and the analytic criterion against their former loops


def _left_sum(values):
    """Python's sum before 3.12, which adds left to right from 0; from 3.12
    on, sum compensates the rounding of float additions."""
    total = 0
    for v in values:
        total += v
    return total


def loop_integral_test(w, r0, r_max, panels=64):
    """integral_test's former per-node and per-doubling lists, as
    (integral, increments, xs)."""
    r0 = bounded_float(r0, "r0")
    r_max = bounded_float(r_max, "r_max", r0)
    qk.weight_inf(w, r0)
    edges = [math.log(r0)]
    u_max = math.log(r_max)
    while edges[-1] + math.log(2.0) < u_max - 1e-12:
        edges.append(edges[-1] + math.log(2.0))
    edges.append(u_max)
    panels = bounded_int(panels, "panels", 1, (W.INTEGRAL_RADII_MAX // (len(edges) - 1) - 1) // 2)
    if r_max == r0:
        return 0.0, [0.0, 0.0], None
    if r_max < 2.0 * r0:
        raise ValidationError("need at least one doubling between r0 and r_max")
    steps = [(b - a) / (2 * panels) for a, b in zip(edges, edges[1:])]
    nodes = [a + i * h for a, h in zip(edges, steps) for i in range(2 * panels + 1)]
    _, _, omegas, _, error = W._transforms(w, [math.exp(u) for u in nodes])
    if error:
        raise error
    integrand = [value * math.exp(-u) for u, value in zip(nodes, omegas.tolist())]
    increments = []
    for start, h in zip(range(0, len(nodes), 2 * panels + 1), steps):
        values = integrand[start : start + 2 * panels + 1]
        acc = values[0] + values[-1]
        acc += 4.0 * _left_sum(values[1:-1:2]) + 2.0 * _left_sum(values[2:-2:2])
        increments.append(acc * h / 3.0)
    return math.fsum(increments), increments, edges[1:]


def _outcome(call, *args):
    """call(*args), or the (type, message) of what it raised."""
    try:
        return call(*args)
    except (QuasikitError, OverflowError) as exc:
        return type(exc), str(exc)


def _report_bits(integral, report):
    return (bits([integral, report.slope_estimate]), bits(report.terms),
            bits(report.partial_sums), report.verdict)


def _trend(w, r0, r_max, panels):
    trend = W.integral_test(w, r0, r_max, panels)
    return _report_bits(trend.integral, trend.report)


def _loop_trend(w, r0, r_max, panels):
    integral, increments, xs = loop_integral_test(w, r0, r_max, panels)
    return _report_bits(integral, qk.diagnose_series(increments, xs=xs))


@settings(max_examples=100, deadline=None)
@given(weights, st.floats(1e-9, 3.0), st.just(0.0) | st.floats(0.9, 45.0), st.integers(1, 12))
def test_integral_test_equals_its_loop(w, above, doublings, panels):
    # from just past the boundary exp(m'(t0)), over no doubling (r_max = r0),
    # part of one, and up to 45, with panels = 1 among the cases
    assume(w is not None)
    m1 = _m1(w, w.t0)
    assume(m1 + 32.0 < 709.0)
    r0 = math.exp(m1) * (1.0 + above)
    r_max = r0 * 2.0**doublings
    got, want = _outcome(_trend, w, r0, r_max, panels), _outcome(_loop_trend, w, r0, r_max, panels)
    assert got == want


@pytest.mark.parametrize("mu,t0,alpha,r0,r_max,panels", [
    ("zero", 2.0, None, 10.0, 1e6, 1),
    ("zero", 2.0, None, 10.0, 1e6, 64),
    ("loglog", 10.0, None, 1e5, 1e40, 1),
    ("power", 1.5, 0.37, 50.0, 1e300, 2),
    ("log", 2.0, None, 100.0, 150.0, 4),  # less than one doubling
    ("zero", 2.0, None, 10.0, 10.0, 4),  # no doubling
    ("zero", 0.5, None, 10.0, sys.float_info.max, 1),
])
def test_integral_test_equals_its_loop_at_the_ends(mu, t0, alpha, r0, r_max, panels):
    w = qk.make_weight(mu, t0, alpha=alpha)
    want = _outcome(_loop_trend, w, r0, r_max, panels)
    assert _outcome(_trend, w, r0, r_max, panels) == want


def loop_analytic_criterion(w, c, r_lo, p_lo, p_hi):
    """analytic_criterion's former per-p loop, after the same hypothesis check."""
    ps = W._p_range(w, p_lo, p_hi)
    u_lo = math.log(r_lo)
    radii = W._exp(np.linspace(u_lo, u_lo + 10.0 * math.log(2.0), 33)).tolist()
    _, _, omegas, _, error = W._transforms(w, radii)
    for r, omega_r in zip(radii, omegas.tolist()):
        if omega_r < c * r:
            raise ValidationError(f"hypothesis fails: omega({r:g}) = {omega_r:g} < c r = {c * r:g}")
    if error:
        raise error
    log_c = math.log(c)
    for p in ps:
        allowed = w.delta + math.lgamma(p + 1) - p * log_c
        tol = W._SLACK * max(1.0, abs(allowed))
        if W._m_parts(w, float(p))[0] > allowed + tol:
            return False
    return True


# first p of a range: just past t0, and just below 2^53 and 2^60, where
# float(p) + 1 is not the float of the int p + 1
P_STARTS = [None, 2**53 - 40, 2**60 - 40]


@settings(max_examples=100, deadline=None)
@given(weights, st.floats(-3.0, 0.1), st.floats(0.01, 5.0), st.sampled_from(P_STARTS),
       st.integers(0, 2000))
def test_analytic_criterion_equals_its_loop(w, log_scale, above, start, span):
    # c near omega(r) / r at the top radius, so that the hypothesis mostly
    # holds and the bound holds for some ranges and fails for others
    assume(w is not None)
    m1 = _m1(w, w.t0)
    assume(m1 + above + 8.0 < 700.0)
    r_lo, r_top = math.exp(m1 + above), math.exp(m1 + above + 10.0 * math.log(2.0))
    c = math.exp(log_scale) * qk.omega(w, r_top) / r_top
    p_lo = math.ceil(w.t0) if start is None else start
    args = (w, c, r_lo, p_lo, p_lo + span)
    assert _outcome(W.analytic_criterion, *args) == _outcome(loop_analytic_criterion, *args)


@pytest.mark.parametrize("mu,t0,alpha,c,r_lo,p_lo,p_hi", [
    ("zero", 0.5, None, 0.35, 50.0, 1, 10_000),
    ("zero", 2.0, None, 1.0 / 3.0, 3200.0, 10, 200),  # the bound fails from p = 81 on
    ("zero", 2.0, None, 0.3, 3200.0, 2**53 - 3, 2**53 + 3000),
    ("power", 1.5, 0.37, 1e-3, 100.0, 2**60, 2**60 + 500),
    ("loglog", 10.0, None, 0.3, 1000.0, 11, 100),  # omega grows sublinearly
])
def test_analytic_criterion_equals_its_loop_at_the_ends(mu, t0, alpha, c, r_lo, p_lo, p_hi):
    w = qk.make_weight(mu, t0, alpha=alpha)
    args = (w, c, r_lo, p_lo, p_hi)
    assert _outcome(W.analytic_criterion, *args) == _outcome(loop_analytic_criterion, *args)
