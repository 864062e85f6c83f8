import math

import numpy as np
import pytest

import quasikit as qk
from quasikit import weights as W
from quasikit.series import CONVERGING, DIVERGING


@pytest.fixture(scope="module")
def w_zero():
    return qk.make_weight("zero", 0.5)


@pytest.fixture(scope="module")
def w_loglog():
    return qk.make_weight("loglog", 10.0)


@pytest.fixture(scope="module")
def w_log():
    return qk.make_weight("log", 2.0)


@pytest.fixture(scope="module")
def w_power():
    return qk.make_weight("power", 2.0, alpha=0.5)


class TestMEval:
    def test_plain_entry_closed_form(self, w_zero):
        res = qk.m_eval(w_zero, math.e)
        assert res.m == pytest.approx(math.e)
        assert res.m1 == pytest.approx(2.0)
        assert res.m2 == pytest.approx(1.0 / math.e)

    def test_loglog_value(self, w_loglog):
        t = math.exp(math.e)
        res = qk.m_eval(w_loglog, t)
        assert res.m == pytest.approx(t * (math.e + 1.0), rel=1e-14)

    def test_delta_is_curvature_at_origin(self, w_zero):
        assert w_zero.delta == pytest.approx(1.0 / 0.5)

    def test_constructor_derives_delta(self, w_loglog):
        w = qk.WeightFunction(mu="loglog", t0=10.0)
        assert w == w_loglog and w.delta == qk.m_eval(w, 10.0).m2
        with pytest.raises(TypeError):
            qk.WeightFunction(mu="zero", t0=1.0, delta=0.0)
        with pytest.raises(qk.ValidationError, match="loglog needs t0 > 1"):
            qk.WeightFunction(mu="loglog", t0=1.0)
        with pytest.raises(qk.ValidationError, match="must be positive"):
            qk.WeightFunction(mu="zero", t0=0.2)

    def test_below_t0_rejected(self, w_zero):
        with pytest.raises(qk.ValidationError):
            qk.m_eval(w_zero, 0.4)

    def test_family_validation(self):
        with pytest.raises(qk.ValidationError):
            qk.make_weight("power", 2.0, alpha=1.5)
        with pytest.raises(qk.ValidationError):
            qk.make_weight("loglog", 1.5)  # m'' < 0 near t0
        with pytest.raises(qk.ValidationError):
            qk.make_weight("zero", 0.2)  # m'(t0) < 0
        with pytest.raises(qk.ValidationError):
            qk.make_weight("nope", 2.0)


class TestInfimumTransform:
    def test_closed_form_for_plain_entry(self, w_zero):
        res = qk.weight_inf(w_zero, math.e)
        assert res.log_value == pytest.approx(-1.0, abs=1e-12)
        assert res.t_star == pytest.approx(1.0, rel=1e-12)

    def test_omega_linear_for_plain_entry(self, w_zero):
        for r in np.exp(np.linspace(math.log(10), math.log(1e6), 50)):
            assert qk.omega(w_zero, float(r)) == pytest.approx(r / math.e, rel=1e-9)

    def test_loglog_omega_parametric_form(self, w_loglog):
        # omega = t + t^2 mu'(t) = t + t / log t at the stationary point
        r = 1e5
        res = qk.weight_inf(w_loglog, r)
        t = res.t_star
        assert -res.log_value == pytest.approx(t + t / math.log(t), rel=1e-9)

    def test_boundary_rejection(self, w_loglog):
        with pytest.raises(qk.ValidationError):
            qk.weight_inf(w_loglog, 1.01 * math.exp(qk.m_eval(w_loglog, 10.0).m1) / 2)

    @pytest.mark.parametrize("fn", [qk.weight_inf, qk.omega, qk.weight_inf_integer, qk.transforms])
    def test_nonpositive_r_rejected(self, w_zero, fn):
        with pytest.raises(qk.ValidationError, match="positive"):
            fn(w_zero, -1.0)

    @pytest.mark.parametrize("mu,t0,alpha", [("log", 1e300, None), ("power", 1e300, 0.01),
                                             ("power", 1e150, 0.5)])
    @pytest.mark.parametrize("fn", [qk.weight_inf, qk.omega, qk.weight_inf_integer, qk.transforms])
    def test_boundary_past_the_float_range_rejects_every_radius(self, mu, t0, alpha, fn):
        # e^{m'(t0)} overflows, so the message states it as a power of e
        w = qk.make_weight(mu, t0, alpha=alpha)
        m1 = qk.m_eval(w, t0).m1
        assert m1 > 710.0
        with pytest.raises(qk.ValidationError) as info:
            fn(w, 1e300)
        assert str(info.value) == f"r = 1e+300 too small: need r > exp(m'(t0)) = e^{m1:g}"

    def test_inf_below_boundary_value(self, w_loglog):
        for r in (1e3, 1e5):
            res = qk.weight_inf(w_loglog, r)
            boundary = qk.m_eval(w_loglog, w_loglog.t0).m - w_loglog.t0 * math.log(r)
            assert res.log_value <= boundary + 1e-12

    def test_omega_increasing(self, w_loglog):
        grid = np.exp(np.linspace(math.log(500), math.log(1e6), 40))
        values = [qk.omega(w_loglog, float(r)) for r in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_integer_variant_at_integral_minimizer(self, w_zero):
        # t* = 1 exactly, so the integer infimum coincides
        assert qk.weight_inf_integer(w_zero, math.e) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("entry", ["zero", "loglog", "log", "power"])
    def test_sandwich(self, entry, w_zero, w_loglog, w_log, w_power):
        w = {"zero": w_zero, "loglog": w_loglog, "log": w_log, "power": w_power}[entry]
        r_lo = 1.05 * math.exp(qk.m_eval(w, w.t0 + 1.5).m1)
        for r in np.exp(np.linspace(math.log(r_lo), math.log(1e6), 100)):
            r = float(r)
            lam = qk.weight_inf(w, r).log_value
            lam_int = qk.weight_inf_integer(w, r)
            assert lam <= lam_int + 1e-9
            assert lam_int - w.delta <= lam + 1e-9

    def test_shift_invariance(self, w_zero):
        # replacing m by m + alpha t + beta rescales the transform:
        # log inf_t (m + alpha t + beta - t log r) = beta + log Lambda(r e^-alpha)
        alpha, beta = 0.7, -1.3
        for r in (50.0, 1e3, 1e5):
            predicted = beta + qk.weight_inf(w_zero, r * math.exp(-alpha)).log_value
            # direct closed form for m = t log t: min is -(r e^-alpha)/e + beta
            direct = beta - r * math.exp(-alpha) / math.e
            assert predicted == pytest.approx(direct, rel=1e-9)
            # and the shifted objective really attains it at the solver's t*
            t_star = qk.weight_inf(w_zero, r * math.exp(-alpha)).t_star
            objective = t_star * math.log(t_star) + alpha * t_star + beta - t_star * math.log(r)
            assert objective == pytest.approx(predicted, rel=1e-9)
            ts = np.exp(np.linspace(math.log(w_zero.t0), math.log(100 * t_star), 4000))
            sampled = ts * np.log(ts) + alpha * ts + beta - ts * math.log(r)
            assert np.min(sampled) >= predicted - 1e-9 * max(1.0, abs(predicted))


class TestTrends:
    def test_plain_entry_integral_closed_form(self, w_zero):
        res = qk.integral_test(w_zero, 100.0, 1e6, panels=64)
        assert res.integral == pytest.approx(math.log(1e6 / 100.0) / math.e, rel=1e-9)
        assert res.report.verdict == DIVERGING

    def test_degenerate_range(self, w_zero):
        res = qk.integral_test(w_zero, 100.0, 100.0)
        assert res.integral == 0.0

    @pytest.mark.parametrize("r_max", [math.inf, -math.inf, math.nan])
    def test_non_finite_r_max_rejected(self, w_zero, r_max):
        # r_max = inf used to add doubling panels until memory ran out
        with pytest.raises(qk.ValidationError, match="^r_max must be a finite number, got "):
            qk.integral_test(w_zero, 100.0, r_max)

    def test_ratio_series_divergent_entries(self, w_zero, w_loglog):
        rep = qk.ratio_series_weight(w_zero, 2, 10_000)
        assert rep.verdict == DIVERGING
        rep = qk.ratio_series_weight(w_loglog, 11, 10_000)
        assert rep.verdict == DIVERGING

    def test_ratio_series_convergent_entries(self, w_log, w_power):
        assert qk.ratio_series_weight(w_log, 3, 10_000).verdict == CONVERGING
        assert qk.ratio_series_weight(w_power, 3, 400).verdict == CONVERGING

    @pytest.mark.parametrize(
        "entry,r0,r_max",
        [
            ("zero", 100.0, 1e6),
            ("loglog", 2000.0, 1e6),
            ("log", 100.0, 1e15),
            ("power", 150.0, 1e12),
        ],
    )
    def test_trend_agreement(self, entry, r0, r_max, w_zero, w_loglog, w_log, w_power):
        w = {"zero": w_zero, "loglog": w_loglog, "log": w_log, "power": w_power}[entry]
        n_max = {"zero": 10_000, "loglog": 10_000, "log": 10_000, "power": 400}[entry]
        series_verdict = qk.ratio_series_weight(w, math.ceil(w.t0) + 1, n_max).verdict
        integral_verdict = qk.integral_test(w, r0, r_max, panels=32).report.verdict
        assert series_verdict == integral_verdict
        assert series_verdict in (DIVERGING, CONVERGING)


class TestBounds:
    def test_shift_bound_zero_entry(self, w_zero):
        assert qk.shift_bound_check(w_zero, 1, 1, 10_000)

    def test_shift_bound_loglog(self, w_loglog):
        assert qk.shift_bound_check(w_loglog, 3, 10, 10_000)

    def test_shift_bound_trivial_j(self, w_zero):
        assert qk.shift_bound_check(w_zero, 0, 1, 100)

    def test_algebra_check_entries(self, w_zero, w_loglog):
        assert qk.algebra_check(w_zero, 200)
        assert qk.algebra_check(w_loglog, 200)

    def test_analytic_criterion_plain_entry(self, w_zero):
        # omega(r) = r/e, so any c below 1/e satisfies the hypothesis
        assert qk.analytic_criterion(w_zero, 0.35, 50.0, 1, 10_000)

    def test_analytic_criterion_rejects_sublinear_growth(self, w_loglog):
        with pytest.raises(qk.ValidationError, match="hypothesis fails"):
            qk.analytic_criterion(w_loglog, 0.3, 1000.0, 11, 100)

    def test_analytic_criterion_fails_where_m_passes_the_bound(self):
        # omega(r) >= c r holds on the grid from r_lo, but m(p) passes
        # delta + log p! - p log c first at p = 81
        w = qk.make_weight("power", 10.0, alpha=0.5)
        c = 5e-5
        first = next(p for p in range(10, 101)
                     if qk.m_eval(w, float(p)).m > w.delta + math.lgamma(p + 1) - p * math.log(c))
        assert first == 81
        assert qk.analytic_criterion(w, c, 3200.0, 10, 80) is True
        assert qk.analytic_criterion(w, c, 3200.0, 10, 81) is False

    @pytest.mark.parametrize("r_lo", [0.0, -1.0, math.inf, math.nan])
    def test_analytic_criterion_rejects_bad_r_lo(self, w_zero, r_lo):
        wording = "a finite number" if not math.isfinite(r_lo) else r"in \(0, inf\)"
        with pytest.raises(qk.ValidationError, match=f"^r_lo must be {wording}, got "):
            qk.analytic_criterion(w_zero, 0.35, r_lo, 1, 10)

    def test_analytic_criterion_rejects_r_lo_past_the_float_range(self, w_zero):
        # r_lo itself is finite, but the top of its hypothesis grid, r_lo 2^10, is not
        with pytest.raises(qk.ValidationError, match=r"r_lo \* 2\^10 leaves the float range"):
            qk.analytic_criterion(w_zero, 0.35, 1e306, 1, 10)

    def test_analytic_criterion_empty_range_rejected(self, w_zero):
        with pytest.raises(qk.ValidationError, match="no integer p"):
            qk.analytic_criterion(w_zero, 0.35, 50.0, 10, 9)

    def test_checks_over_no_sample_are_rejected(self, w_zero):
        # each would otherwise pass without checking anything
        with pytest.raises(qk.ValidationError, match="no integer p"):
            qk.shift_bound_check(w_zero, 1, 10, 9)
        with pytest.raises(qk.ValidationError, match="no integer p"):
            qk.shift_bound_check(qk.make_weight("zero", 2000.0), 1, 2001, 1000)
        for n_max in (0, -1):
            message = rf"^n_max must be in \[1, 16384\], got {n_max}$"
            with pytest.raises(qk.ValidationError, match=message):
                qk.algebra_check(w_zero, n_max)
        assert qk.shift_bound_check(w_zero, 1, 9, 9)  # one p is a sample

    def test_algebra_check_rejects_n_max_past_2_to_14(self, w_zero):
        # the check's work grows as n_max^2
        with pytest.raises(qk.ValidationError, match=r"^n_max must be in \[1, 16384\], got 16385$"):
            qk.algebra_check(w_zero, 2**14 + 1)

    def test_battery_checks_the_shift_bound_past_p_1000(self):
        w = qk.make_weight("zero", 2000.0)
        assert qk.invariant_battery(w, 1e6)["shift_ok"]


class TestLoglogAsymptotics:
    def test_ratio_track(self):
        grid, ratios = qk.loglog_asymptotics_check(1e15)
        # approach to 1 is log-log slow: still 33% off at s = 1e6, inside
        # 15% only by s ~ 1e15
        assert ratios[-1] == pytest.approx(1.0, abs=0.15)
        tail = ratios[grid > 1e6]
        assert np.all(np.diff(tail) < 0)
        assert np.all(tail > 1.0)

    def test_small_smax_recorded_without_contract(self):
        grid, ratios = qk.loglog_asymptotics_check(1e3)
        assert len(ratios) == len(grid)
        assert np.all(np.isfinite(ratios))

    def test_precondition(self):
        with pytest.raises(qk.ValidationError):
            qk.loglog_asymptotics_check(500.0)

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_rejected(self, r_max):
        # inf leaked numpy's RuntimeWarning from linspace; nan passed the 1e3 test
        with pytest.raises(qk.ValidationError, match="^r_max must be a finite number, got "):
            qk.loglog_asymptotics_check(r_max)


class TestOmegaGrowthProxy:
    def test_loglog_doubling_increments_sublinear(self, w_loglog):
        # omega'(r) -> 0: the doubling increments omega(2r) - omega(r),
        # divided by r, must decay along a log grid
        grid = np.exp(np.linspace(math.log(1e3), math.log(1e6), 24))
        scaled = [
            (qk.omega(w_loglog, 2.0 * float(r)) - qk.omega(w_loglog, float(r))) / r
            for r in grid
        ]
        assert all(b < a for a, b in zip(scaled, scaled[1:]))

    def test_plain_entry_doubling_increments_linear(self, w_zero):
        # contrast case: omega = r/e gives increments exactly r/e
        for r in (100.0, 1e4):
            inc = qk.omega(w_zero, 2.0 * r) - qk.omega(w_zero, r)
            assert inc == pytest.approx(r / math.e, rel=1e-9)


@pytest.mark.parametrize("samples", [0, -3, 2**14 + 1])
def test_transform_grid_samples_outside_bounds_rejected(w_zero, samples):
    with pytest.raises(qk.ValidationError, match=r"^samples must be in \[1, 16384\], got "):
        qk.transform_grid(w_zero, 1e6, samples)


@pytest.mark.parametrize("mu", ["zero", "loglog"])
def test_invariant_battery_holds_at_large_rmax(mu):
    # at r ~ 1e7 Lambda exceeds lambda by 16 ulps of |Lambda|, far below an
    # ulp of the m(t*) that the subtraction cancels
    report = qk.invariant_battery(qk.make_weight(mu, 10.0), 1e9)
    assert report["sandwich_ok"] and report["ok"]


def test_invariant_battery_reports_a_failed_sandwich():
    # a negative delta puts lambda - delta above lambda >= Lambda, and also
    # breaks the shift bound, whose slope is delta
    w = qk.make_weight("zero", 10.0)
    object.__setattr__(w, "delta", -1.0)
    assert qk.invariant_battery(w, 1e6) == {
        "sandwich_ok": False,
        "omega_increasing": True,
        "shift_ok": False,
        "algebra_ok": True,
        "ok": False,
    }


def _battery_with_corrupted_solve(monkeypatch, change):
    # ``change`` maps the solve's (Lambda, omega, lambda) arrays to corrupted
    # ones; the shift and algebra checks read no transform
    transforms = W._transforms

    def corrupted(w, radii):
        t_star, lam, omega, lam_int, error = transforms(w, radii)
        return (t_star, *change(lam, omega, lam_int), error)

    monkeypatch.setattr(W, "_transforms", corrupted)
    return qk.invariant_battery(qk.make_weight("zero", 10.0), 1e6)


def test_invariant_battery_reports_lambda_below_Lambda(monkeypatch):
    # lambda lowered by 1 breaks the sandwich's upper half, Lambda <= lambda,
    # and keeps its lower half
    report = _battery_with_corrupted_solve(
        monkeypatch, lambda lam, omega, lam_int: (lam, omega, lam_int - 1.0)
    )
    assert report == {
        "sandwich_ok": False,
        "omega_increasing": True,
        "shift_ok": True,
        "algebra_ok": True,
        "ok": False,
    }


def test_invariant_battery_reports_a_falling_omega(monkeypatch):
    report = _battery_with_corrupted_solve(
        monkeypatch, lambda lam, omega, lam_int: (lam, omega[::-1], lam_int)
    )
    assert report == {
        "sandwich_ok": True,
        "omega_increasing": False,
        "shift_ok": True,
        "algebra_ok": True,
        "ok": False,
    }
