"""errors.bounded_int, the one reader of an integer size, order or index, and
the library arguments it reads: each rejects a bool, a float and a string
with ``<name> must be an integer``, whatever its range.  Beside it,
errors.bounded_float and every named real argument of the library, and the
size caps of weights and gontcharoff at their bounds."""

import math
import re

import numpy as np
import pytest

import quasikit as qk
from quasikit import gontcharoff, jets, weights
from quasikit.errors import QUOTE_MAX, bounded_float, bounded_int

from conftest import exp_spec


def test_a_numpy_integer_comes_back_as_an_int():
    value = bounded_int(np.int64(7), "k", 0, 9)
    assert value == 7 and type(value) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, 2.5, "3"])
def test_a_bool_a_float_or_a_string_is_no_integer(value):
    with pytest.raises(qk.ValidationError, match=r"^k must be an integer, got "):
        bounded_int(value, "k", 0, 9)


def test_both_ends_are_inclusive():
    assert [bounded_int(v, "k", 2, 5) for v in (2, 5)] == [2, 5]
    for v in (1, 6):
        with pytest.raises(qk.ValidationError, match=rf"^k must be in \[2, 5\], got {v}$"):
            bounded_int(v, "k", 2, 5)


def test_a_long_value_is_quoted_short():
    with pytest.raises(qk.ValidationError) as err:
        bounded_int(10**100, "k", 0, 5)
    assert str(err.value) == f"k must be in [0, 5], got {'1' + '0' * (QUOTE_MAX - 1)}..."


def _weights():
    return qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=30))


def _envelope():
    return qk.derivative_envelope(exp_spec(), 4, grid_size=8)


# the zero entry from t0 = 10: exp(m'(t0)) = 27.2, so radii from 1e3 are interior
W = qk.make_weight("zero", 10.0)


# each library argument that bounded_int reads, as (name, call with the value)
CALLS = {
    "spec horizon": ("horizon", lambda v: qk.SequenceSpec(family="factorial", horizon=v)),
    "make_sequence horizon": (
        "horizon", lambda v: qk.make_sequence(qk.SequenceSpec("factorial", 9), horizon=v)
    ),
    "jet_eval order": ("jet order", lambda v: qk.jet_eval(exp_spec(), 0.5, v)),
    "jet_derivatives order": ("jet order", lambda v: qk.jet_derivatives(exp_spec(), 0.5, v)),
    "envelope nmax": ("jet order", lambda v: qk.derivative_envelope(exp_spec(), v)),
    "monotonicity nmax": (
        "jet order", lambda v: qk.monotonicity_check(exp_spec(), _weights(), v)
    ),
    "grid_size": ("grid_size", lambda v: jets.domain_grid(exp_spec(), v)),
    "jet derivative": ("derivative order", lambda v: qk.jet_eval(exp_spec(), 0.5, 4).derivative(v)),
    "tail sup n": (
        "n", lambda v: qk.derivative_tail_sup(exp_spec(), 0.5, v, _weights(), 10)
    ),
    "tail sup horizon": (
        "horizon", lambda v: qk.derivative_tail_sup(exp_spec(), 0.5, 1, _weights(), v)
    ),
    "translation q": (
        "q", lambda v: qk.translation_estimate_check(exp_spec(), _weights(), 0.5, 0.1, 1, v, 10)
    ),
    "translation n": (
        "n", lambda v: qk.translation_estimate_check(exp_spec(), _weights(), 0.5, 0.1, v, 5, 10)
    ),
    "spacing nmax": ("nmax", lambda v: qk.zero_spacing_experiment(exp_spec(), _weights(), v)),
    "gontcharoff derivative": (
        "derivative order", lambda v: qk.build([0.0, 0.5, 1.0]).derivative(v)
    ),
    "swap k": ("k", lambda v: qk.swap_identity_residual([0.0, 0.5, 1.0], v, 0.2, 0.3)),
    "sweep": ("sweep", lambda v: qk.identity_sweep([0.0, 0.5], v, 0)),
    "nbar item": ("nbar item", lambda v: qk.cn_membership_bound(_envelope(), [v], 1.0, 1.0)),
    "abel order": ("order", lambda v: qk.abel_expand(exp_spec(), [0.0, 0.5, 1.0], v, 0.3)),
    "samples": (
        "samples", lambda v: weights.transform_grid(qk.make_weight("loglog", 10.0), 1e6, v)
    ),
    "sweep seed": ("seed", lambda v: qk.identity_sweep([0.0, 0.5], 4, v)),
    "shift j": ("j", lambda v: qk.shift_bound_check(W, v, 10, 20)),
    "shift p_lo": ("p_lo", lambda v: qk.shift_bound_check(W, 1, v, 20)),
    "shift p_hi": ("p_hi", lambda v: qk.shift_bound_check(W, 1, 10, v)),
    "integral panels": ("panels", lambda v: qk.integral_test(W, 1e3, 1e6, v)),
    "algebra n_max": ("n_max", lambda v: qk.algebra_check(W, v)),
    "ratio n0": ("n0", lambda v: qk.ratio_series_weight(W, v, 20)),
    "ratio n_max": ("n_max", lambda v: qk.ratio_series_weight(W, 10, v)),
    "null test q": ("q", lambda v: qk.null_test_bound(v, 1, 1.0, 1.0, 0.0, 0.0, 0.1)),
    "null test ms": ("ms", lambda v: qk.null_test_bound(1, v, 1.0, 1.0, 0.0, 0.0, 0.1)),
}


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=repr)
@pytest.mark.parametrize("case", sorted(CALLS))
def test_every_integer_argument_rejects_a_non_integer(case, value):
    name, call = CALLS[case]
    with pytest.raises(qk.ValidationError, match=rf"^{re.escape(name)} must be an integer, got "):
        call(value)


def test_nbar_items_are_read_as_they_are():
    # 1.5 was read as the index 1
    with pytest.raises(qk.ValidationError, match=r"^nbar item must be an integer, got 1\.5$"):
        qk.cn_membership_bound(_envelope(), [1.5], 1.0, 1.0)
    with pytest.raises(qk.ValidationError, match=r"^nbar item must be in \[0, 4\], got 5$"):
        qk.cn_membership_bound(_envelope(), [1, 5], 1.0, 1.0)


@pytest.mark.parametrize("n, message", [
    (3, "order must be in [0, 2], got 3"),
    (gontcharoff.DEGREE_CAP, f"order must be in [0, 2], got {gontcharoff.DEGREE_CAP}"),
])
def test_abel_order_is_bounded_by_the_nodes(n, message):
    with pytest.raises(qk.ValidationError, match=f"^{re.escape(message)}$"):
        qk.abel_expand(exp_spec(), [0.0, 0.5, 1.0], n, 0.3)


def _seq():
    return qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=30))


def _null_test(**args):
    given = dict(q=1, ms=1, a_const=1.0, b_const=1.0, x=0.0, x_q=0.0, r_q=0.1)
    return qk.null_test_bound(**{**given, **args})


NODES = [0.0, 0.5, 1.0]

# each real argument that bounded_float reads, as (name, lo, hi, open, call
# with the value); an unbounded end is infinite
REALS = {
    "alpha": ("alpha", 0, 1, True, lambda v: qk.make_weight("power", 10.0, alpha=v)),
    "t0": ("t0", 0, math.inf, True, lambda v: qk.make_weight("zero", v)),
    "m_eval t": ("t", 10.0, math.inf, False, lambda v: qk.m_eval(W, v)),
    "transform_grid r_max": (
        "r_max", 2 * weights._start_radius(W, 1.0, 1.01, 2.0), math.inf, True,
        lambda v: weights.transform_grid(W, v, 4),
    ),
    "battery r_max": ("r_max", -math.inf, math.inf, False, lambda v: qk.invariant_battery(W, v)),
    "loglog r_max": ("r_max", 1000, math.inf, False, qk.loglog_asymptotics_check),
    "integral r0": ("r0", -math.inf, math.inf, False, lambda v: qk.integral_test(W, v, 1e6)),
    "integral r_max": ("r_max", 1e3, math.inf, False, lambda v: qk.integral_test(W, 1e3, v)),
    "analytic c": ("c", 0, math.inf, True, lambda v: qk.analytic_criterion(W, v, 50.0, 1, 10)),
    "analytic r_lo": (
        "r_lo", 0, math.inf, True, lambda v: qk.analytic_criterion(W, 0.35, v, 1, 10)
    ),
    "eval x": ("x", -math.inf, math.inf, False, lambda v: qk.build(NODES).eval(v)),
    "oracle x": ("x", -math.inf, math.inf, False, lambda v: qk.integral_oracle(NODES, v)),
    "swap x": (
        "x", -math.inf, math.inf, False, lambda v: qk.swap_identity_residual(NODES, 1, 0.2, v)
    ),
    "swap y": (
        "y", -math.inf, math.inf, False, lambda v: qk.swap_identity_residual(NODES, 1, v, 0.3)
    ),
    "decomposition x": (
        "x", -math.inf, math.inf, False, lambda v: qk.decomposition_residual(NODES, NODES, v)
    ),
    "bound x": ("x", -math.inf, math.inf, False, lambda v: qk.gontcharoff_bound(NODES, v)),
    "abel x": ("x", -math.inf, math.inf, False, lambda v: qk.abel_expand(exp_spec(), NODES, 1, v)),
    "sweep tolerance": (
        "tolerance", -math.inf, math.inf, False, lambda v: qk.identity_sweep(NODES, 4, 0, v)
    ),
    "cn A": ("A", 0, math.inf, True, lambda v: qk.cn_membership_bound(_envelope(), [1, 2], v, 1.0)),
    "cn B": ("B", 0, math.inf, True, lambda v: qk.cn_membership_bound(_envelope(), [1, 2], 1.0, v)),
    "null test A": ("A", 0, math.inf, True, lambda v: _null_test(a_const=v)),
    "null test B": ("B", 0, math.inf, True, lambda v: _null_test(b_const=v)),
    "null test x": ("x", -math.inf, math.inf, False, lambda v: _null_test(x=v)),
    "null test x_q": ("x_q", -math.inf, math.inf, False, lambda v: _null_test(x_q=v)),
    "null test r_q": ("r_q", 0, math.inf, False, lambda v: _null_test(r_q=v)),
    "sigma_div": ("sigma_div", -math.inf, math.inf, False,
                  lambda v: qk.diagnose_series([1.0, 2.0], sigma_div=v)),
    "eps_conv": ("eps_conv", -math.inf, math.inf, False,
                 lambda v: qk.diagnose_series([1.0, 2.0], eps_conv=v)),
    "gevrey s": ("gevrey parameter s", 0, math.inf, True,
                 lambda v: qk.SequenceSpec("gevrey", 9, {"s": v})),
    "denjoy1 C": ("denjoy1 parameter C", 0, math.inf, True,
                  lambda v: qk.SequenceSpec("denjoy1", 9, {"C": v})),
    "denjoy2 C": ("denjoy2 parameter C", 0, math.inf, True,
                  lambda v: qk.SequenceSpec("denjoy2", 9, {"C": v})),
    "is_log_convex tol": ("tol", -math.inf, math.inf, False, lambda v: qk.is_log_convex(_seq(), v)),
    "liminf cap": ("cap", -math.inf, math.inf, False, lambda v: qk.liminf_check(_seq(), v)),
}


def _bad_reals(lo, hi, open):
    """Four values that are no finite number, and one past each finite end:
    the end itself when the interval is open, else the next float out."""
    values = [math.nan, math.inf, True, "1"]
    for end, out in ((lo, -math.inf), (hi, math.inf)):
        if math.isfinite(end):
            values.append(float(end) if open else math.nextafter(end, out))
    return values


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}-{value!r}")
    for case in sorted(REALS) for value in _bad_reals(*REALS[case][1:4])
])
def test_every_real_argument_rejects_a_bad_value(case, value):
    name, lo, hi, is_open, call = REALS[case]
    if isinstance(value, float) and math.isfinite(value):
        interval = f"({lo!r}, {hi!r})" if is_open else f"[{lo!r}, {hi!r}]"
        wording = f"in {interval}, got {value!r}"
    else:
        wording = f"a finite number, got {value!r}"
    with pytest.raises(qk.ValidationError, match=f"^{re.escape(f'{name} must be {wording}')}$"):
        call(value)


def test_bounded_float_returns_a_float():
    value = bounded_float(np.float64(0.5), "x", 0, 1, open=True)
    assert value == 0.5 and type(value) is float
    assert bounded_float(3, "x") == 3.0 and type(bounded_float(3, "x")) is float
    assert [bounded_float(v, "x", 2, 5) for v in (2, 5)] == [2.0, 5.0]
    with pytest.raises(qk.ValidationError, match=r"^x must be a finite number, got 1000000"):
        bounded_float(10**400, "x")


# each size cap of weights and gontcharoff, as (name, its bound, call with the
# value); the bound reads weights' caps when it is called
CAPS = {
    # two doublings from 1e3 to 4e3, each solving 2 panels + 1 radii
    "integral panels": (
        "panels", lambda: (weights.INTEGRAL_RADII_MAX // 2 - 1) // 2,
        lambda v: qk.integral_test(W, 1e3, 4e3, v),
    ),
    "ratio n_max": (
        "n_max", lambda: 10 + weights.HORIZON_MAX - 1, lambda v: qk.ratio_series_weight(W, 10, v)
    ),
    "shift j": ("j", lambda: weights.HORIZON_MAX, lambda v: qk.shift_bound_check(W, v, 10, 20)),
    "shift p_hi": (
        "p_hi", lambda: 10 + weights.HORIZON_MAX - 1, lambda v: qk.shift_bound_check(W, 1, 10, v)
    ),
    "analytic p_hi": (
        "p_hi", lambda: 10 + weights.HORIZON_MAX - 1,
        lambda v: qk.analytic_criterion(W, 0.35, 50.0, 1, v),
    ),
    "null test q": ("q", lambda: 2**53, lambda v: _null_test(q=v)),
    "null test ms": ("ms", lambda: 2**53, lambda v: _null_test(ms=v)),
}


@pytest.mark.parametrize("case", sorted(CAPS))
def test_each_size_cap_admits_its_bound_and_rejects_one_past_it(monkeypatch, case):
    name, bound, call = CAPS[case]
    # one past the cap is rejected before anything is allocated
    hi = bound()
    message = rf"^{name} must be in \[[^,]+, {hi}\], got {hi + 1}$"
    with pytest.raises(qk.ValidationError, match=message):
        call(hi + 1)
    # at the cap the call runs; weights' caps shrink so that it runs small
    monkeypatch.setattr(weights, "HORIZON_MAX", 64)
    monkeypatch.setattr(weights, "INTEGRAL_RADII_MAX", 2**10)
    call(bound())
