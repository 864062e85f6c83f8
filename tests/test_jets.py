import math

import numpy as np
import pytest

import quasikit as qk
from quasikit import jets as J

from conftest import (
    CUBE,
    EXP,
    ONE,
    ONE_PLUS_X,
    SIN,
    X,
    cos_spec,
    exp_spec,
    flat_spec,
    ones_sequence,
    rational_spec,
    sin_spec,
)

_STENCILS = {
    1: ([(-1, -0.5), (1, 0.5)], 1),
    2: ([(-1, 1.0), (0, -2.0), (1, 1.0)], 2),
    3: ([(-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)], 3),
    4: ([(-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)], 4),
}
ZERO = {"op": "const", "value": 0.0}
TWO = {"op": "const", "value": 2.0}


def finite_difference(f, t, order, h):
    stencil, power = _STENCILS[order]
    total = math.fsum(
        w * qk.jet_eval(f, t + k * h, 0).value for k, w in stencil
    )
    return total / h**power


def richardson_derivative(f, t, order, h):
    """Two Richardson steps on the central stencils: O(h^2) -> O(h^6)."""
    d1 = finite_difference(f, t, order, h)
    d2 = finite_difference(f, t, order, h / 2.0)
    d3 = finite_difference(f, t, order, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


class TestJetEval:
    def test_exp_series(self):
        jet = qk.jet_eval(exp_spec(), 0.0, 4)
        assert jet.coeffs == pytest.approx([1, 1, 0.5, 1 / 6, 1 / 24], rel=1e-15)

    def test_sin_series(self):
        jet = qk.jet_eval(sin_spec((0.0, 7.0)), 0.0, 5)
        assert jet.coeffs == pytest.approx([0, 1, 0, -1 / 6, 0, 1 / 120], abs=1e-15)

    def test_flat_function_against_symbolic_oracle(self):
        # f = exp(-1/x): f' = x^{-2} f, f'' = (x^{-4} - 2 x^{-3}) f
        jet = qk.jet_eval(flat_spec(), 1.0, 2)
        f = math.exp(-1.0)
        assert jet.value == pytest.approx(f, rel=1e-14)
        assert jet.derivative(1) == pytest.approx(f, rel=1e-14)
        assert jet.derivative(2) == pytest.approx(-f, rel=1e-14)
        t = 0.7
        jet = qk.jet_eval(flat_spec(), t, 2)
        f = math.exp(-1.0 / t)
        assert jet.derivative(1) == pytest.approx(t**-2 * f, rel=1e-13)
        assert jet.derivative(2) == pytest.approx((t**-4 - 2 * t**-3) * f, rel=1e-13)

    @pytest.mark.parametrize("t", [0.0, 0.37, 0.9])
    def test_exp_closed_form(self, t):
        jet = qk.jet_eval(exp_spec(), t, 20)
        expected = [math.exp(t) / math.factorial(k) for k in range(21)]
        assert np.allclose(jet.coeffs, expected, rtol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.8])
    def test_trig_closed_form(self, t):
        jet_s = qk.jet_eval(sin_spec(), t, 16)
        jet_c = qk.jet_eval(cos_spec(), t, 16)
        for k in range(17):
            assert jet_s.coeffs[k] == pytest.approx(
                math.sin(t + k * math.pi / 2) / math.factorial(k), abs=1e-13
            )
            assert jet_c.coeffs[k] == pytest.approx(
                math.cos(t + k * math.pi / 2) / math.factorial(k), abs=1e-13
            )

    def test_geometric_closed_form(self):
        t = 0.4
        jet = qk.jet_eval(rational_spec(), t, 24)
        base = 1.0 - t / 2.0
        expected = [0.5**k * base ** -(k + 1) for k in range(25)]
        assert np.allclose(jet.coeffs, expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "spec,t",
        [
            (exp_spec((0.0, 2.0)), 0.8),
            (sin_spec((0.0, 3.0)), 1.1),
            (rational_spec((0.0, 1.0)), 0.5),
            (flat_spec(), 1.2),
        ],
    )
    def test_against_finite_differences(self, spec, t):
        jet = qk.jet_eval(spec, t, 4)
        for order in (1, 2, 3, 4):
            h = 0.02 if order <= 2 else 0.08
            approx = richardson_derivative(spec, t, order, h)
            assert jet.derivative(order) == pytest.approx(approx, rel=1e-6)

    def test_sum_and_product_composition(self):
        t = 0.6
        order = 18
        f = qk.jet_eval(exp_spec(), t, order).coeffs
        g = qk.jet_eval(sin_spec(), t, order).coeffs
        combo = qk.FunctionSpec({"op": "add", "left": EXP, "right": SIN}, (0.0, 1.0))
        assert qk.jet_eval(combo, t, order).coeffs == pytest.approx(
            [a + b for a, b in zip(f, g)], rel=1e-14
        )
        prod = qk.FunctionSpec({"op": "mul", "left": EXP, "right": SIN}, (0.0, 1.0))
        convolution = [
            math.fsum(f[j] * g[k - j] for j in range(k + 1)) for k in range(order + 1)
        ]
        assert qk.jet_eval(prod, t, order).coeffs == pytest.approx(
            convolution, rel=1e-13, abs=1e-15
        )

    def test_affine_reparametrization(self):
        # x |-> sin(2x + 0.3)
        spec = qk.FunctionSpec({"op": "affine", "arg": SIN, "a": 2.0, "b": 0.3}, (0.0, 1.0))
        t = 0.25
        jet = qk.jet_eval(spec, t, 10)
        inner = 2.0 * t + 0.3
        for k in range(11):
            expected = 2.0**k * math.sin(inner + k * math.pi / 2) / math.factorial(k)
            assert jet.coeffs[k] == pytest.approx(expected, abs=1e-13)

    def test_log_and_pow_series(self):
        log1p = qk.FunctionSpec({"op": "log", "arg": ONE_PLUS_X}, (-0.5, 1.0))
        jet = qk.jet_eval(log1p, 0.0, 6)
        assert jet.coeffs == pytest.approx(
            [0, 1, -1 / 2, 1 / 3, -1 / 4, 1 / 5, -1 / 6], abs=1e-15
        )
        sqrt1p = qk.FunctionSpec({"op": "pow", "arg": ONE_PLUS_X, "num": 1, "den": 2}, (-0.5, 1.0))
        jet = qk.jet_eval(sqrt1p, 0.0, 4)
        assert jet.coeffs == pytest.approx([1, 0.5, -0.125, 0.0625, -0.0390625], rel=1e-14)

    def test_integer_pow_handles_zero_base(self):
        cube = qk.FunctionSpec(CUBE, (-1.0, 1.0))
        jet = qk.jet_eval(cube, 0.0, 4)
        assert jet.coeffs.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0]

    def test_pow_den_defaults_to_one(self):
        # a pow node without "den" reads as den = 1
        bare = qk.FunctionSpec({"op": "pow", "arg": X, "num": 3}, (-1.0, 1.0))
        cube = qk.FunctionSpec({"op": "pow", "arg": X, "num": 3, "den": 1}, (-1.0, 1.0))
        assert qk.jet_eval(bare, 0.5, 4).coeffs.tolist() == qk.jet_eval(cube, 0.5, 4).coeffs.tolist()

    def test_domain_errors_name_the_node(self):
        x_minus_one = {"op": "sub", "left": X, "right": ONE}
        bad_log = qk.FunctionSpec({"op": "log", "arg": x_minus_one}, (0.0, 2.0))
        with pytest.raises(qk.DomainError, match="root"):
            qk.jet_eval(bad_log, 0.5, 3)
        bad_div = qk.FunctionSpec({"op": "div", "left": ONE, "right": X}, (-1.0, 1.0))
        with pytest.raises(qk.DomainError, match="division"):
            qk.jet_eval(bad_div, 0.0, 3)
        bad_pow = qk.FunctionSpec({"op": "pow", "arg": X, "num": 1, "den": 2}, (-1.0, 1.0))
        with pytest.raises(qk.DomainError, match="pow"):
            qk.jet_eval(bad_pow, -0.5, 3)

    def test_conditioning_cap(self):
        inv = qk.FunctionSpec({"op": "div", "left": ONE, "right": X}, (1e-6, 1.0))
        with pytest.raises(qk.ConditioningError):
            qk.jet_eval(inv, 1e-5, 64)

    def test_order_and_domain_validation(self):
        with pytest.raises(qk.ValidationError):
            qk.jet_eval(exp_spec(), 0.5, 65)
        with pytest.raises(qk.ValidationError):
            qk.jet_eval(exp_spec(), 2.0, 4)

    def test_malformed_expression_rejected(self):
        with pytest.raises(qk.ValidationError):
            qk.FunctionSpec({"op": "nope"}, (0.0, 1.0))
        with pytest.raises(qk.ValidationError):
            qk.FunctionSpec({"op": "add", "left": {"op": "x"}}, (0.0, 1.0))

    def test_function_spec_json_round_trip(self):
        spec = rational_spec()
        again = qk.FunctionSpec.from_json(spec.to_json())
        assert again == spec


class TestEnvelope:
    def test_sin_full_period(self):
        env = qk.derivative_envelope(sin_spec((0.0, 2 * math.pi)), 8, grid_size=257)
        for n in range(9):
            assert env.m_est(n) == pytest.approx(1.0, abs=1e-9)

    def test_constant(self):
        env = qk.derivative_envelope(qk.FunctionSpec({"op": "const", "value": 5.0}, (0.0, 1.0)), 3)
        assert env.m_est(0) == pytest.approx(5.0, rel=1e-12)
        assert env.m_est(1) == 0.0 and env.m_est(2) == 0.0

    def test_exp_attains_endpoint(self):
        env = qk.derivative_envelope(exp_spec(), 6, grid_size=128)
        for n in range(7):
            assert env.m_est(n) == pytest.approx(math.e, rel=1e-12)


class TestTailSup:
    def test_bounded_by_exp_minus_n_under_envelope(self):
        ones = ones_sequence(40)
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = float(rng.uniform(0, 1))
            n = int(rng.integers(0, 12))
            res = qk.derivative_tail_sup(sin_spec(), t, n, ones, 39)
            assert res.log_value <= -n + 1e-12

    def test_nonincreasing_in_n(self):
        fact = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=40))
        values = [
            qk.derivative_tail_sup(exp_spec(), 0.5, n, fact, 39).log_value
            for n in range(12)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_derivative_leaves_sup_unchanged(self):
        ones = ones_sequence(40)
        a = qk.derivative_tail_sup(sin_spec(), 0.0, 0, ones, 39)
        b = qk.derivative_tail_sup(sin_spec(), 0.0, 1, ones, 39)
        assert a.log_value == b.log_value

    def test_exp_factorial_max_at_first_index(self):
        fact = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=31))
        res = qk.derivative_tail_sup(exp_spec(), 0.0, 0, fact, 30)
        # terms are 1/(e^j j!), maximized at j = 0 with value 1
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.arg_j == 0 and not res.truncated

    def test_truncation_flag_fires_for_unbounded_tail(self):
        ones = ones_sequence(40)
        res = qk.derivative_tail_sup(rational_spec(), 0.5, 0, ones, 39)
        assert res.truncated and res.arg_j == 39

    def test_sup_below_float_max_is_finite(self):
        # |f'| e^{-1} / M_1 = e^704 is a float; only a log past 709.78 reads inf
        f = qk.FunctionSpec(X, (0.0, 2.0))
        seq = qk.LogSequence(logs=(0.0, -705.0, -1400.0, -2100.0))
        res = qk.derivative_tail_sup(f, 1.0, 1, seq, 2)
        assert (res.log_value, res.value, res.arg_j) == (704.0, math.exp(704.0), 1)


class TestTranslationEstimate:
    @pytest.mark.parametrize("fn,weights", [("exp", "factorial"), ("sin", "ones")])
    def test_estimate_sweep(self, fn, weights):
        f = {"exp": exp_spec, "sin": sin_spec}[fn]()
        seq = (
            qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=40))
            if weights == "factorial"
            else ones_sequence(40)
        )
        rng = np.random.default_rng(1)
        for _ in range(80):
            t = float(rng.uniform(0, 1))
            tau = float(rng.uniform(-t, 1 - t))
            n = int(rng.integers(0, 8))
            q = int(rng.integers(n + 1, 12))
            chk = qk.translation_estimate_check(f, seq, t, tau, n, q, 39)
            assert chk.ok and not chk.truncated

    def test_requires_log_convex_weights(self):
        bumpy = qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0) + (5.0,) * 36)
        with pytest.raises(qk.ValidationError):
            qk.translation_estimate_check(exp_spec(), bumpy, 0.2, 0.1, 0, 2, 39)

    def test_zero_function_rejected(self):
        zero = qk.FunctionSpec(ZERO, (0.0, 1.0))
        with pytest.raises(qk.ValidationError):
            qk.translation_estimate_check(zero, ones_sequence(40), 0.2, 0.1, 0, 2, 39)

    def test_two_column_table_matches_one_point_jets(self):
        # both suffix sups come from one two-point table, bit for bit the
        # values two one-point jets give
        seq = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=40))
        for f in (flat_spec(), sin_spec()):
            for t, tau in ((0.3, 0.25), (0.9, -0.4)):
                chk = qk.translation_estimate_check(f, seq, t, tau, 2, 5, 39)
                base = qk.derivative_tail_sup(f, t, 2, seq, 39)
                shifted = qk.derivative_tail_sup(f, t + tau, 2, seq, 39)
                assert chk.lhs_log == shifted.log_value
                rhs = max(base.log_value, -5.0) + math.e * abs(tau) * math.exp(
                    seq.logs[5] - seq.logs[4]
                )
                assert chk.rhs_log == rhs
                assert type(chk.ok) is bool and type(chk.lhs_log) is float

    def test_ratio_past_the_float_range_bounds_nothing(self):
        # M_2 / M_1 = e^1000: the bound is infinite and holds, except at
        # tau = 0, where the translation term is 0 rather than inf * 0
        seq = qk.LogSequence(logs=(0.0, 0.0, 1000.0, 2001.0))
        chk = qk.translation_estimate_check(sin_spec(), seq, 0.5, 0.25, 1, 2, 3)
        assert chk.rhs_log == math.inf and chk.ok
        still = qk.translation_estimate_check(sin_spec(), seq, 0.5, 0.0, 1, 2, 3)
        assert still.rhs_log == max(still.lhs_log, -2.0) and still.ok

    @pytest.mark.parametrize("t,tau", [(0.0, 1.0), (1.0, -1.0)], ids=["base", "shifted"])
    def test_suffix_sup_vanishing_at_one_point_rejected(self, t, tau):
        # the suffix from n = 1 to the horizon 1 is f' = 2x, which vanishes at
        # 0 only: one of the two sups is empty, the other is not
        square = qk.FunctionSpec({"op": "pow", "arg": X, "num": 2}, (0.0, 1.0))
        with pytest.raises(qk.ValidationError, match="suffix sup vanished"):
            qk.translation_estimate_check(square, ones_sequence(3), t, tau, 1, 2, 1)

    @pytest.mark.parametrize("t,tau", [(0.0, 1.0), (1.0, -1.0)], ids=["base", "shifted"])
    def test_truncated_when_one_sup_sits_at_the_horizon(self, t, tau):
        # f = x^2 with M = 1: at 0 only f'' = 2 survives, so the sup sits at
        # the horizon 2; at 1 it sits at j = 0, where f = 1 beats 2/e and 2/e^2
        square = qk.FunctionSpec({"op": "pow", "arg": X, "num": 2}, (0.0, 1.0))
        seq = ones_sequence(3)
        ends = [qk.derivative_tail_sup(square, s, 0, seq, 2).truncated for s in (t, t + tau)]
        assert ends == [t == 0.0, t != 0.0]
        assert qk.translation_estimate_check(square, seq, t, tau, 0, 1, 2).truncated


class TestMonotonicity:
    def test_exp_holds(self):
        geom = qk.LogSequence(logs=tuple(float(n) for n in range(22)))
        res = qk.monotonicity_check(exp_spec(), geom, 20, grid_size=256)
        assert res.holds and res.witness is None

    def test_rational_holds(self):
        fact = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=22))
        res = qk.monotonicity_check(rational_spec(), fact, 20, grid_size=256)
        assert res.holds

    def test_hypothesis_rejection_lists_orders(self):
        sin2 = qk.FunctionSpec(
            {"op": "add", "left": SIN, "right": TWO},
            (0.0, 2 * math.pi),
        )
        geom = qk.LogSequence(logs=tuple(float(n) for n in range(8)))
        with pytest.raises(qk.ValidationError, match=r"n = \[2"):
            qk.monotonicity_check(sin2, geom, 5)

    def test_shifted_variant_yields_witness(self):
        x_plus_pi_4 = {"op": "add", "left": X, "right": {"op": "const", "value": math.pi / 4}}
        shifted = qk.FunctionSpec(
            {"op": "add", "left": {"op": "sin", "arg": x_plus_pi_4}, "right": TWO},
            (0.0, 2 * math.pi),
        )
        geom = qk.LogSequence(logs=tuple(float(n) for n in range(8)))
        res = qk.monotonicity_check(shifted, geom, 1)
        assert not res.holds
        assert res.witness[0] == 1

    def test_weights_must_be_log_convex(self):
        bumpy = qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0))
        with pytest.raises(qk.ValidationError):
            qk.monotonicity_check(exp_spec(), bumpy, 2)


class TestZeroSpacing:
    def test_sine_chain(self):
        ones = ones_sequence(22)
        res = qk.zero_spacing_experiment(
            sin_spec((0.0, 4 * math.pi)), ones, 20
        )
        assert res.x[0] == 0.0
        assert res.x[1] == pytest.approx(math.pi / 2, abs=1e-9)
        # every consecutive zero sits a quarter period away
        steps = np.abs(np.diff(res.x))
        assert np.allclose(steps, math.pi / 2, atol=1e-8)
        assert np.allclose(res.rhs_partial, np.arange(21) / math.e, rtol=1e-12)
        assert all(
            l >= r for l, r in zip(res.lhs_partial, res.rhs_partial)
        )

    def test_no_zero_rejection(self):
        # exp is positive; on a negative interval its sup stays below 1
        f = exp_spec((-3.0, -1.0))
        with pytest.raises(qk.ValidationError, match="no zero"):
            qk.zero_spacing_experiment(f, ones_sequence(8), 4)

    def test_identically_zero_rejected(self):
        zero = qk.FunctionSpec(ZERO, (0.0, 1.0))
        with pytest.raises(qk.ValidationError, match="vanishes"):
            qk.zero_spacing_experiment(zero, ones_sequence(8), 4)

    def test_envelope_hypothesis_enforced(self):
        with pytest.raises(qk.ValidationError, match="exceeds"):
            qk.zero_spacing_experiment(exp_spec(), ones_sequence(8), 4)

    def test_envelope_bound_past_the_float_range_holds(self):
        # e^{log M_n} overflows from n = 2 on; such an M_n bounds any grid max
        seq = qk.LogSequence(logs=(0.0, 1.0, 800.0, 1600.0))
        res = qk.zero_spacing_experiment(sin_spec((0.0, 4 * math.pi)), seq, 3, grid_size=64)
        assert res.x.tolist() == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_brackets_stop_once_the_midpoint_is_an_end(self, monkeypatch):
        # past |x| = 2^13 an ulp exceeds 1e-12: each bracket stops when its
        # midpoint is no longer strictly inside, not at the 200-halving cap,
        # and every zero keeps its bits
        calls = []
        table = J._derivative_table
        monkeypatch.setattr(J, "_derivative_table", lambda *a: calls.append(1) or table(*a))
        x_minus_1e8 = {"op": "affine", "arg": X, "a": 1.0, "b": -1e8}
        f = qk.FunctionSpec({"op": "sin", "arg": x_minus_1e8}, (1e8, 1e8 + 4 * math.pi))
        res = qk.zero_spacing_experiment(f, ones_sequence(8), 3, grid_size=256)
        assert len(calls) <= 40
        assert [x.hex() for x in res.x.tolist()] == [
            "0x1.7d78400000000p+26", "0x1.7d78406487ed6p+26", "0x1.7d7840c90fdaap+26",
            "0x1.7d78406487ed6p+26",
        ]


def test_x_tolerances_are_absolute():
    # the domain slack 1e-12 admits the next float past an end only below
    # |x| = 2^14, where half an ulp is still under it
    below = float(np.nextafter(2.0**14, 0.0))
    for b, admitted in ((below, True), (2.0**14, False)):
        f = qk.FunctionSpec(X, (-b, b))
        for end in (-b, b):
            beyond = float(np.nextafter(end, math.copysign(math.inf, end)))
            if admitted:
                assert J._taylor_table(f, [beyond], 0).tolist() == [[beyond]]
            else:
                with pytest.raises(qk.ValidationError, match="outside domain"):
                    J._taylor_table(f, [beyond], 0)
    # zeros within 1e-9 of the last one kept are dropped: one ulp apart,
    # both stay from |x| = 2^23 on, where an ulp exceeds 1e-9
    zero = qk.FunctionSpec(ZERO, (0.0, 2.0**24))
    below = float(np.nextafter(2.0**23, 0.0))
    for x, kept in ((below, 1), (2.0**23, 2)):
        grid = np.array([x, np.nextafter(x, math.inf)])
        rows, z = J._zeros_by_order(zero, grid, np.zeros((1, 2)))
        assert z.tolist() == grid[:kept].tolist() and rows.tolist() == [0] * kept
