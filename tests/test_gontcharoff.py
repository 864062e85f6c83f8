import math
from fractions import Fraction

import numpy as np
import pytest

import quasikit as qk
from quasikit import gontcharoff as G

from conftest import CUBE, exp_spec, flat_spec, rational_spec, sin_spec


def printed_q2(x, x0, x1):
    return 0.5 * ((x - x1) ** 2 - (x0 - x1) ** 2)


def printed_q3(x, x0, x1, x2):
    return ((x - x2) ** 3 - 3 * (x1 - x2) ** 2 * (x - x0) - (x0 - x2) ** 3) / 6.0


def exact_scaled_coeffs(nodes):
    """Scaled coefficients of Q_n by exact integration in the monomial basis:
    Q_m(x) = integral from the anchor to x of Q_{m-1}, last node first."""
    monomial = [Fraction(1)]
    for anchor in reversed([Fraction(v) for v in nodes]):
        integral = [Fraction(0)] + [a / (i + 1) for i, a in enumerate(monomial)]
        integral[0] = -sum(a * anchor**i for i, a in enumerate(integral))
        monomial = integral
    return [a * math.factorial(i) for i, a in enumerate(monomial)]


class TestBuildEval:
    def test_degree_zero_is_one(self):
        q = G.build([])
        assert q.eval(3.7) == 1.0 and q.degree == 0

    def test_degree_one(self):
        q = G.build([3.0])
        assert q.eval(3.0) == 0.0
        assert q.eval(5.5) == pytest.approx(2.5)

    def test_two_nodes_printed_formula(self):
        q = G.build([0.0, 1.0])
        assert q.eval(2.0) == pytest.approx(printed_q2(2.0, 0.0, 1.0), abs=1e-14)
        assert q.eval(2.0) == pytest.approx(0.0, abs=1e-14)

    def test_three_nodes_printed_formula(self):
        q = G.build([0.0, 1.0, 2.0])
        assert q.eval(1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0, x1, x2, x = rng.uniform(-2, 2, 4)
            q = G.build([x0, x1, x2])
            assert q.eval(x) == pytest.approx(printed_q3(x, x0, x1, x2), abs=1e-12)

    def test_equal_nodes_reduce_to_shifted_monomial(self):
        q = G.build([0.7] * 6)
        assert q.eval(1.3) == pytest.approx((1.3 - 0.7) ** 6 / math.factorial(6), rel=1e-12)

    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(1)
        for n in (1, 4, 9):
            q = G.build(rng.uniform(-1, 1, n))
            assert q.scaled_coeffs[-1] == 1.0

    def test_vanishes_at_first_node(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nodes = rng.uniform(-1, 1, int(rng.integers(1, 11)))
            q = G.build(nodes)
            scale = max(1.0, max(abs(c) for c in q.scaled_coeffs))
            assert abs(q.eval(float(nodes[0]))) <= 1e-10 * scale

    def test_degree_cap(self):
        with pytest.raises(qk.ValidationError):
            G.build([0.0] * 31)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20, G.DEGREE_CAP])
    def test_matches_exact_fractions(self, n):
        # measured worst: 5.0e-17 of the scale for nodes in [-1, 1], 4.9e-16
        # in [-3, 3]; 1.6e-15 over sixty more node sets up to the cap
        rng = np.random.default_rng(n)
        for width in (1.0, 3.0):
            nodes = rng.uniform(-width, width, n).tolist()
            exact = exact_scaled_coeffs(nodes)
            got = G.build(nodes).scaled_coeffs
            scale = max(1.0, max(abs(float(c)) for c in exact))
            assert max(abs(Fraction(g) - c) for g, c in zip(got, exact)) <= 1e-12 * scale

    def test_overflowing_coefficients_rejected(self):
        with pytest.raises(qk.ValidationError, match="float range"):
            G.build([1e120, -1e120, 3e119])


class TestDerivative:
    def test_full_derivative_is_constant_one(self):
        q = G.build([0.1, 0.2, 0.3])
        assert q.derivative(3).eval(9.9) == 1.0

    def test_first_derivative_drops_first_node(self):
        rng = np.random.default_rng(3)
        for n in range(1, 21):
            nodes = rng.uniform(-1, 1, n)
            d1 = G.build(nodes).derivative(1)
            ref = G.build(nodes[1:])
            scale = max(1.0, max(abs(c) for c in ref.scaled_coeffs))
            assert all(
                abs(a - b) <= 1e-12 * scale
                for a, b in zip(d1.scaled_coeffs, ref.scaled_coeffs)
            )

    def test_kth_derivative_vanishes_at_kth_node(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            nodes = rng.uniform(-1, 1, n)
            q = G.build(nodes)
            scale = max(1.0, max(abs(c) for c in q.scaled_coeffs))
            for k in range(n):
                assert abs(q.derivative(k).eval(float(nodes[k]))) <= 1e-10 * scale

    def test_order_validation(self):
        with pytest.raises(qk.ValidationError):
            G.build([0.0, 1.0]).derivative(3)


class TestIntegralOracle:
    def test_single_node_linear(self):
        assert G.integral_oracle([0.25], 0.75) == pytest.approx(0.5, abs=1e-12)

    def test_hand_quadrature(self):
        # integral from 0 to 2 of (t - 1) dt = 0
        assert G.integral_oracle([0.0, 1.0], 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_agrees_with_build(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            nodes = rng.uniform(-1, 1, n)
            x = float(rng.uniform(-1, 1))
            assert G.integral_oracle(nodes, x) == pytest.approx(
                G.build(nodes).eval(x), abs=1e-7
            )

    def test_too_many_nodes_rejected(self):
        with pytest.raises(qk.ValidationError):
            G.integral_oracle([0.0] * 5, 1.0)


class TestIdentities:
    def test_swap_with_same_value_is_exact(self):
        nodes = [0.3, -0.2, 0.8]
        assert G.swap_identity_residual(nodes, 1, -0.2, 1.5) <= 1e-14

    def test_swap_small_case_against_printed_formulas(self):
        # n = 2, k = 0: Q2(x; x0, x1) - Q2(x; y, x1) = Q0 * Q2(y; x0, x1)
        x, x0, x1, y = 1.7, 0.4, -0.6, 0.9
        lhs = printed_q2(x, x0, x1) - printed_q2(x, y, x1)
        rhs = printed_q2(y, x0, x1)
        assert lhs == pytest.approx(rhs, abs=1e-14)
        assert G.swap_identity_residual([x0, x1], 0, y, x) <= 1e-13

    def test_swap_random_sweep(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            nodes = rng.uniform(-1, 1, n)
            k = int(rng.integers(0, n))
            y, x = rng.uniform(-1, 1, 2)
            assert G.swap_identity_residual(nodes, k, y, x) <= 1e-10

    def test_decomposition_with_same_nodes(self):
        nodes = [0.5, -0.5, 0.25]
        assert G.decomposition_residual(nodes, nodes, 1.1) <= 1e-13

    def test_standard_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            nodes = [float(v) for v in rng.uniform(-1, 1, n)]
            x = float(rng.uniform(-1, 1))
            assert G.decomposition_residual(nodes, [0.0] * n, x) <= 1e-10
            # explicit standard form: x^n/n! plus scaled tail values at 0
            total = x**n / math.factorial(n)
            for i in range(n):
                total += x**i / math.factorial(i) * G.build(nodes[i:]).eval(0.0)
            assert G.build(nodes).eval(x) == pytest.approx(total, abs=1e-12)

    def test_decomposition_random_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            nodes = rng.uniform(-1, 1, n)
            ys = rng.uniform(-1, 1, n)
            x = float(rng.uniform(-1, 1))
            assert G.decomposition_residual(nodes, ys, x) <= 1e-10


class TestBound:
    def test_equal_nodes_attain(self):
        nodes = [0.2] * 7
        q = G.build(nodes)
        x = 0.9
        assert abs(q.eval(x)) == pytest.approx(G.gontcharoff_bound(nodes, x), rel=1e-12)

    def test_single_node(self):
        assert G.gontcharoff_bound([0.5], 2.0) == pytest.approx(1.5)

    def test_past_float_range_is_inf(self):
        assert G.gontcharoff_bound([1e300, -1e300], 0.0) == math.inf

    def test_never_violated(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            n = int(rng.integers(1, 13))
            nodes = rng.uniform(-1, 1, n)
            x = float(rng.uniform(-1, 1))
            value = abs(G.build(nodes).eval(x))
            assert value <= G.gontcharoff_bound(nodes, x) * (1 + 1e-9)


# a string and a bool, a NaN, and an int past the float range
# errors._frozen's messages, which name the first bad node
BAD_NODES = {"string-bool": (["1.5", True], r"^nodes\[0\] = '1\.5' is not a number$"),
             "nan": ([0.0, math.nan], r"^nodes\[1\] = nan is not finite$"),
             "huge-int": ([0.0, 10**400], r"^nodes must be a list of numbers$")}
LIBRARY_CALLS = {
    "bound": lambda nodes, x: G.gontcharoff_bound(nodes, x),
    "oracle": lambda nodes, x: G.integral_oracle(nodes, x),
    "abel": lambda nodes, x: G.abel_expand(exp_spec(), nodes, 1, x),
}


@pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
@pytest.mark.parametrize("case", sorted(BAD_NODES))
def test_library_functions_take_finite_nodes_only(call, case):
    nodes, message = BAD_NODES[case]
    with pytest.raises(qk.ValidationError, match=message):
        LIBRARY_CALLS[call](nodes, 0.5)
    with pytest.raises(qk.ValidationError, match="^x must be a finite number"):
        LIBRARY_CALLS[call]([0.0, 0.25], math.nan)


# the readers of x that LIBRARY_CALLS leaves out, each at nodes [0, 0.25]
POINT_CALLS = {
    "eval": lambda x: G.build([0.0, 0.25]).eval(x),
    "swap": lambda x: G.swap_identity_residual([0.0, 0.25], 1, 0.5, x),
    "decomposition": lambda x: G.decomposition_residual([0.0, 0.25], [0.5, 0.5], x),
}


@pytest.mark.parametrize("call", sorted(POINT_CALLS))
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_every_gontcharoff_point_is_read_as_a_finite_number(call, x):
    with pytest.raises(qk.ValidationError, match="^x must be a finite number"):
        POINT_CALLS[call](x)


@pytest.mark.parametrize("y", [math.nan, "0.5", True, 10**400],
                         ids=["nan", "string", "bool", "10**400"])
def test_swapped_in_node_is_read_as_one_number(y):
    with pytest.raises(qk.ValidationError, match="^y must be a finite number"):
        G.swap_identity_residual([0.0, 0.25], 1, y, 0.5)


def test_library_node_counts_are_unchanged():
    # the bound has no degree cap, the oracle stops at 4 nodes
    assert G.gontcharoff_bound([0.0] * (G.DEGREE_CAP + 1), 1e-3) >= 0.0
    assert G.integral_oracle([0.0] * 4, 0.5) == pytest.approx(0.5**4 / 24, abs=1e-9)
    with pytest.raises(qk.ValidationError, match="limited to 4"):
        G.integral_oracle([0.0] * 5, 0.5)


class TestAbelExpansion:
    def test_constant_nodes_reduce_to_taylor(self):
        f = exp_spec()
        x0, x, n = 0.25, 0.8, 6
        res = G.abel_expand(f, [x0] * (n + 1), n, x)
        taylor = sum(
            math.exp(x0) * (x - x0) ** k / math.factorial(k) for k in range(n + 1)
        )
        assert res.partial == pytest.approx(taylor, rel=1e-12)
        assert abs(res.remainder) <= res.remainder_bound * (1 + 1e-6)

    def test_polynomial_has_zero_remainder(self):
        cube = qk.FunctionSpec(CUBE, (0.0, 1.0))
        rng = np.random.default_rng(10)
        nodes = rng.uniform(0, 1, 6)
        res = G.abel_expand(cube, nodes, 5, 0.7)
        assert res.remainder == pytest.approx(0.0, abs=1e-12)
        assert res.remainder_bound == 0.0

    @pytest.mark.parametrize("spec_fn", [exp_spec, sin_spec, rational_spec])
    def test_remainder_contract_random_nodes(self, spec_fn):
        f = spec_fn()
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            nodes = rng.uniform(0, 1, n + 1)
            x = float(rng.uniform(0, 1))
            res = G.abel_expand(f, nodes, n, x)
            assert abs(res.remainder) <= res.remainder_bound * (1 + 1e-6)

    def test_needs_enough_nodes(self):
        with pytest.raises(qk.ValidationError):
            G.abel_expand(exp_spec(), [0.1, 0.2], 2, 0.5)


class TestClassMembership:
    def test_exp_membership(self):
        env = qk.derivative_envelope(exp_spec(), 10, grid_size=64)
        assert G.cn_membership_bound(env, (1, 2, 4, 8), math.e, math.e)

    def test_flat_function_fails_with_small_constant(self):
        env = qk.derivative_envelope(flat_spec((0.05, 1.0)), 10, grid_size=128)
        assert not G.cn_membership_bound(env, (2, 4, 8), 1.0, 1.0)

    def test_huge_b_vacuous(self):
        env = qk.derivative_envelope(flat_spec((0.05, 1.0)), 10, grid_size=128)
        assert G.cn_membership_bound(env, (2, 4, 8), 1.0, 1e300)

    def test_input_validation(self):
        env = qk.derivative_envelope(exp_spec(), 4, grid_size=16)
        with pytest.raises(qk.ValidationError):
            G.cn_membership_bound(env, (2, 2), 1.0, 1.0)
        with pytest.raises(qk.ValidationError):
            G.cn_membership_bound(env, (2, 9), 1.0, 1.0)
        with pytest.raises(qk.ValidationError, match="nbar is empty"):
            G.cn_membership_bound(env, [], 1.0, 1.0)


class TestNullBound:
    def test_closed_form_at_ms_zero(self):
        value = G.null_test_bound(3, 0, 2.0, 1.5, 0.7, 0.5, 0.1)
        expected = math.log(1.5 * 2.0**3 * math.factorial(4) * (2.0 * 0.3))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_decreases_geometrically_below_one(self):
        # A(|x-x_q| + R_q) = 0.5: after the crossover the bound must fall
        q = 4
        values = [
            G.null_test_bound(q, ms, 1.0, 1.0, 0.5, 0.25, 0.25) for ms in range(10, 61)
        ]
        diffs = np.diff(values)
        assert np.all(diffs < 0)
        assert values[-1] < values[0] - 20  # geometric decay in the log domain

    def test_nondecreasing_at_one(self):
        q = 4
        values = [
            G.null_test_bound(q, ms, 1.0, 1.0, 1.0, 0.5, 0.5) for ms in range(10, 61)
        ]
        assert np.all(np.diff(values) >= 0)
