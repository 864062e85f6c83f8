"""The jet engine against an independent high-precision oracle.

For every op of the expression catalog, the Taylor coefficients up to K_MAX
are compared with ``mpmath.taylor`` at 60 digits.  The error of c_k is
measured against the magnitude scale of the op's recurrence at order k (the
sum of the absolute values of its terms), not against |c_k|: where the terms
cancel, as in the coefficients of exp * sin, c_k loses relative accuracy
while its error stays small on the scale the recurrence works at.
"""

import functools
import json
import math
import operator

import mpmath
import numpy as np
import pytest

import quasikit as qk
from quasikit import jets as J

K = J.K_MAX
T = 0.37
DOMAIN = (-4.0, 4.0)
# measured worst case: div at k = 64, 5.5e-15 of its scale (about 25 rounding
# units); the bound leaves about 20x headroom
SCALE_RTOL = 1e-13

X = J.expr_x()
EXP, SIN = J.expr_exp(X), J.expr_sin(X)
ONE_PLUS_X = J.expr_add(J.expr_const(1.0), X)
MP_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}

CASES = {
    "x": X,
    "const": J.expr_const(-2.5),
    "add": J.expr_add(EXP, SIN),
    "sub": J.expr_sub(EXP, SIN),
    "mul": J.expr_mul(EXP, SIN),
    "div": J.expr_div(SIN, ONE_PLUS_X),
    "neg": J.expr_neg(SIN),
    "exp": EXP,
    "log": J.expr_log(X),
    "sin": SIN,
    "cos": J.expr_cos(X),
    "pow_int": J.expr_pow(ONE_PLUS_X, 5),
    "pow_negative_int": J.expr_pow(ONE_PLUS_X, -3),
    "pow_rational": J.expr_pow(ONE_PLUS_X, 2, 3),
    "affine": J.expr_affine(SIN, -1.5, 0.25),
}


def _mp_eval(node, x):
    return _mp_eval_key(json.dumps(node, sort_keys=True), x)


@functools.lru_cache(maxsize=None)
def _mp_eval_key(key, x):
    # cached because the cases share subtrees and mpmath.taylor evaluates
    # every case at the same points, at several thousand bits
    node = json.loads(key)
    op = node["op"]
    if op == "x":
        return x
    if op == "const":
        return mpmath.mpf(node["value"])
    if op == "affine":
        return _mp_eval(node["arg"], mpmath.mpf(node["a"]) * x + mpmath.mpf(node["b"]))
    if op in MP_BINARY:
        return MP_BINARY[op](_mp_eval(node["left"], x), _mp_eval(node["right"], x))
    u = _mp_eval(node["arg"], x)
    if op == "neg":
        return -u
    if op == "pow":
        return mpmath.power(u, mpmath.mpf(node["num"]) / node["den"])
    return getattr(mpmath, op)(u)


@functools.lru_cache(maxsize=None)
def _oracle(name):
    """Taylor coefficients of CASES[name] at T by mpmath, 60 digits."""
    with mpmath.workdps(60):
        coeffs = mpmath.taylor(lambda x: _mp_eval(CASES[name], x), mpmath.mpf(T), K)
        return np.array([float(c) for c in coeffs])


def _jet(node, t=T):
    return np.array(qk.jet_eval(qk.FunctionSpec(node, DOMAIN), t, K).coeffs)


def _conv(u, v):
    return np.convolve(u, v)[: K + 1]


def _scale(node, ref):
    """sum_j |term_j| of the node's recurrence at every order k, from the
    engine's input jets and the oracle's output coefficients."""
    op = node["op"]
    out = np.abs(ref)
    ks = np.maximum(np.arange(K + 1), 1)
    if op in ("x", "const", "neg"):
        return out
    if op == "affine":
        return np.abs(_jet(node["arg"], node["a"] * T + node["b"])) * abs(node["a"]) ** np.arange(K + 1)
    if op in MP_BINARY:
        u, v = np.abs(_jet(node["left"])), np.abs(_jet(node["right"]))
        if op == "mul":
            return _conv(u, v)
        if op == "div":
            return (u + _conv(np.r_[0.0, v[1:]], out)) / v[0]
        return u + v
    u = np.abs(_jet(node["arg"]))
    ju = np.arange(K + 1) * u
    if op == "exp":
        return np.r_[out[0], _conv(ju, out)[1:] / ks[1:]]
    if op in ("sin", "cos"):
        other = np.abs(_jet({"op": "cos" if op == "sin" else "sin", "arg": node["arg"]}))
        return np.r_[out[0], _conv(ju, other)[1:] / ks[1:]]
    if op == "log":
        inner = _conv(np.arange(K + 1) * out, np.r_[0.0, u[1:]])  # j = 1..k-1
        return np.r_[out[0], (u + inner / ks)[1:] / u[0]]
    assert op == "pow"
    if node["den"] == 1 and node["num"] >= 0:
        scale = np.r_[1.0, np.zeros(K)]
        for _ in range(node["num"]):
            scale = _conv(scale, u)
        return scale
    alpha = node["num"] / node["den"]
    terms = [
        np.abs(np.arange(1, k + 1) * (alpha + 1.0) - k) @ (u[1 : k + 1] * out[k - 1 :: -1])
        for k in range(1, K + 1)
    ]
    return np.r_[out[0], np.array(terms) / (np.arange(1, K + 1) * u[0])]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_op_matches_mpmath_on_its_recurrence_scale(name):
    node = CASES[name]
    ref = _oracle(name)
    got = _jet(node)
    scale = _scale(node, ref)
    err = np.abs(got - ref)
    assert np.all(err <= SCALE_RTOL * scale), (
        f"{name}: worst error/scale {np.max(err / np.where(scale > 0, scale, 1)):.3g}"
    )


def test_grid_column_equals_one_point_jet():
    f = qk.FunctionSpec(J.expr_exp(J.expr_neg(J.expr_div(J.expr_const(1.0), X))), (0.1, 2.0))
    grid = np.linspace(0.1, 2.0, 17)
    table = J._derivative_table(f, grid, K)
    for i in (0, 7, 16):
        assert table[:, i].tolist() == qk.jet_derivatives(f, float(grid[i]), K).tolist()
    assert math.isclose(table[1, 16], 0.25 * math.exp(-0.5), rel_tol=1e-14)
