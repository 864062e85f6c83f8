"""The array results of jets and gontcharoff.

``_loop_tail_sup`` is the scalar loop ``derivative_tail_sup`` ran over a
one-point jet before the suffix sup became array code; the library must
return an equal ``TailSup``, floats compared with ``==``.  Every array field
of a result is read-only.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

import quasikit as qk
from quasikit import gontcharoff as G
from quasikit import jets as J

from conftest import CUBE, cos_spec, exp_spec, flat_spec, rational_spec, sin_spec

FUNCTIONS = {
    "exp": exp_spec(),
    "sin": sin_spec(),
    "cos": cos_spec(),
    "rational": rational_spec(),
    "flat": flat_spec(),
    "cube": qk.FunctionSpec(CUBE, (-1.0, 1.0)),
    "zero": qk.FunctionSpec({"op": "const", "value": 0.0}, (0.0, 1.0)),
}
WEIGHTS = {
    "ones": qk.LogSequence(logs=(0.0,) * (J.K_MAX + 1)),
    "factorial": qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=J.K_MAX + 1)),
    "gevrey": qk.make_sequence(
        qk.SequenceSpec(family="gevrey", horizon=J.K_MAX + 1, params={"s": 2.0})
    ),
    # log M_j = -j: the cube at 1 ties its terms at j = 2 and 3 exactly
    "linear": qk.LogSequence(logs=[-float(j) for j in range(J.K_MAX + 1)]),
}


def _loop_tail_sup(f, t, n, weights, horizon):
    coeffs = qk.jet_eval(f, t, horizon).coeffs.tolist()
    logs = weights.logs[: horizon + 1].tolist()
    best = -math.inf
    arg = -1
    for j in range(n, horizon + 1):
        deriv = J._FACT[j] * coeffs[j]
        if deriv == 0.0:
            continue
        term = math.log(abs(deriv)) - j - logs[j]
        if term > best:
            best = term
            arg = j
    if arg < 0:
        return J.TailSup(value=0.0, log_value=-math.inf, arg_j=-1, truncated=False)
    return J.TailSup(
        value=math.exp(best) if best < 700 else math.inf,
        log_value=best,
        arg_j=arg,
        truncated=(arg == horizon),
    )


@given(
    st.sampled_from(sorted(FUNCTIONS)),
    st.sampled_from(sorted(WEIGHTS)),
    st.one_of(st.just(0.0), st.just(0.5), st.just(1.0), st.floats(0.0, 1.0)),
    st.integers(0, J.K_MAX),
    st.integers(0, J.K_MAX),
)
@example("cube", "linear", 1.0, 3, 0)  # the first of equal maxima
@example("cos", "ones", 0.22, 0, 0)  # np.log(cos 0.22) != math.log(cos 0.22)
def test_tail_sup_equals_scalar_loop(fn, weights, where, horizon, n):
    f, seq = FUNCTIONS[fn], WEIGHTS[weights]
    a, b = f.domain
    t = min(a + where * (b - a), b)
    n %= horizon + 1
    got = qk.derivative_tail_sup(f, t, n, seq, horizon)
    assert got == _loop_tail_sup(f, t, n, seq, horizon)
    assert type(got.value) is float and type(got.log_value) is float
    assert type(got.arg_j) is int and type(got.truncated) is bool


def _results():
    sin_fn = sin_spec((0.0, 2.0 * math.pi))
    ones = qk.LogSequence(logs=(0.0,) * 12)
    poly = G.build([0.0, 0.5, -0.5, 1.0])
    return {
        "jet": qk.jet_eval(exp_spec(), 0.5, 6),
        "envelope": qk.derivative_envelope(sin_fn, 4, grid_size=17),
        "spacing": qk.zero_spacing_experiment(sin_fn, ones, 10, grid_size=64),
        "poly": poly,
        "poly-derivative": poly.derivative(2),
    }


@pytest.mark.parametrize(
    "result,field",
    [("jet", "coeffs"), ("envelope", "grid"), ("envelope", "m_est_log"),
     ("spacing", "x"), ("spacing", "lhs_partial"), ("spacing", "rhs_partial"),
     ("poly", "nodes"), ("poly", "scaled_coeffs"),
     ("poly-derivative", "nodes"), ("poly-derivative", "scaled_coeffs")],
)
def test_array_fields_are_read_only(result, field):
    values = getattr(_results()[result], field)
    assert values.dtype == float
    with pytest.raises(ValueError):
        values[0] = 1.0
