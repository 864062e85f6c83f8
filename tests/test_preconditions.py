"""Precondition guards of the public library functions that the CLI keeps
out of reach: each raise and early return below runs in no other test.
Each case asserts the message or the value, so a guard that is dropped or
reworded fails here."""

import json
import math

import pytest

import quasikit as qk
from quasikit import cli

ONE = qk.LogSequence(logs=[0.0])
TWO = qk.LogSequence(logs=[0.0, 1.0])
REG_ONE = qk.RegularizedSequence(logs_c=ONE.logs, principal=[0])


def test_bang_vector_needs_an_entry():
    with pytest.raises(qk.ValidationError, match="^BangVector needs at least one entry$"):
        qk.BangVector(entries=[])


def test_growth_estimate_needs_an_achieving_index_past_zero():
    # f = x at t = 0 scales to (0, e^9, 0): every k >= 1 in P has m_k = e^9,
    # so only k = 0, with max(e^0, 0) = 1, achieves the norm
    f = qk.FunctionSpec(expr={"op": "x"}, domain=[0.0, 1.0])
    reg = qk.convex_regularize(qk.LogSequence(logs=[0.0, -10.0, -20.0]))
    with pytest.raises(qk.ValidationError,
                       match=r"^no norm-achieving index >= 1 in P; the estimate's witness"):
        qk.growth_estimate_check(f, 0.0, 0.5, reg)


def test_a_key_json_cannot_write_raises_as_json_does():
    with pytest.raises(TypeError) as expected:
        json.dumps({(1, 2): 0})
    with pytest.raises(TypeError) as got:
        cli._encode_spans({(1, 2): 0})
    assert str(got.value) == str(expected.value)


def test_decomposition_needs_ys_as_long_as_the_nodes():
    with pytest.raises(qk.ValidationError, match="^ys must have the same length as nodes$"):
        qk.decomposition_residual([0.0, 1.0], [0.0], 0.5)


def test_gontcharoff_bound_needs_a_node():
    with pytest.raises(qk.ValidationError, match="^bound needs at least one node$"):
        qk.gontcharoff_bound([], 0.5)


def test_null_test_bound_at_zero_reach_is_minus_infinity():
    # A (|x - x_q| + R_q) = 0: the bound is 0, whose log is -inf
    assert qk.null_test_bound(2, 3, 1.5, 2.0, 0.25, 0.25, 0.0) == -math.inf


def test_function_spec_json_needs_a_domain():
    with pytest.raises(qk.ValidationError, match="^function spec JSON needs 'expr' and 'domain'$"):
        qk.FunctionSpec.from_json({"expr": {"op": "x"}})


@pytest.mark.parametrize("name, arg", [
    ("beta_sequence", ONE), ("root_series", REG_ONE), ("ratio_series", REG_ONE),
])
def test_qa_series_need_two_entries(name, arg):
    with pytest.raises(qk.ValidationError, match=f"^{name} needs at least 2 entries$"):
        getattr(qk, name)(arg)


def test_log_sequence_needs_an_entry():
    with pytest.raises(qk.ValidationError, match="^LogSequence needs at least one entry$"):
        qk.LogSequence(logs=[])


def test_explicit_spec_needs_logs():
    with pytest.raises(qk.ValidationError, match="^explicit family requires 'logs'$"):
        qk.SequenceSpec(family="explicit")


@pytest.mark.parametrize("name, seq, count", [
    ("convex_regularize", ONE, 2), ("is_log_convex", TWO, 3),
    ("ratio_sequence", ONE, 2), ("root_sequence", ONE, 2),
])
def test_sequence_maps_need_their_entries(name, seq, count):
    with pytest.raises(qk.ValidationError, match=f"^{name} needs at least {count} entries$"):
        getattr(qk, name)(seq)


@pytest.mark.parametrize("terms, xs, message", [
    ([1.0], None, "diagnose_series needs at least 2 terms"),
    ([1.0, -1.0], None, "series terms must be nonnegative"),
    ([1.0, 2.0], [1.0, 2.0, 3.0], "xs must match terms in length"),
])
def test_diagnose_series_guards(terms, xs, message):
    with pytest.raises(qk.ValidationError, match=f"^{message}$"):
        qk.diagnose_series(terms, xs=xs)


def test_integral_needs_a_doubling():
    w = qk.make_weight("zero", 10.0)
    with pytest.raises(qk.ValidationError,
                       match="^need at least one doubling between r0 and r_max$"):
        qk.integral_test(w, 100.0, 150.0)


def test_integral_raises_the_transforms_error_past_r0():
    # r0 solves; m' = log t + 1 of "zero" stays below log 1e100 up to the
    # bracket's last cap 2 t0 2^200, so a radius past r0 fails the solve
    w = qk.make_weight("zero", 10.0)
    qk.weight_inf(w, 100.0)
    with pytest.raises(qk.ValidationError, match="^bracket failure: m' never reached log r$"):
        qk.integral_test(w, 100.0, 1e100, panels=8)
