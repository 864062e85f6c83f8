"""errors.bounded_int, the one reader of an integer size, order or index, and
the library arguments it reads: each rejects a bool, a float and a string
with ``<name> must be an integer``, whatever its range."""

import re

import numpy as np
import pytest

import quasikit as qk
from quasikit import gontcharoff, jets, weights
from quasikit.errors import QUOTE_MAX, bounded_int

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
