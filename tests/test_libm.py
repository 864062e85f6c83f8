"""``series._libm``, the one map of a math-library function over an array,
``series._exp``, the one exit from the log domain, and the array code built
on them against the per-index loops it replaced.

``_libm(fn, x)`` of a float64 array must equal ``fn`` of each item bit for
bit, also where numpy's own loop for the same function rounds differently.
``loop_ratio_terms``, ``loop_loglog_ratios`` and ``loop_spacing_rhs`` are
the former per-index lists of ``ratio_series_weight``,
``loglog_asymptotics_check`` and ``zero_spacing_experiment``.
"""

import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import quasikit as qk
from quasikit import weights as W
from quasikit.series import _exp, _libm

from conftest import sin_spec


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _positive_floats() -> np.ndarray:
    """Random floats in (0, 1e6), with every one of 1e6 where np.log differs
    from math.log on the host running the test placed first (none where
    numpy's loop is correctly rounded there)."""
    x = np.random.default_rng(16).uniform(0.0, 1e6, 10**6)
    x = x[x > 0.0]
    exact = np.fromiter(map(math.log, x.tolist()), float, x.size)
    differ = np.log(x) != exact
    return np.concatenate((x[differ], x[~differ][:2000]))


POSITIVE = _positive_floats()
CASES = {
    "log": (math.log, POSITIVE, ()),
    "lgamma": (math.lgamma, POSITIVE / 1e3, ()),
    "exp": (math.exp, np.log(POSITIVE) * 50.0 - 350.0, ()),
    "pow": (pow, POSITIVE, (0.37,)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_items_are_the_math_library_calls(case):
    fn, x, consts = CASES[case]
    got = _libm(fn, x, *consts)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert bits(got) == bits([fn(v, *consts) for v in x.tolist()])


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_float_is_the_plain_call(case):
    fn, x, consts = CASES[case]
    v = float(x[0])
    got = _libm(fn, v, *consts)
    assert type(got) is float and bits(got) == bits(fn(v, *consts))


def test_an_overflowing_item_raises_as_the_call_does():
    with pytest.raises(OverflowError):
        _libm(math.exp, 710.0)
    with pytest.raises(OverflowError):
        _libm(math.exp, np.array([1.0, 710.0, 2.0]))


def test_an_empty_array_maps_to_an_empty_array():
    # a catalog family whose first index is the horizon has no terms to build
    assert _libm(math.log, np.empty(0)).shape == (0,)
    spec = qk.SequenceSpec(family="denjoy2", horizon=3, params={"C": 1.0})
    assert qk.make_sequence(spec).logs.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# _exp: math.exp, with +inf past the float range


def _exp_arguments() -> np.ndarray:
    """Random floats in [-745, 709), with every one of 1e5 where np.exp
    differs from math.exp on the host running the test placed first."""
    x = np.random.default_rng(18).uniform(-745.0, 709.0, 10**5)
    exact = np.fromiter(map(math.exp, x.tolist()), float, x.size)
    differ = np.exp(x) != exact
    return np.concatenate((x[differ], x[~differ][:2000]))


EXP_ARGUMENTS = _exp_arguments()
# math.exp raises OverflowError at the first three
PAST_THE_RANGE = [(709.79, math.inf), (1e308, math.inf), (math.inf, math.inf), (-math.inf, 0.0)]


def test_exp_is_math_exp_wherever_it_is_finite():
    got = _exp(EXP_ARGUMENTS)
    assert got.dtype == np.float64 and got.shape == EXP_ARGUMENTS.shape
    assert bits(got) == bits([math.exp(v) for v in EXP_ARGUMENTS.tolist()])
    for v in EXP_ARGUMENTS[:50].tolist():
        assert type(_exp(v)) is float and bits(_exp(v)) == bits(math.exp(v))


def test_exp_past_the_float_range_is_inf():
    for x, want in PAST_THE_RANGE:
        assert type(_exp(x)) is float and _exp(x) == want
    x = np.array([1.0, *(x for x, _ in PAST_THE_RANGE), 2.0])
    assert _exp(x).tolist() == [math.exp(1.0), *(w for _, w in PAST_THE_RANGE), math.exp(2.0)]


def test_exp_passes_nan_through():
    assert math.isnan(_exp(math.nan))
    assert np.isnan(_exp(np.array([0.0, math.nan]))).tolist() == [False, True]


# the functions that may handle OverflowError: a number of an input document
# past the float range (errors.finite_float, errors._frozen), and math.exp
# past it (series._exp); every other exit from the log domain calls _exp
OVERFLOW_HANDLERS = {("errors.py", "finite_float"), ("errors.py", "_frozen"),
                     ("series.py", "_exp")}


def _overflow_handlers(node, where):
    for child in ast.iter_child_nodes(node):
        scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        name = child.name if isinstance(child, scope) else where
        if (isinstance(child, ast.ExceptHandler) and child.type is not None
                and "OverflowError" in ast.unparse(child.type)):
            yield name
        yield from _overflow_handlers(child, name)


def test_overflow_is_handled_only_where_the_rule_is_stated():
    found = set()
    for path in sorted(Path(qk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update((path.name, name) for name in _overflow_handlers(tree, "<module>"))
    assert found == OVERFLOW_HANDLERS


# ---------------------------------------------------------------------------
# the array code against its former per-index loops


def loop_ratio_terms(w, n0, n_max):
    m_values = [W._m_parts(w, float(n))[0] for n in range(n0, n_max + 1)]
    return [math.exp(a - b) for a, b in zip(m_values, m_values[1:])]


RATIO_CASES = {
    "zero": (("zero", 2.0, None), 2, 3000),
    "log": (("log", 2.0, None), 3, 3000),
    "loglog": (("loglog", 10.0, None), 11, 3000),
    "power": (("power", 1.5, 0.37), 2, 400),
    # n past 2^53, where float(n) is not float(n0) + k
    "past-2^53": (("zero", 2.0**60, None), 2**60 + 1, 2**60 + 200),
    "past-2^64": (("power", 1e20, 0.5), 10**20 + 7, 10**20 + 90),
    "huge": (("loglog", 1e300, None), int(1e300), int(1e300) + 40),
}


@pytest.mark.parametrize("case", sorted(RATIO_CASES))
def test_ratio_series_weight_equals_its_loop(case):
    (mu, t0, alpha), n0, n_max = RATIO_CASES[case]
    w = qk.make_weight(mu, t0, alpha=alpha)
    got = qk.ratio_series_weight(w, n0, n_max)
    want = qk.diagnose_series(loop_ratio_terms(w, n0, n_max))
    assert bits(got.terms) == bits(want.terms)
    assert bits(got.partial_sums) == bits(want.partial_sums)
    assert (got.verdict, got.slope_estimate) == (want.verdict, want.slope_estimate)


def test_ratio_series_weight_overflows_where_its_loop_does(monkeypatch):
    # a decreasing m makes m(n) - m(n + 1) = 1000, past math.exp's range
    w = qk.make_weight("zero", 2.0)
    monkeypatch.setattr(W, "_m_parts", lambda w, t: (-1000.0 * t, None, None))
    with pytest.raises(OverflowError):
        loop_ratio_terms(w, 2, 10)
    with pytest.raises(OverflowError):
        qk.ratio_series_weight(w, 2, 10)


def loop_loglog_ratios(r_max):
    w = qk.make_weight("loglog", 10.0)
    r_start = math.exp(W._m_parts(w, w.t0 + 1.0)[1]) * 1.01
    grid = np.exp(np.linspace(math.log(r_start), math.log(r_max), 64))
    # omega one radius at a time, apart from the batch that the check solves
    return grid, [qk.omega(w, s) * math.e * math.log(s) / s for s in grid.tolist()]


@pytest.mark.parametrize("r_max", [1e3, 1e6, 1e15, 1e100, 1e300, sys.float_info.max])
def test_loglog_asymptotics_check_equals_its_loop(r_max):
    try:
        want = loop_loglog_ratios(r_max)
    except qk.QuasikitError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            qk.loglog_asymptotics_check(r_max)
        return
    grid, ratios = qk.loglog_asymptotics_check(r_max)
    assert bits(grid) == bits(want[0]) and bits(ratios) == bits(want[1])


def loop_spacing_rhs(logs, nmax):
    steps = [math.exp(logs[j - 1] - logs[j]) / math.e for j in range(1, nmax + 1)]
    return np.cumsum([0.0, *steps])


@pytest.mark.parametrize("family,params", [("factorial", {}), ("gevrey", {"s": 1.5}),
                                           ("explicit", None)])
def test_spacing_partial_sums_equal_their_loop(family, params):
    if params is None:
        seq = qk.LogSequence(logs=[j * j / 7.0 for j in range(26)])
    else:
        seq = qk.make_sequence(qk.SequenceSpec(family=family, horizon=26, params=params))
    res = qk.zero_spacing_experiment(sin_spec((0.0, 4.0 * math.pi)), seq, 20, grid_size=128)
    assert bits(res.rhs_partial) == bits(loop_spacing_rhs(seq.logs, 20))
