import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasikit as qk

from conftest import exp_spec, ones_sequence, rational_spec, sin_spec


def random_vector(rng, n=None, zero_prefix=True):
    n = n or int(rng.integers(2, 32))
    entries = rng.normal(0, float(rng.choice([0.01, 1.0, 100.0])), n)
    if zero_prefix and rng.random() < 0.4:
        entries[: int(rng.integers(0, n))] = 0.0
    mask = rng.random(n) < 0.6
    mask[0] = True
    pset = tuple(int(i) for i in np.nonzero(mask)[0])
    return qk.BangVector(entries=tuple(float(v) for v in entries), index_set=pset)


finite_entries = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=24
)


class TestNorm:
    def test_large_leading_entry(self):
        v = qk.BangVector(entries=(2.0,) + (0.0,) * 9, index_set=tuple(range(10)))
        res = qk.bang_norm(v)
        assert res.value == 2.0 and res.witness_k == 0 and not res.truncated

    def test_half_leading_entry(self):
        v = qk.BangVector(entries=(0.5,) + (0.0,) * 9, index_set=tuple(range(10)))
        res = qk.bang_norm(v)
        assert res.value == 0.5 and res.witness_k == 1

    def test_zero_vector_truncation_flag(self):
        v = qk.BangVector(entries=(0.0,) * 8, index_set=(0, 3, 7))
        res = qk.bang_norm(v)
        assert res.value == pytest.approx(math.exp(-7))
        assert res.truncated and res.witness_k == 7

    def test_zero_then_large(self):
        v = qk.BangVector(entries=(0.0, 3.0) + (0.0,) * 8, index_set=tuple(range(10)))
        assert qk.bang_norm(v).value == 1.0
        assert qk.bang_norm_bruteforce(v) == 1.0

    def test_unit_entry(self):
        v = qk.BangVector(entries=(1.0,) + (0.0,) * 9, index_set=tuple(range(10)))
        assert qk.bang_norm_bruteforce(v) == 1.0

    def test_result_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v = random_vector(rng)
            res = qk.bang_norm(v)
            window = max(abs(e) for e in v.entries[: res.witness_k + 1])
            assert res.value == max(math.exp(-res.witness_k), window)

    def test_reduction_equals_bruteforce(self):
        rng = np.random.default_rng(4)
        for _ in range(3000):
            v = random_vector(rng)
            assert qk.bang_norm(v).value == qk.bang_norm_bruteforce(v)

    @given(finite_entries)
    @settings(max_examples=300, deadline=None)
    def test_reduction_sound_hypothesis(self, entries):
        v = qk.BangVector(
            entries=tuple(entries), index_set=tuple(range(len(entries)))
        )
        assert qk.bang_norm(v).value == qk.bang_norm_bruteforce(v)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            v = random_vector(rng)
            neg = qk.BangVector(
                entries=tuple(-e for e in v.entries), index_set=v.index_set
            )
            assert qk.bang_norm(v).value == qk.bang_norm(neg).value

    def test_positivity_lower_bound(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(2000):
            v = random_vector(rng)
            first = next(
                (k for k in v.index_set if v.entries[k] != 0.0), None
            )
            if first is None:
                continue
            checked += 1
            bound = min(abs(v.entries[first]), math.exp(-(first - 1)))
            assert qk.bang_norm(v).value >= bound * (1 - 1e-12)
        assert checked > 500

    def test_witness_bracketing(self):
        rng = np.random.default_rng(10)
        fired = 0
        for _ in range(4000):
            v = random_vector(rng)
            res = qk.bang_norm(v)
            log_v = -math.log(res.value)
            uppers = [k for k in v.index_set if math.exp(-k) >= res.value]
            lowers = [k for k in v.index_set if math.exp(-k) <= res.value]
            if not uppers or not lowers:
                continue
            fired += 1
            k2, k1 = max(uppers), min(lowers)
            assert k2 <= res.witness_k <= k1, (v, res, k2, k1, log_v)
        assert fired > 1000


class TestDistance:
    def test_self_distance_is_truncated_zero(self):
        rng = np.random.default_rng(12)
        v = random_vector(rng)
        res = qk.bang_distance(v, v)
        assert res.truncated
        assert res.value == pytest.approx(math.exp(-v.index_set[-1]))

    def test_distance_to_zero_is_norm(self):
        rng = np.random.default_rng(14)
        v = random_vector(rng)
        zero = qk.BangVector(
            entries=(0.0,) * v.horizon, index_set=v.index_set
        )
        assert qk.bang_distance(v, zero).value == qk.bang_norm(v).value

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(2000):
            n = int(rng.integers(2, 24))
            mask = rng.random(n) < 0.6
            mask[0] = True
            pset = tuple(int(i) for i in np.nonzero(mask)[0])
            a = rng.normal(0, 1, n)
            b = rng.normal(0, 1, n)
            va = qk.BangVector(entries=tuple(a), index_set=pset)
            vb = qk.BangVector(entries=tuple(b), index_set=pset)
            vab = qk.BangVector(entries=tuple(a + b), index_set=pset)
            assert (
                qk.bang_norm(vab).value
                <= qk.bang_norm(va).value + qk.bang_norm(vb).value + 1e-12
            )

    def test_mismatch_rejected(self):
        a = qk.BangVector(entries=(0.0, 1.0), index_set=(0, 1))
        b = qk.BangVector(entries=(0.0, 1.0, 2.0), index_set=(0, 1))
        with pytest.raises(qk.ValidationError):
            qk.bang_distance(a, b)
        c = qk.BangVector(entries=(0.0, 1.0), index_set=(0,))
        with pytest.raises(qk.ValidationError):
            qk.bang_distance(a, c)

    def test_index_set_must_contain_zero(self):
        with pytest.raises(qk.ValidationError):
            qk.BangVector(entries=(1.0, 2.0), index_set=(1,))


class TestFunctionSequence:
    def test_exp_with_factorial_weights(self, reg_factorial_40):
        v = qk.function_sequence(exp_spec(), 0.0, reg_factorial_40)
        expected = [math.exp(-math.lgamma(n + 1) - n) for n in range(40)]
        assert np.allclose(v.entries, expected, rtol=1e-12)
        assert v.index_set.tolist() == list(reg_factorial_40.principal)

    def test_sin_with_unit_weights(self, reg_ones_40):
        v = qk.function_sequence(sin_spec(), 0.0, reg_ones_40)
        pattern = [0.0, 1.0, 0.0, -1.0]
        expected = [pattern[n % 4] * math.exp(-n) for n in range(40)]
        assert np.allclose(v.entries, expected, atol=1e-15)

    def test_zero_function(self, reg_ones_40):
        zero = qk.FunctionSpec({"op": "const", "value": 0.0}, (0.0, 1.0))
        v = qk.function_sequence(zero, 0.5, reg_ones_40)
        assert all(e == 0.0 for e in v.entries)

    def test_scale_past_the_float_range_is_rejected_without_a_warning(self):
        # 1 / (M_n e^n) = e^{799 n} overflows; the vector's finite check
        # names the entry, and numpy's overflow warning does not leak
        reg = qk.convex_regularize(qk.LogSequence(logs=[0.0, -800.0, -1600.0, -2400.0]))
        with pytest.raises(qk.ValidationError, match=r"^entries\[1\] = inf is not finite$"):
            qk.function_sequence(sin_spec((0.0, 1000.0)), 1.0, reg)


class TestGrowthEstimate:
    def test_zero_shift_holds_with_equality(self, reg_factorial_40):
        chk = qk.growth_estimate_check(exp_spec(), 0.3, 0.0, reg_factorial_40)
        assert chk.ok and chk.lhs == pytest.approx(chk.rhs)

    @pytest.mark.parametrize("fn,weights", [
        ("exp", "factorial"), ("exp", "ones"),
        ("sin", "factorial"), ("sin", "ones"),
        ("rational", "factorial"), ("rational", "ones"),
    ])
    def test_estimate_sweep(self, fn, weights, reg_factorial_40, reg_ones_40):
        f = {"exp": exp_spec, "sin": sin_spec, "rational": rational_spec}[fn]()
        reg = {"factorial": reg_factorial_40, "ones": reg_ones_40}[weights]
        rng = np.random.default_rng(hash((fn, weights)) % 2**32)
        for _ in range(60):
            t = float(rng.uniform(0, 1))
            tau = float(rng.uniform(-t, 1 - t))
            chk = qk.growth_estimate_check(f, t, tau, reg)
            assert chk.ok
            assert chk.witness_l >= 1

    def test_zero_function_rejected(self, reg_ones_40):
        zero = qk.FunctionSpec({"op": "const", "value": 0.0}, (0.0, 1.0))
        with pytest.raises(qk.ValidationError):
            qk.growth_estimate_check(zero, 0.5, 0.1, reg_ones_40)

    def test_bound_past_the_float_range_holds(self, reg_factorial_40):
        # e |tau| M_1 / M_0 = 500 e leaves math.exp's range: the bound is +inf
        f = sin_spec((0.0, 1000.0))
        chk = qk.growth_estimate_check(f, 0.0, 500.0, reg_factorial_40)
        assert chk.ok and chk.rhs == math.inf
        assert qk.growth_estimate_check(f, 0.0, 0.5, reg_factorial_40).rhs == 1.4320985904233343

    def test_ratio_past_the_float_range_bounds_nothing(self):
        # M_1 / M_0 = e^800 is +inf; tau = 0 multiplies by 1, not by e^(inf * 0)
        reg = qk.convex_regularize(qk.LogSequence(logs=[0.0, 800.0, 1600.0, 2400.0]))
        chk = qk.growth_estimate_check(exp_spec(), 0.3, 0.0, reg)
        assert chk.witness_l == 1 and chk.ok and chk.lhs == chk.rhs == math.exp(0.3)
        assert qk.growth_estimate_check(exp_spec(), 0.3, 0.1, reg).rhs == math.inf


@pytest.mark.parametrize("doc, item", [
    ({"entries": [0.5, 0.0], "index_set": ["0", True]}, "index_set[0] = '0'"),
    ({"entries": [0.5, 0.0], "index_set": [0, True]}, "index_set[1] = True"),
    ({"entries": [0.5, True]}, "entries[1] = True"),
    ({"entries": ["0.5", 0.0]}, "entries[0] = '0.5'"),
])
def test_strings_and_bools_are_no_numbers(doc, item):
    with pytest.raises(qk.ValidationError, match=f"^{re.escape(item)} is not a number$"):
        qk.BangVector.from_json(doc)


def test_from_json_defaults_to_full_index_set():
    v = qk.BangVector.from_json({"entries": [0.5, 1.0, 0.0]})
    assert v.index_set.tolist() == [0, 1, 2]
    with pytest.raises(qk.ValidationError):
        qk.BangVector.from_json({"index_set": [0]})


def test_constructor_defaults_to_full_index_set():
    v = qk.BangVector(entries=[0.5, 1.0, 0.0])
    assert v.index_set.tolist() == [0, 1, 2]
    assert v.index_set.dtype == np.intp and not v.index_set.flags.writeable


@pytest.mark.parametrize("index_set, message", [
    ([0, 2, 2], "index_set must be strictly increasing"),
    ([0, 2, 1], "index_set must be strictly increasing"),
    ([0, 3], "index_set exceeds the entry horizon"),
])
def test_index_set_outside_the_rules_is_rejected(index_set, message):
    with pytest.raises(qk.ValidationError, match=f"^{message}$"):
        qk.BangVector(entries=[0.5, 1.0, 0.0], index_set=index_set)


def test_entries_are_copied_once(monkeypatch):
    # from_json hands the list to the constructor, which copies it once
    entries = np.array([0.5, 1.0, 0.0])
    v = qk.BangVector(entries=entries, index_set=[0, 2])
    assert not np.shares_memory(v.entries, entries) and not v.entries.flags.writeable
    calls, frozen = [], qk.bang._frozen

    def counting(values, name="logs"):
        calls.append(name)
        return frozen(values, name)

    monkeypatch.setattr(qk.bang, "_frozen", counting)
    v = qk.BangVector.from_json({"entries": [0.5, 1.0, 0.0]})
    assert calls == ["entries", "index_set"]
    assert v.entries.tolist() == [0.5, 1.0, 0.0] and v.index_set.tolist() == [0, 1, 2]


def test_growth_check_reads_one_table(reg_factorial_40):
    # both vectors come from one two-point table, bit for bit the one-point ones
    f = sin_spec()
    for t, tau in ((0.2, 0.5), (0.8, -0.3)):
        chk = qk.growth_estimate_check(f, t, tau, reg_factorial_40)
        base = qk.function_sequence(f, t, reg_factorial_40)
        shifted = qk.function_sequence(f, t + tau, reg_factorial_40)
        assert chk.lhs == qk.bang_norm(shifted).value
        logs_c = reg_factorial_40.logs_c
        ratio = math.exp(logs_c[chk.witness_l] - logs_c[chk.witness_l - 1])
        assert chk.rhs == qk.bang_norm(base).value * math.exp(math.e * abs(tau) * ratio)


# ---------------------------------------------------------------------------
# scalar oracles: the per-entry loops that the prefix-max scan replaced


def scalar_bang_norm(entries, pset):
    """(value, witness_k, reduction_bound, truncated) by the reduced scalar scan."""
    n0 = next((i for i, v in enumerate(entries) if v != 0.0), None)
    if n0 is None:
        return math.exp(-pset[-1]), pset[-1], len(entries) - 1, True
    threshold = abs(entries[n0])
    reduction = len(entries) - 1
    for k in pset:
        if k >= n0 and math.exp(-k) < threshold:
            reduction = k
            break
    best = math.inf
    witness = pset[0]
    running = 0.0
    idx = 0
    for k in pset:
        if k > reduction:
            break
        while idx <= k:
            running = max(running, abs(entries[idx]))
            idx += 1
        value = max(math.exp(-k), running)
        if value < best:
            best = value
            witness = k
    window_max = max(abs(v) for v in entries[: witness + 1])
    truncated = witness == pset[-1] and math.exp(-witness) > window_max
    return best, witness, reduction, truncated


def scalar_witness(entries, pset, value):
    """The smallest k >= 1 in P whose candidate reaches ``value``, or None."""
    running = 0.0
    idx = 0
    for k in pset:
        while idx <= k:
            running = max(running, abs(entries[idx]))
            idx += 1
        if k >= 1 and max(math.exp(-k), running) <= value * (1.0 + 1e-15):
            return k
    return None


@st.composite
def oracle_vectors(draw):
    # a zero prefix of signed zeros (up to past k = 746, where e^{-k} becomes
    # 0.0), then any finite entries, tiny and huge included
    n_zero = draw(st.one_of(st.integers(0, 8), st.integers(730, 760)))
    signs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n_zero) < 0.5
    zeros = [-0.0 if negative else 0.0 for negative in signs]
    # entries equal to or within 1e-13 of some e^{-k} make the comparisons tie
    tail = draw(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 760).map(lambda k: math.exp(-k)),
        st.tuples(st.integers(0, 30), st.sampled_from([1 - 1e-13, 1 + 1e-13])).map(
            lambda kr: math.exp(-kr[0]) * kr[1]
        ),
    ), max_size=24))
    entries = zeros + tail or [0.0]
    if draw(st.booleans()):
        pset = range(len(entries))
    else:
        pset = {0} | draw(st.sets(st.integers(0, len(entries) - 1), max_size=12))
    return entries, sorted(pset)


class TestScalarOracle:
    @given(oracle_vectors())
    @example(([0.0, math.exp(-3), 0.0, 0.0, 0.0], [0, 1, 2, 3, 4]))  # e^{-k} = |x_{n0}|
    @example(([math.exp(-2), 0.0, 0.0], [0, 2]))  # e^{-k} = window max at the end of P
    @example(([0.0, 0.0, 0.0, math.exp(-2) * (1 - 1e-13)], [0, 1, 2, 3]))  # near-tie
    @settings(max_examples=500, deadline=None)
    def test_norm_and_witness_match_scalar_scan(self, vec):
        entries, pset = vec
        v = qk.BangVector(entries=entries, index_set=pset)
        res = qk.bang_norm(v)
        value, witness, reduction, truncated = scalar_bang_norm(entries, pset)
        assert (res.value, res.witness_k, res.reduction_bound, res.truncated) == (
            value, witness, reduction, truncated
        )
        assert qk.bang._achieving_index(v, res.value) == scalar_witness(entries, pset, value)

    def test_decay_rounds_like_math_exp(self):
        # numpy's exp differs from math.exp in the last ulp at some k
        for k in range(800):
            v = qk.BangVector(entries=np.zeros(k + 1), index_set=sorted({0, k}))
            assert qk.bang_norm(v).value == math.exp(-k)

    def test_growth_witness_matches_scalar_scan(self, reg_factorial_40, reg_ones_40):
        rng = np.random.default_rng(20)
        for f, reg in ((sin_spec(), reg_factorial_40), (exp_spec(), reg_ones_40)):
            for _ in range(20):
                t = float(rng.uniform(0, 0.9))
                chk = qk.growth_estimate_check(f, t, 0.1, reg)
                base = qk.function_sequence(f, t, reg)
                entries, pset = base.entries.tolist(), list(base.index_set)
                value = scalar_bang_norm(entries, pset)[0]
                assert chk.witness_l == scalar_witness(entries, pset, value)

    def test_entries_are_read_only(self):
        v = qk.BangVector.from_json({"entries": [0.5, 1.0, 0.0], "index_set": [0, 2]})
        assert v.entries.dtype == np.float64
        assert v.index_set.dtype == np.intp and v.index_set.tolist() == [0, 2]
        with pytest.raises(ValueError):
            v.entries[0] = 2.0
        with pytest.raises(ValueError):
            v.index_set[0] = 1
