import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        v = qk.function_sequence(exp_spec(), 0.0, reg_factorial_40, jet_order=48)
        expected = [math.exp(-math.lgamma(n + 1) - n) for n in range(40)]
        assert np.allclose(v.entries, expected, rtol=1e-12)
        assert v.index_set == reg_factorial_40.principal

    def test_sin_with_unit_weights(self, reg_ones_40):
        v = qk.function_sequence(sin_spec(), 0.0, reg_ones_40, jet_order=48)
        pattern = [0.0, 1.0, 0.0, -1.0]
        expected = [pattern[n % 4] * math.exp(-n) for n in range(40)]
        assert np.allclose(v.entries, expected, atol=1e-15)

    def test_zero_function(self, reg_ones_40):
        zero = qk.FunctionSpec({"op": "const", "value": 0.0}, (0.0, 1.0))
        v = qk.function_sequence(zero, 0.5, reg_ones_40, jet_order=48)
        assert all(e == 0.0 for e in v.entries)


class TestGrowthEstimate:
    def test_zero_shift_holds_with_equality(self, reg_factorial_40):
        chk = qk.growth_estimate_check(exp_spec(), 0.3, 0.0, reg_factorial_40, jet_order=48)
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
            chk = qk.growth_estimate_check(f, t, tau, reg, jet_order=48)
            assert chk.ok
            assert chk.witness_l >= 1

    def test_zero_function_rejected(self, reg_ones_40):
        zero = qk.FunctionSpec({"op": "const", "value": 0.0}, (0.0, 1.0))
        with pytest.raises(qk.ValidationError):
            qk.growth_estimate_check(zero, 0.5, 0.1, reg_ones_40, jet_order=48)


def test_from_json_defaults_to_full_index_set():
    v = qk.BangVector.from_json({"entries": [0.5, 1.0, 0.0]})
    assert v.index_set == (0, 1, 2)
    with pytest.raises(qk.ValidationError):
        qk.BangVector.from_json({"index_set": [0]})


def test_growth_check_reads_one_table(reg_factorial_40):
    # both vectors come from one two-point table, bit for bit the one-point ones
    f = sin_spec()
    for t, tau in ((0.2, 0.5), (0.8, -0.3)):
        chk = qk.growth_estimate_check(f, t, tau, reg_factorial_40, jet_order=48)
        base = qk.function_sequence(f, t, reg_factorial_40, jet_order=48)
        shifted = qk.function_sequence(f, t + tau, reg_factorial_40, jet_order=48)
        assert chk.lhs == qk.bang_norm(shifted).value
        logs_c = reg_factorial_40.logs_c
        ratio = math.exp(logs_c[chk.witness_l] - logs_c[chk.witness_l - 1])
        assert chk.rhs == qk.bang_norm(base).value * math.exp(math.e * abs(tau) * ratio)
