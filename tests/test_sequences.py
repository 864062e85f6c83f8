import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasikit as qk
from quasikit.sequences import _lower_hull_vertices

from conftest import random_logconvex, random_logsequence


def hull_oracle(logs):
    """Brute-force lower hull value at each n: infimum over all chords
    (k steps right, l steps left) of the interpolated ordinate at n."""
    n_len = len(logs)
    out = []
    for n in range(n_len):
        best = logs[n]
        for l in range(n + 1):
            for k in range(n_len - n):
                if k + l == 0:
                    continue
                value = (k * logs[n - l] + l * logs[n + k]) / (k + l)
                best = min(best, value)
        out.append(best)
    return out


class TestMakeSequence:
    def test_factorial(self):
        seq = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=4))
        assert seq.logs == pytest.approx([0.0, 0.0, math.log(2), math.log(6)], abs=1e-12)

    def test_power_nn(self):
        seq = qk.make_sequence(qk.SequenceSpec(family="power_nn", horizon=3))
        assert seq.logs == pytest.approx([0.0, 0.0, 2 * math.log(2)], abs=1e-12)

    def test_denjoy1_closed_form(self):
        seq = qk.make_sequence(
            qk.SequenceSpec(family="denjoy1", horizon=4, params={"C": 1.0})
        )
        assert seq.logs[3] == pytest.approx(3 * math.log(3 * math.log(3)), rel=1e-15)
        assert seq.filled == (0, 1)
        assert seq.logs[1] == 0.0

    def test_denjoy2_validity_padding(self):
        seq = qk.make_sequence(
            qk.SequenceSpec(family="denjoy2", horizon=6, params={"C": 2.0})
        )
        assert seq.filled == (0, 1, 2)
        expected = 4 * math.log(2.0 * 4 * math.log(4) * math.log(math.log(4)))
        assert seq.logs[4] == pytest.approx(expected, rel=1e-15)

    def test_gevrey_scales_factorial(self):
        seq = qk.make_sequence(
            qk.SequenceSpec(family="gevrey", horizon=6, params={"s": 2.0})
        )
        fact = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=6))
        assert np.allclose(seq.logs, 2.0 * fact.logs, atol=1e-12)

    def test_explicit_forces_normalization(self):
        seq = qk.make_sequence(
            qk.SequenceSpec(family="explicit", logs=(7.0, 1.0, 2.0))
        )
        assert seq.logs[0] == 0.0

    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            dict(family="nope", horizon=5),
            dict(family="gevrey", horizon=5, params={"s": -1.0}),
            dict(family="gevrey", horizon=5),
            dict(family="denjoy1", horizon=5, params={"C": 0.0}),
            dict(family="factorial", horizon=2),
        ],
    )
    def test_invalid_specs_rejected(self, spec_kwargs):
        with pytest.raises(qk.ValidationError):
            qk.SequenceSpec(**spec_kwargs)

    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "factorial", "horizon": 9.7},
            {"family": "factorial", "horizon": True},
            {"family": "factorial", "horizon": "12"},
            {"family": "gevrey", "horizon": 9, "params": {"s": True}},
        ],
    )
    def test_spec_json_rejects_truncated_or_boolean_values(self, doc):
        with pytest.raises(qk.ValidationError, match="horizon must be an integer|requires"):
            qk.SequenceSpec.from_json(doc)

    @pytest.mark.parametrize("horizon", [9.7, 12.0, True, "12"])
    def test_horizon_override_is_checked_as_the_spec_horizon(self, horizon):
        # 9.7 was truncated to 9 entries
        spec = qk.SequenceSpec(family="factorial", horizon=20)
        with pytest.raises(qk.ValidationError, match="horizon must be an integer"):
            qk.make_sequence(spec, horizon=horizon)
        with pytest.raises(qk.ValidationError, match="horizon must be an integer"):
            qk.SequenceSpec(family="factorial", horizon=horizon)
        assert qk.make_sequence(spec, horizon=np.int64(9)).length == 9

    @pytest.mark.parametrize("horizon", [100, 3, True, 0])
    def test_explicit_vector_rejects_a_horizon(self, horizon):
        spec = qk.SequenceSpec(family="explicit", logs=(0.0, 1.0, 2.0))
        with pytest.raises(qk.ValidationError, match="horizon cannot override"):
            qk.make_sequence(spec, horizon=horizon)
        assert qk.make_sequence(spec).length == 3

    def test_family_table_serves_every_catalog_family(self):
        from quasikit.sequences import _CATALOG, FAMILIES

        assert FAMILIES == ("explicit", *_CATALOG)
        for family, (key, first, _) in _CATALOG.items():
            params = {} if key is None else {key: 1.5}
            seq = qk.make_sequence(qk.SequenceSpec(family=family, horizon=8, params=params))
            assert seq.filled == tuple(range(first))
            assert seq.generator == (family if key is None else f"{family}({key}=1.5)")
            if key is not None:
                with pytest.raises(qk.ValidationError, match=f"requires parameter {key} > 0"):
                    qk.SequenceSpec(family=family, horizon=8)

    @pytest.mark.parametrize("horizon", [8, 2000, 100_000])
    @pytest.mark.parametrize("family, param", [
        ("factorial", None), ("power_nn", None), ("gevrey", 2.5), ("denjoy1", 0.7),
        ("denjoy2", 1.3),
    ])
    def test_catalog_arrays_equal_the_per_index_formulas(self, family, param, horizon):
        # the closed forms evaluated index by index with the math library,
        # as the catalog was before it took the index array
        formulas = {
            "factorial": lambda n, _: math.lgamma(n + 1),
            "power_nn": lambda n, _: n * math.log(n or 1),
            "gevrey": lambda n, s: s * math.lgamma(n + 1),
            "denjoy1": lambda n, c: n * math.log(c * n * math.log(n)),
            "denjoy2": lambda n, c: n * math.log(c * n * math.log(n) * math.log(math.log(n))),
        }
        key, first, _ = qk.sequences._CATALOG[family]
        params = {} if key is None else {key: param}
        logs = qk.make_sequence(qk.SequenceSpec(family=family, horizon=horizon, params=params)).logs
        want = [0.0] * first + [formulas[family](n, param) for n in range(first, horizon)]
        assert logs.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("params", [[["s", 1.0]], [], "s", 5])
    def test_spec_json_params_must_be_an_object(self, params):
        # a list of pairs passed through dict() as an object
        doc = {"family": "gevrey", "horizon": 9, "params": params}
        with pytest.raises(qk.ValidationError, match="spec params must be an object"):
            qk.SequenceSpec.from_json(doc)

    def test_spec_json_takes_an_integral_float_horizon(self):
        spec = qk.SequenceSpec.from_json({"family": "factorial", "horizon": 2000.0})
        assert spec.horizon == 2000 and type(spec.horizon) is int
        assert qk.make_sequence(spec).length == 2000

    def test_bad_logsequence_rejected(self):
        with pytest.raises(qk.ValidationError):
            qk.LogSequence(logs=(1.0, 2.0))
        with pytest.raises(qk.ValidationError):
            qk.LogSequence(logs=(0.0, math.inf))

    def test_frozen_always_copies(self):
        from quasikit.sequences import _frozen

        writable = np.array([0.0, 1.0, 2.0])
        copy = _frozen(writable)
        assert not np.shares_memory(copy, writable) and not copy.flags.writeable
        again = _frozen(copy)
        assert again is not copy and not np.shares_memory(again, copy)
        assert not again.flags.writeable and again.tolist() == copy.tolist()
        view = writable[:]
        view.flags.writeable = False
        assert not np.shares_memory(_frozen(view), writable)
        assert not np.shares_memory(_frozen(copy.astype(np.float32)), copy)
        bad = np.array([0.0, math.inf])
        with pytest.raises(qk.ValidationError, match=r"logs\[1\] = inf"):
            _frozen(bad)
        bad.flags.writeable = False  # a caller's read-only array is still scanned
        with pytest.raises(qk.ValidationError, match=r"logs\[1\] = inf"):
            _frozen(bad)

    @pytest.mark.parametrize("logs, item", [
        (["0", "1.5", "4", "9"], "logs[0] = '0'"),
        ([False, True, True, True], "logs[0] = False"),
        ([0.0, 1.0, np.bool_(True)], f"logs[2] = {np.bool_(True)!r}"),
        ([0.0, b"1"], "logs[1] = b'1'"),
        (np.array(["0", "1"]), "logs[0] = '0'"),
        (np.array([False, True]), "logs[0] = False"),
    ])
    def test_strings_and_bools_are_no_numbers(self, logs, item):
        # each converts to a float, as errors.finite_float's scalars would
        with pytest.raises(qk.ValidationError, match=f"^{re.escape(item)} is not a number$"):
            qk.SequenceSpec(family="explicit", logs=logs)
        with pytest.raises(qk.ValidationError, match=re.escape(item.replace("logs", "terms"))):
            qk.diagnose_series(logs)

    def test_numpy_and_python_numbers_are_numbers(self):
        from quasikit.sequences import _frozen

        mixed = [0, 1.5, np.float64(2.5), np.int64(3), np.float32(0.5)]
        assert _frozen(mixed).tolist() == [0.0, 1.5, 2.5, 3.0, 0.5]
        assert _frozen(np.arange(3)).tolist() == [0.0, 1.0, 2.0]
        assert _frozen(range(3)).tolist() == [0.0, 1.0, 2.0]

    def test_spec_json_round_trip(self):
        spec = qk.SequenceSpec(family="denjoy1", horizon=10, params={"C": 3.0})
        again = qk.SequenceSpec.from_json(spec.to_json())
        assert again == spec
        explicit = qk.SequenceSpec.from_json({"family": "explicit", "logs": [0, 1, 2]})
        assert explicit.logs.tolist() == [0.0, 1.0, 2.0]


class TestConvexRegularize:
    def test_nonconvex_example(self):
        reg = qk.convex_regularize(qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0)))
        assert reg.logs_c == pytest.approx([0.0, 0.5, 1.0, 4.0], abs=1e-12)
        assert reg.principal.tolist() == [0, 2, 3]

    def test_convex_input_is_fixed_point(self, factorial_40):
        reg = qk.convex_regularize(factorial_40)
        assert np.array_equal(reg.logs_c, factorial_40.logs)
        assert reg.principal.tolist() == list(range(40))

    def test_constant_sequence(self):
        reg = qk.convex_regularize(qk.LogSequence(logs=(0.0, 0.0, 0.0)))
        assert reg.logs_c.tolist() == [0.0, 0.0, 0.0]
        assert reg.principal.tolist() == [0, 1, 2]

    def test_two_point_degenerate(self):
        reg = qk.convex_regularize(qk.LogSequence(logs=(0.0, 5.0)))
        assert reg.logs_c.tolist() == [0.0, 5.0]
        assert reg.principal.tolist() == [0, 1]

    def test_endpoints_always_principal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            seq = random_logsequence(rng, int(rng.integers(2, 30)))
            reg = qk.convex_regularize(seq)
            assert 0 in reg.principal and seq.length - 1 in reg.principal

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            seq = random_logsequence(rng, int(rng.integers(3, 41)))
            reg = qk.convex_regularize(seq)
            oracle = hull_oracle(seq.logs)
            assert np.allclose(reg.logs_c, oracle, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            seq = random_logsequence(rng, int(rng.integers(3, 41)))
            reg = qk.convex_regularize(seq)
            again = qk.convex_regularize(qk.LogSequence(logs=reg.logs_c))
            assert np.allclose(again.logs_c, reg.logs_c, atol=1e-12)

    def test_minorant_operator_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            lo = random_logsequence(rng, n)
            bump = rng.uniform(0.0, 5.0, n)
            bump[0] = 0.0
            hi = qk.LogSequence(logs=tuple(lo.logs + bump))
            reg_lo = qk.convex_regularize(lo)
            reg_hi = qk.convex_regularize(hi)
            assert np.all(reg_lo.logs_c <= reg_hi.logs_c + 1e-12)

    @given(
        st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=2, max_size=24)
    )
    @settings(max_examples=150, deadline=None)
    def test_hull_invariants_hypothesis(self, tail):
        seq = qk.LogSequence(logs=(0.0, *tail))
        reg = qk.convex_regularize(seq)
        logs = seq.logs
        hull = reg.logs_c
        scale = max(1.0, float(np.max(np.abs(logs))))
        assert np.all(hull <= logs + 1e-9 * scale)
        if seq.length >= 3:
            assert qk.is_log_convex(qk.LogSequence(logs=(0.0, *hull[1:])))
        for idx in reg.principal:
            assert hull[idx] == pytest.approx(logs[idx], abs=1e-9 * scale)

    def test_vertex_scan_drops_collinear_points(self):
        # interior point on a straight segment: on the hull but not a vertex
        assert _lower_hull_vertices([0.0, 1.0, 2.0, 5.0]).tolist() == [0, 2, 3]


class TestDerivedSequences:
    def test_ratio_factorial(self, factorial_40):
        r = qk.ratio_sequence(factorial_40)
        expected = [-math.log(n + 1) for n in range(39)]
        assert np.allclose(r, expected, atol=1e-12)

    def test_ratio_constant(self):
        r = qk.ratio_sequence(qk.LogSequence(logs=(0.0, 0.0, 0.0)))
        assert np.allclose(r, 0.0)

    def test_ratio_direct_subtraction(self):
        r = qk.ratio_sequence(qk.LogSequence(logs=(0.0, 0.5, 1.0, 4.0)))
        assert np.allclose(r, [-0.5, -0.5, -3.0], atol=1e-12)

    def test_root_factorial(self, factorial_40):
        rho = qk.root_sequence(factorial_40)
        assert rho[1] == pytest.approx(math.log(2) / 2)

    def test_root_power_nn(self):
        seq = qk.make_sequence(qk.SequenceSpec(family="power_nn", horizon=12))
        rho = qk.root_sequence(seq)
        assert np.allclose(rho, [math.log(n) for n in range(1, 12)], atol=1e-12)

    def test_log_convex_monotonicity_both_parts(self):
        # successive quotients M_{n+1}/M_n nondecreasing, i.e. the ratio
        # values L_n - L_{n+1} nonincreasing; roots nondecreasing
        rng = np.random.default_rng(23)
        for _ in range(60):
            seq = random_logconvex(rng, int(rng.integers(3, 40)))
            r = qk.ratio_sequence(seq)
            rho = qk.root_sequence(seq)
            assert np.all(np.diff(r) <= 1e-12)
            assert np.all(np.diff(rho) >= -1e-12)

    def test_is_log_convex_examples(self, factorial_40):
        assert qk.is_log_convex(factorial_40)
        assert not qk.is_log_convex(qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0)))
        reg = qk.convex_regularize(qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0)))
        assert qk.is_log_convex(qk.LogSequence(logs=reg.logs_c))
        # at max|L_n| = 5.6e10 the sum L_{n-1} + L_{n+1} rounds by up to 7.6e-6
        line = [1e10 / 7 * n for n in range(40)]
        assert qk.is_log_convex(qk.LogSequence(logs=line))
        # a dent of 1e-6 max|L_n| is still found at scale 1e9
        dented = [1e9 / 39 * n for n in range(40)]
        dented[20] += 1e3
        assert not qk.is_log_convex(qk.LogSequence(logs=dented))


def test_hull_oracle_with_negative_dips():
    # families like the double-log one dip below the normalization level
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 41))
        logs = rng.uniform(-10.0, 10.0, n)
        logs[0] = 0.0
        seq = qk.LogSequence(logs=tuple(float(v) for v in logs))
        reg = qk.convex_regularize(seq)
        assert np.allclose(reg.logs_c, hull_oracle(seq.logs), atol=1e-9)


def test_denjoy2_dip_becomes_principal_vertex():
    seq = qk.make_sequence(
        qk.SequenceSpec(family="denjoy2", horizon=30, params={"C": 1.0})
    )
    reg = qk.convex_regularize(seq)
    assert seq.logs[3] < 0  # the first valid entry dips below the padding
    assert 3 in reg.principal
    assert reg.logs_c[1] <= 0.0 and reg.logs_c[2] <= 0.0
