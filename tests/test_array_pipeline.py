"""The array-native sequence pipeline against the scalar loops it replaced.

The references below are the element-by-element Python loops that computed
the hull fill, the principal set, the suffix minimum, the convexity test,
the liminf flag and Carleman's inequality before those stages became numpy
expressions.  All but the last keep their arithmetic and must reproduce the
loops bit for bit, signed zeros included, since the CLI reports print every
float with its repr.  The hull's vertices come from a monotone chain that
decides every orientation in exact rational arithmetic.
"""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasikit as qk
from quasikit import sequences as S
from quasikit.sequences import _EQ_RTOL, TOL_CONVEX


def exact_hull_vertices(logs):
    """Monotone chain over (n, logs[n]); a middle point stays only strictly
    below the chord of its neighbours, decided in Fraction."""
    ys = [Fraction(v) for v in logs]
    stack = []
    for n, y in enumerate(ys):
        while len(stack) >= 2:
            i, j = stack[-2], stack[-1]
            if (j - i) * (y - ys[i]) - (n - i) * (ys[j] - ys[i]) > 0:
                break
            stack.pop()
        stack.append(n)
    return stack


def regularize_reference(logs):
    vertices = exact_hull_vertices(logs)
    hull = list(logs)
    for a, b in zip(vertices, vertices[1:]):
        ya, yb = logs[a], logs[b]
        slope = (yb - ya) / (b - a)
        for n in range(a + 1, b):
            hull[n] = ya + slope * (n - a)
    scale = max(1.0, max(abs(v) for v in logs))
    tol = _EQ_RTOL * scale
    principal = tuple(n for n in range(len(logs)) if hull[n] >= logs[n] - tol)
    return hull, principal


def beta_reference(logs):
    out = [0.0] * (len(logs) - 1)
    running = math.inf
    for k in range(len(logs) - 1, 0, -1):
        running = min(running, logs[k] / k)
        out[k - 1] = running
    return out


def is_log_convex_reference(logs, tol=TOL_CONVEX):
    slack = tol * max(1.0, max(abs(v) for v in logs))
    return all(
        2.0 * logs[n] <= logs[n - 1] + logs[n + 1] + slack for n in range(1, len(logs) - 1)
    )


def liminf_reference(logs, cap=qk.qa.LIMINF_CAP):
    half = len(logs) // 2
    return min(logs[n] / n for n in range(half, len(logs))) < cap


def carleman_lhs_reference(values):
    lhs = 0.0
    log_prod = 0.0
    for k, v in enumerate(values, start=1):
        log_prod += math.log(v)
        lhs += math.exp(log_prod / k)
    return lhs


def same_bits(array, values):
    return array.dtype == np.float64 and array.tobytes() == np.array(values).tobytes()


def assert_matches_references(logs):
    logs = [0.0, *logs[1:]]
    seq = qk.LogSequence(logs=logs)
    hull, principal = regularize_reference(logs)
    reg = qk.convex_regularize(seq)
    assert same_bits(reg.logs_c, hull)
    assert reg.principal.tolist() == list(principal)
    assert reg.principal.dtype == np.int64 and not reg.principal.flags.writeable
    assert same_bits(qk.beta_sequence(seq), beta_reference(logs))
    if len(logs) >= 3:
        for tol in (TOL_CONVEX, 0.0):
            assert qk.is_log_convex(seq, tol=tol) is is_log_convex_reference(logs, tol)
    if len(logs) >= 8:
        for cap in (qk.qa.LIMINF_CAP, 0.0, float(np.median(logs))):
            assert qk.liminf_check(seq, cap=cap) is liminf_reference(logs, cap)


finite = st.floats(min_value=-1e3, max_value=1e3)


@given(st.lists(finite, min_size=2, max_size=60))
@settings(max_examples=300, deadline=None)
def test_random_sequences_match_references(logs):
    assert_matches_references(logs)


@given(st.lists(st.integers(-30, 30).map(float), min_size=2, max_size=60))
@settings(max_examples=300, deadline=None)
def test_integer_valued_sequences_match_references(logs):
    # integer values make exact ties, collinear runs and repeated zeros common
    assert_matches_references(logs)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.lists(st.integers(-3, 3), min_size=2, max_size=60),
    st.sampled_from([1e-15, 1e-13, 1e-12, 1e-9]),
)
@settings(max_examples=300, deadline=None)
def test_near_collinear_sequences_match_references(slope, curve, jitter, eps):
    # a line or a faint parabola with perturbations around the principal tolerance
    logs = [
        slope * n + curve * n * n + j * eps * (1 + abs(slope) * n) for n, j in enumerate(jitter)
    ]
    assert_matches_references(logs)


def test_signed_zeros_match_references():
    assert_matches_references([0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0])
    assert_matches_references([0.0, 3.0, 0.0, -0.0, 5.0, 0.0, -0.0, 1.0, -1.0, 0.0])


def test_catalog_sequences_match_references(catalog_2000):
    for seq in catalog_2000.values():
        assert_matches_references(seq.logs.tolist())


def test_global_principal_tolerance_is_pinned():
    # index 1 sits 1e-6 above the hull, but the principal rule compares
    # against 1e-12 * max|L| = 2e-5, so it counts as principal
    logs = [0.0, 1e-6] + [0.0] * 97 + [2e7]
    assert_matches_references(logs)
    reg = qk.convex_regularize(qk.LogSequence(logs=logs))
    assert 1 in reg.principal
    assert reg.logs_c[1] == 0.0


# a float orientation scan drops index 2, whose exact cross product with its
# neighbours 1 and 4 is +2**-49, and fills logs_c[2] one ulp above logs[2]
MISSED_VERTEX = [0.0, 6.499999999985, 12.999999999972, 19.5, 25.999999999946]


def test_a_vertex_the_float_scan_missed_is_kept():
    logs = MISSED_VERTEX
    y = [Fraction(v) for v in logs]
    assert (2 - 1) * (y[4] - y[1]) - (4 - 1) * (y[2] - y[1]) == Fraction(2) ** -49
    assert S._lower_hull_vertices(logs).tolist() == [0, 1, 2, 4]
    reg = qk.convex_regularize(qk.LogSequence(logs=logs))
    assert reg.logs_c[2] == logs[2]
    assert np.all(reg.logs_c <= np.array(logs))
    assert_matches_references(logs)


@pytest.mark.parametrize("passes", [0, 1, S._PRUNE_PASSES])
def test_hull_takes_the_exact_branch(monkeypatch, passes):
    # the pruning passes (and with no passes, the monotone chain) cannot
    # tell index 2's orientation from the float cross product
    exact = []
    decide = S._exactly_below
    monkeypatch.setattr(S, "_PRUNE_PASSES", passes)
    monkeypatch.setattr(S, "_exactly_below", lambda *a: exact.append(a[1:]) or decide(*a))
    assert S._lower_hull_vertices(MISSED_VERTEX).tolist() == [0, 1, 2, 4]
    assert (1, 2, 4) in exact


def test_pass_cap_hands_the_survivors_to_the_monotone_chain(monkeypatch):
    # each pass drops only the point next to the low last one: uncapped this
    # takes N - 2 passes (13.7 s at N = 3e4 against 0.03 s for the scan).
    # The chain then pushes the M = N - 16 survivors and pops all but the
    # first for the last one: 2 M - 5 decisions.
    n = np.arange(30000, dtype=float)
    logs = n * np.log(np.maximum(n, 1.0))
    logs[-1] = -1e9
    calls = {"array": 0, "float": 0}
    cross = S._cross

    def counted(ys, *args):
        calls["array" if isinstance(ys, np.ndarray) else "float"] += 1
        return cross(ys, *args)

    monkeypatch.setattr(S, "_cross", counted)
    assert S._lower_hull_vertices(logs).tolist() == [0, n.size - 1]
    assert calls["array"] == S._PRUNE_PASSES
    assert calls["float"] == 2 * (n.size - S._PRUNE_PASSES) - 5


@given(st.sampled_from([0.5, 0.1, 1 / 3]), st.sampled_from([0.0, 1e-13, 1e-3]),
       st.lists(st.integers(-4, 4), min_size=2, max_size=40),
       st.sampled_from([1.0, 1e-9, 3e-16]), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_vertex_set_does_not_depend_on_the_pass_cap(slope, curve, offsets, eps, passes):
    # ties, collinear runs and near-ties within the float cross product's error
    logs = [slope * n + curve * n * n + k * eps for n, k in enumerate(offsets)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_PRUNE_PASSES", passes)
        assert S._lower_hull_vertices(logs).tolist() == exact_hull_vertices(logs)


def test_fractions_load_only_for_an_uncertain_sign():
    code = (
        "import sys, quasikit as qk\n"
        "for family in ('factorial', 'power_nn', 'denjoy1', 'denjoy2'):\n"
        "    spec = qk.SequenceSpec(family=family, horizon=3000, params={'C': 1.0})\n"
        "    qk.analyze(qk.make_sequence(spec))\n"
        "print('fractions' in sys.modules)\n"
        f"qk.convex_regularize(qk.LogSequence(logs={MISSED_VERTEX!r}))\n"
        "print('fractions' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                         text=True)
    assert (res.stdout, res.stderr) == ("False\nTrue\n", "")


@given(st.lists(st.floats(min_value=1e-8, max_value=1e8), min_size=1, max_size=200))
@settings(max_examples=200, deadline=None)
def test_carleman_inequality_matches_reference(a):
    # numpy sums pairwise and its log may differ in the last ulp, so the left
    # side is compared within 1e-12 relative (about 50 ulps of float64)
    check = qk.carleman_inequality_check(a)
    assert check.lhs == pytest.approx(carleman_lhs_reference(a), rel=1e-12)
    assert check.rhs == math.e * math.fsum(a)


class TestReadOnlyArrays:
    @pytest.fixture(scope="class")
    def objects(self, catalog_2000):
        seq = catalog_2000["denjoy2"]
        reg = qk.convex_regularize(seq)
        report = qk.analyze(seq)
        return seq, reg, report

    def test_fields_are_read_only_float64(self, objects):
        seq, reg, report = objects
        fields = [seq.logs, reg.logs_c, report.beta]
        for series in (report.carleman, report.root_c, report.ratio_c):
            fields += [series.terms, series.partial_sums]
        for array in fields:
            assert isinstance(array, np.ndarray) and array.dtype == np.float64
            assert array.ndim == 1
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_index_sets_are_an_int64_array_and_an_int_tuple(self, objects):
        seq, reg, _ = objects
        assert isinstance(reg.principal, np.ndarray) and reg.principal.dtype == np.int64
        assert reg.principal.ndim == 1
        with pytest.raises(ValueError):
            reg.principal[0] = 1
        assert isinstance(seq.filled, tuple)
        assert all(type(n) is int for n in seq.filled)
        assert seq.filled == (0, 1, 2)

    def test_inputs_are_copied(self):
        logs = np.array([0.0, 1.0, 3.0])
        seq = qk.LogSequence(logs=logs)
        logs[1] = 7.0
        assert seq.logs[1] == 1.0 and logs.flags.writeable

    def test_equality_never_raises(self, objects):
        seq, reg, report = objects
        for obj in (seq, reg, report, report.carleman):
            assert obj == obj
            assert obj != object()
        a = qk.SequenceSpec(family="explicit", logs=[0.0, 1.0, 2.0])
        assert a == qk.SequenceSpec.from_json({"family": "explicit", "logs": [0, 1, 2]})
        assert a != qk.SequenceSpec(family="explicit", logs=[0.0, 1.0, 2.5])
        assert a != qk.SequenceSpec(family="factorial", horizon=3)

    @pytest.mark.parametrize(
        "logs", [[0.0, "a", 1.0], [[0.0, 1.0], [2.0, 3.0]], [[0.0], [1.0, 2.0]], 5, [0.0, math.nan]]
    )
    def test_malformed_logs_rejected(self, logs):
        with pytest.raises(qk.ValidationError):
            qk.LogSequence(logs=logs)
        with pytest.raises(qk.ValidationError):
            qk.SequenceSpec(family="explicit", logs=logs)
