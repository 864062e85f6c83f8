import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasikit as qk
from quasikit.constants import SIGMA_DIV
from quasikit.qa import CHAIN_RTOL, chain_holds
from quasikit.series import CONVERGING, DIVERGING, INCONCLUSIVE, diagnose_series

from conftest import ones_sequence, random_logsequence


def beta_bruteforce(seq):
    logs = seq.logs
    return [
        min(logs[k] / k for k in range(n, seq.length)) for n in range(1, seq.length)
    ]


class TestBeta:
    def test_factorial_suffix_min_is_first(self, factorial_40):
        beta = qk.beta_sequence(factorial_40)
        expected = [math.lgamma(n + 1) / n for n in range(1, 40)]
        assert np.allclose(beta, expected, atol=1e-12)

    def test_constant(self):
        beta = qk.beta_sequence(ones_sequence(10))
        assert np.allclose(beta, 0.0)

    def test_small_example(self):
        beta = qk.beta_sequence(qk.LogSequence(logs=(0.0, 3.0, 1.0, 4.0)))
        assert beta[0] == pytest.approx(0.5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            seq = random_logsequence(rng, int(rng.integers(2, 201)))
            assert np.allclose(
                qk.beta_sequence(seq), beta_bruteforce(seq), atol=1e-12
            )


class TestSeriesReports:
    def test_partial_sums_match_terms(self):
        rng = np.random.default_rng(5)
        terms = rng.uniform(0, 3, 500)
        rep = diagnose_series(terms)
        sums = rep.partial_sums
        assert np.all(np.diff(sums) >= -1e-15)
        recomputed = np.cumsum(rep.terms)
        assert np.allclose(sums, recomputed, rtol=1e-12)

    def test_constant_terms_diverge(self):
        rep = diagnose_series([1.0] * 100)
        assert rep.verdict == DIVERGING

    def test_partial_sums_past_the_float_range_are_rejected(self):
        # each term is finite, the second partial sum is not
        with pytest.raises(qk.ValidationError, match=r"partial_sums\[1\] .* float range"):
            diagnose_series([1e308, 1e308, 1e308])

    @pytest.mark.parametrize("k", [0, 900, 1017])
    def test_slope_scales_exactly_with_the_terms(self, k):
        # at 2^1017 the last quartile's partial sums reach 1.4e308, and their
        # sum for the fit would overflow unscaled
        terms = np.linspace(1.0, 1.5, 100)
        scaled = diagnose_series(terms * 2.0**k)
        assert scaled.slope_estimate == diagnose_series(terms).slope_estimate * 2.0**k
        assert math.isfinite(scaled.partial_sums[-1])

    def test_catalog_verdicts(self, catalog_reports):
        for name in ("factorial", "power_nn", "denjoy1", "denjoy2"):
            assert catalog_reports[name].verdicts() == (DIVERGING,) * 3, name
        assert catalog_reports["gevrey2"].verdicts() == (CONVERGING,) * 3

    def test_factorial_carleman_terms(self, catalog_2000):
        rep = qk.carleman_series(catalog_2000["factorial"])
        # beta_n = (n!)^{1/n}, so the terms are (n!)^{-1/n} ~ e/n
        assert rep.terms[0] == pytest.approx(1.0)
        assert rep.terms[999] == pytest.approx(
            math.exp(-math.lgamma(1001) / 1000), rel=1e-12
        )

    def test_root_series_equals_carleman_for_log_convex(self, catalog_2000):
        seq = catalog_2000["factorial"]
        reg = qk.convex_regularize(seq)
        a = qk.carleman_series(seq)
        b = qk.root_series(reg)
        assert np.allclose(a.terms, b.terms, rtol=1e-12)

    def test_ratio_series_closed_forms(self, catalog_2000):
        reg_f = qk.convex_regularize(catalog_2000["factorial"])
        terms = qk.ratio_series(reg_f).terms
        n = np.arange(1, 2000)
        assert np.allclose(terms, 1.0 / n, rtol=1e-9)
        reg_g = qk.convex_regularize(catalog_2000["gevrey2"])
        terms = qk.ratio_series(reg_g).terms
        assert np.allclose(terms, 1.0 / n**2, rtol=1e-9)

    def test_constant_sequence_reports(self):
        seq = ones_sequence(64)
        reg = qk.convex_regularize(seq)
        for rep in (qk.carleman_series(seq), qk.root_series(reg), qk.ratio_series(reg)):
            assert np.allclose(rep.terms, 1.0)
            assert rep.verdict == DIVERGING


class TestCarlemanInequality:
    def test_all_ones(self):
        res = qk.carleman_inequality_check([1.0, 1.0, 1.0, 1.0])
        assert res.lhs == pytest.approx(4.0)
        assert res.rhs == pytest.approx(4 * math.e)
        assert res.ok

    def test_hand_computed(self):
        res = qk.carleman_inequality_check([4.0, 1.0])
        assert res.lhs == pytest.approx(6.0)
        assert res.rhs == pytest.approx(5 * math.e)
        assert res.ok

    def test_rejects_nonpositive(self):
        with pytest.raises(qk.ValidationError):
            qk.carleman_inequality_check([1.0, 0.0])
        with pytest.raises(qk.ValidationError):
            qk.carleman_inequality_check([])

    def test_random_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            a = np.exp(rng.normal(0, 4, n))
            assert qk.carleman_inequality_check(a).ok

    @given(
        st.lists(
            st.floats(min_value=1e-8, max_value=1e8), min_size=1, max_size=64
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_holds_for_any_positive_vector(self, a):
        assert qk.carleman_inequality_check(a).ok

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-300, 1e300, 2.0**1000])
    def test_scaled_copy_keeps_its_verdict(self, scale):
        # both sides are homogeneous of degree 1 in a
        res = qk.carleman_inequality_check([4.0 * scale, 1.0 * scale])
        assert res.ok
        assert res.lhs == pytest.approx(6.0 * scale, rel=1e-12)
        assert res.rhs == pytest.approx(5 * math.e * scale, rel=1e-12)

    def test_sides_past_the_float_range_hold(self):
        # the scaled sums are finite; 2e308 and 2e308 e are not
        res = qk.carleman_inequality_check([1e308, 1e308])
        assert (res.lhs, res.rhs, res.ok) == (math.inf, math.inf, True)

    def test_long_input_no_overflow(self):
        # products of 10^4 factors only survive through the log accumulator
        a = np.full(10_000, 1e200)
        res = qk.carleman_inequality_check(a)
        assert res.ok and math.isfinite(res.lhs)


class TestLiminfFlag:
    def test_constant_and_geometric_flagged(self):
        assert qk.liminf_check(ones_sequence(16))
        two_n = qk.LogSequence(logs=tuple(n * math.log(2) for n in range(16)))
        assert qk.liminf_check(two_n)

    def test_factorial_unflagged_at_informative_cap(self, catalog_2000):
        # (n!)^{1/n} reaches e**50 only near n ~ 1e22, so the default cap
        # cannot separate factorial growth at this horizon; a cap below the
        # observed tail roots (about 6.6 at n = 2000) can
        assert qk.liminf_check(catalog_2000["factorial"], cap=5.0) is False
        assert qk.liminf_check(catalog_2000["factorial"]) is True

    def test_needs_enough_entries(self):
        with pytest.raises(qk.ValidationError):
            qk.liminf_check(ones_sequence(4))


class TestAnalyze:
    def test_catalog_chain_ok(self, catalog_reports):
        for name, report in catalog_reports.items():
            assert report.chain_ok, name

    def test_random_chain_ok(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            seq = random_logsequence(rng, 120)
            report = qk.analyze(seq)
            assert report.chain_ok

    def test_chain_is_termwise_at_any_truncation(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            seq = random_logsequence(rng, int(rng.integers(8, 60)))
            reg = qk.convex_regularize(seq)
            root = qk.root_series(reg).terms
            beta = np.exp(-qk.beta_sequence(seq))
            ratio = qk.ratio_series(reg).terms
            assert np.all(root >= beta * (1 - 1e-12))
            assert np.all(beta >= ratio * (1 - 1e-12))

    def test_report_json_shape(self, catalog_reports):
        doc = catalog_reports["factorial"].to_json()
        assert set(doc) == {"beta", "carleman", "root_c", "ratio_c", "liminf_flag", "chain_ok"}
        assert set(doc["carleman"]) == {"terms", "partial_sums", "verdict", "slope_estimate"}

    def test_beta_is_computed_once(self, monkeypatch):
        calls = []
        real = qk.qa.beta_sequence
        monkeypatch.setattr(qk.qa, "beta_sequence", lambda seq: calls.append(seq) or real(seq))
        seq = random_logsequence(np.random.default_rng(35), 200)
        report = qk.analyze(seq)
        assert len(calls) == 1
        # the shared beta gives the Carleman series carleman_series computes
        alone = qk.carleman_series(seq)
        shared, own = report.carleman.to_json(), alone.to_json()
        assert shared.keys() == own.keys()
        for key, value in shared.items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == own[key].tobytes()
            else:
                assert value == own[key]

    def test_chain_helper_detects_violation(self):
        good = diagnose_series([1.0, 1.0])
        bad = diagnose_series([10.0, 10.0])
        assert not chain_holds(good, bad, good)

    @pytest.mark.parametrize("k", [900, 1015])
    def test_chain_is_decided_on_large_sums(self, k):
        good = diagnose_series([2.0**k, 2.0**k])
        bad = diagnose_series([10 * 2.0**k, 10 * 2.0**k])
        assert chain_holds(good, good, good) and not chain_holds(good, bad, good)

    def test_chain_sums_past_the_rounded_partial_sums(self):
        # each partial sum rounds to float max, the exact sum of the terms
        # passes it by more than half an ulp
        big = diagnose_series([sys.float_info.max, 0.6 * 2.0**970, 0.6 * 2.0**970])
        assert big.partial_sums[-1] == sys.float_info.max
        assert chain_holds(big, big, big)


def _noisy_vector(n=400):
    # n log n plus noise: not log-convex, so the hull fills between vertices
    rng = np.random.default_rng(37)
    k = np.arange(n, dtype=float)
    logs = k * np.log(np.maximum(k, 1.0)) + rng.uniform(0.0, 3.0, n)
    logs[0] = 0.0
    return qk.LogSequence(logs=logs)


@pytest.mark.parametrize("name, shared", [("factorial", True), ("gevrey2", True),
                                          ("denjoy2", False), ("noisy", False)])
def test_analyze_shares_the_carleman_report_where_the_root_series_equals_it(
        monkeypatch, catalog_2000, name, shared):
    # denjoy2 is not log-convex at its padded start, the noisy vector nowhere
    seq = _noisy_vector() if name == "noisy" else catalog_2000[name]
    calls = []
    real = qk.qa.root_series
    monkeypatch.setattr(qk.qa, "root_series", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    report = qk.analyze(seq)
    assert len(calls) == 1
    assert (report.root_c is report.carleman) is shared
    alone = real(qk.convex_regularize(seq))
    for key in ("terms", "partial_sums"):
        assert getattr(report.root_c, key).tobytes() == getattr(alone, key).tobytes()
    assert report.root_c.verdict == alone.verdict
    assert report.root_c.slope_estimate.hex() == alone.slope_estimate.hex()


def test_analyze_needs_enough_entries():
    with pytest.raises(qk.ValidationError):
        qk.analyze(ones_sequence(6))


@pytest.mark.parametrize("check", [qk.analyze, qk.liminf_check])
def test_eight_entries_are_enough_and_seven_are_not(check):
    check(ones_sequence(8))
    with pytest.raises(qk.ValidationError, match="needs at least 8 entries"):
        check(ones_sequence(7))


# ---------------------------------------------------------------------------
# the verdicts against the Denjoy-Carleman answer: a class is quasianalytic
# exactly when sum M_{n-1}/M_n diverges

LETTERS = {DIVERGING: "d", INCONCLUSIVE: "i", CONVERGING: "c"}
# gevrey s > 1 is not quasianalytic; letters are the carleman, root_c and
# ratio_c verdicts
GEVREY_VERDICTS = [(2, 64, "ddd"), (2, 256, "ddi"), (2, 1000, "iic"), (2, 3000, "ccc"),
                   (3, 16, "ddi"), (3, 64, "iii"), (1.1, 1000, "ddd"), (1.5, 30_000, "ddc")]


@pytest.mark.parametrize("s, horizon, letters", GEVREY_VERDICTS)
def test_converging_gevrey_series_read_diverging_below_n_star(s, horizon, letters):
    report = qk.analyze(qk.make_sequence(qk.SequenceSpec("gevrey", horizon, {"s": s})))
    assert "".join(LETTERS[v] for v in report.verdicts()) == letters
    # for terms c n^-s the slope of the partial sums against log N is about
    # c N^(1-s), so a series reads diverging_trend below
    # N* = (c / sigma_div)^(1/(s-1)); c is about e^s for the Carleman and
    # root series and 1 for the ratio series
    stars = [(c / SIGMA_DIV) ** (1 / (s - 1)) for c in (math.e**s, math.e**s, 1.0)]
    assert [v == "d" for v in letters] == [horizon < star for star in stars]


# ---------------------------------------------------------------------------
# exact ties: each verdict and chain comparison holds on its own boundary

def test_slope_on_sigma_div_reads_diverging():
    terms = [1.0] * 20
    slope = diagnose_series(terms).slope_estimate
    assert slope > 0.0
    assert diagnose_series(terms, sigma_div=slope).verdict == DIVERGING


def test_last_term_on_eps_conv_share_reads_inconclusive():
    # the last term is exactly eps_conv times the total, which is not below it
    assert diagnose_series([1.0, 1.0], sigma_div=10.0, eps_conv=0.5).verdict == INCONCLUSIVE


@pytest.mark.parametrize("sums", [(1.0 - CHAIN_RTOL, 1.0, 0.5), (1.0, 1.0 - CHAIN_RTOL, 1.0),
                                  (math.e * (1.0 + CHAIN_RTOL), 1.0, 1.0)])
def test_chain_holds_with_sums_on_its_bounds(sums):
    # root, beta and ratio sums; halving is exact, so each two-term sum is
    # the value given and sits exactly on one bound of the chain
    root, beta, ratio = (diagnose_series([v / 2, v / 2]) for v in sums)
    assert [float(rep.partial_sums[-1]) for rep in (root, beta, ratio)] == list(sums)
    assert chain_holds(root, beta, ratio)
