"""The blocked identity sweep against the per-sample loop it replaced.

``_loop_sweep`` is that loop, with the scalar construction it called: every
polynomial rebuilt from its own node list, one sample at a time.  The library
sweep must return an equal report, floats compared with ``==``, across block
boundaries, degrees, coincident nodes and seeds.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasikit import gontcharoff as G
from quasikit.errors import ValidationError

BLOCK = G.SWEEP_BLOCK


def _build(nodes):
    coeffs = [1.0]
    for m in range(1, len(nodes) + 1):
        coeffs = [0.0] + coeffs
        coeffs[0] = -_horner(coeffs, nodes[len(nodes) - m])
    return coeffs


def _horner(coeffs, x):
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        acc = coeffs[i] + acc * x / (i + 1)
    return acc


def _eval(nodes, x):
    return _horner(_build(nodes), x)


def _swap(nodes, k, y, x):
    swapped = list(nodes)
    swapped[k] = y
    lhs = _eval(nodes, x) - _eval(swapped, x)
    return abs(lhs - _eval(nodes[:k], x) * _eval(nodes[k:], y))


def _decomposition(nodes, ys, x):
    total = _eval(ys, x)
    for i in range(len(nodes)):
        total += _eval(ys[:i], x) * _eval(nodes[i:], ys[i])
    return abs(_eval(nodes, x) - total)


def _bound(nodes, x):
    spread = abs(x - nodes[0])
    for j in range(len(nodes) - 1):
        spread += abs(nodes[j] - nodes[j + 1])
    if spread == 0.0:
        return 0.0
    return math.exp(len(nodes) * math.log(spread) - math.lgamma(len(nodes) + 1))


def _loop_sweep(nodes, sweep, seed, tol=1e-10):
    n = len(nodes)
    rng = np.random.default_rng(seed)
    lo, hi = min(nodes), max(nodes)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    max_swap = max_decomp = 0.0
    bound_violations = derivative_violations = 0
    for _ in range(sweep):
        draw = rng.uniform(lo, hi, size=2 * n + 2)
        rand_nodes = [float(v) for v in draw[:n]]
        ys = [float(v) for v in draw[n : 2 * n]]
        x, y = float(draw[2 * n]), float(draw[2 * n + 1])
        k = int(rng.integers(0, n))
        coeffs = _build(rand_nodes)
        scale = max(1.0, _horner([abs(c) for c in coeffs], abs(x)))
        max_swap = max(max_swap, _swap(rand_nodes, k, y, x) / scale)
        max_decomp = max(max_decomp, _decomposition(rand_nodes, ys, x) / scale)
        noise = 1e-13 * scale
        if abs(_horner(coeffs, x)) > _bound(rand_nodes, x) * (1.0 + 1e-9) + noise:
            bound_violations += 1
        shifted = _build(rand_nodes[1:])
        diff = max(abs(a - b) for a, b in zip(coeffs[1:], shifted))
        if diff > 1e-12 * max(1.0, max(abs(c) for c in shifted)):
            derivative_violations += 1
    return {
        "sweep": sweep,
        "max_swap_residual_rel": max_swap,
        "max_decomposition_residual_rel": max_decomp,
        "bound_violations": bound_violations,
        "derivative_violations": derivative_violations,
        "ok": max_swap <= tol
        and max_decomp <= tol
        and bound_violations == 0
        and derivative_violations == 0,
    }


def _nodes(n, seed=2024, width=1.0):
    return np.random.default_rng(seed).uniform(-width, width, n).tolist()


# 255, 256 and 257 straddle the earlier 256-sample block; they stay as
# sample counts inside one block.
@pytest.mark.parametrize(
    "sweep", sorted({1, 255, 256, 257, BLOCK - 1, BLOCK, BLOCK + 1, 2000})
)
def test_block_boundaries_match_loop(sweep):
    nodes = _nodes(12)
    assert G.identity_sweep(nodes, sweep, 5) == _loop_sweep(nodes, sweep, 5)


NODE_SETS = {
    "n1": [0.3],
    "n2": [-0.7, 0.4],
    "n12": _nodes(12),
    "n12-wide": _nodes(12, seed=3, width=5.0),
    "coincident": [0.5, 0.5, 0.5, 0.5],
    "coincident-n1": [2.0],
}


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("name", sorted(NODE_SETS))
def test_node_sets_match_loop(name, seed):
    nodes = NODE_SETS[name]
    assert G.identity_sweep(nodes, BLOCK + 1, seed) == _loop_sweep(nodes, BLOCK + 1, seed)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_degree_cap_matches_loop(seed):
    nodes = _nodes(G.DEGREE_CAP)
    assert G.identity_sweep(nodes, 40, seed) == _loop_sweep(nodes, 40, seed)


def test_tolerance_decides_ok():
    nodes = _nodes(12)
    report = G.identity_sweep(nodes, 300, 1, tolerance=1e-17)
    assert report == _loop_sweep(nodes, 300, 1, tol=1e-17)
    assert report["ok"] is False


def test_swap_residual_alone_decides_ok(monkeypatch):
    # a swap residual raised by 1 in both sweeps fails the report with every
    # other check passing
    swap_residual, swap = G._swap_residual, _swap
    monkeypatch.setattr(G, "_swap_residual", lambda *a: swap_residual(*a) + 1.0)
    monkeypatch.setitem(globals(), "_swap", lambda *a: swap(*a) + 1.0)
    nodes = [0.0, 0.25, 0.5]
    report = G.identity_sweep(nodes, 50, 3)
    assert report == _loop_sweep(nodes, 50, 3)
    assert report["max_swap_residual_rel"] > 1e-10
    assert report["max_decomposition_residual_rel"] <= 1e-10
    assert report["bound_violations"] == 0 and report["ok"] is False


def test_bound_violations_are_counted(monkeypatch):
    # a zero bound in both sweeps is exceeded by every sample whose value is
    # not ~0
    monkeypatch.setattr(G, "_power_over_factorial", lambda spread, n: 0.0)
    monkeypatch.setitem(globals(), "_bound", lambda nodes, x: 0.0)
    nodes = [0.0, 0.25, 0.5]
    report = G.identity_sweep(nodes, 50, 3)
    assert report == _loop_sweep(nodes, 50, 3)
    assert report["bound_violations"] > 0 and report["ok"] is False
    assert max(report["max_swap_residual_rel"], report["max_decomposition_residual_rel"]) <= 1e-10


@pytest.mark.parametrize("sweep", [0, -5, G.SWEEP_MAX + 1])
def test_sweep_size_outside_bounds_rejected(sweep):
    with pytest.raises(ValidationError, match="sweep"):
        G.identity_sweep([0.0, 1.0], sweep, 0)


def test_empty_nodes_rejected():
    with pytest.raises(ValidationError, match="at least one node"):
        G.identity_sweep([], 10, 0)


@pytest.mark.parametrize("nodes", [[1e154, 1e154], [1e103, 1e103, 1e103]])
def test_overflowing_samples_rejected(nodes):
    # build accepts these nodes, but the samples' values leave the float
    # range; the per-sample loop reports ok with every residual NaN
    G.build(nodes)
    assert _loop_sweep(nodes, 20, 0)["ok"] is True
    with pytest.raises(ValidationError, match="float range"):
        G.identity_sweep(nodes, 20, 0)


def test_float_range_error_names_the_first_sample_out_of_range():
    # some samples of these nodes overflow; under seed 19 the first of them
    # is sample 1890, past the first block
    nodes = [0.0, 1e154]
    with pytest.raises(ValidationError, match="float range") as err:
        G.identity_sweep(nodes, 3000, 19)
    first = int(re.search(r"sample (\d+) ", str(err.value)).group(1))
    assert first >= BLOCK
    G.identity_sweep(nodes, first, 19)  # every sample before it stays in range


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=G.DEGREE_CAP))
def test_suffixes_are_chain_states(nodes):
    # why the sweep's derivative count is 0: the first derivative is the
    # index shift, and build of a suffix is a state of the full chain
    full = G.build(nodes)
    assert full.derivative(1).scaled_coeffs.tolist() == G.build(nodes[1:]).scaled_coeffs.tolist()
    assert full.scaled_coeffs.tolist() == _build([float(v) for v in nodes])


@st.composite
def residual_cases(draw):
    n = draw(st.integers(1, G.DEGREE_CAP))
    point = st.floats(-3.0, 3.0)
    nodes = draw(st.lists(point, min_size=n, max_size=n))
    ys = draw(st.lists(point, min_size=n, max_size=n))
    return nodes, ys, draw(st.integers(0, n - 1)), draw(point), draw(point)


@given(residual_cases())
@settings(max_examples=200)
def test_residuals_match_scalar_construction(case):
    # the one-sample wrappers run the block code on a batch of one
    nodes, ys, k, y, x = case
    assert G.swap_identity_residual(nodes, k, y, x) == _swap(nodes, k, y, x)
    assert G.decomposition_residual(nodes, ys, x) == _decomposition(nodes, ys, x)


def test_degree_cap_draws_every_swap_index():
    # a block holds every swapped index at once, and no sort reorders it
    nodes, sweep, seed = _nodes(G.DEGREE_CAP), 300, 11
    n = len(nodes)
    rng = np.random.default_rng(seed)
    ks = set()
    for _ in range(sweep):
        rng.uniform(size=2 * n + 2)
        ks.add(int(rng.integers(0, n)))
    assert ks == set(range(n))
    assert G.identity_sweep(nodes, sweep, seed) == _loop_sweep(nodes, sweep, seed)
