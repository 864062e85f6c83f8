import math

import numpy as np
import pytest
from hypothesis import settings

import quasikit as qk

# property sweeps must reproduce bit-for-bit across runs
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


# ---------------------------------------------------------------------------
# catalog function specs used across the suite; a tree is written as its JSON
# dict (README, "Expression tree JSON")

X = {"op": "x"}
ONE = {"op": "const", "value": 1.0}
ONE_PLUS_X = {"op": "add", "left": ONE, "right": X}
EXP, SIN = {"op": "exp", "arg": X}, {"op": "sin", "arg": X}
CUBE = {"op": "pow", "arg": X, "num": 3}


def exp_spec(domain=(0.0, 1.0)):
    return qk.FunctionSpec(EXP, domain)


def sin_spec(domain=(0.0, 1.0)):
    return qk.FunctionSpec(SIN, domain)


def cos_spec(domain=(0.0, 1.0)):
    return qk.FunctionSpec({"op": "cos", "arg": X}, domain)


def rational_spec(domain=(0.0, 1.0)):
    # 1 / (1 - x/2)
    half_x = {"op": "mul", "left": {"op": "const", "value": 0.5}, "right": X}
    denom = {"op": "sub", "left": ONE, "right": half_x}
    return qk.FunctionSpec({"op": "div", "left": ONE, "right": denom}, domain)


def flat_spec(domain=(0.1, 2.0)):
    # exp(-1/x), the classical flat-at-zero function
    inv = {"op": "div", "left": ONE, "right": X}
    return qk.FunctionSpec({"op": "exp", "arg": {"op": "neg", "arg": inv}}, domain)


def ones_sequence(n):
    return qk.LogSequence(logs=(0.0,) * n, generator="explicit")


def random_logsequence(rng, n, high=20.0):
    logs = rng.uniform(0.0, high, n)
    logs[0] = 0.0
    return qk.LogSequence(logs=tuple(float(v) for v in logs))


def random_logconvex(rng, n, lo=-2.0, hi=2.0):
    """Random log-convex sequence: cumulative sums of sorted increments."""
    increments = np.sort(rng.uniform(lo, hi, n - 1))
    logs = np.concatenate([[0.0], np.cumsum(increments)])
    return qk.LogSequence(logs=tuple(float(v) for v in logs))


# ---------------------------------------------------------------------------
# session-cached heavy inputs

@pytest.fixture(scope="session")
def catalog_2000():
    specs = {
        "factorial": qk.SequenceSpec(family="factorial", horizon=2000),
        "power_nn": qk.SequenceSpec(family="power_nn", horizon=2000),
        "denjoy1": qk.SequenceSpec(family="denjoy1", horizon=2000, params={"C": 1.0}),
        "denjoy2": qk.SequenceSpec(family="denjoy2", horizon=2000, params={"C": 1.0}),
        "gevrey2": qk.SequenceSpec(family="gevrey", horizon=2000, params={"s": 2.0}),
    }
    return {name: qk.make_sequence(spec) for name, spec in specs.items()}


@pytest.fixture(scope="session")
def catalog_reports(catalog_2000):
    return {name: qk.analyze(seq) for name, seq in catalog_2000.items()}


@pytest.fixture(scope="session")
def factorial_40():
    return qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=40))


@pytest.fixture(scope="session")
def reg_factorial_40(factorial_40):
    return qk.convex_regularize(factorial_40)


@pytest.fixture(scope="session")
def reg_ones_40():
    return qk.convex_regularize(ones_sequence(40))
