"""Abel-Gontcharoff polynomials: iterated integrals with node-dependent limits.

Q_0 = 1 and Q_n(x; x_0..x_{n-1}) integrates Q_{n-1}(.; x_1..x_{n-1}) from
x_0, so dQ_n/dx drops the first node and Q_n vanishes at x_0.  Polynomials
are stored in the scaled monomial basis x^i / i!, which keeps coefficients
O(1) up to the degree cap; plain monomial coefficients would grow
factorially.  The construction runs the antidifferentiate-and-anchor
recurrence; the defining iterated integral stays available as an independent
quadrature oracle for cross-checking.

The recurrence and Horner evaluation take each node as a Python float or as
a float64 column over a block of samples.  numpy's float64 ``+``, ``*`` and
``/`` round each element as Python floats do, so a sample's column gives the
scalar result bit for bit; the identity sweep relies on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, _fields_json, _frozen, bounded_float, bounded_int
from . import jets, series

DEGREE_CAP = 30

# Samples per block of the identity sweep: enough to spread numpy's per-call
# cost thin, few enough to keep the block's arrays small (a traced peak of
# 0.9 MB at 12 nodes and 2.1 MB at the degree cap).
SWEEP_BLOCK = 1024

# Largest sample count of the identity sweep.
SWEEP_MAX = 2**20


@dataclass(frozen=True, eq=False)
class GontcharoffPoly:
    """Degree-n polynomial in the scaled basis, with its node list; both are
    read-only float64 arrays.

    ``scaled_coeffs[i]`` multiplies x^i / i!; the leading coefficient is 1.
    The basis is anchored at 0, so absolute evaluation error grows like
    eps * max_i |c_i| |x|^i / i!.  The construction is translation
    equivariant; for node clusters far from the origin, shift the frame
    first and evaluate near 0.  ``eval_magnitude`` exposes the cancellation
    headroom for residual tolerances.
    """

    degree: int
    nodes: np.ndarray
    scaled_coeffs: np.ndarray

    def eval(self, x: float) -> float:
        """Horner evaluation in the scaled basis; exact for degree 0."""
        return _horner_scaled(self.scaled_coeffs.tolist(), bounded_float(x, "x"))

    def eval_magnitude(self, x: float) -> float:
        """sum_i |c_i| |x|^i / i!: the scale against which cancellation in
        eval() should be judged."""
        return _horner_scaled(np.abs(self.scaled_coeffs).tolist(), abs(x))

    def derivative(self, k: int) -> "GontcharoffPoly":
        """k-th derivative: an index shift dropping the first k nodes."""
        k = bounded_int(k, "derivative order", 0, self.degree)
        return GontcharoffPoly(
            degree=self.degree - k,
            nodes=self.nodes[k:],
            scaled_coeffs=self.scaled_coeffs[k:],
        )

    to_json = _fields_json


def _horner_scaled(coeffs: Sequence, x):
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        acc = coeffs[i] + acc * x / (i + 1)
    return acc


def _anchor_chain(nodes: Sequence) -> list[list]:
    """Run antidifferentiate-and-anchor over ``nodes``, last node first.

    Each step shifts the scaled coefficients up one slot (antiderivative)
    and fixes the constant term so the value at the newly prepended node
    vanishes.  Entry j of the result holds the coefficients after j steps,
    Q_j(.; nodes[n-j:]), so one chain holds every suffix polynomial of the
    node list.
    """
    states = [[1.0]]
    for anchor in reversed(nodes):
        coeffs = [0.0] + states[-1]
        coeffs[0] = -_horner_scaled(coeffs, anchor)
        states.append(coeffs)
    return states


def _node_list(nodes: Sequence[float], name: str = "nodes") -> np.ndarray:
    """``nodes`` read by ``errors._frozen``, at most DEGREE_CAP of them."""
    arr = _frozen(nodes, name)
    if arr.size > DEGREE_CAP:
        raise ValidationError(
            f"degree {arr.size} exceeds the cap {DEGREE_CAP}; scaled coefficients "
            "would leave the well-conditioned range"
        )
    return arr


def build(nodes: Sequence[float]) -> GontcharoffPoly:
    """Construct Q_n for the given nodes by antidifferentiate-and-anchor.

    Rejects nodes whose scaled coefficients leave the float range.
    """
    node_arr = _node_list(nodes)
    coeffs = np.array(_anchor_chain(node_arr.tolist())[-1])
    if not np.isfinite(coeffs).all():
        raise ValidationError(
            "the scaled coefficients overflow the float range; the nodes are too large"
        )
    coeffs.flags.writeable = False
    return GontcharoffPoly(degree=node_arr.size, nodes=node_arr, scaled_coeffs=coeffs)


# ---------------------------------------------------------------------------
# independent quadrature oracle for the defining iterated integral

def integral_oracle(nodes: Sequence[float], x: float) -> float:
    """Evaluate the defining iterated integral by nested Simpson quadrature.

    Independent of build().  Limited to 4 nodes, so each level's integrand
    Q_{n-1} has degree <= 3 and one Simpson panel is exact up to rounding.
    """
    node_list = _frozen(nodes, "nodes").tolist()
    if len(node_list) > 4:
        raise ValidationError("integral oracle is limited to 4 nodes")
    return _oracle_level(node_list, bounded_float(x, "x"))


def _oracle_level(nodes: list[float], x: float) -> float:
    if not nodes:
        return 1.0
    lower, rest = nodes[0], nodes[1:]
    if x == lower:
        return 0.0
    ends = _oracle_level(rest, lower) + _oracle_level(rest, x)
    return (x - lower) * (ends + 4.0 * _oracle_level(rest, 0.5 * (lower + x))) / 6.0


# ---------------------------------------------------------------------------
# node-swap and decomposition identities

def swap_identity_residual(
    nodes: Sequence[float], k: int, y: float, x: float
) -> float:
    """Residual of the single-node swap identity

        Q_n(x; nodes) - Q_n(x; nodes with x_k := y)
            = Q_k(x; x_0..x_{k-1}) * Q_{n-k}(y; x_k..x_{n-1}).
    """
    node_list = _node_list(nodes).tolist()
    k = bounded_int(k, "k", 0, len(node_list) - 1)
    y, x = bounded_float(y, "y"), bounded_float(x, "x")
    with np.errstate(over="ignore", invalid="ignore"):  # silent inf/NaN, as in Python floats
        return float(_swap_residual(node_list, k, y, x, _anchor_chain(node_list)))


def _swap_residual(nodes: list, k, y, x, states):
    """The swap residual from the chain of ``nodes``, whose entry j holds
    Q_j(.; nodes[n-j:]); ``k`` is an index, or an index per column.  Each
    column of the swapped chain runs the float operations of its own
    sample's chain."""
    n = len(nodes)
    swapped = _anchor_chain([np.where(k == p, y, v) for p, v in enumerate(nodes)])[-1]
    lhs = _horner_scaled(states[n], x) - _horner_scaled(swapped, x)
    # np.choose takes at most 32 choices under numpy 1.x; n <= DEGREE_CAP fits
    rhs = np.choose(k, _prefix_values(nodes, x)) * np.choose(
        k, [_horner_scaled(states[n - j], y) for j in range(n)]
    )
    return abs(lhs - rhs)


def _prefix_values(nodes: list, x) -> list:
    """Q_i(x; nodes[:i]) for i < n, each from its own chain."""
    return [_horner_scaled(_anchor_chain(nodes[:i])[-1], x) for i in range(len(nodes))]


def decomposition_residual(
    nodes: Sequence[float], ys: Sequence[float], x: float
) -> float:
    """Residual of the full node-replacement decomposition

        Q_n(x; nodes) = Q_n(x; ys)
            + sum_i Q_i(x; y_0..y_{i-1}) * Q_{n-i}(y_i; x_i..x_{n-1}).

    With ys = 0 this is the standard form of the polynomial.
    """
    node_list = _node_list(nodes).tolist()
    y_list = _node_list(ys, "ys").tolist()
    if len(y_list) != len(node_list):
        raise ValidationError("ys must have the same length as nodes")
    return _decomposition_residual(y_list, bounded_float(x, "x"), _anchor_chain(node_list))


def _decomposition_residual(ys: list, x, states: list):
    """The decomposition residual from the chain of the nodes."""
    n = len(ys)
    total = _horner_scaled(_anchor_chain(ys)[-1], x)
    for i, prefix in enumerate(_prefix_values(ys, x)):
        total = total + prefix * _horner_scaled(states[n - i], ys[i])
    return abs(_horner_scaled(states[n], x) - total)


def gontcharoff_bound(nodes: Sequence[float], x: float) -> float:
    """(|x - x_0| + sum_j |x_j - x_{j+1}|)^n / n!, computed via logs;
    math.inf past the float range.

    The node-difference chain runs over consecutive pairs; the property
    sweeps confirm the bound dominates |Q_n| under this reading.
    """
    node_list = _frozen(nodes, "nodes").tolist()
    n = len(node_list)
    if n < 1:
        raise ValidationError("bound needs at least one node")
    spread = np.array([_spread(node_list, bounded_float(x, "x"))])
    return float(_power_over_factorial(spread, n)[0])


def _spread(nodes: list, x):
    spread = abs(x - nodes[0])
    for j in range(len(nodes) - 1):
        spread = spread + abs(nodes[j] - nodes[j + 1])
    return spread


def _power_over_factorial(spread: np.ndarray, n: int) -> np.ndarray:
    """spread^n / n! of each item through its log, math.inf past the float
    range and 0.0 at a zero spread, whose log math.log rejects."""
    zero = spread == 0.0
    logs = series._libm(math.log, np.where(zero, 1.0, spread))
    return np.where(zero, 0.0, series._exp(n * logs - math.lgamma(n + 1)))


def identity_sweep(
    nodes: Sequence[float], sweep: int, seed: int | None, tolerance: float = 1e-10
) -> dict:
    """Randomized check of the swap and decomposition identities and of the
    bound, over ``sweep`` random node sets drawn from the range of ``nodes``.

    Per sample the generator draws 2n + 2 uniforms (nodes, ys, x, y) and
    then the swapped index k.  Samples run in blocks of ``SWEEP_BLOCK``
    columns; every polynomial of a sample comes from the recurrence on its
    columns, so the report equals that of a per-sample loop bit for bit.
    Residuals are judged relative to max(1, sum_i |c_i| |x|^i / i!), the
    cancellation headroom of evaluating Q_n at x.  The derivative identity
    Q_n' = Q_{n-1}(.; x_1..x_{n-1}) holds exactly, since the derivative is an
    index shift and both sides are states of one chain, so
    ``derivative_violations`` is 0.  A sample whose value or residual leaves
    the float range is a ValidationError, not a pass.
    """
    node_list = build(nodes).nodes.tolist()
    n = len(node_list)
    if n < 1:
        raise ValidationError("the identity sweep needs at least one node")
    sweep = bounded_int(sweep, "sweep", 1, SWEEP_MAX)
    tolerance = bounded_float(tolerance, "tolerance")
    if seed is not None:
        seed = bounded_int(seed, "seed", 0, math.inf)
    rng = np.random.default_rng(seed)
    lo, hi = min(node_list), max(node_list)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    max_swap = max_decomp = 0.0
    bound_violations = 0
    for start in range(0, sweep, SWEEP_BLOCK):
        size = min(SWEEP_BLOCK, sweep - start)
        draws = np.empty((size, 2 * n + 2))
        ks = np.empty(size, dtype=np.intp)
        for s in range(size):
            draws[s] = rng.uniform(lo, hi, size=2 * n + 2)
            ks[s] = rng.integers(0, n)
        with np.errstate(over="ignore", invalid="ignore"):
            swap, decomp, value, magnitude, bound = _sweep_block(
                list(np.ascontiguousarray(draws.T)), ks, n
            )
        bad = ~np.isfinite([swap, decomp, value, magnitude]).all(axis=0)
        if bad.any():
            raise ValidationError(
                f"sample {start + int(np.argmax(bad))} of the sweep leaves the float "
                "range; the nodes are too large"
            )
        scale = np.maximum(1.0, magnitude)
        max_swap = max(max_swap, float((swap / scale).max()))
        max_decomp = max(max_decomp, float((decomp / scale).max()))
        bound_violations += int(
            np.count_nonzero(np.abs(value) > bound * (1.0 + 1e-9) + 1e-13 * scale)
        )
    return {
        "sweep": sweep,
        "max_swap_residual_rel": max_swap,
        "max_decomposition_residual_rel": max_decomp,
        "bound_violations": bound_violations,
        "derivative_violations": 0,
        "ok": max_swap <= tolerance and max_decomp <= tolerance and bound_violations == 0,
    }


def _sweep_block(columns: list, ks: np.ndarray, n: int) -> tuple:
    """Swap and decomposition residuals, Q_n(x), sum_i |c_i| |x|^i / i! and
    the bound for a block of samples; ``columns`` holds the nodes, the ys, x
    and y, one column per sample, and ``ks`` the swapped indices."""
    nodes, ys, x, y = columns[:n], columns[n : 2 * n], columns[2 * n], columns[2 * n + 1]
    states = _anchor_chain(nodes)
    poly = states[n]
    swap = _swap_residual(nodes, ks, y, x, states)
    decomp = _decomposition_residual(ys, x, states)
    magnitude = _horner_scaled([abs(c) for c in poly], abs(x))
    bound = _power_over_factorial(_spread(nodes, x), n)
    return swap, decomp, _horner_scaled(poly, x), magnitude, bound


# ---------------------------------------------------------------------------
# expansion of a function over a node sequence

@dataclass(frozen=True)
class AbelExpansion:
    partial: float
    remainder: float
    remainder_bound: float


def abel_expand(
    f: jets.FunctionSpec,
    nodes: Sequence[float],
    n: int,
    x: float,
) -> AbelExpansion:
    """Expand f over the node sequence:

        f(x) ~ sum_{k=0}^n f^{(k)}(x_k) Q_k(x; x_0..x_{k-1}),

    returning the partial sum, the true remainder f(x) - partial, and the
    envelope bound (max of |f^{(n+1)}| over a 256-point grid) * bound(Q_{n+1}).
    The grid max is a lower bound of the true sup, so the remainder contract
    carries a small slack factor.
    """
    node_list, x = _frozen(nodes, "nodes").tolist(), bounded_float(x, "x")
    n = bounded_int(n, "order", 0, min(len(node_list), DEGREE_CAP) - 1)
    grid = jets.domain_grid(f, 256)
    # column k holds the derivatives at node x_k, the last column those at x
    at_nodes = jets._derivative_table(f, node_list[: n + 1] + [x], n).tolist()
    partial = 0.0
    for k in range(n + 1):
        partial += at_nodes[k][k] * build(node_list[:k]).eval(x)
    remainder = at_nodes[0][n + 1] - partial

    sup = float(np.abs(jets._derivative_table(f, grid, n + 1)[n + 1]).max())
    bound = sup * gontcharoff_bound(node_list[: n + 1], x)
    return AbelExpansion(partial=partial, remainder=remainder, remainder_bound=bound)


def cn_membership_bound(
    envelope: jets.EnvelopeReport,
    nbar: Sequence[int],
    a_const: float,
    b_const: float,
) -> bool:
    """Check M_est[n_k] <= B * A^{n_k} * n_k! along the subsequence, in logs.
    Rejects an empty subsequence, which leaves nothing to check."""
    log_a = math.log(bounded_float(a_const, "A", 0, open=True))
    log_b = math.log(bounded_float(b_const, "B", 0, open=True))
    ks = [bounded_int(v, "nbar item", 0, envelope.nmax) for v in nbar]
    if not ks:
        raise ValidationError("nbar is empty; nothing to check")
    if any(j <= i for i, j in zip(ks, ks[1:])):
        raise ValidationError("nbar must be strictly increasing")
    k = np.array(ks, dtype=float)
    log_factorial = series._libm(math.lgamma, k + 1.0)
    return bool((envelope.m_est_log[ks] <= log_b + k * log_a + log_factorial).all())


def null_test_bound(
    q: int,
    ms: int,
    a_const: float,
    b_const: float,
    x: float,
    x_q: float,
    r_q: float,
) -> float:
    """Log of the derivative bound used in the subsequence-class null test:

        B A^q ((ms+q+1)! / (ms+1)!) (A|x - x_q| + A R_q)^{ms+1}.

    Decreases to -inf as ms grows whenever A(|x - x_q| + R_q) < 1.  q and ms
    run to 2^53, past which an integer is not exact as a float.
    """
    q, ms = bounded_int(q, "q", 0, 2**53), bounded_int(ms, "ms", 0, 2**53)
    a_const = bounded_float(a_const, "A", 0, open=True)
    b_const = bounded_float(b_const, "B", 0, open=True)
    x, x_q = bounded_float(x, "x"), bounded_float(x_q, "x_q")
    inner = a_const * (abs(x - x_q) + bounded_float(r_q, "r_q", 0))
    if inner == 0.0:
        return -math.inf
    return (
        math.log(b_const)
        + q * math.log(a_const)
        + math.lgamma(ms + q + 2)
        - math.lgamma(ms + 2)
        + (ms + 1) * math.log(inner)
    )
