"""Abel-Gontcharoff polynomials: iterated integrals with node-dependent limits.

Q_0 = 1 and Q_n(x; x_0..x_{n-1}) integrates Q_{n-1}(.; x_1..x_{n-1}) from
x_0, so dQ_n/dx drops the first node and Q_n vanishes at x_0.  Polynomials
are stored in the scaled monomial basis x^i / i!, which keeps coefficients
O(1) up to the degree cap; plain monomial coefficients would grow
factorially.  The construction runs the antidifferentiate-and-anchor
recurrence; the defining iterated integral stays available as an independent
quadrature oracle for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError, ValidationError
from .jets import EnvelopeReport, FunctionSpec, _derivative_table, domain_grid

DEGREE_CAP = 30


@dataclass(frozen=True)
class GontcharoffPoly:
    """Degree-n polynomial in the scaled basis, with its node list.

    ``scaled_coeffs[i]`` multiplies x^i / i!; the leading coefficient is 1.
    The basis is anchored at 0, so absolute evaluation error grows like
    eps * max_i |c_i| |x|^i / i!.  The construction is translation
    equivariant; for node clusters far from the origin, shift the frame
    first and evaluate near 0.  ``eval_magnitude`` exposes the cancellation
    headroom for residual tolerances.
    """

    degree: int
    nodes: tuple[float, ...]
    scaled_coeffs: tuple[float, ...]

    def eval(self, x: float) -> float:
        """Horner evaluation in the scaled basis; exact for degree 0."""
        return _horner_scaled(self.scaled_coeffs, x)

    def eval_magnitude(self, x: float) -> float:
        """sum_i |c_i| |x|^i / i!: the scale against which cancellation in
        eval() should be judged."""
        return _horner_scaled([abs(c) for c in self.scaled_coeffs], abs(x))

    def derivative(self, k: int) -> "GontcharoffPoly":
        """k-th derivative: an index shift dropping the first k nodes."""
        if not (0 <= k <= self.degree):
            raise ValidationError(f"derivative order {k} outside [0, {self.degree}]")
        return GontcharoffPoly(
            degree=self.degree - k,
            nodes=self.nodes[k:],
            scaled_coeffs=self.scaled_coeffs[k:],
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "nodes": list(self.nodes),
            "scaled_coeffs": list(self.scaled_coeffs),
        }


def _horner_scaled(coeffs: Sequence[float], x: float) -> float:
    acc = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        acc = coeffs[i] + acc * x / (i + 1)
    return acc


def build(nodes: Sequence[float]) -> GontcharoffPoly:
    """Construct Q_n for the given nodes by antidifferentiate-and-anchor.

    Each step shifts the scaled coefficients up one slot (antiderivative)
    and fixes the constant term so the value at the newly prepended node
    vanishes.
    """
    try:
        node_list = [float(v) for v in nodes]
    except (TypeError, ValueError):
        raise ValidationError("nodes must be a list of numbers") from None
    n = len(node_list)
    if n > DEGREE_CAP:
        raise ValidationError(
            f"degree {n} exceeds the cap {DEGREE_CAP}; scaled coefficients "
            "would leave the well-conditioned range"
        )
    for v in node_list:
        if not math.isfinite(v):
            raise ValidationError("nodes must be finite")
    coeffs = [1.0]
    for m in range(1, n + 1):
        anchor = node_list[n - m]
        coeffs = [0.0] + coeffs
        coeffs[0] = -_horner_scaled(coeffs, anchor)
    return GontcharoffPoly(degree=n, nodes=tuple(node_list), scaled_coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# independent quadrature oracle for the defining iterated integral

def _adaptive_simpson(
    g: Callable[[float], float], a: float, b: float, tol: float, depth: int = 24
) -> float:
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _simpson_step(g, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_step(g, a, b, fa, fm, fb, whole, tol, depth) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        raise ConditioningError("adaptive quadrature failed to converge")
    return _simpson_step(g, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson_step(
        g, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def integral_oracle(nodes: Sequence[float], x: float, tol: float = 1e-9) -> float:
    """Evaluate the defining iterated integral by nested adaptive Simpson.

    Independent of build(); limited to degree <= 4 because each level nests
    a full quadrature.
    """
    node_list = [float(v) for v in nodes]
    if len(node_list) > 4:
        raise ValidationError("integral oracle is limited to 4 nodes")
    return _oracle_level(node_list, float(x), tol)


def _oracle_level(nodes: list[float], x: float, tol: float) -> float:
    if not nodes:
        return 1.0
    lower = nodes[0]
    rest = nodes[1:]
    if x == lower:
        return 0.0
    inner_tol = tol / 16.0

    def integrand(t: float) -> float:
        return _oracle_level(rest, t, inner_tol)

    a, b = (lower, x) if lower <= x else (x, lower)
    value = _adaptive_simpson(integrand, a, b, tol)
    return value if lower <= x else -value


# ---------------------------------------------------------------------------
# node-swap and decomposition identities

def swap_identity_residual(
    nodes: Sequence[float], k: int, y: float, x: float
) -> float:
    """Residual of the single-node swap identity

        Q_n(x; nodes) - Q_n(x; nodes with x_k := y)
            = Q_k(x; x_0..x_{k-1}) * Q_{n-k}(y; x_k..x_{n-1}).
    """
    node_list = [float(v) for v in nodes]
    n = len(node_list)
    if not (0 <= k < n):
        raise ValidationError(f"need 0 <= k < n, got k={k}, n={n}")
    swapped = list(node_list)
    swapped[k] = float(y)
    lhs = build(node_list).eval(x) - build(swapped).eval(x)
    rhs = build(node_list[:k]).eval(x) * build(node_list[k:]).eval(y)
    return abs(lhs - rhs)


def decomposition_residual(
    nodes: Sequence[float], ys: Sequence[float], x: float
) -> float:
    """Residual of the full node-replacement decomposition

        Q_n(x; nodes) = Q_n(x; ys)
            + sum_i Q_i(x; y_0..y_{i-1}) * Q_{n-i}(y_i; x_i..x_{n-1}).

    With ys = 0 this is the standard form of the polynomial.
    """
    node_list = [float(v) for v in nodes]
    y_list = [float(v) for v in ys]
    n = len(node_list)
    if len(y_list) != n:
        raise ValidationError("ys must have the same length as nodes")
    total = build(y_list).eval(x)
    for i in range(n):
        total += build(y_list[:i]).eval(x) * build(node_list[i:]).eval(y_list[i])
    return abs(build(node_list).eval(x) - total)


def gontcharoff_bound(nodes: Sequence[float], x: float) -> float:
    """(|x - x_0| + sum_j |x_j - x_{j+1}|)^n / n!, computed via logs.

    The node-difference chain runs over consecutive pairs; the property
    sweeps confirm the bound dominates |Q_n| under this reading.
    """
    node_list = [float(v) for v in nodes]
    n = len(node_list)
    if n < 1:
        raise ValidationError("bound needs at least one node")
    spread = abs(x - node_list[0])
    for j in range(n - 1):
        spread += abs(node_list[j] - node_list[j + 1])
    if spread == 0.0:
        return 0.0
    return math.exp(n * math.log(spread) - math.lgamma(n + 1))


# ---------------------------------------------------------------------------
# expansion of a function over a node sequence

@dataclass(frozen=True)
class AbelExpansion:
    partial: float
    remainder: float
    remainder_bound: float


def abel_expand(
    f: FunctionSpec,
    nodes: Sequence[float],
    n: int,
    x: float,
    grid_size: int = 256,
) -> AbelExpansion:
    """Expand f over the node sequence:

        f(x) ~ sum_{k=0}^n f^{(k)}(x_k) Q_k(x; x_0..x_{k-1}),

    returning the partial sum, the true remainder f(x) - partial, and the
    envelope bound (grid max of |f^{(n+1)}|) * bound(Q_{n+1}).  The grid max
    is a lower bound of the true sup, so the remainder contract carries a
    small slack factor.
    """
    node_list = [float(v) for v in nodes]
    if len(node_list) < n + 1:
        raise ValidationError(f"need at least {n + 1} nodes for order {n}")
    if n + 1 > DEGREE_CAP:
        raise ValidationError(f"order {n} exceeds the degree cap {DEGREE_CAP}")
    grid = domain_grid(f, grid_size)
    # column k holds the derivatives at node x_k, the last column those at x
    at_nodes = _derivative_table(f, node_list[: n + 1] + [float(x)], n).tolist()
    partial = 0.0
    for k in range(n + 1):
        partial += at_nodes[k][k] * build(node_list[:k]).eval(x)
    remainder = at_nodes[0][n + 1] - partial

    sup = float(np.abs(_derivative_table(f, grid, n + 1)[n + 1]).max())
    bound = sup * gontcharoff_bound(node_list[: n + 1], x)
    return AbelExpansion(partial=partial, remainder=remainder, remainder_bound=bound)


def cn_membership_bound(
    envelope: EnvelopeReport,
    nbar: Sequence[int],
    a_const: float,
    b_const: float,
) -> bool:
    """Check M_est[n_k] <= B * A^{n_k} * n_k! along the subsequence, in logs."""
    if not (a_const > 0 and b_const > 0):
        raise ValidationError("constants A and B must be positive")
    ks = [int(v) for v in nbar]
    if any(j <= i for i, j in zip(ks, ks[1:])):
        raise ValidationError("nbar must be strictly increasing")
    for nk in ks:
        if not (0 <= nk <= envelope.nmax):
            raise ValidationError(f"index {nk} outside the envelope range")
    log_a, log_b = math.log(a_const), math.log(b_const)
    return all(
        envelope.m_est_log[nk] <= log_b + nk * log_a + math.lgamma(nk + 1)
        for nk in ks
    )


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

    Decreases to -inf as ms grows whenever A(|x - x_q| + R_q) < 1.
    """
    if not (a_const > 0 and b_const > 0):
        raise ValidationError("constants A and B must be positive")
    if q < 0 or ms < 0 or r_q < 0:
        raise ValidationError("q, ms and R_q must be nonnegative")
    inner = a_const * (abs(x - x_q) + r_q)
    if inner == 0.0:
        return -math.inf
    return (
        math.log(b_const)
        + q * math.log(a_const)
        + math.lgamma(ms + q + 2)
        - math.lgamma(ms + 2)
        + (ms + 1) * math.log(inner)
    )


def vanishing_taylor_bounds(
    envelope: EnvelopeReport, nbar: Sequence[int], dist: float
) -> np.ndarray:
    """Log bounds (A * dist)^{n_k} for |f| near a flat point, where A is the
    smallest constant with M_est[n_k] <= A^{n_k} n_k! along the subsequence.

    The bounds decrease to -inf when dist < 1/A.
    """
    ks = [int(v) for v in nbar]
    if dist <= 0:
        raise ValidationError("dist must be positive")
    log_a = max(
        (envelope.m_est_log[nk] - math.lgamma(nk + 1)) / nk for nk in ks if nk >= 1
    )
    return np.array([nk * (log_a + math.log(dist)) for nk in ks])
