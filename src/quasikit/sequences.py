"""Weight sequences in the log domain and their convex regularization.

A weight sequence (M_n) with M_0 = 1 is stored as L_n = log M_n.  All
arithmetic stays in the log domain: the catalog families grow like n^n and
would overflow doubles near n = 140 if materialized.  The convex
regularization is the lower convex hull of the points (n, L_n), whose vertices
are decided with exact orientation predicates; the principal index set is
every n where the hull touches the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .constants import HORIZON_MAX
from .errors import ValidationError, _fields_json, _frozen, bounded_float, bounded_int, quoted
from .series import _libm

# Log-domain tolerance for convexity checks, relative to max(1, max|L_n|): at
# large logs the rounding of L_{n-1} + L_{n+1} is an ulp of max|L_n|.
TOL_CONVEX = 1e-9

# Relative tolerance used to decide hull/input equality (principal indices).
_EQ_RTOL = 1e-12

# Forward error bound of the float cross product in _cross, as a multiple of
# |p| + |q|: its three roundings err by at most 3u (|p| + |q|), u = 2**-53.
# A rounding needs |p| + |q| >= 2**-1022, where the bound itself loses at
# most u (|p| + |q|) among the subnormals; a bound of 0 means no operation
# rounded, so the float cross product is exact.
_CROSS_RTOL = 1e-15

# Pruning passes of the hull before the monotone chain finishes the survivors.
_PRUNE_PASSES = 16


def _denjoy2(n: np.ndarray, c: float) -> np.ndarray:
    log_n = _libm(math.log, n)
    return n * _libm(math.log, c * n * log_n * _libm(math.log, log_n))


# family -> (parameter key or None, first index, log M_n as term(n, param))
# with n the float64 array of indices from the first one on; entries below
# the first index are padded with 0 and reported as ``filled``.  Through
# _libm each entry equals the per-index math expression bit for bit.
_CATALOG = {
    "factorial": (None, 0, lambda n, _: _libm(math.lgamma, n + 1.0)),
    "power_nn": (None, 0, lambda n, _: n * _libm(math.log, np.maximum(n, 1.0))),  # 0 log 0 = 0
    "gevrey": ("s", 0, lambda n, s: s * _libm(math.lgamma, n + 1.0)),
    "denjoy1": ("C", 2, lambda n, c: n * _libm(math.log, c * n * _libm(math.log, n))),
    "denjoy2": ("C", 3, _denjoy2),  # validity requires n > e
}
FAMILIES = ("explicit", *_CATALOG)


@dataclass(frozen=True, eq=False)
class LogSequence:
    """A finite positive weight sequence, stored as log values.

    ``logs[n]`` is log M_n.  The normalization M_0 = 1 is enforced, so
    ``logs[0] == 0``.  ``filled`` lists indices below a catalog family's
    validity threshold whose entries were padded with the normalization 0.
    """

    logs: np.ndarray
    generator: str = "explicit"
    filled: tuple[int, ...] = ()

    def __post_init__(self):
        logs = _frozen(self.logs)
        if logs.size < 1:
            raise ValidationError("LogSequence needs at least one entry")
        if logs[0] != 0.0:
            raise ValidationError(
                f"normalization requires logs[0] == 0, got {logs[0].item()!r}"
            )
        object.__setattr__(self, "logs", logs)

    @property
    def length(self) -> int:
        return len(self.logs)


@dataclass(frozen=True, eq=False)
class RegularizedSequence:
    """Largest convex minorant of a LogSequence, with its principal indices.

    ``logs_c[n] <= logs[n]`` everywhere, with equality exactly on ``principal``,
    a read-only int64 array; between consecutive hull vertices logs_c is affine.
    """

    logs_c: np.ndarray
    principal: np.ndarray

    @property
    def length(self) -> int:
        return len(self.logs_c)

    to_json = _fields_json


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for a catalog weight sequence (or an explicit log vector).

    Two specs are equal when their JSON forms are.
    """

    family: str
    horizon: int = 0
    params: Mapping[str, float] = field(default_factory=dict)
    logs: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown family {quoted(self.family)}; expected one of {FAMILIES}"
            )
        if self.family == "explicit":
            if self.logs is None:
                raise ValidationError("explicit family requires 'logs'")
            object.__setattr__(self, "logs", _frozen(self.logs))
            object.__setattr__(self, "horizon", len(self.logs))
        object.__setattr__(self, "horizon", bounded_int(self.horizon, "horizon", 3, HORIZON_MAX))
        key = _CATALOG.get(self.family, (None,))[0]
        if key is not None:
            bounded_float(self.params.get(key), f"{self.family} parameter {key}", 0, open=True)

    def __eq__(self, other):
        if not isinstance(other, SequenceSpec):
            return NotImplemented
        return self.to_json() == other.to_json()

    @classmethod
    def from_json(cls, doc: Mapping) -> "SequenceSpec":
        if not isinstance(doc, Mapping) or "family" not in doc:
            raise ValidationError("sequence spec JSON needs a 'family' field")
        family = doc["family"]
        if family == "explicit":
            return cls(family="explicit", logs=doc.get("logs", ()))
        horizon = doc.get("horizon", 0)
        if isinstance(horizon, float) and horizon.is_integer():
            horizon = int(horizon)  # 2000.0 is the integer 2000
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise ValidationError("spec params must be an object")
        return cls(family=family, horizon=horizon, params=dict(params))

    def to_json(self) -> dict:
        if self.family == "explicit":
            return {"family": "explicit", "logs": self.logs.tolist()}
        return {
            "family": self.family,
            "params": dict(self.params),
            "horizon": self.horizon,
        }


def make_sequence(spec: SequenceSpec, horizon: int | None = None) -> LogSequence:
    """Build the log-domain sequence for ``spec``, closed form per family.

    ``horizon`` overrides the recipe's horizon; an explicit vector has none
    to override and rejects it.  Entries below a family's validity threshold
    are set to the normalization value 0 and reported through ``filled``.
    """
    if spec.family == "explicit":
        if horizon is not None:
            raise ValidationError("a horizon cannot override an explicit log vector")
        logs = spec.logs.copy()
        logs[0] = 0.0
        return LogSequence(logs=logs, generator="explicit")

    n_total = spec.horizon if horizon is None else bounded_int(horizon, "horizon", 3, HORIZON_MAX)
    key, first, term = _CATALOG[spec.family]
    p = None if key is None else float(spec.params[key])
    logs = np.zeros(n_total)
    with np.errstate(over="ignore"):  # LogSequence rejects an infinite entry
        logs[first:] = term(np.arange(first, n_total, dtype=float), p)
    tag = spec.family if key is None else f"{spec.family}({key}={p:g})"
    return LogSequence(logs=logs, generator=tag, filled=tuple(range(first)))


def _cross(ys, i, j, n):
    """The float cross product (j-i)(y_n-y_i) - (n-i)(y_j-y_i), > 0 iff j lies
    strictly below the chord i -> n, and whether its sign is certain: |cross|
    beyond the forward error bound.  Takes Python floats and ints, or an
    array ``ys`` with index arrays; overflow or NaN leaves the sign uncertain.
    """
    yi = ys[i]
    p = (j - i) * (ys[n] - yi)
    q = (n - i) * (ys[j] - yi)
    cross = p - q
    bound = _CROSS_RTOL * (abs(p) + abs(q))
    return cross, (abs(cross) > bound) | (bound == 0)


def _exactly_below(ys, i: int, j: int, n: int) -> bool:
    """The sign of the cross product in rational arithmetic: floats and
    indices are exact rationals (Shewchuk's filtered predicate, DCG 1997)."""
    from fractions import Fraction

    yi = Fraction(ys[i])
    return (j - i) * (Fraction(ys[n]) - yi) - (n - i) * (Fraction(ys[j]) - yi) > 0


def _lower_hull_vertices(logs: Sequence[float]) -> np.ndarray:
    """Index array of the lower convex hull vertices of the points (n, logs[n]).

    Each pass drops every middle point of the current chain that does not
    lie strictly below the chord of its neighbours, all at once, so
    collinear points never survive; a pass that drops nothing leaves the
    hull.  After _PRUNE_PASSES passes the monotone chain (Andrew, IPL 1979)
    finishes the survivors, which hold every vertex.  Both decide each
    orientation exactly, so the vertex set does not depend on the algorithm.
    """
    ys = np.asarray(logs, dtype=float)
    chain = np.arange(ys.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_PRUNE_PASSES):
            if chain.size < 3:
                return chain
            i, j, n = chain[:-2], chain[1:-1], chain[2:]
            cross, sure = _cross(ys, i, j, n)
            below = cross > 0
            for k in np.flatnonzero(~sure).tolist():
                below[k] = _exactly_below(ys, int(i[k]), int(j[k]), int(n[k]))
            if below.all():
                return chain
            chain = chain[np.concatenate(([True], below, [True]))]
    values = ys.tolist()
    stack: list[int] = []
    for n in chain.tolist():
        while len(stack) >= 2:
            i, j = stack[-2], stack[-1]
            cross, sure = _cross(values, i, j, n)
            if (cross > 0) if sure else _exactly_below(values, i, j, n):
                break
            stack.pop()
        stack.append(n)
    return np.array(stack)


def convex_regularize(seq: LogSequence) -> RegularizedSequence:
    """Lower convex hull of (n, L_n), n = 0..N-1, in the log domain.

    Hull endpoints are forced at 0 and N-1; equality indices near N-1 can be
    truncation artifacts (the infinite-sequence hull may dip below them).
    """
    if seq.length < 2:
        raise ValidationError("convex_regularize needs at least 2 entries")
    logs = seq.logs
    vertices = _lower_hull_vertices(logs)

    # each point between two vertices a < n < b sits on the chord a -> b
    inner = np.ones(seq.length, dtype=bool)
    inner[vertices] = False
    n = np.flatnonzero(inner)
    k = np.searchsorted(vertices, n)
    a, b = vertices[k - 1], vertices[k]
    ya = logs[a]
    hull = logs.copy()
    hull[n] = ya + (logs[b] - ya) / (b - a) * (n - a)
    hull.flags.writeable = False

    tol = _EQ_RTOL * max(1.0, float(np.abs(logs).max()))
    principal = np.flatnonzero(hull >= logs - tol)
    principal.flags.writeable = False
    return RegularizedSequence(logs_c=hull, principal=principal)


def is_log_convex(seq: LogSequence, tol: float = TOL_CONVEX) -> bool:
    """True iff 2 L_n <= L_{n-1} + L_{n+1} for every interior n, within
    tol * max(1, max|L_n|)."""
    tol = bounded_float(tol, "tol")
    if seq.length < 3:
        raise ValidationError("is_log_convex needs at least 3 entries")
    logs = seq.logs
    slack = tol * max(1.0, float(np.abs(logs).max()))
    return bool(np.all(2.0 * logs[1:-1] <= logs[:-2] + logs[2:] + slack))


def ratio_sequence(seq: LogSequence) -> np.ndarray:
    """r_n = L_n - L_{n+1} (log of M_n / M_{n+1}), n = 0..N-2.

    For a log-convex sequence the successive quotients M_{n+1}/M_n increase,
    so this sequence is nonincreasing.
    """
    if seq.length < 2:
        raise ValidationError("ratio_sequence needs at least 2 entries")
    return seq.logs[:-1] - seq.logs[1:]


def root_sequence(seq: LogSequence) -> np.ndarray:
    """rho_n = L_n / n (log of M_n^{1/n}), n = 1..N-1."""
    if seq.length < 2:
        raise ValidationError("root_sequence needs at least 2 entries")
    return seq.logs[1:] / np.arange(1, seq.length, dtype=float)
