"""Weight sequences in the log domain and their convex regularization.

A weight sequence (M_n) with M_0 = 1 is stored as L_n = log M_n.  All
arithmetic stays in the log domain: the catalog families grow like n^n and
would overflow doubles near n = 140 if materialized.  The convex
regularization is the lower convex hull of the points (n, L_n), computed by a
single monotone-chain scan; the principal index set is every n where the hull
touches the input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError

# Log-domain tolerance for convexity checks.
TOL_CONVEX = 1e-9

# Relative tolerance used to decide hull/input equality (principal indices).
_EQ_RTOL = 1e-12

# family -> (parameter key or None, first index, log M_n as term(n, param));
# entries below the first index are padded with 0 and reported as ``filled``.
# math per index: np.log differs from math.log in the last ulp at some n.
_CATALOG = {
    "factorial": (None, 0, lambda n, _: math.lgamma(n + 1)),
    "power_nn": (None, 0, lambda n, _: n * math.log(n or 1)),  # 0 log 0 = 0
    "gevrey": ("s", 0, lambda n, s: s * math.lgamma(n + 1)),
    "denjoy1": ("C", 2, lambda n, c: n * math.log(c * n * math.log(n))),
    # validity requires n > e
    "denjoy2": ("C", 3, lambda n, c: n * math.log(c * n * math.log(n) * math.log(math.log(n)))),
}
FAMILIES = ("explicit", *_CATALOG)

# Largest horizon; a catalog horizon is checked before anything is allocated.
HORIZON_MAX = 2**22


def _frozen(values, name: str = "logs") -> np.ndarray:
    """``values`` as a read-only float64 array of finite numbers: a flat list
    is copied, a read-only 1-D float64 array that owns its memory is checked
    and returned as it is (a view may share a writable base)."""
    if (isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1
            and not values.flags.writeable and values.base is None):
        arr = values
    else:
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"{name} must be a list of numbers") from None
        if arr.ndim != 1:
            raise ValidationError(f"{name} must be a flat list of numbers")
        arr.flags.writeable = False
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        n = int(bad[0])
        raise ValidationError(f"{name}[{n}] = {arr[n].item()!r} is not finite")
    return arr


def _checked_horizon(horizon) -> int:
    """``horizon`` if it is an integer (not a bool) in [3, HORIZON_MAX]."""
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise ValidationError(f"horizon must be an integer, got {horizon!r}")
    if not 3 <= horizon <= HORIZON_MAX:
        raise ValidationError(f"horizon must be in [3, {HORIZON_MAX}], got {horizon}")
    return int(horizon)


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

    ``logs_c[n] <= logs[n]`` everywhere, with equality exactly on
    ``principal``; between consecutive hull vertices the minorant is affine.
    """

    logs_c: np.ndarray
    principal: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.logs_c)

    def to_json(self) -> dict:
        return {"logs_c": self.logs_c.tolist(), "principal": list(self.principal)}


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
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == "explicit":
            if self.logs is None:
                raise ValidationError("explicit family requires 'logs'")
            object.__setattr__(self, "logs", _frozen(self.logs))
            object.__setattr__(self, "horizon", len(self.logs))
        object.__setattr__(self, "horizon", _checked_horizon(self.horizon))
        key = _CATALOG.get(self.family, (None,))[0]
        if key is not None:
            value = self.params.get(key)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and 0 < value < math.inf):
                raise ValidationError(
                    f"{self.family} requires parameter {key} > 0, got {value!r}"
                )

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

    n_total = spec.horizon if horizon is None else _checked_horizon(horizon)
    key, first, term = _CATALOG[spec.family]
    p = None if key is None else float(spec.params[key])
    logs = np.zeros(n_total)
    logs[first:] = np.fromiter(map(term, range(first, n_total), repeat(p)), float, n_total - first)
    tag = spec.family if key is None else f"{spec.family}({key}={p:g})"
    return LogSequence(logs=logs, generator=tag, filled=tuple(range(first)))


def _lower_hull_vertices(logs: Sequence[float]) -> list[int]:
    """Indices of the lower convex hull vertices of the points (n, logs[n]).

    Left-to-right monotone chain; a slope tie pops the middle point, so
    collinear interior points never enter the vertex stack.
    """
    stack: list[int] = []
    for n, y in enumerate(logs):
        while len(stack) >= 2:
            i, j = stack[-2], stack[-1]
            # cross > 0 iff j lies strictly below the chord i -> n
            cross = (j - i) * (y - logs[i]) - (n - i) * (logs[j] - logs[i])
            if cross <= 0.0:
                stack.pop()
            else:
                break
        stack.append(n)
    return stack


def convex_regularize(seq: LogSequence) -> RegularizedSequence:
    """Lower convex hull of (n, L_n), n = 0..N-1, in the log domain.

    Hull endpoints are forced at 0 and N-1; equality indices near N-1 can be
    truncation artifacts (the infinite-sequence hull may dip below them).
    """
    if seq.length < 2:
        raise ValidationError("convex_regularize needs at least 2 entries")
    logs = seq.logs
    vertices = np.array(_lower_hull_vertices(logs.tolist()))

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
    principal = tuple(np.flatnonzero(hull >= logs - tol).tolist())
    return RegularizedSequence(logs_c=hull, principal=principal)


def is_log_convex(seq: LogSequence, tol: float = TOL_CONVEX) -> bool:
    """True iff 2 L_n <= L_{n-1} + L_{n+1} for every interior n, within tol."""
    if seq.length < 3:
        raise ValidationError("is_log_convex needs at least 3 entries")
    logs = seq.logs
    return bool(np.all(2.0 * logs[1:-1] <= logs[:-2] + logs[2:] + tol))


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
