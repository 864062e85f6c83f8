"""A norm on finite real sequences built from an index set P containing 0.

For a vector X and index set P,

    ||X|| = min over k in P of max(e^{-k}, max_{0 <= n <= k} |x_n|).

On a finite horizon the infimum is a minimum; for the truly zero vector the
infinite-sequence value would be 0, so the result carries a ``truncated``
flag whenever the minimum still sits on the horizon boundary.  The finite
reduction (scan only up to the first k in P with e^{-k} < |x_{n0}|, n0 the
first nonzero entry) is proved sound by comparison against the unreduced
scan, which stays available as ``bang_norm_bruteforce``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .jets import FunctionSpec, _derivative_table
from .sequences import RegularizedSequence


@dataclass(frozen=True)
class BangVector:
    """Real entries plus the index set P (sorted, contains 0)."""

    entries: tuple[float, ...]
    index_set: tuple[int, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValidationError("BangVector needs at least one entry")
        pset = self.index_set
        if not pset or pset[0] != 0 or 0 not in pset:
            raise ValidationError("index_set must be sorted and contain 0")
        if list(pset) != sorted(set(pset)):
            raise ValidationError("index_set must be strictly increasing")
        if pset[-1] >= len(self.entries):
            raise ValidationError("index_set exceeds the entry horizon")
        for n, v in enumerate(self.entries):
            if not math.isfinite(v):
                raise ValidationError(f"entries[{n}] = {v!r} is not finite")

    @property
    def horizon(self) -> int:
        return len(self.entries)

    @classmethod
    def from_json(cls, doc) -> "BangVector":
        if not isinstance(doc, Mapping) or "entries" not in doc:
            raise ValidationError("bang vector JSON needs an 'entries' field")
        index_set = doc.get("index_set")
        try:
            entries = tuple(float(v) for v in doc["entries"])
            index_set = range(len(entries)) if index_set is None else index_set
            index_set = tuple(int(k) for k in index_set)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("entries and index_set must be lists of numbers") from None
        return cls(entries=entries, index_set=index_set)


@dataclass(frozen=True)
class BangNormResult:
    """Norm value together with the minimizing index and reduction bound."""

    value: float
    witness_k: int
    reduction_bound: int
    truncated: bool

    def to_json(self) -> dict:
        return asdict(self)


def bang_norm(x: BangVector) -> BangNormResult:
    """Reduced evaluation: scan P only up to the sound reduction bound."""
    entries = x.entries
    pset = x.index_set
    n0 = next((i for i, v in enumerate(entries) if v != 0.0), None)

    if n0 is None:
        reduction = len(entries) - 1
        k = pset[-1]
        return BangNormResult(
            value=math.exp(-k), witness_k=k, reduction_bound=reduction, truncated=True
        )

    # smallest k in P with k >= n0 and e^{-k} < |x_{n0}|: beyond it the
    # window max dominates and is nondecreasing, so the scan may stop
    threshold = abs(entries[n0])
    reduction = len(entries) - 1
    for k in pset:
        if k >= n0 and math.exp(-k) < threshold:
            reduction = k
            break

    best = math.inf
    witness = pset[0]
    running = 0.0
    idx = 0
    for k in pset:
        if k > reduction:
            break
        while idx <= k:
            running = max(running, abs(entries[idx]))
            idx += 1
        value = max(math.exp(-k), running)
        if value < best:
            best = value
            witness = k
    window_max = max(abs(v) for v in entries[: witness + 1])
    truncated = witness == pset[-1] and math.exp(-witness) > window_max
    return BangNormResult(
        value=best, witness_k=witness, reduction_bound=reduction, truncated=truncated
    )


def bang_norm_bruteforce(x: BangVector) -> float:
    """Unreduced oracle: minimize over every k in P on the horizon."""
    entries = x.entries
    best = math.inf
    running = 0.0
    idx = 0
    for k in x.index_set:
        while idx <= k:
            running = max(running, abs(entries[idx]))
            idx += 1
        best = min(best, max(math.exp(-k), running))
    return best


def bang_distance(x: BangVector, y: BangVector) -> BangNormResult:
    """Norm of the entrywise difference (same horizon and index set)."""
    if x.horizon != y.horizon:
        raise ValidationError("bang_distance needs matching horizons")
    if x.index_set != y.index_set:
        raise ValidationError("bang_distance needs matching index sets")
    diff = tuple(a - b for a, b in zip(x.entries, y.entries))
    return bang_norm(BangVector(entries=diff, index_set=x.index_set))


def function_sequence(
    f: FunctionSpec,
    t: float,
    reg: RegularizedSequence,
    pset: Sequence[int] | None = None,
    jet_order: int | None = None,
) -> BangVector:
    """Entries x_n = f^{(n)}(t) / (M^c_n e^n), with P defaulting to the
    principal indices of the regularized sequence."""
    return _scaled_vectors(f, [t], reg, pset, jet_order)[0]


def _scaled_vectors(f, points, reg, pset, jet_order) -> list[BangVector]:
    """function_sequence at every point, from one derivative table."""
    n_len = reg.length
    order = n_len - 1 if jet_order is None else jet_order
    if order < n_len - 1:
        raise ValidationError("jet order must cover the sequence horizon")
    table = _derivative_table(f, points, order)[:n_len]
    scaled = table * np.exp(-reg.logs_c - np.arange(n_len))[:, None]
    index_set = tuple(pset) if pset is not None else reg.principal
    return [BangVector(entries=tuple(x), index_set=index_set) for x in scaled.T.tolist()]


@dataclass(frozen=True)
class GrowthCheck:
    lhs: float
    rhs: float
    witness_l: int
    ok: bool


def growth_estimate_check(
    f: FunctionSpec,
    t: float,
    tau: float,
    reg: RegularizedSequence,
    pset: Sequence[int] | None = None,
    jet_order: int | None = None,
    slack: float = 1e-9,
) -> GrowthCheck:
    """Translation estimate for the norm of the scaled derivative vector:

        ||X_f(t + tau)|| <= ||X_f(t)|| * exp(e |tau| M^c_l / M^c_{l-1}),

    with l the smallest norm-achieving index >= 1 in P.  Rejected when the
    base vector is zero on the horizon or no achieving index >= 1 exists.
    """
    base, shifted = _scaled_vectors(f, [t, t + tau], reg, pset, jet_order)
    if all(v == 0.0 for v in base.entries):
        raise ValidationError("zero scaled-derivative vector; estimate undefined")
    base_norm = bang_norm(base)

    witness_l = None
    running = 0.0
    idx = 0
    for k in base.index_set:
        while idx <= k:
            running = max(running, abs(base.entries[idx]))
            idx += 1
        if k >= 1 and max(math.exp(-k), running) <= base_norm.value * (1.0 + 1e-15):
            witness_l = k
            break
    if witness_l is None:
        raise ValidationError(
            "no norm-achieving index >= 1 in P; the estimate's witness is undefined"
        )

    logs_c = reg.logs_c
    ratio = math.exp(logs_c[witness_l] - logs_c[witness_l - 1])
    rhs = base_norm.value * math.exp(math.e * abs(tau) * ratio)
    lhs = bang_norm(shifted).value
    return GrowthCheck(
        lhs=lhs, rhs=rhs, witness_l=witness_l, ok=lhs <= rhs * (1.0 + slack)
    )
