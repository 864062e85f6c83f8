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
from typing import Mapping

import numpy as np

from .errors import ValidationError
from . import jets, sequences
from .series import _exp, _frozen

# e^{-k} for k = 0..746 from math.exp, whose rounding the reports carry
# (numpy's exp differs in the last ulp at some k); from k = 746 on e^{-k}
# rounds to 0.0, the table's last entry
_DECAY = np.array([math.exp(-k) for k in range(747)])


@dataclass(frozen=True, eq=False)
class BangVector:
    """Real entries plus the index set P (sorted, contains 0).

    ``entries`` is a read-only float64 array, ``index_set`` a read-only intp
    array; an index set of None is every index of the entries.
    """

    entries: np.ndarray
    index_set: np.ndarray | None = None

    def __post_init__(self):
        entries = _frozen(self.entries, "entries")
        if entries.size < 1:
            raise ValidationError("BangVector needs at least one entry")
        pset = _frozen(np.arange(entries.size) if self.index_set is None else self.index_set,
                       "index_set")
        if pset.size == 0 or pset[0] != 0:
            raise ValidationError("index_set must be sorted and contain 0")
        if not (np.diff(pset) > 0).all():
            raise ValidationError("index_set must be strictly increasing")
        if pset[-1] >= entries.size:
            raise ValidationError("index_set exceeds the entry horizon")
        if (pset != np.floor(pset)).any():
            raise ValidationError("index_set entries must be integers")
        pset = pset.astype(np.intp)
        pset.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "index_set", pset)

    @property
    def horizon(self) -> int:
        return self.entries.size

    @classmethod
    def from_json(cls, doc) -> "BangVector":
        if not isinstance(doc, Mapping) or "entries" not in doc:
            raise ValidationError("bang vector JSON needs an 'entries' field")
        return cls(entries=doc["entries"], index_set=doc.get("index_set"))


@dataclass(frozen=True)
class BangNormResult:
    """Norm value together with the minimizing index and reduction bound."""

    value: float
    witness_k: int
    reduction_bound: int
    truncated: bool

    def to_json(self) -> dict:
        return asdict(self)


def _scan(x: BangVector) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """P, the prefix max m_n = max_{i <= n} |x_i|, and e^{-k} and the
    candidate max(e^{-k}, m_k) for every k in P."""
    pset = x.index_set
    prefix = np.maximum.accumulate(np.abs(x.entries))
    decay = _DECAY[np.minimum(pset, _DECAY.size - 1)]
    return pset, prefix, decay, np.maximum(decay, prefix[pset])


def bang_norm(x: BangVector) -> BangNormResult:
    """Reduced evaluation: minimize over P only up to the sound reduction bound."""
    pset, prefix, decay, values = _scan(x)
    last = x.horizon - 1
    if prefix[-1] == 0.0:
        return BangNormResult(
            value=float(decay[-1]), witness_k=int(pset[-1]), reduction_bound=last, truncated=True
        )

    # smallest k in P with k >= n0 (the first nonzero entry, so m_k > 0) and
    # e^{-k} < |x_{n0}|: beyond it the window max dominates and is
    # nondecreasing, so the minimum lies at or before it
    threshold = prefix[np.argmax(prefix > 0.0)]
    past = np.flatnonzero((prefix[pset] > 0.0) & (decay < threshold))
    count = past[0] + 1 if past.size else pset.size
    best = int(np.argmin(values[:count]))  # the first minimizer
    witness = int(pset[best])
    return BangNormResult(
        value=float(values[best]),
        witness_k=witness,
        reduction_bound=int(pset[past[0]]) if past.size else last,
        truncated=bool(best == pset.size - 1 and decay[best] > prefix[witness]),
    )


def bang_norm_bruteforce(x: BangVector) -> float:
    """Unreduced oracle: minimize over every k in P on the horizon."""
    entries = x.entries.tolist()
    best = math.inf
    running = 0.0
    idx = 0
    for k in x.index_set.tolist():
        while idx <= k:
            running = max(running, abs(entries[idx]))
            idx += 1
        best = min(best, max(math.exp(-k), running))
    return best


def bang_distance(x: BangVector, y: BangVector) -> BangNormResult:
    """Norm of the entrywise difference (same horizon and index set)."""
    if x.horizon != y.horizon:
        raise ValidationError("bang_distance needs matching horizons")
    if not np.array_equal(x.index_set, y.index_set):
        raise ValidationError("bang_distance needs matching index sets")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x.entries - y.entries
    return bang_norm(BangVector(entries=diff, index_set=x.index_set))


def function_sequence(
    f: jets.FunctionSpec, t: float, reg: sequences.RegularizedSequence
) -> BangVector:
    """Entries x_n = f^{(n)}(t) / (M^c_n e^n) over the horizon of the
    regularized sequence, with P its principal indices."""
    return _scaled_vectors(f, [t], reg)[0]


def _scaled_vectors(f, points, reg) -> list[BangVector]:
    """function_sequence at every point, from one derivative table."""
    n_len = reg.length
    table = jets._derivative_table(f, points, n_len - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # BangVector rejects what is not finite
        scaled = table * np.exp(-reg.logs_c - np.arange(n_len))[:, None]
    return [BangVector(entries=x, index_set=reg.principal) for x in scaled.T]


def _achieving_index(x: BangVector, value: float) -> int | None:
    """The smallest k >= 1 in P whose candidate max(e^{-k}, m_k) reaches
    ``value`` to within 1e-15 relative, or None."""
    pset, _, _, values = _scan(x)
    hits = np.flatnonzero((pset >= 1) & (values <= value * (1.0 + 1e-15)))
    return int(pset[hits[0]]) if hits.size else None


@dataclass(frozen=True)
class GrowthCheck:
    lhs: float
    rhs: float
    witness_l: int
    ok: bool


def growth_estimate_check(
    f: jets.FunctionSpec,
    t: float,
    tau: float,
    reg: sequences.RegularizedSequence,
) -> GrowthCheck:
    """Translation estimate for the norm of the scaled derivative vector:

        ||X_f(t + tau)|| <= ||X_f(t)|| * exp(e |tau| M^c_l / M^c_{l-1}),

    with l the smallest norm-achieving index >= 1 in P, the principal
    indices of ``reg``, and a relative slack of 1e-9.  Rejected when the
    base vector is zero on the horizon or no achieving index >= 1 exists.
    """
    base, shifted = _scaled_vectors(f, [t, t + tau], reg)
    if not base.entries.any():
        raise ValidationError("zero scaled-derivative vector; estimate undefined")
    base_norm = bang_norm(base)
    witness_l = _achieving_index(base, base_norm.value)
    if witness_l is None:
        raise ValidationError(
            "no norm-achieving index >= 1 in P; the estimate's witness is undefined"
        )

    logs_c = reg.logs_c
    ratio = _exp(logs_c[witness_l] - logs_c[witness_l - 1])
    rhs = base_norm.value * (_exp(math.e * abs(tau) * ratio) if tau else 1.0)
    lhs = bang_norm(shifted).value
    return GrowthCheck(
        lhs=lhs, rhs=rhs, witness_l=witness_l, ok=lhs <= rhs * (1.0 + 1e-9)
    )
