"""Independent checks of every report the benchmark's commands write.

Each check recomputes what a report claims from the command's own inputs,
with numpy, exact fractions, closed forms or mpmath; none calls quasikit.
A check returns a list of problems; an empty list means the output passed.
Tolerances are the ones the repository's tests use, never looser.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

# The CLI's documented defaults for the verdict heuristic and the flags.
SIGMA_DIV = 0.01
EPS_CONV = 1e-6
LIMINF_CAP = 50.0
CHAIN_RTOL = 1e-9

RTOL = 1e-12  # recomputed arrays and sums (the tests' 1e-12)
HULL_ATOL = 1e-9  # hull agreement, convexity and log-domain envelope (the tests' 1e-9)
PRINCIPAL_RTOL = 1e-12  # principal: hull within 1e-12 max|L_n| of L_n (sequences._EQ_RTOL)
ZERO_ATOL = 1e-9  # zero positions; bisection refines to 1e-12 in x
OMEGA_RTOL = 1e-9  # omega against the mpmath solve (the tests' 1e-9)
GONT_RTOL = 1e-12  # coefficients and values against exact arithmetic
GONT_VANISH = 1e-10  # Q^(k)(x_k) = 0 relative to the evaluation scale


def _close(got, want, rtol: float, atol: float = 0.0) -> bool:
    """|got - want| <= atol + rtol |want| elementwise: relative to the value's
    own scale, since norms and series terms can be far below 1."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _first_bad(got, want, rtol: float, atol: float = 0.0) -> str:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    i = int(np.argmax(err))
    return f"index {i}: {got[i]!r} vs {want[i]!r}"


class Problems(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok

    def close(self, label: str, got, want, rtol: float, atol: float = 0.0) -> bool:
        ok = _close(got, want, rtol, atol)
        if not ok:
            self.append(f"{label} disagrees at {_first_bad(got, want, rtol, atol)}")
        return ok


# ---------------------------------------------------------------------------
# weight sequences


def catalog_logs(spec: dict) -> np.ndarray:
    """L_n = log M_n from the spec's closed form, n = 0..N-1, L_0 = 0."""
    family = spec["family"]
    if family == "explicit":
        logs = np.array(spec["logs"], dtype=float)
        logs[0] = 0.0
        return logs
    size = int(spec["horizon"])
    n = np.arange(size, dtype=float)
    logs = np.zeros(size)
    params = spec.get("params", {})
    if family in ("factorial", "gevrey"):
        s = float(params.get("s", 1.0))
        logs = s * np.array([math.lgamma(k + 1.0) for k in range(size)])
    elif family == "power_nn":
        logs[2:] = n[2:] * np.log(n[2:])
    elif family == "denjoy1":
        m = n[2:]
        logs[2:] = m * np.log(float(params["C"]) * m * np.log(m))
    elif family == "denjoy2":
        m = n[3:]
        logs[3:] = m * np.log(float(params["C"]) * m * np.log(m) * np.log(np.log(m)))
    else:
        raise ValueError(f"unknown family {family!r}")
    logs[0] = 0.0
    return logs


def lower_hull(logs: np.ndarray) -> np.ndarray:
    """Greatest convex minorant of the points (n, logs[n]), by a monotone
    chain over the points followed by linear interpolation between vertices."""
    y = logs.tolist()
    hull: list[int] = []
    for n, yn in enumerate(y):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (j - i) * (yn - y[i]) - (n - i) * (y[j] - y[i]) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(n)
    out = np.array(logs, dtype=float)
    for a, b in zip(hull, hull[1:]):
        if b > a + 1:
            k = np.arange(a + 1, b, dtype=float)
            out[a + 1 : b] = y[a] + (y[b] - y[a]) / (b - a) * (k - a)
    return out


def expected_verdict(series: dict) -> str:
    terms = series["terms"]
    total = series["partial_sums"][-1]
    if series["slope_estimate"] >= SIGMA_DIV:
        return "diverging_trend"
    if total == 0.0 or terms[-1] < EPS_CONV * total:
        return "converging_trend"
    return "inconclusive"


def _check_series(p: Problems, label: str, series: dict, want_terms, rtol: float) -> None:
    terms = np.array(series["terms"], dtype=float)
    p.close(f"{label}.terms", terms, want_terms, rtol)
    p.close(f"{label}.partial_sums", series["partial_sums"], np.cumsum(terms), RTOL)
    p.expect(
        series["verdict"] == expected_verdict(series),
        f"{label}.verdict {series['verdict']!r} contradicts slope "
        f"{series['slope_estimate']!r} and the thresholds",
    )


def check_seq_analyze(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    logs = catalog_logs(cmd.facts["spec"])
    size = logs.size
    k = np.arange(1, size, dtype=float)
    beta = np.minimum.accumulate((logs[1:] / k)[::-1])[::-1]
    p.close("beta", doc["beta"], beta, RTOL)
    hull = lower_hull(logs)
    _check_series(p, "carleman", doc["carleman"], np.exp(-np.array(doc["beta"])), RTOL)
    # hull-derived terms inherit the hull tolerance
    _check_series(p, "root_c", doc["root_c"], np.exp(-hull[1:] / k), HULL_ATOL)
    _check_series(p, "ratio_c", doc["ratio_c"], np.exp(hull[:-1] - hull[1:]), HULL_ATOL)
    half = size // 2
    liminf = float(np.min(logs[half:] / np.arange(half, size))) < LIMINF_CAP
    p.expect(doc["liminf_flag"] == liminf, f"liminf_flag {doc['liminf_flag']} != {liminf}")
    s_root = math.fsum(doc["root_c"]["terms"])
    s_beta = math.fsum(doc["carleman"]["terms"])
    s_ratio = math.fsum(doc["ratio_c"]["terms"])
    chain = (
        s_root >= s_beta * (1.0 - CHAIN_RTOL)
        and s_beta >= s_ratio * (1.0 - CHAIN_RTOL)
        and s_root <= math.e * s_ratio * (1.0 + CHAIN_RTOL)
    )
    p.expect(doc["chain_ok"] == chain, f"chain_ok {doc['chain_ok']} != {chain}")
    if cmd.csv:
        _check_csv(
            p,
            workdir / cmd.csv,
            [(f"{name}.{field}", doc[name][key])
             for name in ("carleman", "root_c", "ratio_c")
             for field, key in (("term", "terms"), ("partial_sum", "partial_sums"))],
        )
    return p


def check_seq_regularize(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    logs = catalog_logs(cmd.facts["spec"])
    logs_c = np.array(doc["logs_c"], dtype=float)
    principal = np.array(doc["principal"], dtype=int)
    if not p.expect(logs_c.shape == logs.shape, "logs_c length differs from the input"):
        return p
    if not p.expect(
        principal.size >= 2
        and principal[0] == 0
        and principal[-1] == logs.size - 1
        and bool(np.all(np.diff(principal) > 0)),
        "principal must be strictly increasing from 0 to N-1",
    ):
        return p
    # hull tolerances scale with max|L_n|, as in the tests; principal indices
    # are those where the hull comes within PRINCIPAL_RTOL of that scale, so
    # a point just above a hull segment counts as principal without being a
    # vertex.  `band` absorbs the rounding of that comparison.
    scale = max(1.0, float(np.max(np.abs(logs))))
    hull_tol = HULL_ATOL * scale
    equal = PRINCIPAL_RTOL * scale
    band = 8.0 * float(np.spacing(scale))
    p.expect(bool(np.all(logs_c <= logs + hull_tol)), "logs_c rises above logs")
    p.close("logs_c on principal", logs_c[principal], logs[principal], 0.0, equal + band)
    off = np.ones(logs.size, dtype=bool)
    off[principal] = False
    p.expect(bool(np.all(logs_c[off] < logs[off] - (equal - band))),
             "logs_c comes within the principal tolerance of logs off the principal set")
    p.expect(
        bool(np.all(np.diff(logs_c, 2) >= -hull_tol)), "logs_c is not convex"
    )
    affine = np.interp(np.arange(logs.size), principal, logs_c[principal])
    p.close("logs_c between principal indices", logs_c, affine, 0.0, hull_tol)
    p.close("logs_c against the convex minorant", logs_c, lower_hull(logs), 0.0, hull_tol)
    return p


# ---------------------------------------------------------------------------
# sequence-space norm


def _read(workdir: Path, name: str) -> dict:
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def unreduced_norm(entries: np.ndarray, pset: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-k values max(e^{-k}, max_{n<=k}|x_n|) over P, and their minimum."""
    window = np.maximum.accumulate(np.abs(entries))[pset]
    values = np.maximum(np.exp(-pset.astype(float)), window)
    return values, float(values.min())


def _check_norm(p: Problems, doc: dict, entries: np.ndarray, pset: np.ndarray) -> None:
    values, best = unreduced_norm(entries, pset)
    p.close("value", doc["value"], best, RTOL)
    w = doc["witness_k"]
    where = np.flatnonzero(pset == w)
    if p.expect(where.size == 1, f"witness_k {w} is not in P"):
        p.close("value at witness_k", values[where[0]], best, RTOL)
        window = float(np.max(np.abs(entries[: w + 1])))
        # the zero vector's norm is 0 only on the infinite sequence
        truncated = bool(not entries.any() or (w == pset[-1] and math.exp(-w) > window))
        p.expect(doc["truncated"] == truncated, f"truncated {doc['truncated']} != {truncated}")
    p.expect(
        w <= doc["reduction_bound"] <= entries.size - 1,
        f"reduction_bound {doc['reduction_bound']} outside [witness_k, N-1]",
    )


def check_bang_norm(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    vec = _read(workdir, cmd.facts["vector"])
    if "pset" in cmd.facts:
        vec["index_set"] = _read(workdir, cmd.facts["pset"])["index_set"]
    _check_norm(p, doc, np.array(vec["entries"]), np.array(vec["index_set"]))
    return p


def check_bang_distance(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    x = _read(workdir, cmd.facts["vector"])
    y = _read(workdir, cmd.facts["other"])
    diff = np.array(x["entries"]) - np.array(y["entries"])
    _check_norm(p, doc, diff, np.array(x["index_set"]))
    return p


# ---------------------------------------------------------------------------
# Abel-Gontcharoff polynomials, in exact arithmetic


def exact_gontcharoff(nodes) -> list[Fraction]:
    """Scaled coefficients of Q_n: antidifferentiate, then anchor at the
    prepended node so the new polynomial vanishes there, all in fractions."""
    xs = [Fraction(v) for v in nodes]
    coeffs = [Fraction(1)]
    for anchor in reversed(xs):
        coeffs = [Fraction(0)] + coeffs
        coeffs[0] = -_scaled_eval(coeffs, anchor)
    return coeffs


def _scaled_eval(coeffs, x) -> Fraction:
    """sum_i c_i x^i / i! in exact arithmetic."""
    total, power, fact = Fraction(0), Fraction(1), 1
    for i, c in enumerate(coeffs):
        if i:
            power *= x
            fact *= i
        total += c * power / fact
    return total


def check_gont_build(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    nodes = cmd.facts["nodes"]
    n = len(nodes)
    coeffs = [Fraction(c) for c in doc["scaled_coeffs"]]
    p.expect(doc["degree"] == n and len(coeffs) == n + 1, "degree does not match the nodes")
    p.expect(doc["nodes"] == nodes, "nodes are not echoed")
    if len(coeffs) != n + 1:
        return p
    p.expect(coeffs[n] == 1, "leading scaled coefficient is not 1")
    # defining property: Q^(k) vanishes at x_k for k < n
    for k, xk in enumerate(nodes):
        tail = coeffs[k:]
        residual = _scaled_eval(tail, Fraction(xk))
        scale = _scaled_eval([abs(c) for c in tail], abs(Fraction(xk)))
        p.expect(
            abs(residual) <= GONT_VANISH * max(1, scale),
            f"Q^({k})(x_{k}) = {float(residual):g} does not vanish",
        )
    exact = exact_gontcharoff(nodes)
    p.close("scaled_coeffs", [float(c) for c in coeffs], [float(c) for c in exact], 0.0,
            GONT_RTOL * max(1.0, max(abs(float(c)) for c in exact)))
    return p


def check_gont_eval(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    x = Fraction(cmd.facts["x"])
    exact = exact_gontcharoff(cmd.facts["nodes"])
    want = _scaled_eval(exact, x)
    scale = float(_scaled_eval([abs(c) for c in exact], abs(x)))
    p.expect(doc["degree"] == len(cmd.facts["nodes"]), "degree does not match the nodes")
    p.close("value", doc["value"], float(want), 0.0, GONT_RTOL * max(1.0, scale))
    return p


def check_gont_check(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    p.expect(doc["sweep"] == cmd.facts["sweep"], f"sweep {doc['sweep']} != {cmd.facts['sweep']}")
    p.expect(doc["ok"] is True, "gont check reports ok = false")
    p.expect(
        doc["bound_violations"] == 0 and doc["derivative_violations"] == 0,
        "gont check reports violations",
    )
    p.expect(
        doc["max_swap_residual_rel"] <= 1e-10 and doc["max_decomposition_residual_rel"] <= 1e-10,
        "identity residuals exceed the default tolerance",
    )
    return p


# ---------------------------------------------------------------------------
# function experiments


def _grid(facts: dict) -> np.ndarray:
    a, b = facts["domain"]
    return np.linspace(a, b, facts["grid"])


def _lah_row(n: int) -> list[int]:
    """Unsigned Lah numbers L(n, k), k = 0..n."""
    if n == 0:
        return [1]
    return [0] + [math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k) for k in range(1, n + 1)]


def flat_derivative_log_max(n: int, grid: np.ndarray) -> float:
    """max over the grid of log|d^n/dx^n exp(-1/x)|, by the closed form

        f^(n)(x) = exp(-1/x) y^n sum_k (-1)^(n+k) L(n,k) y^k,  y = 1/x,

    evaluated in mpmath with enough digits to absorb the alternating sum."""
    lah = _lah_row(n)
    best = -mpmath.inf
    with mpmath.workdps(60 + 2 * n):
        for x in grid:
            y = 1 / mpmath.mpf(float(x))
            poly = mpmath.mpf(0)
            for k in range(n, -1, -1):
                poly = poly * y + (-1) ** (n + k) * lah[k]
            value = abs(mpmath.exp(-y) * y**n * poly)
            if value > 0:
                best = max(best, mpmath.log(value))
        return float(best)


def check_lab_envelope_flat(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    grid = _grid(cmd.facts)
    nmax = cmd.facts["nmax"]
    p.close("grid", doc["grid"], grid, 0.0)
    m_est = doc["m_est_log"]
    if not p.expect(len(m_est) == nmax + 1, "m_est_log length is not nmax + 1"):
        return p
    for n in sorted({0, 1, 2, nmax // 4, nmax // 2, nmax}):
        want = flat_derivative_log_max(n, grid)
        p.close(f"m_est_log[{n}]", m_est[n], want, 0.0, HULL_ATOL)
    if cmd.csv:
        _check_csv(p, workdir / cmd.csv, [("m_est_log", m_est)])
    return p


def sin_derivative_abs(facts: dict, n: int, x: np.ndarray) -> np.ndarray:
    """|d^n/dx^n sin(a x + b)| = |a|^n |sin or cos(a x + b)|."""
    a, b = facts["a"], facts["b"]
    theta = a * x + b
    trig = np.sin(theta) if n % 2 == 0 else np.cos(theta)
    return abs(a) ** n * np.abs(trig)


def check_lab_envelope_sin(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    grid = _grid(cmd.facts)
    nmax = cmd.facts["nmax"]
    want = [math.log(float(np.max(sin_derivative_abs(cmd.facts, n, grid)))) for n in range(nmax + 1)]
    p.close("m_est_log", doc["m_est_log"], want, 0.0, HULL_ATOL)
    return p


def check_lab_spacing_sin(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    facts = cmd.facts
    nmax = facts["nmax"]
    a, b = facts["a"], facts["b"]
    lo, hi = facts["domain"]
    xs = np.array(doc["x"], dtype=float)
    if not p.expect(xs.size == nmax + 1, "zero chain length is not nmax + 1"):
        return p
    p.expect(bool(np.all((xs >= lo) & (xs <= hi))), "zero chain leaves the domain")
    # x_n is a zero of f^(n) = a^n sin(a x + b + n pi/2)
    for n, x in enumerate(xs):
        theta = a * x + b
        residual = abs(math.sin(theta) if n % 2 == 0 else math.cos(theta))
        p.expect(residual <= ZERO_ATOL, f"x[{n}] = {x!r} is not a zero of f^({n})")
    # first zero of f in the domain: a x + b = k pi
    ks = np.arange(math.floor((min(a * lo, a * hi) + b) / math.pi) - 1,
                   math.ceil((max(a * lo, a * hi) + b) / math.pi) + 2)
    zeros = np.sort((ks * math.pi - b) / a)
    first = float(zeros[zeros >= lo][0])
    p.close("x[0]", xs[0], first, 0.0, ZERO_ATOL)
    # consecutive derivative zeros sit a quarter period apart
    quarter = math.pi / (2.0 * abs(a))
    steps = np.abs(np.diff(xs))
    p.close("zero spacing", steps, np.full(nmax, quarter), 0.0, ZERO_ATOL)
    p.close("lhs_partial", doc["lhs_partial"], np.concatenate([[0.0], np.cumsum(steps)]), RTOL)
    # M_n = n!: M_{j-1}/M_j = 1/j, so rhs_partial[k] = H_k / e
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, nmax + 1))])
    p.close("rhs_partial", doc["rhs_partial"], harmonic / math.e, RTOL)
    if cmd.csv:
        _check_csv(p, workdir / cmd.csv, [("x", doc["x"]), ("lhs_partial", doc["lhs_partial"]),
                                          ("rhs_partial", doc["rhs_partial"])])
    return p


def check_lab_monotonic_exp(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    facts = cmd.facts
    c = facts["c"]
    grid = _grid(facts)
    # f^(n)(x) = c^n e^{c x}: positive for every order and point when c > 0
    table = np.power(c, np.arange(facts["nmax"] + 1))[:, None] * np.exp(c * grid)[None, :]
    holds = bool(np.all(table > 0.0))
    p.expect(doc["holds"] == holds, f"holds {doc['holds']} != closed form {holds}")
    p.expect(doc["witness"] is None, "a witness is reported where every sign is positive")
    return p


# ---------------------------------------------------------------------------
# weight functions


def _m_closed(mu: str, t):
    """(m, m', m'') of m(t) = t log t + t mu(t) in mpmath, mu in {0, log t,
    log log t}."""
    lt = mpmath.log(t)
    if mu == "zero":
        return t * lt, lt + 1, 1 / t
    if mu == "log":
        return 2 * t * lt, 2 * lt + 2, 2 / t
    if mu == "loglog":
        llt = mpmath.log(lt)
        return t * (lt + llt), lt + 1 + llt + 1 / lt, (1 + 1 / lt - 1 / lt**2) / t
    raise ValueError(f"no closed form here for mu = {mu!r}")


def mp_omega(mu: str, r: float) -> float:
    """omega(r) = t log r - m(t) at the root of m'(t) = log r, solved by
    mpmath.findroot in u = log t."""
    with mpmath.workdps(40):
        log_r = mpmath.log(mpmath.mpf(r))
        u = mpmath.findroot(lambda u: _m_closed(mu, mpmath.exp(u))[1] - log_r, log_r)
        t = mpmath.exp(u)
        return float(t * log_r - _m_closed(mu, t)[0])


def check_weight_analyze(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    facts = cmd.facts
    r = np.array(doc["r"], dtype=float)
    omega = np.array(doc["omega"], dtype=float)
    lam = np.array(doc["Lambda_log"], dtype=float)
    lam_int = np.array(doc["lambda_log"], dtype=float)
    if not p.expect(
        r.size == omega.size == lam.size == lam_int.size == facts["samples"],
        "sample count differs from --samples",
    ):
        return p
    p.close("r[-1]", r[-1], facts["rmax"], RTOL)
    p.expect(bool(np.all(np.diff(r) > 0)), "r is not increasing")
    p.expect(bool(np.all(np.diff(omega) > 0)), "omega is not increasing")
    p.close("Lambda_log", lam, -omega, RTOL)
    with mpmath.workdps(40):
        delta = float(_m_closed(facts["mu"], mpmath.mpf(facts["t0"]))[2])
    p.close("delta", doc["delta"], delta, RTOL)
    # the tests' 1e-9 sandwich slack, plus RTOL of |Lambda|: up to rmax = 1e12
    # Lambda reaches 1e10, where one ulp alone exceeds 1e-9
    slack = HULL_ATOL + RTOL * np.abs(lam)
    p.expect(bool(np.all(lam <= lam_int + slack)), "Lambda exceeds lambda")
    p.expect(bool(np.all(lam_int - doc["delta"] <= lam + slack)), "lambda - delta exceeds Lambda")
    for i in facts["spot"]:
        want = mp_omega(facts["mu"], float(r[i]))
        p.close(f"omega[{i}]", omega[i], want, OMEGA_RTOL)
    if cmd.csv:
        _check_csv(p, workdir / cmd.csv, [("Lambda_log", doc["Lambda_log"]), ("omega", doc["omega"]),
                                          ("lambda_log", doc["lambda_log"])])
    return p


def check_weight_check(cmd, doc: dict, workdir: Path) -> Problems:
    p = Problems()
    p.expect(doc["mu"] == cmd.facts["mu"], "mu is not echoed")
    for flag in ("sandwich_ok", "omega_increasing", "shift_ok", "algebra_ok", "ok"):
        p.expect(doc[flag] is True, f"{flag} is not true")
    return p


# ---------------------------------------------------------------------------
# CSV side outputs


def _check_csv(p: Problems, path: Path, series: list[tuple[str, list]]) -> None:
    """The CSV holds exactly the listed series, in order, with the JSON's
    values at each series' first and last row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    total = sum(len(values) for _, values in series)
    if not p.expect(lines[:1] == ["x,series,value"] and len(lines) == total + 1,
                    f"{path.name}: expected {total} rows under the header"):
        return
    row = 1
    for name, values in series:
        for offset in (0, len(values) - 1):
            _, label, value = lines[row + offset].split(",")
            p.expect(label == name and float(value) == values[offset],
                     f"{path.name}: row {row + offset} is not {name} = {values[offset]!r}")
        row += len(values)


CHECKS = {
    "seq_analyze": check_seq_analyze,
    "seq_regularize": check_seq_regularize,
    "bang_norm": check_bang_norm,
    "bang_distance": check_bang_distance,
    "gont_build": check_gont_build,
    "gont_eval": check_gont_eval,
    "gont_check": check_gont_check,
    "lab_envelope_flat": check_lab_envelope_flat,
    "lab_envelope_sin": check_lab_envelope_sin,
    "lab_spacing_sin": check_lab_spacing_sin,
    "lab_monotonic_exp": check_lab_monotonic_exp,
    "weight_analyze": check_weight_analyze,
    "weight_check": check_weight_check,
}


def check_document(cmd, doc: dict, workdir: Path) -> list[str]:
    """Problems with one parsed report; a malformed report is a problem too."""
    try:
        return list(CHECKS[cmd.kind](cmd, doc, workdir))
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def check_command(cmd, workdir: Path) -> list[str]:
    """Parse the command's report file and check it."""
    try:
        doc = json.loads((workdir / cmd.out).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"report does not parse: {exc}"]
    return check_document(cmd, doc, workdir)
