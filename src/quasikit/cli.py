"""Command-line front end: every analysis as a subcommand with JSON/CSV I/O.

Exit codes: 0 success, 2 validation/usage error, 1 internal error.  The
QUASIKIT_LOG environment variable ({quiet, info, debug}) controls stderr
logging.  Outputs embed a run manifest; a fixed manifest (command line,
input digests, version, seed) reproduces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import QuasikitError, ValidationError
from .manifest import RunManifest
from . import bang, gontcharoff, jets, qa, sequences, weights
from .series import EPS_CONV, SIGMA_DIV

log = logging.getLogger("quasikit")

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("QUASIKIT_LOG", "quiet"), logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}")


def _write_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def emit_plotdata(rows: list[tuple[float, str, float]], path: str) -> None:
    """Write flat (x, series, value) rows; construction order is preserved."""
    lines = ["x,series,value"]
    for x, series, value in rows:
        lines.append(f"{x!r},{series},{value!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _series_rows(name: str, report) -> list[tuple[float, str, float]]:
    rows = []
    for i, term in enumerate(report.terms, start=1):
        rows.append((float(i), f"{name}.term", term))
    for i, total in enumerate(report.partial_sums, start=1):
        rows.append((float(i), f"{name}.partial_sum", total))
    return rows


def _load_sequence(args, attr: str = "spec") -> sequences.LogSequence:
    spec = sequences.SequenceSpec.from_json(_read_json(getattr(args, attr)))
    horizon = getattr(args, "horizon", None)
    if spec.family == "explicit" and horizon is not None:
        raise ValidationError("--horizon cannot override an explicit log vector")
    return sequences.make_sequence(spec, horizon=horizon)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the result document plus optional CSV rows)

def _cmd_seq_make(args, manifest):
    seq = _load_sequence(args)
    return {
        "length": seq.length,
        "logs": list(seq.logs),
        "generator": seq.generator,
        "filled": list(seq.filled),
    }, None


def _cmd_seq_regularize(args, manifest):
    seq = _load_sequence(args)
    reg = sequences.convex_regularize(seq)
    return reg.to_json(), None


def _cmd_seq_analyze(args, manifest):
    seq = _load_sequence(args)
    report = qa.analyze(seq, sigma_div=args.sigma_div, eps_conv=args.eps_conv)
    rows = (
        _series_rows("carleman", report.carleman)
        + _series_rows("root_c", report.root_c)
        + _series_rows("ratio_c", report.ratio_c)
    )
    return report.to_json(), rows


def _cmd_bang_norm(args, manifest):
    doc = _read_json(args.vector)
    if args.pset:
        doc = dict(doc)
        doc["index_set"] = _read_json(args.pset)["index_set"]
    vector = bang.BangVector.from_json(doc)
    return bang.bang_norm(vector).to_json(), None


def _cmd_bang_distance(args, manifest):
    x = bang.BangVector.from_json(_read_json(args.vector))
    y = bang.BangVector.from_json(_read_json(args.other))
    return bang.bang_distance(x, y).to_json(), None


def _cmd_gont_build(args, manifest):
    nodes = _read_json(args.nodes)["nodes"]
    return gontcharoff.build(nodes).to_json(), None


def _cmd_gont_eval(args, manifest):
    nodes = _read_json(args.nodes)["nodes"]
    poly = gontcharoff.build(nodes)
    return {"degree": poly.degree, "x": args.x, "value": poly.eval(args.x)}, None


def _cmd_gont_check(args, manifest):
    nodes = [float(v) for v in _read_json(args.nodes)["nodes"]]
    n = len(nodes)
    if n < 1:
        raise ValidationError("gont check needs at least one node")
    if args.sweep < 1:
        raise ValidationError(f"--sweep must be >= 1, got {args.sweep}")
    rng = np.random.default_rng(args.seed)
    lo, hi = min(nodes), max(nodes)
    if hi - lo < 1e-9:
        lo, hi = lo - 1.0, hi + 1.0
    tol = args.tolerance
    max_swap = 0.0
    max_decomp = 0.0
    bound_violations = 0
    derivative_violations = 0
    for _ in range(args.sweep):
        draw = rng.uniform(lo, hi, size=2 * n + 2)
        rand_nodes = [float(v) for v in draw[:n]]
        ys = [float(v) for v in draw[n : 2 * n]]
        x, y = float(draw[2 * n]), float(draw[2 * n + 1])
        k = int(rng.integers(0, n))
        poly = gontcharoff.build(rand_nodes)
        # residuals are judged against the cancellation headroom of the
        # evaluation, not the node magnitude
        scale = max(1.0, poly.eval_magnitude(x))
        max_swap = max(
            max_swap,
            gontcharoff.swap_identity_residual(rand_nodes, k, y, x) / scale,
        )
        max_decomp = max(
            max_decomp,
            gontcharoff.decomposition_residual(rand_nodes, ys, x) / scale,
        )
        noise = 1e-13 * scale
        if abs(poly.eval(x)) > gontcharoff.gontcharoff_bound(rand_nodes, x) * (
            1.0 + 1e-9
        ) + noise:
            bound_violations += 1
        shifted = gontcharoff.build(rand_nodes[1:])
        diff = max(
            abs(a - b)
            for a, b in zip(poly.derivative(1).scaled_coeffs, shifted.scaled_coeffs)
        )
        if diff > 1e-12 * max(1.0, max(abs(c) for c in shifted.scaled_coeffs)):
            derivative_violations += 1
    ok = (
        max_swap <= tol
        and max_decomp <= tol
        and bound_violations == 0
        and derivative_violations == 0
    )
    return {
        "sweep": args.sweep,
        "max_swap_residual_rel": max_swap,
        "max_decomposition_residual_rel": max_decomp,
        "bound_violations": bound_violations,
        "derivative_violations": derivative_violations,
        "ok": ok,
    }, None


def _cmd_lab_envelope(args, manifest):
    f = jets.FunctionSpec.from_json(_read_json(args.fn))
    report = jets.derivative_envelope(f, args.nmax, grid_size=args.grid)
    rows = [
        (float(n), "m_est_log", value) for n, value in enumerate(report.m_est_log)
    ]
    doc = report.to_json()
    doc["note"] = "grid maxima are lower bounds of the true sup"
    return doc, rows


def _cmd_lab_monotonic(args, manifest):
    f = jets.FunctionSpec.from_json(_read_json(args.fn))
    seq = _load_sequence(args, attr="seq")
    result = jets.monotonicity_check(f, seq, args.nmax, grid_size=args.grid)
    return {
        "holds": result.holds,
        "witness": list(result.witness) if result.witness else None,
    }, None


def _cmd_lab_spacing(args, manifest):
    f = jets.FunctionSpec.from_json(_read_json(args.fn))
    seq = _load_sequence(args, attr="seq")
    result = jets.zero_spacing_experiment(f, seq, args.nmax, grid_size=args.grid)
    rows = [(float(k), "x", v) for k, v in enumerate(result.x)]
    rows += [(float(k), "lhs_partial", v) for k, v in enumerate(result.lhs_partial)]
    rows += [(float(k), "rhs_partial", v) for k, v in enumerate(result.rhs_partial)]
    return result.to_json(), rows


def _cmd_weight_analyze(args, manifest):
    w = weights.make_weight(args.mu, args.t0, alpha=args.alpha)
    slope_at_origin = weights.m_eval(w, w.t0 + 1.0).m1
    r_start = 1.01 * np.exp(slope_at_origin)
    if args.rmax <= r_start * 2:
        raise ValidationError(f"--rmax must exceed {r_start * 2:g} for this t0")
    grid = np.exp(np.linspace(np.log(r_start), np.log(args.rmax), args.samples))
    r_values, lam_log, om, lam_int_log = [], [], [], []
    for r in grid:
        r = float(r)
        r_values.append(r)
        lam_log.append(weights.weight_inf(w, r).log_value)
        om.append(weights.omega(w, r))
        lam_int_log.append(weights.weight_inf_integer(w, r))
    doc = {
        "mu": args.mu,
        "t0": w.t0,
        "delta": w.delta,
        "r": r_values,
        "Lambda_log": lam_log,
        "omega": om,
        "lambda_log": lam_int_log,
    }
    rows = [(r, "Lambda_log", v) for r, v in zip(r_values, lam_log)]
    rows += [(r, "omega", v) for r, v in zip(r_values, om)]
    rows += [(r, "lambda_log", v) for r, v in zip(r_values, lam_int_log)]
    return doc, rows


def _cmd_weight_check(args, manifest):
    w = weights.make_weight(args.mu, args.t0, alpha=args.alpha)
    r_lo = 1.05 * float(np.exp(weights.m_eval(w, w.t0 + 1.5).m1))
    grid = np.exp(np.linspace(np.log(r_lo), np.log(max(args.rmax, 4 * r_lo)), 100))
    sandwich_ok = True
    omega_values = []
    for r in grid:
        r = float(r)
        lam = weights.weight_inf(w, r).log_value
        lam_int = weights.weight_inf_integer(w, r)
        omega_values.append(weights.omega(w, r))
        if not (lam_int - w.delta - 1e-9 <= lam <= lam_int + 1e-9):
            sandwich_ok = False
    omega_increasing = all(b > a for a, b in zip(omega_values, omega_values[1:]))
    shift_ok = all(
        weights.shift_bound_check(w, j, int(w.t0) + 1, 1000) for j in (0, 1, 2, 3)
    )
    algebra_ok = weights.algebra_check(w, 200)
    return {
        "mu": args.mu,
        "t0": w.t0,
        "delta": w.delta,
        "sandwich_ok": sandwich_ok,
        "omega_increasing": omega_increasing,
        "shift_ok": shift_ok,
        "algebra_ok": algebra_ok,
        "ok": sandwich_ok and omega_increasing and shift_ok and algebra_ok,
    }, None


# ---------------------------------------------------------------------------
# parser wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasikit",
        description="Quasianalytic weight-sequence toolkit",
    )
    parser.add_argument("--version", action="version", version=f"quasikit {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    def add_common(p, csv=False):
        p.add_argument("--out", help="write the JSON report here (default stdout)")
        if csv:
            p.add_argument("--csv", help="also write flat (x,series,value) rows")

    seq = top.add_parser("seq", help="weight-sequence analyses").add_subparsers(
        dest="command", required=True
    )
    p = seq.add_parser("make", help="materialize a catalog sequence")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_seq_make)
    p = seq.add_parser("regularize", help="convex regularization")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_seq_regularize)
    p = seq.add_parser("analyze", help="criterion series and verdicts")
    p.add_argument("--spec", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--sigma-div", type=float, default=SIGMA_DIV, dest="sigma_div")
    p.add_argument("--eps-conv", type=float, default=EPS_CONV, dest="eps_conv")
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_seq_analyze)

    bang_group = top.add_parser("bang", help="sequence-space norm").add_subparsers(
        dest="command", required=True
    )
    p = bang_group.add_parser("norm", help="norm of a vector")
    p.add_argument("--vector", required=True)
    p.add_argument("--pset", help="JSON file overriding the index set")
    add_common(p)
    p.set_defaults(handler=_cmd_bang_norm)
    p = bang_group.add_parser("distance", help="norm of the difference")
    p.add_argument("--vector", required=True)
    p.add_argument("--other", required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_bang_distance)

    gont = top.add_parser("gont", help="Abel-Gontcharoff polynomials").add_subparsers(
        dest="command", required=True
    )
    p = gont.add_parser("build", help="construct the polynomial")
    p.add_argument("--nodes", required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_build)
    p = gont.add_parser("eval", help="evaluate at a point")
    p.add_argument("--nodes", required=True)
    p.add_argument("--x", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_eval)
    p = gont.add_parser("check", help="randomized identity sweep")
    p.add_argument("--nodes", required=True)
    p.add_argument("--sweep", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_check)

    lab = top.add_parser("lab", help="function experiments").add_subparsers(
        dest="command", required=True
    )
    p = lab.add_parser("envelope", help="derivative magnitude envelope")
    p.add_argument("--fn", required=True)
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--grid", type=int, default=256)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_lab_envelope)
    p = lab.add_parser("monotonic", help="derivative positivity scan")
    p.add_argument("--fn", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--grid", type=int, default=256)
    add_common(p)
    p.set_defaults(handler=_cmd_lab_monotonic)
    p = lab.add_parser("spacing", help="zero-spacing experiment")
    p.add_argument("--fn", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--grid", type=int, default=1024)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_lab_spacing)

    weight = top.add_parser("weight", help="continuous weight functions").add_subparsers(
        dest="command", required=True
    )
    p = weight.add_parser("analyze", help="sample the transforms")
    p.add_argument("--mu", required=True, choices=weights.MU_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--rmax", type=float, default=1e6)
    p.add_argument("--samples", type=int, default=64)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_weight_analyze)
    p = weight.add_parser("check", help="invariant battery")
    p.add_argument("--mu", required=True, choices=weights.MU_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--rmax", type=float, default=1e6)
    add_common(p)
    p.set_defaults(handler=_cmd_weight_check)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    manifest = RunManifest(command=["quasikit", *argv], seed=getattr(args, "seed", None))
    for attr in ("spec", "seq", "vector", "other", "nodes", "fn", "pset"):
        path = getattr(args, attr, None)
        if path:
            try:
                manifest.add_input(path)
            except FileNotFoundError:
                print(f"quasikit: input file not found: {path}", file=sys.stderr)
                return 2

    started = time.monotonic()
    try:
        doc, rows = args.handler(args, manifest)
    except ValidationError as exc:
        print(f"quasikit: {exc}", file=sys.stderr)
        return 2
    except QuasikitError as exc:
        print(f"quasikit: internal numerical failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"quasikit: internal error: {exc}", file=sys.stderr)
        return 1
    manifest.duration_s = time.monotonic() - started
    log.info("completed in %.3f s", manifest.duration_s)

    output = {"manifest": manifest.to_json()}
    output.update(doc)
    _write_json(output, getattr(args, "out", None))
    csv_path = getattr(args, "csv", None)
    if csv_path:
        emit_plotdata(rows or [], csv_path)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
