"""Command-line front end: every analysis as a subcommand with JSON/CSV I/O.

Exit codes: 0 success, 2 validation, usage or I/O error, 1 internal error.  The
QUASIKIT_LOG environment variable ({quiet, info, debug}) controls stderr
logging, which imports ``logging`` only at info and debug; at debug an
internal error also logs its traceback.  Outputs embed a run manifest; a
fixed manifest (command line, input digests, version, seed) reproduces
byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import math
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import __version__
from .constants import EPS_CONV, MU_FAMILIES, SAMPLES_MAX, SIGMA_DIV
from .errors import QuasikitError, ValidationError
from .manifest import RunManifest
from . import bang, gontcharoff, jets, qa, sequences, weights


def _logger():
    """The "quasikit" logger at the QUASIKIT_LOG level, or None at the
    default, quiet, which logs nothing: ``logging`` is imported only when a
    level logs."""
    level = os.environ.get("QUASIKIT_LOG", "quiet")
    if level not in ("info", "debug"):
        return None
    import logging

    logging.basicConfig(stream=sys.stderr, level=level.upper(), format="%(name)s: %(message)s")
    return logging.getLogger("quasikit")


class InputFile(str):
    """The path given to an input-file option.  ``dispatch`` reads the file
    once, records the digest of its bytes in the manifest and sets ``doc``
    to the JSON document they hold."""


def _load_inputs(args, manifest: RunManifest) -> None:
    """Read, digest and parse each InputFile option of ``args``, once per file."""
    docs = {}
    for path in vars(args).values():
        if not isinstance(path, InputFile):
            continue
        if path not in docs:
            try:
                data = Path(path).read_bytes()
            except FileNotFoundError:
                raise ValidationError(f"input file not found: {path}") from None
            except OSError as exc:
                raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
            manifest.add_input(path, data)
            try:
                docs[path] = json.loads(data.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
                raise ValidationError(f"malformed JSON in {path}: {exc}") from None
        path.doc = docs[path]


def _field(path: InputFile, key: str):
    """The ``key`` field of the JSON object in ``path``."""
    if not isinstance(path.doc, dict) or key not in path.doc:
        raise ValidationError(f"{path} must hold a JSON object with a '{key}' field")
    return path.doc[key]


class _Items:
    """The items of an array that the report joined: ``text``, split at
    ``sep``."""

    __slots__ = ("text", "sep")

    def __init__(self, text: str, sep: str):
        self.text, self.sep = text, sep


def _ndarray():
    """numpy's array type, or ``()`` while numpy is not loaded, when no value
    can be an array."""
    numpy = sys.modules.get("numpy")
    return numpy.ndarray if numpy else ()


def _encode_spans(value) -> tuple[list, dict]:
    """The pieces of ``json.dumps(value, indent=2, allow_nan=False,
    default=numpy.ndarray.tolist)``, in order, and ``spans[id(xs)]``, the
    ``_Items`` of each 1-D int64 or float64 array ``xs``, whose items are
    joined from one ``map`` over ``__repr__`` instead of one encoder step per
    item.  Every other value goes through ``json.dumps``, so escaping is the
    stdlib's; a non-finite float raises ValueError as ``allow_nan=False``
    does.  The pieces are not joined: the report is written from them."""
    pieces: list[str] = []
    spans: dict = {}
    _encode_into(value, "\n", pieces, spans)
    return pieces, spans


def _encode_into(value, indent: str, pieces: list, spans: dict) -> None:
    """Append the text of ``value`` to ``pieces``; for a joined array ``xs``,
    ``spans[id(xs)]`` is the ``_Items`` of its text.  An array is boxed with
    ``tolist`` just before it is joined, so one boxed list is alive at a
    time.  An array met again at the same depth takes its text from
    ``spans``; at another depth it is joined with its own separator, and
    ``spans`` keeps the first text."""
    is_array = isinstance(value, _ndarray())
    inner = indent + "  "
    sep = "," + inner
    if is_array and value.ndim == 1 and value.size and value.dtype.str[1:] in ("f8", "i8"):
        span = spans.get(id(value))
        if span is None or span.sep != sep:
            items = value.tolist()
            if value.dtype.kind == "f" and not all(map(math.isfinite, items)):
                raise ValueError("Out of range float values are not JSON compliant")
            span = _Items(sep.join(map(repr, items)), sep)
            spans.setdefault(id(value), span)
        pieces.extend(("[" + inner, span.text, indent + "]"))
        return
    items = value.tolist() if is_array else value
    if isinstance(items, (list, tuple)) and items:
        lead = "[" + inner
        for item in items:
            pieces.append(lead)
            _encode_into(item, inner, pieces, spans)
            lead = sep
        pieces.append(indent + "]")
    elif isinstance(value, dict) and value:
        lead = "{" + inner
        for key, item in value.items():
            pieces.append(f"{lead}{_encode_key(key)}: ")
            _encode_into(item, inner, pieces, spans)
            lead = sep
        pieces.append(indent + "}")
    else:
        pieces.append(json.dumps(items, allow_nan=False))


def _encode_key(key) -> str:
    """A dict key as ``json`` writes it: a scalar key becomes its JSON text,
    then every key is quoted as a string."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = json.dumps(key, allow_nan=False)
    return json.dumps(key)


def _write_outputs(doc: dict, out: str | None, csv_path: str | None, blocks) -> None:
    """Write the CSV rows, then the JSON report.  The report's file is opened
    first and written last, so no report comes out when either fails.  A
    report holding Infinity or NaN, which JSON (RFC 8259) has no token for,
    is rejected before anything is written.  A CSV column that is one of the
    report's joined arrays takes its strings from the report's text, and the
    report is written piece by piece, never joined."""
    try:
        pieces, spans = _encode_spans(doc)
    except ValueError:
        raise ValidationError("a report value leaves the float range") from None
    with (
        _naming(out or "stdout"),
        open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as handle,
    ):
        if csv_path:
            with _naming(csv_path):
                emit_plotdata([(series, spans.get(id(xs), xs), spans.get(id(values), values))
                               for series, xs, values in blocks or []], csv_path)
        handle.writelines(pieces)
        handle.write("\n")


@contextmanager
def _naming(target: str):
    """A failed write or close as a ValidationError naming its file, or
    ``target`` where the OSError names none."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename or target}: {exc.strerror}") from None


# rows per write in emit_plotdata
CSV_CHUNK = 4096


def _strings(column):
    """The ``repr`` strings of a column's items: split from the report's text
    for ``_Items``, a list for a list, tuple or array, else an iterator.  An
    array is boxed first: numpy's scalars have reprs of their own."""
    if isinstance(column, _Items):
        return column.text.split(column.sep)
    if isinstance(column, _ndarray()):
        column = column.tolist()
    strings = map(repr, column)
    return list(strings) if isinstance(column, (list, tuple)) else strings


def emit_plotdata(blocks, path: str) -> None:
    """Write flat (x, series, value) rows from (series, xs, values) column
    blocks, one block after another, streamed to the file CSV_CHUNK rows at
    a time.  Each row is ``f"{x!r},{series},{v!r}\\n"``; rows stop at the
    shorter column.  An x column that consecutive blocks share is formatted
    once."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("x,series,value\n")
        x_column = x_strings = None
        for series, xs, values in blocks:
            if xs is not x_column:
                x_column, x_strings = xs, _strings(xs)
            rows = zip(x_strings, itertools.repeat(f",{series},"), _strings(values),
                       itertools.repeat("\n"))
            parts = itertools.chain.from_iterable(rows)
            while chunk := "".join(itertools.islice(parts, 4 * CSV_CHUNK)):
                handle.write(chunk)
            del rows, parts  # free this column before the next one is split


def _load_sequence(spec: InputFile, horizon: int | None) -> sequences.LogSequence:
    return sequences.make_sequence(sequences.SequenceSpec.from_json(spec.doc), horizon=horizon)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the result document plus the CSV column
# blocks, built from the document's own lists and arrays)

def _cmd_seq_make(args):
    seq = _load_sequence(args.spec, args.horizon)
    return {
        "length": seq.length,
        "logs": seq.logs,
        "generator": seq.generator,
        "filled": seq.filled,
    }, None


def _cmd_seq_regularize(args):
    seq = _load_sequence(args.spec, args.horizon)
    reg = sequences.convex_regularize(seq)
    return reg.to_json(), None


def _cmd_seq_analyze(args):
    seq = _load_sequence(args.spec, args.horizon)
    doc = qa.analyze(seq, sigma_div=args.sigma_div, eps_conv=args.eps_conv).to_json()
    columns = [
        (f"{name}.{row}", doc[name][key])
        for name in ("carleman", "root_c", "ratio_c")
        for row, key in (("term", "terms"), ("partial_sum", "partial_sums"))
    ]
    # one x column 1.0, 2.0, ... that all six blocks share
    xs = list(map(float, range(1, 1 + max(len(values) for _, values in columns))))
    return doc, [(series, xs, values) for series, values in columns]


def _cmd_bang_norm(args):
    doc = args.vector.doc
    if args.pset and isinstance(doc, dict):
        doc = {**doc, "index_set": _field(args.pset, "index_set")}
    vector = bang.BangVector.from_json(doc)
    return bang.bang_norm(vector).to_json(), None


def _cmd_bang_distance(args):
    x = bang.BangVector.from_json(args.vector.doc)
    y = bang.BangVector.from_json(args.other.doc)
    return bang.bang_distance(x, y).to_json(), None


def _cmd_gont_build(args):
    return gontcharoff.build(_field(args.nodes, "nodes")).to_json(), None


def _cmd_gont_eval(args):
    poly = gontcharoff.build(_field(args.nodes, "nodes"))
    return {"degree": poly.degree, "x": args.x, "value": poly.eval(args.x)}, None


def _cmd_gont_check(args):
    if not 1 <= args.sweep <= gontcharoff.SWEEP_MAX:
        raise ValidationError(
            f"--sweep must be in [1, {gontcharoff.SWEEP_MAX}], got {args.sweep}"
        )
    nodes = _field(args.nodes, "nodes")
    return gontcharoff.identity_sweep(nodes, args.sweep, args.seed, args.tolerance), None


def _cmd_lab_envelope(args):
    f = jets.FunctionSpec.from_json(args.fn.doc)
    doc = jets.derivative_envelope(f, args.nmax, grid_size=args.grid).to_json()
    doc["note"] = "grid maxima are lower bounds of the true sup"
    logs = doc["m_est_log"]
    orders = [n for n, v in enumerate(logs) if v is not None]  # a vanishing order has no row
    return doc, [("m_est_log", map(float, orders), [logs[n] for n in orders])]


def _cmd_lab_monotonic(args):
    f = jets.FunctionSpec.from_json(args.fn.doc)
    seq = _load_sequence(args.seq, args.horizon)
    result = jets.monotonicity_check(f, seq, args.nmax, grid_size=args.grid)
    return {
        "holds": result.holds,
        "witness": result.witness,
    }, None


def _cmd_lab_spacing(args):
    f = jets.FunctionSpec.from_json(args.fn.doc)
    seq = _load_sequence(args.seq, args.horizon)
    doc = jets.zero_spacing_experiment(f, seq, args.nmax, grid_size=args.grid).to_json()
    return doc, [
        (name, itertools.count(0.0), doc[name]) for name in ("x", "lhs_partial", "rhs_partial")
    ]


def _cmd_weight_analyze(args):
    if not 1 <= args.samples <= SAMPLES_MAX:
        raise ValidationError(f"--samples must be in [1, {SAMPLES_MAX}], got {args.samples}")
    w = weights.make_weight(args.mu, args.t0, alpha=args.alpha)
    doc = {"mu": args.mu, "t0": w.t0, "delta": w.delta}
    doc.update(weights.transform_grid(w, args.rmax, args.samples))
    return doc, [(name, doc["r"], doc[name]) for name in ("Lambda_log", "omega", "lambda_log")]


def _cmd_weight_check(args):
    w = weights.make_weight(args.mu, args.t0, alpha=args.alpha)
    doc = {"mu": args.mu, "t0": w.t0, "delta": w.delta}
    doc.update(weights.invariant_battery(w, args.rmax))
    return doc, None


# ---------------------------------------------------------------------------
# parser wiring

class _Parser(argparse.ArgumentParser):
    """A parser that cuts a usage error to its first 160 characters, so that
    an echoed command-line value stays short; its subparsers are _Parsers."""

    def error(self, message):
        short = message[:160]
        super().error(short if short == message else f"{short}...")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(
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
    p.add_argument("--spec", type=InputFile, required=True)
    p.add_argument("--horizon", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_seq_make)
    p = seq.add_parser("regularize", help="convex regularization")
    p.add_argument("--spec", type=InputFile, required=True)
    p.add_argument("--horizon", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_seq_regularize)
    p = seq.add_parser("analyze", help="criterion series and verdicts")
    p.add_argument("--spec", type=InputFile, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--sigma-div", type=float, default=SIGMA_DIV, dest="sigma_div")
    p.add_argument("--eps-conv", type=float, default=EPS_CONV, dest="eps_conv")
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_seq_analyze)

    bang_group = top.add_parser("bang", help="sequence-space norm").add_subparsers(
        dest="command", required=True
    )
    p = bang_group.add_parser("norm", help="norm of a vector")
    p.add_argument("--vector", type=InputFile, required=True)
    p.add_argument("--pset", type=InputFile, help="JSON file overriding the index set")
    add_common(p)
    p.set_defaults(handler=_cmd_bang_norm)
    p = bang_group.add_parser("distance", help="norm of the difference")
    p.add_argument("--vector", type=InputFile, required=True)
    p.add_argument("--other", type=InputFile, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_bang_distance)

    gont = top.add_parser("gont", help="Abel-Gontcharoff polynomials").add_subparsers(
        dest="command", required=True
    )
    p = gont.add_parser("build", help="construct the polynomial")
    p.add_argument("--nodes", type=InputFile, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_build)
    p = gont.add_parser("eval", help="evaluate at a point")
    p.add_argument("--nodes", type=InputFile, required=True)
    p.add_argument("--x", type=float, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_eval)
    p = gont.add_parser("check", help="randomized identity sweep")
    p.add_argument("--nodes", type=InputFile, required=True)
    p.add_argument("--sweep", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(handler=_cmd_gont_check)

    lab = top.add_parser("lab", help="function experiments").add_subparsers(
        dest="command", required=True
    )
    p = lab.add_parser("envelope", help="derivative magnitude envelope")
    p.add_argument("--fn", type=InputFile, required=True)
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--grid", type=int, default=256)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_lab_envelope)
    p = lab.add_parser("monotonic", help="derivative positivity scan")
    p.add_argument("--fn", type=InputFile, required=True)
    p.add_argument("--seq", type=InputFile, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--grid", type=int, default=256)
    add_common(p)
    p.set_defaults(handler=_cmd_lab_monotonic)
    p = lab.add_parser("spacing", help="zero-spacing experiment")
    p.add_argument("--fn", type=InputFile, required=True)
    p.add_argument("--seq", type=InputFile, required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--grid", type=int, default=1024)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_lab_spacing)

    weight = top.add_parser("weight", help="continuous weight functions").add_subparsers(
        dest="command", required=True
    )
    p = weight.add_parser("analyze", help="sample the transforms")
    p.add_argument("--mu", required=True, choices=MU_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--rmax", type=float, default=1e6)
    p.add_argument("--samples", type=int, default=64)
    add_common(p, csv=True)
    p.set_defaults(handler=_cmd_weight_analyze)
    p = weight.add_parser("check", help="invariant battery")
    p.add_argument("--mu", required=True, choices=MU_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--t0", type=float, default=10.0)
    p.add_argument("--rmax", type=float, default=1e6)
    add_common(p)
    p.set_defaults(handler=_cmd_weight_check)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse and run one command; returns the process exit code."""
    log = _logger()
    try:
        args = _build_parser().parse_args(argv)
        manifest = RunManifest(command=["quasikit", *argv], seed=getattr(args, "seed", None))
        started = time.monotonic()
        _load_inputs(args, manifest)
        doc, blocks = args.handler(args)
        if log:
            log.info("completed in %.3f s", time.monotonic() - started)
        output = {"manifest": manifest.to_json()}
        output.update(doc)
        _write_outputs(output, getattr(args, "out", None), getattr(args, "csv", None), blocks)
    except SystemExit as exc:  # argparse's usage error, --help or --version
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"quasikit: {exc}", file=sys.stderr)
        return 2
    except QuasikitError as exc:
        print(f"quasikit: internal numerical failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"quasikit: internal error: {exc}", file=sys.stderr)
        if log:
            log.debug("traceback of the internal error", exc_info=True)
        return 1
    return 0


def main() -> None:
    code = dispatch(sys.argv[1:])
    # Freezing moves every tracked object into the permanent generation, so
    # the interpreter's collections at exit skip what numpy, the modules and
    # the command left behind.  Only the process's last act may do it:
    # dispatch runs many times in one process, where a freeze would pin each
    # run's garbage.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
