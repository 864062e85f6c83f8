import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasikit as qk

CLI = [sys.executable, "-m", "quasikit.cli"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*CLI, *argv], capture_output=True, text=True, env=env
    )


@pytest.fixture()
def fact_spec(tmp_path):
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({"family": "factorial", "params": {}, "horizon": 200}))
    return str(path)


@pytest.fixture()
def sin_fn(tmp_path):
    path = tmp_path / "sin.json"
    doc = {"expr": {"op": "sin", "arg": {"op": "x"}}, "domain": [0.0, 2 * math.pi]}
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert qk.__version__ in res.stdout

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_input_file(self, tmp_path):
        res = run_cli("seq", "analyze", "--spec", str(tmp_path / "nope.json"))
        assert res.returncode == 2
        assert "not found" in res.stderr

    def test_invalid_family(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"family": "wat", "horizon": 10}))
        res = run_cli("seq", "analyze", "--spec", str(path))
        assert res.returncode == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        res = run_cli("seq", "make", "--spec", str(path))
        assert res.returncode == 2

    def test_internal_numerical_failure_is_exit_1(self, tmp_path):
        fn = tmp_path / "inv.json"
        fn.write_text(
            json.dumps(
                {
                    "expr": {
                        "op": "div",
                        "left": {"op": "const", "value": 1.0},
                        "right": {"op": "x"},
                    },
                    "domain": [1e-6, 1.0],
                }
            )
        )
        res = run_cli("lab", "envelope", "--fn", str(fn), "--nmax", "64")
        assert res.returncode == 1
        assert "numerical" in res.stderr


class TestSeqCommands:
    def test_make_and_regularize(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "explicit", "logs": [0, 3, 1, 4]}))
        res = run_cli("seq", "regularize", "--spec", str(spec))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["logs_c"] == [0.0, 0.5, 1.0, 4.0]
        assert doc["principal"] == [0, 2, 3]
        assert doc["manifest"]["version"] == qk.__version__
        assert str(spec) in doc["manifest"]["inputs"]

    def test_analyze_factorial_verdicts(self, tmp_path, fact_spec):
        out = tmp_path / "report.json"
        res = run_cli(
            "seq", "analyze", "--spec", fact_spec, "--horizon", "2000",
            "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        for key in ("carleman", "root_c", "ratio_c"):
            assert doc[key]["verdict"] == "diverging_trend"
        assert doc["chain_ok"] is True

    def test_analyze_csv_rows(self, tmp_path, fact_spec):
        csv_path = tmp_path / "rows.csv"
        res = run_cli(
            "seq", "analyze", "--spec", fact_spec, "--csv", str(csv_path),
            "--out", str(tmp_path / "r.json"),
        )
        assert res.returncode == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "x,series,value"
        assert lines[1].startswith("1.0,carleman.term,")
        # 199 terms and 199 partial sums per series, three series
        assert len(lines) == 1 + 6 * 199


class TestDeterminism:
    def test_seq_analyze_byte_identical(self, tmp_path, fact_spec):
        # the same command line (same manifest) must reproduce bytes
        out, csv = tmp_path / "a.json", tmp_path / "a.csv"
        argv = ("seq", "analyze", "--spec", fact_spec, "--out", str(out), "--csv", str(csv))
        assert run_cli(*argv).returncode == 0
        first = (out.read_bytes(), csv.read_bytes())
        assert run_cli(*argv).returncode == 0
        assert (out.read_bytes(), csv.read_bytes()) == first

    def test_gont_check_seeded(self, tmp_path):
        nodes = tmp_path / "nodes.json"
        nodes.write_text(json.dumps({"nodes": [0.0, 0.5, -0.5, 1.0]}))
        out = tmp_path / "g.json"
        argv = (
            "gont", "check", "--nodes", str(nodes), "--sweep", "200",
            "--seed", "7", "--out", str(out),
        )
        assert run_cli(*argv).returncode == 0
        first = out.read_bytes()
        assert run_cli(*argv).returncode == 0
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert doc["ok"] is True
        assert doc["bound_violations"] == 0


class TestOtherCommands:
    def test_bang_norm(self, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps({"entries": [0.5, 0, 0, 0], "index_set": [0, 1, 2, 3]}))
        res = run_cli("bang", "norm", "--vector", str(vec))
        doc = json.loads(res.stdout)
        assert doc["value"] == 0.5 and doc["witness_k"] == 1

    def test_bang_distance(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"entries": [0.0, 1.0, 0.0], "index_set": [0, 1, 2]}))
        b.write_text(json.dumps({"entries": [0.0, 0.0, 0.0], "index_set": [0, 1, 2]}))
        res = run_cli("bang", "distance", "--vector", str(a), "--other", str(b))
        doc = json.loads(res.stdout)
        assert doc["value"] == json.loads(
            run_cli("bang", "norm", "--vector", str(a)).stdout
        )["value"]

    def test_gont_build_eval(self, tmp_path):
        nodes = tmp_path / "n.json"
        nodes.write_text(json.dumps({"nodes": [0.0, 1.0, 2.0]}))
        res = run_cli("gont", "eval", "--nodes", str(nodes), "--x", "1.0")
        doc = json.loads(res.stdout)
        assert doc["value"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_lab_envelope(self, tmp_path, sin_fn):
        out = tmp_path / "env.json"
        res = run_cli(
            "lab", "envelope", "--fn", sin_fn, "--nmax", "4",
            "--grid", "257", "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["m_est_log"][0] == pytest.approx(0.0, abs=1e-9)

    def test_lab_spacing(self, tmp_path, sin_fn):
        spec = tmp_path / "ones.json"
        spec.write_text(json.dumps({"family": "explicit", "logs": [0.0] * 12}))
        res = run_cli(
            "lab", "spacing", "--fn", sin_fn, "--seq", str(spec), "--nmax", "10"
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["lhs_partial"][10] >= doc["rhs_partial"][10]

    def test_weight_analyze(self, tmp_path):
        out = tmp_path / "w.json"
        csv = tmp_path / "w.csv"
        res = run_cli(
            "weight", "analyze", "--mu", "loglog", "--t0", "10",
            "--rmax", "1e6", "--samples", "16", "--out", str(out), "--csv", str(csv),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["r"]) == 16
        assert all(b > a for a, b in zip(doc["omega"], doc["omega"][1:]))
        assert csv.read_text().splitlines()[0] == "x,series,value"

    def test_weight_check(self):
        res = run_cli("weight", "check", "--mu", "zero", "--t0", "2")
        doc = json.loads(res.stdout)
        assert doc["ok"] is True

    def test_weight_check_past_p_1000_checks_the_shift_bound(self, capsys, monkeypatch):
        # the shift range p = int(t0) + 1 .. 1000 was empty here, so
        # shift_ok came out true without checking a single p
        from quasikit.cli import dispatch

        ranges = []
        real = qk.weights.shift_bound_check
        monkeypatch.setattr(
            qk.weights, "shift_bound_check",
            lambda w, j, p_lo, p_hi: ranges.append((p_lo, p_hi)) or real(w, j, p_lo, p_hi),
        )
        assert dispatch(["weight", "check", "--mu", "zero", "--t0", "2000"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shift_ok"] is True and doc["ok"] is True
        assert ranges == [(2001, 2002)] * 4

    def test_info_logging_reports_duration(self, tmp_path, fact_spec):
        res = run_cli(
            "seq", "make", "--spec", fact_spec,
            "--out", str(tmp_path / "m.json"),
            env_extra={"QUASIKIT_LOG": "info"},
        )
        assert res.returncode == 0
        assert "completed in" in res.stderr


class TestPlotData:
    def test_empty_report_header_only(self, tmp_path):
        from quasikit.cli import emit_plotdata

        path = tmp_path / "empty.csv"
        emit_plotdata([], str(path))
        assert path.read_text() == "x,series,value\n"

    def test_seq_make_output_shape(self, tmp_path):
        spec = tmp_path / "d2.json"
        spec.write_text(
            json.dumps({"family": "denjoy2", "params": {"C": 1.0}, "horizon": 10})
        )
        res = run_cli("seq", "make", "--spec", str(spec))
        doc = json.loads(res.stdout)
        assert doc["length"] == 10
        assert doc["filled"] == [0, 1, 2]
        assert doc["generator"].startswith("denjoy2")
        assert doc["logs"][0] == 0.0


class TestMoreValidation:
    def test_horizon_cannot_override_explicit(self, tmp_path):
        spec = tmp_path / "v.json"
        spec.write_text(json.dumps({"family": "explicit", "logs": [0, 1, 2]}))
        res = run_cli("seq", "analyze", "--spec", str(spec), "--horizon", "50")
        assert res.returncode == 2
        assert "horizon" in res.stderr

    def test_pset_override(self, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_text(json.dumps({"entries": [0.5, 0.0, 0.0, 0.0]}))
        pset = tmp_path / "p.json"
        pset.write_text(json.dumps({"index_set": [0, 3]}))
        res = run_cli("bang", "norm", "--vector", str(vec), "--pset", str(pset))
        doc = json.loads(res.stdout)
        # k = 0 gives max(1, .5) = 1; k = 3 gives max(e^-3, .5) = .5
        assert doc["value"] == 0.5 and doc["witness_k"] == 3

    def test_power_family_needs_alpha(self):
        res = run_cli("weight", "analyze", "--mu", "power", "--t0", "2")
        assert res.returncode == 2
        assert "alpha" in res.stderr


class TestInputBounds:
    @pytest.mark.parametrize(
        "command,grid",
        [("monotonic", "0"), ("monotonic", "-3"), ("envelope", "1"), ("spacing", str(2**14 + 1))],
    )
    def test_lab_grid_outside_bounds_exits_2(self, tmp_path, sin_fn, command, grid):
        seq = tmp_path / "geom.json"
        seq.write_text(json.dumps({"family": "explicit", "logs": [float(n) for n in range(8)]}))
        argv = ["lab", command, "--fn", sin_fn, "--nmax", "2", "--grid", grid]
        if command != "envelope":
            argv += ["--seq", str(seq)]
        res = run_cli(*argv)
        assert res.returncode == 2
        assert "grid_size" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("domain", [[0], 5, ["a", 1], [0, 1, 2], [1, 0], "ab"])
    def test_malformed_domain_exits_2(self, tmp_path, domain):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"expr": {"op": "x"}, "domain": domain}))
        res = run_cli("lab", "envelope", "--fn", str(fn), "--nmax", "2")
        assert res.returncode == 2
        assert len(res.stderr.strip().splitlines()) == 1
        assert "domain" in res.stderr

    @pytest.mark.parametrize("sweep", ["-5", "0", str(qk.gontcharoff.SWEEP_MAX + 1)])
    def test_gont_check_without_samples_exits_2(self, tmp_path, sweep):
        nodes = tmp_path / "nodes.json"
        nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
        res = run_cli("gont", "check", "--nodes", str(nodes), "--sweep", sweep)
        assert res.returncode == 2
        assert "--sweep" in res.stderr
        assert res.stdout == ""


X_EXPR = {"op": "x"}

MALFORMED_INPUTS = {
    "horizon-not-int": ("seq make --spec", {"family": "factorial", "horizon": "abc"}),
    "horizon-fractional": ("seq make --spec", {"family": "factorial", "horizon": 9.7}),
    "horizon-bool": ("seq make --spec", {"family": "factorial", "horizon": True}),
    "param-is-bool": ("seq make --spec", {"family": "gevrey", "params": {"s": True}, "horizon": 9}),
    "param-is-string": ("seq make --spec", {"family": "gevrey", "params": {"s": "2"}, "horizon": 9}),
    "params-not-object": ("seq make --spec", {"family": "factorial", "params": 5, "horizon": 9}),
    "params-list-of-pairs": (
        "seq make --spec", {"family": "factorial", "params": [["s", 1]], "horizon": 9}
    ),
    "logs-with-string": ("seq make --spec", {"family": "explicit", "logs": [0, "a", 1]}),
    "logs-nested": ("seq make --spec", {"family": "explicit", "logs": [[0, 1], [2, 3]]}),
    "logs-ragged": ("seq analyze --spec", {"family": "explicit", "logs": [[0], [1, 2]]}),
    "logs-scalar": ("seq regularize --spec", {"family": "explicit", "logs": 5}),
    "spec-not-object": ("seq make --spec", [0, 1, 2]),
    "logs-fall-fast": (
        "seq analyze --spec", {"family": "explicit", "logs": [-800 * n for n in range(9)]}
    ),
    "horizon-over-cap": (
        "seq make --spec", {"family": "factorial", "horizon": qk.sequences.HORIZON_MAX + 1}
    ),
    "horizon-flag-over-cap": (
        f"seq make --horizon {qk.sequences.HORIZON_MAX + 1} --spec",
        {"family": "factorial", "horizon": 9},
    ),
    "entries-scalar": ("bang norm --vector", {"entries": 5}),
    "entries-with-string": ("bang norm --vector", {"entries": [1.0, "a"]}),
    "index-set-with-string": ("bang norm --vector", {"entries": [1.0, 2.0], "index_set": ["x"]}),
    "index-set-not-integer": ("bang norm --vector", {"entries": [1.0, 2.0], "index_set": [0, 1.7]}),
    "vector-not-object": ("bang norm --vector", [1.0, 2.0]),
    "vector-not-object-with-pset": ("bang norm --pset {} --vector", [1.0, 2.0]),
    "nodes-bare-list": ("gont build --nodes", [0.0, 1.0]),
    "nodes-with-string": ("gont eval --x 0.5 --nodes", {"nodes": [0.0, "a"]}),
    "check-nodes-bare-list": ("gont check --nodes", [0.0, 1.0]),
    "const-past-float-range": (
        "lab envelope --fn", {"expr": {"op": "const", "value": 10**400}, "domain": [0, 1]}
    ),
    # every number of an input document past the float range
    "param-past-float-range": (
        "seq make --spec", {"family": "gevrey", "params": {"s": 10**400}, "horizon": 9}
    ),
    "node-past-float-range": ("gont build --nodes", {"nodes": [0.0, 10**400]}),
    "domain-past-float-range": ("lab envelope --fn", {"expr": X_EXPR, "domain": [0, 10**400]}),
    "pow-num-past-float-range": (
        "lab envelope --fn",
        {"expr": {"op": "pow", "arg": X_EXPR, "num": -(10**400)}, "domain": [1, 2]},
    ),
    "pow-den-past-float-range": (
        "lab envelope --fn",
        {"expr": {"op": "pow", "arg": X_EXPR, "num": 1, "den": 10**400}, "domain": [1, 2]},
    ),
}


# numeric strings and booleans convert to floats, but a JSON number is the
# only number an input document holds
NON_NUMBERS = {
    "logs-numeric-strings": ("seq make --spec", {"family": "explicit", "logs": ["0", "1.5", "4", "9"]},
                             "logs[0] = '0'"),
    "logs-bools": ("seq make --spec", {"family": "explicit", "logs": [False, True, True, True]},
                   "logs[0] = False"),
    "index-set-string-and-bool": ("bang norm --vector",
                                  {"entries": [0.5, 0.0], "index_set": ["0", True]},
                                  "index_set[0] = '0'"),
    "pset-bool": ("bang norm --pset {} --vector", {"entries": [0.5, 0.0], "index_set": [0, True]},
                  "index_set[1] = True"),
    "entries-bool": ("bang distance --other {} --vector", {"entries": [0.5, True]},
                     "entries[1] = True"),
    "nodes-string-and-bool": ("gont build --nodes", {"nodes": ["1.5", True]}, "nodes[0] = '1.5'"),
}


@pytest.mark.parametrize("case", sorted(NON_NUMBERS))
def test_strings_and_bools_exit_2_naming_the_field(tmp_path, capsys, case):
    from quasikit.cli import dispatch

    command, doc, item = NON_NUMBERS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = dispatch([*command.format(path).split(), str(path)])
    assert (code, *capsys.readouterr()) == (2, "", f"quasikit: {item} is not a number\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    from quasikit.cli import dispatch

    command, doc = MALFORMED_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = dispatch([*command.format(path).split(), str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("quasikit: ")
    assert "internal" not in err


def test_internal_error_traceback_is_logged_at_debug(tmp_path, capsys, caplog, monkeypatch):
    from quasikit import cli

    def broken(nodes):
        raise RuntimeError("handler bug")

    monkeypatch.setenv("QUASIKIT_LOG", "debug")
    monkeypatch.setattr(cli.gontcharoff, "build", broken)
    caplog.set_level(logging.DEBUG, logger="quasikit")
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"nodes": [0.0, 1.0]}))
    assert cli.dispatch(["gont", "build", "--nodes", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "quasikit: internal error: handler bug\n"
    (record,) = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG and record.exc_info[0] is RuntimeError


def test_parser_is_built_once(capsys):
    from quasikit.cli import _build_parser, dispatch

    assert _build_parser() is _build_parser()
    for _ in range(2):  # a parse leaves nothing behind for the next
        assert dispatch(["weight", "check", "--mu", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_integral_float_horizon_is_taken_whole(tmp_path, capsys):
    from quasikit.cli import dispatch

    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "factorial", "horizon": 12.0}))
    assert dispatch(["seq", "make", "--spec", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["length"] == 12


OVERFLOWING_GONT = {
    # the scaled coefficients leave the float range
    "build": ("gont build --nodes", [1e120, -1e120, 3e119]),
    "eval": ("gont eval --x 1e119 --nodes", [1e120, -1e120, 3e119]),
    "check": ("gont check --nodes", [1e120, -1e120, 3e119]),
    # finite coefficients, but a value past the float range
    "eval-value": ("gont eval --x 1e200 --nodes", [0.0, 0.0]),
    "eval-nan-x": ("gont eval --x nan --nodes", []),
    "check-samples": ("gont check --sweep 20 --nodes", [1e154, 1e154]),
    "check-samples-n3": ("gont check --sweep 20 --nodes", [1e103, 1e103, 1e103]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_GONT))
def test_gont_past_float_range_exits_2(tmp_path, capsys, case):
    # a report never carries Infinity or NaN, and a sweep whose residuals are
    # all NaN is not a pass
    from quasikit.cli import dispatch

    command, nodes = OVERFLOWING_GONT[case]
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"nodes": nodes}))
    code = dispatch([*command.split(), str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("quasikit: ")
    assert "internal" not in err


@pytest.mark.parametrize("samples", ["0", "-3", str(2**14 + 1)])
def test_weight_samples_outside_bounds_exit_2(capsys, samples):
    from quasikit.cli import dispatch

    code = dispatch(["weight", "analyze", "--mu", "loglog", "--samples", samples])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "--samples" in err and len(err.strip().splitlines()) == 1


def test_spacing_envelope_past_the_float_range_exits_0(tmp_path, capsys):
    # log M_64 is about 817 for Gevrey s = 4, where math.exp overflows
    from quasikit.cli import dispatch

    fn, seq = tmp_path / "sin.json", tmp_path / "gevrey.json"
    fn.write_text(json.dumps({"expr": {"op": "sin", "arg": {"op": "x"}},
                              "domain": [0.0, 4 * math.pi]}))
    seq.write_text(json.dumps({"family": "gevrey", "params": {"s": 4}, "horizon": 70}))
    argv = ["lab", "spacing", "--fn", str(fn), "--seq", str(seq), "--nmax", "64", "--grid", "64"]
    assert dispatch(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and len(json.loads(out)["x"]) == 65


def test_spacing_step_past_the_float_range_exits_2(tmp_path, capsys):
    # the partial-sum step M_0 / M_1 = e^710 is +inf, which no report carries
    from quasikit.cli import dispatch

    fn, seq = tmp_path / "fn.json", tmp_path / "seq.json"
    fn.write_text(json.dumps({"expr": {"op": "mul", "left": {"op": "const", "value": 1e-310},
                                       "right": {"op": "sin", "arg": {"op": "x"}}},
                              "domain": [0.5, 10.0]}))
    seq.write_text(json.dumps({"family": "explicit", "logs": [0, -710, -1419, -2127]}))
    argv = ["lab", "spacing", "--fn", str(fn), "--seq", str(seq), "--nmax", "1", "--grid", "64"]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", "quasikit: a report value leaves the float range\n")


def test_monotonic_reads_the_hull_seq_regularize_writes(tmp_path, capsys):
    # a line of slope 1e8/3 and its hull are log-convex up to the rounding of
    # L_{n-1} + L_{n+1}, which at max|L_n| = 1.3e9 is past an absolute 1e-9
    from quasikit.cli import dispatch

    fn, line, hull = tmp_path / "exp.json", tmp_path / "line.json", tmp_path / "hull.json"
    fn.write_text(json.dumps({"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [0.0, 1.0]}))
    line.write_text(json.dumps({"family": "explicit", "logs": [1e8 / 3 * n for n in range(40)]}))
    assert dispatch(["seq", "regularize", "--spec", str(line)]) == 0
    reg = json.loads(capsys.readouterr().out)
    assert reg["principal"] == list(range(40))
    hull.write_text(json.dumps({"family": "explicit", "logs": reg["logs_c"]}))
    for seq in (line, hull):
        argv = ["lab", "monotonic", "--fn", str(fn), "--seq", str(seq), "--nmax", "8"]
        assert dispatch(argv) == 0
        assert capsys.readouterr().err == ""


def test_pset_without_index_set_exits_2(tmp_path, capsys):
    from quasikit.cli import dispatch

    vec = tmp_path / "v.json"
    vec.write_text(json.dumps({"entries": [0.5, 0.0]}))
    pset = tmp_path / "p.json"
    pset.write_text(json.dumps({"indices": [0]}))
    assert dispatch(["bang", "norm", "--vector", str(vec), "--pset", str(pset)]) == 2
    assert "index_set" in capsys.readouterr().err


HUGE_T0 = sys.float_info.max / 2**20  # the largest t0 whose validation grid t0 2^20 is finite


@pytest.mark.parametrize("mu", ["zero", "log", "loglog", "power"])
@pytest.mark.parametrize("t0", [HUGE_T0, math.nextafter(HUGE_T0, math.inf), 1e303,
                                sys.float_info.max])
def test_weight_check_at_huge_t0_leaks_no_warning(capsys, mu, t0):
    import warnings

    from quasikit.cli import dispatch

    argv = ["weight", "check", "--mu", mu, "--t0", repr(t0), "--alpha", "0.5"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    out, err = capsys.readouterr()
    assert caught == []
    if t0 == HUGE_T0:
        assert (code, err) == (0, "") or code == 2 and len(err.splitlines()) == 1
    else:
        assert (code, out) == (2, "")
        assert err == f"quasikit: t0 = {t0:g} is too large: t0 2^20 leaves the float range\n"


def test_negative_exponent_form_flag_value_takes_the_equals_form(tmp_path, capsys):
    # argparse reads "--x -1e-3" as a missing value and an option
    from quasikit.cli import dispatch

    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"nodes": [0.0, 0.5, 1.0]}))
    assert dispatch(["gont", "eval", "--nodes", str(path), "--x=-1e-3"]) == 0
    assert json.loads(capsys.readouterr().out)["x"] == -0.001


def test_plotdata_streams_column_blocks(tmp_path):
    import itertools

    from quasikit.cli import emit_plotdata

    path = tmp_path / "blocks.csv"
    emit_plotdata([("a", [1.0, 2.0], [0.5, -math.inf]), ("b", [3.0], [1e-300])], str(path))
    assert path.read_text() == "x,series,value\n1.0,a,0.5\n2.0,a,-inf\n3.0,b,1e-300\n"
    # an x column may be a counter, a list or a map; rows stop at the shorter column
    values = [0.1, -0.0, 1e16, 5e-324]
    blocks = [("c.term", itertools.count(1.0), values), ("l", [0.5, 1e-05], values),
              ("m", map(float, [0, 2, 7]), values)]
    emit_plotdata(blocks, str(path))
    rows = [f"{x!r},{s},{v!r}\n" for s, xs, vs in
            [("c.term", [1.0, 2.0, 3.0, 4.0], values), ("l", [0.5, 1e-05], values),
             ("m", [0.0, 2.0, 7.0], values)] for x, v in zip(xs, vs)]
    assert path.read_text() == "x,series,value\n" + "".join(rows)


IO_FAILURES = ("input-is-directory", "input-not-utf8", "out-dir-missing", "csv-dir-missing",
               "csv-dir-missing-stdout")


@pytest.mark.parametrize("case", IO_FAILURES)
def test_io_errors_exit_2_with_one_line(tmp_path, capsys, case):
    # no report comes out, neither to --out nor to stdout
    from quasikit.cli import dispatch

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "factorial", "horizon": 9}))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"family": "factorial", "horizon": 9, "note": "\u00e9"}'.encode("latin-1"))
    out, missing = tmp_path / "o.json", tmp_path / "missing"
    argv = {
        "input-is-directory": ["seq", "make", "--spec", str(tmp_path)],
        "input-not-utf8": ["seq", "make", "--spec", str(latin1)],
        "out-dir-missing": ["seq", "make", "--spec", str(spec), "--out", str(missing / "o.json")],
        "csv-dir-missing": ["seq", "analyze", "--spec", str(spec), "--out", str(out),
                            "--csv", str(missing / "x.csv")],
        "csv-dir-missing-stdout": ["seq", "analyze", "--spec", str(spec),
                                   "--csv", str(missing / "x.csv")],
    }[case]
    code = dispatch(argv)
    stdout, err = capsys.readouterr()
    assert code == 2 and stdout == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("quasikit: ")
    assert "internal" not in err
    assert not out.exists() or out.read_text() == ""


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_failed_write_names_its_target(tmp_path, capsys, flag):
    # a write error carries no file name; the message names the path written
    from quasikit.cli import dispatch

    code = dispatch(["weight", "analyze", "--mu", "loglog", "--samples", "4", flag, "/dev/full"])
    stdout, err = capsys.readouterr()
    assert code == 2 and stdout == ""
    assert err.startswith("quasikit: cannot write /dev/full: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command,name",
    [("seq analyze --spec {spec} --sigma-div=nan", "sigma_div"),
     ("seq analyze --spec {spec} --sigma-div=inf", "sigma_div"),
     ("seq analyze --spec {spec} --eps-conv=nan", "eps_conv"),
     ("seq analyze --spec {spec} --eps-conv=-inf", "eps_conv"),
     ("gont check --sweep 4 --nodes {nodes} --tolerance=nan", "tolerance"),
     ("gont check --sweep 4 --nodes {nodes} --seed -1", "seed"),
     ("weight analyze --mu zero --samples 4 --rmax=inf", "r_max"),
     ("weight check --mu zero --rmax=nan", "r_max")],
)
def test_non_finite_thresholds_exit_2(tmp_path, capsys, command, name):
    from quasikit.cli import dispatch

    spec, nodes = tmp_path / "spec.json", tmp_path / "nodes.json"
    spec.write_text(json.dumps({"family": "factorial", "horizon": 50}))
    nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
    code = dispatch(command.format(spec=spec, nodes=nodes).split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and name in err


WEIGHT_RADII_PAST_FLOAT_RANGE = {
    # e^(m'(t0 + 1.5)) overflows: the start radius is rejected before the exp
    "check-start-radius": ("weight check --mu power --alpha 0.5 --t0 1e17", "t0 = 1e+17"),
    "analyze-start-radius": ("weight analyze --mu power --alpha 0.5 --t0 1e300 --rmax 1e308",
                             "t0 = 1e+300"),
    # m(t*) overflows, so Lambda is inf - inf: no verdict comes from a NaN
    "check-transform": ("weight check --mu zero --t0 1e300 --rmax 1e308", "float range"),
    "analyze-transform": ("weight analyze --mu zero --t0 1e300 --rmax 1e308", "float range"),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_RADII_PAST_FLOAT_RANGE))
def test_weight_radii_past_the_float_range_exit_2(capsys, case):
    # a numpy warning would fail this in-process run with an internal error
    from quasikit.cli import dispatch

    command, message = WEIGHT_RADII_PAST_FLOAT_RANGE[case]
    code = dispatch(command.split())
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and message in err
    assert "internal" not in err


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


STRICT_JSON_COMMANDS = {
    "seq-make": "seq make --spec {fact}",
    "seq-regularize": "seq regularize --spec {fact}",
    "seq-analyze": "seq analyze --spec {fact} --csv {csv}",
    "bang-norm": "bang norm --vector {vector} --pset {pset}",
    "bang-distance": "bang distance --vector {vector} --other {other}",
    "gont-build": "gont build --nodes {nodes}",
    "gont-eval": "gont eval --nodes {nodes} --x 1.0",
    "gont-check": "gont check --nodes {nodes} --sweep 200 --seed 7",
    "lab-envelope": "lab envelope --fn {sin} --nmax 4 --grid 257 --csv {csv}",
    "lab-envelope-vanishing": "lab envelope --fn {line} --nmax 3 --grid 5 --csv {csv}",
    "lab-monotonic": "lab monotonic --fn {exp} --seq {fact} --nmax 20",
    "lab-spacing": "lab spacing --fn {sin} --seq {ones} --nmax 10 --csv {csv}",
    "weight-analyze": "weight analyze --mu loglog --t0 10 --rmax 1e6 --samples 16 --csv {csv}",
    "weight-check": "weight check --mu zero --t0 2",
    # the shift check's integers p pass 2^53 here
    "weight-check-huge-t0": "weight check --mu zero --t0 1e300",
}


STRICT_JSON_INPUTS = {
    "fact": {"family": "factorial", "params": {}, "horizon": 200},
    "sin": {"expr": {"op": "sin", "arg": {"op": "x"}}, "domain": [0.0, 2 * math.pi]},
    "nodes": {"nodes": [0.0, 0.5, -0.5, 1.0]},
    "vector": {"entries": [0.5, 0.0, 0.0, 0.0], "index_set": [0, 1, 2, 3]},
    "other": {"entries": [0.0, 1.0, 0.0, 0.0], "index_set": [0, 1, 2, 3]},
    "pset": {"index_set": [0, 3]},
    "ones": {"family": "explicit", "logs": [0.0] * 12},
    "line": {"expr": {"op": "x"}, "domain": [0, 1]},
    "exp": {"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [0, 1]},
}

GOLDEN = Path(__file__).parent / "golden"


def golden_argv(case: str) -> list[str]:
    """The argv of one STRICT_JSON_COMMANDS form on relative paths, with its
    inputs written to the current directory, so the manifest holds no
    temporary directory."""
    names = {"csv": "rows.csv"}
    for name, doc in STRICT_JSON_INPUTS.items():
        names[name] = f"{name}.json"
        Path(names[name]).write_text(json.dumps(doc))
    return STRICT_JSON_COMMANDS[case].format(**names).split()


def strict_json_outputs(case: str) -> tuple[bytes, bytes | None]:
    """The report and CSV bytes of one STRICT_JSON_COMMANDS form, run in the
    current directory."""
    from quasikit.cli import dispatch

    code = dispatch([*golden_argv(case), "--out", "report.json"])
    assert code == 0
    csv = Path("rows.csv").read_bytes() if "{csv}" in STRICT_JSON_COMMANDS[case] else None
    return Path("report.json").read_bytes(), csv


def write_golden() -> None:
    """Regenerate ``tests/golden/`` from the code on the path (run it only
    for a deliberate report change):
    ``PYTHONPATH=src:tests python -c 'import test_cli; test_cli.write_golden()'``"""
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in STRICT_JSON_COMMANDS:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp)
            report, csv = strict_json_outputs(case)
        (GOLDEN / f"{case}.json").write_bytes(report)
        if csv is not None:
            (GOLDEN / f"{case}.csv").write_bytes(csv)


@pytest.mark.parametrize("case", sorted(STRICT_JSON_COMMANDS))
def test_every_report_is_strict_json(tmp_path, monkeypatch, case):
    # no report carries Infinity or NaN, and every CSV value is a finite float
    monkeypatch.chdir(tmp_path)
    report, csv = strict_json_outputs(case)
    json.loads(report, parse_constant=_reject_constant)
    if csv is not None:
        rows = csv.decode().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[::2])


@pytest.mark.parametrize("case", sorted(STRICT_JSON_COMMANDS))
def test_report_matches_golden(tmp_path, monkeypatch, case):
    # every report and CSV is byte-identical to the committed one
    monkeypatch.chdir(tmp_path)
    report, csv = strict_json_outputs(case)
    assert report == (GOLDEN / f"{case}.json").read_bytes()
    golden_csv = GOLDEN / f"{case}.csv"
    assert csv == (golden_csv.read_bytes() if golden_csv.exists() else None)


# the lists of numbers a report may hold: short, or holding null
REPORT_LISTS = {"m_est_log", "filled", "witness"}


def _numeric_containers(value, key=None):
    """(key, container) for each list, tuple or array of numbers in
    ``value``, with the dict key it sits under."""
    if isinstance(value, dict):
        for k, item in value.items():
            yield from _numeric_containers(item, k)
    elif isinstance(value, np.ndarray):
        yield key, value
    elif isinstance(value, (list, tuple)):
        if any(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
            yield key, value
        for item in value:
            yield from _numeric_containers(item, key)


@pytest.mark.parametrize("case", sorted(STRICT_JSON_COMMANDS))
def test_reports_hold_numbers_in_arrays(tmp_path, monkeypatch, case):
    # every run of numbers is a 1-D int64 or float64 array, which the writer
    # joins in one call, apart from the few short lists REPORT_LISTS names
    from quasikit.cli import _build_parser, _load_inputs
    from quasikit.manifest import RunManifest

    monkeypatch.chdir(tmp_path)
    args = _build_parser().parse_args(golden_argv(case))
    _load_inputs(args, RunManifest(command=[]))
    doc, _ = args.handler(args)
    for key, values in _numeric_containers(doc):
        if isinstance(values, np.ndarray):
            assert values.ndim == 1 and values.dtype in (np.float64, np.int64), (case, key)
        else:
            assert key in REPORT_LISTS, (case, key)


CSV_CASES = sorted(case for case, command in STRICT_JSON_COMMANDS.items() if "{csv}" in command)


@pytest.mark.parametrize("case", [*CSV_CASES, "weight-check"])
def test_main_writes_the_golden_bytes(tmp_path, monkeypatch, case):
    # python -m runs cli.main, which freezes the heap before the interpreter
    # exits: every file and stdout still come out whole; weight-check writes
    # its report to stdout
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(qk.__file__).resolve().parents[1])}
    env.pop("QUASIKIT_LOG", None)
    to_file = case in CSV_CASES
    argv = [*golden_argv(case), *(["--out", "report.json"] if to_file else [])]
    res = subprocess.run([*CLI, *argv], capture_output=True, env=env)
    assert (res.returncode, res.stderr) == (0, b"")
    golden = (GOLDEN / f"{case}.json").read_bytes()
    if to_file:
        assert res.stdout == b""
        assert Path("report.json").read_bytes() == golden
        assert Path("rows.csv").read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()
    else:
        # the golden manifest's command ends in --out report.json
        out_flag = b',\n      "--out",\n      "report.json"\n'
        assert golden.count(out_flag) == 1
        assert res.stdout == golden.replace(out_flag, b"\n")


def test_dispatch_leaves_the_heap_unfrozen():
    # only main, the process's last act, may freeze: a library caller or a
    # long-lived worker runs dispatch many times
    import gc

    from quasikit.cli import dispatch

    assert gc.get_freeze_count() == 0
    assert dispatch(["weight", "check", "--mu", "zero", "--t0", "2"]) == 0
    assert dispatch(["frobnicate"]) == 2
    assert gc.get_freeze_count() == 0


def test_partial_sums_past_the_float_range_exit_2(tmp_path, capsys):
    # every term e^(709 n) / e^(709 (n - 1)) = e^709 is finite, their sum is not
    from quasikit.cli import dispatch

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "explicit", "logs": [-709.0 * n for n in range(12)]}))
    assert dispatch(["seq", "analyze", "--spec", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "quasikit: partial_sums[2] of the series leaves the float range\n"


def test_partial_sums_near_the_float_range_are_fitted(tmp_path, capsys):
    # the last quartile's partial sums reach 7e307, so summing them for the
    # trend fit would overflow unscaled
    from quasikit.cli import dispatch

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "explicit", "logs": [-700.0 * n for n in range(1000)]}))
    assert dispatch(["seq", "analyze", "--spec", str(spec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    slopes = [doc[name]["slope_estimate"] for name in ("carleman", "root_c", "ratio_c")]
    assert all(1e306 < slope < 1e307 for slope in slopes)
    assert doc["chain_ok"] is True


def test_vanishing_envelope_order_is_null_without_csv_row(tmp_path):
    from quasikit.cli import dispatch

    fn, out, csv = tmp_path / "line.json", tmp_path / "env.json", tmp_path / "env.csv"
    fn.write_text(json.dumps({"expr": {"op": "x"}, "domain": [0, 1]}))
    argv = ["lab", "envelope", "--fn", str(fn), "--nmax", "3", "--grid", "5"]
    assert dispatch([*argv, "--out", str(out), "--csv", str(csv)]) == 0
    assert json.loads(out.read_text())["m_est_log"] == [0.0, 0.0, None, None]
    assert csv.read_text() == "x,series,value\n0.0,m_est_log,0.0\n1.0,m_est_log,0.0\n"


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_report_with_non_finite_value_is_not_written(tmp_path, value):
    from quasikit.cli import _write_outputs

    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.raises(qk.ValidationError, match="float range"):
        _write_outputs({"values": [1.0, value]}, str(out), str(csv), [("a", [0.0], [1.0])])
    assert not out.exists() and not csv.exists()


def test_internal_error_while_writing_prints_one_line(tmp_path, capsys, monkeypatch):
    from quasikit import cli

    def broken(blocks, path):
        raise RuntimeError("writer bug")

    monkeypatch.setattr(cli, "emit_plotdata", broken)
    out = tmp_path / "w.json"
    argv = ["weight", "analyze", "--mu", "zero", "--t0", "0.5", "--samples", "4",
            "--out", str(out), "--csv", str(tmp_path / "w.csv")]
    assert cli.dispatch(argv) == 1
    assert capsys.readouterr() == ("", "quasikit: internal error: writer bug\n")
    assert out.read_text() == ""


def test_deeply_nested_json_exits_2_as_malformed(tmp_path, capsys):
    from quasikit.cli import dispatch

    spec = tmp_path / "deep.json"
    spec.write_text("[" * 100_000)
    assert dispatch(["seq", "make", "--spec", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"quasikit: malformed JSON in {spec}: maximum recursion depth")


def test_tree_past_the_depth_bound_exits_2(tmp_path):
    # 985 neg nodes decode, but recursed past the stack before the bound
    expr = '{"op": "neg", "arg": ' * 985 + '{"op": "x"}' + "}" * 985
    fn, out = tmp_path / "deep.json", tmp_path / "env.json"
    fn.write_text(f'{{"expr": {expr}, "domain": [0.0, 1.0]}}')
    res = run_cli("lab", "envelope", "--fn", str(fn), "--out", str(out))
    assert res.returncode == 2 and res.stdout == ""
    bound = qk.jets.TREE_DEPTH_MAX
    assert res.stderr == f"quasikit: expression node at root{'.arg' * (bound + 1)} is deeper than {bound}\n"
    assert not out.exists()


def test_gont_eval_past_the_float_range_is_the_writers_to_reject(tmp_path, capsys):
    # Q_2(1e200) = 1e400 / 2 overflows; eval returns it and the writer rejects it
    from quasikit.cli import dispatch

    nodes, out = tmp_path / "nodes.json", tmp_path / "q.json"
    nodes.write_text(json.dumps({"nodes": [0.0, 0.0]}))
    argv = ["gont", "eval", "--nodes", str(nodes), "--x", "1e200", "--out", str(out)]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", "quasikit: a report value leaves the float range\n")
    assert not out.exists()


def test_monotonic_past_the_jet_order_bound_exits_2(tmp_path, capsys, fact_spec):
    # the bound is the jet tables' own, as for lab envelope
    from quasikit.cli import dispatch

    fn = tmp_path / "exp.json"
    fn.write_text(json.dumps({"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [0.0, 1.0]}))
    argv = ["lab", "monotonic", "--fn", str(fn), "--seq", fact_spec, "--nmax", "65"]
    assert dispatch(argv) == 2
    assert capsys.readouterr() == ("", "quasikit: jet order must be in [0, 64], got 65\n")


LONG_ARGS = {
    "sweep": "gont check --nodes {nodes} --sweep " + "9" * 50_000,
    "mu": "weight check --mu " + "x" * 50_000,
    "group": "x" * 50_000,
    "option": "gont build --nodes {nodes} --" + "x" * 50_000,
    "x": "gont eval --nodes {nodes} --x " + "x" * 50_000,
}


@pytest.mark.parametrize("case", sorted(LONG_ARGS))
def test_long_command_line_values_give_short_usage_errors(tmp_path, capsys, case):
    from quasikit.cli import dispatch

    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
    assert dispatch(LONG_ARGS[case].format(nodes=nodes).split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err
    assert max(len(line.encode()) for line in err.splitlines()) <= 300


def test_short_usage_errors_are_printed_whole(capsys):
    from quasikit.cli import dispatch

    assert dispatch(["weight", "check", "--mu", "x" * 40]) == 2
    line = capsys.readouterr().err.splitlines()[-1]
    assert line.endswith(f"invalid choice: '{'x' * 40}' (choose from 'zero', 'loglog', 'log', 'power')")


LONG_INTS = {
    "gont check --sweep": "gont check --nodes {nodes} --sweep {digits}",
    "gont check --seed": "gont check --nodes {nodes} --seed -{digits}",
    "weight analyze --samples": "weight analyze --mu loglog --samples {digits}",
    "lab envelope --grid": "lab envelope --fn {fn} --grid {digits}",
    "lab envelope --nmax": "lab envelope --fn {fn} --nmax {digits}",
    "lab monotonic --nmax": "lab monotonic --fn {fn} --seq {seq} --nmax {digits}",
    # below the bound, where the value used to be echoed whole
    "lab spacing --nmax": "lab spacing --fn {fn} --seq {seq} --nmax -{digits}",
}


@pytest.mark.parametrize("case", sorted(LONG_INTS))
def test_long_integer_values_give_one_short_error_line(tmp_path, capsys, fact_spec, case):
    # 4000 digits stay under Python's 4300-digit int limit, so argparse reads
    # the value and quasikit's own bound rejects it, quoted short
    from quasikit.cli import dispatch

    nodes, fn = tmp_path / "nodes.json", tmp_path / "exp.json"
    nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
    fn.write_text(json.dumps({"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [0.0, 1.0]}))
    argv = LONG_INTS[case].format(nodes=nodes, fn=fn, seq=fact_spec, digits="9" * 4000)
    assert dispatch(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("quasikit: ") and len(err.rstrip("\n").encode()) <= 200


def test_a_line_break_in_an_unknown_argument_starts_no_line(tmp_path, capsys):
    from quasikit.cli import dispatch

    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
    argv = ["gont", "build", "--nodes", str(nodes), "a\nquasikit: forged line"]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert not any(line.startswith("quasikit: forged") for line in err.splitlines())
    assert err.splitlines()[-1].endswith("unrecognized arguments: a\\nquasikit: forged line")
