import json
import math
import subprocess
import sys

import pytest

import quasikit as qk

CLI = [sys.executable, "-m", "quasikit.cli"]


def run_cli(*argv, env_extra=None):
    import os

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

    @pytest.mark.parametrize("sweep", ["-5", "0"])
    def test_gont_check_without_samples_exits_2(self, tmp_path, sweep):
        nodes = tmp_path / "nodes.json"
        nodes.write_text(json.dumps({"nodes": [0.0, 0.5]}))
        res = run_cli("gont", "check", "--nodes", str(nodes), "--sweep", sweep)
        assert res.returncode == 2
        assert "--sweep" in res.stderr
        assert res.stdout == ""
