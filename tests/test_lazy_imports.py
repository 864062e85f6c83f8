"""Start-up imports: each command runs only the library modules it uses.

The library modules load lazily, so a fresh process that parses ``--help``
loads no numpy, and one that runs a command executes only that command's
modules.  Each case runs the CLI in a subprocess under ``-W error`` through
``runpy`` (what ``python -m`` does) and lists the quasikit modules whose
bodies ran: a module still waiting to load is a ``quasikit._LazyModule``,
not a plain ``types.ModuleType``.  It also reports whether numpy, the two
stdlib modules the CLI imports only on use, ``logging`` and ``hashlib``, and
``dataclasses``, which only the library modules import, were loaded.
"""

import json
import os
import subprocess
import sys
import types

import pytest

import quasikit as qk

LIBRARY = {"sequences", "series", "qa", "bang", "jets", "gontcharoff", "weights"}

PROBE = """\
import json, runpy, sys, types
sys.argv = ["quasikit", *sys.argv[1:]]
try:
    runpy.run_module("quasikit.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
ran = [n.split(".")[1] for n, m in sys.modules.items()
       if n.startswith("quasikit.") and type(m) is types.ModuleType]
print()
loaded = [n for n in ("numpy", "logging", "hashlib", "dataclasses") if n in sys.modules]
print(json.dumps({"ran": ran, "loaded": loaded}))
"""

# the package's public names, as listed before its modules loaded lazily
PUBLIC = """
    BangNormResult BangVector ConditioningError DomainError EnvelopeReport FunctionSpec
    GontcharoffPoly Jet LogSequence QAReport QuasikitError RegularizedSequence
    SequenceSpec SeriesReport ValidationError WeightFunction abel_expand algebra_check
    analytic_criterion analyze bang bang_distance bang_norm bang_norm_bruteforce
    beta_sequence build carleman_inequality_check carleman_series cn_membership_bound
    convex_regularize decomposition_residual derivative_envelope derivative_tail_sup
    diagnose_series errors function_sequence gontcharoff gontcharoff_bound
    growth_estimate_check identity_sweep integral_oracle integral_test
    invariant_battery is_log_convex jet_derivatives jet_eval jets liminf_check
    loglog_asymptotics_check m_eval make_sequence make_weight monotonicity_check
    null_test_bound omega qa ratio_sequence ratio_series ratio_series_weight
    root_sequence root_series sequences series shift_bound_check swap_identity_residual
    transform_grid transforms translation_estimate_check weight_inf weight_inf_integer
    weights zero_spacing_experiment
""".split()


def probe(*argv, log_level=None):
    """The library modules run for one CLI command, and which of numpy,
    logging, hashlib and dataclasses it loaded.  QUASIKIT_LOG is ``log_level``, or unset."""
    env = {k: v for k, v in os.environ.items() if k != "QUASIKIT_LOG"}
    if log_level:
        env["QUASIKIT_LOG"] = log_level
    res = subprocess.run(
        [sys.executable, "-W", "error", "-c", PROBE, *argv], capture_output=True, text=True,
        env=env,
    )
    assert res.stderr == "" or argv[0] == "frobnicate" or log_level, res.stderr
    seen = json.loads(res.stdout.splitlines()[-1])
    return set(seen["ran"]) & LIBRARY, set(seen["loaded"])


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["seq", "--help"], ["frobnicate"]])
def test_parser_alone_loads_no_library(argv):
    assert probe(*argv) == (set(), set())


def test_version_prints_no_warning():
    res = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quasikit.cli", "--version"],
        capture_output=True, text=True,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, f"quasikit {qk.__version__}\n", "")


INPUTS = {
    "spec.json": {"family": "factorial", "horizon": 20},
    "vector.json": {"entries": [0.0, 0.5, 0.25]},
    "nodes.json": {"nodes": [0.0, 0.5, 1.0]},
    "fn.json": {"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [0.0, 1.0]},
    # M_n = n! bounds every derivative of sin, as lab spacing requires
    "sin.json": {"expr": {"op": "sin", "arg": {"op": "x"}}, "domain": [0.0, 6.0]},
}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["seq", "analyze", "--spec", "spec.json"], {"sequences", "series", "qa"}),
        (["bang", "norm", "--vector", "vector.json"], {"bang", "series"}),
        (["bang", "distance", "--vector", "vector.json", "--other", "vector.json"],
         {"bang", "series"}),
        (["gont", "build", "--nodes", "nodes.json"], {"gontcharoff"}),
        (["gont", "eval", "--nodes", "nodes.json", "--x", "0.25"], {"gontcharoff"}),
        # the sweep's magnitude bound leaves the log domain through series._exp
        (["gont", "check", "--nodes", "nodes.json", "--sweep", "4"], {"gontcharoff", "series"}),
        # jets takes sequences as a module, and errors holds _frozen
        (["lab", "envelope", "--fn", "fn.json", "--nmax", "4", "--grid", "8"], {"jets"}),
        (["weight", "check", "--mu", "zero"], {"weights", "series"}),
        (["weight", "analyze", "--mu", "zero", "--samples", "4"], {"weights", "series"}),
        (["seq", "make", "--spec", "spec.json"], {"sequences", "series"}),
        (["seq", "regularize", "--spec", "spec.json"], {"sequences", "series"}),
        (["lab", "monotonic", "--fn", "fn.json", "--seq", "spec.json", "--nmax", "4",
          "--grid", "8"], {"jets", "sequences", "series"}),
        (["lab", "spacing", "--fn", "sin.json", "--seq", "spec.json", "--nmax", "4",
          "--grid", "8"], {"jets", "sequences", "series"}),
    ],
)
def test_command_runs_only_its_modules(tmp_path, argv, modules):
    # at the default log level no command loads logging; the manifest's
    # digests load hashlib, so a command with no input file does not
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    loaded = {"numpy", "dataclasses"} | ({"hashlib"} if set(argv) & INPUTS.keys() else set())
    argv = [str(tmp_path / arg) if arg in INPUTS else arg for arg in argv]
    report = tmp_path / "report.json"
    assert probe(*argv, "--out", str(report)) == (modules, loaded)
    assert json.loads(report.read_text())["manifest"]["version"] == qk.__version__


@pytest.mark.parametrize("level, logs", [("quiet", False), ("info", True), ("debug", True),
                                         ("loud", False)])
def test_logging_loads_only_at_a_level_that_logs(tmp_path, level, logs):
    report = tmp_path / "report.json"
    ran, loaded = probe("weight", "check", "--mu", "zero", "--out", str(report), log_level=level)
    assert ran == {"weights", "series"}
    assert loaded == {"numpy", "dataclasses"} | ({"logging"} if logs else set())


def test_import_registers_every_library_module():
    # an outside tracer looks each module up in sys.modules before any command runs
    code = (
        "import json, sys, types, quasikit\n"
        "print(json.dumps({n: type(m) is types.ModuleType for n, m in sys.modules.items()"
        " if n.startswith('quasikit.')}))\n"
    )
    res = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True, text=True)
    ran = {f"quasikit.{name}": False for name in LIBRARY} | {"quasikit.errors": True}
    assert json.loads(res.stdout) == ran


def test_public_names_are_the_defining_modules_objects():
    assert qk.__all__ == sorted(PUBLIC)
    for name in qk.__all__:
        value = getattr(qk, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"quasikit.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
            assert value.__module__.startswith("quasikit.")
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        qk.nope


THREADS = """\
import sys, threading, quasikit
sys.setswitchinterval(1e-6)
start = threading.Barrier(4, timeout=30)
got = []
def touch():
    start.wait()
    try:
        got.append(quasikit.jets.jet_eval)
    except AttributeError as exc:
        got.append(exc)
threads = [threading.Thread(target=touch) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=30)
print(sum(thread.is_alive() for thread in threads), sum(v is quasikit.jets.jet_eval for v in got))
"""


def test_threads_that_first_touch_a_module_together_all_get_it():
    # before Python 3.13, LazyLoader let the later threads see jets half-run
    res = subprocess.run([sys.executable, "-W", "error", "-c", THREADS],
                         capture_output=True, text=True, timeout=120)
    assert (res.stdout, res.stderr) == ("0 4\n", "")


ASSIGN_FIRST = """\
import sys, quasikit
from quasikit import weights as W
W._OMEGA_CHECK_RTOL = -1.0
del W._SLACK
print(W._OMEGA_CHECK_RTOL, hasattr(W, "_SLACK"), type(sys.modules["quasikit.weights"]).__name__)
try:
    quasikit.omega(quasikit.make_weight("loglog", 10.0), 1e5)
except quasikit.ConditioningError as exc:
    print(type(exc).__name__)
"""


def test_an_assignment_before_the_first_read_sticks():
    # a write or delete runs the body first, so the body does not undo it
    res = subprocess.run([sys.executable, "-W", "error", "-c", ASSIGN_FIRST],
                         capture_output=True, text=True, timeout=120)
    assert (res.stdout, res.stderr) == ("-1.0 False module\nConditioningError\n", "")
