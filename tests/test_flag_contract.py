"""The exit contract under every numeric flag value.

``test_input_fuzz.py`` draws input documents; this draws the numeric flags
of every command that has them, over small fixed input files.  Floats come
from the edges of the float range, sizes from the smallest values and one
past each bound, which is rejected before anything is allocated.  Whatever
the values, a run exits 0 with a JSON report, or 2 with exactly one stderr
line, and no warning escapes.
"""

import contextlib
import io
import json
import math
import sys
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from quasikit.cli import dispatch
from quasikit.constants import MU_FAMILIES, SAMPLES_MAX
from quasikit.gontcharoff import SWEEP_MAX
from quasikit.jets import GRID_MAX, K_MAX
from quasikit.sequences import HORIZON_MAX

_EDGES = [0.0, 5e-324, 1e-300, 1.0, 1.0 + 2.0**-52, math.e, 1e154, 1e300, sys.float_info.max,
          math.inf]
FLOATS = st.sampled_from([*_EDGES, *(-x for x in _EDGES), math.nan])


def sizes(small, bound):
    return st.sampled_from([-1, 0, 1, 2, 3, small, bound + 1])


# each command's numeric flags; a flag drawn as None is left at its default
COMMANDS = {
    "weight analyze": {"--alpha": FLOATS, "--t0": FLOATS, "--rmax": FLOATS,
                       "--samples": sizes(8, SAMPLES_MAX)},
    "weight check": {"--alpha": FLOATS, "--t0": FLOATS, "--rmax": FLOATS},
    "gont eval --nodes {nodes}": {"--x": FLOATS},
    "gont check --nodes {nodes}": {"--sweep": sizes(16, SWEEP_MAX),
                                   "--seed": st.sampled_from([-1, 0, 1, 7, 2**64]),
                                   "--tolerance": FLOATS},
    "seq analyze --spec {seq}": {"--horizon": sizes(40, HORIZON_MAX), "--sigma-div": FLOATS,
                                 "--eps-conv": FLOATS},
    "lab envelope --fn {fn}": {"--nmax": sizes(8, K_MAX), "--grid": sizes(64, GRID_MAX)},
    "lab monotonic --fn {fn} --seq {seq}": {"--horizon": sizes(40, HORIZON_MAX),
                                            "--nmax": sizes(8, K_MAX),
                                            "--grid": sizes(64, GRID_MAX)},
    "lab spacing --fn {fn} --seq {seq}": {"--horizon": sizes(40, HORIZON_MAX),
                                          "--nmax": sizes(8, K_MAX),
                                          "--grid": sizes(64, GRID_MAX)},
}
# the flag a command requires, which is never left out
REQUIRED = {"gont eval --nodes {nodes}": "--x"}

SIN = {"expr": {"op": "sin", "arg": {"op": "x"}}, "domain": [0.0, 4 * math.pi]}
EXP = {"expr": {"op": "exp", "arg": {"op": "x"}}, "domain": [-3.0, -1.0]}
INPUTS = {
    # log M_64 is about 817 here, past the range of math.exp
    "seq": {"family": "gevrey", "params": {"s": 4}, "horizon": 70},
    "nodes": {"nodes": [0.0, 0.5, 1.0]},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("flags")
    paths = {}
    for name, doc in {**INPUTS, "sin": SIN, "exp": EXP}.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


@st.composite
def runs(draw):
    """A command template with its flags, each in the ``--flag=value`` form,
    and the function file it reads."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = []
    if command.startswith("weight"):
        flags.append(f"--mu={draw(st.sampled_from(MU_FAMILIES))}")
    for flag, values in COMMANDS[command].items():
        value = draw(values if flag == REQUIRED.get(command) else st.none() | values)
        if value is not None:
            flags.append(f"{flag}={value!r}")
    return command, flags, draw(st.sampled_from(["sin", "exp"]))


@given(runs())
@example(("lab spacing --fn {fn} --seq {seq}", ["--nmax=64", "--grid=64"], "sin"))
@settings(max_examples=300)
def test_numeric_flags_keep_the_exit_contract(files, run):
    command, flags, fn = run
    argv = command.format(seq=files["seq"], nodes=files["nodes"], fn=files[fn]).split() + flags
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    err = err.getvalue()
    assert caught == [], [str(w.message) for w in caught]
    assert code in (0, 2), err
    if code:
        assert out.getvalue() == ""
        assert len(err.splitlines()) == 1 and err.startswith("quasikit: "), err
    else:
        assert isinstance(json.loads(out.getvalue()), dict)
