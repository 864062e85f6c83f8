"""The input contract under random documents.

Every input-file subcommand runs in process on JSON documents that carry
the keys its parser reads, with random values.  Whatever the values, a run
exits 0 with a report, or exits 2 (or 1, for an internal numerical failure)
with exactly one stderr line and no report; never ``internal error``.  A
catalog ``seq make`` that exits 0 reports exactly the horizon its spec asked
for, from a spec whose numbers are not booleans.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings, strategies as st

from quasikit.cli import dispatch
from quasikit.sequences import FAMILIES

# values a parser could accept; moderate sizes keep every run short (a
# horizon of 1e6 would spend seconds encoding its report)
# integers past the float range, and one past float precision
HUGE = st.sampled_from([10**400, -(10**400), 2**1024, -(2**1024), 2**53 + 1])
REALS = st.floats(-50.0, 50.0) | st.integers(-5, 5) | HUGE
POSITIVE = st.floats(1e-3, 10.0)
# text with the characters str.splitlines breaks at, which a message must
# not echo raw
TEXT = st.text(st.characters() | st.sampled_from("\r\n\x0b\x1c\x85\u2028"), max_size=4)
# any JSON value, the edges of the float range included
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 300)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([1e308, -1e300, 1e-300, 5e-324, -0.0, math.inf, -math.inf, math.nan])
    | HUGE
    | TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=10,
)
EXPRS = st.recursive(
    st.just({"op": "x"}) | st.builds(lambda v: {"op": "const", "value": v}, REALS),
    lambda inner: (
        st.builds(lambda op, a: {"op": op, "arg": a},
                  st.sampled_from(["neg", "exp", "log", "sin", "cos"]), inner)
        | st.builds(lambda op, a, b: {"op": op, "left": a, "right": b},
                    st.sampled_from(["add", "sub", "mul", "div"]), inner, inner)
        | st.builds(lambda a, num, den: {"op": "pow", "arg": a, "num": num, "den": den},
                    inner, st.integers(-3, 5) | HUGE, st.integers(1, 3) | HUGE)
        | st.builds(lambda a, s, t: {"op": "affine", "arg": a, "a": s, "b": t},
                    inner, REALS, REALS)
    ),
    max_leaves=5,
)
# the parameter each catalog family reads
PARAM_KEYS = {"gevrey": "s", "denjoy1": "C", "denjoy2": "C"}
# non-integral floats and booleans, which a parser must not truncate or read
# as 0 and 1
PARAMS = POSITIVE | st.booleans() | HUGE
SPEC = st.fixed_dictionaries({
    "family": st.sampled_from(FAMILIES),
    "horizon": st.integers(3, 300) | st.floats(3.0, 300.0) | st.booleans(),
    "params": st.fixed_dictionaries({"s": PARAMS, "C": PARAMS}),
    "logs": st.lists(REALS, min_size=1, max_size=12).map(lambda logs: [0.0, *logs]),
})
INDEX_SETS = st.lists(st.integers(1, 7), unique=True, max_size=5).map(lambda p: [0, *sorted(p)])
VECTOR = st.fixed_dictionaries({
    "entries": st.lists(REALS, min_size=8, max_size=8),
    "index_set": INDEX_SETS,
})
DOCS = {
    "spec": SPEC,
    "seq": SPEC,
    "vector": VECTOR,
    "other": VECTOR,
    "pset": st.fixed_dictionaries({"index_set": INDEX_SETS}),
    "nodes": st.fixed_dictionaries({"nodes": st.lists(st.floats(-5.0, 5.0) | HUGE, max_size=8)}),
    "fn": st.fixed_dictionaries({"expr": EXPRS, "domain": st.lists(REALS, min_size=2, max_size=2, unique=True).map(sorted)}),
}
COMMANDS = [
    "seq make --spec {spec}",
    "seq regularize --spec {spec}",
    "seq analyze --spec {spec}",
    "bang norm --vector {vector}",
    "bang norm --vector {vector} --pset {pset}",
    "bang distance --vector {vector} --other {other}",
    "gont build --nodes {nodes}",
    "gont eval --x 0.5 --nodes {nodes}",
    "gont check --sweep 50 --nodes {nodes}",
    "lab envelope --nmax 8 --grid 64 --fn {fn}",
    "lab monotonic --nmax 8 --grid 64 --fn {fn} --seq {seq}",
    "lab spacing --nmax 8 --grid 64 --fn {fn} --seq {seq}",
]


@st.composite
def runs(draw):
    """A command and its documents; in about half of them one value is
    replaced by an arbitrary JSON value."""
    command = draw(st.sampled_from(COMMANDS))
    docs = {name: draw(DOCS[name]) for name in DOCS if "{" + name + "}" in command}
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(docs)))
        docs[name][draw(st.sampled_from(sorted(docs[name])))] = draw(JSON_VALUES)
    return command, docs


@given(runs())
@example(("lab envelope --nmax 8 --grid 64 --fn {fn}", {"fn": {"expr": {"op": "x"}, "domain": "\rz"}}))
@example(("seq make --spec {spec}", {"spec": {"family": "factorial", "horizon": 9.7}}))
@example(("seq make --spec {spec}",
          {"spec": {"family": "gevrey", "horizon": 9, "params": {"s": True}}}))
@settings(max_examples=300)
def test_random_documents_keep_the_exit_contract(tmp_path_factory, run):
    command, docs = run
    workdir = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in docs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(command.format(**paths).split())
    err = err.getvalue()
    assert "internal error:" not in err
    assert code in (0, 2) or (code == 1 and "internal numerical failure" in err), err
    if code:
        assert out.getvalue() == ""
        assert len(err.strip().splitlines()) == 1 and err.startswith("quasikit: "), err
    elif command.startswith("seq make") and docs["spec"]["family"] != "explicit":
        spec = docs["spec"]
        assert json.loads(out.getvalue())["length"] == spec["horizon"], spec
        key = PARAM_KEYS.get(spec["family"])
        assert key is None or type(dict(spec["params"])[key]) is not bool, spec
