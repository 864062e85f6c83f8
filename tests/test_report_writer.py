"""The report writer ``cli._encode_spans`` against its oracle, the
interpreter's ``json.dumps(doc, indent=2, default=numpy.ndarray.tolist)``, on
random nested documents of lists and arrays; and the CSV columns that take
their strings from the report's text, against rows formatted column by column
with ``repr`` over Python floats."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quasikit import cli
from quasikit.errors import ValidationError


class ListSub(list):
    pass


class DictSub(dict):
    pass


def _signed(lo, hi):
    return st.floats(min_value=lo, max_value=hi) | st.floats(min_value=-hi, max_value=-lo)


# repr switches to exponent form at 1e16 and below 1e-4; the rest are signed
# zeros, subnormals and the ends of the float range
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-4, 9.999999999999999e-05,
               1.0000000000000002e-04, 1.7976931348623157e308, -1.7976931348623157e308]
floats = (st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
          | _signed(1e15, 1e17) | _signed(1e-5, 1e-3) | _signed(0.0, 1e-307))
np_floats = floats.map(np.float64)
ints = st.integers() | _signed(2**63, 2**200).map(int) | st.sampled_from([-(2**64), 2**100 + 1])
text = st.text() | st.sampled_from(["", "\x00", "a\x00b", "\x1f\x7f\n\t\"\\", "\ud800", "é ",
                                    "\U0001f600"])
keys = text | ints | floats | st.booleans() | st.none()
scalars = floats | np_floats | ints | st.booleans() | st.none() | text
int64s = st.integers(-(2**63), 2**63 - 1)
arrays = (st.lists(floats).map(lambda xs: np.array(xs, dtype=np.float64))
          | st.lists(int64s).map(lambda xs: np.array(xs, dtype=np.int64)))
leaves = (scalars | arrays | st.lists(floats) | st.lists(ints)
          | st.lists(floats | np_floats | ints | st.booleans()))


def _containers(children):
    items = st.lists(children, max_size=4)
    pairs = st.dictionaries(keys, children, max_size=4)
    return (items | items.map(tuple) | items.map(ListSub)
            | pairs | pairs.map(DictSub))


documents = st.recursive(leaves, _containers, max_leaves=24)


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, default=np.ndarray.tolist)


def report(doc) -> str:
    """The text the writer's pieces make up."""
    return "".join(cli._encode_spans(doc)[0])


@settings(max_examples=400)
@given(documents)
@example({"f": EDGE_FLOATS, "n": [np.float64(0.1), 1, True], "e": [[], {}, ()],
          "k": {1e16: [], None: {}, True: (), -0.0: [[]]}, "s": "\x00é"})
@example({"a": np.array(EDGE_FLOATS), "i": np.array([-(2**63), 0, 2**63 - 1]),
          "e": [np.array([]), np.array([], dtype=np.int64)], "b": [np.array(EDGE_FLOATS)]})
def test_writer_matches_json_dumps(doc):
    assert report(doc) == oracle(doc)


BAD = [math.inf, -math.inf, math.nan, np.float64(math.inf)]
bad_leaves = (st.sampled_from(BAD) | st.sampled_from(BAD[:3]).map(lambda key: {key: 0.0})
              | st.sampled_from(BAD).map(lambda bad: np.array([0.5, bad])))


def _bury(children):
    # every document holds a non-finite value, at any depth
    around = st.lists(floats, max_size=3)
    in_list = st.tuples(around, children, around).map(lambda t: [*t[0], t[1], *t[2]])
    in_dict = st.tuples(st.dictionaries(text, documents, max_size=3), text, children).map(
        lambda t: {**t[0], t[1]: t[2]})
    return in_list | in_list.map(tuple) | in_dict


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.recursive(bad_leaves, _bury, max_leaves=8))
def test_non_finite_anywhere_is_rejected_before_writing(tmp_path, doc):
    with pytest.raises(ValueError):
        json.dumps(doc, indent=2, allow_nan=False, default=np.ndarray.tolist)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.raises(ValidationError, match="float range"):
        cli._write_outputs({"report": doc}, str(out), str(csv), [("a", [0.0], [1.0])])
    assert not out.exists() and not csv.exists()


def test_outputs_do_not_use_the_indenting_encoder(tmp_path, monkeypatch):
    calls = []
    dumps = cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda *a, **kw: calls.append(kw) or dumps(*a, **kw))
    doc = {"values": [0.5, 1.5], "count": [1, 2], "name": "x"}
    cli._write_outputs(doc, str(tmp_path / "r.json"), None, None)
    assert calls and all("indent" not in kw for kw in calls)
    assert (tmp_path / "r.json").read_text() == dumps(doc, indent=2) + "\n"


# --- the CSV columns that reuse the report's text --------------------------

CSV_FLOATS = floats | st.sampled_from([-0.0, 5e-324, 1e16, 1e-4])
COLUMN_ARRAYS = (st.lists(CSV_FLOATS, max_size=8).map(lambda xs: np.array(xs, dtype=np.float64))
                 | st.lists(int64s, max_size=8).map(lambda xs: np.array(xs, dtype=np.int64)))
COLUMN_LISTS = (st.lists(CSV_FLOATS, max_size=8) | st.lists(ints, max_size=8)
                | st.lists(CSV_FLOATS | ints | np_floats, max_size=8) | COLUMN_ARRAYS)


def boxed(column):
    """A column's items as the Python numbers whose reprs the CSV holds."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _nest(column, path):
    """``column`` inside dicts and lists, one level per entry of ``path``."""
    for key in reversed(path):
        column = {key: column} if isinstance(key, str) else [1.5, column][-key:]
    return column


# a column recipe: ("report", n) is the report's n-th list or array,
# ("outside", list or array), ("map", ints) and ("count", start) are columns
# the report does not hold, and "x" as a value column is the block's own x
# column.  Value columns are finite: rows end with the shorter column.
FINITE = (st.tuples(st.just("report"), st.integers(0, 3))
          | st.tuples(st.just("outside"), COLUMN_LISTS)
          | st.tuples(st.just("map"), st.lists(st.integers(-3, 3), max_size=8)))
BLOCKS = st.lists(
    st.tuples(st.sampled_from(["a", "b.term", "c.partial_sum"]),
              FINITE | st.tuples(st.just("count"), CSV_FLOATS), FINITE | st.just("x"))
    .filter(lambda block: block[1][0] != "count" or block[2] != "x"),
    max_size=5)


def _column(recipe, lists, x):
    kind, arg = recipe if recipe != "x" else ("x", None)
    if kind == "report":
        return lists[arg % len(lists)]
    if kind == "outside":
        return arg.copy() if isinstance(arg, np.ndarray) else list(arg)
    if kind == "count":
        return itertools.count(arg)
    if kind == "map":
        return map(float, arg)
    return x


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lists=st.lists(COLUMN_LISTS, min_size=1, max_size=4),
       paths=st.lists(st.lists(st.sampled_from(["k", "v", 1, 2]), max_size=3), min_size=4,
                      max_size=4),
       recipes=BLOCKS, chunk=st.sampled_from([1, 2, 3, cli.CSV_CHUNK]))
@example(lists=[[-0.0, 5e-324, 1e16, 1e-4]], paths=[[]] * 4,
         recipes=[("a", ("report", 0), "x"), ("b.term", ("report", 0), ("count", 1.0))], chunk=1)
@example(lists=[np.array([0.5, -0.0])], paths=[[]] * 4,
         recipes=[("a", ("report", 0), ("outside", np.array([1.5, 1e16]))),
                  ("b", ("outside", np.array([2, 3])), ("report", 0))], chunk=1)
def test_csv_rows_match_per_column_repr(tmp_path, lists, paths, recipes, chunk):
    # the report's lists and arrays sit at any depth, and two blocks may share
    # a column; an array column the report does not hold is written as the
    # reprs of Python numbers, not of numpy's scalars
    doc = {f"r{n}": _nest(column, paths[n]) for n, column in enumerate(lists)}
    rows, blocks = [], []
    for series, x_recipe, v_recipe in recipes:
        xs = boxed(_column(x_recipe, lists, None))  # a writer that formats every column
        values = boxed(_column(v_recipe, lists, xs))
        rows += [f"{x!r},{series},{v!r}\n" for x, v in zip(xs, values)]
        xs = _column(x_recipe, lists, None)
        blocks.append((series, xs, _column(v_recipe, lists, xs)))
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_CHUNK", chunk)
        cli._write_outputs(doc, str(out), str(csv), blocks)
    assert csv.read_text() == "x,series,value\n" + "".join(rows)
    assert out.read_text() == oracle(doc) + "\n"


def _traced(make):
    """The bytes that ``make()`` allocates and holds, and the traced peak."""
    tracemalloc.start()
    try:
        kept = make()  # held until the memory is read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def analyze_doc(tmp_path_factory):
    from quasikit.manifest import RunManifest

    spec = tmp_path_factory.mktemp("analyze") / "spec.json"
    spec.write_text(json.dumps({"family": "denjoy2", "params": {"C": 1.0}, "horizon": 20000}))
    args = cli._build_parser().parse_args(["seq", "analyze", "--spec", str(spec)])
    cli._load_inputs(args, RunManifest(command=[], seed=None))
    return args.handler(args)


def test_csv_adds_at_most_one_column_to_the_peak(tmp_path, analyze_doc):
    # the CSV splits one value column at a time from the report's text; keeping
    # every column's strings instead would add a dozen columns to the peak
    doc, blocks = analyze_doc
    terms = np.asarray(doc["carleman"]["terms"]).tolist()
    column_bytes = _traced(lambda: list(map(repr, terms)))[0]
    out = str(tmp_path / "r.json")
    with_csv = _traced(lambda: cli._write_outputs(doc, out, str(tmp_path / "r.csv"), blocks))[1]
    without = _traced(lambda: cli._write_outputs(doc, out, None, None))[1]
    assert with_csv - without <= column_bytes


def test_the_report_exists_once_while_it_is_written(tmp_path, analyze_doc):
    # the arrays are boxed one at a time, and the report is written from its
    # pieces, never joined into one string or encoded whole
    doc, blocks = analyze_doc
    out = tmp_path / "r.json"
    peak = _traced(lambda: cli._write_outputs(doc, str(out), str(tmp_path / "r.csv"), blocks))[1]
    terms = np.asarray(doc["carleman"]["terms"])
    boxed_bytes = _traced(terms.tolist)[0]
    items = terms.tolist()
    column_bytes = _traced(lambda: list(map(repr, items)))[0]
    x_bytes = _traced(lambda: list(map(repr, blocks[0][1])))[0]
    assert all(xs is blocks[0][1] for _, xs, _ in blocks)
    assert peak < out.stat().st_size + boxed_bytes + column_bytes + x_bytes


# --- a list equal to one the report already joined takes its text ---------

def test_equal_lists_share_their_text():
    a = [0.5, 1e16, 5e-324]
    same_depth, deeper = list(a), {"d": [list(a)], "e": [list(a)]}
    ints, floats = [1, 2, 3], [1.0, 2.0, 3.0]
    zero, minus_zero, zero_again = [0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]
    # arrays: equal to an earlier list, to each other, and a list equal to one
    array_a, array_again, list_again = np.array(a), np.array(a), list(a)
    int_array, float_array = np.array(ints), np.array(ints, dtype=float)
    zero_array = np.array(zero)
    doc = {"i": ints, "f": floats, "a": a, "b": same_depth, "c": deeper,
           "z": zero, "m": minus_zero, "y": zero_again,
           "aa": array_a, "ab": array_again, "al": list_again,
           "ia": int_array, "fa": float_array, "za": zero_array}
    assert report(doc) == oracle(doc)
    spans = cli._encode_spans(doc)[1]

    def text(xs):
        return spans[id(xs)].text

    assert text(same_depth) is text(a)
    assert text(deeper["e"][0]) is text(deeper["d"][0]) != text(a)  # another separator
    assert text(floats) != text(ints)
    # 0.0 == -0.0, so a list holding a zero is joined again
    assert text(zero) is not text(zero_again) and text(minus_zero) != text(zero)
    assert text(array_a) is text(a) and text(array_again) is text(a)
    assert text(list_again) is text(a)
    assert text(int_array) is text(ints) and text(float_array) is text(floats)
    assert text(zero_array) is not text(zero) and text(zero_array) == text(zero)


REPEATED = (st.lists(CSV_FLOATS, min_size=1, max_size=6)
            | st.lists(st.integers(-3, 3), min_size=1, max_size=6))


@settings(max_examples=300)
@given(lists=st.lists(REPEATED, min_size=1, max_size=3),
       paths=st.lists(st.lists(st.sampled_from(["k", "v", 1, 2]), max_size=3), min_size=12,
                      max_size=12))
@example(lists=[[0.0, 1.0], [-0.0, 1.0], [0, 1]], paths=[[]] * 12)
def test_repeated_lists_match_json_dumps(lists, paths):
    # each list again, at the same or another depth, with the signs of its
    # zeros flipped, with its ints as floats, and as an array of each
    variants = []
    for xs in lists:
        flipped = [-x if x == 0 else x for x in xs]
        as_floats = [float(x) if type(x) is int else x for x in xs]
        variants += [xs, list(xs), flipped, as_floats, np.array(xs), np.array(flipped),
                     np.array(as_floats)]
    doc = {f"r{n}": _nest(xs, paths[n % len(paths)]) for n, xs in enumerate(variants)}
    assert report(doc) == oracle(doc)


def test_a_list_that_took_earlier_text_is_a_csv_column(tmp_path):
    # b takes a's text; the deeper copy of a is joined with its own separator
    a = [0.1, 2.5, 1e-5, 1e16]
    b, deeper = list(a), list(a)
    doc = {"a": a, "b": b, "d": {"c": [0.5], "d": deeper}}
    _, spans = cli._encode_spans(doc)
    for xs in (a, b, deeper):
        assert cli._strings(spans[id(xs)]) == list(map(repr, a))
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    cli._write_outputs(doc, str(out), str(csv), [("b", b, deeper), ("c", itertools.count(1.0), b)])
    rows = [f"{x!r},b,{v!r}\n" for x, v in zip(b, b)] + [f"{float(k)!r},c,{v!r}\n"
                                                         for k, v in enumerate(b, start=1)]
    assert csv.read_text() == "x,series,value\n" + "".join(rows)
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"
