"""The report writer ``cli._encode`` against its oracle, the interpreter's
``json.dumps(doc, indent=2)``, on random nested documents; and the CSV
columns that take their strings from the report's text, against rows
formatted column by column with ``repr``."""

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
leaves = (scalars | st.lists(floats) | st.lists(ints)
          | st.lists(floats | np_floats | ints | st.booleans()))


def _containers(children):
    items = st.lists(children, max_size=4)
    pairs = st.dictionaries(keys, children, max_size=4)
    return (items | items.map(tuple) | items.map(ListSub)
            | pairs | pairs.map(DictSub))


documents = st.recursive(leaves, _containers, max_leaves=24)


@settings(max_examples=400)
@given(documents)
@example({"f": EDGE_FLOATS, "n": [np.float64(0.1), 1, True], "e": [[], {}, ()],
          "k": {1e16: [], None: {}, True: (), -0.0: [[]]}, "s": "\x00é"})
def test_writer_matches_json_dumps(doc):
    assert cli._encode(doc) == json.dumps(doc, indent=2)


BAD = [math.inf, -math.inf, math.nan, np.float64(math.inf)]
bad_leaves = st.sampled_from(BAD) | st.sampled_from(BAD[:3]).map(lambda key: {key: 0.0})


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
        json.dumps(doc, indent=2, allow_nan=False)
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
COLUMN_LISTS = (st.lists(CSV_FLOATS, max_size=8) | st.lists(ints, max_size=8)
                | st.lists(CSV_FLOATS | ints | np_floats, max_size=8))


def _nest(column, path):
    """``column`` inside dicts and lists, one level per entry of ``path``."""
    for key in reversed(path):
        column = {key: column} if isinstance(key, str) else [1.5, column][-key:]
    return column


# a column recipe: ("report", n) is the report's n-th list, ("outside",
# list), ("map", ints) and ("count", start) are columns the report does not
# hold, and "x" as a value column is the block's own x column.  Value columns
# are finite: rows end with the shorter column.
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
        return list(arg)
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
def test_csv_rows_match_per_column_repr(tmp_path, lists, paths, recipes, chunk):
    # the report's lists sit at any depth, and two blocks may share a column
    doc = {f"r{n}": _nest(column, paths[n]) for n, column in enumerate(lists)}
    rows, blocks = [], []
    for series, x_recipe, v_recipe in recipes:
        xs = _column(x_recipe, lists, None)  # the rows of a writer that formats every column
        rows += [f"{x!r},{series},{v!r}\n" for x, v in zip(xs, _column(v_recipe, lists, xs))]
        xs = _column(x_recipe, lists, None)
        blocks.append((series, xs, _column(v_recipe, lists, xs)))
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_CHUNK", chunk)
        cli._write_outputs(doc, str(out), str(csv), blocks)
    assert csv.read_text() == "x,series,value\n" + "".join(rows)
    assert out.read_text() == json.dumps(doc, indent=2) + "\n"


def test_csv_adds_at_most_one_column_to_the_peak(tmp_path):
    # the CSV splits one value column at a time from the report's text; keeping
    # every column's strings instead would add a dozen columns to the peak
    from quasikit.manifest import RunManifest

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "denjoy2", "params": {"C": 1.0}, "horizon": 20000}))
    args = cli._build_parser().parse_args(["seq", "analyze", "--spec", str(spec)])
    cli._load_inputs(args, RunManifest(command=[], seed=None))
    doc, blocks = args.handler(args)

    def peak(*csv):
        tracemalloc.start()
        try:
            cli._write_outputs(doc, str(tmp_path / "r.json"), *csv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracemalloc.start()
    column = list(map(repr, doc["carleman"]["terms"]))
    column_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    del column
    assert peak(str(tmp_path / "r.csv"), blocks) - peak(None, None) <= column_bytes


# --- a list equal to one the report already joined takes its text ---------

def test_equal_lists_share_their_text():
    a = [0.5, 1e16, 5e-324]
    same_depth, deeper = list(a), {"d": [list(a)], "e": [list(a)]}
    ints, floats = [1, 2, 3], [1.0, 2.0, 3.0]
    zero, minus_zero, zero_again = [0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]
    doc = {"i": ints, "f": floats, "a": a, "b": same_depth, "c": deeper,
           "z": zero, "m": minus_zero, "y": zero_again}
    assert cli._encode(doc) == json.dumps(doc, indent=2)
    pieces, joined = [], {}
    cli._encode_into(doc, "\n", pieces, joined, {})

    def text(xs):
        return pieces[joined[id(xs)][0]]

    assert text(same_depth) is text(a)
    assert text(deeper["e"][0]) is text(deeper["d"][0]) != text(a)  # another separator
    assert text(floats) != text(ints)
    # 0.0 == -0.0, so a list holding a zero is joined again
    assert text(zero) is not text(zero_again) and text(minus_zero) != text(zero)


REPEATED = (st.lists(CSV_FLOATS, min_size=1, max_size=6)
            | st.lists(st.integers(-3, 3), min_size=1, max_size=6))


@settings(max_examples=300)
@given(lists=st.lists(REPEATED, min_size=1, max_size=3),
       paths=st.lists(st.lists(st.sampled_from(["k", "v", 1, 2]), max_size=3), min_size=12,
                      max_size=12))
@example(lists=[[0.0, 1.0], [-0.0, 1.0], [0, 1]], paths=[[]] * 12)
def test_repeated_lists_match_json_dumps(lists, paths):
    # each list again, at the same or another depth, with the signs of its
    # zeros flipped and with its ints as floats
    variants = []
    for xs in lists:
        variants += [xs, list(xs), [-x if x == 0 else x for x in xs],
                     [float(x) if type(x) is int else x for x in xs]]
    doc = {f"r{n}": _nest(xs, paths[n]) for n, xs in enumerate(variants)}
    assert cli._encode(doc) == json.dumps(doc, indent=2)


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
