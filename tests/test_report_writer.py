"""The report writer ``cli._encode`` against its oracle, the interpreter's
``json.dumps(doc, indent=2)``, on random nested documents."""

import json
import math

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
