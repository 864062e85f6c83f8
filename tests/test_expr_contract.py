"""The expression-tree contract.

``FunctionSpec`` rejects a malformed tree with a ValidationError naming the
first bad node in depth-first order, a node's own fields before its
children; a well-formed tree then yields jets, or a DomainError or
ConditioningError, at any point of its domain.  The pinned messages below
are part of the CLI's stderr and must not drift.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasikit as qk

X = {"op": "x"}
NODE = "expression node at {} must be a dict with 'op'"
POW = "pow at {} needs integer num/den, den != 0"

# (case, expression, the message FunctionSpec raises)
MALFORMED = [
    ("not-a-dict", [1, 2], NODE.format("root")),
    ("none", None, NODE.format("root")),
    ("missing-op", {"arg": X}, NODE.format("root")),
    ("string-node", "x", NODE.format("root")),
    ("unknown-op", {"op": "tan", "arg": X}, "unknown op 'tan' at root"),
    ("op-none", {"op": None}, "unknown op None at root"),
    ("op-list", {"op": ["x"]}, "unknown op ['x'] at root"),
    ("op-int", {"op": 3}, "unknown op 3 at root"),
    ("unknown-op-bad-arg", {"op": "tan", "arg": 7}, "unknown op 'tan' at root"),
    ("const-missing", {"op": "const"}, "const at root needs a finite 'value'"),
    ("const-string", {"op": "const", "value": "1"}, "const at root needs a finite 'value'"),
    ("const-nan", {"op": "const", "value": math.nan}, "const at root needs a finite 'value'"),
    ("const-inf", {"op": "const", "value": -math.inf}, "const at root needs a finite 'value'"),
    ("const-none", {"op": "const", "value": None}, "const at root needs a finite 'value'"),
    ("add-missing-left", {"op": "add", "right": X}, NODE.format("root.left")),
    ("sub-missing-right", {"op": "sub", "left": X}, NODE.format("root.right")),
    ("mul-both-bad", {"op": "mul", "left": {"op": "q"}, "right": 5}, "unknown op 'q' at root.left"),
    ("div-right-list", {"op": "div", "left": X, "right": [X]}, NODE.format("root.right")),
    ("neg-missing-arg", {"op": "neg"}, NODE.format("root.arg")),
    ("exp-arg-str", {"op": "exp", "arg": "x"}, NODE.format("root.arg")),
    ("log-deep", {"op": "log", "arg": {"op": "sin", "arg": {"op": "cos", "arg": {"op": "nope"}}}},
     "unknown op 'nope' at root.arg.arg.arg"),
    ("pow-missing-num", {"op": "pow", "arg": X}, POW.format("root")),
    ("pow-float-num", {"op": "pow", "arg": X, "num": 2.0, "den": 1}, POW.format("root")),
    ("pow-den-zero", {"op": "pow", "arg": X, "num": 2, "den": 0}, POW.format("root")),
    ("pow-den-false", {"op": "pow", "arg": X, "num": 2, "den": False}, POW.format("root")),
    ("pow-den-str", {"op": "pow", "arg": X, "num": 1, "den": "2"}, POW.format("root")),
    ("pow-den-float", {"op": "pow", "arg": X, "num": 1, "den": 2.0}, POW.format("root")),
    ("pow-bad-before-arg", {"op": "pow", "arg": {"op": "zz"}, "num": "a"}, POW.format("root")),
    ("pow-good-bad-arg", {"op": "pow", "arg": {"op": "zz"}, "num": 1}, "unknown op 'zz' at root.arg"),
    ("affine-missing-a", {"op": "affine", "arg": X, "b": 0.0}, "affine at root needs finite 'a'"),
    ("affine-missing-b", {"op": "affine", "arg": X, "a": 1.0}, "affine at root needs finite 'b'"),
    ("affine-a-nan", {"op": "affine", "arg": X, "a": math.nan, "b": 0.0},
     "affine at root needs finite 'a'"),
    ("affine-b-inf", {"op": "affine", "arg": X, "a": 1.0, "b": math.inf},
     "affine at root needs finite 'b'"),
    ("affine-a-str", {"op": "affine", "arg": X, "a": "1", "b": 0.0}, "affine at root needs finite 'a'"),
    ("affine-bad-before-arg", {"op": "affine", "arg": None, "a": None, "b": None},
     "affine at root needs finite 'a'"),
    ("affine-bad-arg", {"op": "affine", "arg": None, "a": 2, "b": True}, NODE.format("root.arg")),
    ("left-before-right",
     {"op": "add", "left": {"op": "const", "value": "v"}, "right": {"op": "w"}},
     "const at root.left needs a finite 'value'"),
    ("nested-path",
     {"op": "add", "left": X, "right": {"op": "mul", "left": {"op": "const", "value": 1.0}, "right": {
         "op": "affine", "arg": {"op": "pow", "arg": X, "num": 1, "den": 0}, "a": 1, "b": 0}}},
     POW.format("root.right.right.arg")),
    # an int past the float range is not a finite number
    ("const-huge-int", {"op": "const", "value": 10**400}, "const at root needs a finite 'value'"),
    ("affine-huge-int", {"op": "affine", "arg": X, "a": 1, "b": -(10**400)},
     "affine at root needs finite 'b'"),
]


@pytest.mark.parametrize("expr, message", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_tree_messages_are_pinned(expr, message):
    with pytest.raises(qk.ValidationError) as info:
        qk.FunctionSpec(expr, (0.5, 1.5))
    assert str(info.value) == message


@pytest.mark.parametrize("expr", [
    {"op": "pow", "arg": X, "num": 3},  # den defaults to 1
    {"op": "pow", "arg": X, "num": True, "den": True},
    {"op": "const", "value": False},
    {"op": "affine", "arg": X, "a": True, "b": 0},
    {"op": "x", "value": "ignored"},
], ids=["pow-no-den", "pow-bools", "const-bool", "affine-bool-int", "x-extra-key"])
def test_bools_and_ints_are_numbers(expr):
    f = qk.FunctionSpec(expr, (0.5, 1.5))
    assert np.all(np.isfinite(qk.jet_derivatives(f, 1.0, 4)))


UNARY = ["neg", "exp", "log", "sin", "cos"]
BINARY = ["add", "sub", "mul", "div"]
SMALL = st.floats(-3.0, 3.0) | st.integers(-3, 3)
TREES = st.recursive(
    st.builds(lambda: {"op": "x"})  # a fresh dict each time: the corruptions mutate it
    | st.builds(lambda v: {"op": "const", "value": v}, SMALL),
    lambda inner: (
        st.builds(lambda op, a: {"op": op, "arg": a}, st.sampled_from(UNARY), inner)
        | st.builds(lambda op, a, b: {"op": op, "left": a, "right": b},
                    st.sampled_from(BINARY), inner, inner)
        | st.builds(lambda a, num, den: {"op": "pow", "arg": a, "num": num, "den": den},
                    inner, st.integers(-3, 4), st.sampled_from([1, 2, 3, -2]))
        | st.builds(lambda a, s, t: {"op": "affine", "arg": a, "a": s, "b": t},
                    inner, SMALL, SMALL)
    ),
    max_leaves=6,
)
MISSING = object()
BAD_PARAMS = st.sampled_from([MISSING, 1.5, True, False, "1", math.nan, math.inf, -math.inf])
BAD_OPS = st.sampled_from(["tan", "", None, ["x"], 7])
NOT_NODES = st.sampled_from([None, 3, "x", [{"op": "x"}], 2.5])
PARAM_KEYS = {"const": ["value"], "pow": ["num", "den"], "affine": ["a", "b"]}
CHILD_KEYS = ("arg", "left", "right")


def _nodes(node):
    if isinstance(node, dict):
        yield node
        for key in CHILD_KEYS:
            if key in node:
                yield from _nodes(node[key])


@st.composite
def corrupted_trees(draw):
    """A tree and the number of corruptions applied to its nodes, each one
    of those that fit the node it hits."""
    tree = draw(TREES)
    corruptions = draw(st.integers(0, 2))
    for _ in range(corruptions):
        node = draw(st.sampled_from(list(_nodes(tree))))
        op = node.get("op")
        params = PARAM_KEYS.get(op, []) if isinstance(op, str) else []
        children = [key for key in CHILD_KEYS if key in node]
        kinds = ["op"] + ["param"] * bool(params) + ["den"] * (op == "pow")
        kind = draw(st.sampled_from(kinds + ["drop", "child"] * bool(children)))
        if kind == "op":
            node["op"] = draw(BAD_OPS)
        elif kind == "param":
            key = draw(st.sampled_from(params))
            value = draw(BAD_PARAMS)
            if value is MISSING:
                node.pop(key, None)
            else:
                node[key] = value
        elif kind == "den":
            if draw(st.booleans()):
                node["den"] = 0
            else:
                node.pop("den", None)
        else:
            key = draw(st.sampled_from(children))
            if kind == "drop":
                del node[key]
            else:
                node[key] = draw(NOT_NODES)
    return tree, corruptions


@given(corrupted_trees())
@settings(max_examples=400)
def test_corrupted_trees_fail_only_by_contract(case):
    tree, corruptions = case
    try:
        f = qk.FunctionSpec(tree, (0.5, 1.5))
    except qk.ValidationError:
        assert corruptions, tree  # an uncorrupted tree is well formed
        return
    for t in (0.5, 1.0, 1.5):
        try:
            derivs = qk.jet_derivatives(f, t, 6)
        except (qk.DomainError, qk.ConditioningError):
            continue
        assert isinstance(derivs, np.ndarray) and derivs.shape == (7,)
