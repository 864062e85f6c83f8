"""One owner of a result's JSON form.

A result whose JSON form is its fields assigns ``to_json = _fields_json`` in
its own class body, so the method is the class's own attribute, which the
benchmark's tracer wraps.  Only the classes on CUSTOM_FORMS write a
``to_json`` of their own, since their forms differ from their fields; a new
hand-written copy of a result's fields fails here.
"""

import ast
import dataclasses
from pathlib import Path

import quasikit as qk
from quasikit.errors import _fields_json

# to_json forms that are not the class's fields: a null for -inf, a
# normalised document, a spec's defaults, a manifest's inputs
CUSTOM_FORMS = {"EnvelopeReport", "FunctionSpec", "SequenceSpec", "RunManifest"}


def _to_json_forms():
    """(module, class, form) for every class in the package that defines
    to_json, where form is the name a ``to_json = name`` assignment binds
    ("" for another value), or None for a method written out."""
    for path in sorted(Path(qk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "to_json":
                    yield path.stem, node.name, None
                elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "to_json" for t in item.targets
                ):
                    value = item.value
                    yield path.stem, node.name, value.id if isinstance(value, ast.Name) else ""


def test_every_to_json_is_the_fields_or_a_named_custom_form():
    forms = list(_to_json_forms())
    written = {cls for _, cls, form in forms if form is None}
    assert written == CUSTOM_FORMS
    assert {form for _, _, form in forms if form is not None} == {"_fields_json"}


def test_each_fields_form_is_the_class_own_attribute():
    fields = {(module, cls) for module, cls, form in _to_json_forms() if form == "_fields_json"}
    assert {cls for _, cls in fields} == {
        "BangNormResult", "GontcharoffPoly", "MonotonicityResult", "QAReport",
        "RegularizedSequence", "SeriesReport", "SpacingResult",
    }
    for module, cls in fields:
        owner = getattr(getattr(qk, module), cls)
        assert dataclasses.is_dataclass(owner)
        assert owner.__dict__["to_json"] is _fields_json


def test_fields_in_order_nested_results_as_their_json_and_arrays_as_themselves():
    seq = qk.make_sequence(qk.SequenceSpec(family="factorial", horizon=64))
    report = qk.analyze(seq)
    doc = report.to_json()
    assert list(doc) == [f.name for f in dataclasses.fields(report)]
    assert doc["beta"] is report.beta and doc["chain_ok"] is report.chain_ok
    assert doc["carleman"] == {
        "terms": report.carleman.terms,
        "partial_sums": report.carleman.partial_sums,
        "verdict": report.carleman.verdict,
        "slope_estimate": report.carleman.slope_estimate,
    }
    # root_c is carleman here, so the writer meets the same arrays twice
    assert report.root_c is report.carleman
    assert doc["root_c"]["terms"] is doc["carleman"]["terms"] is report.carleman.terms
