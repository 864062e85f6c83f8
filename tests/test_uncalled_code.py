"""Code that nothing calls stays out of the package.

Every module-level function and class of ``src/quasikit`` is either public
(named in ``quasikit.__all__``) or referenced, as a name or an attribute,
somewhere in the package outside its own definition.  Dunder functions are
called by Python itself (``__getattr__`` by PEP 562) and are exempt.  A test
or a benchmark that calls a function does not keep it in: a helper only the
tests use belongs with the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import quasikit as qk

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node):
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute))
    )


def test_every_module_level_definition_is_public_or_referenced():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(qk.__file__).parent.glob("*.py"))
    }
    references = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name not in qk.__all__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and references[node.name] == _references(node)[node.name]
    ]
    assert uncalled == []
