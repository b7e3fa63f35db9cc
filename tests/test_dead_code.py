"""Dead-code guard: every function and class defined in src/hopfcqt is used.

A definition counts as used when its name appears as an ast.Name or as the
attribute of an ast.Attribute somewhere in src/, tests/, demos/ or perfbench/,
outside the definition itself.  Matching is by name, so one use covers every
definition of that name.  Dunders are exempt, and imports (the re-exports of
src/hopfcqt/__init__.py among them) are not uses.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "demos", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _used_names(node):
    "{name: count} of the Name ids and Attribute attrs under node."
    counts = {}
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else (
            sub.attr if isinstance(sub, ast.Attribute) else None)
        if name is not None:
            counts[name] = counts.get(name, 0) + 1
    return counts


def unused_definitions():
    "(path, line, name) of every definition in src/hopfcqt that nothing outside it uses."
    uses, defs = {}, []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), str(path))
            for name, n in _used_names(module).items():
                uses[name] = uses.get(name, 0) + n
            if path.parent.name == "hopfcqt":
                defs += [(path, node) for node in ast.walk(module) if isinstance(node, DEFS)]
    return [(path.relative_to(ROOT).as_posix(), node.lineno, node.name)
            for path, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and uses.get(node.name, 0) == _used_names(node).get(node.name, 0)]


def test_every_definition_is_used():
    assert unused_definitions() == []
