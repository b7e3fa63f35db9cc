"""Dead-code guard: every function and class defined in src/hopfcqt is used,
and every attribute that src/hopfcqt assigns is read.

A definition counts as used when its name appears as an ast.Name or as the
attribute of an ast.Attribute somewhere in src/, tests/, demos/ or perfbench/,
outside the definition itself.  Dunders are exempt, and imports (the
re-exports of src/hopfcqt/__init__.py among them) are not uses.

An attribute assigned in src/hopfcqt (`obj.name = ...`) counts as read when
some file of those trees loads `.name`, updates it in place (`+=`), or calls
getattr or hasattr with the literal "name".  WRITE_ONLY_EXEMPT lists the
attributes that only code outside the project reads.

Both guards match by name, so one use covers every definition or assignment
of that name, whatever object it belongs to.  That is how the unused methods
Z2Simples.comodule and InducedComodule.is_valid went unnoticed: cli.py reads
`args.comodule`, and Comodule.is_valid is called.
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


# attributes that only code outside the project reads
WRITE_ONLY_EXEMPT = {
    # settings of errors._REPR, a reprlib.Repr: reprlib reads them
    "maxlevel", "maxstring", "maxother",
}


def _attribute_reads(module):
    "The names of the attribute loads, in-place updates and literal getattr/hasattr calls."
    names = set()
    for sub in ast.walk(module):
        if isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.attr)
        elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Attribute):
            names.add(sub.target.attr)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id in ("getattr", "hasattr") and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant) and isinstance(sub.args[1].value, str)):
            names.add(sub.args[1].value)
    return names


def write_only_attributes():
    "(path, line, name) of every attribute src/hopfcqt assigns that nothing reads."
    reads, stores = set(), []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), str(path))
            reads |= _attribute_reads(module)
            if path.parent.name == "hopfcqt":
                stores += [(path.relative_to(ROOT).as_posix(), node.lineno, node.attr)
                           for node in ast.walk(module)
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    return [(path, line, name) for path, line, name in stores
            if name not in reads and name not in WRITE_ONLY_EXEMPT]


def test_every_assigned_attribute_is_read():
    assert write_only_attributes() == []
