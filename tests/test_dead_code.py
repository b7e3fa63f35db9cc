"""Dead-code guard: every function and class defined in src/hopfcqt is used,
every attribute that src/hopfcqt assigns is read, and every defaulted
parameter of its public functions is set by some caller.

A definition counts as used when its name appears as an ast.Name or as the
attribute of an ast.Attribute somewhere in src/, tests/, demos/ or perfbench/,
outside the definition itself.  Dunders are exempt, and imports (the
re-exports of src/hopfcqt/__init__.py among them) are not uses.

An attribute assigned in src/hopfcqt (`obj.name = ...`) counts as read when
some file of those trees loads `.name`, updates it in place (`+=`), or calls
getattr or hasattr with the literal "name".  WRITE_ONLY_EXEMPT lists the
attributes that only code outside the project reads.

A defaulted parameter of a public function, method or constructor in
src/hopfcqt counts as set when some call outside the function's own class
passes it, by keyword or by position; a call with *args or **kwargs passes
every parameter.  Calls are matched by the callee's name (the class name for
a constructor), so a parameter that no caller sets is a setting nobody uses.

A local that a plain `name = value` statement binds in a function of
src/hopfcqt counts as read when the function, or a function nested in it,
loads the name; tuple-unpacking and loop targets are exempt, as unpacking
names the parts it skips.

An assert statement in src/hopfcqt is gone under `python -O`, and otherwise
ends in a traceback and exit 1 where a HopfCqtError would give exit 2.  So
input is checked by raising, and ASSERTS_ALLOWED lists the only asserts kept:
arithmetic invariants that no input can reach.

An exception class of errors.py counts as used only when some raise
statement in src/hopfcqt names it, as `raise Name(...)` or `raise Name`: a
class that tests name in pytest.raises but nothing raises guards nothing.

The unused-code guards match by name, so one use covers every definition or assignment
of that name, whatever object it belongs to.  That is how the unused methods
Z2Simples.comodule and InducedComodule.is_valid went unnoticed: cli.py reads
`args.comodule`, and Comodule.is_valid (since removed) was called.
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


def _callee(call):
    "The name a call reaches its function by: a Name id or an Attribute attr."
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _public_functions(module):
    """(class or None, callee name, function) of each public module-level
    function and each public method or constructor of a public class."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield None, node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (fn.name == "__init__"
                                                        or not fn.name.startswith("_")):
                    yield node, node.name if fn.name == "__init__" else fn.name, fn


def _defaulted(fn, is_method):
    "(name, position among the call's arguments, or None) of each defaulted parameter."
    args = fn.args
    params = args.posonlyargs + args.args
    skip = int(is_method and not any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list))
    first = len(params) - len(args.defaults)
    return ([(p.arg, i - skip) for i, p in enumerate(params) if i >= first]
            + [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call, name, position):
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def unset_parameters():
    "(path, line, 'function(parameter)') of every defaulted parameter that no caller sets."
    calls, defs = [], []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text(), str(path))
            owners = {}  # id of a node -> the classes it lies in
            for cls in ast.walk(module):
                if isinstance(cls, ast.ClassDef):
                    for sub in ast.walk(cls):
                        owners.setdefault(id(sub), []).append(cls)
            calls += [(sub, owners.get(id(sub), [])) for sub in ast.walk(module)
                      if isinstance(sub, ast.Call)]
            if path.parent.name == "hopfcqt":
                defs += [(path.relative_to(ROOT).as_posix(), cls, callee, fn)
                         for cls, callee, fn in _public_functions(module)]
    out = []
    for path, cls, callee, fn in defs:
        outside = [call for call, inside in calls
                   if _callee(call) == callee and not any(cls is c for c in inside)]
        title = fn.name if cls is None else "%s.%s" % (cls.name, fn.name)
        out += [(path, fn.lineno, "%s(%s)" % (title, name))
                for name, position in _defaulted(fn, cls is not None)
                if not any(_passes(call, name, position) for call in outside)]
    return out


def test_every_defaulted_parameter_is_set_by_some_caller():
    assert unset_parameters() == []


def _scope_assigns(fn):
    """The plain `name = value` statements of fn's own scope: not those of a
    nested function, lambda or class, which have scopes of their own."""
    for child in ast.iter_child_nodes(fn):
        if isinstance(child, ast.Assign):
            yield child
        if not isinstance(child, DEFS + (ast.Lambda,)):
            yield from _scope_assigns(child)


def unread_locals():
    """(path, line, function, name) of every local of a function in src/hopfcqt
    that a plain `name = value` statement binds and nothing in the function,
    its nested functions included, reads.  A name in a tuple target or a loop
    target is exempt, and so is one the function declares global or nonlocal."""
    out = []
    for path in sorted((ROOT / "src" / "hopfcqt").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shared = {name for sub in ast.walk(fn) if isinstance(sub, (ast.Global, ast.Nonlocal))
                      for name in sub.names}
            read = {sub.id for sub in ast.walk(fn)
                    if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
            out += [(path.relative_to(ROOT).as_posix(), node.lineno, fn.name, target.id)
                    for node in _scope_assigns(fn) for target in node.targets
                    if isinstance(target, ast.Name)
                    and target.id not in read and target.id not in shared]
    return out


def test_every_assigned_local_is_read():
    assert unread_locals() == []


# (file, innermost enclosing function) of the asserts kept: the exact division
# of x^n - 1 by the Phi_d, d < n, and the n-th roots of the telescoped tau product
ASSERTS_ALLOWED = {("scalars.py", "cyclotomic_polynomial"), ("comodules.py", "_onedim_tables")}


def _asserts(node, function=None):
    "(line, innermost enclosing definition) of every assert statement under node."
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Assert):
            yield child.lineno, function
        yield from _asserts(child, child.name if isinstance(child, DEFS) else function)


def asserts_outside_the_allowed():
    "(path, line, function) of every assert in src/hopfcqt that ASSERTS_ALLOWED does not list."
    return [(path.relative_to(ROOT).as_posix(), line, function)
            for path in sorted((ROOT / "src" / "hopfcqt").glob("*.py"))
            for line, function in _asserts(ast.parse(path.read_text(), str(path)))
            if (path.name, function) not in ASSERTS_ALLOWED]


def test_no_assert_checks_what_input_can_reach():
    assert asserts_outside_the_allowed() == []


def _raised_name(node):
    "The class name a raise statement names, or None (a bare raise, or a raise of a variable)."
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)


def unraised_errors():
    "The exception classes of errors.py that no raise statement in src/hopfcqt names."
    src = ROOT / "src" / "hopfcqt"
    classes = [node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    raised = {_raised_name(node) for path in sorted(src.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Raise) and node.exc is not None}
    return [name for name in classes if name not in raised]


def test_every_error_class_is_raised():
    assert unraised_errors() == []
