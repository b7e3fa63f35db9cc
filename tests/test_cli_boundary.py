"""Outside input that the command line refuses: exit 2 and never a traceback.

A file that cannot be read, invalid or too deeply nested JSON, nested
product descriptors past their bound, element literals past their word
bound, and options a subcommand does not read.  Option misuse is
argparse's usage error (SystemExit 2); everything else prints `error: ...`
to stderr and returns 2.
"""

import pytest

from hopfcqt import cli
from hopfcqt.catalog import get_entry
from hopfcqt.errors import MixedGroups, SchemaError
from hopfcqt.groups import (MAX_DESCRIPTOR_DEPTH, MAX_WORD, DirectProductGroup,
                            InfiniteDihedralGroup, IntegerGroup, cyclic_group,
                            group_from_descriptor)
from hopfcqt.scalars import parse_scalar
from hopfcqt.serialize import context_to_json, element_from_json, save_json

# argv that reads one JSON file, the path last
READERS = {
    "input": ["verify-mp", "--input"],
    "rform": ["cqt-zeros", "--entry", "Z2_Z", "--rform"],
    "comodule": ["char", "--entry", "Z2_Z", "--comodule"],
    "a": ["hopf-antipode", "--entry", "Z2_Z", "--a"],
}


def _bad_file(tmp_path, kind):
    "A path whose content, or lack of one, cannot be read as a JSON document."
    path = tmp_path / "bad.json"
    if kind == "missing":
        return tmp_path / "nosuch.json"
    if kind == "directory":
        return tmp_path
    if kind == "non-utf8":
        path.write_bytes(b'\xff\xfe{"G": 1}')
    elif kind == "bad-json":
        path.write_text("[")
    elif kind == "deep-json":
        path.write_text("[" * 100000)
    return path


def _assert_error_exit(argv, capsys):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.err
    assert out.out == ""
    return out.err


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8", "bad-json", "deep-json"])
def test_unreadable_or_invalid_json_file_exits_2(tmp_path, capsys, kind, reader):
    path = str(_bad_file(tmp_path, kind))
    _assert_error_exit(READERS[reader] + [("@" if reader == "a" else "") + path], capsys)


@pytest.mark.parametrize("text", ["[", "[" * 100000, '[{"g": "1", "f": "0", "c": 1/2}]'],
                         ids=["open-bracket", "deep", "bare-fraction"])
def test_invalid_inline_element_exits_2(capsys, text):
    err = _assert_error_exit(["hopf-mul", "--entry", "Z2_Z", "--a", "[]", "--b", text], capsys)
    assert "invalid JSON" in err


def _nested_product(depth):
    "A descriptor of Z1 x (Z1 x (... x Z1)) with `depth` nested product levels."
    desc = {"family": "Zn", "n": 1}
    for _ in range(depth):
        desc = {"family": "product", "factors": [{"family": "Zn", "n": 1}, desc]}
    return desc


def _context_with_G(G, tmp_path):
    "A context file over the descriptor G and Z2, both acting trivially."
    group = group_from_descriptor(G)
    one = group.format(group.one)
    path = tmp_path / "ctx.json"
    save_json({"G": G, "F": {"family": "Zn", "n": 2},
               "left_action": {one + "|g": "g"}, "right_action": {one + "|g": one}}, path)
    return str(path)


def test_deeply_nested_product_descriptor_exits_2(tmp_path, capsys):
    with pytest.raises(SchemaError, match="nested more than %d deep" % MAX_DESCRIPTOR_DEPTH):
        group_from_descriptor(_nested_product(MAX_DESCRIPTOR_DEPTH + 1))
    path = tmp_path / "ctx.json"
    save_json({"G": _nested_product(400), "F": {"family": "Z"}}, path)
    err = _assert_error_exit(["verify-mp", "--input", str(path)], capsys)
    assert "nested more than %d deep" % MAX_DESCRIPTOR_DEPTH in err


def test_nested_product_descriptor_within_the_bound_loads(tmp_path, capsys):
    assert group_from_descriptor(_nested_product(MAX_DESCRIPTOR_DEPTH)).order() == 1
    path = _context_with_G(_nested_product(100), tmp_path)
    for command in ("verify-mp", "hopf-verify", "cqt-necessary"):
        assert cli.main([command, "--input", path]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["orbits", "--entry", "S3_Z2", "--input", "ctx.json", "--f", "1"],
    ["orbits", "--entry", "S3_Z2", "--f", "1", "--maxlen", "2"],
    ["list-entries", "--entry", "NOPE"],
    ["cqt-z2-r11", "--maxlen", "2"],
    ["run", "--input", "ctx.json"],
    ["run"],
    ["verify-mp"],
], ids=["entry-and-input", "maxlen-on-orbits", "entry-on-list-entries",
        "maxlen-on-cqt-z2-r11", "input-on-run", "run-without-entry", "no-context"])
def test_option_misuse_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage: hopfcqt" in err and "Traceback" not in err


WINDOWED = {"run", "verify-mp", "verify-cocycles", "hopf-verify", "gr-z2-table",
            "cqt-verify", "cqt-necessary", "cqt-bicharacter", "cqt-z2-classify"}
CONTEXT_FREE = {"list-entries", "cqt-z2-r11"}


def test_each_subcommand_offers_only_the_options_it_reads():
    subcommands = cli._parser()._subparsers._group_actions[0].choices
    offered = {name: set(p._option_string_actions) for name, p in subcommands.items()}
    assert {n for n, opts in offered.items() if "--maxlen" in opts} == WINDOWED
    assert {n for n, opts in offered.items() if "--input" in opts} == \
        set(subcommands) - CONTEXT_FREE - {"run"} == set(CONTEXT_ARGS)
    assert {n for n, opts in offered.items() if "--entry" in opts} == \
        set(subcommands) - CONTEXT_FREE
    slots = sum(len(opts & {"--entry", "--input", "--maxlen"}) for opts in offered.values())
    assert (len(subcommands), slots) == (23, 50)


# contexts that load (the schema holds) but break a law: tau(g, g; t) = zeta_4 breaks
# compatibility and the tau-square identity, a tau default of 2 the normalization,
# sigma(g; t, t) = 1/2 the sigma cocycle, and Z3 moving t of Z2 is no action
_Z2 = {"family": "Zn", "n": 2, "gen": "g"}
_F2 = {"family": "Zn", "n": 2, "gen": "t"}
_TRIVIAL2 = {"left_action": {"1|t": "t", "g|t": "t"}, "right_action": {"1|t": "1", "g|t": "g"}}
BROKEN_CONTEXTS = {
    "tau-zeta4": dict(_TRIVIAL2, G=_Z2, F=_F2, tau={"g|g|t": "zeta(4,1)", "default": "1"}),
    "tau-default-2": dict(_TRIVIAL2, G=_Z2, F=_F2, tau={"default": "2"}),
    "sigma-half": {"G": _Z2, "F": {"family": "Zn", "n": 3, "gen": "t"},
                   "left_action": {"1|t": "t", "g|t": "t"},
                   "right_action": {"1|t": "1", "g|t": "g"},
                   "sigma": {"g|t|t": "1/2", "default": "1"}},
    "non-action": {"G": {"family": "Zn", "n": 3, "gen": "g"}, "F": _F2,
                   "left_action": {"1|t": "t", "g|t": "1", "g^2|t": "1"},
                   "right_action": {"1|t": "1", "g|t": "g", "g^2|t": "g^2"}},
}
_ELEMENT = '[{"g": "g", "f": "t", "c": "1"}]'
# the arguments past --input of each subcommand that loads a context; the
# literals name elements of all four contexts
CONTEXT_ARGS = {
    "verify-mp": [], "verify-cocycles": [], "hopf-verify": [], "cqt-necessary": [],
    "gr-z2-table": [],
    "orbits": ["--f", "t"], "orbit-commutes": ["--f", "t", "--f2", "t"],
    "hopf-mul": ["--a", _ELEMENT, "--b", _ELEMENT], "hopf-delta": ["--a", _ELEMENT],
    "hopf-antipode": ["--a", _ELEMENT],
    "comodule-verify": ["--comodule", "comodule"], "char": ["--comodule", "comodule"],
    "induce": ["--comodule", "comodule"],
    "gr-product": ["--labels", "U:t,U:t"], "gr-commutes": ["--labels", "U:t,V:t"],
    "gr-decompose": ["--labels", "U:t,U:t", "--basis", "U:1,V:1"],
    "cqt-verify": ["--rform", "rform"], "cqt-zeros": ["--rform", "rform"],
    "cqt-bicharacter": ["--rform", "rform"], "cqt-z2-classify": ["--rform", "rform"],
}
_PAYLOADS = {
    "comodule": {"f": "t", "dim": 1, "a": {"1,1,1": "1"}},
    "rform": {"entries": [{"g": "1", "f": f, "h": "1", "f2": f2, "c": "1"}
                          for f in ("1", "t") for f2 in ("1", "t")]},
}


@pytest.mark.parametrize("context", sorted(BROKEN_CONTEXTS))
@pytest.mark.parametrize("command", sorted(CONTEXT_ARGS))
def test_a_context_that_breaks_a_law_never_ends_in_a_traceback(tmp_path, capsys, context,
                                                               command):
    # exit 0, 1 or 2, whatever the subcommand reads of the broken law; an
    # exception that escapes cli.main fails the test
    path = tmp_path / "ctx.json"
    save_json(BROKEN_CONTEXTS[context], path)
    for name, doc in _PAYLOADS.items():
        save_json(doc, tmp_path / (name + ".json"))
    argv = [command, "--input", str(path)]
    argv += [str(tmp_path / (a + ".json")) if a in _PAYLOADS else a
             for a in CONTEXT_ARGS[command]]
    assert cli.main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gr-product", "--labels", "U:t,U:t"], ["gr-z2-table"]],
                         ids=["gr-product", "gr-z2-table"])
def test_label_products_refuse_a_broken_tau_square_identity(tmp_path, capsys, argv):
    # tau(g, g; t)^2 = -1 but tau(g, g; t t) = 1: the tau-square identity fails at (t, t)
    path = tmp_path / "ctx.json"
    save_json(BROKEN_CONTEXTS["tau-zeta4"], path)
    err = _assert_error_exit(argv[:1] + ["--input", str(path)] + argv[1:], capsys)
    assert err.endswith("fails at (t, t)\n")


@pytest.mark.parametrize("context, check", [
    ("tau-zeta4", "compatibility fails at ('g', 'g', 't', 't')"),
    ("tau-default-2", "normalization fails at ('1', '1', '1', '1')"),
    ("sigma-half", "sigma-cocycle fails at"), ("non-action", "left-action fails at")])
def test_cqt_necessary_refuses_a_context_that_is_not_a_hopf_algebra(tmp_path, capsys,
                                                                    context, check):
    # the battery presumes a Hopf algebra; on these it used to exit 0 with no obstruction
    path = tmp_path / "ctx.json"
    save_json(BROKEN_CONTEXTS[context], path)
    err = _assert_error_exit(["cqt-necessary", "--input", str(path)], capsys)
    assert err.startswith("error: " + check), err


def test_unknown_level_lists_the_choices(tmp_path, capsys):
    path = tmp_path / "r.json"
    save_json({"entries": []}, path)
    err = _assert_error_exit(["cqt-verify", "--entry", "Z2_Z2_tau", "--rform", str(path),
                              "--levels", "0,7"], capsys)
    assert err == "error: unknown CQT level '7' (choose from 0, 1, 2, 3, 4, inv)\n"


# an error message echoes outside input bounded, however large the input
SHORT = 300


def test_a_large_comodule_file_is_echoed_bounded(tmp_path, capsys):
    path = tmp_path / "comodule.json"
    save_json(list(range(20000)), path)
    err = _assert_error_exit(["comodule-verify", "--entry", "Z2_Z", "--comodule", str(path)],
                             capsys)
    assert "expected a JSON object, got [0, 1, 2" in err and len(err) < SHORT


def _schema_error(fn, *args):
    with pytest.raises(SchemaError) as info:
        fn(*args)
    return str(info.value)


def test_a_large_element_field_is_echoed_bounded():
    H = get_entry("Z2_Z").context()
    message = _schema_error(element_from_json, [{"g": ["g"] * 50000, "f": "0", "c": "1"}], H)
    assert message.startswith("expected a string literal, got ['g', 'g'")
    assert len(message) < SHORT


@pytest.mark.parametrize("text", ["x" * 100001, "1" * 100001, "zeta(%s,1)" % ("9" * 100000)],
                         ids=["junk", "long-number", "long-order"])
def test_a_long_scalar_literal_is_echoed_bounded(text):
    # int() refuses more than 4300 digits with ValueError; the literal's error is SchemaError
    assert len(_schema_error(parse_scalar, text)) < SHORT


@pytest.mark.parametrize("group", [cyclic_group(3), IntegerGroup(), InfiniteDihedralGroup(),
                                   DirectProductGroup([cyclic_group(2), IntegerGroup()])],
                         ids=["Z3", "Z", "Dinf", "Z2xZ"])
@pytest.mark.parametrize("text", ["q" * 100000, "g^" + "1" * 100000, "(%s)" % ("q," * 50000)],
                         ids=["name", "exponent", "tuple"])
def test_a_long_element_name_is_echoed_bounded(group, text):
    assert len(_schema_error(group.parse, text)) < SHORT


_LONG_NAME = "n" * 100000
_NAMED = {"family": "finite", "name": _LONG_NAME, "names": ["1", "a"], "table": [[0, 1], [1, 0]]}
_NAMED_PERM = {"family": "perm", "name": _LONG_NAME, "generators": [[1, 0]]}


def _mul_by_foreign(G):
    return G.mul(G.one, cyclic_group(2).one)


@pytest.mark.parametrize("error, fail", [
    (SchemaError, lambda: group_from_descriptor(_NAMED).parse("q")),
    (MixedGroups, lambda: _mul_by_foreign(group_from_descriptor(_NAMED))),
    (SchemaError, lambda: group_from_descriptor(dict(_NAMED, generators=["1"]))),
    (SchemaError, lambda: group_from_descriptor(_NAMED_PERM).parse("q")),
], ids=["finite-parse", "finite-mixed", "finite-generators", "perm-parse"])
def test_a_long_group_name_is_echoed_bounded(error, fail):
    with pytest.raises(error) as info:
        fail()
    assert len(str(info.value)) < SHORT


def test_a_schema_error_carries_its_location():
    with pytest.raises(SchemaError) as info:
        group_from_descriptor({"family": "Zn", "n": "x"})
    assert info.value.location == "group.n"


def test_a_short_value_is_echoed_whole():
    assert _schema_error(cyclic_group(3).parse, "q") == "unknown element 'q' of Z3"
    assert _schema_error(parse_scalar, "1//2") == "bad scalar literal '1//2' (at char 1)"


# an element literal of Z or Dinf past MAX_WORD letters; an action reads a
# literal letter by letter, and these ended in OverflowError (exit 1)
_HUGE = "9" * 23


def _literal_argv(tmp_path, command, literal):
    "argv of command with literal as the F element of Z2_Z that it reads from a file."
    path = tmp_path / "doc.json"
    if command == "verify-mp":
        doc = context_to_json(get_entry("Z2_Z").context())
        doc["left_action"]["g|1"] = literal
        save_json(doc, path)
        return [command, "--input", str(path)]
    save_json({"f": literal, "dim": 1, "a": {"1,1,1": "1"}}, path)
    return [command, "--entry", "Z2_Z", "--comodule", str(path)]


@pytest.mark.parametrize("entry, literal", [
    ("Z2_Z", _HUGE), ("Z3_Z", _HUGE), ("Q8_Z", _HUGE), ("Z2_Dinf", "y^" + _HUGE),
    ("Z2_Z", str(-MAX_WORD - 1)), ("Z2_Dinf", "y^%d*x" % MAX_WORD)])
def test_an_over_long_element_literal_exits_2(capsys, entry, literal):
    err = _assert_error_exit(["orbits", "--entry", entry, "--f", literal], capsys)
    assert err == "error: element %r of %s is longer than %d letters\n" % (
        literal, "Dinf" if "Dinf" in entry else "Z", MAX_WORD)


@pytest.mark.parametrize("command", ["verify-mp", "comodule-verify"])
def test_an_over_long_literal_in_a_file_exits_2(tmp_path, capsys, command):
    err = _assert_error_exit(_literal_argv(tmp_path, command, _HUGE), capsys)
    assert "longer than %d letters" % MAX_WORD in err


def test_a_literal_at_the_word_bound_is_read(tmp_path, capsys):
    for entry, literal in [("Z2_Z", str(MAX_WORD)), ("Z2_Z", str(-MAX_WORD)),
                           ("Z2_Dinf", "y^%d*x" % (MAX_WORD - 1))]:
        assert cli.main(["orbits", "--entry", entry, "--f", literal]) == 0
    for command in ("verify-mp", "comodule-verify"):
        assert cli.main(_literal_argv(tmp_path, command, str(MAX_WORD))) in (0, 1)
    assert "error" not in capsys.readouterr().err
    ZD = DirectProductGroup([IntegerGroup(), InfiniteDihedralGroup()])
    assert ZD.element_length(ZD.parse("(%d, y^%d)" % (MAX_WORD, -MAX_WORD))) == 2 * MAX_WORD
    assert "longer than" in _schema_error(ZD.parse, "(0, y^%d*x)" % MAX_WORD)


@pytest.mark.parametrize("labels, message", [
    ("U0,W:1", "error: bad label 'U0'; use e.g. U:0,W:1\n"),
    ("U:0", "error: gr-product needs exactly two labels\n")], ids=["no-colon", "one-label"])
def test_malformed_labels_exit_2(capsys, labels, message):
    assert _assert_error_exit(["gr-product", "--entry", "Z2_Z", "--labels", labels],
                              capsys) == message


def test_a_right_action_generator_that_is_not_a_bijection_exits_2(tmp_path, capsys):
    doc = context_to_json(get_entry("Z2_Z").context())
    doc["right_action"] = {"1|1": "g", "g|1": "g"}  # both elements go to g
    path = tmp_path / "ctx.json"
    save_json(doc, path)
    err = _assert_error_exit(["verify-mp", "--input", str(path)], capsys)
    assert err == "error: <| by generator 1 is not a bijection of G\n"
