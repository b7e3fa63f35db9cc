"""Outside input that the command line refuses: exit 2 and never a traceback.

A file that cannot be read, invalid or too deeply nested JSON, nested
product descriptors past their bound, and options a subcommand does not
read.  Option misuse is argparse's usage error (SystemExit 2); everything
else prints `error: ...` to stderr and returns 2.
"""

import pytest

from hopfcqt import cli
from hopfcqt.catalog import get_entry
from hopfcqt.errors import SchemaError
from hopfcqt.groups import (MAX_DESCRIPTOR_DEPTH, DirectProductGroup, InfiniteDihedralGroup,
                            IntegerGroup, cyclic_group, group_from_descriptor)
from hopfcqt.scalars import parse_scalar
from hopfcqt.serialize import element_from_json, save_json

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
        set(subcommands) - CONTEXT_FREE - {"run"}
    assert {n for n, opts in offered.items() if "--entry" in opts} == \
        set(subcommands) - CONTEXT_FREE
    slots = sum(len(opts & {"--entry", "--input", "--maxlen"}) for opts in offered.values())
    assert (len(subcommands), slots) == (23, 50)


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


def test_a_short_value_is_echoed_whole():
    assert _schema_error(cyclic_group(3).parse, "q") == "unknown element 'q' of Z3"
    assert _schema_error(parse_scalar, "1//2") == "bad scalar literal '1//2' (at char 1)"
