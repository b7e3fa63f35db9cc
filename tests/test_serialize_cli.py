import json

import pytest

from test_battery_tables import _z2_on_k4_with_sigma, k4_z2_asymmetric_tau
from test_groups import REPEATED_NAME_K4
from test_hopf import _perturbed_context, _zeta4_context
from hopfcqt import cli, serialize
from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import TwistedCoalgebra, enumerate_onedim
from hopfcqt.cqt import RForm, eps_tensor_eps
from hopfcqt.errors import SchemaError
from hopfcqt.groups import cyclic_group, group_from_descriptor
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MAX_WINDOW, MatchedPair
from hopfcqt.scalars import MINUS_ONE, ONE, rational


def test_context_round_trip_finite(tmp_path):
    H = get_entry("S3_Z2").context()
    path = tmp_path / "ctx.json"
    serialize.save_context(H, path)
    H2 = serialize.load_context(path)
    assert serialize.contexts_equal(H, H2)
    # and the reloaded context is fully functional
    assert H2.basis("g", "(1 2)") * H2.basis("g", "(1 3)") == H2.basis("g", "(1 3 2)")


def test_context_round_trip_infinite(tmp_path):
    for eid in ("Z2_Z", "Q8_Dinf", "Z2_Z2xZ_central"):
        H = get_entry(eid).context()
        path = tmp_path / (eid + ".json")
        serialize.save_context(H, path)
        H2 = serialize.load_context(path)
        assert serialize.contexts_equal(H, H2, word_bound=3), eid


def test_context_round_trip_nontrivial_tau(tmp_path):
    H = get_entry("Z2_Z2_tau").context()
    path = tmp_path / "tau.json"
    serialize.save_context(H, path)
    H2 = serialize.load_context(path)
    assert serialize.contexts_equal(H, H2)
    g = H2.G.parse("g")
    t = H2.F.parse("t")
    assert H2.cp.tau(g, g, t) == rational(-1)


def _changed(fn, point, value):
    "fn with its value at the argument tuple point replaced by value."
    return lambda *args: value if args == point else fn(*args)


def test_contexts_equal_sees_one_changed_value():
    # S3_Z2 with exactly one of |>, <|, tau, sigma changed at one window point;
    # F is finite, so the tabulated actions keep the change off the letters
    H = get_entry("S3_Z2").context()
    mp, G, F = H.mp, H.G, H.F
    g, f = G.parse("g"), F.parse("(1 3)")
    one = lambda *args: ONE

    def rebuild(left=mp.act_left, right=mp.act_right, sigma=one, tau=one):
        mp2 = MatchedPair.from_functions(G, F, left=left, right=right)
        return HopfAlgebra(CocyclePair(mp2, sigma, tau))

    assert serialize.contexts_equal(H, rebuild())
    changes = {"|>": rebuild(left=_changed(mp.act_left, (g, f), F.parse("(1 2 3)"))),
               "<|": rebuild(right=_changed(mp.act_right, (g, f), G.one)),
               "tau": rebuild(tau=_changed(one, (g, g, f), MINUS_ONE)),
               "sigma": rebuild(sigma=_changed(one, (g, f, f), MINUS_ONE))}
    for what, H2 in changes.items():
        assert not serialize.contexts_equal(H, H2), what
        assert not serialize.contexts_equal(H2, H), what


def test_contexts_equal_sees_other_groups_and_the_window():
    trivial = {eid: get_entry(eid).context() for eid in ("Z2_Z2_trivial", "Z2_Z3_trivial",
                                                         "Z3_Z2_trivial")}
    assert not serialize.contexts_equal(trivial["Z2_Z2_trivial"], trivial["Z2_Z3_trivial"])
    assert not serialize.contexts_equal(trivial["Z2_Z2_trivial"], trivial["Z3_Z2_trivial"])
    # sigma changed at (g, 2, 2) only: word length 2 is outside window 1, inside window 2
    H = get_entry("Z2_Z").context()
    g, two = H.G.parse("g"), H.F.parse("2")
    H2 = _rule_based("Z2_Z", _changed(lambda *args: ONE, (g, two, two), MINUS_ONE),
                     lambda a, b, f: ONE)
    assert serialize.contexts_equal(H, H2, word_bound=1)
    assert not serialize.contexts_equal(H, H2, word_bound=2)


@pytest.mark.parametrize("n", [2.7, 2.0, True], ids=["2.7", "2.0", "true"])
def test_non_integer_group_order_is_a_schema_error(tmp_path, capsys, n):
    with pytest.raises(SchemaError, match="expected an integer"):
        group_from_descriptor({"family": "Zn", "n": n})
    obj = serialize.context_to_json(get_entry("Z2_Z2_trivial").context())
    obj["G"]["n"] = n
    path = tmp_path / "ctx.json"
    serialize.save_json(obj, path)
    assert cli.main(["verify-mp", "--input", str(path)]) == 2
    assert "expected an integer" in capsys.readouterr().err
    # a string holding an integer stays accepted, as for every integer field
    assert group_from_descriptor({"family": "Zn", "n": "2"}) == cyclic_group(2)


@pytest.mark.parametrize("desc", [
    {"family": "perm", "generators": [[True, False]]},
    {"family": "perm", "generators": [[1.0, 0]]},
    {"family": "finite", "names": ["1", "a"], "table": [[False, True], [True, False]]},
    {"family": "finite", "names": ["1", "a"], "table": [[0, 1], [1, 0.0]]},
], ids=["perm-bool", "perm-float", "finite-bool", "finite-float"])
def test_non_integer_permutation_or_table_entry_is_a_schema_error(desc):
    with pytest.raises(SchemaError, match="expected an integer"):
        group_from_descriptor(desc)


_Z2_TABLE = {"family": "finite", "names": ["1", "g"], "table": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("field, desc", [
    ("group.names", {"family": "finite", "names": "1g", "table": ["01", "10"],
                     "generators": [True]}),
    ("group.table", dict(_Z2_TABLE, table=["01", "10"])),
    ("group.generators", dict(_Z2_TABLE, generators=[True])),
    ("group.generators", dict(_Z2_TABLE, generators=[-1])),
    ("group.generators", dict(_Z2_TABLE, generators="g")),
    ("group.generators", {"family": "perm", "generators": ["10"]}),
], ids=["names-string", "table-strings", "generator-bool", "generator-negative",
        "generators-string", "perm-generator-string"])
def test_descriptor_lists_must_be_json_lists(tmp_path, capsys, field, desc):
    # a string, a bool or a negative position used to load: "1g" as two names, True
    # as position 1, -1 as the last element, "10" as the image list (1, 0)
    with pytest.raises(SchemaError, match=r"expected a list of .*\(at %s\)$" % field):
        group_from_descriptor(desc)
    obj = serialize.context_to_json(get_entry("Z2_Z2_trivial").context())
    obj["G"] = desc
    path = tmp_path / "ctx.json"
    serialize.save_json(obj, path)
    assert cli.main(["verify-mp", "--input", str(path)]) == 2
    assert "(at %s)" % field in capsys.readouterr().err
    # generators given by name still load
    assert group_from_descriptor(dict(_Z2_TABLE, generators=["g"])).order() == 2


@pytest.mark.parametrize("table, key", [("left_action", "g|5"), ("left_action", "g|-1"),
                                        ("right_action", "1|2")])
def test_action_key_off_the_generators_is_a_schema_error(tmp_path, capsys, table, key):
    # Z2_Z's actions are given on the generator 1 of Z; an entry at 5 or at the
    # inverse letter -1 was dropped without a word
    obj = serialize.context_to_json(get_entry("Z2_Z").context())
    obj[table][key] = "3" if table == "left_action" else "g"
    path = tmp_path / "ctx.json"
    serialize.save_json(obj, path)
    assert cli.main(["orbits", "--input", str(path), "--f", "5"]) == 2
    err = capsys.readouterr().err
    assert "is not a generator of F" in err and "(at %s[%r])" % (table, key) in err


def _rule_based(eid, sigma, tau):
    "The entry's matched pair with sigma and tau given as rules, not tables."
    mp = get_entry(eid).context().mp
    return HopfAlgebra(CocyclePair(mp, sigma, tau), name=eid)


def test_context_json_of_rule_based_cocycles():
    H = get_entry("Z2_Z2_tau").context()
    g, t = H.G.parse("g"), H.F.parse("t")
    Hr = _rule_based("Z2_Z2_tau", lambda a, f, fp: ONE,
                     lambda a, b, f: MINUS_ONE if a == b == g and f == t else ONE)
    obj, ref = serialize.context_to_json(Hr), serialize.context_to_json(H)
    assert (obj["sigma"], obj["tau"]) == (ref["sigma"], ref["tau"])
    assert obj["tau"] == {"g|g|t": "-1", "default": "1"}
    assert serialize.contexts_equal(Hr, serialize.context_from_json(obj))


def _tau_default_minus_one():
    "Z2_Z2_trivial's matched pair with tau = -1 except tau(g, g; t) = 1, declared in the table."
    mp = get_entry("Z2_Z2_trivial").context().mp
    key = (mp.G.parse("g").key, mp.G.parse("g").key, mp.F.parse("t").key)
    return HopfAlgebra(CocyclePair.from_tables(mp, {}, {key: ONE}, tau_default=MINUS_ONE))


TABLE_CONTEXTS = {
    "Z2_K4_sigma": lambda: _z2_on_k4_with_sigma(lambda f, fp: f.key & 1 and fp.key & 2),
    "K4_Z2_tau": k4_z2_asymmetric_tau,
    "Z4_Z4_zeta4": _zeta4_context,
    "tau-default-minus-one": _tau_default_minus_one,
}


@pytest.mark.parametrize("name", entry_ids() + sorted(TABLE_CONTEXTS))
def test_context_json_is_exact(name):
    H = TABLE_CONTEXTS[name]() if name in TABLE_CONTEXTS else get_entry(name).context()
    obj = serialize.context_to_json(H)
    loaded = serialize.context_from_json(obj)
    assert serialize.context_to_json(loaded) == obj
    assert serialize.contexts_equal(H, loaded, word_bound=4)


def test_context_json_refuses_what_it_cannot_write_exactly():
    # a table without a default, whose undeclared values raise MissingEntry
    mp = get_entry("Z2_Z2_tau").context().mp
    with pytest.raises(SchemaError, match="sigma table without a default"):
        serialize.context_to_json(HopfAlgebra(CocyclePair.from_tables(mp, {}, {}, None)))
    # rules over infinite F: trivial on the window but -1 at (g; 5, 5), and nontrivial
    H = get_entry("Z2_Z").context()
    g, five = H.G.parse("g"), H.F.parse("5")
    late = _rule_based("Z2_Z", lambda a, f, fp: MINUS_ONE if (a, f, fp) == (g, five, five)
                       else ONE, lambda a, b, f: ONE)
    window = late.mp.window(4)
    assert all(late.cp.sigma(a, f, fp).is_one()
               for a in late.G.elements() for f in window for fp in window)
    odd = _rule_based("Z2_Z", lambda a, f, fp: MINUS_ONE if f.key % 2 and fp.key % 2 else ONE,
                      lambda a, b, f: ONE)
    for H in (late, odd):
        with pytest.raises(SchemaError, match="rule-based sigma"):
            serialize.context_to_json(H)


def test_rform_round_trip_with_window(tmp_path):
    H = get_entry("Z2_Z").context()
    R = eps_tensor_eps(H, window=2)
    path = tmp_path / "r.json"
    serialize.save_json(serialize.rform_to_json(R), path)
    R2 = serialize.rform_from_json(serialize.load_json(path), H)
    assert R2.window == 2
    assert R2.table == R.table


def test_comodule_round_trip(tmp_path):
    H = get_entry("Z2_Z2_tau").context()
    V = enumerate_onedim(TwistedCoalgebra(H, "t"))[0]
    path = tmp_path / "v.json"
    serialize.save_json(serialize.comodule_to_json(V), path)
    V2 = serialize.comodule_from_json(serialize.load_json(path), H)
    assert V2.dim == 1
    for g in H.G.elements():
        assert V2.matrix(g) == V.matrix(g)


def test_element_round_trip():
    H = get_entry("Z2_Z").context()
    x = H.basis("1", "2").scaled(rational(1, 2)) + H.basis("g", "-1")
    x2 = serialize.element_from_json(serialize.element_to_json(x), H)
    assert x2 == x


def test_malformed_scalar_names_location():
    H = get_entry("Z2_Z").context()
    with pytest.raises(SchemaError) as err:
        serialize.element_from_json([{"g": "1", "f": "0", "c": "1//2"}], H)
    assert "1//2" in str(err.value) or "scalar" in str(err.value)
    with pytest.raises(SchemaError) as err:
        serialize.context_from_json({"G": {"family": "Zn", "n": 2}})
    assert "F" in str(err.value)


def test_cli_run_and_exit_codes(capsys):
    assert cli.main(["run", "--entry", "Z2_Z2_trivial"]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--entry", "Z3_Z"]) == 0  # verdicts match (battery fails as expected)
    capsys.readouterr()
    assert cli.main(["orbit-commutes", "--entry", "Z2_Dinf",
                     "--f", "x", "--f2", "y"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out


def test_cli_orbits_and_r11(capsys):
    assert cli.main(["orbits", "--entry", "S3_Z2", "--f", "(1 2 3)"]) == 0
    out = capsys.readouterr().out
    assert "(1 3 2)" in out
    # the global --json before the subcommand, and the subcommand's own after it
    for argv in (["--json", "cqt-z2-r11"], ["cqt-z2-r11", "--json"]):
        assert cli.main(argv) == 0
        cases = json.loads(capsys.readouterr().out)
        assert [c["k"] for c in cases] == ["0", "1/2"]


def test_cli_cqt_verify(tmp_path, capsys):
    H = get_entry("Z2_Z2_trivial").context()
    R = eps_tensor_eps(H)
    path = tmp_path / "r.json"
    serialize.save_json(serialize.rform_to_json(R), path)
    serialize.save_context(H, tmp_path / "ctx.json")
    code = cli.main(["cqt-verify", "--input", str(tmp_path / "ctx.json"),
                     "--rform", str(path), "--levels", "0,1,2,3,4,inv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "CQT0" in out and "pass" in out


def test_cli_gr_surface(capsys):
    assert cli.main(["gr-z2-table", "--entry", "Z2_Z", "--maxlen", "1"]) == 0
    out = capsys.readouterr().out
    assert "(x)" in out
    assert cli.main(["gr-commutes", "--entry", "Z2_Dinf", "--labels", "U:x,U:y"]) == 1
    capsys.readouterr()
    assert cli.main(["gr-decompose", "--entry", "Z2_Z", "--labels", "W:1,W:1",
                     "--basis", "W:2,U:0,V:0"]) == 0
    out = capsys.readouterr().out
    assert "1" in out


def test_cli_hopf_elements(tmp_path, capsys):
    H = get_entry("Z2_Z").context()
    a = H.basis("g", "3")
    path = tmp_path / "a.json"
    serialize.save_json(serialize.element_to_json(a), path)
    assert cli.main(["hopf-antipode", "--entry", "Z2_Z", "--a", "@" + str(path)]) == 0
    out = capsys.readouterr().out
    assert "p[g]#(3)" in out
    assert cli.main(["hopf-mul", "--entry", "Z2_Z", "--a", "@" + str(path),
                     "--b", "@" + str(path)]) == 0
    capsys.readouterr()


def test_cli_comodule_pipeline(tmp_path, capsys):
    H = get_entry("Z2_Z").context()
    V = enumerate_onedim(TwistedCoalgebra(H, "0"))[1]
    path = tmp_path / "v.json"
    serialize.save_json(serialize.comodule_to_json(V), path)
    assert cli.main(["comodule-verify", "--entry", "Z2_Z",
                     "--comodule", str(path)]) == 0
    out = capsys.readouterr().out
    assert "simple: True" in out
    assert cli.main(["char", "--entry", "Z2_Z", "--comodule", str(path)]) == 0
    out = capsys.readouterr().out
    assert "p[1]#(0)" in out
    assert cli.main(["induce", "--entry", "Z2_Z", "--comodule", str(path)]) == 0
    capsys.readouterr()


def test_cli_necessary_and_zeros(tmp_path, capsys):
    assert cli.main(["cqt-necessary", "--entry", "Z3_Z"]) == 1
    capsys.readouterr()
    assert cli.main(["cqt-necessary", "--entry", "S3_Z2"]) == 0
    capsys.readouterr()
    H = get_entry("Z2_Z").context()
    R = RForm(H, {((H.G.parse("g"), H.F.parse("1")), (H.G.one, H.F.parse("1"))): ONE},
              window=2)
    serialize.save_json(serialize.rform_to_json(R), tmp_path / "bad.json")
    serialize.save_context(H, tmp_path / "ctx.json")
    assert cli.main(["cqt-zeros", "--input", str(tmp_path / "ctx.json"),
                     "--rform", str(tmp_path / "bad.json")]) == 1
    out = capsys.readouterr().out
    assert "structural-zero" in out
    serialize.save_json(serialize.rform_to_json(eps_tensor_eps(H, 2)), tmp_path / "good.json")
    assert cli.main(["--json", "cqt-zeros", "--input", str(tmp_path / "ctx.json"),
                     "--rform", str(tmp_path / "good.json")]) == 0
    assert json.loads(capsys.readouterr().out)["reports"] == [
        {"check": "structural-zeros", "checked": 0, "status": "pass"}]


def test_cli_json_output(capsys):
    assert cli.main(["run", "--entry", "Z2_Z2_trivial", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["all_match"] is True


@pytest.mark.parametrize("argv", [
    ["list-entries"],
    ["run", "--entry", "Z2_Z2_trivial"],
    ["verify-mp", "--entry", "Z2_Z", "--maxlen", "2"],
    ["verify-cocycles", "--entry", "Z2_Z", "--maxlen", "2"],
    ["hopf-verify", "--entry", "Z2_Z", "--maxlen", "1"],
    ["gr-product", "--entry", "Z2_Z", "--labels", "W:1,W:1"],
    ["gr-decompose", "--entry", "Z2_Z", "--labels", "W:1,W:1", "--basis", "W:2,U:0,V:0"],
    ["gr-commutes", "--entry", "Z2_Dinf", "--labels", "U:x,U:y"],
    ["gr-z2-table", "--entry", "Z2_Z", "--maxlen", "1"],
    ["cqt-necessary", "--entry", "Z2_Z2_trivial"],
    ["cqt-z2-r11"],
], ids=lambda argv: argv[0])
def test_cli_json_stdout_is_one_document(argv, capsys):
    assert cli.main(argv + ["--json"]) in (0, 1)
    json.loads(capsys.readouterr().out)


def test_cli_gr_product_json_carries_the_closed_form(capsys):
    argv = ["gr-product", "--entry", "Z2_Z", "--labels", "W:1,W:1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == "closed form: [W[-2], U[0], V[0]]"
    assert cli.main(["--json"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["closed_form"] == ["W[-2]", "U[0]", "V[0]"]


def test_cli_parser_is_reused_without_carrying_state(capsys):
    # the parser is built once per process; a flag of one call must not leak into the next
    assert cli.main(["--json", "cqt-z2-r11"]) == 0
    json.loads(capsys.readouterr().out)
    assert cli.main(["cqt-z2-r11"]) == 0
    assert capsys.readouterr().out.startswith("[{'k'")
    assert cli._parser() is cli._parser()


def _malformed_context(tmp_path, edit):
    obj = serialize.context_to_json(get_entry("Z2_Z2_trivial").context())
    edit(obj)
    path = tmp_path / "ctx.json"
    serialize.save_json(obj, path)
    return str(path)


@pytest.mark.parametrize("edit", [
    lambda obj: obj["sigma"].update(default="0"),
    lambda obj: obj.update(G={"family": "Zn", "n": 0}),
    lambda obj: obj["sigma"].update(default="1/0"),
    lambda obj: obj["tau"].update(default="zeta(0,1)"),
    lambda obj: obj["sigma"].update(default="(" * 2000 + "1" + ")" * 2000),
    lambda obj: obj["tau"].update(default="zeta(30030,1)"),
    lambda obj: obj["sigma"].update(default=2),
    lambda obj: obj.update(left_action=[]),
    lambda obj: obj["left_action"].update({"g|t": 1}),
    lambda obj: obj.update(sigma=["1"]),
    lambda obj: obj["left_action"].update({"g^x|t": "t"}),
], ids=["zero-sigma-default", "Zn-n-0", "scalar-1/0", "zeta-order-0", "deep-nesting",
        "zeta-order-30030", "scalar-number", "action-list", "action-value-number",
        "sigma-list", "action-key-exponent"])
def test_cli_malformed_context_exits_2(tmp_path, capsys, edit):
    path = _malformed_context(tmp_path, edit)
    assert cli.main(["verify-cocycles", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_repeated_element_name_exits_2(tmp_path, capsys):
    path = _malformed_context(tmp_path, lambda obj: obj.update(F=REPEATED_NAME_K4))
    assert cli.main(["verify-cocycles", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "element name 'a' is repeated" in err
    assert "Traceback" not in err


def test_cli_non_cocycle_tau_exits_2(tmp_path, capsys):
    # overridden cocycle entries: a stabilizer's twisted coproduct is not coassociative,
    # and before the battery builds it, the cocycle sweep of cqt-necessary fails
    path = tmp_path / "ctx.json"
    serialize.save_context(_perturbed_context("Q8_Dinf", 0), path)
    assert cli.main(["cqt-necessary", "--input", str(path), "--maxlen", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: normalization fails at ('r^2*s', '1', 'y^2', 'y^-2')")
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, f", [("S3_Z2", "(1 2)^x"), ("Q8_Dinf", "y^q"),
                                      ("Q8_Dinf", "g^")])
def test_cli_bad_element_exponent_exits_2(capsys, entry, f):
    assert cli.main(["orbits", "--entry", entry, "--f", f]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _cqt_verify_args(tmp_path, entry, edit, levels):
    obj = serialize.rform_to_json(eps_tensor_eps(get_entry(entry).context(), window=1))
    edit(obj)
    path = tmp_path / "rform.json"
    serialize.save_json(obj, path)
    return ["cqt-verify", "--entry", entry, "--rform", str(path), "--levels", levels]


@pytest.mark.parametrize("entry, edit, levels", [
    ("Z2_Z2_tau", lambda obj: obj["window"].update(maxlen="x"), "0"),
    ("Z2_Z2_tau", lambda obj: obj.update(entries=["g"]), "0"),
    ("Z2_Z2_tau", lambda obj: obj.update(entries={"g": "1"}), "0"),
    ("Z2_Z2_tau", lambda obj: obj.update(window=3), "0"),
    ("Z2_Z", lambda obj: obj.pop("window"), "0"),
    ("Z2_Z", lambda obj: obj["window"].update(maxlen=0), "0"),
    ("Z2_Z2_tau", lambda obj: obj.update(entries=[], window={"maxlen": -2}), "0,1,2,3"),
    ("Z2_Z", lambda obj: obj["window"].update(maxlen=MAX_WINDOW + 1), "0"),
    ("Z2_Z2_tau", lambda obj: None, "7"),
    ("Z2_Z2_tau", lambda obj: None, "foo"),
    ("Z2_Z2_tau", lambda obj: None, "0,,1"),
], ids=["window-maxlen-text", "entry-not-object", "entries-not-list", "window-not-object",
        "no-window-infinite-F", "entry-outside-window", "window-negative-empty-form",
        "window-above-limit", "level-7", "level-foo", "level-empty"])
def test_cli_malformed_cqt_verify_exits_2(tmp_path, capsys, entry, edit, levels):
    assert cli.main(_cqt_verify_args(tmp_path, entry, edit, levels)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("maxlen", [-1, MAX_WINDOW + 1])
@pytest.mark.parametrize("argv", [
    ["--json", "verify-cocycles", "--entry", "Z2_Dinf"],
    ["verify-mp", "--entry", "S3_Z2"],
    ["run", "--entry", "Z2_Dinf", "--checks", "cocycles"],
    ["cqt-necessary", "--entry", "Z2_Z"],
], ids=["verify-cocycles", "verify-mp-finite-F", "run", "cqt-necessary"])
def test_cli_window_outside_limits_exits_2(capsys, argv, maxlen):
    assert cli.main(argv + ["--maxlen", str(maxlen)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: word-length window %d is outside 0..%d"
                              % (maxlen, MAX_WINDOW))
    assert out.out == ""


def test_cli_cqt_verify_qbound_outside_limits_exits_2(tmp_path, capsys):
    args = _cqt_verify_args(tmp_path, "Z2_Z", lambda obj: None, "0")
    for maxlen in (-1, MAX_WINDOW + 1):
        assert cli.main(args + ["--maxlen", str(maxlen)]) == 2
        assert capsys.readouterr().err.startswith("error: word-length window")


def test_cli_cqt_verify_levels(tmp_path, capsys):
    args = _cqt_verify_args(tmp_path, "Z2_Z2_tau", lambda obj: None, " 4,inv ,0")
    assert cli.main(args + ["--json"]) == 0
    checks = [r["check"] for r in json.loads(capsys.readouterr().out)["reports"]]
    assert checks == ["CQT4", "CQT-convolution-inverse", "CQT0"]


def test_cli_non_action_exits_2(tmp_path, capsys):
    # g^2 |> t = 1 while g |> t = t: the stabilizer of t is {1, g}, not a subgroup
    obj = serialize.context_to_json(get_entry("Z3_Z2_trivial").context())
    obj["left_action"]["g^2|t"] = "1"
    path = str(tmp_path / "ctx.json")
    serialize.save_json(obj, path)
    # cqt-necessary stops at the matched-pair sweep before it builds an orbit
    for args, message in ((["orbits", "--f", "t"], "stabilizer not closed at base point t"),
                          (["cqt-necessary"], "left-action fails at ('g', 'g', 't')")):
        assert cli.main(args + ["--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert "Traceback" not in err


@pytest.mark.parametrize("dim, key", [(1, "0,0,1"), (2, "3,1,1"), (2, "1,-1,1")])
def test_comodule_index_outside_dim(dim, key):
    H = get_entry("Z2_Z2_trivial").context()
    with pytest.raises(SchemaError) as err:
        serialize.comodule_from_json({"f": "1", "dim": dim, "a": {key: "1"}}, H)
    assert "outside 1..%d" % dim in str(err.value)
