"""Pinned output of one valid call of every `hopfcqt` subcommand.

`tests/golden/cli.json` holds, for each subcommand, its argv and the exit
code and stdout of that call in text and in `--json` mode.  Input files (a
context, an R-form, a comodule and a Hopf element) are written to a
temporary directory; the argv placeholders {ctx}, {rform}, {comodule} and
{elem} stand for their paths, which never appear in the output.

Regenerate with `PYTHONPATH=src:tests python tests/test_cli_golden.py` only
for a change that is meant to alter what the command line prints.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hopfcqt import cli, serialize
from hopfcqt.catalog import get_entry
from hopfcqt.comodules import TwistedCoalgebra, enumerate_onedim
from hopfcqt.cqt import eps_tensor_eps

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
INLINE = '[{"g": "g", "f": "2", "c": "1/2"}, {"g": "1", "f": "-1", "c": "zeta(4,1)"}]'

CASES = {
    "list-entries": [],
    "run": ["--entry", "Z2_Z2_trivial"],
    "verify-mp": ["--entry", "Z2_Z", "--maxlen", "2"],
    "verify-cocycles": ["--input", "{ctx}", "--maxlen", "2"],
    "orbits": ["--entry", "S3_Z2", "--f", "(1 2 3)"],
    "orbit-commutes": ["--entry", "Z2_Dinf", "--f", "x", "--f2", "y"],
    "hopf-verify": ["--entry", "Z2_Z", "--maxlen", "1"],
    "hopf-mul": ["--entry", "Z2_Z", "--a", "@{elem}", "--b", INLINE],
    "hopf-delta": ["--input", "{ctx}", "--a", "@{elem}"],
    "hopf-antipode": ["--entry", "Z2_Z", "--a", INLINE],
    "comodule-verify": ["--entry", "Z2_Z", "--comodule", "{comodule}"],
    "char": ["--entry", "Z2_Z", "--comodule", "{comodule}"],
    "induce": ["--input", "{ctx}", "--comodule", "{comodule}"],
    "gr-product": ["--entry", "Z2_Z", "--labels", "W:1,W:1"],
    "gr-decompose": ["--entry", "Z2_Z", "--labels", "W:1,W:1", "--basis", "W:2,U:0,V:0"],
    "gr-commutes": ["--entry", "Z2_Dinf", "--labels", "U:x,U:y"],
    "gr-z2-table": ["--entry", "Z2_Z", "--maxlen", "1"],
    "cqt-verify": ["--input", "{ctx}", "--rform", "{rform}", "--levels", "0,1,2,3,4,inv",
                   "--maxlen", "1"],
    "cqt-necessary": ["--entry", "Z3_Z"],
    "cqt-zeros": ["--entry", "Z2_Z", "--rform", "{rform}"],
    "cqt-bicharacter": ["--entry", "Z2_Z", "--rform", "{rform}", "--maxlen", "1"],
    "cqt-z2-classify": ["--input", "{ctx}", "--rform", "{rform}"],
    "cqt-z2-r11": [],
}


def _write_inputs(directory):
    "The input files the cases read, over Z2_Z; {placeholder: path}."
    H = get_entry("Z2_Z").context()
    paths = {name: str(Path(directory) / (name + ".json"))
             for name in ("ctx", "rform", "comodule", "elem")}
    serialize.save_context(H, paths["ctx"])
    serialize.save_json(serialize.rform_to_json(eps_tensor_eps(H, window=2)), paths["rform"])
    V = enumerate_onedim(TwistedCoalgebra(H, "0"))[1]
    serialize.save_json(serialize.comodule_to_json(V), paths["comodule"])
    a = H.element([("g", "3", 1), ("1", "-2", -2)])
    serialize.save_json(serialize.element_to_json(a), paths["elem"])
    return paths


def _fill(arg, paths):
    "arg with each {placeholder} replaced by its path."
    for name, path in paths.items():
        arg = arg.replace("{%s}" % name, path)
    return arg


def _call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue()]


def cli_snapshot(directory):
    "{subcommand: {argv, text, json}}, each mode's [exit code, stdout], as one document."
    paths = _write_inputs(directory)
    out = {}
    for command, args in CASES.items():
        argv = [command] + [_fill(a, paths) for a in args]
        out[command] = {"argv": [command] + args, "text": _call(argv),
                        "json": _call(argv + ["--json"])}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_every_subcommand_is_pinned():
    assert set(CASES) == set(cli._parser()._subparsers._group_actions[0].choices)


def test_cli_output_matches_golden(tmp_path):
    assert cli_snapshot(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(cli_snapshot(tmp))
    sys.exit(0)
