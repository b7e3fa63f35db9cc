"""Command-line surface: catalog checks, verification, and JSON pipelines.

    hopfcqt <subcommand> (--entry ID | --input FILE) [--maxlen L] [--json]

Each subcommand takes only the options it reads.  A context comes from the
built-in catalog (--entry) or from a JSON file (--input): one of the two is
required, never both; `run` takes --entry only, and `list-entries` and
`cqt-z2-r11` take neither.  --maxlen, a word-length window in 0..MAX_WINDOW,
is offered by the nine subcommands that read it.

Exit code 0 means every requested check passed or matched its expectation,
1 that one did not, and 2 that the input was refused: argparse's usage error
for a missing or unknown option, `error: ...` on stderr for anything else
(an unreadable file, invalid JSON, a malformed context or literal).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog, cqt, serialize
from .comodules import character, induce
from .cqt import (bicharacter_restriction_check, necessary_battery, structural_zeros,
                  verify_R, z2_r11_solve, z2_shape_classify)
from .errors import HopfCqtError, shown
from .grothendieck import Z2Simples, char_product, commutes, decompose
from .hopf import antipode, comultiply, verify_hopf_axioms
from .matched_pair import check_window
from .reports import verdict
from .scalars import format_scalar


def _levels(text):
    "The --levels list, each name mapped to its CQT level; verify_R rejects the rest."
    names = {str(level): level for level in cqt._LEVELS}
    return [names.get(name.strip(), name.strip()) for name in text.split(",")]


def _emit_reports(args, reports, extra=None):
    failed = any(r.failed for r in reports)
    if args.json:
        out = {"reports": [r.to_json() for r in reports], "ok": not failed}
        if extra:
            out.update(extra)
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        if extra:
            for k, v in extra.items():
                print("%s: %s" % (k, v))
        for r in reports:
            line = "%-40s %s" % (r.check, r.status)
            if r.witness is not None:
                line += "   witness: %s" % (tuple(str(w) for w in r.witness),)
            if r.detail and (r.failed or r.status == "skipped"):
                line += "   [%s]" % r.detail
            print(line)
    return 1 if failed else 0


def _emit_element(args, x, tag="element"):
    if args.json:
        print(json.dumps({tag: serialize.element_to_json(x)}, indent=2))
    else:
        print("%s: %r" % (tag, x))
    return 0


def _parse_labels(H, text):
    simples = Z2Simples(H)
    labels = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        kind, _, f = chunk.partition(":")
        if not f:
            raise HopfCqtError("bad label %s; use e.g. U:0,W:1" % shown(chunk))
        labels.append(simples.label(kind, f))  # Z2Label rejects a kind other than U, V, W
    return simples, labels


def _load_element_arg(H, text):
    "Element argument: @file.json or an inline JSON list."
    obj = (serialize.load_json(text[1:]) if text.startswith("@")
           else serialize.parse_json(text, "inline element"))
    return serialize.element_from_json(obj, H)


@functools.cache
def _parser():
    "The argparse tree, built on the first main call and reused by every later one."
    parser = argparse.ArgumentParser(
        prog="hopfcqt",
        description="bicrossed-product Hopf algebras: construction, characters, "
                    "and coquasitriangularity checks (exact arithmetic)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    # a subcommand without --maxlen reads no window
    parser.set_defaults(maxlen=None)

    def add(name, help_text, context=True, window=False, **extra_args):
        p = sub.add_parser(name, help=help_text)
        if context:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--entry", help="catalog entry id")
            source.add_argument("--input", help="context JSON file")
        if window:
            p.add_argument("--maxlen", type=int, help="word-length window for infinite F")
        # SUPPRESS: an absent subcommand --json keeps the global one
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="machine-readable output")
        for flag, kw in extra_args.items():
            p.add_argument(flag, **kw)
        return p

    add("list-entries", "list catalog entries", context=False)
    add("run", "run a catalog entry's checks against its expected verdicts",
        context=False, window=True,
        **{"--entry": {"required": True, "help": "catalog entry id"},
           "--checks": {"help": "comma-separated check names (default: all expected)"}})
    add("verify-mp", "matched-pair axioms", window=True)
    add("verify-cocycles", "cocycle and compatibility identities", window=True)
    add("orbits", "orbit, stabilizer and transversal of a base point",
        **{"--f": {"required": True, "help": "base point literal"}})
    add("orbit-commutes", "set commutation of two orbit products",
        **{"--f": {"required": True}, "--f2": {"required": True}})
    add("hopf-verify", "full axiom sweep on the window", window=True)
    add("hopf-mul", "product of two elements (inline JSON or @file)",
        **{"--a": {"required": True}, "--b": {"required": True}})
    add("hopf-delta", "coproduct of an element", **{"--a": {"required": True}})
    add("hopf-antipode", "antipode of an element", **{"--a": {"required": True}})
    add("comodule-verify", "comodule axioms and simplicity",
        **{"--comodule": {"required": True, "help": "comodule JSON file"}})
    add("char", "irreducible character of an induced comodule",
        **{"--comodule": {"required": True}})
    add("induce", "induce a stabilizer comodule to the full context",
        **{"--comodule": {"required": True}})
    add("gr-product", "product of two simple characters (|G| = 2 labels)",
        **{"--labels": {"required": True, "help": "e.g. W:1,W:1"}})
    add("gr-decompose", "decompose a label product into a label basis",
        **{"--labels": {"required": True}, "--basis": {"required": True}})
    add("gr-commutes", "commutation of two labelled characters",
        **{"--labels": {"required": True}})
    add("gr-z2-table", "closed tensor table over the window", window=True)
    add("cqt-verify", "CQT condition families on a candidate R", window=True,
        **{"--rform": {"required": True},
           "--levels": {"default": "0,1,2,3", "help": "subset of 0,1,2,3,4,inv"}})
    add("cqt-necessary", "necessary-condition battery", window=True)
    add("cqt-zeros", "structural-zero scan of a candidate R",
        **{"--rform": {"required": True}})
    add("cqt-bicharacter", "bicharacter restriction on the fixed part", window=True,
        **{"--rform": {"required": True}})
    add("cqt-z2-classify", "support-shape classification of a candidate R", window=True,
        **{"--rform": {"required": True}})
    add("cqt-z2-r11", "the forced identity-block dichotomy for |G| = 2", context=False)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except HopfCqtError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def _dispatch(args):
    cmd = args.command
    check_window(args.maxlen)
    if cmd == "list-entries":
        if args.json:
            print(json.dumps({"entries": catalog.entry_ids()}, indent=2))
            return 0
        for eid in catalog.entry_ids():
            print("%-18s %s" % (eid, catalog.get_entry(eid).summary))
        return 0

    if cmd == "run":
        checks = args.checks.split(",") if args.checks else None
        bundle = catalog.run_entry(args.entry, checks=checks, word_bound=args.maxlen)
        if args.json:
            print(json.dumps(serialize.bundle_to_json(bundle), indent=2, sort_keys=True))
        else:
            print("entry %s (window %s): %s" % (bundle["entry"], bundle["word_bound"],
                                                bundle["note"]))
            for rec in bundle["records"]:
                print("  %-24s observed=%-5s expected=%-5s %s"
                      % (rec["check"], rec["observed"], rec["expected"],
                         "ok" if rec["matches"] else "MISMATCH"))
        return 0 if bundle["all_match"] else 1

    if cmd == "cqt-z2-r11":
        cases = z2_r11_solve()
        out = [{"k": str(c["k"]),
                "table": {"%s,%s" % k: format_scalar(v) for k, v in c["table"].items()}}
               for c in cases]
        print(json.dumps(out, indent=2) if args.json else out)
        return 0

    entry = None if args.entry is None else catalog.get_entry(args.entry)
    H = serialize.load_context(args.input) if entry is None else entry.context()
    bound = args.maxlen
    if bound is None:
        bound = 4 if entry is None else entry.default_bound
    if "rform" in args:
        R = serialize.rform_from_json(serialize.load_json(args.rform), H)
    if "comodule" in args:
        V = serialize.comodule_from_json(serialize.load_json(args.comodule), H)
    if "labels" in args:
        simples, labels = _parse_labels(H, args.labels)
        if len(labels) != 2:
            raise HopfCqtError("%s needs exactly two labels%s"
                               % (cmd, " to multiply" if "basis" in args else ""))

    if cmd == "verify-mp":
        return _emit_reports(args, H.mp.verify(bound))
    if cmd == "verify-cocycles":
        return _emit_reports(args, H.cp.verify(bound))
    if cmd == "orbits":
        f = H.F.parse(args.f)
        od = H.mp.orbit_data(f)
        extra = {"orbit": [str(x) for x in od.orbit],
                 "stabilizer": [str(x) for x in od.stabilizer],
                 "transversal": [str(x) for x in od.transversal]}
        if args.json:
            print(json.dumps(extra, indent=2))
        else:
            for k, v in extra.items():
                print("%s: %s" % (k, v))
        return 0
    if cmd == "orbit-commutes":
        ok, wit = H.mp.orbit_product_commutes(H.F.parse(args.f), H.F.parse(args.f2))
        return _emit_reports(args, [verdict("orbit-product-commutation",
                                            None if ok else (wit,))])
    if cmd == "hopf-verify":
        return _emit_reports(args, verify_hopf_axioms(H, bound))
    if cmd == "hopf-mul":
        a = _load_element_arg(H, args.a)
        b = _load_element_arg(H, args.b)
        return _emit_element(args, a * b, "product")
    if cmd == "hopf-delta":
        a = _load_element_arg(H, args.a)
        d = comultiply(a)
        if args.json:
            terms = [{"g": str(k1[0]), "f": str(k1[1]), "g2": str(k2[0]),
                      "f2": str(k2[1]), "c": format_scalar(c)}
                     for (k1, k2), c in d.terms.items()]
            print(json.dumps({"coproduct": terms}, indent=2))
        else:
            print("coproduct: %r" % d)
        return 0
    if cmd == "hopf-antipode":
        return _emit_element(args, antipode(_load_element_arg(H, args.a)), "antipode")
    if cmd == "comodule-verify":
        reports = V.verify()
        return _emit_reports(args, reports,
                             extra={"simple": V.is_simple() if all(r.passed for r in reports) else "n/a"})
    if cmd == "char":
        return _emit_element(args, character(V).element, "character")
    if cmd == "induce":
        W = induce(V)
        reports = W.verify()
        return _emit_reports(args, reports, extra={
            "dimension": W.dim,
            "character": repr(W.character_by_trace())})
    if cmd == "gr-product":
        prod = char_product(simples.character(labels[0]), simples.character(labels[1]))
        rule = simples.tensor_rule(labels[0], labels[1])
        if args.json:
            print(json.dumps({"product": serialize.element_to_json(prod),
                              "closed_form": [repr(label) for label in rule]}, indent=2))
        else:
            print("product: %r\nclosed form: %s" % (prod, rule))
        return 0
    if cmd == "gr-decompose":
        _, basis = _parse_labels(H, args.basis)
        prod = char_product(simples.character(labels[0]), simples.character(labels[1]))
        mults = decompose(prod, [simples.character(l) for l in basis])
        out = {"multiplicities": {repr(l): m for l, m in zip(basis, mults)}}
        print(json.dumps(out, indent=2) if args.json else out)
        return 0
    if cmd == "gr-commutes":
        _, key = commutes(simples.character(labels[0]), simples.character(labels[1]))
        return _emit_reports(args, [verdict("character-commutation", key)])
    if cmd == "gr-z2-table":
        simples = Z2Simples(H)
        rows = simples.gr_table(min(bound, 2))
        if args.json:
            print(json.dumps([{"left": repr(l1), "right": repr(l2),
                               "summands": [repr(x) for x in out]}
                              for l1, l2, out in rows], indent=2))
        else:
            for l1, l2, out in rows:
                print("%-10s (x) %-10s = %s" % (l1, l2, " + ".join(repr(x) for x in out)))
        return 0
    if cmd == "cqt-verify":
        return _emit_reports(args, verify_R(R, _levels(args.levels), qbound=args.maxlen))
    if cmd == "cqt-necessary":
        quotients = [] if entry is None else entry.quotient_homs()
        return _emit_reports(args, necessary_battery(H, bound, quotients))
    if cmd == "cqt-zeros":
        violations = structural_zeros(R)
        if not violations:
            return _emit_reports(args, [verdict("structural-zeros", None)])
        return _emit_reports(args, violations)
    if cmd == "cqt-bicharacter":
        return _emit_reports(args, bicharacter_restriction_check(R, args.maxlen))
    if cmd == "cqt-z2-classify":
        result = z2_shape_classify(R, qbound=args.maxlen)
        return _emit_reports(args, result["reports"], extra={"verdict": result["verdict"]})
    raise HopfCqtError("unhandled command %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
