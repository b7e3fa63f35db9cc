"""JSON input/output for contexts, elements, comodules, and R-forms.

Element references inside JSON are literals parsed by the owning group, so
element-valued payloads (R-forms, comodules, Hopf elements) load relative to
an explicit context.  Key encodings use '|' between element literals, with
the comma form accepted on input when unambiguous.
"""

from __future__ import annotations

import json

from .cocycles import CocyclePair
from .comodules import Comodule, TwistedCoalgebra
from .cqt import RForm
from .errors import SchemaError
from .groups import group_from_descriptor
from .hopf import HopfAlgebra, HopfElement
from .matched_pair import MatchedPair
from .scalars import ONE, Scalar, format_scalar, parse_scalar


def _split_key(key, parts, location):
    if "|" in key:
        bits = key.split("|")
    else:
        bits = key.split(",", parts - 1)
    if len(bits) != parts:
        raise SchemaError("expected %d '|'-separated fields in key %r" % (parts, key),
                          location)
    return [b.strip() for b in bits]


def _require(obj, field, location):
    if field not in obj:
        raise SchemaError("missing field %r" % field, location)
    return obj[field]


# -- contexts -------------------------------------------------------------------

def context_to_json(H, word_bound=4):
    "Serializable description of a Hopf context; cocycles must be table-backed or trivial."
    mp, cp = H.mp, H.cp
    G, F = H.G, H.F
    left, right = {}, {}
    for g in G.elements():
        for gen in F.generators():
            key = "%s|%s" % (G.format(g), F.format(gen))
            left[key] = F.format(mp.act_left(g, gen))
            right[key] = G.format(mp.act_right(g, gen))
    out = {"name": H.name, "G": G.descriptor(), "F": F.descriptor(),
           "left_action": left, "right_action": right}
    for tag, table, default, fmt in (
            ("sigma", cp.sigma_table, cp.sigma_default, _sigma_items),
            ("tau", cp.tau_table, cp.tau_default, _tau_items)):
        if table is None:
            if F.is_finite:
                out[tag] = fmt(H, None)
                out[tag]["default"] = "1"
            elif (cp.sigma_trivial_on(word_bound) if tag == "sigma"
                  else cp.tau_trivial_on(word_bound)):
                out[tag] = {"default": "1"}
            else:
                raise SchemaError("rule-based %s over infinite F is not serializable" % tag)
        else:
            out[tag] = fmt(H, table)
            out[tag]["default"] = format_scalar(default if default is not None else ONE)
    return out


def _sigma_items(H, table):
    G, F = H.G, H.F
    out = {}
    if table is None:
        items = (((g.key, f.key, fp.key), H.cp.sigma(g, f, fp))
                 for g in G.elements() for f in F.elements() for fp in F.elements())
    else:
        items = table.items()
    for (gk, fk, fpk), v in items:
        if not v.is_one():
            key = "%s|%s|%s" % (G.format(G._element(gk)), F.format(F._element(fk)),
                                F.format(F._element(fpk)))
            out[key] = format_scalar(v)
    return out


def _tau_items(H, table):
    G, F = H.G, H.F
    out = {}
    if table is None:
        items = (((g.key, gp.key, f.key), H.cp.tau(g, gp, f))
                 for g in G.elements() for gp in G.elements() for f in F.elements())
    else:
        items = table.items()
    for (gk, gpk, fk), v in items:
        if not v.is_one():
            key = "%s|%s|%s" % (G.format(G._element(gk)), G.format(G._element(gpk)),
                                F.format(F._element(fk)))
            out[key] = format_scalar(v)
    return out


def context_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("context must be a JSON object")
    G = group_from_descriptor(_require(obj, "G", "context"))
    F = group_from_descriptor(_require(obj, "F", "context"))
    left_tables, right_tables = {}, {}
    left_json = _require(obj, "left_action", "context")
    right_json = _require(obj, "right_action", "context")
    for src, dst, parser, loc in ((left_json, left_tables, F.parse, "left_action"),
                                  (right_json, right_tables, G.parse, "right_action")):
        for key, val in src.items():
            gtxt, gentxt = _split_key(key, 2, loc)
            try:
                g = G.parse(gtxt)
                gen = F.parse(gentxt)
                dst[(g.key, gen.key)] = parser(val)
            except SchemaError as e:
                raise SchemaError(str(e), "%s[%r]" % (loc, key))
    mp = MatchedPair.from_generator_tables(G, F, left_tables, right_tables,
                                           name=obj.get("name", ""))
    sigma, sdef = _cocycle_table_from_json(obj.get("sigma", {}), G, F, F, "sigma")
    tau, tdef = _cocycle_table_from_json(obj.get("tau", {}), G, G, F, "tau")
    cp = CocyclePair.from_tables(mp, sigma, tau, sigma_default=sdef, tau_default=tdef,
                                 name=obj.get("name", ""))
    return HopfAlgebra(cp, name=obj.get("name", ""))


def _cocycle_table_from_json(obj, A, B, C, loc):
    default = ONE
    table = {}
    for key, val in obj.items():
        if key == "default":
            default = parse_scalar(val)
            continue
        a, b, c = _split_key(key, 3, loc)
        try:
            table[(A.parse(a).key, B.parse(b).key, C.parse(c).key)] = parse_scalar(val)
        except SchemaError as e:
            raise SchemaError(str(e), "%s[%r]" % (loc, key))
    return table, default


# -- catalog runs -------------------------------------------------------------------

def bundle_to_json(bundle):
    "The `run --json` document of a catalog.run_entry bundle."
    return {"entry": bundle["entry"], "all_match": bundle["all_match"],
            "records": [{"check": rec["check"], "observed": rec["observed"],
                         "expected": rec["expected"], "matches": rec["matches"],
                         "reports": [r.to_json() for r in rec["reports"]]}
                        for rec in bundle["records"]]}


# -- elements, R-forms, comodules --------------------------------------------------

def element_to_json(x):
    H = x.context
    return [{"g": H.G.format(g), "f": H.F.format(f), "c": format_scalar(c)}
            for (g, f), c in sorted(x.terms.items(), key=lambda kv: repr(kv[0]))]


def element_from_json(obj, H):
    if not isinstance(obj, list):
        raise SchemaError("element must be a JSON list of terms")
    terms = []
    for i, item in enumerate(obj):
        loc = "element[%d]" % i
        terms.append((H.G.parse(_require(item, "g", loc)),
                      H.F.parse(_require(item, "f", loc)),
                      parse_scalar(_require(item, "c", loc))))
    return H.element(terms)


def rform_to_json(R):
    H = R.H
    entries = []
    for ((g, f), (h, fp)), v in sorted(R.table.items(), key=lambda kv: repr(kv[0])):
        entries.append({"g": H.G.format(g), "f": H.F.format(f),
                        "h": H.G.format(h), "f2": H.F.format(fp),
                        "c": format_scalar(v)})
    out = {"entries": entries}
    if R.window is not None:
        out["window"] = {"maxlen": R.window}
    return out


def rform_from_json(obj, H):
    if not isinstance(obj, dict):
        raise SchemaError("R-form must be a JSON object")
    window = None
    if obj.get("window") is not None:
        window = int(_require(obj["window"], "maxlen", "window"))
    entries = {}
    for i, item in enumerate(_require(obj, "entries", "rform")):
        loc = "entries[%d]" % i
        key = ((H.G.parse(_require(item, "g", loc)), H.F.parse(_require(item, "f", loc))),
               (H.G.parse(_require(item, "h", loc)), H.F.parse(_require(item, "f2", loc))))
        entries[key] = parse_scalar(_require(item, "c", loc))
    return RForm(H, entries, window=window)


def comodule_to_json(V):
    C = V.coalgebra
    H = C.H
    coeffs = {}
    for g in C.stabilizer:
        M = V.matrices[g.key]
        for l in range(V.dim):
            for i in range(V.dim):
                if M.entries[l][i]:
                    coeffs["%d,%d,%s" % (l + 1, i + 1, H.G.format(g))] = \
                        format_scalar(M.entries[l][i])
    return {"f": H.F.format(C.f), "dim": V.dim, "a": coeffs}


def comodule_from_json(obj, H):
    if not isinstance(obj, dict):
        raise SchemaError("comodule must be a JSON object")
    f = H.F.parse(_require(obj, "f", "comodule"))
    dim = int(_require(obj, "dim", "comodule"))
    C = TwistedCoalgebra(H, f)
    coeffs = {}
    for key, val in _require(obj, "a", "comodule").items():
        l, i, g = _split_key(key, 3, "comodule.a")
        coeffs[(int(l), int(i), H.G.parse(g))] = parse_scalar(val)
    return Comodule.from_coefficients(C, dim, coeffs)


# -- files -----------------------------------------------------------------------

def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError("invalid JSON: %s" % e, path)


def save_context(H, path, word_bound=4):
    save_json(context_to_json(H, word_bound), path)


def load_context(path):
    return context_from_json(load_json(path))


def contexts_equal(H1, H2, word_bound=4):
    "Structural equality of two contexts on a verification window."
    if H1.G != H2.G or H1.F != H2.F:
        return False
    G1 = H1.G
    fs = H1.mp.window(word_bound)
    fs2 = {f.key for f in H2.mp.window(word_bound)}
    if {f.key for f in fs} != fs2:
        return False
    for g in G1.elements():
        g2 = H2.G._element(g.key)
        for f in fs:
            f2 = H2.F._element(f.key)
            if H1.mp.act_left(g, f).key != H2.mp.act_left(g2, f2).key:
                return False
            if H1.mp.act_right(g, f).key != H2.mp.act_right(g2, f2).key:
                return False
    for g in G1.elements():
        g2 = H2.G._element(g.key)
        for gp in G1.elements():
            gp2 = H2.G._element(gp.key)
            for f in fs:
                f2 = H2.F._element(f.key)
                if H1.cp.tau(g, gp, f) != H2.cp.tau(g2, gp2, f2):
                    return False
    for g in G1.elements():
        g2 = H2.G._element(g.key)
        for f in fs:
            f2 = H2.F._element(f.key)
            for fp in fs:
                fp2 = H2.F._element(fp.key)
                if H1.cp.sigma(g, f, fp) != H2.cp.sigma(g2, f2, fp2):
                    return False
    return True
