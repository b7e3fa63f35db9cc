"""JSON input/output for contexts, elements, comodules, and R-forms.

Element references inside JSON are literals parsed by the owning group, so
element-valued payloads (R-forms, comodules, Hopf elements) load relative to
an explicit context.  Key encodings use '|' between element literals, with
the comma form accepted on input when unambiguous.
"""

from __future__ import annotations

import itertools
import json

from .cocycles import CocyclePair
from .comodules import Comodule, TwistedCoalgebra
from .cqt import RForm
from .errors import SchemaError, shown
from .groups import group_from_descriptor, json_int
from .hopf import HopfAlgebra
from .matched_pair import MatchedPair
from .scalars import ONE, format_scalar, parse_scalar


def _split_key(key, parts, location):
    if "|" in key:
        bits = key.split("|")
    else:
        bits = key.split(",", parts - 1)
    if len(bits) != parts:
        raise SchemaError("expected %d '|'-separated fields in key %s" % (parts, shown(key)),
                          location)
    return [b.strip() for b in bits]


def _object(obj, location):
    "obj itself when it is a JSON object."
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object, got %s" % shown(obj), location)
    return obj


def _require(obj, field, location):
    if field not in _object(obj, location):
        raise SchemaError("missing field %r" % field, location)
    return obj[field]


def _literal(value, location):
    "value itself when it is a JSON string (an element or scalar literal)."
    if not isinstance(value, str):
        raise SchemaError("expected a string literal, got %s" % shown(value), location)
    return value


def _element(group, obj, field, location):
    "The element literal obj[field], parsed by group."
    return group.parse(_literal(_require(obj, field, location), location))


# -- contexts -------------------------------------------------------------------

def context_to_json(H):
    """Serializable description of a Hopf context, exact or refused.

    A table-backed cocycle (CocyclePair.tables) is written as its table and
    default, and a cocycle given by rules over finite F as every value other
    than 1.  A None default or a rule over infinite F raises SchemaError: no
    JSON loads back as that pair.
    """
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
    for tag, groups, lookup in (("sigma", (G, F, F), cp.sigma), ("tau", (G, G, F), cp.tau)):
        if cp.tables is not None:
            table, default = cp.tables[tag]
            if default is None:
                raise SchemaError("%s table without a default is not serializable" % tag, tag)
            items = table.items()
        elif F.is_finite:
            default = ONE
            items = (((a.key, b.key, c.key), lookup(a, b, c))
                     for a, b, c in itertools.product(*(X.elements() for X in groups)))
        else:
            raise SchemaError("rule-based %s over infinite F is not serializable" % tag, tag)
        out[tag] = {"|".join(X.format(X._element(k)) for X, k in zip(groups, keys)):
                    format_scalar(v) for keys, v in items if v != default}
        out[tag]["default"] = format_scalar(default)
    return out


def context_from_json(obj):
    _object(obj, "context")
    G = group_from_descriptor(_require(obj, "G", "context"))
    F = group_from_descriptor(_require(obj, "F", "context"))
    gens = {u.key for u in F.generators()}
    left_tables, right_tables = {}, {}
    for dst, parser, loc in ((left_tables, F.parse, "left_action"),
                             (right_tables, G.parse, "right_action")):
        for key, val in _object(_require(obj, loc, "context"), loc).items():
            gtxt, gentxt = _split_key(key, 2, loc)
            try:
                g = G.parse(gtxt)
                gen = F.parse(gentxt)
                if gen.key not in gens:  # from_generator_tables would never read it
                    raise SchemaError("%s is not a generator of F; actions are given on "
                                      "generators only" % shown(gentxt))
                dst[(g.key, gen.key)] = parser(_literal(val, loc))
            except SchemaError as e:
                raise SchemaError(str(e), "%s[%s]" % (loc, shown(key)))
    mp = MatchedPair.from_generator_tables(G, F, left_tables, right_tables)
    sigma, sdef = _cocycle_table_from_json(obj.get("sigma", {}), G, F, F, "sigma")
    tau, tdef = _cocycle_table_from_json(obj.get("tau", {}), G, G, F, "tau")
    cp = CocyclePair.from_tables(mp, sigma, tau, sigma_default=sdef, tau_default=tdef)
    return HopfAlgebra(cp, name=obj.get("name", ""))


def _cocycle_table_from_json(obj, A, B, C, loc):
    default = ONE
    table = {}
    for key, val in _object(obj, loc).items():
        if key == "default":
            default = parse_scalar(val)
            continue
        a, b, c = _split_key(key, 3, loc)
        try:
            table[(A.parse(a).key, B.parse(b).key, C.parse(c).key)] = parse_scalar(val)
        except SchemaError as e:
            raise SchemaError(str(e), "%s[%s]" % (loc, shown(key)))
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
        terms.append((_element(H.G, item, "g", loc), _element(H.F, item, "f", loc),
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
    _object(obj, "rform")
    window = None
    if obj.get("window") is not None:
        window = json_int(_require(obj["window"], "maxlen", "window"), "window.maxlen")
    items = _require(obj, "entries", "rform")
    if not isinstance(items, list):
        raise SchemaError("entries must be a JSON list", "rform")
    entries = {}
    for i, item in enumerate(items):
        loc = "entries[%d]" % i
        key = ((_element(H.G, item, "g", loc), _element(H.F, item, "f", loc)),
               (_element(H.G, item, "h", loc), _element(H.F, item, "f2", loc)))
        entries[key] = parse_scalar(_require(item, "c", loc))
    try:
        return RForm(H, entries, window=window)
    except ValueError as e:  # no window over infinite F, or an entry outside it
        raise SchemaError(str(e), "rform")


# The largest comodule dimension comodule_from_json accepts.
MAX_COMODULE_DIM = 64


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
    _object(obj, "comodule")
    f = _element(H.F, obj, "f", "comodule")
    dim = json_int(_require(obj, "dim", "comodule"), "comodule.dim")
    if not 1 <= dim <= MAX_COMODULE_DIM:
        # Comodule allocates a dim x dim block per stabilizer element before any check
        raise SchemaError("dim must be between 1 and %d, got %d" % (MAX_COMODULE_DIM, dim),
                          "comodule.dim")
    C = TwistedCoalgebra(H, f)
    coeffs = {}
    for key, val in _object(_require(obj, "a", "comodule"), "comodule.a").items():
        l, i, g = _split_key(key, 3, "comodule.a")
        l, i = json_int(l, "comodule.a"), json_int(i, "comodule.a")
        if not (1 <= l <= dim and 1 <= i <= dim):
            raise SchemaError("index in key %s outside 1..%d" % (shown(key), dim), "comodule.a")
        coeffs[(l, i, H.G.parse(g))] = parse_scalar(val)
    return Comodule.from_coefficients(C, dim, coeffs)


# -- files -----------------------------------------------------------------------

def save_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_json(text, location):
    "The JSON document in text; malformed or too deeply nested JSON raises SchemaError."
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SchemaError("invalid JSON: %s" % e, location)


def load_json(path):
    "The JSON document in the UTF-8 file at path; an unreadable file raises SchemaError."
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise SchemaError("cannot read JSON file: %s" % e, path)
    return parse_json(text, path)


def save_context(H, path):
    save_json(context_to_json(H), path)


def load_context(path):
    return context_from_json(load_json(path))


def contexts_equal(H1, H2, word_bound=4):
    """Structural equality of two contexts on a verification window: equal G
    and F, and equal |>, <|, tau and sigma at every point of the window."""
    if H1.G != H2.G or H1.F != H2.F:
        return False
    points = {"G": H1.G.elements(), "F": H1.mp.window(word_bound)}
    groups = {"G": H2.G, "F": H2.F}
    for kinds, value1, value2 in (("GF", H1.mp.act_left, H2.mp.act_left),
                                  ("GF", H1.mp.act_right, H2.mp.act_right),
                                  ("GGF", H1.cp.tau, H2.cp.tau),
                                  ("GFF", H1.cp.sigma, H2.cp.sigma)):
        for args in itertools.product(*(points[k] for k in kinds)):
            if value1(*args) != value2(*(groups[k]._element(a.key)
                                         for k, a in zip(kinds, args))):
                return False
    return True
