"""Pinned reports of the sweeps that the catalog golden files do not reach.

`tests/golden/sweeps.json` holds, byte for byte, what these calls returned
when it was written: every verdict, witness, `checked`/`unevaluated` count and
detail.  The catalog files (`tests/golden/<entry>.json`) only pin
`run --entry`, which never calls `verify_R`, the bicharacter and |G| = 2
diagnostics, the comodule verifiers on failing input or the character-ring
sweep off the catalog's bounds.

Regenerate with `PYTHONPATH=src:tests python tests/test_sweeps_golden.py`
only for a change that is meant to alter reports.
"""

import json
import random
from pathlib import Path

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import Comodule, TwistedCoalgebra, enumerate_onedim, induce
from hopfcqt.cqt import (RForm, _qrange, bicharacter_restriction_check,
                         eps_tensor_eps, necessary_battery, verify_R, z2_r11_rform,
                         z2_r11_solve, z2_remark_diagnostics, z2_shape_classify)
from hopfcqt.errors import NonAbelianStabilizer, NotARootOfUnity
from hopfcqt.groups import cyclic_group, symmetric_group_s3
from hopfcqt.grothendieck import Z2Simples, character_commutation_sweep
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.scalars import MINUS_ONE, ONE, Matrix, ZERO, rational, root_of_unity

from test_cqt import _pullback_sign_rform, _sign_bicharacter_rform, _trivial_context
from test_hopf import _perturbed_context

GOLDEN = Path(__file__).parent / "golden" / "sweeps.json"
ALL_LEVELS = [0, 1, 2, 3, 4, "inv"]
TENSOR_ENTRIES = ("Z2_Z2_trivial", "Z2_Z3_trivial", "Z3_Z2_trivial", "Z3_Z3_trivial")


def _json(reports):
    return [r.to_json() for r in reports]


def _r11_context():
    mp = MatchedPair.from_functions(cyclic_group(2), cyclic_group(1),
                                    left=lambda g, f: f, right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp), "Z2_trivial_F")


def _base_forms():
    "name -> (form, qbound) for the passing forms the CQT sweeps are pinned on."
    forms = {}
    for eid in TENSOR_ENTRIES + ("S3_Z2", "Z2_Z2_tau"):
        forms["eps:" + eid] = (eps_tensor_eps(get_entry(eid).context()), None)
    for eid in ("Z2_Z", "Z2_Z2xZ_central"):
        forms["eps-window2:" + eid] = (
            eps_tensor_eps(get_entry(eid).context(), window=2), 2)
    H = _r11_context()
    for k, case in enumerate(z2_r11_solve()):
        forms["r11:%d" % k] = (z2_r11_rform(H, case), None)
    return forms


def _cqt_cases(out):
    forms = _base_forms()
    for name, (R, qbound) in forms.items():
        out["verify_R/" + name] = _json(verify_R(R, ALL_LEVELS, qbound))

    # seeded single-entry perturbations, so that witnesses are compared
    rng = random.Random(5)
    names = sorted(forms)
    for i in range(24):
        name = names[i % len(names)]
        R, qbound = forms[name]
        H = R.H
        keys = [(g, f) for g in H.G.elements() for f in _qrange(R, qbound)]
        k1, k2 = rng.choice(keys), rng.choice(keys)
        value = rng.choice([MINUS_ONE, rational(2)])
        bad = R.perturbed(k1, k2, value)
        out["verify_R/perturbed/%02d/%s/%s,%s=%s" % (i, name, k1, k2, value)] = _json(
            verify_R(bad, ALL_LEVELS, qbound))

    # the form of test_out_of_window_reporting
    H = get_entry("Z2_Z").context()
    R = RForm(H, {((H.G.one, H.F.parse("1")), (H.G.one, H.F.parse("1"))): ONE},
              window=1)
    for qbound in (1, 2):
        out["verify_R/out-of-window/qbound%d" % qbound] = _json(
            verify_R(R, ALL_LEVELS, qbound))


def _bicharacter_cases(out):
    Hc = get_entry("Z2_Z2xZ_central").context()
    Hd = get_entry("Z2_Dinf").context()
    Ht = _trivial_context(2, 2)
    cases = {
        "eps:Z2_Z2xZ_central/wb1": (eps_tensor_eps(Hc, window=2), 1),
        "eps:Z2_Z2xZ_central/wb2": (eps_tensor_eps(Hc, window=2), 2),
        "sign:Z2_Z2xZ_central/wb1": (_sign_bicharacter_rform(Hc, 2), 1),
        "eps:Z2_Dinf/wb2": (eps_tensor_eps(Hd, window=2), 2),
        "flip:Z2_Z2": (_pullback_sign_rform(Ht).perturbed(("g", "t"), ("g", "t"),
                                                          rational(1, 2)), None),
        "unit:Z2_Z2": (_pullback_sign_rform(Ht).perturbed(("1", "1"), ("1", "1"),
                                                          rational(2)), None),
    }
    for name, (R, wb) in cases.items():
        out["bicharacter/" + name] = _json(bicharacter_restriction_check(R, word_bound=wb))


def _z2_cases(out):
    H = get_entry("Z2_Z").context()
    g1 = (H.G.one, H.F.parse("0"))
    gg = (H.G.parse("g"), H.F.parse("0"))
    t1 = (H.G.parse("g"), H.F.parse("1"))
    t2 = (H.G.parse("g"), H.F.parse("2"))
    m1 = (H.G.one, H.F.parse("1"))
    m2 = (H.G.one, H.F.parse("2"))
    shapes = {
        "R1": RForm(H, {(g1, g1): ONE, (m1, (H.G.one, H.F.parse("-1"))): ONE}, window=2),
        "R2": RForm(H, {(g1, g1): ONE, (t1, t2): ONE, (m1, gg): ONE, (gg, m2): ONE},
                    window=2),
        "R3": RForm(H, {(m1, m2): ONE, (t1, t2): ONE}, window=2),
        "half": RForm(H, {(g1, g1): rational(1, 2), (g1, gg): rational(1, 2),
                          (gg, g1): rational(1, 2), (gg, gg): rational(-1, 2),
                          (t1, t2): ONE}, window=2),
        "eps:Z2_Z2_tau": eps_tensor_eps(get_entry("Z2_Z2_tau").context()),
    }
    for name, R in shapes.items():
        res = z2_shape_classify(R)
        out["z2_shape/" + name] = {"verdict": res["verdict"],
                                   "reports": _json(res["reports"])}
    Ht = _r11_context()
    half = z2_r11_rform(Ht, z2_r11_solve()[1])
    zero = z2_r11_rform(Ht, z2_r11_solve()[0])
    remarks = {
        "half": half,
        "zero": zero,
        "half-perturbed": half.perturbed(("g", "1"), ("g", "1"), ONE),
        "zero-perturbed": zero.perturbed(("g", "1"), ("1", "1"), ONE),
        "other-k": zero.perturbed(("1", "1"), ("g", "1"), rational(2)),
    }
    for name, R in remarks.items():
        out["z2_remark/" + name] = _json([z2_remark_diagnostics(R)])


def _comodule_cases(out):
    for eid in entry_ids():
        H = get_entry(eid).context()
        for f in H.mp.window(1):
            C = TwistedCoalgebra(H, f)
            try:
                simples = enumerate_onedim(C)
            except (NonAbelianStabilizer, NotARootOfUnity) as e:
                out["comodules/%s/%s" % (eid, f)] = type(e).__name__
                continue
            for i, V in enumerate(simples):
                out["comodules/%s/%s/%d" % (eid, f, i)] = {
                    "comodule": _json(V.verify()), "induced": _json(induce(V).verify())}

    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, "t")
    g = H.G.parse("g")
    s = root_of_unity(4)
    corrupted = {
        "dim1": Comodule(C, 1, {H.G.one: Matrix.identity(1), g: Matrix([[ONE]])}),
        "dim2": Comodule(C, 2, {H.G.one: Matrix.identity(2),
                                g: Matrix([[s, ZERO], [ZERO, ONE]])}),
        "counit": Comodule(C, 1, {H.G.one: Matrix([[rational(2)]]), g: Matrix([[s]])}),
    }
    for name, V in corrupted.items():
        out["comodules/corrupted/" + name] = _json(V.verify())

    W = induce(enumerate_onedim(TwistedCoalgebra(get_entry("Z2_Z").context(), "1"))[0])
    key = list(W.blocks)[-1]
    W.blocks[key] = W.blocks[key] * rational(2)
    out["comodules/corrupted/induced"] = _json(W.verify())


def _character_cases(out):
    for eid, bound in (("Z2_Z", 3), ("Z2_Z2_tau", 1), ("Z2_Dinf", 2),
                       ("Z2_Z2xZ_central", 2)):
        simples = Z2Simples(get_entry(eid).context())
        chars = [simples.character(l) for l in simples.labels(bound)]
        out["character-ring/%s/%d" % (eid, bound)] = character_commutation_sweep(
            chars).to_json()


def _structure_cases(out):
    "Matched-pair, cocycle and battery sweeps on corrupted input."
    G = cyclic_group(2)
    F = symmetric_group_s3()
    t = F.parse("(1 2)")

    def left(a, nu):
        if a.is_identity():
            return nu
        return F.parse("(1 3)") if nu == F.parse("(1 3)") else F.mul(F.mul(t, nu), t)

    mp = MatchedPair.from_functions(G, F, left=left, right=lambda a, nu: a)
    out["matched-pair/corrupted-S3_Z2"] = _json(mp.verify())
    for seed, eid in enumerate(entry_ids()):
        H = _perturbed_context(eid, seed)
        out["cocycles/perturbed/%s" % H.name] = _json(H.cp.verify(2))

    # the battery off the catalog's bounds, and with one sigma value flipped
    # (tau stays trivial, so every stabilizer coalgebra is still coassociative)
    rng = random.Random(11)
    for eid in entry_ids():
        entry = get_entry(eid)
        H = entry.context()
        quotients = entry.quotient_homs()
        out["battery/%s/2" % eid] = _json(necessary_battery(H, 2, quotients))
        cp, mp = H.cp, H.mp
        fs = mp.window(2)
        (sigma, sigma_default), (tau, tau_default) = cp.tables["sigma"], cp.tables["tau"]
        sigma = dict(sigma)
        sigma[(rng.choice(mp.G.elements()).key, rng.choice(fs).key,
               rng.choice(fs).key)] = MINUS_ONE
        Hs = HopfAlgebra(CocyclePair.from_tables(mp, sigma, tau, sigma_default, tau_default))
        out["battery/sigma-flipped/%s/2" % eid] = _json(necessary_battery(Hs, 2, quotients))


def snapshot():
    out = {}
    for part in (_cqt_cases, _bicharacter_cases, _z2_cases, _comodule_cases,
                 _character_cases, _structure_cases):
        part(out)
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def test_sweeps_match_golden():
    assert snapshot() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(snapshot())
