"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All tolerances are exact: every comparison is exact arithmetic in cyclotomic
fields, so "pass" means equality on the nose.
"""

import random
import time
from fractions import Fraction

from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import (TwistedCoalgebra, character, enumerate_onedim,
                               group_comodules, induce)
from hopfcqt.cqt import (RForm, bicharacter_restriction_check, eps_tensor_eps,
                         necessary_battery, structural_zeros, verify_R, z2_r11_rform,
                         z2_r11_solve)
from hopfcqt.errors import NonAbelianStabilizer
from hopfcqt.groups import cyclic_group
from hopfcqt.grothendieck import Z2Simples, multiset_equal
from hopfcqt.hopf import HopfAlgebra, verify_hopf_axioms
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import PASS, all_passed
from hopfcqt.scalars import (MINUS_ONE, ONE, ZERO, rational, root_of_unity,
                             sqrt_root_of_unity)


def _report(number, name, ok, detail=""):
    line = "ACCEPTANCE %d (%s): %s" % (number, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_criterion_1_hopf_axiom_suite():
    t0 = time.monotonic()
    H = get_entry("S3_Z2").context()
    reports = verify_hopf_axioms(H)
    elapsed = time.monotonic() - t0
    by = {r.check: r for r in reports}
    ok = (all_passed(reports)
          and by["associativity"].checked == 12 ** 3
          and by["coassociativity"].checked == 12
          and by["bialgebra-compatibility"].checked == 12 ** 2
          and by["antipode-convolution"].checked == 12
          and elapsed < 10.0)
    bounded_ok = True
    for eid in ("Z2_Z", "Z2_Dinf", "Z3_Dinf", "Q8_Dinf", "Q8_Z"):
        if not all_passed(verify_hopf_axioms(get_entry(eid).context(), 4)):
            bounded_ok = False
            break
    _report(1, "hopf axiom suite", ok and bounded_ok,
            "S3_Z2 exhaustive in %.2fs; bounded entries at L=4" % elapsed)


def test_criterion_2_orbit_commutation():
    mp = get_entry("S3_Z2").context().mp
    fs = mp.F.elements()
    all36 = all(mp.orbit_product_commutes(f, fp)[0] for f in fs for fp in fs)
    witnesses = True
    for eid in ("Z2_Dinf", "Z3_Dinf", "Q8_Dinf"):
        mpd = get_entry(eid).context().mp
        ok, wit = mpd.orbit_product_commutes(mpd.F.parse("x"), mpd.F.parse("y"))
        if ok or wit is None:
            witnesses = False
    _report(2, "orbit commutation", all36 and witnesses,
            "36/36 commuting pairs; witnesses at (x, y) for the dihedral entries")


def test_criterion_3_necessary_battery_verdicts():
    checks = []

    # Z3_Z fails invariance with the character (1, w, w^2)
    ent = get_entry("Z3_Z")
    H = ent.context()
    reports = {r.check: r for r in necessary_battery(H, 4)}
    inv = reports["onedim-character-action-invariance"]
    w = root_of_unity(3)
    chars = enumerate_onedim(TwistedCoalgebra(H, H.F.one))
    omega_char = [V for V in chars if V.matrix("g")[0, 0] == w][0]
    g = H.G.parse("g")
    checks.append(inv.failed)
    checks.append(omega_char.matrix(g)[0, 0] == w)
    checks.append(omega_char.matrix(H.mp.act_right(g, H.F.parse("1")))[0, 0] == w * w)

    # Q8_Z fails the quotient check with X (values (-1)^k on r^k s^l)
    entq = get_entry("Q8_Z")
    Hq = entq.context()
    reports_q = {r.check: r for r in
                 necessary_battery(Hq, 4, quotients=entq.quotient_homs())}
    checks.append(reports_q["quotient-character-exchange"].failed)
    checks.append(reports_q["onedim-character-action-invariance"].failed)
    lifts = group_comodules(Hq, quotient=entq.quotient_homs()[0])
    X = [V for V in lifts
         if V.matrix("r")[0, 0] == MINUS_ONE and V.matrix("s")[0, 0] == ONE][0]
    r = Hq.G.parse("r")
    r_moved = Hq.mp.act_right(r, Hq.F.parse("1"))
    checks.append(r_moved == Hq.G.parse("s"))
    checks.append(X.matrix(r)[0, 0] == MINUS_ONE and X.matrix(r_moved)[0, 0] == ONE)

    # the dihedral entries fail orbit commutation
    for eid in ("Q8_Dinf", "Z2_Dinf", "Z3_Dinf"):
        rep = {r.check: r for r in necessary_battery(get_entry(eid).context(), 3)}
        checks.append(rep["orbit-product-commutation"].failed)

    # S3_Z2 passes every applicable check including the dual-orbit condition
    reports_s = necessary_battery(get_entry("S3_Z2").context(), 4)
    checks.append(all_passed(reports_s))
    by_s = {r.check: r for r in reports_s}
    checks.append(by_s["dual-orbit-product-commutation"].status == PASS)

    _report(3, "necessary battery verdicts", all(checks),
            "%d sub-assertions" % len(checks))


def test_criterion_4_z2_grothendieck_pipeline():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    labels = simples.labels(5)
    pairs = 0
    split_cases = set()
    ok = True
    for l1 in labels:
        for l2 in labels:
            pairs += 1
            rule = simples.tensor_rule(l1, l2)
            pipe = simples.tensor_by_decomposition(l1, l2)
            if not multiset_equal(rule, pipe):
                ok = False
            if l1.kind == "W" and l2.kind == "W":
                split_cases.add(tuple(sorted(x.kind for x in rule)))
    # the reachable branches of the W (x) W split: both parts moved, and one
    # part fixed on either side (both-fixed cannot occur when the fixed part
    # is trivial: i + j = 0 = i - j has no solution with i != 0)
    split_ok = ("W", "W") in split_cases and ("U", "V", "W") in split_cases
    _report(4, "closed tensor table vs generic pipeline", ok and split_ok,
            "%d label pairs at base-point bound 5; W-split branches: %s"
            % (pairs, sorted(split_cases)))


def test_criterion_5_r11_dichotomy():
    cases = z2_r11_solve()
    ks = [c["k"] for c in cases]
    ok = ks == [Fraction(0), Fraction(1, 2)]
    t0, t1 = cases[0]["table"], cases[1]["table"]
    ok = ok and [t0[k] for k in (("1", "1"), ("1", "g"), ("g", "1"), ("g", "g"))] \
        == [ONE, ZERO, ZERO, ZERO]
    ok = ok and [t1[k] for k in (("1", "1"), ("1", "g"), ("g", "1"), ("g", "g"))] \
        == [rational(1, 2), rational(1, 2), rational(1, 2), rational(-1, 2)]

    G = cyclic_group(2)
    F = cyclic_group(1)
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp), "Z2_trivial_F")
    Rhalf = z2_r11_rform(H, cases[1])
    ok = ok and all_passed(verify_R(Rhalf, (0, 1, 2, 3)))
    bad = Rhalf.perturbed(("g", "1"), ("g", "1"), rational(1, 2))
    bad_reports = {r.check: r for r in verify_R(bad, (0, 1, 2, 3))}
    ok = ok and bad_reports["CQT1"].failed and bad_reports["CQT1"].witness is not None
    _report(5, "identity-block dichotomy", ok,
            "roots {0, 1/2}; quarter table passes CQT0-CQT3; perturbation "
            "fails CQT1 at %s" % (bad_reports["CQT1"].witness,))


def _trivial_context(n_g, n_f):
    G = cyclic_group(n_g)
    F = cyclic_group(n_f, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp))


def test_criterion_6_cqt_soundness():
    ok = True
    perturbations = 0
    for n_g in (2, 3):
        for n_f in (2, 3):
            H = _trivial_context(n_g, n_f)
            R = eps_tensor_eps(H)
            if not all_passed(verify_R(R, (0, 1, 2, 3, 4))):
                ok = False
            keys = [(g, f) for g in H.G.elements() for f in H.F.elements()]
            for k1 in keys:
                for k2 in keys:
                    bad = R.perturbed(k1, k2, R.try_value(k1, k2) + ONE)
                    reports = verify_R(bad, (0, 1, 2, 3))
                    failed = [r for r in reports if r.failed]
                    perturbations += 1
                    if not failed or failed[0].witness is None:
                        ok = False
    _report(6, "CQT verifier soundness", ok,
            "eps(x)eps passes CQT0-CQT4 on 4 contexts; all %d single-entry "
            "perturbations fail with witnesses" % perturbations)


def test_criterion_7_property_suites():
    details = []

    # sqrt(x)^2 = x on random roots of unity
    rng = random.Random(2024)
    trials = 0
    ok = True
    for _ in range(150):
        n = rng.randrange(1, 25)
        x = root_of_unity(n, rng.randrange(0, n))
        trials += 1
        if sqrt_root_of_unity(x) ** 2 != x:
            ok = False
    details.append("sqrt: %d trials" % trials)

    # structural zeros on every random small form passing CQT0-CQT3
    from tests_support_random_forms import random_form_trials
    passing = random_form_trials(seed=7, trials=130, check=lambda R: (
        structural_zeros(R) == []))
    ok = ok and passing >= 20
    details.append("structural-zero implication: %d passing forms" % passing)

    # tau-square identity for every random cocycle pair passing verification
    from test_cocycles import random_central_cocycle_pair
    rng = random.Random(77)
    count = 0
    for _ in range(110):
        cp = random_central_cocycle_pair(rng)
        if not all_passed(cp.verify()):
            ok = False
            continue
        count += 1
        F = cp.mp.F
        for f in F.elements():
            for fp in F.elements():
                if not cp.tau_square_identity_check(f, fp):
                    ok = False
    details.append("tau-square: %d verified pairs" % count)

    # character cross-check on all catalog simples: closed formula vs trace
    cross = 0
    for eid in ("Z2_Z", "Z2_Z2_tau", "S3_Z2", "Z3_Z", "Z2_Dinf", "Q8_Z",
                "Z2_Z2xZ_central"):
        H = get_entry(eid).context()
        for f in H.mp.window(2):
            try:
                sols = enumerate_onedim(TwistedCoalgebra(H, f))
            except NonAbelianStabilizer:
                continue
            for V in sols:
                cross += 1
                if induce(V).character_by_trace() != character(V).element:
                    ok = False
    details.append("character cross-check: %d simples" % cross)

    _report(7, "randomized property suites", ok, "; ".join(details))


def test_criterion_8_bicharacter_restriction():
    H = get_entry("Z2_Z2xZ_central").context()
    candidates = {"standard": eps_tensor_eps(H, window=2)}
    entries = {}
    fs = H.mp.window(2)
    for f in fs:
        for fp in fs:
            a, b = f.key[0], fp.key[0]
            entries[((H.G.one, f), (H.G.one, fp))] = \
                MINUS_ONE if (a == 1 and b == 1) else ONE
    candidates["sign-bicharacter"] = RForm(H, entries, window=2)
    ok = True
    for name, R in candidates.items():
        if not all_passed(verify_R(R, (0, 1, 2, 3), qbound=2)):
            ok = False
        reports = bicharacter_restriction_check(R, word_bound=1)
        by = {r.check: r for r in reports}
        for check in ("central-on-fixed-part", "fixed-part-abelian",
                      "sigma-symmetric-on-fixed-part", "grouplike-basis",
                      "bicharacter-unit", "bicharacter-multiplicative"):
            if by[check].status != PASS:
                ok = False
    _report(8, "bicharacter restriction on the central entry", ok,
            "candidates: %s" % ", ".join(sorted(candidates)))
