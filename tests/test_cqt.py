import random
from fractions import Fraction

import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import (RForm, bicharacter_restriction_check, battery_obstructed,
                         check_orbit_commutation, eps_tensor_eps,
                         necessary_battery, passes_cqt, search_R,
                         solve_rational_quadratic, structural_zeros, verify_R,
                         z2_r11_rform, z2_r11_solve, z2_remark_diagnostics,
                         z2_shape_classify)
from hopfcqt.errors import WrongGroup
from hopfcqt.groups import GroupHom, cyclic_group, klein_four_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import FAIL, PASS
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity


def _trivial_context(n_g, n_f):
    G = cyclic_group(n_g)
    F = cyclic_group(n_f, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f,
                                    right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp))


def test_rational_quadratic():
    assert solve_rational_quadratic(2, -1, 0) == [Fraction(0), Fraction(1, 2)]
    assert solve_rational_quadratic(1, -3, 2) == [Fraction(1), Fraction(2)]
    with pytest.raises(ValueError):
        solve_rational_quadratic(1, 0, -2)


def test_r11_dichotomy():
    cases = z2_r11_solve()
    assert [c["k"] for c in cases] == [Fraction(0), Fraction(1, 2)]
    t0 = cases[0]["table"]
    assert (t0[("1", "1")], t0[("1", "g")], t0[("g", "1")], t0[("g", "g")]) == \
        (ONE, ZERO, ZERO, ZERO)
    t1 = cases[1]["table"]
    assert (t1[("1", "1")], t1[("1", "g")], t1[("g", "1")], t1[("g", "g")]) == \
        (rational(1, 2), rational(1, 2), rational(1, 2), rational(-1, 2))


def test_r11_tables_pass_on_f_trivial_context():
    H = _trivial_context(2, 1)
    for case in z2_r11_solve():
        R = z2_r11_rform(H, case)
        assert passes_cqt(R, (0, 1, 2, 3))
        assert passes_cqt(R, (4, "inv"))


def test_perturbed_r11_fails_with_cqt1_witness():
    H = _trivial_context(2, 1)
    R = z2_r11_rform(H, z2_r11_solve()[1])
    bad = R.perturbed(("g", "1"), ("g", "1"), rational(1, 2))
    reports = {r.check: r for r in verify_R(bad, (0, 1, 2, 3))}
    assert reports["CQT1"].failed
    assert reports["CQT1"].witness is not None


def test_eps_eps_passes_everything_on_trivial_contexts():
    for n_g in (2, 3):
        for n_f in (2, 3):
            H = _trivial_context(n_g, n_f)
            R = eps_tensor_eps(H)
            assert passes_cqt(R, (0, 1, 2, 3, 4, "inv"))


def test_single_entry_perturbations_all_fail():
    H = _trivial_context(2, 2)
    R = eps_tensor_eps(H)
    keys = [(g, f) for g in H.G.elements() for f in H.F.elements()]
    for k1 in keys:
        for k2 in keys:
            bad = R.perturbed(k1, k2, R.try_value(k1, k2) + ONE)
            reports = verify_R(bad, (0, 1, 2, 3))
            failed = [r for r in reports if r.failed]
            assert failed, (k1, k2)
            assert failed[0].witness is not None


def test_search_recovers_the_two_identity_tables():
    H = _trivial_context(2, 1)
    found = search_R(H, [ZERO, ONE, rational(1, 2), rational(-1, 2), MINUS_ONE])
    assert len(found) == 2
    tables = sorted(
        tuple(sorted((str(k1[0]), str(k2[0]), repr(v))
                     for ((k1, k2), v) in R.table.items()))
        for R in found)
    assert tables[0] == (("1", "1", "1"),)
    assert tables[1] == tuple(sorted([("1", "1", "1/2"), ("1", "g", "1/2"),
                                      ("g", "1", "1/2"), ("g", "g", "-1/2")]))


def test_search_refuses_large_contexts():
    with pytest.raises(WrongGroup):
        search_R(_trivial_context(3, 3), [ZERO, ONE])


def test_structural_zero_examples():
    Hz = get_entry("Z2_Z").context()
    one_f = Hz.F.one
    f1 = Hz.F.parse("1")
    # R(p_g # 1, p_1 # 1) != 0: ff' = 2 but (h|>f')(g|>f) = 1 + (-1) = 0
    R = RForm(Hz, {((Hz.G.parse("g"), f1), (Hz.G.one, f1)): ONE}, window=2)
    rules = {v.check for v in structural_zeros(R)}
    assert "structural-zero:product-mismatch" in rules

    # entry at (p_g # (g^-1 |> f), p_h # 1) with g outside G_f is flagged
    R2 = RForm(Hz, {((Hz.G.parse("g"), Hz.F.parse("-2")), (Hz.G.one, one_f)): ONE},
               window=2)
    rules2 = {v.check for v in structural_zeros(R2)}
    assert "structural-zero:identity-column" in rules2

    # support only on stabilizer-aligned pairs: the abelian-F rule stays silent
    R3 = RForm(Hz, {((Hz.G.one, Hz.F.parse("0")), (Hz.G.parse("g"), Hz.F.parse("0"))): ONE},
               window=2)
    rules3 = {v.check for v in structural_zeros(R3)}
    assert "structural-zero:stabilizer-mismatch" not in rules3


def test_structural_zeros_empty_for_passing_forms():
    for n_g in (2, 3):
        for n_f in (2, 3):
            H = _trivial_context(n_g, n_f)
            R = eps_tensor_eps(H)
            assert passes_cqt(R, (0, 1, 2, 3))
            assert structural_zeros(R) == []


def _pullback_sign_rform(H, window=None):
    "R(p_x # f, p_y # f') = T(x, y) from the quarter table; passes CQT0-CQT3."
    T = z2_r11_solve()[1]["table"]
    fs = H.mp.window(window) if window is not None else H.F.elements()
    entries = {}
    for xn in ("1", "g"):
        for yn in ("1", "g"):
            for f in fs:
                for fp in fs:
                    entries[((H.G.parse(xn), f), (H.G.parse(yn), fp))] = T[(xn, yn)]
    return RForm(H, entries, window=window)


def test_pullback_sign_form_passes_and_zeros_hold():
    H = _trivial_context(2, 2)
    R = _pullback_sign_rform(H)
    assert passes_cqt(R, (0, 1, 2, 3))
    assert structural_zeros(R) == []


def test_implication_random_forms():
    "Any random small form that passes CQT0-CQT3 has an empty structural-zero scan."
    from tests_support_random_forms import random_form_trials
    passing = random_form_trials(seed=99, trials=120,
                                 check=lambda R: structural_zeros(R) == [])
    assert passing >= 20  # the implication was exercised, not vacuous


def test_necessary_battery_reproduces_example_verdicts():
    ent = get_entry("Z3_Z")
    reports = necessary_battery(ent.context(), 4)
    by = {r.check: r for r in reports}
    assert battery_obstructed(reports)
    inv = by["onedim-character-action-invariance"]
    assert inv.failed
    # the witness names the character (1, w, w^2) and its moved value
    assert "zeta(3,1)" in " ".join(str(w) for w in inv.witness)

    ent = get_entry("Q8_Z")
    reports = necessary_battery(ent.context(), 4, quotients=ent.quotient_homs())
    by = {r.check: r for r in reports}
    assert battery_obstructed(reports)
    assert by["quotient-character-exchange"].failed
    assert by["onedim-character-action-invariance"].failed

    for eid in ("Q8_Dinf", "Z2_Dinf", "Z3_Dinf"):
        reports = necessary_battery(get_entry(eid).context(), 3)
        by = {r.check: r for r in reports}
        assert by["orbit-product-commutation"].failed

    reports = necessary_battery(get_entry("S3_Z2").context(), 4)
    assert not battery_obstructed(reports)
    by = {r.check: r for r in reports}
    assert by["dual-orbit-product-commutation"].status == PASS


def test_battery_builds_one_coalgebra_per_base_point(monkeypatch):
    import hopfcqt.cqt

    builds = {}

    class Counting(hopfcqt.cqt.TwistedCoalgebra):
        def __init__(self, H, f):
            super().__init__(H, f)
            builds[self.f.key] = builds.get(self.f.key, 0) + 1

    monkeypatch.setattr(hopfcqt.cqt, "TwistedCoalgebra", Counting)
    ent = get_entry("Q8_Dinf")
    necessary_battery(ent.context(), ent.default_bound,
                      ent.registered_comodules(), ent.quotient_homs())
    assert builds  # the battery does build stabilizer coalgebras here
    assert max(builds.values()) == 1, builds


def test_orbit_commutation_witness_at_x_y():
    mp = get_entry("Z2_Dinf").context().mp
    ok, wit = mp.orbit_product_commutes(mp.F.parse("x"), mp.F.parse("y"))
    assert not ok and wit == mp.F.parse("x*y")
    mp = get_entry("Q8_Dinf").context().mp
    ok, wit = mp.orbit_product_commutes(mp.F.parse("x"), mp.F.parse("y"))
    assert not ok and wit == mp.F.parse("x*y")


def test_battery_failure_implies_candidates_fail(seed=31):
    "Spot-check: on an obstructed finite-like context, sampled forms fail CQT0-3."
    rng = random.Random(seed)
    H = get_entry("Z3_Z").context()
    assert battery_obstructed(necessary_battery(H, 3))
    keys = [(g, f) for g in H.G.elements() for f in H.mp.window(2)]
    values = [ZERO, ONE, MINUS_ONE, rational(1, 2), root_of_unity(3)]
    for _ in range(40):
        entries = {}
        for _ in range(rng.randrange(1, 8)):
            entries[(rng.choice(keys), rng.choice(keys))] = rng.choice(values)
        R = RForm(H, entries, window=2)
        assert not passes_cqt(R, (0, 1, 2, 3), qbound=2)


def test_bicharacter_restriction_eps_eps():
    H = get_entry("Z2_Z2xZ_central").context()
    R = eps_tensor_eps(H, window=2)
    assert passes_cqt(R, (0, 1, 2, 3), qbound=2)
    reports = bicharacter_restriction_check(R, word_bound=1)
    by = {r.check: r for r in reports}
    for name in ("central-on-fixed-part", "fixed-part-abelian",
                 "sigma-symmetric-on-fixed-part", "grouplike-basis",
                 "bicharacter-unit", "bicharacter-multiplicative"):
        assert by[name].status == PASS, name


def _sign_bicharacter_rform(H, window):
    "R(p_1 # (a,i), p_1 # (b,j)) = (-1)^(ab), zero on the g rows and columns."
    F = H.F
    entries = {}
    fs = H.mp.window(window)
    for f in fs:
        for fp in fs:
            a, b = f.key[0], fp.key[0]
            val = MINUS_ONE if (a == 1 and b == 1) else ONE
            entries[((H.G.one, f), (H.G.one, fp))] = val
    return RForm(H, entries, window=window)


def test_bicharacter_restriction_sign_form():
    H = get_entry("Z2_Z2xZ_central").context()
    R = _sign_bicharacter_rform(H, 2)
    assert passes_cqt(R, (0, 1, 2, 3), qbound=2)
    reports = bicharacter_restriction_check(R, word_bound=1)
    assert all(r.status == PASS for r in reports)


def test_bicharacter_restriction_nonabelian_fixed_part():
    H = get_entry("Z2_Dinf").context()
    R = eps_tensor_eps(H, window=2)
    reports = bicharacter_restriction_check(R, word_bound=2)
    by = {r.check: r for r in reports}
    assert by["fixed-part-abelian"].failed


def test_bicharacter_flip_fails_multiplicativity():
    H = _trivial_context(2, 2)
    R = _pullback_sign_rform(H)
    bad = R.perturbed(("g", "t"), ("g", "t"), rational(1, 2))
    reports = bicharacter_restriction_check(bad)
    by = {r.check: r for r in reports}
    assert by["bicharacter-multiplicative"].failed


def test_z2_shape_classify():
    H = get_entry("Z2_Z").context()
    g1 = (H.G.one, H.F.parse("0"))
    gg = (H.G.parse("g"), H.F.parse("0"))
    # support on (p_1, p_1) only: shape (1)
    R1 = RForm(H, {(g1, g1): ONE,
                   ((H.G.one, H.F.parse("1")), (H.G.one, H.F.parse("-1"))): ONE},
               window=2)
    out = z2_shape_classify(R1)
    assert out["verdict"] == "shape(1)"
    # the four membership patterns: shape (2)
    t1 = (H.G.parse("g"), H.F.parse("1"))
    t2 = (H.G.parse("g"), H.F.parse("2"))
    R2 = RForm(H, {(g1, g1): ONE, (t1, t2): ONE,
                   ((H.G.one, H.F.parse("1")), gg): ONE,
                   (gg, (H.G.one, H.F.parse("2"))): ONE}, window=2)
    out = z2_shape_classify(R2)
    assert out["verdict"] == "shape(2)"
    # moved-moved (p_1, p_1) support plus (p_g, p_g) support: nonconforming
    m1 = (H.G.one, H.F.parse("1"))
    m2 = (H.G.one, H.F.parse("2"))
    R3 = RForm(H, {(m1, m2): ONE, (t1, t2): ONE}, window=2)
    out = z2_shape_classify(R3)
    assert out["verdict"] == "nonconforming"
    by = {r.check: r for r in out["reports"]}
    assert by["z2-zero-products"].failed


def test_z2_shape_hypothesis_gate():
    H = get_entry("Z2_Z2_tau").context()  # everything fixed: no moved points
    R = eps_tensor_eps(H)
    out = z2_shape_classify(R)
    assert out["verdict"] == "hypothesis-not-met"


def test_z2_remark_diagnostics():
    H = _trivial_context(2, 1)
    Rhalf = z2_r11_rform(H, z2_r11_solve()[1])
    rep = z2_remark_diagnostics(Rhalf)
    assert rep.check == "z2-remark-quarter-identity" and rep.status == PASS
    R0 = z2_r11_rform(H, z2_r11_solve()[0])
    rep = z2_remark_diagnostics(R0)
    assert rep.check == "z2-remark-unit-products" and rep.status == PASS


def test_out_of_window_reporting():
    H = get_entry("Z2_Z").context()
    # window too small for products: instances become unevaluated, not passes
    R = RForm(H, {((H.G.one, H.F.parse("1")), (H.G.one, H.F.parse("1"))): ONE},
              window=1)
    reports = verify_R(R, (1,), qbound=1)
    assert reports[0].unevaluated > 0
