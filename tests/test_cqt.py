import random
from fractions import Fraction

import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import (RForm, bicharacter_restriction_check, check_orbit_commutation,
                         eps_tensor_eps, necessary_battery, search_R, structural_zeros,
                         verify_R, z2_r11_rform, z2_r11_solve, z2_remark_diagnostics,
                         z2_shape_classify)
from hopfcqt.errors import (BadWindow, HopfCqtError, MixedGroups, NotAScalar, OutOfWindow,
                           UnknownLevel, WrongGroup)
from hopfcqt.groups import GroupHom, cyclic_group, klein_four_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MAX_WINDOW, MatchedPair
from hopfcqt.reports import FAIL, PASS, all_passed
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity


def _trivial_context(n_g, n_f):
    G = cyclic_group(n_g)
    F = cyclic_group(n_f, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f,
                                    right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp))


def _identity_block_form(H, k):
    "The R-form with (1 - k, k, k, -k) on the (., 1) x (., 1) block and 0 elsewhere."
    table = {("1", "1"): rational(1 - k), ("1", "g"): rational(k),
             ("g", "1"): rational(k), ("g", "g"): rational(-k)}
    return z2_r11_rform(H, {"k": k, "table": table})


@pytest.mark.parametrize("k", ["0", "1/2", "-1", "1/3", "1", "2"])
def test_r11_roots_are_the_identity_blocks_that_pass(k):
    # k (2k - 1) = 0 is stated, not solved: its roots pass CQT0-CQT3 on the
    # F-trivial |G| = 2 context, and other k fail the product conditions there
    k = Fraction(k)
    roots = [c["k"] for c in z2_r11_solve()]
    reports = {r.check: r for r in verify_R(_identity_block_form(_trivial_context(2, 1), k),
                                            (0, 1, 2, 3))}
    if k in roots:
        assert all(r.passed for r in reports.values())
    else:
        for level in ("CQT1", "CQT2"):
            assert reports[level].failed and reports[level].witness is not None


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
        assert all_passed(verify_R(R, (0, 1, 2, 3)))
        assert all_passed(verify_R(R, (4, "inv")))


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
            assert all_passed(verify_R(R, (0, 1, 2, 3, 4, "inv")))


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


def _zero_scan(eid, pairs, window=None):
    "structural_zeros of the form with value 1 on the named entries, as readable rows."
    H = get_entry(eid).context()
    G, F = H.G, H.F
    R = RForm(H, {((G.parse(g), F.parse(f)), (G.parse(h), F.parse(fp))): ONE
                  for g, f, h, fp in pairs}, window=window)
    return [(v.check[len("structural-zero:"):], tuple(str(w) for w in v.witness), v.detail)
            for v in structural_zeros(R)]


def test_structural_zeros_pin_every_rule():
    # Z2 negating Z: g moves every nonzero integer; F abelian, so all four rules apply
    product = "ff' differs from (h|>f')(g|>f) but R = 1"
    stab = "exactly one of g, h stabilizes its base point"
    column = "g moves f or g|>f yet R(p_g#f, p_h#1) = 1"
    row = "h moves f' or h|>f' yet R(p_g#1, p_h#f') = 1"
    scan = _zero_scan("Z2_Z", [("g", "1", "1", "0"), ("1", "0", "g", "1"),
                               ("1", "1", "1", "2"), ("g", "2", "g", "-2"),
                               ("g", "-2", "1", "0"), ("g", "0", "1", "-1")], window=2)
    assert scan == [
        ("product-mismatch", ("g", "1", "1", "0"), product),
        ("stabilizer-mismatch", ("g", "1", "1", "0"), stab),
        ("identity-column", ("g", "1", "1", "0"), column),
        ("product-mismatch", ("1", "0", "g", "1"), product),
        ("stabilizer-mismatch", ("1", "0", "g", "1"), stab),
        ("identity-row", ("1", "0", "g", "1"), row),
        ("product-mismatch", ("g", "-2", "1", "0"), product),
        ("stabilizer-mismatch", ("g", "-2", "1", "0"), stab),
        ("identity-column", ("g", "-2", "1", "0"), column),
    ]

    # S3 twisted by the conjugation by (1 2): F is not abelian, so the stabilizer
    # rule stays silent even on (p_g # (1 2), p_g # (1 3)), where g fixes (1 2),
    # moves (1 3) and the products agree
    scan = _zero_scan("S3_Z2", [("g", "(1 3)", "1", "()"), ("1", "()", "g", "(1 2 3)"),
                                ("g", "(1 2)", "g", "(1 3)")])
    assert scan == [
        ("product-mismatch", ("g", "(1 3)", "1", "()"), product),
        ("identity-column", ("g", "(1 3)", "1", "()"), column),
        ("product-mismatch", ("1", "()", "g", "(1 2 3)"), product),
        ("identity-row", ("1", "()", "g", "(1 2 3)"), row),
    ]


def test_structural_zeros_empty_for_passing_forms():
    for n_g in (2, 3):
        for n_f in (2, 3):
            H = _trivial_context(n_g, n_f)
            R = eps_tensor_eps(H)
            assert all_passed(verify_R(R, (0, 1, 2, 3)))
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
    assert all_passed(verify_R(R, (0, 1, 2, 3)))
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
    assert not all_passed(reports)
    inv = by["onedim-character-action-invariance"]
    assert inv.failed
    # the witness names the character (1, w, w^2) and its moved value
    assert "zeta(3,1)" in " ".join(str(w) for w in inv.witness)

    ent = get_entry("Q8_Z")
    reports = necessary_battery(ent.context(), 4, quotients=ent.quotient_homs())
    by = {r.check: r for r in reports}
    assert not all_passed(reports)
    assert by["quotient-character-exchange"].failed
    assert by["onedim-character-action-invariance"].failed

    for eid in ("Q8_Dinf", "Z2_Dinf", "Z3_Dinf"):
        reports = necessary_battery(get_entry(eid).context(), 3)
        by = {r.check: r for r in reports}
        assert by["orbit-product-commutation"].failed

    reports = necessary_battery(get_entry("S3_Z2").context(), 4)
    assert all_passed(reports)
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
    necessary_battery(ent.context(), ent.default_bound, ent.quotient_homs())
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
    assert not all_passed(necessary_battery(H, 3))
    keys = [(g, f) for g in H.G.elements() for f in H.mp.window(2)]
    values = [ZERO, ONE, MINUS_ONE, rational(1, 2), root_of_unity(3)]
    for _ in range(40):
        entries = {}
        for _ in range(rng.randrange(1, 8)):
            entries[(rng.choice(keys), rng.choice(keys))] = rng.choice(values)
        R = RForm(H, entries, window=2)
        assert not all_passed(verify_R(R, (0, 1, 2, 3), qbound=2))


def test_bicharacter_restriction_eps_eps():
    H = get_entry("Z2_Z2xZ_central").context()
    R = eps_tensor_eps(H, window=2)
    assert all_passed(verify_R(R, (0, 1, 2, 3), qbound=2))
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
    assert all_passed(verify_R(R, (0, 1, 2, 3), qbound=2))
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


def _windowed_form():
    H = get_entry("Z2_Z").context()
    return RForm(H, {((H.G.one, H.F.parse("1")), (H.G.one, H.F.parse("1"))): ONE}, window=1)


@pytest.mark.parametrize("call, error, builtin", [
    (lambda: RForm(get_entry("Z2_Z").context(), {}), BadWindow, ValueError),
    (lambda: eps_tensor_eps(get_entry("Z2_Z").context()), BadWindow, ValueError),
    (lambda: RForm(get_entry("Z2_Z").context(), {(("1", "2"), ("1", "0")): ONE}, window=1),
     BadWindow, ValueError),
    (lambda: RForm(get_entry("Z2_Z2_tau").context(), {(("1", "1"), ("1", "1")): "x"}),
     NotAScalar, TypeError),
    (lambda: _windowed_form().perturbed(("1", "1"), ("1", "1"), "x"), NotAScalar, TypeError),
    (lambda: _windowed_form().value(("1", "2"), ("1", "0")), OutOfWindow, KeyError),
    (lambda: verify_R(_windowed_form(), (0, 7)), UnknownLevel, ValueError),
    (lambda: RForm(get_entry("Z2_Z").context(), {}, window=-2), BadWindow, ValueError),
    (lambda: RForm(get_entry("Z2_Z2_tau").context(), {}, window=-2), BadWindow, ValueError),
    (lambda: RForm(get_entry("Z2_Z").context(), {}, window=MAX_WINDOW + 1), BadWindow,
     ValueError),
    (lambda: get_entry("Z2_Dinf").context().mp.window(-1), BadWindow, ValueError),
    (lambda: get_entry("Z2_Dinf").context().mp.window(None), BadWindow, ValueError),
    (lambda: get_entry("S3_Z2").context().mp.window(MAX_WINDOW + 1), BadWindow, ValueError),
    (lambda: verify_R(_windowed_form(), (0,), qbound=-1), BadWindow, ValueError),
], ids=["rform-no-window", "eps-no-window", "entry-outside-window", "value-not-scalar",
        "perturbed-not-scalar", "value-outside-window", "unknown-level",
        "rform-negative-window", "rform-negative-window-finite-F", "rform-window-above-limit",
        "negative-sweep-window", "no-sweep-window-infinite-F", "sweep-window-above-limit",
        "negative-qbound"])
def test_cqt_errors_are_library_errors(call, error, builtin):
    # each raise keeps its builtin base, so callers that catch the builtin still work
    with pytest.raises(error) as err:
        call()
    assert isinstance(err.value, HopfCqtError) and isinstance(err.value, builtin)


# -- the window memo of RForm ------------------------------------------------------

@pytest.fixture
def length_calls(monkeypatch):
    "Every later element_length call on Z2_Z2xZ_central's F, as the element it was asked for."
    H = get_entry("Z2_Z2xZ_central").context()
    calls = []
    element_length = type(H.F).element_length

    def counted(self, a):
        calls.append(a)
        return element_length(self, a)

    monkeypatch.setattr(type(H.F), "element_length", counted)
    return H, calls


def test_window_is_decided_once_per_element(length_calls):
    H, calls = length_calls
    one, f = H.G.one, H.F.parse("(1, 2)")
    R = RForm(H, {((one, f), (one, f)): 5}, window=2)
    assert calls == [f]
    assert [R.try_value((one, f), (one, f)) for _ in range(3)] == [5] * 3
    assert calls == [f]


def test_element_past_the_window_stays_outside(length_calls):
    H, calls = length_calls
    R = RForm(H, {}, window=2)
    one, f, past = H.G.one, H.F.parse("(a, 2)"), H.F.parse("(1, 3)")
    assert [R.try_value((one, past), (one, f)) for _ in range(3)] == [None] * 3
    assert [R.try_value((one, f), (one, past)) for _ in range(3)] == [None] * 3
    assert calls == [past, f]


def test_perturbed_copy_keeps_its_own_lengths(length_calls):
    H, calls = length_calls
    R = RForm(H, {}, window=2)
    one, f = H.G.one, H.F.parse("(1, 1)")
    assert R.try_value((one, f), (one, f)) == ZERO
    S = R.perturbed((one, f), (one, f), 3)
    assert calls == [f, f]  # S's constructor asked again
    assert S.try_value((one, f), (one, f)) == 3
    assert R.try_value((one, f), (one, f)) == ZERO
    assert calls == [f, f]


def test_foreign_element_with_a_kept_key_raises_every_time():
    # Dinf's x has key (0, 1), as Z2 x Z's (1, 1) does
    H = get_entry("Z2_Z2xZ_central").context()
    x = get_entry("Z2_Dinf").context().F.x
    R = eps_tensor_eps(H, window=2)
    f = next(f for f in H.mp.window(2) if f.key == x.key)
    one = H.G.one
    assert R.try_value((one, f), (one, f)) == ONE
    for _ in range(3):
        with pytest.raises(MixedGroups):
            R.try_value((one, x), (one, f))


def test_finite_F_window_rejects_an_element_of_another_group():
    H = get_entry("Z2_Z2_trivial").context()
    R = eps_tensor_eps(H, window=1)
    foreign = get_entry("Z3_Z3_trivial").context().F.elements()[1]
    one = H.G.one
    for key1, key2 in (((one, foreign), (one, H.F.one)), ((one, H.F.one), (one, foreign))):
        with pytest.raises(MixedGroups):
            R.try_value(key1, key2)
