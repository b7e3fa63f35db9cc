import random

import pytest

from hopf_reference import map_left, multiply_legs, verify_hopf_axioms_reference
from pair_reference import verify_cocycles_reference
from hopfcqt import hopf
from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import Comodule, TwistedCoalgebra
from hopfcqt.cqt import eps_tensor_eps, search_R, verify_R
from hopfcqt.errors import ContextMismatch, HopfCqtError, MissingEntry, MixedGroups, NotAScalar
from hopfcqt.groups import cyclic_group, symmetric_group_s3
from hopfcqt.hopf import (HopfAlgebra, antipode, comultiply, counit, multiply,
                          verify_hopf_axioms)
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import PASS, all_passed
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, Matrix, Scalar, rational, root_of_unity


def test_multiply_examples():
    Hq = get_entry("Q8_Dinf").context()
    assert Hq.basis("r", "x") * Hq.basis("s", "y") == Hq.basis("r", "x*y")
    Hz = get_entry("Z2_Z").context()
    # delta fails since g <| 0 = g != 1
    assert (Hz.basis("1", "0") * Hz.basis("g", "2")).is_zero()
    a = Hz.basis("g", "3")
    assert Hz.unit() * a == a
    assert a * Hz.unit() == a


def test_comultiply_example():
    Hz = get_entry("Z2_Z").context()
    d = comultiply(Hz.basis("g", "2"))
    F, G = Hz.F, Hz.G
    g, one = G.parse("g"), G.one
    expected = {
        ((g, F.parse("2")), (one, F.parse("2"))): ONE,
        ((one, F.parse("-2")), (g, F.parse("2"))): ONE,
    }
    assert d.terms == expected
    # Delta(p_1 # 1_F) = sum_x p_(x^-1) # 1 (x) p_x # 1
    d1 = comultiply(Hz.basis("1", "0"))
    assert d1.terms == {((one, F.one), (one, F.one)): ONE,
                        ((g, F.one), (g, F.one)): ONE}


def test_counit_examples():
    Hz = get_entry("Z2_Z").context()
    assert counit(Hz.basis("1", "5")) == ONE
    assert counit(Hz.basis("g", "5")) == ZERO
    mixed = Hz.basis("1", "2").scaled(2) + Hz.basis("g", "3")
    assert counit(mixed) == rational(2)


def test_counit_comultiply_compatibility():
    Hz = get_entry("Z2_Z").context()
    a = Hz.basis("g", "3")
    d = comultiply(a)
    left = {}
    for (k1, k2), c in d.terms.items():
        if k1[0].is_identity():
            left[k2] = left.get(k2, ZERO) + c
    assert left == dict(a.terms)


def test_antipode_examples():
    Hz = get_entry("Z2_Z").context()
    assert antipode(Hz.basis("g", "3")) == Hz.basis("g", "3")
    assert antipode(Hz.basis("1", "0")) == Hz.basis("1", "0")
    Hq = get_entry("Q8_Dinf").context()
    # trivial cocycles: S(p_g # f) = p_((g <| f)^-1) # (g |> f)^-1
    a = Hq.basis("r", "x")
    expect = Hq.basis(Hq.G.inv(Hq.mp.act_right(Hq.G.parse("r"), Hq.F.parse("x"))),
                      Hq.F.inv(Hq.F.parse("x")))
    assert antipode(a) == expect


def test_antipode_antihomomorphism_randomized():
    Hz = get_entry("Z2_Z").context()
    rng = random.Random(41)
    basis = Hz.basis_window(3)
    for _ in range(80):
        k1, k2 = rng.choice(basis), rng.choice(basis)
        a, b = Hz.basis(*k1), Hz.basis(*k2)
        assert antipode(a * b) == antipode(b) * antipode(a)


def test_counit_is_algebra_map_randomized():
    H = get_entry("S3_Z2").context()
    rng = random.Random(43)
    basis = H.basis_window()
    for _ in range(60):
        a, b = H.basis(*rng.choice(basis)), H.basis(*rng.choice(basis))
        assert counit(a * b) == counit(a) * counit(b)


def test_hopf_axioms_s3_z2_exhaustive():
    H = get_entry("S3_Z2").context()
    reports = verify_hopf_axioms(H)
    assert all_passed(reports)
    by_name = {r.check: r for r in reports}
    assert by_name["associativity"].checked == 12 ** 3
    assert by_name["bialgebra-compatibility"].checked == 12 ** 2


def test_hopf_axioms_bounded_entries():
    for eid in ("Z2_Z", "Z2_Dinf", "Z3_Dinf", "Q8_Z", "Z2_Z2_tau"):
        H = get_entry(eid).context()
        assert all_passed(verify_hopf_axioms(H, 3)), eid


def test_corrupted_sigma_fails_bialgebra():
    # change one sigma entry without re-checking the cocycle identities;
    # sigma(g; (1 3), (1 3)) = -1 breaks the compatibility equation because
    # the conjugated entry sigma(g; (2 3), (2 3)) stays +1
    G = cyclic_group(2)
    F = symmetric_group_s3()
    t = F.parse("(1 2)")
    mp = MatchedPair.from_functions(
        G, F, left=lambda a, nu: nu if a.is_identity() else F.mul(F.mul(t, nu), t),
        right=lambda a, nu: a)
    g = G.parse("g")
    f13 = F.parse("(1 3)")
    cp = CocyclePair.from_tables(mp, {(g.key, f13.key, f13.key): MINUS_ONE}, {})
    H = HopfAlgebra(cp)
    reports = {r.check: r for r in verify_hopf_axioms(H)}
    assert reports["bialgebra-compatibility"].failed
    assert reports["bialgebra-compatibility"].witness is not None


def test_convolution_identity_pointwise():
    # comultiply and antipode of the table path, legs multiplied by the reference
    H = get_entry("Z2_Z2_tau").context()
    for key in H.basis_window():
        a = H.basis(*key)
        d = comultiply(a)
        left = multiply_legs(map_left(d, lambda k: antipode(H.basis(*k))))
        assert left == H.unit().scaled(counit(a))


def test_element_maps_refuse_keys_of_other_groups():
    # each map checks the groups of its keys, whichever factor holds the foreign
    # key and even when the other factor is zero
    H = get_entry("Z2_Z2_trivial").context()
    a = H.basis("g", "t")
    z3 = cyclic_group(3)
    for key in ((z3.parse("g"), H.F.one), (H.G.one, z3.parse("g"))):
        b = hopf.HopfElement(H, {key: ONE})
        for call in (lambda: a * b, lambda: b * a, lambda: multiply(H.zero(), b),
                     lambda: comultiply(b), lambda: antipode(b)):
            with pytest.raises(MixedGroups):
                call()


def test_context_mismatch():
    H1 = get_entry("Z2_Z").context()
    H2 = get_entry("S3_Z2").context()
    with pytest.raises(ContextMismatch):
        multiply(H1.basis("g", "0"), H2.basis("g", "()"))


def test_element_rejects_foreign_group_elements():
    # element() checks membership as basis() does: a Z3 element, or a swapped (f, g, c)
    H = get_entry("Z2_Z2_tau").context()
    g, t = H.G.parse("g"), H.F.parse("t")
    for terms in ([(cyclic_group(3).parse("g"), H.F.one, 1)], [(t, g, 1)]):
        with pytest.raises(MixedGroups):
            H.element(terms)
        with pytest.raises(MixedGroups):
            H.basis(*terms[0][:2])
    assert H.element([(g, t, 2), ("g", "t", -1)]) == H.basis(g, t)


def test_foreign_operands_raise_type_error():
    H = get_entry("Z2_Z2_trivial").context()
    a = H.basis("1", "1")
    t = comultiply(a)
    for x in (a, t):
        for other in (1.5, 2, "p"):
            with pytest.raises(TypeError):
                x + other
            with pytest.raises(TypeError):
                x - other
        with pytest.raises(TypeError):
            t * other
    with pytest.raises(ContextMismatch):
        a + get_entry("Z2_Z3_trivial").context().basis("1", "1")


def test_elements_and_tensors_do_not_mix():
    H = get_entry("Z2_Z").context()
    a = H.basis("g", "2")
    t = comultiply(a)
    for x, y in ((a, t), (t, a)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
    assert not a == t and a != t
    other = comultiply(get_entry("Z3_Z").context().basis("1", "2"))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x == y):
        with pytest.raises(ContextMismatch):
            op(t, other)
    assert (t - t).terms == {}


def test_tensor_repr_keeps_term_order():
    H = get_entry("Z2_Z").context()
    a, b = hopf.TensorElement(H, {}), comultiply(H.basis("g", "2"))
    assert repr(a) == "0"
    assert repr(b) == "p[g]#(2) (x) p[1]#(2) + p[1]#(-2) (x) p[g]#(2)"
    flipped = hopf.TensorElement(H, dict(reversed(list(b.terms.items()))))
    assert repr(flipped) == "p[1]#(-2) (x) p[g]#(2) + p[g]#(2) (x) p[1]#(2)"
    assert repr(flipped + b - b) == repr(flipped)


def test_coefficient_rejects_foreign_group_elements():
    H = get_entry("Z2_Z2_tau").context()
    a = H.basis("g", "t").scaled(3)
    assert a.coefficient("g", "t") == rational(3) and a.coefficient("1", "t") == ZERO
    with pytest.raises(MixedGroups):
        a.coefficient(cyclic_group(3).parse("g"), H.F.one)
    with pytest.raises(MixedGroups):
        a.coefficient(H.F.parse("t"), H.G.parse("g"))


def test_non_scalar_coefficients_raise_library_errors():
    H = get_entry("Z2_Z2_tau").context()
    coalgebra = TwistedCoalgebra(H, "1")
    for call in (lambda: H.element([("g", "t", 1.5)]), lambda: H.basis("g", "t").scaled("2"),
                 lambda: Scalar(1, (0.5,)), lambda: Matrix([[1.5]]),
                 lambda: Comodule.from_coefficients(coalgebra, 1, {(1, 1, "g"): 0.5}),
                 lambda: search_R(H, [ONE, 0.5])):
        with pytest.raises(NotAScalar):
            call()
    assert issubclass(NotAScalar, HopfCqtError) and issubclass(NotAScalar, TypeError)


def _report_json(verify, H, bound):
    return [r.to_json() for r in verify(H, bound)]


@pytest.mark.parametrize("eid", entry_ids())
def test_sweep_matches_object_reference_on_catalog(eid):
    entry = get_entry(eid)
    for bound in sorted({2, entry.default_bound}):
        assert (_report_json(verify_hopf_axioms, entry.context(), bound)
                == _report_json(verify_hopf_axioms_reference, entry.context(), bound)), bound


def _perturbed_context(eid, seed):
    "The entry's cocycles with one to three sigma/tau table entries overridden."
    rng = random.Random(seed)
    cp = get_entry(eid).context().cp
    mp = cp.mp
    gs, fs = mp.G.elements(), mp.window(2)
    (sigma, sigma_default), (tau, tau_default) = cp.tables["sigma"], cp.tables["tau"]
    sigma, tau = dict(sigma), dict(tau)
    values = [MINUS_ONE, root_of_unity(4), rational(2), root_of_unity(3)]
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            key = (rng.choice(gs).key, rng.choice(fs).key, rng.choice(fs).key)
            sigma[key] = rng.choice(values)
        else:
            key = (rng.choice(gs).key, rng.choice(gs).key, rng.choice(fs).key)
            tau[key] = rng.choice(values)
    return HopfAlgebra(CocyclePair.from_tables(mp, sigma, tau, sigma_default, tau_default),
                       name="%s~%d" % (eid, seed))


# Perturbed contexts past EXHAUSTIVE_LIMIT at bound 4, so associativity runs on
# the product patterns (as does bialgebra-compatibility on Q8 past PAIR_LIMIT);
# each stops inside a row of its innermost quantifier, not at the row's first item
BOUND4_CONTEXTS = [(eid, seed) for eid in ("Q8_Z", "Q8_Dinf", "Z3_Dinf") for seed in (5, 6)]


def _pattern_failure_mid_row(H, report, width, limit):
    "True when report failed among the bound-4 patterns past limit, not at its row's first item."
    fs, n = H.mp.window(4), len(H.basis_window(4))
    return (report.failed and n ** width > limit and report.checked <= n * len(fs) ** (width - 1)
            and report.witness[-1][1] != fs[0])


def test_sweep_matches_object_reference_on_perturbed_cocycles():
    ids = entry_ids()
    failing = 0
    for seed in range(52):
        H = _perturbed_context(ids[seed % len(ids)], seed)
        new = _report_json(verify_hopf_axioms, H, 2)
        assert new == _report_json(verify_hopf_axioms_reference, H, 2), H.name
        failing += any(r["status"] == "fail" for r in new)
    assert failing >= 50
    mid_row = {"associativity": 0, "bialgebra-compatibility": 0}
    for eid, seed in BOUND4_CONTEXTS:
        H = _perturbed_context(eid, seed)
        reports = verify_hopf_axioms(H, 4)
        assert ([r.to_json() for r in reports]
                == _report_json(verify_hopf_axioms_reference, H, 4)), H.name
        by_check = {r.check: r for r in reports}
        mid_row["associativity"] += _pattern_failure_mid_row(
            H, by_check["associativity"], 3, hopf.EXHAUSTIVE_LIMIT)
        mid_row["bialgebra-compatibility"] += _pattern_failure_mid_row(
            H, by_check["bialgebra-compatibility"], 2, hopf.PAIR_LIMIT)
    assert mid_row == {"associativity": 6, "bialgebra-compatibility": 4}


def test_sweep_evaluates_each_nonzero_product_once(monkeypatch):
    # products and antipodes read sigma off the sweep's PairTables, so each
    # (g; f, f') is looked up through CocyclePair.sigma at most once per call
    H = get_entry("Q8_Dinf").context()
    seen = []
    sigma = CocyclePair.sigma

    def counted(cp, g, f, fp):
        seen.append((g.key, f.key, fp.key))
        return sigma(cp, g, f, fp)

    monkeypatch.setattr(CocyclePair, "sigma", counted)
    assert all_passed(verify_hopf_axioms(H))
    assert 0 < len(seen) == len(set(seen)) < 20000


def _total_cocycles(eid):
    "The entry's matched pair with its sigma and tau as total tables keyed by element keys."
    H = get_entry(eid).context()
    mp, cp = H.mp, H.cp
    gs, fs = mp.G.elements(), mp.F.elements()
    sigma = {(g.key, f.key, fp.key): cp.sigma(g, f, fp) for g in gs for f in fs for fp in fs}
    tau = {(g.key, gp.key, f.key): cp.tau(g, gp, f) for g in gs for gp in gs for f in fs}
    return mp, sigma, tau


@pytest.mark.parametrize("eid", ["Z2_Z3_trivial", "S3_Z2"])
def test_missing_entry_raises_like_reference(eid):
    # with no default, the first undeclared lookup raises; both sweeps must
    # reach the same one first, whichever key is missing
    mp, sigma, tau = _total_cocycles(eid)
    for table, key in [("sigma", k) for k in sigma] + [("tau", k) for k in tau]:
        tables = {"sigma": dict(sigma), "tau": dict(tau)}
        del tables[table][key]
        H = HopfAlgebra(CocyclePair.from_tables(mp, tables["sigma"], tables["tau"],
                                                sigma_default=None, tau_default=None))
        with pytest.raises(MissingEntry) as new:
            verify_hopf_axioms(H)
        with pytest.raises(MissingEntry) as ref:
            verify_hopf_axioms_reference(H)
        assert str(new.value) == str(ref.value), (table, key)


def _flipped_tau(g, gp, f):
    "tau on Z2_Dinf that is -1 at (1, 1; y) and (1, 1; y^-1) and 1 elsewhere."
    flip = g.is_identity() and gp.is_identity() and str(f) in ("y", "y^-1")
    return MINUS_ONE if flip else ONE


def test_missing_entry_order_on_infinite_f():
    # On Z2_Dinf at word bound 1, tau(1, 1; y) = tau(1, 1; y^-1) = -1 stops the
    # counit and coassociativity sweeps at their first instances, so
    # bialgebra-compatibility reaches coproducts no earlier check memoized, of
    # products outside the window among them.  Tables holding a prefix of the
    # reference's first-reach order of tau keys then pin that order: both sweeps
    # must raise for the same first undeclared key, and with every reached key
    # declared both must finish with the same reports.
    mp = get_entry("Z2_Dinf").context().mp
    reached = {}  # tau key -> value, in the reference's first-reach order

    def logged_tau(g, gp, f):
        return reached.setdefault((g.key, gp.key, f.key), _flipped_tau(g, gp, f))

    verify_hopf_axioms_reference(HopfAlgebra(CocyclePair(mp, lambda g, f, fp: ONE, logged_tau)),
                                 word_bound=1)
    keys = list(reached)
    for n in range(len(keys)):
        H = HopfAlgebra(CocyclePair.from_tables(mp, {}, {k: reached[k] for k in keys[:n]},
                                                tau_default=None))
        with pytest.raises(MissingEntry) as new:
            verify_hopf_axioms(H, window=1)
        with pytest.raises(MissingEntry) as ref:
            verify_hopf_axioms_reference(H, word_bound=1)
        assert str(new.value) == str(ref.value), n
    H = HopfAlgebra(CocyclePair.from_tables(mp, {}, reached, tau_default=None))
    new = [r.to_json() for r in verify_hopf_axioms(H, window=1)]
    assert new == [r.to_json() for r in verify_hopf_axioms_reference(H, word_bound=1)]
    assert [(r["check"], r["checked"]) for r in new if r["status"] != PASS] == [
        ("coassociativity", 1), ("counit", 1), ("bialgebra-compatibility", 4)]


def _first_reach(cp, run):
    "The (table, key) -> value of every sigma/tau lookup of run(copy of cp), in first-reach order."
    reached = {}

    def sigma(g, f, fp):
        return reached.setdefault(("sigma", (g.key, f.key, fp.key)), cp.sigma(g, f, fp))

    def tau(g, gp, f):
        return reached.setdefault(("tau", (g.key, gp.key, f.key)), cp.tau(g, gp, f))

    run(CocyclePair(cp.mp, sigma, tau))
    return reached


def _without(cp, reached, dropped):
    "A CocyclePair over cp.mp holding the (table, key) -> value entries of reached but dropped."
    tables = {"sigma": {}, "tau": {}}
    for (table, key), value in reached.items():
        if (table, key) not in dropped:
            tables[table][key] = value
    return CocyclePair.from_tables(cp.mp, tables["sigma"], tables["tau"],
                                   sigma_default=None, tau_default=None)


def assert_adjacent_missing_pairs_raise_alike(cp, new, reference, samples, seed):
    """Drop two keys that the reference reaches one after the other; both sweeps
    must raise MissingEntry for the same, earlier, one.

    A lookup moved ahead of its turn is reached before the key the reference
    reaches just before it, so some such pair separates the two orders; a
    lookup moved out of an inner loop to the start of its row does so too."""
    reached = _first_reach(cp, reference)
    keys = list(reached)
    starts = random.Random(seed).sample(range(len(keys) - 1), min(samples, len(keys) - 1))
    for n in sorted(starts):
        partial = _without(cp, reached, keys[n:n + 2])
        with pytest.raises(MissingEntry) as got:
            new(partial)
        with pytest.raises(MissingEntry) as ref:
            reference(partial)
        assert str(got.value) == str(ref.value), keys[n:n + 2]


@pytest.mark.parametrize("eid, bound", [("S3_Z2", 4), ("Z2_Dinf", 1), ("Z3_Dinf", 1),
                                       ("Z2_Dinf-flipped", 1), ("Z2_Z2_trivial~19", 2),
                                       ("Z2_Z~30", 2)])
def test_missing_key_pairs_raise_like_reference(eid, bound):
    # the flipped tau fails coassociativity, counit and bialgebra-compatibility,
    # so the later sweeps reach keys that no earlier sweep memoized; on the two
    # perturbed contexts bialgebra-compatibility fails at an instance whose
    # later legs still reach new keys
    if eid.endswith("-flipped"):
        cp = CocyclePair(get_entry("Z2_Dinf").context().mp, lambda g, f, fp: ONE, _flipped_tau)
    elif "~" in eid:
        name, seed = eid.split("~")
        cp = _perturbed_context(name, int(seed)).cp
    else:
        cp = get_entry(eid).context().cp
    assert_adjacent_missing_pairs_raise_alike(
        cp, lambda cp: verify_hopf_axioms(HopfAlgebra(cp), bound),
        lambda cp: verify_hopf_axioms_reference(HopfAlgebra(cp), bound), 40, 19)


def test_antipode_sweep_computes_both_sides_before_comparing():
    # on this perturbed S3_Z2 antipode-convolution fails on the left side of an
    # instance whose right side makes the reference's last lookup; with that
    # key missing, both sweeps must raise for it rather than report the failure
    cp = _perturbed_context("S3_Z2", 37).cp
    reached = _first_reach(cp, lambda cp: verify_hopf_axioms_reference(HopfAlgebra(cp), 2))
    partial = _without(cp, reached, list(reached)[-1:])
    with pytest.raises(MissingEntry) as new:
        verify_hopf_axioms(HopfAlgebra(partial), 2)
    with pytest.raises(MissingEntry) as ref:
        verify_hopf_axioms_reference(HopfAlgebra(partial), 2)
    assert str(new.value) == str(ref.value)
    antipode_report = verify_hopf_axioms(HopfAlgebra(cp), 2)[-1]
    assert antipode_report.failed and antipode_report.checked == 3


def test_sweep_matches_object_reference_off_a_matched_pair():
    # Z3 and Z3 with actions that break the matched-pair laws: g |> t^b = t^-b
    # for the generator g alone, and g <| t = g^-1 for the generator t alone.
    # The legs of Delta(p_i) Delta(p_j) then miss terms of Delta(p_i p_j), which
    # the bialgebra kernel must see as a failure as the reference does.
    G, F = cyclic_group(3), cyclic_group(3, gen_name="t")
    g, t = G.parse("g"), F.parse("t")
    mp = MatchedPair.from_functions(G, F, left=lambda a, f: F.inv(f) if a == g else f,
                                    right=lambda a, f: G.inv(a) if f == t else a)
    H = HopfAlgebra(CocyclePair.trivial(mp))
    new = _report_json(verify_hopf_axioms, H, 4)
    assert new == _report_json(verify_hopf_axioms_reference, H, 4)
    assert [(r["check"], r["checked"]) for r in new if r["status"] != PASS] == [
        ("associativity", 400), ("coassociativity", 2), ("bialgebra-compatibility", 10),
        ("antipode-convolution", 2)]


def _broken_pair_context(seed):
    """G in {Z2, Z3, S3} acting on F in {Z2, Z3, Z4} through a few random right-action
    permutations and left-map entries, which break the matched-pair laws, with up to
    three random sigma and tau entries."""
    rng = random.Random(seed)
    G = rng.choice([lambda: cyclic_group(2), lambda: cyclic_group(3), symmetric_group_s3])()
    F = cyclic_group(rng.choice([2, 3, 4]), gen_name="t")
    gs, fs = G.elements(), F.elements()
    perms = {f.key: {g.key: g for g in gs} for f in fs}
    for f in rng.sample(fs, rng.randint(0, len(fs))):
        perms[f.key] = dict(zip([g.key for g in gs], rng.sample(gs, len(gs))))
    lefts = {(g.key, f.key): f for g in gs for f in fs}
    for _ in range(rng.randint(0, len(gs) * len(fs))):
        lefts[rng.choice(gs).key, rng.choice(fs).key] = rng.choice(fs)
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: lefts[g.key, f.key],
                                    right=lambda g, f: perms[f.key][g.key])
    values = [MINUS_ONE, root_of_unity(4), rational(2), root_of_unity(3)]
    sigma = {(rng.choice(gs).key, rng.choice(fs).key, rng.choice(fs).key): rng.choice(values)
             for _ in range(rng.randint(0, 3))}
    tau = {(rng.choice(gs).key, rng.choice(gs).key, rng.choice(fs).key): rng.choice(values)
           for _ in range(rng.randint(0, 3))}
    return HopfAlgebra(CocyclePair.from_tables(mp, sigma, tau), name="broken~%d" % seed)


def test_sweep_matches_object_reference_on_broken_matched_pairs():
    # the coproduct legs are read by position; a broken action moves no leg,
    # so every sweep must still give the reference's reports
    failed = {}
    for seed in range(150):
        H = _broken_pair_context(seed)
        new = _report_json(verify_hopf_axioms, H, 4)
        assert new == _report_json(verify_hopf_axioms_reference, H, 4), H.name
        for r in new:
            failed[r["check"]] = failed.get(r["check"], 0) + (r["status"] != PASS)
    assert min(failed.values()) > 0 and max(failed.values()) < 150, failed
    # 1 |> t = t^2 breaks the counit law on one side only: id (x) eps keeps the leg
    # p_g # t^2 (x) p_1 # t of Delta(p_g # t), while eps (x) id keeps p_1 # 1 (x) p_g # t
    G, F = cyclic_group(2), cyclic_group(3, gen_name="t")
    t, t2 = F.parse("t"), F.parse("t^2")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: t2 if f == t else f,
                                    right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp))
    new = _report_json(verify_hopf_axioms, H, 4)
    assert new == _report_json(verify_hopf_axioms_reference, H, 4)
    assert {r["check"]: r["status"] for r in new}["counit"] != PASS


def test_rational_constants_skip_scalar_products(monkeypatch):
    # rational structure constants, antipodes included, are stored as ints and
    # Fractions, so on Q8_Dinf neither the axiom sweep nor the cocycle sweep
    # multiplies Scalars
    H = get_entry("Q8_Dinf").context()
    calls = []
    scalar_mul = Scalar.__mul__

    def counted(self, other):
        calls.append(None)
        return scalar_mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    assert all_passed(verify_hopf_axioms(H))
    assert calls == []
    assert all_passed(H.cp.verify())
    assert calls == []


def _zeta4_context():
    "Z4 x Z4, trivial actions, sigma(g^a; t^b, t^c) = zeta_4^(abc), tau = 1."
    G, F = cyclic_group(4), cyclic_group(4, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    gs, fs = G.elements(), F.elements()
    sigma = {(g.key, f.key, fp.key): root_of_unity(4, a * b * c)
             for a, g in enumerate(gs) for b, f in enumerate(fs) for c, fp in enumerate(fs)}
    return HopfAlgebra(CocyclePair.from_tables(mp, sigma, {}), name="Z4_Z4_zeta4")


def test_cyclotomic_sigma_context_passes_every_sweep():
    # ints and zeta_4 Scalars meet in the sweeps' sums and must cancel exactly
    H = _zeta4_context()
    assert {v.order for v in H.cp.tables["sigma"][0].values()} == {1, 4}
    reports = verify_hopf_axioms(H, 4)
    assert all_passed(reports)
    assert [r.to_json() for r in reports] == [
        r.to_json() for r in verify_hopf_axioms_reference(H, 4)]
    reports = H.cp.verify(4)
    assert all_passed(reports)
    assert [r.to_json() for r in reports] == [
        r.to_json() for r in verify_cocycles_reference(H.cp, 4)]
    levels = (0, 1, 2, 3, 4, "inv")
    assert [r.status for r in verify_R(eps_tensor_eps(H), levels)] == [PASS] * len(levels)


@pytest.mark.parametrize("width", [2, 3])
def test_sample_draws_are_the_rng_choice_stream(width):
    # the sample tail inlines random.choice; its draws must be the stream that
    # rng.choice(ids) gives, as the reference sweep draws it
    for n in range(1, 161):
        ids = list(range(1000, 1000 + n))
        drawn = [prefix + tuple(last)
                 for prefix, last in hopf._sampled(random.Random(hopf.SEED), ids, width)]
        rng = random.Random(hopf.SEED)
        assert drawn == [tuple(rng.choice(ids) for _ in range(width))
                         for _ in range(hopf.SAMPLE)], n
