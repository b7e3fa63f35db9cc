"""One matched_pair.PairTables per catalog run: the matched-pair, cocycle,
Hopf-axiom and battery checks of run_entry read one id table, and
verify_hopf_axioms' StructureConstants is a view over it.  An entry is a
deterministic function of its ids and a lookup that raises stores nothing, so
a check reports, and raises, exactly as it does on a table of its own.  Each
of the four verifiers takes its window as a word-length bound or as a table,
whose word_bound is the window, and reports alike either way; each refuses,
with ContextMismatch, a table built on another pair or without its cocycles.
The structure constants in those tables, and the element maps that read a
context's shared table, equal the object-path maps of hopf_reference."""

import random

import pytest

import hopf_reference
from hopf_reference import basis_antipode, basis_coproduct, basis_product
from test_battery_tables import k4_z2_asymmetric_tau
from test_hopf import _perturbed_context, _total_cocycles, assert_adjacent_missing_pairs_raise_alike
from test_induced_sparse import z4_z8_tau
from hopfcqt import hopf
from hopfcqt.catalog import CHECKS, entry_ids, get_entry, run_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import necessary_battery
from hopfcqt.errors import ContextMismatch, MissingEntry
from hopfcqt.groups import cyclic_group
from hopfcqt.hopf import HopfAlgebra, StructureConstants, verify_hopf_axioms
from hopfcqt.matched_pair import MatchedPair, PairTables
from hopfcqt.scalars import MINUS_ONE, bare

FINITE = [eid for eid in entry_ids() if get_entry(eid).context().F.is_finite]


def _asymmetric_sigma():
    """Z2 x Z3 with trivial actions and sigma(g; t, t^2) = -1, else 1: not a
    cocycle pair, but sigma(g; f, f') differs from sigma(g; f', f)."""
    G, F = cyclic_group(2), cyclic_group(3, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    g, (_, t, t2) = G.elements()[1], F.elements()
    return HopfAlgebra(CocyclePair.from_tables(mp, {(g.key, t.key, t2.key): MINUS_ONE}, {}),
                       name="Z2_Z3_asymmetric_sigma")


def _contexts():
    "(fresh context, window) pairs whose tables are compared with the object path."
    return ([(HopfAlgebra(get_entry(eid).context().cp, name=eid), 4) for eid in FINITE]
            + [(HopfAlgebra(get_entry("Z2_Z").context().cp, name="Z2_Z"), 2),
               (k4_z2_asymmetric_tau(), 4), (_asymmetric_sigma(), 4)])


@pytest.mark.parametrize("H, bound", _contexts(), ids=lambda v: getattr(v, "name", v))
def test_table_constants_equal_the_object_path(monkeypatch, H, bound):
    built = []

    def kept(H, tables=None):
        built.append(StructureConstants(H, tables))
        return built[-1]

    monkeypatch.setattr(hopf, "StructureConstants", kept)
    verify_hopf_axioms(H, bound)
    sc, = built
    keys = sc.keys
    assert len({(g.key, f.key) for g, f in keys}) == len(keys)
    products = 0
    for i, row in enumerate(sc.table):
        for j, hit in enumerate(row):
            if hit is False:
                assert basis_product(H, keys[i], keys[j]) is None
            elif hit is not None:
                key, s = basis_product(H, keys[i], keys[j])
                assert (keys[hit[0]], hit[1]) == (key, bare(s)), (keys[i], keys[j])
                products += 1
    assert products and sc._coproducts and sc._antipodes
    for i, legs in sc._coproducts.items():
        assert ([((keys[j1], keys[j2]), t) for j1, j2, t in legs]
                == [(kk, bare(t)) for kk, t in basis_coproduct(H, keys[i]).items()])
    for i, (j, c) in sc._antipodes.items():
        key, s = basis_antipode(H, keys[i])
        assert (keys[j], c) == (key, bare(s))


def _element_contexts():
    "(fresh context, window) pairs whose element maps are compared with the reference maps."
    named = [(eid, None) for eid in FINITE] + [(eid, 2) for eid in ("Z2_Z", "Z2_Dinf",
                                                                     "Z2_Z2xZ_central")]
    return ([(HopfAlgebra(get_entry(eid).context().cp, name=eid), bound) for eid, bound in named]
            + [(k4_z2_asymmetric_tau(), None), (_asymmetric_sigma(), None), (z4_z8_tau(), None)])


def _assert_same(new, ref):
    "Equal terms, in the same order, and so the same repr."
    assert list(new.terms.items()) == list(ref.terms.items())
    assert repr(new) == repr(ref)


def _missing_products(H, mul, bound):
    """(a, b, message) of each MissingEntry that mul raises on the window's basis
    pairs, in a-major order, and then on x x, x the sum of n p_n over the
    window's n-th basis key."""
    keys = H.basis_window(bound)
    x = H.element([(g, f, n + 1) for n, (g, f) in enumerate(keys)])
    pairs = [(H.basis(*k1), H.basis(*k2)) for k1 in keys for k2 in keys]
    found = []
    for a, b in pairs + [(x, x)]:
        try:
            mul(a, b)
        except MissingEntry as e:
            found.append((repr(a), repr(b), str(e)))
    return found


@pytest.mark.parametrize("H, bound", _element_contexts(), ids=lambda v: getattr(v, "name", v))
def test_element_maps_equal_the_reference_maps(H, bound):
    # multiply, comultiply and antipode read the context's shared table; the
    # reference evaluates every product, coproduct and antipode from sigma/tau
    keys = H.basis_window(bound)
    basis = [H.basis(*key) for key in keys]
    for a in basis:
        _assert_same(hopf.comultiply(a), hopf_reference.comultiply(a))
        _assert_same(hopf.antipode(a), hopf_reference.antipode(a))
        for b in basis:
            _assert_same(hopf.multiply(a, b), hopf_reference.multiply(a, b))
    # distinct coefficients, so terms collect and keep their order
    x = H.element([(g, f, n + 1) for n, (g, f) in enumerate(keys)])
    _assert_same(hopf.multiply(x, x), hopf_reference.multiply(x, x))
    _assert_same(hopf.comultiply(x), hopf_reference.comultiply(x))
    _assert_same(hopf.antipode(x), hopf_reference.antipode(x))
    # sigma as a table without a default, two window keys missing: both paths
    # raise at the same products, first for the same key
    gs, fs = H.G.elements(), H.mp.window(bound)
    sigma = {(g.key, f.key, fp.key): H.cp.sigma(g, f, fp) for g in gs for f in fs for fp in fs}
    dropped = random.Random(len(sigma)).sample(list(sigma), 2)
    cp = CocyclePair.from_tables(H.mp, {k: v for k, v in sigma.items() if k not in dropped},
                                 {}, sigma_default=None)
    new = _missing_products(HopfAlgebra(cp), hopf.multiply, bound)
    assert len(new) == 3
    assert new == _missing_products(HopfAlgebra(cp), hopf_reference.multiply, bound)


def _alone(entry, name, bound):
    "The report JSON of one check on a fresh context of the entry, on a table of its own."
    H = HopfAlgebra(entry.context().cp)
    return [r.to_json() for r in CHECKS[name](entry, H, PairTables(H.mp, bound, H.cp))]


@pytest.mark.parametrize("eid", entry_ids())
def test_shared_run_equals_each_check_alone(eid):
    entry = get_entry(eid)
    for bound in (None, 1):
        for rec in run_entry(eid, word_bound=bound)["records"]:
            assert ([r.to_json() for r in rec["reports"]]
                    == _alone(entry, rec["check"], bound or entry.default_bound)), \
                (bound, rec["check"])


def test_a_check_run_twice_on_one_table_reports_alike():
    first, second = run_entry("Q8_Dinf", checks=["hopf-axioms", "hopf-axioms"])["records"]
    assert ([r.to_json() for r in first["reports"]]
            == [r.to_json() for r in second["reports"]])
    assert first["observed"] == "pass"


@pytest.mark.parametrize("eid", [eid for eid in entry_ids() if eid not in FINITE])
def test_battery_takes_its_window_from_its_table(eid):
    # the orbit reports read the table's window, as the gates do
    entry = get_entry(eid)
    H, quotients = entry.context(), entry.quotient_homs()
    shared = necessary_battery(H, PairTables(H.mp, 2, H.cp), quotients)
    assert ([r.to_json() for r in shared]
            == [r.to_json() for r in necessary_battery(entry.context(), 2, quotients)])


VERIFIERS = {
    "matched-pair": lambda entry, H, window: H.mp.verify(window),
    "cocycles": lambda entry, H, window: H.cp.verify(window),
    "hopf-axioms": lambda entry, H, window: verify_hopf_axioms(H, window),
    "necessary-battery": lambda entry, H, window: necessary_battery(H, window,
                                                                    entry.quotient_homs()),
}


@pytest.mark.parametrize("name", VERIFIERS)
@pytest.mark.parametrize("eid", entry_ids())
def test_both_window_forms_agree(eid, name):
    # a word-length bound b and a PairTables on b are one window
    entry, verify = get_entry(eid), VERIFIERS[name]
    H = entry.context()
    for bound in sorted({1, 2, entry.default_bound}):
        assert ([r.to_json() for r in verify(entry, H, bound)]
                == [r.to_json() for r in verify(entry, H, PairTables(H.mp, bound, H.cp))]), bound


def _in_turn(cp, bound, shared):
    """cocycles, hopf-axioms, matched-pair and necessary-battery, in run_entry's
    order, on one shared PairTables or on the bound, so each builds a table of its own."""
    H = HopfAlgebra(cp)
    window = PairTables(cp.mp, bound, cp) if shared else bound
    H.cp.verify(window)
    verify_hopf_axioms(H, window)
    H.mp.verify(window)
    necessary_battery(H, window)


@pytest.mark.parametrize("eid", ["Z2_Z3_trivial", "S3_Z2"])
def test_missing_entry_raises_alike_on_one_table(eid):
    # one undeclared sigma or tau key of the total tables: the first check that
    # reaches it raises the same error, shared table or not
    mp, sigma, tau = _total_cocycles(eid)
    for table, key in [("sigma", k) for k in sigma] + [("tau", k) for k in tau]:
        tables = {"sigma": dict(sigma), "tau": dict(tau)}
        del tables[table][key]
        cp = CocyclePair.from_tables(mp, tables["sigma"], tables["tau"],
                                     sigma_default=None, tau_default=None)
        messages = []
        for shared in (True, False):
            with pytest.raises(MissingEntry) as err:
                _in_turn(cp, 4, shared)
            messages.append(str(err.value))
        assert messages[0] == messages[1], (table, key)


@pytest.mark.parametrize("eid, seed", [("Z2_Z", 7), ("Z2_Dinf", 6)])
def test_adjacent_missing_keys_raise_alike_on_one_table(eid, seed):
    # on these perturbed cocycles the cocycle sweep, run first, stops early, and
    # the later checks reach 28 and 44 keys it never read (at window 2); every
    # pair of keys that the fresh-table run reaches one after the other is dropped
    cp = _perturbed_context(eid, seed).cp
    assert_adjacent_missing_pairs_raise_alike(cp, lambda cp: _in_turn(cp, 2, True),
                                              lambda cp: _in_turn(cp, 2, False), 10 ** 4, 0)


def _z3_z_and_a_z2_z_table():
    "The Z3_Z context, and a PairTables at window 2 built on Z2_Z's pair and cocycles."
    Z2_Z = get_entry("Z2_Z").context()
    return get_entry("Z3_Z").context(), PairTables(Z2_Z.mp, 2, Z2_Z.cp)


def test_matched_pair_verify_refuses_a_table_of_another_pair():
    # Z3_Z's verify on Z2_Z's table passed, with Z2_Z's counts (unit-laws 10 against 15)
    H, foreign = _z3_z_and_a_z2_z_table()
    with pytest.raises(ContextMismatch):
        H.mp.verify(foreign)
    assert [r.to_json() for r in H.mp.verify(PairTables(H.mp, 2))] == \
        [r.to_json() for r in H.mp.verify(2)]


def test_cocycle_verify_refuses_a_table_without_its_cocycles():
    # a table built without cp has no sigma/tau tables (AttributeError before)
    H, foreign = _z3_z_and_a_z2_z_table()
    for table in (PairTables(H.mp, 2), foreign, PairTables(H.mp, 2, CocyclePair.trivial(H.mp))):
        with pytest.raises(ContextMismatch):
            H.cp.verify(table)


def test_hopf_axioms_refuse_a_table_of_another_context():
    # Z2_Z's table ended in KeyError: 2 (a G id Z2 does not have); a
    # StructureConstants on it interned Z3's g as Z2's
    H, foreign = _z3_z_and_a_z2_z_table()
    for table in (foreign, PairTables(H.mp, 2)):
        with pytest.raises(ContextMismatch):
            verify_hopf_axioms(H, table)
        with pytest.raises(ContextMismatch):
            StructureConstants(H, table)


def test_battery_refuses_a_table_of_another_context():
    # Z2_Z's table ended in MixedGroups
    H, foreign = _z3_z_and_a_z2_z_table()
    for table in (foreign, PairTables(H.mp, 2)):
        with pytest.raises(ContextMismatch):
            necessary_battery(H, table)
