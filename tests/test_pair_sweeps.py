"""The int-indexed matched-pair and cocycle sweeps against the object path."""

import pytest

from pair_reference import verify_cocycles_reference, verify_matched_pair_reference
from test_hopf import (BOUND4_CONTEXTS, _perturbed_context, _total_cocycles,
                       assert_adjacent_missing_pairs_raise_alike)
from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.errors import HopfCqtError, InvalidCocycle, MissingEntry
from hopfcqt.groups import cyclic_group
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed
from hopfcqt.scalars import ONE, ZERO


def _json(reports):
    return [r.to_json() for r in reports]


@pytest.mark.parametrize("eid", entry_ids())
def test_sweeps_match_object_reference_on_catalog(eid):
    entry = get_entry(eid)
    H = entry.context()
    for bound in sorted({2, entry.default_bound}):
        assert _json(H.mp.verify(bound)) == _json(verify_matched_pair_reference(H.mp, bound))
        assert _json(H.cp.verify(bound)) == _json(verify_cocycles_reference(H.cp, bound))


def test_cocycle_sweep_matches_object_reference_on_perturbed_cocycles():
    ids = entry_ids()
    failing = 0
    for seed in range(52):
        H = _perturbed_context(ids[seed % len(ids)], seed)
        new = _json(H.cp.verify(2))
        assert new == _json(verify_cocycles_reference(H.cp, 2)), H.name
        failing += any(r["status"] == "fail" for r in new)
    assert failing >= 50
    # at bound 4, sigma-cocycle and compatibility each stop inside a row of their last F id
    mid_row = {"sigma-cocycle": 0, "compatibility": 0}
    for eid, seed in BOUND4_CONTEXTS:
        H = _perturbed_context(eid, seed)
        cp = H.cp
        reports = cp.verify(4)
        assert _json(reports) == _json(verify_cocycles_reference(cp, 4)), H.name
        first = cp.mp.window(4)[0]
        for r in reports:
            if r.check in mid_row:
                mid_row[r.check] += r.failed and r.witness[-1] != first
    assert mid_row == {"sigma-cocycle": 6, "compatibility": 6}


@pytest.mark.parametrize("table, key", [
    ("sigma", (0, 1, 1)), ("sigma", (1, 1, 2)), ("sigma", (1, 2, 2)), ("tau", (1, 1, 2)),
], ids=["sigma-normalization", "sigma-cocycle", "sigma-late", "tau-cocycle"])
def test_missing_entry_raises_like_reference(table, key):
    mp, sigma, tau = _total_cocycles("Z2_Z3_trivial")
    tables = {"sigma": sigma, "tau": tau}
    del tables[table][key]
    cp = CocyclePair.from_tables(mp, tables["sigma"], tables["tau"],
                                 sigma_default=None, tau_default=None)
    with pytest.raises(MissingEntry) as new:
        cp.verify()
    with pytest.raises(MissingEntry) as ref:
        verify_cocycles_reference(cp)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("eid, bound", [("Z2_Z3_trivial", 4), ("Z3_Dinf", 1), ("Q8_Dinf", 1)])
def test_missing_key_pairs_raise_like_reference(eid, bound):
    assert_adjacent_missing_pairs_raise_alike(
        get_entry(eid).context().cp, lambda cp: cp.verify(bound),
        lambda cp: verify_cocycles_reference(cp, bound), 60, 19)


def test_zero_rule_value_raises_library_error():
    G, F = cyclic_group(2), cyclic_group(2, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    cp = CocyclePair(
        mp, lambda a, f, fp: ZERO if not (a.is_identity() or f.is_identity()) else ONE,
        lambda a, b, f: ONE)
    with pytest.raises(InvalidCocycle) as new:
        cp.verify()
    assert isinstance(new.value, HopfCqtError) and isinstance(new.value, ValueError)
    with pytest.raises(InvalidCocycle) as ref:
        verify_cocycles_reference(cp)
    assert str(new.value) == str(ref.value)


def _record_calls(monkeypatch, cls, names):
    "Wrap the named methods of cls; return the list of (name, argument keys) calls."
    calls = []
    for name in names:
        def counted(self, *args, _name=name, _orig=getattr(cls, name)):
            calls.append((_name,) + tuple(a.key for a in args))
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_cocycle_sweep_looks_up_each_triple_once(monkeypatch):
    # once per triple, and in the order the object path first reaches each
    # triple, so every identity keeps its operand order
    cp = get_entry("Q8_Dinf").context().cp
    calls = _record_calls(monkeypatch, CocyclePair, ("sigma", "tau"))
    assert all_passed(cp.verify())
    new = list(calls)
    assert new and len(set(new)) == len(new)
    calls.clear()
    verify_cocycles_reference(cp)
    assert new == list(dict.fromkeys(calls))


def test_matched_pair_sweep_acts_once_per_pair(monkeypatch):
    mp = get_entry("Q8_Dinf").context().mp
    calls = _record_calls(monkeypatch, MatchedPair, ("act_left", "act_right"))
    assert all_passed(mp.verify())
    new = list(calls)
    assert new and len(set(new)) == len(new)
    calls.clear()
    verify_matched_pair_reference(mp)
    assert new == list(dict.fromkeys(calls))


@pytest.mark.parametrize("eid", ["Z2_Z3_trivial", "S3_Z2"])
@pytest.mark.parametrize("clause", ["sigma(g;1,f)", "sigma(g;f,1)", "sigma(1;f,f')",
                                    "tau(1,g;f)", "tau(g,1;f)", "tau(g,g';1)"])
def test_each_normalization_value_fails_like_reference(eid, clause):
    # one normalization value set to -1 at a key whose other arguments are not
    # the identity, so exactly one clause of the row kernel reads it
    mp, sigma, tau = _total_cocycles(eid)
    gs, fs = mp.G.elements(), mp.F.elements()
    o, e, g, f = gs[0].key, fs[0].key, gs[-1].key, fs[-1].key
    table, key = {"sigma(g;1,f)": (sigma, (g, e, f)), "sigma(g;f,1)": (sigma, (g, f, e)),
                  "sigma(1;f,f')": (sigma, (o, f, f)), "tau(1,g;f)": (tau, (o, g, f)),
                  "tau(g,1;f)": (tau, (g, o, f)), "tau(g,g';1)": (tau, (g, g, e))}[clause]
    table[key] = -table[key]
    cp = CocyclePair.from_tables(mp, sigma, tau, sigma_default=None, tau_default=None)
    new = _json(cp.verify())
    assert new == _json(verify_cocycles_reference(cp))
    assert new[0]["status"] == "fail"
