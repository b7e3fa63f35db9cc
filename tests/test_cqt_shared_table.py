"""verify_R shares one StructureConstants per context: the verdicts, witnesses,
R reads and errors of a call never depend on what earlier calls on the same
context filled in."""

import random

import pytest

from test_hopf import _total_cocycles
from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, eps_tensor_eps, verify_R, z2_r11_rform, z2_r11_solve
from hopfcqt.errors import MissingEntry
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.reports import PASS
from hopfcqt.scalars import ONE, root_of_unity

LEVELS = (0, 1, 2, 3, 4, "inv")
FINITE = [eid for eid in entry_ids() if get_entry(eid).context().F.is_finite]
SPECS = ([(eid, None) for eid in FINITE]
         + [(eid, q) for eid in ("Z2_Z", "Z2_Z2xZ_central") for q in (1, 2)])


def _forms(H):
    """The standard form, one seeded perturbation of it, the z2_r11_solve tables
    when |G| = 2 and the zeta_3 bicharacter R(p_1 # f_a, p_1 # f_b) = zeta_3^(ab)
    when F is finite, all on H."""
    window = None if H.F.is_finite else 2
    std = eps_tensor_eps(H, window=window)
    keys = H.basis_window(1)
    rng = random.Random(len(keys))
    k1, k2 = rng.choice(keys), rng.choice(keys)
    forms = [std, std.perturbed(k1, k2, std.try_value(k1, k2) + ONE)]
    if H.G.order() == 2:
        forms += [z2_r11_rform(H, case) for case in z2_r11_solve()]
    if H.F.is_finite:
        fs, one = H.F.elements(), H.G.one
        forms.append(RForm(H, {((one, f), (one, fp)): root_of_unity(3, a * b)
                               for a, f in enumerate(fs) for b, fp in enumerate(fs)}))
    return forms


def _fresh(R):
    "R rebuilt on a new HopfAlgebra over the same cocycle pair, so with an empty table."
    return RForm(HopfAlgebra(R.H.cp), R.table, window=R.window)


def _json(R, qbound):
    return [r.to_json() for r in verify_R(R, LEVELS, qbound)]


@pytest.mark.parametrize("eid,qbound", SPECS)
def test_forms_in_either_order_match_a_fresh_context(eid, qbound):
    H = HopfAlgebra(get_entry(eid).context().cp)
    forms = _forms(H)
    expected = [_json(_fresh(R), qbound) for R in forms]
    # forwards, then backwards on the same context: products, coproducts and
    # compiled CQT3 rows all meet forms other than the one that built them
    for order in (range(len(forms)), reversed(range(len(forms)))):
        for n in order:
            assert _json(forms[n], qbound) == expected[n], n
    assert H.structure_constants.cqt3_rows


def _log_reads(monkeypatch):
    "The list that every later RForm.try_value call appends its (key1, key2) to."
    reads = []
    try_value = RForm.try_value

    def logged(self, key1, key2):
        reads.append((key1, key2))
        return try_value(self, key1, key2)

    monkeypatch.setattr(RForm, "try_value", logged)
    return reads


@pytest.mark.parametrize("levels", [LEVELS, (3,)])  # CQT3 alone reads R first
@pytest.mark.parametrize("eid,qbound", [("S3_Z2", None), ("Z2_Z2_tau", None),
                                        ("Z3_Z3_trivial", None), ("Z2_Z2xZ_central", 2)])
def test_warm_context_reads_R_in_the_fresh_order(eid, qbound, levels, monkeypatch):
    reads = _log_reads(monkeypatch)
    H = HopfAlgebra(get_entry(eid).context().cp)
    R, *others = _forms(H)
    reads.clear()
    verify_R(_fresh(R), levels, qbound)
    fresh = list(reads)
    for S in others:
        verify_R(S, levels, qbound)
    for _ in range(2):  # on the rows the calls before compiled
        reads.clear()
        verify_R(R, levels, qbound)
        assert reads == fresh


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("eid,window", [("Z2_Z2_tau", None), ("Z3_Z3_trivial", None),
                                        ("Z2_Z", 1), ("Z2_Z2xZ_central", 1), ("Z2_Z2xZ_central", 2)])
def test_every_level_reads_R_once_in_table_order(eid, window, level, monkeypatch):
    # verify_R reads R once per call, into one view that every level reads: on
    # every form, windowed or not, each support entry once, in R.table order,
    # and nothing else; window 1 at qbound 2 quantifies over instances outside
    # R's window
    reads = _log_reads(monkeypatch)
    R = eps_tensor_eps(HopfAlgebra(get_entry(eid).context().cp), window=window)
    (report,) = verify_R(R, (level,), 2)
    assert report.status == PASS
    assert reads == list(R.table)


def _outcome(R):
    "The reports of verify_R on R, or the message of the MissingEntry it raises."
    try:
        return _json(R, None)
    except MissingEntry as e:
        return "MissingEntry: %s" % e


@pytest.mark.parametrize("eid", ["Z2_Z3_trivial", "S3_Z2"])
def test_missing_entry_raises_again_on_the_same_context(eid):
    # a lookup that raises fills nothing, so a second call on the same context
    # reaches the same undeclared entry first
    mp, sigma, tau = _total_cocycles(eid)
    raised = 0
    for table, key in [("sigma", k) for k in sigma] + [("tau", k) for k in tau]:
        tables = {"sigma": dict(sigma), "tau": dict(tau)}
        del tables[table][key]
        cp = CocyclePair.from_tables(mp, tables["sigma"], tables["tau"],
                                     sigma_default=None, tau_default=None)
        R = eps_tensor_eps(HopfAlgebra(cp))
        first = _outcome(R)
        assert _outcome(R) == first == _outcome(_fresh(R)), (table, key)
        raised += isinstance(first, str)
    assert raised > 0

