"""CQT3 walks R's support block by block, on forms with a window and without.
It must report exactly what the per-instance sweep of
cqt_reference.instance_sweep reports: status, witness, `checked` and
`unevaluated`."""

import pytest

from cqt_reference import instance_sweep
from test_battery_tables import k4_z2_asymmetric_tau
from test_cqt_reference import _asymmetric_tau_forms, _zeta3_form
from test_cqt_row_kernels import WINDOWED, _perturbations
from test_cqt_shared_table import FINITE
from test_length_changing_action import _z2_flip_dinf
from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, eps_tensor_eps, verify_R, z2_r11_rform, z2_r11_solve
from hopfcqt.groups import cyclic_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import FAIL, PASS
from hopfcqt.scalars import ONE


def _matches(R, qbound=None):
    "verify_R's CQT3 report on R, after checking it equals the reference's."
    got, = verify_R(R, (3,), qbound)
    assert got.to_json() == instance_sweep(R, 3, qbound).to_json(), (R, qbound)
    return got


def _r11_forms():
    mp = MatchedPair.from_functions(cyclic_group(2), cyclic_group(1),
                                    left=lambda g, f: f, right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp), "Z2_trivial_F")
    return [z2_r11_rform(H, case) for case in z2_r11_solve()]


@pytest.mark.parametrize("eid", FINITE)
def test_every_single_entry_perturbation(eid):
    # on a commutative, cocommutative context both sides are
    # sum R(x1, y1) x2 y2, so every form passes; S3_Z2's standard form fails
    H = get_entry(eid).context()
    R = eps_tensor_eps(H)
    statuses = {_matches(S).status for S in [R] + _perturbations(R, H.basis_window(None))}
    assert statuses == ({FAIL} if eid == "S3_Z2" else {PASS})


@pytest.mark.parametrize("H", [get_entry("S3_Z2").context(), k4_z2_asymmetric_tau()],
                         ids=["S3_Z2", "K4_Z2_tau"])
def test_every_single_entry_form(H):
    # R = 1 at one pair of basis keys and 0 elsewhere: each support entry
    # alone, so the first failure falls at many different positions
    keys = H.basis_window(None)
    reports = [_matches(RForm(H, {(k1, k2): ONE})) for k1 in keys for k2 in keys]
    assert {r.status for r in reports} == {PASS, FAIL}
    assert len({r.checked for r in reports if r.failed}) > 30


def test_bicharacter_and_z2_r11_forms():
    reports = [_matches(R) for R in [_zeta3_form()] + _r11_forms()]
    assert [r.status for r in reports] == [PASS] * 3


def test_asymmetric_tau_forms():
    # the tau coefficients of the coproduct legs enter the compiled rows
    reports = {name: _matches(R) for name, R in _asymmetric_tau_forms().items()}
    assert reports["eps:K4_Z2_tau"].status == PASS
    assert reports["eps+1a:K4_Z2_tau"].status == FAIL


@pytest.mark.parametrize("eid", WINDOWED)
@pytest.mark.parametrize("window", [1, 2])
def test_windowed_standard_forms(eid, window):
    R = eps_tensor_eps(get_entry(eid).context(), window=window)
    assert _matches(R, window + 1).unevaluated > 0


@pytest.mark.parametrize("window", [1, 2])
def test_windowed_forms_whose_legs_leave_the_window(window):
    H = _z2_flip_dinf()
    for R in (RForm(H, {}, window=window), eps_tensor_eps(H, window=window)):
        _matches(R, window + 1)


def test_windowed_perturbations():
    H = get_entry("Z2_Z").context()
    R = eps_tensor_eps(H, window=1)
    assert any(_matches(S, 2).status == FAIL for S in _perturbations(R, H.basis_window(1)))


@pytest.mark.parametrize("qbound", [0, 1])
def test_a_qbound_on_finite_F_keeps_every_instance(qbound):
    # over finite F the quantifier range is all of F whatever the bound
    H = get_entry("Z3_Z3_trivial").context()
    R = eps_tensor_eps(H)
    S = R.perturbed((H.G.one, H.F.one), (H.G.one, H.F.one), 2)
    assert _matches(R, qbound).checked == 3 ** 3 * 3 ** 2
    assert _matches(S, qbound).to_json() == _matches(S).to_json()


def test_a_failing_block_reports_its_first_instance():
    # R = 1 at (p_1 # (), p_g # (2 3)) and (p_g # (), p_1 # (1 3)).  In the
    # first block that fails (x in G row 1, y in G row g), the pair visited
    # first, y = p_g # (1 3), fails only on the p_g component, and the later
    # y = p_g # (2 3) fails on p_1; the instances run l before x and y, so the
    # later pair holds the first failure
    H = get_entry("S3_Z2").context()
    one, g = H.G.elements()
    f = {str(u): u for u in H.F.elements()}
    R = RForm(H, {((one, f["()"]), (g, f["(2 3)"])): ONE,
                  ((g, f["()"]), (one, f["(1 3)"])): ONE})
    report = _matches(R)
    assert report.checked == ((0 * 2 + 1) * 2 + 0) * 6 * 6 + 0 * 6 + 3 + 1  # (gx, gy, gl, ix, iy)
    assert [str(w) for w in report.witness] == ["1", "g", "1", "()", "(2 3)"]
