"""verify_R against the definition-level oracle, family by family."""

import random

import pytest

from cqt_reference import LEVELS, _legs, families
from test_battery_tables import k4_z2_asymmetric_tau
from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, eps_tensor_eps, verify_R, z2_r11_rform, z2_r11_solve
from hopfcqt.groups import cyclic_group
from hopfcqt.hopf import HopfAlgebra, antipode, counit
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import FAIL, PASS
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, rational, root_of_unity

TENSOR_ENTRIES = ("Z2_Z2_trivial", "Z2_Z3_trivial", "Z3_Z2_trivial", "Z3_Z3_trivial")


def _zeta3_form():
    "R(p_1 # t^a, p_1 # t^b) = zeta_3^(ab): a bicharacter on the F factor of Z3_Z3_trivial."
    H = get_entry("Z3_Z3_trivial").context()
    fs = H.F.elements()
    return RForm(H, {((H.G.one, f), (H.G.one, fp)): root_of_unity(3, a * b)
                     for a, f in enumerate(fs) for b, fp in enumerate(fs)})


def _pairing_form(eid, flip=False):
    """R(p_1 # f, p_phi(f) # f') = 1 for phi: F -> G, t^a -> g^a: an asymmetric
    bicharacter of the group of group-likes, so it is coquasitriangular but
    not cotriangular; flip gives the transposed form."""
    H = get_entry(eid).context()
    fs = H.F.elements()
    pairs = [((H.G.one, f), (g, fp)) for g, f in zip(H.G.elements(), fs) for fp in fs]
    return RForm(H, {(k2, k1) if flip else (k1, k2): ONE for k1, k2 in pairs})


def _z4_form(sign):
    """On Z2_Z2_tau the group-likes form Z4, generated by p_1 # t + i p_g # t
    (tau(g, g; t) = -1).  R(gamma^a, gamma^b) = (sign i)^(ab) is a bicharacter
    of it: coquasitriangular, not cotriangular, with support on p_g # t, where
    the tau coefficients of the coproduct matter."""
    H = get_entry("Z2_Z2_tau").context()
    one, g = H.G.elements()
    e, t = H.F.elements()
    return RForm(H, {((one, e), (one, e)): ONE, ((one, t), (g, e)): ONE,
                     ((g, e), (one, t)): ONE, ((g, t), (g, t)): -root_of_unity(4, sign)})


def _forms():
    forms = {"eps:" + eid: eps_tensor_eps(get_entry(eid).context())
             for eid in TENSOR_ENTRIES + ("S3_Z2", "Z2_Z2_tau")}
    mp = MatchedPair.from_functions(cyclic_group(2), cyclic_group(1),
                                    left=lambda g, f: f, right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp), "Z2_trivial_F")
    for k, case in enumerate(z2_r11_solve()):
        forms["r11:%d" % k] = z2_r11_rform(H, case)
    forms["zeta3:Z3_Z3_trivial"] = _zeta3_form()
    forms["z4:Z2_Z2_tau"] = _z4_form(1)
    forms["z4-conjugate:Z2_Z2_tau"] = _z4_form(-1)
    forms["pairing:Z2_Z2_trivial"] = _pairing_form("Z2_Z2_trivial")
    forms["pairing:Z3_Z3_trivial"] = _pairing_form("Z3_Z3_trivial")
    forms["pairing21:Z3_Z3_trivial"] = _pairing_form("Z3_Z3_trivial", flip=True)
    return forms


def _perturbed_forms(forms, count=8, seed=3):
    "Seeded single-entry perturbations of the forms."
    rng = random.Random(seed)
    names = sorted(forms)
    out = {}
    for n in range(count):
        name = rng.choice(names)
        R = forms[name]
        keys = [(g, f) for g in R.H.G.elements() for f in R.H.F.elements()]
        k1, k2 = rng.choice(keys), rng.choice(keys)
        value = rng.choice([MINUS_ONE, rational(2)])
        out["perturbed/%d/%s" % (n, name)] = R.perturbed(k1, k2, value)
    return out


def _asymmetric_tau_forms():
    """eps (x) eps on K4 . Z2 with an asymmetric tau, and the same with
    R(p_1 # 1, p_a # t) = 1.  H is commutative, not cocommutative, so CQT3 reads
    the tau coefficients of the coproduct legs: the first form passes every
    family and the second fails every one."""
    H = k4_z2_asymmetric_tau()
    one, a = H.G.elements()[:2]
    e, t = H.F.elements()
    R = eps_tensor_eps(H)
    return {"eps:K4_Z2_tau": R, "eps+1a:K4_Z2_tau": R.perturbed((one, e), (a, t), ONE)}


def _verdicts(R):
    reports = verify_R(R, LEVELS)
    assert all(r.status in (PASS, FAIL) for r in reports)
    return {level: r.status == PASS for level, r in zip(LEVELS, reports)}


_FORMS = _forms()
_FORMS.update(_perturbed_forms(_FORMS))
_FORMS.update(_asymmetric_tau_forms())  # after the draws, which stay as they were


@pytest.mark.parametrize("name", sorted(_FORMS))
def test_verify_R_agrees_with_the_definitions(name):
    R = _FORMS[name]
    assert _verdicts(R) == families(R)


def test_cqt4_is_cotriangularity_not_a_defining_family():
    # the zeta_3 bicharacter is coquasitriangular (families 0-3 and an
    # inverse) but not cotriangular: R21 * R = eps (x) eps fails
    R = _zeta3_form()
    expected = {0: True, 1: True, 2: True, 3: True, 4: False, "inv": True}
    assert families(R) == expected
    reports = verify_R(R, LEVELS)
    assert {level: r.passed for level, r in zip(LEVELS, reports)} == expected
    assert [str(w) for w in reports[4].witness] == ["1", "1", "t", "t"]


def test_tau_signs_enter_the_convolution_sums():
    # on Z2_Z2_tau, Delta(p_1 # t) = p_1 # t (x) p_1 # t + tau(g, g; t) p_g # t (x) p_g # t
    # with tau(g, g; t) = -1; with R(p_g # 1, p_g # t) = 1 that sign decides the
    # inverse sum at (p_1 # 1, p_1 # t), so a sweep that drops it sees a
    # different first failure
    H = get_entry("Z2_Z2_tau").context()
    one, g = H.G.elements()
    e, t = H.F.elements()
    R = RForm(H, {((one, e), (one, e)): ONE, ((g, e), (g, t)): ONE})
    x, y = H.basis(one, e), H.basis(one, t)
    total = sum((c * d * R.bilinear(antipode(x1), y1) * R.bilinear(x2, y2)
                 for c, x1, x2 in _legs(x) for d, y1, y2 in _legs(y)), ZERO)
    assert total == MINUS_ONE and counit(x) * counit(y) == ONE
    report = verify_R(R, ("inv",))[0]
    assert report.failed and report.checked == 2
    assert [str(w) for w in report.witness] == ["1", "1", "1", "t"]
