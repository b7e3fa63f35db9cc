"""D(K)*: contexts whose coquasitriangular forms are known in closed form.

For a finite group K take G = F = K, g |> f = g f g^-1, g <| f = g and
trivial cocycles.  Then H = k^K # kK is the dual of the Drinfeld double D(K),
up to op/cop (Drinfeld, ICM 1986; Kassel, Quantum Groups, IX.4; Majid,
Foundations, 7.1), with the basis key (x, f) standing for p_x # f.  D(K) is
quasitriangular, so H is coquasitriangular: pairing its universal R-matrix
gives r(p_x # f, p_y # f') = [x = 1][y = f], and its partner r21^-1, that is
(a, b) -> r(S(b), a), is r(p_x # f, p_y # f') = [y = 1][x = f'^-1].  Neither
is cotriangular: CQT4 fails on every nonabelian K here.
"""

import random

import pytest

from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, verify_R
from hopfcqt.groups import permutation_group, quaternion_group_q8, symmetric_group_s3
from hopfcqt.hopf import HopfAlgebra, antipode, verify_hopf_axioms
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import FAIL, PASS, all_passed
from hopfcqt.scalars import ONE


def double_dual(K, name):
    "k^K # kK for a finite group K: g |> f = g f g^-1, g <| f = g, sigma = tau = 1."
    mp = MatchedPair.from_functions(K, K, left=lambda g, f: K.mul(K.mul(g, f), K.inv(g)),
                                    right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp), name=name)


def double_forms(H):
    "The two closed-form forms on D(K)*: [x = 1][y = f], and its partner [y = 1][x = f'^-1]."
    K, one = H.F, H.F.one
    fs = K.elements()
    return (RForm(H, {((one, f), (f, fp)): ONE for f in fs for fp in fs}),
            RForm(H, {((K.inv(fp), f), (one, fp)): ONE for f in fs for fp in fs}))


def _d4():
    "The dihedral group of the square, generated by a rotation and a reflection."
    return permutation_group([[1, 2, 3, 0], [3, 2, 1, 0]], name="D4")


DOUBLES = {"S3": symmetric_group_s3, "Q8": quaternion_group_q8, "D4": _d4}


def _double(name):
    return double_dual(DOUBLES[name](), "D(%s)*" % name)


def test_double_is_a_hopf_algebra_on_s3():
    H = _double("S3")
    assert all_passed(H.mp.verify()) and all_passed(verify_hopf_axioms(H))


@pytest.mark.parametrize("n", [0, 1])
def test_s3_forms_are_coquasitriangular_and_not_cotriangular(n):
    R = double_forms(_double("S3"))[n]
    *defining, cotriangular = verify_R(R, (0, 1, 2, 3, "inv", 4))
    assert [r.status for r in defining] == [PASS] * 5
    assert cotriangular.status == FAIL and cotriangular.witness


def test_partner_is_r21_inverse_through_the_antipode():
    H = _double("S3")
    r, partner = double_forms(H)
    keys = H.basis_window(None)
    for ka in keys:
        for kb in keys:
            expected = r.bilinear(antipode(H.basis(*kb)), H.basis(*ka))
            assert partner.try_value(ka, kb) == expected, (ka, kb)


def test_seeded_single_entry_perturbations_fail_a_defining_family():
    H = _double("S3")
    keys = H.basis_window(None)
    rng = random.Random(18)
    for n in range(40):
        R = double_forms(H)[n % 2]
        k1, k2 = rng.choice(keys), rng.choice(keys)
        S = R.perturbed(k1, k2, R.try_value(k1, k2) + ONE)
        failed = [r for r in verify_R(S, (0, 1, 2, 3)) if r.failed]
        assert failed and failed[0].witness, (n, k1, k2)


@pytest.mark.parametrize("name", ["Q8", "D4"])
def test_larger_doubles_at_the_linear_levels(name):
    for R in double_forms(_double(name)):
        *defining, cotriangular = verify_R(R, (0, 3, "inv", 4))
        assert [r.status for r in defining] == [PASS] * 3
        assert cotriangular.status == FAIL and cotriangular.witness
