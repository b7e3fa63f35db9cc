"""A matched pair whose |> changes F word lengths: Z2 acting on D_inf.

The nontrivial element s of Z2 acts on D_inf = <x, y | x^2 = 1, x y x = y^-1>
by phi(y^k x^e) = y^(e - k) x^e, with <| trivial and trivial cocycles.  phi
is an automorphism of order 2 (phi(x) = y x, phi(y) = y^-1), so the pair is
matched, but phi(x) = y x has length 2: the action leaves every word-length
window.  Every catalog action keeps word lengths, so this is the only
context on which the sweep tables widen through |> and on which a CQT3
component reads R outside the window.
"""

import pytest

from hopf_reference import verify_hopf_axioms_reference
from pair_reference import verify_cocycles_reference, verify_matched_pair_reference
from hopfcqt.cocycles import CocyclePair
from hopfcqt.cqt import RForm, verify_R
from hopfcqt.groups import InfiniteDihedralGroup, cyclic_group
from hopfcqt.hopf import HopfAlgebra, verify_hopf_axioms
from hopfcqt.matched_pair import MatchedPair, PairTables
from hopfcqt.reports import PASS, all_passed


def _z2_flip_dinf():
    G, F = cyclic_group(2), InfiniteDihedralGroup()

    def left(a, f):
        k, e = f.key
        return f if a.is_identity() else F._element((e - k, e))

    mp = MatchedPair.from_functions(G, F, left=left, right=lambda a, f: a, name="Z2_flip_Dinf")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Z2_flip_Dinf")


def _json(reports):
    return [r.to_json() for r in reports]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_sweeps_match_object_references_when_the_action_leaves_the_window(bound):
    H = _z2_flip_dinf()
    mp, cp = H.mp, H.cp
    # s |> y^(1 - bound) x = y^bound x, one letter longer than the window allows
    T = PairTables(mp, bound)
    s, f = 1, T.fid(H.F._element((1 - bound, 1)))
    assert f < T.nf <= T.act_left(s, f)

    assert all_passed(mp.verify(bound))
    assert _json(mp.verify(bound)) == _json(verify_matched_pair_reference(mp, bound))
    assert all_passed(cp.verify(bound))
    assert _json(cp.verify(bound)) == _json(verify_cocycles_reference(cp, bound))
    reports = verify_hopf_axioms(H, bound)
    assert all_passed(reports)
    assert _json(reports) == _json(verify_hopf_axioms_reference(H, bound))


def test_cqt3_marks_only_the_component_that_reads_outside_the_window():
    # CQT3 on (x, y) = (p_g # f, p_h # f'): the legs of Delta(p_g # f) are
    # p_(g z^-1) # (z |> f) (x) p_z # f, so
    #   - the left side y1 x1 R(x2, y2) reads R at F parts f, f' only, always
    #     inside the window;
    #   - the right side R(x1, y1) x2 y2 needs x2 y2 = (p_z # f)(p_w # f')
    #     nonzero, so w = z <| f = z, and then lands on component l = z.  It
    #     reads R at z |> f and z |> f'.
    # With window 1 the window is {1, y, y^-1, x}, and only s |> x = y x
    # leaves it.  So the instance (x, y, l) is out of window exactly when
    # l = s and f = x or f' = x: 7 of the 16 F-part pairs, times 4 G-part
    # pairs, gives 28 of the 8 * 8 * 2 = 128 instances.  A rule that drops
    # the whole (x, y) would leave 56 unevaluated; one that needs every read
    # of the component outside the window would leave none, since the left
    # side also lands on l = s.
    H = _z2_flip_dinf()
    report, = verify_R(RForm(H, {}, window=1), levels=(3,), qbound=1)
    assert (report.status, report.checked, report.unevaluated) == (PASS, 100, 28)
