"""`necessary_battery` and the stabilizer-coalgebra check on id tables,
against the object-path reference in `battery_reference`.

Both must give identical reports (status, witness, detail and `checked`)
on every catalog entry, on a context whose sigma is not symmetric (the only
one here that fails sigma-symmetry-on-central-abelian), on a context whose
|> leaves every word-length window, and on the S4 context of the known
false obstruction; and both must raise the same error on a non-coassociative
or non-counital tau and on a character read outside its stabilizer.  The
dual-orbit check's witness on A4 x Z2 is recomputed from its definition.
"""

import itertools

import pytest

from battery_reference import check_coalgebra_reference, necessary_battery_reference
from test_length_changing_action import _z2_flip_dinf

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import Comodule, TwistedCoalgebra
from hopfcqt.cqt import (battery_obstructed, check_dual_orbit_commutation, eps_tensor_eps,
                         necessary_battery, verify_R)
from hopfcqt.errors import InvalidCocycle, NotInStabilizer
from hopfcqt.groups import cyclic_group, finite_group_from_elements, klein_four_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed
from hopfcqt.scalars import MINUS_ONE, Matrix


def _json(reports):
    return [r.to_json() for r in reports]


def _assert_same_battery(H, bound=4, quotients=()):
    reports = _json(necessary_battery(H, bound, quotients))
    assert reports == _json(necessary_battery_reference(H, bound, quotients))
    return {r["check"]: r for r in reports}


@pytest.mark.parametrize("eid", entry_ids())
def test_catalog_batteries_match_reference(eid):
    entry = get_entry(eid)
    _assert_same_battery(entry.context(), entry.default_bound, entry.quotient_homs())


def _z2_on_k4_with_sigma(sigma):
    "Z2 . (Z2 x Z2) with trivial actions and tau, and sigma(g; f, f') for g != 1 from sigma(f, f')."
    G, F = cyclic_group(2), klein_four_group()
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    s = G.elements()[1]
    table = {(s.key, f.key, fp.key): MINUS_ONE
             for f in F.elements() for fp in F.elements() if sigma(f, fp)}
    return HopfAlgebra(CocyclePair.from_tables(mp, table, {}), name="Z2_K4_sigma")


def test_asymmetric_sigma_fails_like_reference():
    # sigma(g; f, f') = -1 when f has an a part and f' a b part (a bicharacter, so a
    # cocycle): sigma(g; a, b) = -1 but sigma(g; b, a) = 1.  -1 at (a, b) alone is
    # not a cocycle: sigma-cocycle fails at (g, a, a, b).
    H = _z2_on_k4_with_sigma(lambda f, fp: f.key & 1 and fp.key & 2)
    assert all_passed(H.cp.verify())
    by = _assert_same_battery(H)
    sym = by["sigma-symmetry-on-central-abelian"]
    assert (sym["status"], sym["witness"]) == ("fail", ["g", "a", "b"])
    assert by["central-character-exchange"]["status"] == "fail"
    # with sigma symmetric both pass
    by = _assert_same_battery(_z2_on_k4_with_sigma(lambda f, fp: f.key & fp.key & 1))
    assert by["sigma-symmetry-on-central-abelian"]["status"] == "pass"
    assert by["central-character-exchange"]["status"] == "pass"


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_length_changing_action_matches_reference(bound):
    _assert_same_battery(_z2_flip_dinf(), bound)


def _s4_pair(gperms, fperms, name):
    """The matched pair of an exact factorization S4 = F G of permutation subgroups
    (identity first): g f = (g |> f)(g <| f), with trivial cocycles."""
    comp = lambda p, q: tuple(p[i] for i in q)
    inv = lambda p: tuple(sorted(range(4), key=p.__getitem__))
    G, F = (finite_group_from_elements(tag, perms, comp, [tag + str(i) for i in range(len(perms))],
                                       [tag + str(i) for i in range(1, len(perms))])
            for tag, perms in (("g", gperms), ("f", fperms)))

    def split(g, f):
        x = comp(gperms[g.key], fperms[f.key])
        i = next(i for i, p in enumerate(fperms) if comp(inv(p), x) in gperms)
        return F._element(i), G._element(gperms.index(comp(inv(fperms[i]), x)))

    mp = MatchedPair.from_functions(G, F, left=lambda g, f: split(g, f)[0],
                                    right=lambda g, f: split(g, f)[1], name=name)
    return HopfAlgebra(CocyclePair.trivial(mp), name=name)


_S3 = [p + (3,) for p in itertools.permutations(range(3))]  # the stabilizer of 3


def _s3_on_k4():
    "F = K4 normal and G = S3: g |> f = g f g^-1 and g <| f = g."
    return _s4_pair(_S3, [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)], "S3_K4")


def _z4_on_s3():
    """G = Z4 = <(0 1 2 3)> and F = S3: both actions are nontrivial and the
    transversals hold elements of order 4, so z^-1 |> f and z |> f differ."""
    return _s4_pair([(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)], _S3, "Z4_S3")


def _a4_on_z2():
    "G = A4 and F = {1, (1 3)}."
    a4 = [p for p in sorted(itertools.permutations(range(4)))
          if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    return _s4_pair(a4, [(0, 1, 2, 3), (2, 1, 0, 3)], "A4_Z2")


def test_two_sided_actions_match_reference():
    H = _z4_on_s3()
    assert all_passed(H.mp.verify())
    _assert_same_battery(H)


def test_s4_counterexample_has_a_form_and_matches_reference():
    H = _s3_on_k4()
    assert all_passed(H.mp.verify()) and all_passed(H.cp.verify())
    # <| is trivial, so H is commutative and eps (x) eps is coquasitriangular
    assert all_passed(verify_R(eps_tensor_eps(H), levels=(0, 1, 2, 3, 4, "inv")))
    by = _assert_same_battery(H)
    assert by["dual-orbit-product-commutation"]["status"] == "fail"


def test_dual_orbit_witness_is_the_first_missing_product():
    # G = A4 and F = {1, (1 3)}.  The witness rule of the orbit check: the first
    # product a b of O'_g O'_g' (a-major order) missing from O'_g' O'_g, or else
    # the first b a missing from O'_g O'_g'
    H = _a4_on_z2()
    mp, G, F = H.mp, H.G, H.F
    report = check_dual_orbit_commutation(mp)
    assert (report.status, [G.format(x) for x in report.witness]) == ("fail", ["g1", "g2", "g7"])

    def dual_orbit(g):  # {g <| f : f in F}, in the order of F = {1, t}
        return list(dict.fromkeys(mp.act_right(g, f) for f in F.elements()))

    def first_missing(A, B):
        ba = {G.mul(b, a) for a in A for b in B}
        return next((G.mul(a, b) for a in A for b in B if G.mul(a, b) not in ba), None)

    witnesses = ((g, gp, first_missing(dual_orbit(g), dual_orbit(gp))
                  or first_missing(dual_orbit(gp), dual_orbit(g)))
                 for g, gp in itertools.product(G.elements(), repeat=2))
    assert next(w for w in witnesses if w[2] is not None) == tuple(report.witness)


@pytest.mark.xfail(strict=True, reason="dual-orbit-product-commutation is a module-side "
                                       "condition, yet the battery counts its failure")
def test_s4_counterexample_is_not_obstructed():
    assert not battery_obstructed(necessary_battery(_s3_on_k4()))


def k4_z2_asymmetric_tau():
    """K4 . Z2 with trivial actions and tau(g, g'; t) = -1 when g has an a part and
    g' a b part, tau(., .; 1) = 1: a bicharacter of K4 in (g, g') and a character
    of F in t, so a valid cocycle pair, with tau(a, b; t) != tau(b, a; t).  H is
    commutative and not cocommutative."""
    G, F = klein_four_group(), cyclic_group(2, "t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    t = F.elements()[1]
    return HopfAlgebra(CocyclePair.from_tables(
        mp, {}, {(g.key, gp.key, t.key): MINUS_ONE
                 for g in G.elements() for gp in G.elements() if g.key & 1 and gp.key & 2}),
        name="K4_Z2_tau")


def test_asymmetric_tau_passes_like_reference():
    H = k4_z2_asymmetric_tau()
    G, t = H.G, H.F.elements()[1]
    assert all_passed(H.cp.verify())
    check_coalgebra_reference(H, t)
    a, b = G.generators()
    C = TwistedCoalgebra(H, t)
    assert (C.tau(a, b), C.tau(b, a)) == (MINUS_ONE, 1)
    # A^a A^b = tau(a, b; t) A^(ab) = -A^(ab) and A^b A^a = A^(ab): a 2-dim simple comodule
    X, Z = Matrix([[0, 1], [1, 0]]), Matrix([[1, 0], [0, -1]])
    V = Comodule(C, 2, {G.one: Matrix.identity(2), a: X, b: Z, G.mul(a, b): X * Z * -1})
    assert all_passed(V.verify()) and V.is_simple()
    _assert_same_battery(H)


def _raised(fn, *args):
    with pytest.raises((InvalidCocycle, NotInStabilizer)) as info:
        fn(*args)
    return info.type, str(info.value)


@pytest.mark.parametrize("eid", ["Z3_Z3_trivial", "Q8_Dinf", "Q8_Z"])
def test_bad_tau_raises_like_reference(eid):
    mp = get_entry(eid).context().mp
    G, F = mp.G, mp.F
    g = G.elements()[1]
    # tau(., .; 1) = -1 only at (g, g): not coassociative
    H = HopfAlgebra(CocyclePair.from_tables(mp, {}, {(g.key, g.key, F.one.key): MINUS_ONE}))
    raised = _raised(TwistedCoalgebra, H, F.one)
    assert raised == _raised(check_coalgebra_reference, H, F.one)
    assert "not coassociative" in raised[1]
    # tau = -1 everywhere is coassociative but not counital
    H = HopfAlgebra(CocyclePair.from_tables(mp, {}, {}, tau_default=MINUS_ONE))
    raised = _raised(TwistedCoalgebra, H, F.one)
    assert raised == _raised(check_coalgebra_reference, H, F.one)
    assert raised[1] == "counit law fails at %r" % G.one


def test_character_outside_its_stabilizer_raises_like_reference():
    # an action that is not by automorphisms: s |> swaps 1 and t and fixes t^2, so the
    # stabilizer of 1_F is {1}, yet G_(t^2) = G; the character-product check reads the
    # trivial character of G_1 at s
    G, F = cyclic_group(2, "s"), cyclic_group(3, "t")
    swap = {0: 1, 1: 0, 2: 2}
    mp = MatchedPair.from_functions(
        G, F, left=lambda g, f: F._element(swap[f.key]) if g.key else f, right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp))
    raised = _raised(necessary_battery, H)
    assert raised == _raised(necessary_battery_reference, H)
    assert raised == (NotInStabilizer, "s outside the stabilizer")


def test_passing_gates_read_no_diagonal_sum(monkeypatch):
    # each character is read once per call into a trace list; only a failing
    # onedim-character-action-invariance witness prints diagonal_sum
    calls = []
    diagonal_sum = Comodule.diagonal_sum
    monkeypatch.setattr(Comodule, "diagonal_sum",
                        lambda V, g: calls.append(g) or diagonal_sum(V, g))
    for eid in ("S3_Z2", "Z3_Z3_trivial", "Z2_Z2xZ_central", "Q8_Dinf"):
        entry = get_entry(eid)
        reports = necessary_battery(entry.context(), entry.default_bound, entry.quotient_homs())
        assert not any(r.failed for r in reports if r.check.startswith("onedim")), eid
    assert calls == []
