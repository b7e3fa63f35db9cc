import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.comodules import (Comodule, TwistedCoalgebra, _abelian_character_tables,
                               character, enumerate_onedim, group_comodules, induce,
                               trivial_comodule)
from hopfcqt.cocycles import CocyclePair
from hopfcqt.errors import (DimensionMismatch, HopfCqtError, InvalidCocycle, MissingEntry,
                            MixedGroups, NonAbelianStabilizer, NotInStabilizer)
from hopfcqt.groups import (DirectProductGroup, GroupHom, cyclic_group,
                            klein_four_group)
from hopfcqt.hopf import HopfAlgebra, HopfElement
from hopfcqt.reports import all_passed
from hopfcqt.scalars import (Matrix, MINUS_ONE, ONE, ZERO, rational,
                             root_of_unity)


def test_twisted_delta_trivial_tau():
    H = get_entry("Z2_Z").context()
    C = TwistedCoalgebra(H, "0")
    G = H.G
    g = G.parse("g")
    d = C.delta(g)
    assert d == {(g, G.one): ONE, (G.one, g): ONE}


def test_twisted_delta_sign_twist():
    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, "t")
    G = H.G
    g = G.parse("g")
    assert C.delta(G.one) == {(G.one, G.one): ONE, (g, g): MINUS_ONE}
    assert C.delta(g) == {(g, G.one): ONE, (G.one, g): ONE}
    with pytest.raises(NotInStabilizer):
        TwistedCoalgebra(get_entry("Z2_Z").context(), "1").delta(
            get_entry("Z2_Z").context().G.parse("g"))


def test_twisted_coassociativity_all_catalog_points():
    for eid in ("Z2_Z", "S3_Z2", "Z2_Z2_tau", "Z3_Z"):
        H = get_entry(eid).context()
        for f in H.mp.window(2):
            TwistedCoalgebra(H, f)  # construction raises on failure


def _q8_z_tau_table(edit):
    "Q8_Z's tau at base point 0 as a table without default, changed by edit."
    H = get_entry("Q8_Z").context()
    G, f = H.G, H.F.parse("0")
    tau = {(a.key, b.key, f.key): H.cp.tau(a, b, f) for a in G.elements() for b in G.elements()}
    edit(tau, lambda a, b: (G.parse(a).key, G.parse(b).key, f.key))
    cp = CocyclePair.from_tables(H.mp, H.cp.sigma_table, tau, H.cp.sigma_default, None)
    return HopfAlgebra(cp), f


@pytest.mark.parametrize("edit, error, message", [
    (lambda t, k: (t.pop(k("r^3*s", "r^3*s")), t.pop(k("r^3*s", "r"))),
     MissingEntry, "tau(r^3*s, r; 0) undeclared"),
    (lambda t, k: (t.pop(k("r", "r^3*s")), t.pop(k("r^3*s", "r"))),
     MissingEntry, "tau(r, r^3*s; 0) undeclared"),
    (lambda t, k: t.update({k("r^3*s", "r"): MINUS_ONE}),
     InvalidCocycle, "twisted coproduct not coassociative at (r, r^2*s, r) over r^2*s"),
    (lambda t, k: t.update({k("s", "r^2"): MINUS_ONE}),
     InvalidCocycle, "twisted coproduct not coassociative at (r, s, r^2) over r^3*s"),
], ids=["missing-pair", "missing-first-reached", "non-coassociative", "non-coassociative-2"])
def test_twisted_coalgebra_errors_keep_first_reach(edit, error, message):
    # the tau memo is filled lookup by lookup in the order of the coassociativity
    # sweep, so the first bad entry it reaches names the error, as without a memo
    H, f = _q8_z_tau_table(edit)
    with pytest.raises(error) as err:
        TwistedCoalgebra(H, f)
    assert str(err.value) == message


def test_twisted_tau_memo_matches_cocycle_pair():
    H = get_entry("Q8_Z").context()
    C = TwistedCoalgebra(H, "0")
    for a in C.stabilizer:
        for b in C.stabilizer:
            assert C.tau(a, b) == H.cp.tau(a, b, C.f)
    foreign = cyclic_group(8).parse("g")
    assert foreign.key in {g.key for g in C.stabilizer}
    with pytest.raises(MixedGroups):
        C.tau(foreign, C.stabilizer[0])
    with pytest.raises(MixedGroups):
        C.delta(foreign)


def test_comodules_reject_foreign_group_elements():
    # the key of cyclic_group(5)'s generator lies in the stabilizer's key set,
    # so a key-only membership test accepted it
    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, H.F.one)
    V = trivial_comodule(C)
    x = cyclic_group(5).parse("g")
    assert x.key in {g.key for g in C.stabilizer}
    for call in (lambda: C.contains(x), lambda: C.counit(x), lambda: C.delta(x),
                 lambda: V.matrix(x), lambda: Comodule(C, 1, {x: Matrix([[ONE]])}),
                 lambda: Comodule.from_coefficients(C, 1, {(1, 1, x): 1})):
        with pytest.raises(MixedGroups):
            call()
    g = H.G.parse("g")
    assert C.counit(g) == ZERO and V.matrix(g) == Matrix([[ONE]])


def test_comodule_block_shape_checked():
    H = get_entry("Z2_Z").context()
    C = TwistedCoalgebra(H, "0")
    with pytest.raises(DimensionMismatch, match="is not 1x1"):
        Comodule(C, 1, {H.G.parse("g"): Matrix.identity(2)})


def test_from_coefficients_checks_indices():
    # 0 and -1 would reach rows 2 and 1 through Python's negative indexing
    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, "t")
    base = {(1, 1, "1"): 1, (2, 2, "1"): 1}
    for l, i in ((0, 1), (-1, 1), (3, 1), (1, 0), (1, 3), (1.0, 1)):
        with pytest.raises(DimensionMismatch, match="outside 1..2") as err:
            Comodule.from_coefficients(C, 2, {**base, (l, i, "g"): 1})
        assert isinstance(err.value, HopfCqtError)
    V = Comodule.from_coefficients(C, 2, {**base, (2, 1, "g"): 1})
    assert V.matrix("g") == Matrix([[0, 0], [1, 0]])


def test_comodule_validity_and_simplicity():
    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, "t")
    g = H.G.parse("g")
    s = root_of_unity(4)  # sqrt(-1)
    U = Comodule(C, 1, {H.G.one: Matrix.identity(1), g: Matrix([[s]])})
    assert U.is_valid() and U.is_simple()
    UV = Comodule(C, 2, {H.G.one: Matrix.identity(2),
                         g: Matrix([[s, ZERO], [ZERO, -s]])})
    assert UV.is_valid() and not UV.is_simple()
    # corrupt one side of the coefficient identity
    bad = Comodule(C, 1, {H.G.one: Matrix.identity(1), g: Matrix([[ONE]])})
    assert not bad.is_valid()


def test_enumerate_onedim_z3():
    H = get_entry("Z3_Z").context()
    C = TwistedCoalgebra(H, "0")
    sols = enumerate_onedim(C)
    assert len(sols) == 3
    w = root_of_unity(3)
    values = sorted(tuple(repr(V.matrix(g)[0, 0]) for g in H.G.elements())
                    for V in sols)
    expect = sorted(tuple(repr(x) for x in (ONE, a, b))
                    for a, b in [(ONE, ONE), (w, w * w), (w * w, w)])
    assert values == expect


def test_enumerate_onedim_twisted_z2():
    H = get_entry("Z2_Z2_tau").context()
    sols = enumerate_onedim(TwistedCoalgebra(H, "t"))
    s = root_of_unity(4)
    got = sorted(repr(V.matrix("g")[0, 0]) for V in sols)
    assert got == sorted([repr(s), repr(-s)])


def test_enumerate_onedim_trivial_stabilizer():
    H = get_entry("Z2_Z").context()
    sols = enumerate_onedim(TwistedCoalgebra(H, "1"))
    assert len(sols) == 1 and sols[0].dim == 1


def test_enumerate_onedim_rejects_nonabelian():
    H = get_entry("Q8_Z").context()
    with pytest.raises(NonAbelianStabilizer):
        enumerate_onedim(TwistedCoalgebra(H, "0"))


def test_onedim_count_is_stabilizer_order():
    for eid, pts in (("Z2_Z", ["0", "1", "2"]), ("S3_Z2", ["()", "(1 2)", "(1 3)"]),
                     ("Z2_Z2_tau", ["1", "t"])):
        H = get_entry(eid).context()
        for p in pts:
            C = TwistedCoalgebra(H, p)
            assert len(enumerate_onedim(C)) == len(C.stabilizer)


def test_induced_dimensions():
    H = get_entry("Z2_Z").context()
    # moved base point: the trivial stabilizer comodule induces to dimension 2
    W = trivial_comodule(TwistedCoalgebra(H, "1"))
    assert induce(W).dim == 2
    # fixed base point: one-dimensional
    U = enumerate_onedim(TwistedCoalgebra(H, "0"))[0]
    assert induce(U).dim == 1


def test_induced_comodules_are_valid():
    for eid, pts in (("Z2_Z", ["0", "1"]), ("Z2_Z2_tau", ["1", "t"]),
                     ("S3_Z2", ["(1 2)", "(1 3)", "(1 2 3)"])):
        H = get_entry(eid).context()
        for p in pts:
            C = TwistedCoalgebra(H, p)
            for V in enumerate_onedim(C):
                assert all_passed(induce(V).verify())


def test_character_formulas():
    H = get_entry("Z2_Z2_tau").context()
    s = root_of_unity(4)
    U = enumerate_onedim(TwistedCoalgebra(H, "t"))
    chis = sorted((repr(character(V).element) for V in U))
    gbasis = H.basis("g", "t")
    expect = sorted((repr(H.basis("1", "t") + gbasis.scaled(c)) for c in (s, -s)))
    assert chis == expect

    Hz = get_entry("Z2_Z").context()
    W = trivial_comodule(TwistedCoalgebra(Hz, "1"))
    assert character(W).element == Hz.basis("1", "1") + Hz.basis("1", "-1")

    triv = trivial_comodule(TwistedCoalgebra(Hz, "0"))
    assert character(triv).element == Hz.unit()


def test_character_identity_coefficient():
    # for a_ii^1 = 1 comodules, the coefficient of p_1 # (z^-1 |> f) is dim(V)
    for eid, pts in (("Z2_Z", ["0", "2"]), ("S3_Z2", ["(1 3)", "(1 2 3)"])):
        H = get_entry(eid).context()
        for p in pts:
            C = TwistedCoalgebra(H, p)
            for V in enumerate_onedim(C):
                chi = character(V).element
                for z in C.transversal:
                    key = (H.G.one, H.mp.act_left(H.G.inv(z), C.f))
                    assert chi.terms[key] == rational(V.dim)


def test_character_cross_check_trace_vs_formula():
    # two independent code paths: the closed formula vs the induced-coaction trace
    cases = [("Z2_Z", ["0", "1", "2", "3"]), ("Z2_Z2_tau", ["1", "t"]),
             ("S3_Z2", ["()", "(1 2)", "(1 3)", "(1 2 3)"]),
             ("Z3_Z", ["0", "1"]), ("Z2_Dinf", ["1", "x", "y"])]
    for eid, pts in cases:
        H = get_entry(eid).context()
        for p in pts:
            C = TwistedCoalgebra(H, p)
            try:
                sols = enumerate_onedim(C)
            except NonAbelianStabilizer:
                continue
            for V in sols:
                assert induce(V).character_by_trace() == character(V).element, (eid, p)


def test_group_comodules_quotient_lift():
    H = get_entry("Q8_Z").context()
    K4 = klein_four_group()
    pi = GroupHom(H.G, K4, {"r": "a", "s": "b"})
    lifts = group_comodules(H, quotient=pi)
    assert len(lifts) == 4
    X = [V for V in lifts
         if V.matrix("r")[0, 0] == MINUS_ONE and V.matrix("s")[0, 0] == ONE]
    assert len(X) == 1
    X = X[0]
    # X has value (-1)^k on r^k s^l
    for k in range(4):
        for l in range(2):
            name = ("1" if k == 0 else "r" if k == 1 else "r^%d" % k)
            if l:
                name = "s" if k == 0 else name + "*s"
            want = MINUS_ONE if k % 2 else ONE
            assert X.matrix(name)[0, 0] == want
    assert X.is_valid() and X.is_simple()


def _assert_character_group(G, chars):
    "chars: |G| distinct multiplicative maps G -> k*, closed under pointwise product."
    elems = G.elements()
    tables = [[chi(a) for a in elems] for chi in chars]
    assert len(tables) == G.order()
    assert all(tables[i] != tables[j]
               for i in range(len(tables)) for j in range(i))
    for chi in chars:
        assert chi(G.one) == ONE
        assert all(chi(G.mul(a, b)) == chi(a) * chi(b) for a in elems for b in elems)
    for s in tables:
        for t in tables:
            assert [x * y for x, y in zip(s, t)] in tables


@pytest.mark.parametrize("G", [
    cyclic_group(4), klein_four_group(),
    DirectProductGroup([cyclic_group(2, gen_name="a"), cyclic_group(3, gen_name="b")]),
], ids=["Z4", "K4", "Z2xZ3"])
def test_abelian_characters_form_the_dual_group(G):
    chars = [lambda a, c=c: c[a.key] for c in _abelian_character_tables(G)]
    _assert_character_group(G, chars)


def test_quotient_lift_characters_form_the_dual_group():
    # the Q8 -> K4 lifts are the characters of K4 composed with the quotient
    H = get_entry("Q8_Z").context()
    K4 = klein_four_group()
    pi = GroupHom(H.G, K4, {"r": "a", "s": "b"})
    lifts = group_comodules(H, quotient=pi)
    preimage = {pi(g).key: g for g in H.G.elements()}
    chars = [lambda a, V=V: V.matrix(preimage[a.key])[0, 0] for V in lifts]
    _assert_character_group(K4, chars)
    for V in lifts:
        for g in H.G.elements():
            assert V.matrix(g) == V.matrix(preimage[pi(g).key])
