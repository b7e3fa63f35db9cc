import itertools

import pytest

from test_battery_tables import k4_z2_asymmetric_tau
from test_induced_sparse import z4_z8_tau

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.comodules import (Comodule, TwistedCoalgebra, _abelian_character_tables,
                               _generating_subset, _onedim_tables, character,
                               enumerate_onedim, group_comodules, induce, trivial_comodule)
from hopfcqt.cocycles import CocyclePair
from hopfcqt.errors import (DimensionMismatch, HopfCqtError, InvalidCocycle, MissingEntry,
                            MixedGroups, NonAbelianStabilizer, NotARootOfUnity,
                            NotInStabilizer, WrongGroup)
from hopfcqt.groups import (DirectProductGroup, GroupHom, closure, cyclic_group,
                            klein_four_group, quaternion_group_q8, symmetric_group_s3)
from hopfcqt.hopf import HopfAlgebra, HopfElement
from hopfcqt.matched_pair import MatchedPair, group_ids
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


def test_twisted_delta_on_a_nonabelian_stabilizer():
    # Q8_Z's stabilizer at 0 is all of Q8, where the left leg g x^-1 of
    # Delta(p_g) = sum_x tau(g x^-1, x; 0) p_(g x^-1) (x) p_x differs from x^-1 g
    H = get_entry("Q8_Z").context()
    G = H.G
    C = TwistedCoalgebra(H, "0")
    assert len(C.stabilizer) == G.order() == 8 and not G.is_abelian()
    for g in C.stabilizer:
        legs = [(G.mul(g, G.inv(x)), x) for x in C.stabilizer]
        assert C.delta(g) == {(a, x): H.cp.tau(a, x, C.f) for a, x in legs}


def test_twisted_coassociativity_all_catalog_points():
    for eid in ("Z2_Z", "S3_Z2", "Z2_Z2_tau", "Z3_Z"):
        H = get_entry(eid).context()
        for f in H.mp.window(2):
            TwistedCoalgebra(H, f)  # construction raises on failure


def _q8_z_tau_table(edit):
    """Q8_Z's tau at base points 0 and 1 as a table without default, its entries
    at 0 changed by edit; returns the context and the two points."""
    H = get_entry("Q8_Z").context()
    G, f, other = H.G, H.F.parse("0"), H.F.parse("1")
    tau = {(a.key, b.key, u.key): H.cp.tau(a, b, u)
           for u in (f, other) for a in G.elements() for b in G.elements()}
    edit(tau, lambda a, b: (G.parse(a).key, G.parse(b).key, f.key))
    sigma, sigma_default = H.cp.tables["sigma"]
    cp = CocyclePair.from_tables(H.mp, sigma, tau, sigma_default, None)
    return HopfAlgebra(cp), f, other


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
    # the context's shared table is filled lookup by lookup in the order of the
    # coassociativity sweep, so the first bad entry it reaches names the error,
    # as without a table; a lookup that raises stores nothing, so a second build
    # raises the same, also after the coalgebra at another point has filled
    # part of the table and widened its F axis
    H, f, other = _q8_z_tau_table(edit)

    def first_error():
        with pytest.raises(error) as err:
            TwistedCoalgebra(H, f)
        return type(err.value), str(err.value)

    assert first_error() == first_error() == (error, message)
    sc = H.structure_constants
    TwistedCoalgebra(H, other)
    assert sc.P.tau[sc.one_g][sc.one_g][sc.P.fid(other)] is not None  # tau(1, 1; 1) filled
    assert first_error() == (error, message)


def test_twisted_tau_matches_cocycle_pair():
    # K4_Z2_tau has tau(a, b; t) != tau(b, a; t), so a read at (b, a) shows
    K4_Z2, Q8_Z = k4_z2_asymmetric_tau(), get_entry("Q8_Z").context()
    for H, f in ((Q8_Z, "0"), (K4_Z2, K4_Z2.F.elements()[1])):
        C = TwistedCoalgebra(H, f)
        for a in C.stabilizer:
            for b in C.stabilizer:
                assert C.tau(a, b) == H.cp.tau(a, b, C.f)
    C = TwistedCoalgebra(Q8_Z, "0")
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
    assert all_passed(U.verify()) and U.is_simple()
    UV = Comodule(C, 2, {H.G.one: Matrix.identity(2),
                         g: Matrix([[s, ZERO], [ZERO, -s]])})
    assert all_passed(UV.verify()) and not UV.is_simple()
    # corrupt one side of the coefficient identity
    bad = Comodule(C, 1, {H.G.one: Matrix.identity(1), g: Matrix([[ONE]])})
    assert not all_passed(bad.verify())


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
    # two independent code paths: the closed formula vs the induced-coaction trace;
    # K4_Z2_tau and Z4_Z8_tau carry tau != 1, Z4_Z8_tau also at its moved points
    cases = [(get_entry(eid).context(), pts) for eid, pts in (
        ("Z2_Z", ["0", "1", "2", "3"]), ("Z2_Z2_tau", ["1", "t"]),
        ("S3_Z2", ["()", "(1 2)", "(1 3)", "(1 2 3)"]),
        ("Z3_Z", ["0", "1"]), ("Z2_Dinf", ["1", "x", "y"]))]
    cases += [(k4_z2_asymmetric_tau(), ["1", "t"]),
              (z4_z8_tau(), ["1", "t", "t^2", "t^3", "t^4"])]
    for H, pts in cases:
        eid = H.name
        for p in pts:
            C = TwistedCoalgebra(H, p)
            try:
                sols = enumerate_onedim(C)
            except NonAbelianStabilizer:
                continue
            for V in sols:
                assert induce(V).character_by_trace() == character(V).element, (eid, p)


def test_group_comodules_without_a_quotient_are_the_characters_at_one():
    H = get_entry("Z2_Z").context()
    chars = group_comodules(H)
    assert [V.coalgebra.f for V in chars] == [H.F.one] * 2
    assert sorted(repr(V.matrix("g")[0, 0]) for V in chars) == ["-1", "1"]


def test_group_comodules_refuse_a_nonabelian_codomain():
    H = get_entry("Z2_Z").context()
    pi = GroupHom(H.G, symmetric_group_s3(), {"g": "(1 2)"})
    with pytest.raises(WrongGroup, match="abelian codomain"):
        group_comodules(H, quotient=pi)


def test_a_telescoped_tau_off_the_unit_circle_has_no_onedim_comodules():
    # tau(g, g; t) = 2 on Z2 x Z2 is a normalized cocycle, but a^g a^g = 2 has
    # no root-of-unity solution
    G, F = cyclic_group(2), cyclic_group(2, "t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    g, t = G.elements()[1], F.elements()[1]
    H = HopfAlgebra(CocyclePair.from_tables(mp, {}, {(g.key, g.key, t.key): rational(2)}))
    with pytest.raises(NotARootOfUnity, match="not a root of unity: 2"):
        enumerate_onedim(TwistedCoalgebra(H, t))


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
    assert all_passed(X.verify()) and X.is_simple()


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


def _exhaustive_generating_subset(ids, mul, one):
    """The reference for `_generating_subset`: the first generating subset of
    least size, subsets of one size taken in id order.  Exponential in the
    order, so kept to orders <= 24."""
    assert len(ids) <= 24
    pool = [i for i in ids if i != one]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if len(closure(one, combo, lambda k, g: mul[k][g])) == len(ids):
                return list(combo)


def _group_tables(G):
    "(ids, mul, one) of G numbered as `_abelian_character_tables` numbers it."
    elements, _, mul, _ = group_ids(G)
    return range(len(elements)), mul, next(i for i, e in enumerate(elements) if e.is_identity())


def _coalgebra_tables(C):
    "(elements, ids, mul, one, tau) of C's stabilizer, as enumerate_onedim reads them."
    return C.P.gs, C._od.stab_ids, C.P.gmul, C._one, C._tau


def _abelian_tables():
    """(ids, mul, one) of every abelian stabilizer of the catalog contexts on the
    window of length 2, and of small abelian groups."""
    tables = []
    for eid in entry_ids():
        H = get_entry(eid).context()
        for f in H.mp.window(2):
            _, ids, mul, one, _ = _coalgebra_tables(TwistedCoalgebra(H, f))
            if all(mul[a][b] == mul[b][a] for a in ids for b in ids):
                tables.append((ids, mul, one))
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    groups = [cyclic_group(n) for n in range(1, 25)] + [
        klein_four_group(), DirectProductGroup([Z2, Z3]), DirectProductGroup([Z3, Z2]),
        DirectProductGroup([Z2, Z2, Z2]), DirectProductGroup([Z3, Z3])]
    return tables + [_group_tables(G) for G in groups]


def test_generating_subset_matches_the_exhaustive_search():
    # the generators fix the order in which the one-dimensional comodules and
    # the characters are listed, so the greedy rule must pick what the search did
    for ids, mul, one in _abelian_tables():
        assert _generating_subset(ids, mul, one) == _exhaustive_generating_subset(ids, mul, one)
    # Z2^7, out of the search's reach, takes one greedy pass per generator
    ids, mul, one = _group_tables(DirectProductGroup([cyclic_group(2)] * 7))
    gens = _generating_subset(ids, mul, one)
    assert len(gens) == 7
    assert len(closure(one, gens, lambda k, g: mul[k][g])) == 128


def _onedim_tables_reference(elements, ids, mul, one, tau):
    """The reference for `_onedim_tables`: each candidate built along fixed
    generator words, then checked against a^x a^y = tau(x, y) a^(xy) on all
    |K|^2 pairs."""
    gens = _generating_subset(ids, mul, one)
    words = closure(one, range(len(gens)), lambda k, gi: mul[k][gens[gi]])
    candidate_sets = []
    for g in gens:
        powers = list(closure(one, (g,), lambda k, h: mul[k][h]))
        c = ONE
        for k in powers[1:]:
            c = c * tau(g, k)
        m, j = c.as_root_of_unity()
        n = len(powers)
        candidate_sets.append([root_of_unity(n * m, j + m * i) for i in range(n)])
    out = []
    for values in itertools.product(*candidate_sets):
        a = {}
        for k, word in words.items():
            acc, acc_val = one, ONE
            for gi in word:
                acc_val = acc_val * values[gi] / tau(acc, gens[gi])
                acc = mul[acc][gens[gi]]
            a[k] = acc_val
        if all(a[x] * a[y] == tau(x, y) * a[mul[x][y]] for x in a for y in a):
            out.append(a)
    return out


def _untwisted(G):
    "(elements, ids, mul, one, tau = 1) of G numbered as `_abelian_character_tables` numbers it."
    return (G.elements(),) + _group_tables(G) + (lambda i, j: ONE,)


def _onedim_cases():
    """(name, elements, ids, mul, one, tau) of the stabilizer coalgebra at every
    base point of every catalog context on the window of length 3, and of
    Z2 x Z4, Z4 x Z2 and Q8 with tau = 1."""
    cases = []
    for eid in entry_ids():
        H = get_entry(eid).context()
        for f in H.mp.window(3):
            cases.append(("%s@%s" % (eid, f),) + _coalgebra_tables(TwistedCoalgebra(H, f)))
    Z2, Z4 = cyclic_group(2), cyclic_group(4)
    for name, G in (("Z2xZ4", DirectProductGroup([Z2, Z4])),
                    ("Z4xZ2", DirectProductGroup([Z4, Z2])), ("Q8", quaternion_group_q8())):
        cases.append((name,) + _untwisted(G))
    return cases


def test_onedim_tables_match_the_all_pairs_reference():
    # one walk over the generator edges gives the tables, keys in order and
    # values, that the word replay and the all-pairs check give
    for name, *table in _onedim_cases():
        got, want = _onedim_tables(*table), _onedim_tables_reference(*table)
        assert [list(a.items()) for a in got] == [list(a.items()) for a in want], name


@pytest.mark.parametrize("G, count", [
    (DirectProductGroup([cyclic_group(2), cyclic_group(4)]), 8),
    (DirectProductGroup([cyclic_group(4), cyclic_group(2)]), 8),
    (quaternion_group_q8(), 4),
], ids=["Z2xZ4", "Z4xZ2", "Q8"])
def test_onedim_tables_reject_the_candidates_that_break_the_law(G, count):
    # the greedy generators of these groups are not independent (Z2 x Z4 and
    # Z4 x Z2 take two of order 4, Q8 has i^2 = j^2), so some candidates must be
    # refused: a character of G is one of |G^ab| tables; Q8 is read directly,
    # as enumerate_onedim refuses a non-abelian stabilizer
    elements, ids, mul, one, tau = _untwisted(G)
    tables = _onedim_tables(elements, ids, mul, one, tau)
    assert len(tables) == count
    for a in tables:
        assert all(a[x] * a[y] == a[mul[x][y]] for x in a for y in a)


def test_onedim_tables_on_the_twisted_sign_stabilizer():
    # tau(g, g; t) = -1: a(g)^2 = -1, so the two tables take the values +-zeta_4 on g
    H = get_entry("Z2_Z2_tau").context()
    C = TwistedCoalgebra(H, "t")
    g = C.P.gid[H.G.parse("g").key]
    tables = _onedim_tables(*_coalgebra_tables(C))
    assert [a[g] for a in tables] == [root_of_unity(4), -root_of_unity(4)]


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
