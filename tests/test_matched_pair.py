import pytest
from test_battery_tables import _a4_on_z2, _s3_on_k4, _z4_on_s3

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.errors import InvalidAction
from hopfcqt.groups import (IntegerGroup, InfiniteDihedralGroup, cyclic_group,
                            symmetric_group_s3)
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed


def _mp(entry_id):
    return get_entry(entry_id).context().mp


def test_act_left_fold_example():
    mp = _mp("Z2_Z")
    g = mp.G.parse("g")
    # g |> 2 folds to (g |> 1) + ((g <| 1) |> 1) = -1 - 1
    assert mp.act_left(g, mp.F.parse("2")) == mp.F.parse("-2")
    assert mp.act_left(mp.G.one, mp.F.parse("7")) == mp.F.parse("7")


def test_act_left_conjugation_example():
    mp = _mp("S3_Z2")
    g = mp.G.parse("g")
    assert mp.act_left(g, mp.F.parse("(1 3)")) == mp.F.parse("(2 3)")


def test_act_right_examples():
    mp = _mp("Z3_Z")
    g = mp.G.parse("g")
    assert mp.act_right(g, mp.F.parse("3")) == mp.G.parse("g^2")
    assert mp.act_right(mp.G.one, mp.F.parse("5")) == mp.G.one
    mpq = _mp("Q8_Z")
    assert mpq.act_right(mpq.G.parse("r"), mpq.F.parse("1")) == mpq.G.parse("s")


def test_verify_catalog_pairs():
    assert all_passed(_mp("S3_Z2").verify())
    assert all_passed(_mp("Z2_Dinf").verify(4))
    assert all_passed(_mp("Z3_Dinf").verify(4))
    assert all_passed(_mp("Q8_Z").verify(4))


def test_verify_catches_corruption():
    # flip one table cell of the S3 x Z2 conjugation action
    G = cyclic_group(2)
    F = symmetric_group_s3()
    t = F.parse("(1 2)")

    def left(a, nu):
        if a.is_identity():
            return nu
        out = F.mul(F.mul(t, nu), t)
        if nu == F.parse("(1 3)"):
            out = F.parse("(1 3)")  # corrupted cell
        return out

    mp = MatchedPair.from_functions(G, F, left=left, right=lambda a, nu: a)
    reports = mp.verify()
    assert not all_passed(reports)
    bad = [r for r in reports if r.failed]
    assert bad and bad[0].witness is not None


def test_orbit_stabilizer_transversal():
    mp = _mp("Z2_Z")
    F = mp.F
    orb = mp.orbit(F.parse("3"))
    assert sorted(x.key for x in orb) == [-3, 3]
    assert [str(s) for s in mp.stabilizer(F.parse("3"))] == ["1"]
    assert [str(s) for s in mp.stabilizer(F.parse("0"))] == ["1", "g"]
    assert mp.orbit(F.one) == [F.one]
    mp3 = _mp("S3_Z2")
    orb3 = mp3.orbit(mp3.F.parse("(1 2 3)"))
    assert sorted(str(x) for x in orb3) == ["(1 2 3)", "(1 3 2)"]


def test_orbit_counting_and_transversal_bijection():
    for entry in ("Z2_Z", "S3_Z2", "Q8_Z", "Z3_Dinf"):
        mp = _mp(entry)
        for f in mp.window(3):
            od = mp.orbit_data(f)
            assert len(od.orbit) * len(od.stabilizer) == mp.G.order()
            assert od.transversal[0].is_identity()
            reached = {mp.act_left(mp.G.inv(z), f).key for z in od.transversal}
            assert reached == {x.key for x in od.orbit}
            assert len(reached) == len(od.transversal)
            for x in mp.G.elements():
                gx, zx = od.factorize(x)
                assert od.in_stabilizer(gx)
                assert mp.G.mul(gx, zx) == x


def _orbit_data_by_definition(mp, f):
    """(orbit, stabilizer, transversal, {x: (g_x, z_x)}) at f, each from its definition:
    the distinct g |> f in G order, the g with g |> f = f, the first x in G order for
    each point x^-1 |> f (the first of each right coset G_f x), and z_x the transversal
    element with x z_x^-1 |> f = f, g_x = x z_x^-1."""
    G = mp.G
    orbit = []
    for g in G.elements():
        if mp.act_left(g, f) not in orbit:
            orbit.append(mp.act_left(g, f))
    stabilizer = [g for g in G.elements() if mp.act_left(g, f) == f]
    transversal, reached = [], []
    for x in G.elements():
        if mp.act_left(G.inv(x), f) not in reached:
            reached.append(mp.act_left(G.inv(x), f))
            transversal.append(x)
    factors = {}
    for x in G.elements():
        (z,) = [z for z in transversal if mp.act_left(G.mul(x, G.inv(z)), f) == f]
        factors[x] = (G.mul(x, G.inv(z)), z)
    return orbit, stabilizer, transversal, factors


@pytest.mark.parametrize("mp", [_mp(e) for e in entry_ids()]
                         + [H().mp for H in (_s3_on_k4, _z4_on_s3, _a4_on_z2)],
                         ids=entry_ids() + ["S3_K4", "Z4_S3", "A4_Z2"])
def test_orbit_data_matches_its_definition(mp):
    for f in mp.window(2):
        od = mp.orbit_data(f)
        orbit, stabilizer, transversal, factors = _orbit_data_by_definition(mp, f)
        assert (od.orbit, od.stabilizer, od.transversal) == (orbit, stabilizer, transversal), f
        assert {x: od.factorize(x) for x in mp.G.elements()} == factors, f


def test_orbit_data_refuses_a_non_action():
    # Z3 on Z2 with a |> 0 = 0 but a^2 |> 0 = t: the unit law fails at 1_F
    G, F = cyclic_group(3, "a"), cyclic_group(2, "t")
    a2, t = G.parse("a^2"), F.parse("t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: t if g == a2 else f,
                                    right=lambda g, f: g)
    with pytest.raises(InvalidAction, match=r"a\^2 \|> 1 is not 1 at base point 1"):
        mp.orbit_data(F.one)
    # a |> t = t but a^2 |> t = 1, with 1 fixed: the stabilizer of t is {1, a}
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: F.one if g == a2 else f,
                                    right=lambda g, f: g)
    mp.orbit_data(F.one)
    with pytest.raises(InvalidAction, match="stabilizer not closed at base point t"):
        mp.orbit_data(t)


def test_fold_is_word_independent():
    mp = _mp("Z2_Z")
    F = mp.F
    g = mp.G.parse("g")
    t, tinv = F._element(1), F._element(-1)
    # 3 = t t t = t t t t t^-1 t t^-1
    w1 = [t, t, t]
    w2 = [t, t, t, t, tinv, t, tinv]
    assert mp._fold(g, w1) == mp._fold(g, w2)
    mpd = _mp("Q8_Dinf")
    D = mpd.F
    x, y, yinv = D.x, D.y, D.y.inverse()
    # y x = x y^-1: two words for the same element
    r = mpd.G.parse("r")
    assert mpd._fold(r, [y, x]) == mpd._fold(r, [x, yinv])


@pytest.mark.parametrize("entry_id", entry_ids())
def test_action_table_matches_word_folding(entry_id):
    mp = _mp(entry_id)
    G, F = mp.G, mp.F
    fs = mp.window(4)
    # the window, and products of two window elements, which leave it
    points = {f.key: f for f in fs}
    for a in fs:
        for b in fs:
            ab = F.mul(a, b)
            points.setdefault(ab.key, ab)
    for g in G.elements():
        for f in points.values():
            right, left = mp._fold(g, F.letter_decomposition(f))
            assert mp.act_left(g, f) == left, (g, f)
            assert mp.act_right(g, f) == right, (g, f)


def test_orbit_product_commutation():
    mp = _mp("Z2_Dinf")
    ok, witness = mp.orbit_product_commutes(mp.F.parse("x"), mp.F.parse("y"))
    assert not ok
    assert witness == mp.F.parse("x*y")  # = y^-1 x in normal form
    mp2 = _mp("S3_Z2")
    f, fp = mp2.F.parse("(1 3)"), mp2.F.parse("(1 2 3)")
    # independent expansion: conjugacy-orbit products in S3 coincide as sets
    P = {str(mp2.F.mul(a, b)) for a in mp2.orbit(f) for b in mp2.orbit(fp)}
    Q = {str(mp2.F.mul(b, a)) for a in mp2.orbit(f) for b in mp2.orbit(fp)}
    assert P == Q
    ok, _ = mp2.orbit_product_commutes(f, fp)
    assert ok
    mpz = _mp("Z3_Z")
    ok, _ = mpz.orbit_product_commutes(mpz.F.parse("2"), mpz.F.parse("-5"))
    assert ok


def test_dual_orbits():
    mp = _mp("Z3_Z")
    assert sorted(str(x) for x in mp.dual_orbit(mp.G.parse("g"))) == ["g", "g^2"]
    mpq = _mp("Q8_Z")
    assert sorted(str(x) for x in mpq.dual_orbit(mpq.G.parse("r"))) == ["r", "s"]
    mps = _mp("S3_Z2")
    g = mps.G.parse("g")
    assert mps.dual_orbit(g) == [g]
    ok, _ = mps.dual_orbit_product_commutes(g, mps.G.one)
    assert ok
