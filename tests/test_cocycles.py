import random

import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.errors import MissingEntry, SchemaError, WrongGroup
from hopfcqt.groups import cyclic_group
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, root_of_unity


def _trivial_mp(n_g=2, n_f=2):
    G = cyclic_group(n_g)
    F = cyclic_group(n_f, gen_name="t")
    return MatchedPair.from_functions(G, F, left=lambda g, f: f,
                                      right=lambda g, f: g)


def test_trivial_pair_passes():
    cp = CocyclePair.trivial(_trivial_mp())
    assert all_passed(cp.verify())
    assert cp.sigma_trivial_on() and cp.tau_trivial_on()


def test_eval_examples():
    cp = get_entry("Z2_Z2_tau").context().cp
    g = cp.mp.G.parse("g")
    t = cp.mp.F.parse("t")
    assert cp.sigma(g, t, t) == ONE
    assert cp.tau(g, g, t) == MINUS_ONE
    assert cp.tau(cp.mp.G.one, g, t) == ONE
    assert all_passed(cp.verify())


def test_missing_entry():
    mp = _trivial_mp()
    g = mp.G.parse("g")
    t = mp.F.parse("t")
    cp = CocyclePair.from_tables(mp, {}, {(g.key, g.key, t.key): MINUS_ONE},
                                 sigma_default=None)
    with pytest.raises(MissingEntry):
        cp.sigma(g, t, t)


def test_zero_table_values_rejected():
    mp = _trivial_mp()
    g = mp.G.parse("g")
    t = mp.F.parse("t")
    with pytest.raises(SchemaError):
        CocyclePair.from_tables(mp, {}, {}, sigma_default=ZERO)
    with pytest.raises(SchemaError):
        CocyclePair.from_tables(mp, {}, {}, tau_default=ZERO)
    with pytest.raises(SchemaError):
        CocyclePair.from_tables(mp, {(g.key, t.key, t.key): ZERO}, {})
    with pytest.raises(SchemaError):
        CocyclePair.from_tables(mp, {}, {(g.key, g.key, t.key): ZERO})
    # rule-based cocycles are still checked on every lookup
    cp = CocyclePair.from_functions(mp, lambda a, f, fp: ZERO, lambda a, b, f: ONE)
    with pytest.raises(ValueError):
        cp.sigma(g, t, t)


def test_compatibility_failure_witnessed():
    # sigma(g; t, t) = zeta_4 with everything else trivial breaks compatibility
    mp = _trivial_mp()
    g = mp.G.parse("g")
    t = mp.F.parse("t")
    cp = CocyclePair.from_tables(mp, {(g.key, t.key, t.key): root_of_unity(4)}, {})
    reports = {r.check: r for r in cp.verify()}
    assert reports["compatibility"].failed
    assert reports["compatibility"].witness is not None


def test_tau_square_identity():
    cp0 = CocyclePair.trivial(_trivial_mp())
    t = cp0.mp.F.parse("t")
    assert cp0.tau_square_identity_check(t, t)
    cp = get_entry("Z2_Z2_tau").context().cp
    t = cp.mp.F.parse("t")
    one_f = cp.mp.F.one
    # 1 = 1 * (-1) * (-1)
    assert cp.tau_square_identity_check(t, t)
    assert cp.tau_square_identity_check(t, one_f)

    # artificially inconsistent tables break the identity
    mp = _trivial_mp()
    g = mp.G.parse("g")
    tt = mp.F.parse("t")
    bad = CocyclePair.from_tables(
        mp, {}, {(g.key, g.key, tt.key): root_of_unity(4)})
    assert not bad.tau_square_identity_check(tt, tt)
    assert not all_passed(bad.verify())


def test_tau_square_needs_order_two():
    cp = CocyclePair.trivial(_trivial_mp(n_g=3))
    t = cp.mp.F.parse("t")
    with pytest.raises(WrongGroup):
        cp.tau_square_identity_check(t, t)


def random_central_cocycle_pair(rng, n_f=4):
    """Random valid pair on the trivial-action Z2 x Z_n context.

    sigma(g; ., .) is the coboundary of a random root-of-unity function eta,
    tau(g, g; .) = chi / eta^2 for a random character chi; all four identity
    families hold by construction.
    """
    mp = _trivial_mp(2, n_f)
    G, F = mp.G, mp.F
    g = G.parse("g")
    eta = {F.one.key: ONE}
    for f in F.elements():
        if not f.is_identity():
            eta[f.key] = root_of_unity(rng.choice([1, 2, 3, 4, 6]),
                                       rng.randrange(0, 6))
    k = rng.randrange(0, n_f)
    chi = {f.key: root_of_unity(n_f, k * f.key) for f in F.elements()}
    sigma = {}
    tau = {}
    for f in F.elements():
        for fp in F.elements():
            v = eta[f.key] * eta[fp.key] / eta[F.mul(f, fp).key]
            if not v.is_one():
                sigma[(g.key, f.key, fp.key)] = v
        v = chi[f.key] / (eta[f.key] * eta[f.key])
        if not v.is_one():
            tau[(g.key, g.key, f.key)] = v
    return CocyclePair.from_tables(mp, sigma, tau)


def test_random_pairs_satisfy_all_identities():
    rng = random.Random(29)
    for _ in range(30):
        cp = random_central_cocycle_pair(rng)
        assert all_passed(cp.verify())
        F = cp.mp.F
        for f in F.elements():
            for fp in F.elements():
                assert cp.tau_square_identity_check(f, fp)
