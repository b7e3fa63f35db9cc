import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.errors import (DependentCharacters, HopfCqtError, NonIntegralMultiplicity,
                            NotInSpan, UnknownLabelKind, WrongGroup)
from hopfcqt.grothendieck import (Z2Label, Z2Simples, char_product, commutes, decompose,
                                  multiset_equal, z2_S_abelian_check,
                                  z2_tensor_rule)
from hopfcqt.scalars import rational


def test_char_product_uu_is_u_of_product():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    U0 = simples.character(simples.label("U", "0"))
    V0 = simples.character(simples.label("V", "0"))
    assert char_product(U0, U0) == U0.element
    assert char_product(V0, V0) == U0.element
    assert char_product(U0, V0) == V0.element


def test_char_product_w_square_expansion():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    W1 = simples.character(simples.label("W", "1"))
    prod = char_product(W1, W1)
    expect = (H.basis("1", "2") + H.basis("1", "0").scaled(2) + H.basis("1", "-2"))
    assert prod == expect


def test_char_product_with_unit():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    unit = simples.character(simples.label("U", "0"))  # the trivial character
    assert unit.element == H.unit()
    for lab in simples.labels(2):
        chi = simples.character(lab)
        assert char_product(chi, unit) == chi.element


def test_decompose_examples():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    W1 = simples.character(simples.label("W", "1"))
    W2 = simples.character(simples.label("W", "2"))
    U0 = simples.character(simples.label("U", "0"))
    V0 = simples.character(simples.label("V", "0"))
    prod = char_product(W1, W1)
    assert decompose(prod, [W2, U0, V0]) == [1, 1, 1]
    assert decompose(U0, [U0]) == [1]
    with pytest.raises(NonIntegralMultiplicity):
        decompose(H.basis("g", "0"), [U0, V0])
    with pytest.raises(NotInSpan):
        decompose(H.basis("1", "3"), [U0, V0])
    with pytest.raises(DependentCharacters) as err:
        decompose(U0, [U0, V0, U0])
    assert isinstance(err.value, ValueError)
    zero = H.basis("1", "0").scaled(0)
    with pytest.raises(DependentCharacters):
        decompose(zero, [zero])


def test_commutes_examples():
    H = get_entry("Z2_Dinf").context()
    simples = Z2Simples(H)
    Ux = simples.character(simples.label("U", "x"))
    Uy = simples.character(simples.label("U", "y"))
    ok, key = commutes(Ux, Uy)
    assert not ok
    assert key == (H.G.one, H.F.parse("x*y"))
    ok, _ = commutes(Ux, Ux)
    assert ok
    H3 = get_entry("S3_Z2").context()
    s3 = Z2Simples(H3)
    chars = [s3.character(l) for l in s3.labels()]
    for i, c1 in enumerate(chars):
        for c2 in chars[i + 1:]:
            ok, _ = commutes(c1, c2)
            assert ok


def test_z2_label_constraints():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    with pytest.raises(HopfCqtError):
        simples.label("U", "3")  # moved base point cannot carry U
    with pytest.raises(HopfCqtError):
        simples.label("W", "0")  # fixed base point cannot carry W
    with pytest.raises(WrongGroup):
        Z2Simples(get_entry("Z3_Z").context())
    for make in (lambda: Z2Label("X", H.F.parse("0")), lambda: simples.label("X", "1")):
        with pytest.raises(UnknownLabelKind, match="kind must be U, V or W, got 'X'") as err:
            make()
        assert isinstance(err.value, ValueError)


def test_z2_tensor_rule_examples():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    U0 = simples.label("U", "0")
    V0 = simples.label("V", "0")
    W1 = simples.label("W", "1")
    assert simples.tensor_rule(U0, V0) == [V0]
    out = simples.tensor_rule(W1, W1)
    assert multiset_equal(out, [simples.label("W", "2"), U0, V0])
    # W_(f') (x) U_f = W_(f'f)
    assert simples.tensor_rule(W1, U0) == [W1]
    assert simples.tensor_rule(U0, W1) == [W1]


def test_z2_tensor_rule_mixed_cases_s3():
    H = get_entry("S3_Z2").context()
    simples = Z2Simples(H)
    W13 = simples.label("W", "(1 3)")
    W123 = simples.label("W", "(1 2 3)")
    # (1 3)(1 3) = () is fixed while (1 3)(2 3) = (1 3 2) is moved
    assert sorted(str(x) for x in simples.tensor_rule(W13, W13)) == \
        ["U[()]", "V[()]", "W[(1 2 3)]"]
    # (1 3)(1 2 3) = (1 2) is fixed while (1 3)(1 3 2) = (2 3) is moved
    assert sorted(str(x) for x in simples.tensor_rule(W13, W123)) == \
        ["U[(1 2)]", "V[(1 2)]", "W[(1 3)]"]


def test_z2_tensor_rule_four_way_split():
    # Z2 swapping the two generators of K4: S = {1, a*b}, T = {a, b}, and
    # W_a (x) W_a has both parts (a*a = 1 and a*(g|>a) = a*b) in the fixed part
    from hopfcqt.cocycles import CocyclePair
    from hopfcqt.groups import cyclic_group, klein_four_group
    from hopfcqt.hopf import HopfAlgebra
    from hopfcqt.matched_pair import MatchedPair

    G = cyclic_group(2)
    F = klein_four_group()
    swap = {F.parse(x).key: F.parse(y)
            for x, y in [("1", "1"), ("a", "b"), ("b", "a"), ("a*b", "a*b")]}
    mp = MatchedPair.from_functions(
        G, F, left=lambda g, f: f if g.is_identity() else swap[f.key],
        right=lambda g, f: g, name="Z2_K4_swap")
    H = HopfAlgebra(CocyclePair.trivial(mp))
    simples = Z2Simples(H)
    assert sorted(str(l) for l in simples.labels()) == \
        ["U[1]", "U[a*b]", "V[1]", "V[a*b]", "W[a]"]
    Wa = simples.label("W", "a")
    out = simples.tensor_rule(Wa, Wa)
    assert sorted(x.kind for x in out) == ["U", "U", "V", "V"]
    assert sorted(str(x.f) for x in out) == ["1", "1", "a*b", "a*b"]
    assert multiset_equal(out, simples.tensor_by_decomposition(Wa, Wa))


def test_rule_matches_pipeline_on_windows():
    for eid, bound in (("Z2_Z", 2), ("S3_Z2", 2), ("Z2_Z2_tau", 2), ("Z2_Dinf", 1)):
        H = get_entry(eid).context()
        simples = Z2Simples(H)
        labels = simples.labels(bound)
        for l1 in labels:
            for l2 in labels:
                rule = simples.tensor_rule(l1, l2)
                pipe = simples.tensor_by_decomposition(l1, l2)
                assert multiset_equal(rule, pipe), (eid, l1, l2)


def test_dimension_bookkeeping():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    labels = simples.labels(3)
    dims = {(l.kind, l.f.key): simples.character(l).dim for l in labels}
    for l1 in labels:
        for l2 in labels:
            out = simples.tensor_rule(l1, l2)
            total = sum(simples.character(x).dim for x in out)
            assert total == simples.character(l1).dim * simples.character(l2).dim
    del dims


def test_branch_sign_case():
    # with tau(g,g;t) = -1 the square of a twisted simple lands on the V label
    H = get_entry("Z2_Z2_tau").context()
    simples = Z2Simples(H)
    Ut = simples.label("U", "t")
    out = simples.tensor_rule(Ut, Ut)
    assert [repr(x) for x in out] == ["V[1]"]
    assert multiset_equal(out, simples.tensor_by_decomposition(Ut, Ut))


def test_s_abelian_check():
    ok, _ = z2_S_abelian_check(get_entry("Z2_Z").context().mp)
    assert ok
    mp = get_entry("Z2_Dinf").context().mp
    ok, witness = z2_S_abelian_check(mp, 2)
    # the first pair of S x S, a-major, with ab != ba, S = {f : g |> f = f} on the window
    g, F = mp.G.elements()[1], mp.F
    S = [f for f in mp.window(2) if mp.act_left(g, f) == f]
    pairs = [(a, b) for a in S for b in S if F.mul(a, b) != F.mul(b, a)]
    assert not ok and witness == pairs[0] == (F.parse("y^-2"), F.parse("y^-1*x"))
    ok, _ = z2_S_abelian_check(get_entry("Z2_Z2_tau").context().mp)
    assert ok
    with pytest.raises(WrongGroup):
        z2_S_abelian_check(get_entry("Z3_Z").context().mp)


def test_module_level_rule_wrapper():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    out = z2_tensor_rule(H, simples.label("U", "0"), simples.label("W", "2"))
    assert [x.kind for x in out] == ["W"]


@pytest.mark.parametrize("eid, bound", [("Z2_Dinf", 2), ("Z2_Z", 2), ("Z2_Z2_tau", 1)])
def test_memoized_simples_match_fresh(eid, bound):
    # one Z2Simples answers every call from its memos; each fresh one computes anew
    H = get_entry(eid).context()
    simples = Z2Simples(H)
    labels = simples.labels(bound)
    for lab in labels:
        chi, fresh = simples.character(lab), Z2Simples(H).character(lab)
        assert simples.character(lab) is chi
        assert (chi, chi.dim, chi.label, chi.base_point) == \
            (fresh, fresh.dim, fresh.label, fresh.base_point)
        assert simples.sqrt_tau(lab.f) == Z2Simples(H).sqrt_tau(lab.f)
    for l1 in labels:
        for l2 in labels:
            for name in ("tensor_rule", "tensor_by_decomposition"):
                memoized = getattr(simples, name)(l1, l2)
                assert memoized == getattr(Z2Simples(H), name)(l1, l2), (name, l1, l2)
