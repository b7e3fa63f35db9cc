import random

import pytest

from hopfcqt.errors import InfiniteGroup, MixedGroups, SchemaError
from hopfcqt.groups import (DirectProductGroup, GroupHom, IntegerGroup,
                            InfiniteDihedralGroup, cyclic_group,
                            group_from_descriptor, klein_four_group,
                            permutation_group, quaternion_group_q8,
                            symmetric_group_s3)


def test_enumerate_builtins():
    assert [str(e) for e in cyclic_group(2).elements()] == ["1", "g"]
    q8 = quaternion_group_q8()
    assert len(q8.elements()) == 8
    s3 = symmetric_group_s3()
    assert [str(e) for e in s3.elements()] == \
        ["()", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 3 2)"]


def test_finite_group_axioms_latin_square():
    for G in (cyclic_group(4), klein_four_group(), symmetric_group_s3(),
              quaternion_group_q8()):
        n = G.order()
        for i in range(n):
            assert sorted(G.table[i]) == list(range(n))
            assert sorted(G.table[r][i] for r in range(n)) == list(range(n))


def test_q8_relations():
    q8 = quaternion_group_q8()
    r, s = q8.parse("r"), q8.parse("s")
    assert r ** 4 == q8.one
    assert r * r == s * s
    assert s * r == r.inverse() * s


def test_integers():
    Z = IntegerGroup()
    assert Z.parse("3").inverse() == Z.parse("-3")
    assert Z.parse("2") * Z.parse("-5") == Z.parse("-3")
    with pytest.raises(InfiniteGroup):
        Z.elements()
    assert [e.key for e in Z.elements_up_to_length(2)] == [-2, -1, 0, 1, 2]


def _dinf_affine(word):
    # oracle: x acts as i |-> -i, y as i |-> i + 1; compose right-to-left
    eps, c = 1, 0
    for letter in reversed(word):
        if letter == "x":
            eps, c = -eps, -c
        elif letter == "y":
            c += 1
        else:  # y^-1
            c -= 1
    return eps, c


def _dinf_key_affine(key):
    k, e = key
    # y^k x^e as a map: first x^e, then y^k
    return (1 if e == 0 else -1, k)


def test_dinf_normal_form_matches_rewriting_oracle():
    D = InfiniteDihedralGroup()
    table = {"x": D.x, "y": D.y, "y^-1": D.y.inverse()}
    rng = random.Random(17)
    for _ in range(300):
        word = [rng.choice(["x", "y", "y^-1"]) for _ in range(rng.randrange(0, 9))]
        prod = D.one
        for letter in word:
            prod = prod * table[letter]
        assert _dinf_key_affine(prod.key) == _dinf_affine(word)


def test_dinf_examples():
    D = InfiniteDihedralGroup()
    x, y = D.x, D.y
    assert x * y == D.parse("y^-1*x")      # xy in normal form
    assert (x * y) * x == y.inverse()      # from x y x = y^-1
    assert x * x == D.one
    assert D.element_length(D.parse("y^-2*x")) == 3
    assert len(D.elements_up_to_length(4)) == 16


def test_mixed_groups_raise():
    Z2 = cyclic_group(2)
    Z3 = cyclic_group(3)
    with pytest.raises(MixedGroups):
        Z2.parse("g") * Z3.parse("g")
    with pytest.raises(MixedGroups):
        Z3.inv(Z2.parse("g"))
    with pytest.raises(MixedGroups):
        Z3.inv(IntegerGroup().parse("1"))
    with pytest.raises(MixedGroups):
        Z3.inv("g")
    # an element of an equal but distinct instance is still accepted
    other = cyclic_group(3)
    assert other is not Z3
    assert Z3.mul(other.parse("g"), Z3.parse("g")) == Z3.parse("g^2")
    assert Z3.inv(other.parse("g")) == other.parse("g^2")


def test_finite_group_elements_are_interned():
    for G in (cyclic_group(4), klein_four_group(), symmetric_group_s3(),
              quaternion_group_q8()):
        elems = G.elements()
        assert elems is not G.elements()  # callers get their own list
        assert all(a is b for a, b in zip(elems, G.elements()))
        assert G.one is elems[0]
        for a in elems:
            assert G.inv(a) is elems[G.inv(a).key]
            assert G.parse(str(a)) is a
            for b in elems:
                assert G.mul(a, b) is elems[G.mul(a, b).key]
        assert all(g is elems[g.key] for g in G.generators())


def test_direct_product():
    P = DirectProductGroup([cyclic_group(2, gen_name="a"), IntegerGroup()])
    e = P.parse("(a, -2)")
    assert e.inverse() == P.parse("(a, 2)")
    assert P.element_length(e) == 2
    assert len(P.generators()) == 2
    window = P.elements_up_to_length(1)
    assert len(window) == 6
    assert P.is_abelian()
    assert not P.is_finite


def test_hom_examples():
    Q8 = quaternion_group_q8()
    K4 = klein_four_group()
    pi = GroupHom(Q8, K4, {"r": "a", "s": "b"})
    assert pi(Q8.parse("r^3")) == K4.parse("a")
    assert pi(Q8.one) == K4.one
    Z = IntegerGroup()
    parity = GroupHom(Z, cyclic_group(2), {Z.parse("1"): "g"})
    assert parity(Z.parse("5")) == cyclic_group(2).parse("g")
    assert parity(Z.parse("-4")).is_identity()


def test_hom_rejects_non_homomorphisms():
    Z4 = cyclic_group(4)
    Z3 = cyclic_group(3)
    with pytest.raises(ValueError):
        GroupHom(Z4, Z3, {"g": "g"})  # g^4 = 1 would force g^4 = g != 1 in Z3


def test_hom_dinf_relations_checked():
    D = InfiniteDihedralGroup()
    Z2 = cyclic_group(2)
    phi = GroupHom(D, Z2, {"x": "g", "y": "1"})
    assert phi(D.parse("y^5*x")) == Z2.parse("g")
    with pytest.raises(ValueError):
        GroupHom(D, cyclic_group(3), {"x": "g", "y": "1"})  # x^2 = 1 fails


def test_descriptors_round_trip():
    for G in (cyclic_group(3), klein_four_group(), symmetric_group_s3(),
              quaternion_group_q8(), IntegerGroup(), InfiniteDihedralGroup(),
              DirectProductGroup([cyclic_group(2, gen_name="a"), IntegerGroup()])):
        G2 = group_from_descriptor(G.descriptor())
        assert G2 == G


def test_permutation_group_descriptor():
    G = permutation_group([[1, 0, 2], [1, 2, 0]])
    assert G.order() == 6
    G2 = group_from_descriptor(G.descriptor())
    assert G2 == G


def test_parse_errors():
    with pytest.raises(SchemaError):
        cyclic_group(3).parse("h")
    with pytest.raises(SchemaError):
        IntegerGroup().parse("x")
