import itertools
import random

import pytest

from hopfcqt.errors import (HopfCqtError, InfiniteGroup, InvalidHomomorphism, MixedGroups,
                            SchemaError)
from hopfcqt.groups import (DirectProductGroup, FiniteGroup, GroupHom, IntegerGroup,
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


def test_finite_descriptor_generators_default_only_when_absent():
    # the one-element group has no generators, and says so in its descriptor
    triv = FiniteGroup("triv", ["1"], [[0]], [])
    desc = {"family": "finite", "name": "triv", "names": ["1"], "table": [[0]],
            "generators": []}
    assert triv.descriptor() == desc
    assert group_from_descriptor(desc) == triv
    assert group_from_descriptor(desc).descriptor() == desc
    del desc["generators"]
    assert group_from_descriptor(desc).descriptor()["generators"] == []
    # with two elements, an absent generator list still defaults to the second name
    z2 = {"family": "finite", "names": ["e", "s"], "table": [[0, 1], [1, 0]]}
    assert group_from_descriptor(z2).descriptor()["generators"] == ["s"]


# K4 with its second and third elements both named "a"
REPEATED_NAME_K4 = {"family": "finite", "name": "K4", "names": ["1", "a", "a", "b"],
                    "table": [[i ^ j for j in range(4)] for i in range(4)],
                    "generators": ["a", "b"]}


def test_repeated_element_names_rejected():
    desc = REPEATED_NAME_K4
    with pytest.raises(ValueError, match="element name 'a' is repeated"):
        FiniteGroup(desc["name"], desc["names"], desc["table"], desc["generators"])
    with pytest.raises(SchemaError, match="element name 'a' is repeated"):
        group_from_descriptor(desc)


BAD_CONSTRUCTIONS = [
    (lambda: FiniteGroup("G", ["1", "a"], [[0, 1]], ["a"]), "table shape"),
    (lambda: FiniteGroup("G", REPEATED_NAME_K4["names"], REPEATED_NAME_K4["table"], ["b"]),
     "is repeated"),
    (lambda: FiniteGroup("G", ["1", "a", "b", "c"],
                         [[(i + j) % 4 for j in range(4)] for i in range(4)], ["b"]),
     "do not generate"),
    (lambda: FiniteGroup("G", ["1", "a"], [[1, 0], [0, 1]], ["a"]), "two-sided identity"),
    (lambda: FiniteGroup("G", ["1", "a"], [[0, 1], [1, 5]], ["a"]), "out of range"),
    (lambda: FiniteGroup("G", ["1", "a", "b"], [[0, 1, 2], [1, 0, 0], [2, 0, 0]], ["a"]),
     "not associative"),
    (lambda: FiniteGroup("G", ["1", "z"], [[0, 1], [1, 1]], ["z"]), "lacks a two-sided inverse"),
    (lambda: DirectProductGroup([cyclic_group(2)]), "two factors"),
    (lambda: GroupHom(IntegerGroup(), cyclic_group(2), {}), "generator 1 required"),
    (lambda: GroupHom(InfiniteDihedralGroup(), cyclic_group(2), {"x": "g"}), "x and y required"),
    (lambda: GroupHom(InfiniteDihedralGroup(), cyclic_group(3), {"x": "g", "y": "1"}),
     "relations"),
    (lambda: GroupHom(DirectProductGroup([cyclic_group(2), cyclic_group(2)]), cyclic_group(2),
                      {}), "unsupported homomorphism domain"),
    (lambda: GroupHom(cyclic_group(4), cyclic_group(2), {}), "missing image of generator"),
    (lambda: GroupHom(cyclic_group(4), cyclic_group(3), {"g": "g"}), "inconsistent"),
]


@pytest.mark.parametrize("build, message", BAD_CONSTRUCTIONS)
def test_group_constructors_raise_library_errors(build, message):
    # called directly, as a census of matched pairs would; ValueError stays a base
    # so group_from_descriptor still turns these into SchemaError
    with pytest.raises(HopfCqtError, match=message) as info:
        build()
    assert isinstance(info.value, ValueError)


def _extend_along_words(D, C, images):
    "a -> the product in C of the images along some word in D's generators for a."
    gens = D.generators()
    phi = {D.one: C.one}
    frontier = [D.one]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                if a * s not in phi:
                    phi[a * s] = phi[a] * images[s]
                    new.append(a * s)
        frontier = new
    return phi


def test_group_hom_from_random_generator_images():
    # generator images extend to a homomorphism exactly when the extension along
    # words passes the |D|^2 check; GroupHom must build it or raise
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group(),
              symmetric_group_s3(), quaternion_group_q8()]
    rng = random.Random(2024)
    outcomes = []
    for D, C in itertools.product(groups, groups):
        for _ in range(8):
            images = {s: rng.choice(C.elements()) for s in D.generators()}
            phi = _extend_along_words(D, C, images)
            is_hom = all(phi[a * b] == phi[a] * phi[b]
                         for a in D.elements() for b in D.elements())
            outcomes.append(is_hom)
            if is_hom:
                hom = GroupHom(D, C, images)
                assert all(hom(a) == phi[a] for a in D.elements())
            else:
                with pytest.raises(InvalidHomomorphism):
                    GroupHom(D, C, images)
    assert 50 < sum(outcomes) < len(outcomes) - 50, sum(outcomes)


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
    for G, text in ((symmetric_group_s3(), "(1 2)^x"), (cyclic_group(3), "g^"),
                    (InfiniteDihedralGroup(), "y^q"), (InfiniteDihedralGroup(), "z")):
        with pytest.raises(SchemaError):
            G.parse(text)


def test_element_words():
    # one reader for both families: names, a*b^k with an integer k, spaces around ^
    D = InfiniteDihedralGroup()
    assert D.parse("y ^2") == D.parse("y^2") == D.y * D.y
    assert D.parse(" y^-1 * x ") == D.y.inverse() * D.x
    S3 = symmetric_group_s3()
    assert S3.parse("(1 2) ^ 3") == S3.parse("(1 2)")
    assert S3.parse("(1 2)*(1 2 3)^-1") == S3.parse("(1 2)") * S3.parse("(1 3 2)")
    Q8 = quaternion_group_q8()
    assert Q8.parse("r^2*s") == Q8.parse("r^2") * Q8.parse("s")


@pytest.mark.parametrize("G", [symmetric_group_s3(), quaternion_group_q8(),
                               permutation_group([[1, 0, 2, 3], [1, 2, 3, 0]])],
                         ids=["S3", "Q8", "S4"])
def test_letter_decomposition_is_a_shortest_word(G):
    letters = G.letters()
    # word length of each element, by multiplying out every word of each length
    length = {}
    n = 0
    while len(length) < G.order():
        for word in itertools.product(letters, repeat=n):
            length.setdefault(G.product(word).key, n)
        n += 1
    for a in G.elements():
        word = G.letter_decomposition(a)
        assert all(u in letters for u in word)
        assert G.product(word) == a
        assert len(word) == length[a.key]
