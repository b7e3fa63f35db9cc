import itertools

import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.comodules import Comodule, TwistedCoalgebra, character, induce, trivial_comodule
from hopfcqt.cqt import (eps_tensor_eps, z2_r11_rform, z2_r11_solve, z2_remark_diagnostics,
                         z2_shape_classify)
from hopfcqt.errors import (ContextMismatch, DependentCharacters, HopfCqtError,
                            NonIntegralMultiplicity, NotInSpan, UnknownLabelKind, WrongGroup)
from hopfcqt import grothendieck
from hopfcqt.grothendieck import (Z2Label, Z2Simples, char_product, commutes, decompose,
                                  multiset_equal, z2_S_abelian_check)
from hopfcqt.hopf import HopfAlgebra, _same_context
from hopfcqt.reports import all_passed
from hopfcqt.scalars import (Matrix, Scalar, ZERO, _eliminate, bare, rational, root_of_unity,
                             solve_linear, sqrt_root_of_unity)


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


def test_decompose_refuses_characters_of_another_context():
    # a second HopfAlgebra on the same cocycle pair is another context, as in char_product
    H = get_entry("Z2_Z").context()
    H2 = HopfAlgebra(H.cp)
    U0 = Z2Simples(H).character(Z2Simples(H).label("U", "0"))
    other = Z2Simples(H2).character(Z2Simples(H2).label("U", "0"))
    with pytest.raises(ContextMismatch):
        char_product(U0, other)
    with pytest.raises(ContextMismatch):
        decompose(char_product(U0, U0), [other])
    with pytest.raises(ContextMismatch):
        decompose(char_product(U0, U0), [U0, other])


def test_decompose_permutes_with_its_basis():
    # the rows follow first-seen key order, so the basis order changes the system
    # but not its unique solution, and not the ranks that pick the error
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    W1, W2, U0, V0 = (simples.character(simples.label(k, f))
                      for k, f in (("W", "1"), ("W", "2"), ("U", "0"), ("V", "0")))
    x = char_product(W1, W1).scaled(2) + U0.element + W1.element.scaled(5)
    basis, mults = [W2, U0, V0, W1], [2, 3, 2, 5]
    assert decompose(x, basis) == mults
    for perm in itertools.permutations(range(4)):
        assert decompose(x, [basis[i] for i in perm]) == [mults[i] for i in perm], perm
    for error, y, chars in ((NotInSpan, H.basis("1", "3"), [U0, V0, W2]),
                            (DependentCharacters, U0, [U0, V0, U0]),
                            (NonIntegralMultiplicity, H.basis("g", "0"), [U0, V0, W1])):
        for perm in itertools.permutations(chars):
            with pytest.raises(error):
                decompose(y, list(perm))


def _scalar_path_decompose(x, basis):
    "decompose as it ran on a Matrix and solve_linear's LinearSolution: the oracle."
    x = grothendieck._as_element(x)
    basis = [grothendieck._as_element(c) for c in basis]
    if not basis:
        raise NotInSpan("empty basis")
    for c in basis:
        _same_context(x, c)
    keys = list(dict.fromkeys(k for e in [x] + basis for k in e.terms))
    if not keys:
        raise DependentCharacters("every given character is zero")
    A = Matrix._trusted([[c.terms.get(k, ZERO) for c in basis] for k in keys])
    b = Matrix._trusted([[x.terms.get(k, ZERO)] for k in keys])
    sol = solve_linear(A, b)
    if sol.status == "inconsistent":
        raise NotInSpan("element is not a combination of the given characters")
    if sol.status != "unique":
        raise DependentCharacters("characters are not linearly independent")
    mults = []
    for v in sol.particular:
        if not v.is_rational():
            raise NonIntegralMultiplicity("non-rational multiplicity %r" % v)
        q = v.as_rational()
        if q.denominator != 1 or q < 0:
            raise NonIntegralMultiplicity("multiplicity %s is not a nonnegative integer" % q)
        mults.append(int(q))
    return mults


def _outcome(decomposer, x, basis):
    "The multiplicities, or the error class and message."
    try:
        return decomposer(x, basis)
    except Exception as err:
        return type(err), str(err)


def _assert_matches_scalar_path(x, basis):
    got = _outcome(decompose, x, basis)
    assert got == _outcome(_scalar_path_decompose, x, basis)
    return got


# the label entries of the characters workload, with their label windows
_LABEL_ENTRIES = {"Z2_Z": 8, "Z2_Z2_tau": 1, "Z2_Dinf": 3, "Z2_Z2xZ_central": 3}


def test_decompose_matches_the_scalar_path_on_every_label_system(monkeypatch):
    systems = []

    def recorded(x, basis):
        systems.append((x, list(basis)))
        return decompose(x, basis)

    monkeypatch.setattr(grothendieck, "decompose", recorded)
    counts = {}
    for eid, bound in _LABEL_ENTRIES.items():
        simples = Z2Simples(get_entry(eid).context())
        labels = simples.labels(bound)
        before = len(systems)
        for l1 in labels:
            for l2 in labels:
                simples.tensor_by_decomposition(l1, l2)
        counts[eid] = len(systems) - before
    assert counts == {"Z2_Z": 100, "Z2_Z2_tau": 16, "Z2_Dinf": 576, "Z2_Z2xZ_central": 100}
    for x, basis in systems:
        assert isinstance(_assert_matches_scalar_path(x, basis), list)


def test_decompose_errors_match_the_scalar_path():
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    W1, W2, U0, V0 = (simples.character(simples.label(k, f))
                      for k, f in (("W", "1"), ("W", "2"), ("U", "0"), ("V", "0")))
    zero = H.basis("1", "0").scaled(0)
    cases = [(H.basis("g", "0"), [U0, V0], NonIntegralMultiplicity),
             (H.basis("1", "3"), [U0, V0], NotInSpan),
             (U0, [U0, V0, U0], DependentCharacters),
             (zero, [zero], DependentCharacters),
             (U0, [], NotInSpan),
             (U0.element.scaled(-1), [U0], NonIntegralMultiplicity)]
    cases += [(y, list(perm), error)
              for y, chars, error in ((H.basis("1", "3"), [U0, V0, W2], NotInSpan),
                                      (U0, [U0, V0, U0], DependentCharacters),
                                      (H.basis("g", "0"), [U0, V0, W1],
                                       NonIntegralMultiplicity))
              for perm in itertools.permutations(chars)]
    for x, basis, error in cases:
        assert _assert_matches_scalar_path(x, basis)[0] is error


def test_decompose_reads_a_rational_scalar_multiplicity():
    # the cyclotomic pivot leaves the multiplicity 2 as a Scalar of order 1, which
    # is rational although its bare value is not an int or Fraction
    H = get_entry("Z2_Z").context()
    z = root_of_unity(4)
    c = H.element([("g", "0", z), ("1", "0", 1)])
    x = H.element([("g", "0", z * 2), ("1", "0", 2)])
    aug = [[bare(c.terms[k]), bare(x.terms[k])] for k in x.terms]
    assert _eliminate(aug, 1) == [0]
    assert aug[0][1].__class__ is Scalar and aug[0][1].is_rational()
    assert _assert_matches_scalar_path(x, [c]) == [2]
    assert _assert_matches_scalar_path(c.scaled(z), [c]) == (
        NonIntegralMultiplicity, "non-rational multiplicity %r" % z)
    assert _assert_matches_scalar_path(c.scaled(rational(1, 2)), [c]) == (
        NonIntegralMultiplicity, "multiplicity 1/2 is not a nonnegative integer")


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
        right=lambda g, f: g)
    H = HopfAlgebra(CocyclePair.trivial(mp), name="Z2_K4_swap")
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


def test_module_level_rule_wrapper():
    # the rule on a fresh context, as the removed module-level wrapper called it
    H = get_entry("Z2_Z").context()
    simples = Z2Simples(H)
    out = simples.tensor_rule(simples.label("U", "0"), simples.label("W", "2"))
    assert [x.kind for x in out] == ["W"]


_Z2_ONLY = {
    "Z2Simples": Z2Simples,
    "z2_S_abelian_check": lambda H: z2_S_abelian_check(H.mp),
    "z2_r11_rform": lambda H: z2_r11_rform(H, z2_r11_solve()[0]),
    "z2_remark_diagnostics": lambda H: z2_remark_diagnostics(eps_tensor_eps(H, window=1)),
    "z2_shape_classify": lambda H: z2_shape_classify(eps_tensor_eps(H, window=1)),
    "tau_square_identity_check": lambda H: H.cp.tau_square_identity_check(H.F.one, H.F.one),
}


@pytest.mark.parametrize("call", _Z2_ONLY.values(), ids=list(_Z2_ONLY))
def test_every_z2_operation_refuses_other_orders(call):
    with pytest.raises(WrongGroup, match=r"^\|G\| = 2 required, got order 3$"):
        call(get_entry("Z3_Z").context())


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


@pytest.mark.parametrize("eid, bound", [("Z2_Z", 4), ("Z2_Dinf", 3), ("Z2_Z2_tau", 2),
                                        ("Z2_Z2xZ_central", 2), ("S3_Z2", 2)])
def test_closed_characters_match_the_generic_formula(eid, bound):
    # each label's comodule from the definitions: over a fixed f the one-dimensional
    # comodule of the stabilizer coalgebra with a^g = +-sqrt(tau(g, g; f)) (U, V);
    # over a moved f the trivial comodule of the coalgebra at f (W)
    H = get_entry(eid).context()
    simples = Z2Simples(H)
    g = H.G.elements()[1]
    for lab in simples.labels(bound):
        C = TwistedCoalgebra(H, lab.f)
        if lab.kind == "W":
            V = trivial_comodule(C)
        else:
            s = sqrt_root_of_unity(H.cp.tau(g, g, lab.f))
            a_g = s if lab.kind == "U" else -s
            V = Comodule(C, 1, {H.G.one: Matrix([[1]]), g: Matrix([[a_g]])})
            assert all_passed(V.verify()), lab
        closed, generic, induced = simples.character(lab), character(V), induce(V)
        assert closed.element == generic.element == induced.character_by_trace(), lab
        assert closed.dim == generic.dim == induced.dim, lab
        assert closed.base_point == generic.base_point == induced.base_point, lab
