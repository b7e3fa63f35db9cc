"""`InducedComodule.verify` on sparse row views against the dense reference.

Both must give identical reports (status, witness and `checked`) on every
induced comodule of the catalog's one-dimensional stabilizer simples, on
two-dimensional sources (direct sums, plain and conjugated, whose products
cancel inside a sum), on corrupted blocks, and on sources over tau != 1:
Z2_Z2_tau, K4_Z2_tau (tau(a, b; t) = -1 != tau(b, a; t)) and Z4_Z8_tau, whose
moved point makes the tau(z_x^-1, g_x^-1; f)^-1 factor of `induce` zeta_4 and
-1, and whose sweep scales by tau in {-1, zeta_4}.

`verify` reads tau and the actions from the context's shared table, so no
tau(g, h; u) reaches `CocyclePair.tau` twice from it on one context, and a
block keyed by an element of another group raises MixedGroups.
"""

import pytest

from induced_reference import dense_verify
from test_battery_tables import k4_z2_asymmetric_tau

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.cocycles import CocyclePair
from hopfcqt.comodules import (Comodule, TwistedCoalgebra, character, enumerate_onedim,
                               induce, trivial_comodule)
from hopfcqt.errors import (DimensionMismatch, MixedGroups, NonAbelianStabilizer,
                            NotARootOfUnity)
from hopfcqt.groups import cyclic_group
from hopfcqt.hopf import HopfAlgebra
from hopfcqt.matched_pair import MatchedPair
from hopfcqt.reports import all_passed
from hopfcqt.scalars import Matrix, ONE, ZERO, rational, root_of_unity


def _json(reports):
    return [r.to_json() for r in reports]


def _assert_same_reports(W):
    sparse = _json(W.verify())
    assert sparse == _json(dense_verify(W))
    return sparse


def _stabilizer_simples(window):
    for eid in entry_ids():
        H = get_entry(eid).context()
        for f in H.mp.window(window):
            try:
                simples = enumerate_onedim(TwistedCoalgebra(H, f))
            except (NonAbelianStabilizer, NotARootOfUnity):
                continue
            for V in simples:
                yield eid, f, V


def test_catalog_simples_match_dense_reference():
    seen = 0
    for eid, f, V in _stabilizer_simples(3):
        W = induce(V)
        _assert_same_reports(W)
        assert all_passed(W.verify()), (eid, f)
        seen += 1
    assert seen == 142


# upper unitriangular, so conjugating a diagonal block leaves an off-diagonal
# entry whose products cancel to zero inside a sum
_P = Matrix([[1, 1], [0, 1]])
_P_INV = Matrix([[1, -1], [0, 1]])


def _direct_sum(V1, V2, conjugate=False):
    "V1 (+) V2 as one two-dimensional comodule, optionally conjugated by _P."
    C = V1.coalgebra
    blocks = {}
    for g in C.stabilizer:
        A = Matrix([[V1.matrix(g)[0, 0], ZERO], [ZERO, V2.matrix(g)[0, 0]]])
        blocks[g] = _P * A * _P_INV if conjugate else A
    return Comodule(C, 2, blocks)


def _sum_cases():
    "(name, V1, V2): a moved point (|T_f| = 2) and two fixed points, one with tau = -1."
    H = get_entry("Z2_Z").context()
    triv = trivial_comodule(TwistedCoalgebra(H, "1"))
    yield "Z2_Z@1", triv, triv
    U0, V0 = enumerate_onedim(TwistedCoalgebra(H, "0"))
    yield "Z2_Z@0", U0, V0
    Ut, Vt = enumerate_onedim(TwistedCoalgebra(get_entry("Z2_Z2_tau").context(), "t"))
    yield "Z2_Z2_tau@t", Ut, Vt


@pytest.mark.parametrize("conjugate", [False, True], ids=["diagonal", "conjugated"])
def test_two_dimensional_sources_match_dense_reference(conjugate):
    for name, V1, V2 in _sum_cases():
        V = _direct_sum(V1, V2, conjugate)
        assert all_passed(V.verify()), name
        W = induce(V)
        assert W.dim == 2 * len(V.coalgebra.transversal)
        _assert_same_reports(W)
        assert all_passed(W.verify()), name
        chi = induce(V1).character_by_trace() + induce(V2).character_by_trace()
        assert W.character_by_trace() == chi, name
        assert character(V).element == chi, name


def _corruptions():
    "(name, W) with one block of a valid induced comodule damaged."
    H = get_entry("Z2_Z").context()
    for source in ("Z2_Z@1", "Z2_Z2_tau@t"):
        V1, V2 = next((v1, v2) for n, v1, v2 in _sum_cases() if n == source)
        make = lambda: induce(_direct_sum(V1, V2, conjugate=True))
        W = make()
        key = list(W.blocks)[-1]
        W.blocks[key] = W.blocks[key] * rational(2)
        yield source + "/scaled", W
        W = make()
        key = list(W.blocks)[-1]
        rows = [list(row) for row in W.blocks[key].entries]
        r, c = next((r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if not v)
        rows[r][c] = ONE
        W.blocks[key] = Matrix(rows)
        yield source + "/entry-added", W
        W = make()
        del W.blocks[list(W.blocks)[-1]]
        yield source + "/block-deleted", W
    # a block at a key off the support, whose F part is not where the axiom puts it
    W = induce(enumerate_onedim(TwistedCoalgebra(H, "1"))[0])
    (g, u), M = next(iter(W.blocks.items()))
    W.blocks[(g, H.F.parse("5"))] = M
    yield "Z2_Z@1/block-added", W


def test_corrupted_blocks_match_dense_reference():
    for name, W in _corruptions():
        reports = _assert_same_reports(W)
        assert any(r["status"] == "fail" for r in reports), name


def test_misshapen_block_raises_like_dense_reference():
    H = get_entry("Z2_Z").context()
    for verify in (dense_verify, lambda W: W.verify()):
        W = induce(enumerate_onedim(TwistedCoalgebra(H, "1"))[0])
        W.blocks[list(W.blocks)[-1]] = Matrix([[ONE]])
        with pytest.raises(DimensionMismatch):
            verify(W)


def test_block_of_another_group_raises_mixed_groups():
    # a block re-keyed under Z3_Z's G element of the same key was read as its Z2 twin,
    # so verify passed where the dense reference fails
    H = get_entry("Z2_Z").context()
    G3 = get_entry("Z3_Z").context().G
    V = enumerate_onedim(TwistedCoalgebra(H, "1"))[0]
    for k in range(len(induce(V).blocks)):
        W = induce(V)
        g, u = list(W.blocks)[k]
        W.blocks[G3._element(g.key), u] = W.blocks.pop((g, u))
        dense = _json(dense_verify(W))
        assert dense[1]["status"] == "fail", k
        if k == 0:
            assert dense[1]["checked"] == 4
            assert dense[1]["witness"] == ["(1, 1)", "(g, -1)"]
        with pytest.raises(MixedGroups):
            W.verify()


def test_block_with_an_f_part_of_another_group_raises_mixed_groups():
    H = get_entry("Z2_Z").context()
    W = induce(enumerate_onedim(TwistedCoalgebra(H, "1"))[0])
    g, u = next(iter(W.blocks))
    W.blocks[g, get_entry("Z2_Dinf").context().F.parse("x")] = W.blocks.pop((g, u))
    with pytest.raises(MixedGroups):
        W.verify()


def z4_z8_tau():
    """Z4 = <r> acting on Z8 = <t> by r |> t = t^5 (<| trivial), sigma = 1 and
    tau(r^a, r^b; t^n) = zeta_4^(n c(a, b)), c(a, b) = [a + b >= 4] the carry
    cocycle of Z4.  For each t^n, tau is a 2-cocycle in (g, g'); for each
    (g, g'), a character of Z8 fixed by the action (zeta_4^5 = zeta_4).  So it
    is a cocycle pair (the test checks it).  t is moved: G_t = {1, r^2},
    T_t = {1, r}, and tau(r^3, r^2; t) = zeta_4 is a factor of the induced
    coaction.  t^2 is fixed, with tau(r^2, r^2; t^2) = -1."""
    G, F = cyclic_group(4, "r"), cyclic_group(8, "t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: F._element(f.key * 5 ** g.key % 8),
                                    right=lambda g, f: g)
    tau = lambda g, gp, f: root_of_unity(4, f.key * (g.key + gp.key >= 4))
    return HopfAlgebra(CocyclePair(mp, lambda g, f, fp: ONE, tau), name="Z4_Z8_tau")


def _twisted_sources():
    """(name, V) over tau != 1: one- and two-dimensional sources at fixed and
    moved points, the two-dimensional ones conjugated by _P."""
    H = get_entry("Z2_Z2_tau").context()
    Ut, Vt = enumerate_onedim(TwistedCoalgebra(H, "t"))
    yield "Z2_Z2_tau@t", _direct_sum(Ut, Vt, conjugate=True)
    H = k4_z2_asymmetric_tau()
    G, t = H.G, H.F.elements()[1]
    a, b = G.generators()
    X, Z = Matrix([[0, 1], [1, 0]]), Matrix([[1, 0], [0, -1]])
    yield "K4_Z2_tau@t", Comodule(TwistedCoalgebra(H, t), 2, {
        G.one: Matrix.identity(2), a: X, b: Z, G.mul(a, b): X * Z * -1})
    for V in enumerate_onedim(TwistedCoalgebra(H, H.F.one)):
        yield "K4_Z2_tau@1", V
    H = z4_z8_tau()
    for f in H.F.elements():
        simples = enumerate_onedim(TwistedCoalgebra(H, f))
        for V in simples:
            yield "Z4_Z8_tau@%r" % f, V
        yield "Z4_Z8_tau@%r+" % f, _direct_sum(simples[0], simples[-1], conjugate=True)


def test_z4_z8_tau_is_a_cocycle_pair():
    H = z4_z8_tau()
    assert all_passed(H.mp.verify()) and all_passed(H.cp.verify())
    C = TwistedCoalgebra(H, "t")
    r2, r3 = H.G.parse("r^2"), H.G.parse("r^3")
    assert [repr(g) for g in C.transversal] == ["1", "r"]
    assert (C.tau(r3, r2), TwistedCoalgebra(H, "t^2").tau(r2, r2)) == (root_of_unity(4), -ONE)


def test_twisted_sources_match_dense_reference():
    seen = 0
    for name, V in _twisted_sources():
        assert all_passed(V.verify()), name
        W = induce(V)
        assert W.dim == V.dim * len(V.coalgebra.transversal), name
        _assert_same_reports(W)
        assert all_passed(W.verify()), name
        assert W.character_by_trace() == character(V).element, name
        seen += 1
    # Z2_Z2_tau, K4_Z2_tau at t and at 1, Z4_Z8_tau at its 4 fixed and 4 moved points
    assert seen == 1 + 1 + 4 + 4 * (4 + 1) + 4 * (2 + 1)


def z3_z7():
    """Z3 = <r> acting on Z7 = <t> by r |> t = t^2 (<| trivial), trivial cocycles.
    Each moved orbit has three points, so z |> f != z^-1 |> f for z = r: the
    one catalog-free case where `induce` places a block by which of the two it reads."""
    G, F = cyclic_group(3, "r"), cyclic_group(7, "t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: F._element(f.key * 2 ** g.key % 7),
                                    right=lambda g, f: g)
    return HopfAlgebra(CocyclePair.trivial(mp), name="Z3_Z7")


def test_three_point_orbits_match_dense_reference():
    H = z3_z7()
    assert all_passed(H.mp.verify()) and all_passed(H.cp.verify())
    r, t = H.G.parse("r"), H.F.parse("t")
    assert H.mp.act_left(r, t) != H.mp.act_left(H.G.inv(r), t)
    seen = 0
    for f in H.F.elements():
        for V in enumerate_onedim(TwistedCoalgebra(H, f)):
            W = induce(V)
            _assert_same_reports(W)
            assert all_passed(W.verify()), f
            assert W.character_by_trace() == character(V).element, f
            seen += 1
    assert seen == 3 + 6  # three simples at t^0, one at each moved point


def _fresh_simples(H, base_points):
    "Every one-dimensional stabilizer simple of H over the base points."
    for f in base_points:
        try:
            yield from enumerate_onedim(TwistedCoalgebra(H, f))
        except (NonAbelianStabilizer, NotARootOfUnity):
            continue


def test_verify_reads_each_tau_once_per_context(monkeypatch):
    """Every simple at every base point, on a fresh context: no tau(g, h; u)
    reaches CocyclePair.tau twice from verify, and the reports stay the dense
    reference's, on the corruption cases too."""
    reads, inside = {}, [False]
    lookup = CocyclePair.tau

    def counted(cp, g, gp, f):
        if inside[0]:
            key = (id(cp), g.key, gp.key, f.key)
            reads[key] = reads.get(key, 0) + 1
        return lookup(cp, g, gp, f)

    monkeypatch.setattr(CocyclePair, "tau", counted)

    def verify(W):
        inside[0] = True
        try:
            return _json(W.verify())
        finally:
            inside[0] = False

    H = get_entry("Z3_Dinf")._build()
    cases = [induce(V) for V in _fresh_simples(H, H.mp.window(20))]
    H = z4_z8_tau()
    cases += [induce(V) for V in _fresh_simples(H, H.F.elements())]
    cases += [W for _, W in _corruptions()]
    for W in cases:
        assert verify(W) == _json(dense_verify(W))
    assert reads and max(reads.values()) == 1


def test_pipeline_reads_each_tau_once_per_context(monkeypatch):
    """The coalgebra check, the one-dimensional solver, induction, verify and the
    closed character all read tau from the context's shared table: on fresh
    contexts, building each coalgebra twice and running the whole pipeline on
    each simple looks no tau(g, h; u) up twice."""
    reads = {}
    lookup = CocyclePair.tau

    def counted(cp, g, gp, f):
        key = (id(cp), g.key, gp.key, f.key)
        reads[key] = reads.get(key, 0) + 1
        return lookup(cp, g, gp, f)

    monkeypatch.setattr(CocyclePair, "tau", counted)
    Z3_Dinf, Q8_Z, Z4_Z8 = get_entry("Z3_Dinf")._build(), get_entry("Q8_Z")._build(), z4_z8_tau()
    for H, base_points in ((Z3_Dinf, Z3_Dinf.mp.window(20)), (Z4_Z8, Z4_Z8.F.elements()),
                           (Q8_Z, Q8_Z.mp.window(20))):
        for f in base_points:
            TwistedCoalgebra(H, f)
        for V in _fresh_simples(H, base_points):
            W = induce(V)
            assert all_passed(W.verify())
            assert W.character_by_trace() == character(V).element
    assert reads and max(reads.values()) == 1
