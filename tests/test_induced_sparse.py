"""`InducedComodule.verify` on sparse row views against the dense reference.

Both must give identical reports (status, witness and `checked`) on every
induced comodule of the catalog's one-dimensional stabilizer simples, on
two-dimensional sources (direct sums, plain and conjugated, whose products
cancel inside a sum) and on corrupted blocks.
"""

import pytest

from induced_reference import dense_verify

from hopfcqt.catalog import entry_ids, get_entry
from hopfcqt.comodules import (Comodule, TwistedCoalgebra, character, enumerate_onedim,
                               induce, trivial_comodule)
from hopfcqt.errors import DimensionMismatch, NonAbelianStabilizer, NotARootOfUnity
from hopfcqt.reports import all_passed
from hopfcqt.scalars import Matrix, ONE, ZERO, rational


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
