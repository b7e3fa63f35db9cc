"""Dense reference for `InducedComodule.verify`.

The induced comodule's checks as whole-matrix identities: every instance
multiplies two dense blocks, scales a dense block by tau and compares dense
matrices, with `act_left` and the group product called per instance.  It
shares no sparse arithmetic with the library, so the tests can require the
same reports from both.
"""

from hopfcqt.reports import FAIL, PASS, ConditionReport, sweep
from hopfcqt.scalars import Matrix


def dense_verify(W):
    "The reports of W.verify(), computed on dense blocks."
    H = W.H
    G, mp, cp = H.G, H.mp, H.cp
    reports = []
    total = Matrix.zeros(W.dim, W.dim)
    for (g, u), M in W.blocks.items():
        if g.is_identity():
            total = total + M
    ok = total == Matrix.identity(W.dim)
    reports.append(ConditionReport("induced-counit", PASS if ok else FAIL,
                                   witness=None if ok else ("identity block sum",),
                                   checked=1))
    fparts = {}
    for (_, u) in W.blocks:
        for v in mp.orbit(u):
            fparts.setdefault(v.key, v)
    U = list(fparts.values())
    zero = Matrix.zeros(W.dim, W.dim)

    def instances():
        for g in G.elements():
            for fk in U:
                B1 = W.blocks.get((g, fk), zero)
                for h in G.elements():
                    for u in U:
                        yield g, fk, h, u, B1

    def holds(g, fk, h, u, B1):
        lhs = B1 * W.blocks.get((h, u), zero)
        if fk == mp.act_left(h, u):
            return lhs == W.blocks.get((G.mul(g, h), u), zero) * cp.tau(g, h, u)
        return lhs == zero

    reports.append(sweep("induced-coassociativity", instances(), holds,
                         witness=lambda inst: ((inst[0], inst[1]), (inst[2], inst[3]))))
    return reports
