"""Definition-level oracle for the CQT condition families of `cqt.verify_R`.

Built only from the object-path structure maps `multiply`, `comultiply`,
`counit` and `antipode` of hopf_reference, which evaluate each product,
coproduct and antipode from G.mul, F.mul, the actions and sigma/tau, and
from `RForm.bilinear`, so it shares no code with the int-indexed sweep or
with the StructureConstants table that hopfcqt's element arithmetic reads.
On a finite context it checks each identity on every basis element, pair or
triple (x, y, z basis elements, x1 (x) x2 = Delta(x)):

    0    r(1, x) = eps(x) = r(x, 1)
    1    r(x, yz) = r(x1, z) r(x2, y)
    2    r(xy, z) = r(x, z1) r(y, z2)
    3    y1 x1 r(x2, y2) = r(x1, y1) x2 y2            (an identity in H)
    4    r(x1, y1) r(y2, x2) = eps(x) eps(y)          (cotriangularity, r * r21)
    inv  r(S(x1), y1) r(x2, y2) = eps(x) eps(y)       (r(S(.), .) * r = eps (x) eps)

Families 0-3 and the invertibility of r define a coquasitriangular form
(Larson-Towber, Comm. Algebra 19, 1991; Kassel, Quantum Groups, VIII.5).

`instance_sweep` keeps the per-instance sweeps of families 0, 1, 2 and 3,
for forms with a window (see its comment block).
"""

import itertools

from hopf_reference import antipode, comultiply, counit, multiply
from hopfcqt.cqt import Memo
from hopfcqt.hopf import HopfElement, StructureConstants
from hopfcqt.reports import sweep
from hopfcqt.scalars import ONE, ZERO, bare

LEVELS = (0, 1, 2, 3, 4, "inv")


def _value(R, x, y):
    v = R.bilinear(x, y)
    assert v is not None, "the oracle needs a form without a window"
    return v


def _legs(x):
    "Delta(x) as (coefficient, x1, x2) with basis elements x1, x2."
    H = x.context
    return [(c, HopfElement(H, {k1: ONE}), HopfElement(H, {k2: ONE}))
            for (k1, k2), c in comultiply(x).terms.items()]


def _total(values):
    out = ZERO
    for v in values:
        out = out + v
    return out


def _element_sum(H, terms):
    out = H.zero()
    for t in terms:
        out = out + t
    return out


def families(R):
    "{level: True when the family's identity holds on every basis instance}."
    H = R.H
    basis = [H.basis(g, f) for g in H.G.elements() for f in H.F.elements()]
    legs = {id(x): _legs(x) for x in basis}
    one = H.unit()

    def r(x, y):
        return _value(R, x, y)

    def unit_ok(x):
        return r(one, x) == counit(x) == r(x, one)

    def left_ok(x, y, z):
        return r(x, multiply(y, z)) == _total(c * r(x1, z) * r(x2, y)
                                              for c, x1, x2 in legs[id(x)])

    def right_ok(x, y, z):
        return r(multiply(x, y), z) == _total(c * r(x, z1) * r(y, z2)
                                              for c, z1, z2 in legs[id(z)])

    def braid_ok(x, y):
        pairs = [(c * d, x1, x2, y1, y2) for c, x1, x2 in legs[id(x)]
                 for d, y1, y2 in legs[id(y)]]
        lhs = _element_sum(H, (multiply(y1, x1) * (c * r(x2, y2))
                               for c, x1, x2, y1, y2 in pairs))
        rhs = _element_sum(H, (multiply(x2, y2) * (c * r(x1, y1))
                               for c, x1, x2, y1, y2 in pairs))
        return lhs == rhs

    def convolution_ok(x, y, value):
        sums = _total(c * d * value(x1, x2, y1, y2) for c, x1, x2 in legs[id(x)]
                      for d, y1, y2 in legs[id(y)])
        return sums == counit(x) * counit(y)

    def cotriangular_ok(x, y):
        return convolution_ok(x, y, lambda x1, x2, y1, y2: r(x1, y1) * r(y2, x2))

    def inverse_ok(x, y):
        return convolution_ok(x, y, lambda x1, x2, y1, y2: r(antipode(x1), y1) * r(x2, y2))

    checks = {0: (unit_ok, 1), 1: (left_ok, 3), 2: (right_ok, 3), 3: (braid_ok, 2),
              4: (cotriangular_ok, 2), "inv": (inverse_ok, 2)}
    return {level: all(ok(*inst) for inst in itertools.product(basis, repeat=width))
            for level, (ok, width) in checks.items()}


# -- per-instance sweeps of CQT0, CQT1, CQT2 and CQT3 ---------------------------
#
# families() needs a form without a window.  These are the per-instance
# closures that cqt._cqt0, cqt._cqt1 and cqt._cqt2 ran on the general engine
# reports.sweep before CQT0 moved to hoisted unit rows and CQT1 and CQT2 to
# row kernels: one ok per instance, R read through a memo of
# RForm.try_value at each instance's arguments.  They see windows, so the
# sweeps must match their reports on any form.  CQT3 sums both sides of each
# instance (x, y, m) from the products and coproduct legs of the table, never
# from its compiled rows: it is unevaluated when a term on the p_l component,
# l the G part of m, reads R out of the window, even a term whose coefficient
# cancels against another.

def _sum(rv, terms):
    "Sum of coef * R(p) * R(q) over (coef, p, q); None as soon as a term has a factor out of window."
    total = 0
    for coef, p, q in terms:
        v = rv[p]
        w = rv[q]
        if v is None or w is None:
            return None
        if v and w:
            total += coef * v * w
    return total


def instance_sweep(R, level, qbound=None):
    "The ConditionReport of CQT0, CQT1, CQT2 or CQT3 (level 0 to 3) on R, one ok per instance."
    sc = StructureConstants(R.H)
    fs = R.H.mp.window(qbound if qbound is not None else R.window)
    grid = [[sc.index((g, f)) for f in fs] for g in R.H.G.elements()]
    rv = Memo(lambda p: bare(R.try_value(sc.keys[p[0]], sc.keys[p[1]])))

    def witness(inst):
        return tuple(sc.keys[i][0] for i in inst) + tuple(sc.keys[i][1] for i in inst)

    units = [sc.index((x, R.H.F.one)) for x in R.H.G.elements()]

    def cqt0_ok(b):
        sums = [0, 0]
        for side, p, q in [(0, u, b) for u in units] + [(1, b, u) for u in units]:
            v = rv[p, q]
            if v is None:
                return None
            sums[side] += v
        return sums[0] == sums[1] == int(sc.gkey[b] == sc.one_g)

    def cqt1_ok(a, b, c):
        bc = sc.product(b, c)
        lhs = rv[a, bc[0]] if bc else 0
        rhs = None if lhs is None else _sum(rv, [(t, (a1, c), (a2, b))
                                                 for a1, a2, t in sc.coproduct(a)])
        return None if rhs is None else (lhs and lhs * bc[1]) == rhs

    def cqt2_ok(a, b, c):
        ab = sc.product(a, b)
        lhs = rv[ab[0], c] if ab else 0
        rhs = None if lhs is None else _sum(rv, [(t, (a, c1), (b, c2))
                                                 for c1, c2, t in sc.coproduct(c)])
        return None if rhs is None else (lhs and lhs * ab[1]) == rhs

    def cqt3_ok(x, y, m):
        l, sums = sc.gkey[m], {}
        for x1, x2, s in sc.coproduct(x):
            for y1, y2, t in sc.coproduct(y):
                for coef, hit, pair in ((s * t, sc.product(y1, x1), (x2, y2)),
                                        (-s * t, sc.product(x2, y2), (x1, y1))):
                    if hit and sc.gkey[hit[0]] == l:
                        v = rv[pair]
                        if v is None:
                            return None
                        sums[hit[0]] = sums.get(hit[0], 0) + coef * hit[1] * v
        return not any(sums.values())

    if level == 0:
        return sweep("CQT0", ((b,) for row in grid for b in row), cqt0_ok, witness=witness)
    if level == 1:
        ids = [i for row in grid for i in row]
        return sweep("CQT1", ((a, b, c) for b in ids for row in grid for a in ids for c in row),
                     cqt1_ok, witness=witness)
    if level == 2:
        return sweep("CQT2", ((a, b, c) for row in grid for a in row for brow in grid
                              for crow in grid for b in brow for c in crow), cqt2_ok,
                     witness=witness)
    return sweep("CQT3", ((x, y, lrow[0]) for xrow in grid for yrow in grid for lrow in grid
                          for x in xrow for y in yrow), cqt3_ok,
                 witness=lambda inst: witness(inst)[:5])
