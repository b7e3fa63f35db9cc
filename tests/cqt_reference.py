"""Definition-level oracle for the CQT condition families of `cqt.verify_R`.

Built only from the object-path structure maps `multiply`, `comultiply`,
`counit` and `antipode` and from `RForm.bilinear`, so it shares no code with
the int-indexed sweep.  On a finite context it checks each identity on every
basis element, pair or triple (x, y, z basis elements, x1 (x) x2 = Delta(x)):

    0    r(1, x) = eps(x) = r(x, 1)
    1    r(x, yz) = r(x1, z) r(x2, y)
    2    r(xy, z) = r(x, z1) r(y, z2)
    3    y1 x1 r(x2, y2) = r(x1, y1) x2 y2            (an identity in H)
    4    r(x1, y1) r(y2, x2) = eps(x) eps(y)          (cotriangularity, r * r21)
    inv  r(S(x1), y1) r(x2, y2) = eps(x) eps(y)       (r(S(.), .) * r = eps (x) eps)

Families 0-3 and the invertibility of r define a coquasitriangular form
(Larson-Towber, Comm. Algebra 19, 1991; Kassel, Quantum Groups, VIII.5).
"""

import itertools

from hopfcqt.hopf import HopfElement, antipode, comultiply, counit, multiply
from hopfcqt.scalars import ONE, ZERO

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
