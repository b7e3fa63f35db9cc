"""Object-path structure maps and Hopf axiom sweep: the reference for hopfcqt.hopf.

The structure maps are written here from their definitions (module docstring
of hopfcqt.hopf), on G.mul, F.mul, the two actions and CocyclePair.sigma and
tau, with no table and no memo: basis product, coproduct and antipode, their
linear extensions to HopfElements, the product of TensorElements, and the
convolution helpers multiply_legs, map_left and map_right.  hopfcqt.hopf
evaluates the same maps once, on its StructureConstants tables; the tests
require the two to agree term by term and to reach sigma and tau in the same
order.

verify_hopf_axioms_reference is the axiom sweep as it was written on element
arithmetic: every instance builds its basis elements and multiplies,
comultiplies and applies the antipode through the maps above.
`hopfcqt.hopf.verify_hopf_axioms` runs the same loops on int-indexed,
memoized structure constants; the tests require both to return the same
reports, witnesses and `checked` counts included.
"""

import random

from hopfcqt.hopf import HopfElement, TensorElement
from hopfcqt.reports import FAIL, PASS, ConditionReport
from hopfcqt.scalars import ONE, ZERO


def basis_product(H, key1, key2):
    """Product of two basis symbols (g, f), (g', f'): None when g <| f differs
    from g', else ((g, ff'), sigma(g; f, f'))."""
    g, f = key1
    if H.mp.act_right(g, f) != key2[0]:
        return None
    return (g, H.F.mul(f, key2[1])), H.cp.sigma(g, f, key2[1])


def basis_coproduct(H, key):
    "Delta on one basis symbol, as {((g1,f1),(g2,f2)): coeff}, x in G order."
    g, f = key
    G, mp, cp = H.G, H.mp, H.cp
    out = {}
    for x in G.elements():
        gx = G.mul(g, G.inv(x))
        out[((gx, mp.act_left(x, f)), (x, f))] = cp.tau(gx, x, f)
    return out


def basis_antipode(H, key):
    "S on one basis symbol: (new key, coefficient)."
    g, f = key
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    ginv = G.inv(g)
    gf = mp.act_left(g, f)
    coeff = (cp.sigma(ginv, gf, F.inv(gf)) * cp.tau(ginv, g, f)).inverse()
    return (G.inv(mp.act_right(g, f)), F.inv(gf)), coeff


def _collect(cls, H, pairs):
    "The cls over H summing the (key, Scalar) pairs; a zero sum drops out."
    acc = {}
    for key, value in pairs:
        acc[key] = acc[key] + value if key in acc else value
    return cls(H, acc)


def multiply(a, b):
    "Bilinear extension of the basis product."
    H = a.context
    return _collect(HopfElement, H, (
        (hit[0], c * d * hit[1]) for k1, c in a.terms.items() for k2, d in b.terms.items()
        if (hit := basis_product(H, k1, k2))))


def comultiply(a):
    "Delta, linearly extended."
    H = a.context
    return _collect(TensorElement, H, ((kk, c * t) for key, c in a.terms.items()
                                       for kk, t in basis_coproduct(H, key).items()))


def counit(a):
    "eps(p_g # f) = [g = 1], linearly extended."
    total = ZERO
    for (g, f), c in a.terms.items():
        if g.is_identity():
            total = total + c
    return total


def antipode(a):
    "Antipode, linearly extended."
    H = a.context
    images = ((basis_antipode(H, key), c) for key, c in a.terms.items())
    return _collect(HopfElement, H, ((kk, c * s) for (kk, s), c in images))


def tensor_product(s, t):
    "(a (x) b)(c (x) d) = ac (x) bd, bilinearly."
    H = s.context
    return _collect(TensorElement, H, (
        ((left[0], right[0]), c * d * left[1] * right[1])
        for (k1, k2), c in s.terms.items() for (l1, l2), d in t.terms.items()
        if (left := basis_product(H, k1, l1)) and (right := basis_product(H, k2, l2))))


def multiply_legs(t):
    "Apply the multiplication H (x) H -> H."
    H = t.context
    return _collect(HopfElement, H, ((hit[0], c * hit[1]) for (k1, k2), c in t.terms.items()
                                     if (hit := basis_product(H, k1, k2))))


def map_left(t, fn):
    "Apply a basis-key -> HopfElement map to the left leg, linearly."
    return _collect(TensorElement, t.context, (
        ((key, k2), c * s) for (k1, k2), c in t.terms.items() for key, s in fn(k1).terms.items()))


def map_right(t, fn):
    "Apply a basis-key -> HopfElement map to the right leg, linearly."
    return _collect(TensorElement, t.context, (
        ((k1, key), c * s) for (k1, k2), c in t.terms.items() for key, s in fn(k2).terms.items()))


def _triple_coproduct(H, key, left_first):
    "(Delta (x) id)Delta or (id (x) Delta)Delta on a basis symbol, keyed by triples."
    acc = {}
    for (k1, k2), c in basis_coproduct(H, key).items():
        inner = basis_coproduct(H, k1 if left_first else k2)
        for (k3, k4), d in inner.items():
            kk = (k3, k4, k2) if left_first else (k1, k3, k4)
            acc[kk] = acc.get(kk, ZERO) + c * d
    return {k: v for k, v in acc.items() if not v.is_zero()}


def verify_hopf_axioms_reference(H, word_bound=4, exhaustive_limit=40000, pair_limit=4096,
                                 sample=2000, seed=7):
    """The object-path sweep; with the default budgets, sample and seed (the
    constants of hopfcqt.hopf) it gives the reports of verify_hopf_axioms."""
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    basis = H.basis_window(word_bound)
    fs = mp.window(word_bound)
    rng = random.Random(seed)
    reports = []

    def belem(key):
        return HopfElement(H, {key: ONE})

    # associativity (and unit)
    def assoc_ok(k1, k2, k3):
        a, b, c = belem(k1), belem(k2), belem(k3)
        return multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    n = len(basis)
    checked = 0
    witness = None
    if n ** 3 <= exhaustive_limit:
        for k1 in basis:
            for k2 in basis:
                for k3 in basis:
                    checked += 1
                    if not assoc_ok(k1, k2, k3):
                        witness = (k1, k2, k3)
                        break
                if witness:
                    break
            if witness:
                break
    else:
        for g, f in basis:
            for fp in fs:
                for fpp in fs:
                    b = mp.act_right(g, f)
                    c = mp.act_right(b, fp)
                    checked += 1
                    if not assoc_ok((g, f), (b, fp), (c, fpp)):
                        witness = ((g, f), (b, fp), (c, fpp))
                        break
                if witness:
                    break
            if witness:
                break
        if not witness:
            for _ in range(sample):
                k1, k2, k3 = rng.choice(basis), rng.choice(basis), rng.choice(basis)
                checked += 1
                if not assoc_ok(k1, k2, k3):
                    witness = (k1, k2, k3)
                    break
    reports.append(ConditionReport("associativity", FAIL if witness else PASS,
                                   witness=witness, checked=checked))

    one = H.unit()
    witness = None
    checked = 0
    for key in basis:
        a = belem(key)
        checked += 1
        if multiply(one, a) != a or multiply(a, one) != a:
            witness = (key,)
            break
    reports.append(ConditionReport("unit", FAIL if witness else PASS,
                                   witness=witness, checked=checked))

    # coassociativity
    witness = None
    checked = 0
    for key in basis:
        checked += 1
        if _triple_coproduct(H, key, True) != _triple_coproduct(H, key, False):
            witness = (key,)
            break
    reports.append(ConditionReport("coassociativity", FAIL if witness else PASS,
                                   witness=witness, checked=checked))

    # counit axioms
    witness = None
    checked = 0
    for key in basis:
        checked += 1
        left = {}
        right = {}
        for (k1, k2), c in basis_coproduct(H, key).items():
            if k1[0].is_identity():
                left[k2] = left.get(k2, ZERO) + c
            if k2[0].is_identity():
                right[k1] = right.get(k1, ZERO) + c
        if HopfElement(H, left) != belem(key) or HopfElement(H, right) != belem(key):
            witness = (key,)
            break
    reports.append(ConditionReport("counit", FAIL if witness else PASS,
                                   witness=witness, checked=checked))

    # bialgebra compatibility: Delta(ab) = Delta(a)Delta(b), eps(ab) = eps(a)eps(b)
    def bialg_ok(k1, k2):
        a, b = belem(k1), belem(k2)
        ab = multiply(a, b)
        if comultiply(ab) != tensor_product(comultiply(a), comultiply(b)):
            return False
        return counit(ab) == counit(a) * counit(b)

    witness = None
    checked = 0
    if n * n <= pair_limit:
        for k1 in basis:
            for k2 in basis:
                checked += 1
                if not bialg_ok(k1, k2):
                    witness = (k1, k2)
                    break
            if witness:
                break
    else:
        for g, f in basis:
            for fp in fs:
                checked += 1
                k2 = (mp.act_right(g, f), fp)
                if not bialg_ok((g, f), k2):
                    witness = ((g, f), k2)
                    break
            if witness:
                break
        if not witness:
            for _ in range(sample):
                k1, k2 = rng.choice(basis), rng.choice(basis)
                checked += 1
                if not bialg_ok(k1, k2):
                    witness = (k1, k2)
                    break
    reports.append(ConditionReport("bialgebra-compatibility", FAIL if witness else PASS,
                                   witness=witness, checked=checked))

    # antipode convolution identities: m(S (x) id)Delta = unit . eps = m(id (x) S)Delta
    witness = None
    checked = 0
    for key in basis:
        checked += 1
        a = belem(key)
        target = one.scaled(counit(a))
        d = comultiply(a)
        left = multiply_legs(map_left(d, lambda k: antipode(belem(k))))
        right = multiply_legs(map_right(d, lambda k: antipode(belem(k))))
        if left != target or right != target:
            witness = (key,)
            break
    reports.append(ConditionReport("antipode-convolution", FAIL if witness else PASS,
                                   witness=witness, checked=checked))
    return reports
