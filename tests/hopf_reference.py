"""Object-path Hopf axiom sweep, kept as the reference for verify_hopf_axioms.

This is the sweep as it was written on HopfElement/TensorElement arithmetic:
every instance builds its basis elements and multiplies, comultiplies and
applies the antipode through the public element operations, with no memo.
`hopfcqt.hopf.verify_hopf_axioms` runs the same loops on int-indexed,
memoized structure constants; the tests require both to return the same
reports, witnesses and `checked` counts included.
"""

import random

from hopfcqt.hopf import (HopfElement, _basis_coproduct, antipode, comultiply,
                          counit)
from hopfcqt.reports import FAIL, PASS, ConditionReport
from hopfcqt.scalars import ONE, ZERO


def _triple_coproduct(H, key, left_first):
    "(Delta (x) id)Delta or (id (x) Delta)Delta on a basis symbol, keyed by triples."
    acc = {}
    for (k1, k2), c in _basis_coproduct(H, key).items():
        inner = _basis_coproduct(H, k1 if left_first else k2)
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
        return (a * b) * c == a * (b * c)

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
        if one * a != a or a * one != a:
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
        for (k1, k2), c in _basis_coproduct(H, key).items():
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
        ab = a * b
        if comultiply(ab) != comultiply(a) * comultiply(b):
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
        left = d.map_left(lambda k: antipode(belem(k))).multiply_legs()
        right = d.map_right(lambda k: antipode(belem(k))).multiply_legs()
        if left != target or right != target:
            witness = (key,)
            break
    reports.append(ConditionReport("antipode-convolution", FAIL if witness else PASS,
                                   witness=witness, checked=checked))
    return reports
