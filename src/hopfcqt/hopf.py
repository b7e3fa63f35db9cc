"""The bicrossed-product Hopf algebra built on (matched pair, cocycle pair).

Basis symbols p_g # f for g in G, f in F.  Structure maps:

    (p_g # f)(p_g' # f') = [g <| f = g']  sigma(g; f, f')  p_g # ff'
    Delta(p_g # f) = sum_x tau(g x^-1, x; f)  p_(g x^-1) # (x |> f)  (x)  p_x # f
    eps(p_g # f) = [g = 1]
    S(p_g # f) = sigma(g^-1; g|>f, (g|>f)^-1)^-1 tau(g^-1, g; f)^-1
                 p_((g <| f)^-1) # (g |> f)^-1

Elements are finitely supported; no zero coefficient is ever stored.
"""

from __future__ import annotations

import random

from .errors import ContextMismatch
from .reports import FAIL, PASS, ConditionReport
from .scalars import ONE, ZERO, Scalar


class HopfAlgebra:
    "Context object: the matched pair plus cocycles, with element constructors."

    def __init__(self, cocycles, name=""):
        self.cp = cocycles
        self.mp = cocycles.mp
        self.G = self.mp.G
        self.F = self.mp.F
        self.name = name or cocycles.name or self.mp.name

    def basis(self, g, f):
        "The basis element p_g # f."
        if isinstance(g, str):
            g = self.G.parse(g)
        if isinstance(f, str):
            f = self.F.parse(f)
        self.G._member(g)
        self.F._member(f)
        return HopfElement(self, {(g, f): ONE})

    def element(self, terms):
        "Element from (g, f, coefficient) triples."
        acc = {}
        for g, f, c in terms:
            if isinstance(g, str):
                g = self.G.parse(g)
            if isinstance(f, str):
                f = self.F.parse(f)
            c = _coerce_scalar(c)
            key = (g, f)
            acc[key] = acc.get(key, ZERO) + c
        return HopfElement(self, acc)

    def zero(self):
        return HopfElement(self, {})

    def unit(self):
        "1_H = sum_g p_g # 1."
        return HopfElement(self, {(g, self.F.one): ONE for g in self.G.elements()})

    def basis_window(self, word_bound=4):
        "All basis keys with F part inside the window."
        return [(g, f) for g in self.G.elements() for f in self.mp.window(word_bound)]

    def dimension(self):
        n = self.F.order()
        return None if n is None else n * self.G.order()

    def __repr__(self):
        return "HopfAlgebra(%s)" % (self.name or "?")


def _coerce_scalar(c):
    s = Scalar._coerce(c)
    if s is None:
        raise TypeError("cannot use %r as a coefficient" % (c,))
    return s


def _same_context(a, b):
    if a.context is not b.context:
        raise ContextMismatch("elements live over different Hopf contexts")


class HopfElement:
    "Finitely supported linear combination of basis symbols p_g # f."

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def coefficient(self, g, f):
        H = self.context
        if isinstance(g, str):
            g = H.G.parse(g)
        if isinstance(f, str):
            f = H.F.parse(f)
        return self.terms.get((g, f), ZERO)

    def support(self):
        return list(self.terms.keys())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) + v
        return HopfElement(self.context, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HopfElement(self.context, {k: -v for k, v in self.terms.items()})

    def scaled(self, c):
        c = _coerce_scalar(c)
        return HopfElement(self.context, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)) or other.__class__.__name__ == "Fraction":
            return self.scaled(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, HopfElement):
            return multiply(self, other)
        return self.scaled(other)

    def __eq__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
        _same_context(self, other)
        if set(self.terms) != set(other.terms):
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (g, f), c in sorted(self.terms.items(), key=lambda kv: (repr(kv[0][1]), repr(kv[0][0]))):
            coeff = "" if c.is_one() else "(%r)*" % c
            bits.append("%sp[%r]#(%r)" % (coeff, g, f))
        return " + ".join(bits)


class TensorElement:
    "Finitely supported element of H (x) H, keyed by pairs of basis keys."

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) + v
        return TensorElement(self.context, acc)

    def __sub__(self, other):
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) - v
        return TensorElement(self.context, acc)

    def __mul__(self, other):
        "(a (x) b)(c (x) d) = ac (x) bd, bilinearly."
        _same_context(self, other)
        H = self.context
        acc = {}
        for (k1, k2), c in self.terms.items():
            for (l1, l2), d in other.terms.items():
                left = _basis_product(H, k1, l1)
                if left is None:
                    continue
                right = _basis_product(H, k2, l2)
                if right is None:
                    continue
                (key1, s1), (key2, s2) = left, right
                key = (key1, key2)
                val = c * d * s1 * s2
                acc[key] = acc.get(key, ZERO) + val
        return TensorElement(self.context, acc)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_context(self, other)
        if set(self.terms) != set(other.terms):
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None

    def multiply_legs(self):
        "Apply the multiplication H (x) H -> H."
        H = self.context
        acc = {}
        for (k1, k2), c in self.terms.items():
            hit = _basis_product(H, k1, k2)
            if hit is None:
                continue
            key, s = hit
            acc[key] = acc.get(key, ZERO) + c * s
        return HopfElement(H, acc)

    def map_left(self, fn):
        "Apply a basis-key -> HopfElement map to the left leg, linearly."
        H = self.context
        acc = {}
        for (k1, k2), c in self.terms.items():
            for key, s in fn(k1).terms.items():
                kk = (key, k2)
                acc[kk] = acc.get(kk, ZERO) + c * s
        return TensorElement(H, acc)

    def map_right(self, fn):
        H = self.context
        acc = {}
        for (k1, k2), c in self.terms.items():
            for key, s in fn(k2).terms.items():
                kk = (k1, key)
                acc[kk] = acc.get(kk, ZERO) + c * s
        return TensorElement(H, acc)

    def __repr__(self):
        bits = []
        for ((g, f), (gp, fp)), c in self.terms.items():
            coeff = "" if c.is_one() else "(%r)*" % c
            bits.append("%sp[%r]#(%r) (x) p[%r]#(%r)" % (coeff, g, f, gp, fp))
        return " + ".join(bits) if bits else "0"


def _basis_product(H, key1, key2):
    "Product of two basis symbols: None, or ((g, ff'), sigma coefficient)."
    g, f = key1
    gp, fp = key2
    if H.mp.act_right(g, f) != gp:
        return None
    return (g, H.F.mul(f, fp)), H.cp.sigma(g, f, fp)


def multiply(a, b):
    "Bilinear extension of the basis product."
    _same_context(a, b)
    H = a.context
    acc = {}
    for k1, c in a.terms.items():
        for k2, d in b.terms.items():
            hit = _basis_product(H, k1, k2)
            if hit is None:
                continue
            key, s = hit
            acc[key] = acc.get(key, ZERO) + c * d * s
    return HopfElement(H, acc)


def _basis_coproduct(H, key):
    "Delta on one basis symbol, as {((g1,f1),(g2,f2)): coeff}."
    g, f = key
    G, mp, cp = H.G, H.mp, H.cp
    out = {}
    for x in G.elements():
        gx = G.mul(g, G.inv(x))
        out[((gx, mp.act_left(x, f)), (x, f))] = cp.tau(gx, x, f)
    return out


def comultiply(a):
    "Delta, linearly extended."
    H = a.context
    acc = {}
    for key, c in a.terms.items():
        for kk, t in _basis_coproduct(H, key).items():
            acc[kk] = acc.get(kk, ZERO) + c * t
    return TensorElement(H, acc)


def counit(a):
    "eps(p_g # f) = [g = 1], linearly extended."
    total = ZERO
    for (g, f), c in a.terms.items():
        if g.is_identity():
            total = total + c
    return total


def antipode_basis(H, key):
    "S on one basis symbol: (new key, coefficient)."
    g, f = key
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    ginv = G.inv(g)
    gf = mp.act_left(g, f)
    coeff = (cp.sigma(ginv, gf, F.inv(gf)) * cp.tau(ginv, g, f)).inverse()
    return (G.inv(mp.act_right(g, f)), F.inv(gf)), coeff


def antipode(a):
    "Antipode, linearly extended."
    H = a.context
    acc = {}
    for key, c in a.terms.items():
        kk, s = antipode_basis(H, key)
        acc[kk] = acc.get(kk, ZERO) + c * s
    return HopfElement(H, acc)


# -- axiom verification --------------------------------------------------------

def _triple_coproduct(H, key, left_first):
    "(Delta (x) id)Delta or (id (x) Delta)Delta on a basis symbol, keyed by triples."
    acc = {}
    for (k1, k2), c in _basis_coproduct(H, key).items():
        inner = _basis_coproduct(H, k1 if left_first else k2)
        for (k3, k4), d in inner.items():
            kk = (k3, k4, k2) if left_first else (k1, k3, k4)
            acc[kk] = acc.get(kk, ZERO) + c * d
    return {k: v for k, v in acc.items() if not v.is_zero()}


def verify_hopf_axioms(H, word_bound=4, exhaustive_limit=40000, pair_limit=4096,
                       sample=2000, seed=7):
    """Axiom sweep over basis elements with F part in the window.

    Associativity and the bialgebra law quantify over all basis triples/pairs
    when that stays under the exhaustive budgets; beyond them the sweep covers
    every potentially-nonzero product pattern plus a deterministic random
    sample of the remaining instances.
    """
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
