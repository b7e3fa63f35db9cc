"""The bicrossed-product Hopf algebra built on (matched pair, cocycle pair).

Basis symbols p_g # f for g in G, f in F.  Structure maps:

    (p_g # f)(p_g' # f') = [g <| f = g']  sigma(g; f, f')  p_g # ff'
    Delta(p_g # f) = sum_x tau(g x^-1, x; f)  p_(g x^-1) # (x |> f)  (x)  p_x # f
    eps(p_g # f) = [g = 1]
    S(p_g # f) = sigma(g^-1; g|>f, (g|>f)^-1)^-1 tau(g^-1, g; f)^-1
                 p_((g <| f)^-1) # (g |> f)^-1

Elements are finitely supported; no zero coefficient is ever stored.

verify_hopf_axioms does not build HopfElements per instance.  Each call
builds its own StructureConstants, which gives every basis key it reaches an
int index, including products and coproduct legs outside the F window, and
keeps per index the keys of g and g <| f, so a zero product is one int
compare.  Products live in one dense table[i][j], filled on first lookup;
products, coproducts and antipodes are evaluated once per call through
_basis_product, _basis_coproduct and antipode_basis, the associativity and
bialgebra sweeps read the product table inline, and the six axioms run on
int-keyed dicts.  A rational structure constant is stored bare, as its int
or Fraction (scalars.bare), so the sweeps multiply Python rationals; a
cyclotomic one stays a Scalar, whose reflected operators take the mixed
cases.  That table is dropped when the call returns.  The tests keep the
object-path sweep as a reference and require identical reports, witnesses
and `checked` counts.

cqt.verify_R evaluates the CQT families on the same kind of table, but not
one per call: a HopfAlgebra owns one StructureConstants,
`HopfAlgebra.structure_constants`, built on first use and kept for the life
of the context, and every verify_R on that context shares it, since no
structure constant depends on R.  It grows with the union of the quantifier
ranges used on the context.
"""

from __future__ import annotations

import functools
import itertools
import random

from .errors import ContextMismatch
from .reports import sweep
from .scalars import ONE, ZERO, Scalar, bare


class HopfAlgebra:
    "Context object: the matched pair plus cocycles, with element constructors."

    def __init__(self, cocycles, name=""):
        self.cp = cocycles
        self.mp = cocycles.mp
        self.G = self.mp.G
        self.F = self.mp.F
        self.name = name or cocycles.name or self.mp.name

    def _key(self, g, f):
        "The basis key (g, f); strings are parsed, elements of other groups rejected."
        if isinstance(g, str):
            g = self.G.parse(g)
        if isinstance(f, str):
            f = self.F.parse(f)
        return self.G._member(g), self.F._member(f)

    def basis(self, g, f):
        "The basis element p_g # f."
        return HopfElement(self, {self._key(g, f): ONE})

    def element(self, terms):
        "Element from (g, f, coefficient) triples."
        acc = {}
        for g, f, c in terms:
            key = self._key(g, f)
            acc[key] = acc.get(key, ZERO) + _coerce_scalar(c)
        return HopfElement(self, acc)

    def zero(self):
        return HopfElement(self, {})

    def unit(self):
        "1_H = sum_g p_g # 1."
        return HopfElement(self, {(g, self.F.one): ONE for g in self.G.elements()})

    def basis_window(self, word_bound=4):
        "All basis keys with F part inside the window."
        return [(g, f) for g in self.G.elements() for f in self.mp.window(word_bound)]

    @functools.cached_property
    def structure_constants(self):
        "The StructureConstants that every verify_R on this context shares, built on first use."
        return StructureConstants(self)

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
        if not isinstance(other, HopfElement):
            return NotImplemented
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) + v
        return HopfElement(self.context, acc)

    def __sub__(self, other):
        if not isinstance(other, HopfElement):
            return NotImplemented
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
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) + v
        return TensorElement(self.context, acc)

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_context(self, other)
        acc = dict(self.terms)
        for k, v in other.terms.items():
            acc[k] = acc.get(k, ZERO) - v
        return TensorElement(self.context, acc)

    def __mul__(self, other):
        "(a (x) b)(c (x) d) = ac (x) bd, bilinearly."
        if not isinstance(other, TensorElement):
            return NotImplemented
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

class StructureConstants:
    """Int-indexed basis keys and memoized structure constants.

    Its owner decides how long it lives: verify_hopf_axioms builds one per
    call, and HopfAlgebra.structure_constants holds the one that every
    cqt.verify_R on the context shares.  `cqt3_rows` belongs to cqt._cqt3,
    which documents it.

    Keys are interned by (g.key, f.key) on first sight, products and
    coproduct legs that leave the F window included.  gkey[i] and rkey[i] are
    the keys of g and of g <| f, so the product of i and j is zero exactly
    when rkey[i] != gkey[j].  table[i][j] holds the product of i and j: None
    while not filled, False when it is zero, else (k, sigma) with
    p_i p_j = sigma p_k; index() adds a row and a column for each new key.
    product() is the one path that fills it, so a reader may take a filled
    entry straight from the table and call product() on None.  Each nonzero
    product, coproduct and antipode is evaluated once, by _basis_product,
    _basis_coproduct and antipode_basis; a lookup that raises stores
    nothing, so the next visit raises again.

    A memoized constant is bare (scalars.bare): an int or Fraction when it is
    rational, as nearly every catalog value is, else a Scalar.  Most are +-1,
    and an int product is several times cheaper than a Scalar one.  Elements are
    {index: value} dicts and tensors {(index, index): value} dicts, neither
    holding a zero value.
    """

    def __init__(self, H):
        self.H = H
        self.one_g = H.G.one.key
        self.keys = []
        self.gkey = []
        self.rkey = []
        self._index = {}
        self.table = []
        self._coproducts = {}
        self._antipodes = {}
        self.cqt3_rows = {}

    def index(self, key):
        "The index of a basis key, interning it on first sight."
        g, f = key
        i = self._index.get((g.key, f.key))
        if i is None:
            i = self._index[(g.key, f.key)] = len(self.keys)
            self.keys.append(key)
            self.gkey.append(g.key)
            self.rkey.append(self.H.mp.act_right(g, f).key)
            for row in self.table:
                row.append(None)
            self.table.append([None] * (i + 1))
        return i

    def product(self, i, j):
        "(k, sigma) with p_i p_j = sigma p_k, or False when the product is zero."
        hit = self.table[i][j]
        if hit is None:
            if self.rkey[i] != self.gkey[j]:
                hit = False
            else:
                key, s = _basis_product(self.H, self.keys[i], self.keys[j])
                hit = (self.index(key), bare(s))
            self.table[i][j] = hit
        return hit

    def coproduct(self, i):
        "Delta(p_i) as a list of (j1, j2, tau)."
        out = self._coproducts.get(i)
        if out is None:
            out = self._coproducts[i] = [
                (self.index(k1), self.index(k2), bare(t))
                for (k1, k2), t in _basis_coproduct(self.H, self.keys[i]).items()]
        return out

    def antipode(self, i):
        "(j, c) with S(p_i) = c p_j."
        hit = self._antipodes.get(i)
        if hit is None:
            key, c = antipode_basis(self.H, self.keys[i])
            hit = self._antipodes[i] = (self.index(key), bare(c))
        return hit

    def mul(self, a, b):
        acc = {}
        for i, c in a.items():
            for j, d in b.items():
                hit = self.product(i, j)
                if hit:
                    k, s = hit
                    acc[k] = acc.get(k, 0) + c * d * s
        return _nonzero(acc)

    def antipode_leg(self, delta, leg):
        "S applied to leg 0 or leg 1 of a coproduct given as a list of (j1, j2, c)."
        acc = {}
        for j1, j2, c in delta:
            if leg == 0:
                j1, s = self.antipode(j1)
            else:
                j2, s = self.antipode(j2)
            acc[(j1, j2)] = acc.get((j1, j2), 0) + c * s
        return _nonzero(acc)

    def multiply_legs(self, x):
        "The multiplication H (x) H -> H."
        acc = {}
        for (k1, k2), c in x.items():
            hit = self.product(k1, k2)
            if hit:
                k, s = hit
                acc[k] = acc.get(k, 0) + c * s
        return _nonzero(acc)


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


# verify_hopf_axioms: exhaustive budgets for associativity triples and
# bialgebra pairs, and the size and seed of the sample drawn beyond them
EXHAUSTIVE_LIMIT = 40000
PAIR_LIMIT = 4096
SAMPLE = 2000
SEED = 7


def verify_hopf_axioms(H, word_bound=4):
    """Axiom sweep over basis elements with F part in the window.

    Associativity and the bialgebra law quantify over all basis triples/pairs
    when that stays under EXHAUSTIVE_LIMIT/PAIR_LIMIT; beyond them the sweep
    covers every potentially-nonzero product pattern plus a deterministic
    random sample (SAMPLE instances, seeded with SEED) of the remaining ones.
    """
    sc = StructureConstants(H)
    ids = [sc.index(key) for key in H.basis_window(word_bound)]
    table, product, coproduct = sc.table, sc.product, sc.coproduct
    gkey, rkey, one_g = sc.gkey, sc.rkey, sc.one_g
    row = {}  # G key -> the window indices with that G part, in window order
    for i in ids:
        row.setdefault(gkey[i], []).append(i)
    rng = random.Random(SEED)
    reports = []

    def report(check, instances, ok):
        reports.append(sweep(check, instances, ok,
                             witness=lambda inst: tuple(sc.keys[i] for i in inst)))

    def sampled(width):
        # drawn lazily, so a failure among the patterns leaves rng untouched
        return (tuple(rng.choice(ids) for _ in range(width)) for _ in range(SAMPLE))

    # associativity (and unit)
    # the bodies below read sc.table inline and call product only on an
    # unfilled (None) entry, in the order the object path multiplies
    def assoc_ok(i, j, k):
        ij = table[i][j]
        if ij is None:
            ij = product(i, j)
        jk = table[j][k]
        if jk is None:
            jk = product(j, k)
        left = ij and table[ij[0]][k]
        if left is None:
            left = product(ij[0], k)
        right = jk and table[i][jk[0]]
        if right is None:
            right = product(i, jk[0])
        if not (left and right):
            return not left and not right
        return left[0] == right[0] and ij[1] * left[1] == jk[1] * right[1]

    if len(ids) ** 3 <= EXHAUSTIVE_LIMIT:
        report("associativity", itertools.product(ids, repeat=3), assoc_ok)
    else:
        patterns = ((i, j, k) for i in ids for j in row[rkey[i]] for k in row[rkey[j]])
        report("associativity", itertools.chain(patterns, sampled(3)), assoc_ok)

    one = {sc.index((g, H.F.one)): 1 for g in H.G.elements()}

    def unit_ok(i):
        a = {i: 1}
        return sc.mul(one, a) == a and sc.mul(a, one) == a

    report("unit", ((i,) for i in ids), unit_ok)

    def triple_coproduct(i, left_first):
        acc = {}
        for j1, j2, c in coproduct(i):
            for k1, k2, d in coproduct(j1 if left_first else j2):
                kk = (k1, k2, j2) if left_first else (j1, k1, k2)
                acc[kk] = acc.get(kk, 0) + c * d
        return _nonzero(acc)

    report("coassociativity", ((i,) for i in ids),
           lambda i: triple_coproduct(i, True) == triple_coproduct(i, False))

    def counit_ok(i):
        left, right = {}, {}
        for j1, j2, c in coproduct(i):
            if gkey[j1] == one_g:
                left[j2] = left.get(j2, 0) + c
            if gkey[j2] == one_g:
                right[j1] = right.get(j1, 0) + c
        a = {i: 1}
        return _nonzero(left) == a and _nonzero(right) == a

    report("counit", ((i,) for i in ids), counit_ok)

    # bialgebra compatibility: Delta(ab) = Delta(a)Delta(b), eps(ab) = eps(a)eps(b)
    def bialg_ok(i, j):
        ij = table[i][j]
        if ij is None:
            ij = product(i, j)
        lhs = {(k1, k2): ij[1] * t for k1, k2, t in coproduct(ij[0])} if ij else {}
        # x1 y1 = 0 unless y1's G key is x1's rkey, and the legs of Delta(p_j)
        # have distinct G keys in front, so each leg of Delta(p_i) meets one
        da, db = coproduct(i), {gkey[l1]: (l1, l2, d) for l1, l2, d in coproduct(j)}
        rhs = {}
        for k1, k2, c in da:
            hit = db.get(rkey[k1])
            if hit is not None:
                l1, l2, d = hit
                left, right = table[k1][l1], table[k2][l2]
                if left is None:
                    left = product(k1, l1)
                if right is None:
                    right = product(k2, l2)
                if right:
                    key = (left[0], right[0])
                    rhs[key] = rhs.get(key, 0) + c * d * left[1] * right[1]
        if lhs != _nonzero(rhs):
            return False
        return (ij[1] if ij and gkey[ij[0]] == one_g else 0) == int(gkey[i] == one_g == gkey[j])

    if len(ids) ** 2 <= PAIR_LIMIT:
        report("bialgebra-compatibility", itertools.product(ids, repeat=2), bialg_ok)
    else:
        patterns = ((i, j) for i in ids for j in row[rkey[i]])
        report("bialgebra-compatibility", itertools.chain(patterns, sampled(2)), bialg_ok)

    # antipode convolution identities: m(S (x) id)Delta = unit . eps = m(id (x) S)Delta
    def antipode_ok(i):
        target = one if gkey[i] == one_g else {}
        delta = coproduct(i)
        left = sc.multiply_legs(sc.antipode_leg(delta, 0))
        right = sc.multiply_legs(sc.antipode_leg(delta, 1))
        return left == target and right == target

    report("antipode-convolution", ((i,) for i in ids), antipode_ok)
    return reports
