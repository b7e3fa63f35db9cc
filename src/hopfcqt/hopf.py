"""The bicrossed-product Hopf algebra built on (matched pair, cocycle pair).

Basis symbols p_g # f for g in G, f in F.  Structure maps:

    (p_g # f)(p_g' # f') = [g <| f = g']  sigma(g; f, f')  p_g # ff'
    Delta(p_g # f) = sum_x tau(g x^-1, x; f)  p_(g x^-1) # (x |> f)  (x)  p_x # f
    eps(p_g # f) = [g = 1]
    S(p_g # f) = sigma(g^-1; g|>f, (g|>f)^-1)^-1 tau(g^-1, g; f)^-1
                 p_((g <| f)^-1) # (g |> f)^-1

Elements are finitely supported; no zero coefficient is ever stored.
HopfElement and TensorElement share one linear-combination core,
_Combination (storage, +, -, ==), and every map that sums terms builds its
result through _collect.

verify_hopf_axioms does not build HopfElements per instance.  Each call
builds its own StructureConstants, which gives every basis key it reaches an
int index, including products and coproduct legs outside the F window, and
keeps per index the keys of g and g <| f, so a zero product is one int
compare.  Products live in one dense table[i][j], filled on first lookup;
products, coproducts and antipodes are evaluated once per call through
_basis_product, _basis_coproduct and antipode_basis, and the six axioms run
on int-keyed dicts.  Associativity and bialgebra compatibility run on the
row engine (reports.sweep_rows): one kernel call per row of the innermost
quantifier (k for a fixed (i, j), j for a fixed i), which reads the product
table through rows hoisted out of its loop and calls product only on an
unfilled entry, in the order the object path multiplies.  One kernel serves
the exhaustive rows, the pattern rows and the seeded sample, whose draws are
one-item rows.  The bialgebra kernel memoizes, per call, Delta(p_m) as a dict
and Delta(p_j) keyed by the G key of its left leg, and compares the legs of
Delta(p_i) Delta(p_j) with Delta(p_i p_j) term by term.  A rational
structure constant is stored bare, as its int or Fraction (scalars.bare), so
the sweeps multiply Python rationals; a cyclotomic one stays a Scalar, whose
reflected operators take the mixed cases.  That table is dropped when the
call returns.  The tests keep the
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
from .reports import sweep, sweep_rows
from .scalars import ONE, ZERO, as_scalar, bare


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
        return self.G.coerce(g), self.F.coerce(f)

    def basis(self, g, f):
        "The basis element p_g # f."
        return HopfElement(self, {self._key(g, f): ONE})

    def element(self, terms):
        "Element from (g, f, coefficient) triples."
        return _collect(HopfElement, self,
                        ((self._key(g, f), as_scalar(c)) for g, f, c in terms))

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

    def __repr__(self):
        return "HopfAlgebra(%s)" % (self.name or "?")


def _same_context(a, b):
    if a.context is not b.context:
        raise ContextMismatch("elements live over different Hopf contexts")


def _collect(cls, context, pairs):
    "The cls over context summing the (key, Scalar) pairs; a key whose sum is zero drops out."
    acc = {}
    for key, value in pairs:
        old = acc.get(key)
        acc[key] = value if old is None else old + value
    return cls(context, acc)


class _Combination:
    "Finitely supported linear combination {key: nonzero Scalar} over one Hopf context."

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_context(self, other)
        return _collect(type(self), self.context,
                        itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return type(self)(self.context, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _same_context(self, other)
        return self.terms == other.terms

    __hash__ = None


def _term(key):
    return "p[%r]#(%r)" % key


def _coeff(c):
    return "" if c.is_one() else "(%r)*" % c


class HopfElement(_Combination):
    "Finitely supported linear combination of basis symbols p_g # f."

    __slots__ = ()

    def coefficient(self, g, f):
        return self.terms.get(self.context._key(g, f), ZERO)

    def scaled(self, c):
        c = as_scalar(c)
        return HopfElement(self.context, {k: v * c for k, v in self.terms.items()})

    def __rmul__(self, other):
        "c * x = x * c for a scalar c; anything else raises NotAScalar, as x * c does."
        return self.scaled(other)

    def __mul__(self, other):
        if isinstance(other, HopfElement):
            return multiply(self, other)
        return self.scaled(other)

    def __repr__(self):
        terms = sorted(self.terms.items(), key=lambda kv: (repr(kv[0][1]), repr(kv[0][0])))
        return " + ".join(_coeff(c) + _term(key) for key, c in terms) or "0"


class TensorElement(_Combination):
    "Finitely supported element of H (x) H, keyed by pairs of basis keys."

    __slots__ = ()

    def __mul__(self, other):
        "(a (x) b)(c (x) d) = ac (x) bd, bilinearly."
        if not isinstance(other, TensorElement):
            return NotImplemented
        _same_context(self, other)
        H = self.context
        return _collect(TensorElement, H, (
            ((left[0], right[0]), c * d * left[1] * right[1])
            for (k1, k2), c in self.terms.items() for (l1, l2), d in other.terms.items()
            if (left := _product_or_none(H, k1, l1)) and (right := _product_or_none(H, k2, l2))))

    def multiply_legs(self):
        "Apply the multiplication H (x) H -> H."
        H = self.context
        return _collect(HopfElement, H, ((hit[0], c * hit[1]) for (k1, k2), c in self.terms.items()
                                         if (hit := _product_or_none(H, k1, k2))))

    def map_left(self, fn):
        "Apply a basis-key -> HopfElement map to the left leg, linearly."
        return _collect(TensorElement, self.context, (
            ((key, k2), c * s) for (k1, k2), c in self.terms.items()
            for key, s in fn(k1).terms.items()))

    def map_right(self, fn):
        return _collect(TensorElement, self.context, (
            ((k1, key), c * s) for (k1, k2), c in self.terms.items()
            for key, s in fn(k2).terms.items()))

    def __repr__(self):
        return " + ".join(_coeff(c) + _term(k1) + " (x) " + _term(k2)
                          for (k1, k2), c in self.terms.items()) or "0"


def _basis_product(H, key1, key2):
    """Product of two basis symbols (g, f), (g', f') whose product is nonzero, that is
    g <| f = g': ((g, ff'), sigma coefficient).  The caller settles that it is nonzero."""
    g, f = key1
    return (g, H.F.mul(f, key2[1])), H.cp.sigma(g, f, key2[1])


def _product_or_none(H, key1, key2):
    "Product of two basis symbols: None when g <| f differs from g', else _basis_product."
    if H.mp.act_right(*key1) != key2[0]:
        return None
    return _basis_product(H, key1, key2)


def multiply(a, b):
    "Bilinear extension of the basis product."
    _same_context(a, b)
    H = a.context
    return _collect(HopfElement, H, (
        (hit[0], c * d * hit[1]) for k1, c in a.terms.items() for k2, d in b.terms.items()
        if (hit := _product_or_none(H, k1, k2))))


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
    return _collect(TensorElement, H, ((kk, c * t) for key, c in a.terms.items()
                                       for kk, t in _basis_coproduct(H, key).items()))


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
    images = ((antipode_basis(H, key), c) for key, c in a.terms.items())
    return _collect(HopfElement, H, ((kk, c * s) for (kk, s), c in images))


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
    and an int product is several times cheaper than a Scalar one.
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
    random sample (SAMPLE instances, seeded with SEED) of all triples/pairs,
    and `checked` counts both.
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

    def witness(inst):
        return tuple(sc.keys[i] for i in inst)

    def report(check, instances, ok):
        reports.append(sweep(check, instances, ok, witness=witness))

    def report_rows(check, rows, first_bad):
        reports.append(sweep_rows(check, rows, first_bad, witness))

    def sampled(width):
        # one-item rows drawn lazily in instance order, so a failure among the
        # patterns leaves rng untouched
        return ((tuple(rng.choice(ids) for _ in range(width - 1)), (rng.choice(ids),))
                for _ in range(SAMPLE))

    # associativity (and unit), one row of k per (i, j)
    # the kernels below read sc.table through hoisted rows and call product
    # only on an unfilled (None) entry, in the order the object path multiplies
    def assoc_first_bad(prefix, ks):
        i, j = prefix
        ij = table[i][j]
        if ij is None:
            ij = product(i, j)
        ti, tj = table[i], table[j]
        tm = ij and table[ij[0]]
        for n, k in enumerate(ks):
            # (p_i p_j) p_k first, then p_i (p_j p_k)
            left = tm and tm[k]
            if left is None:
                left = product(ij[0], k)
            jk = tj[k]
            if jk is None:
                jk = product(j, k)
            right = jk and ti[jk[0]]
            if right is None:
                right = product(i, jk[0])
            if left and right:
                if left[0] != right[0] or ij[1] * left[1] != jk[1] * right[1]:
                    return n
            elif left or right:
                return n
        return None

    if len(ids) ** 3 <= EXHAUSTIVE_LIMIT:
        rows = (((i, j), ids) for i in ids for j in ids)
    else:
        rows = itertools.chain((((i, j), row[rkey[j]]) for i in ids for j in row[rkey[i]]),
                               sampled(3))
    report_rows("associativity", rows, assoc_first_bad)

    def combine(terms):
        "sum of c p_j p_k over (j, k, c) terms, as {index: nonzero value}"
        acc = {}
        for j, k, c in terms:
            hit = product(j, k)
            if hit:
                m, s = hit
                acc[m] = acc.get(m, 0) + c * s
        return _nonzero(acc)

    one = {sc.index((g, H.F.one)): 1 for g in H.G.elements()}

    def unit_ok(i):
        # the object path's order: 1 p_i unit by unit, then p_i 1 only if that holds
        a = {i: 1}
        return (combine((u, i, 1) for u in one) == a
                and combine((i, u, 1) for u in one) == a)

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

    # bialgebra compatibility: Delta(ab) = Delta(a)Delta(b), eps(ab) = eps(a)eps(b),
    # one row of j per i.  x1 y1 = 0 unless y1's G key is x1's rkey, and the
    # legs of Delta(p_j) have distinct G keys in front, so each leg of
    # Delta(p_i) meets at most one; the product of two legs has the G key of the
    # right leg of Delta(p_i) in front of its right factor, so the terms of
    # Delta(p_i)Delta(p_j) have distinct keys and are compared with
    # Delta(p_i p_j) one by one, with no sum
    deltas = {}  # m -> Delta(p_m) as {(k1, k2): tau}
    fronts = {}  # j -> Delta(p_j) keyed by the G key of its left leg

    def bialg_first_bad(prefix, js):
        i, = prefix
        ti, unit_i, legs = table[i], gkey[i] == one_g, None
        for n, j in enumerate(js):
            ij = ti[j]
            if ij is None:
                ij = product(i, j)
            lhs = {}
            if ij:
                lhs = deltas.get(ij[0])
                if lhs is None:
                    lhs = deltas[ij[0]] = {(k1, k2): t for k1, k2, t in coproduct(ij[0])}
            if legs is None:
                legs = [(rkey[k1], table[k1], table[k2], k1, k2, c) for k1, k2, c in coproduct(i)]
            front = fronts.get(j)
            if front is None:
                front = fronts[j] = {gkey[l1]: (l1, l2, d) for l1, l2, d in coproduct(j)}
            # every leg is multiplied, even after a mismatch, so products are
            # reached in the object path's order
            ok, hits = True, 0
            for r, t1, t2, k1, k2, c in legs:
                hit = front.get(r)
                if hit is not None:
                    l1, l2, d = hit
                    left, right = t1[l1], t2[l2]
                    if left is None:
                        left = product(k1, l1)
                    if right is None:
                        right = product(k2, l2)
                    if right:
                        hits += 1
                        t = lhs.get((left[0], right[0]))
                        if t is None or c * d * left[1] * right[1] != ij[1] * t:
                            ok = False
            if not ok or hits != len(lhs):
                return n
            if (ij[1] if ij and gkey[ij[0]] == one_g else 0) != int(unit_i and gkey[j] == one_g):
                return n
        return None

    if len(ids) ** 2 <= PAIR_LIMIT:
        rows = (((i,), ids) for i in ids)
    else:
        rows = itertools.chain((((i,), row[rkey[i]]) for i in ids), sampled(2))
    report_rows("bialgebra-compatibility", rows, bialg_first_bad)

    # antipode convolution identities: m(S (x) id)Delta = unit . eps = m(id (x) S)Delta
    # both sides are computed before either is compared; each side's S-terms are
    # summed in coproduct order, then multiplied in that order
    def antipode_ok(i):
        target = one if gkey[i] == one_g else {}
        sides = []
        for leg in (0, 1):
            acc = {}
            for j1, j2, c in coproduct(i):
                j, s = sc.antipode((j1, j2)[leg])
                kk = (j, j2) if leg == 0 else (j1, j)
                acc[kk] = acc.get(kk, 0) + c * s
            sides.append(combine((j1, j2, c) for (j1, j2), c in acc.items() if c))
        return sides[0] == target and sides[1] == target

    report("antipode-convolution", ((i,) for i in ids), antipode_ok)
    return reports
