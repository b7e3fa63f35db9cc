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
builds its own StructureConstants, a view over a matched_pair.PairTables:
its window argument when that is one (catalog.run_entry shares one with the
matched-pair, cocycle and battery checks), else a fresh one whose word_bound
is the window.  It gives every basis key it reaches an int index, a (G id,
F id) pair of that table, including products and coproduct legs outside the
F window, and keeps per index the G ids of g and g <| f, so a zero product
is one int compare.
Products live in one dense table[i][j], filled on first lookup; products,
coproducts and antipodes are evaluated once per call from the PairTables'
F products, actions and sigma/tau entries, in the order the formulas above
read them, so a value an earlier check filled is not looked up again, and
the six axioms run on int indices.
Associativity and bialgebra compatibility run on the row engine
(reports.sweep_rows): one kernel call per row of the innermost
quantifier (k for a fixed (i, j), j for a fixed i), which reads the product
table through rows hoisted out of its loop and calls product only on an
unfilled entry, in the order the object path multiplies.  One kernel serves
the exhaustive rows, the pattern rows and the seeded sample, whose draws are
one-item rows (_sampled): each id is rng.choice(ids) with the loop of
random.choice inlined, so the stream is the one the reference sweep draws,
and the bialgebra kernel builds the legs of Delta(p_i) once per i, not once
per sample row.  Coproduct legs are read by position (StructureConstants):
the counit reads legs g and 1, the bialgebra kernel compares leg x of
Delta(p_i) Delta(p_j) with leg x of Delta(p_i p_j), term by term, and
coassociativity compares term (x, y) of (Delta (x) id)Delta(p_i) with term
(yx, x) of (id (x) Delta)Delta(p_i), the one term with the same G ids.  A
rational structure constant is stored bare, as its int or Fraction
(scalars.bare), so the sweeps multiply Python rationals; a cyclotomic one
stays a Scalar, whose reflected operators take the mixed cases.  The StructureConstants is
dropped when the call returns, a shared PairTables when run_entry does.
tests/hopf_reference.py keeps the object-path maps and sweep as the reference;
the tests require identical reports, witnesses and `checked` counts.

cqt.verify_R evaluates the CQT families on the same kind of table, but not
one per call: a HopfAlgebra owns one StructureConstants,
`HopfAlgebra.structure_constants`, built on first use and kept for the life
of the context, and every verify_R on that context shares it, since no
structure constant depends on R.  It sits on a PairTables of its own, of
window 0, and grows with the quantifier ranges and elements used on the
context.  StructureConstants is the one evaluator of the structure maps:
multiply, comultiply and antipode index their keys once in the shared one
(StructureConstants.index checks G and F membership) and map its entries
back to keys, products through _basis_product, coproducts through
_basis_coproduct.  The whole comodule side reads the ids, products and tau
of the same PairTables (comodules.py): the twisted stabilizer coalgebras,
the one-dimensional solver, induction, characters and
InducedComodule.verify, which reads its actions there too.
"""

from __future__ import annotations

import functools
import itertools
import random

from .errors import ContextMismatch
from .matched_pair import window_tables
from .reports import sweep, sweep_rows
from .scalars import ONE, ZERO, as_scalar, bare


class HopfAlgebra:
    "Context object: the matched pair plus cocycles, with element constructors."

    def __init__(self, cocycles, name=""):
        self.cp = cocycles
        self.mp = cocycles.mp
        self.G = self.mp.G
        self.F = self.mp.F
        self.name = name

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
        "The StructureConstants that element arithmetic and verify_R share and grow, built lazily."
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

    def __repr__(self):
        return " + ".join(_coeff(c) + _term(k1) + " (x) " + _term(k2)
                          for (k1, k2), c in self.terms.items()) or "0"


def _basis_product(sc, i, j):
    """Product of the basis symbols with indices i and j of the StructureConstants
    sc: (key, sigma as a Scalar), or False when it is zero."""
    hit = sc.product(i, j)
    return hit and (sc.keys[hit[0]], as_scalar(hit[1]))


def multiply(a, b):
    "Bilinear extension of the basis product; each factor's keys are indexed once."
    _same_context(a, b)
    H = a.context
    sc = H.structure_constants
    left = [(sc.index(key), c) for key, c in a.terms.items()]
    right = [(sc.index(key), d) for key, d in b.terms.items()]
    return _collect(HopfElement, H, (
        (hit[0], c * d * hit[1]) for i, c in left for j, d in right
        if (hit := _basis_product(sc, i, j))))


def _basis_coproduct(sc, i):
    "Delta(p_i) as [((key1, key2), tau as a Scalar)], its legs in G order."
    keys = sc.keys
    return [((keys[j1], keys[j2]), as_scalar(t)) for j1, j2, t in sc.coproduct(i)]


def comultiply(a):
    "Delta, linearly extended."
    H = a.context
    sc = H.structure_constants
    return _collect(TensorElement, H, ((kk, c * t) for key, c in a.terms.items()
                                       for kk, t in _basis_coproduct(sc, sc.index(key))))


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
    sc = H.structure_constants
    images = (sc.antipode(sc.index(key)) + (c,) for key, c in a.terms.items())
    return _collect(HopfElement, H, ((sc.keys[j], c * s) for j, s, c in images))


# -- structure constants and axiom verification ------------------------------

class StructureConstants:
    """Int-indexed basis keys and memoized structure constants over one PairTables.

    Its owner decides how long it lives: verify_hopf_axioms builds one per
    call, and HopfAlgebra.structure_constants holds the one that element
    arithmetic and every cqt.verify_R on the context share, on a PairTables
    of window 0 (all of F when F is finite, else {1}; fid appends the rest).  `cqt3_rows`
    holds the R-independent rows of each (x, y) that cqt._cqt3 has visited,
    which its walk over R's support evaluates; cqt._cqt3 documents them.

    The ids are the PairTables' (self.P), which must be built on H's pair and
    cocycles (window_tables; ContextMismatch otherwise): a basis key is
    interned as its (G id, F id) pair on first sight, products and coproduct
    legs that leave the F window included.  gkey[i] and rkey[i] are the G ids of g and of
    g <| f, so the product of i and j is zero exactly when rkey[i] !=
    gkey[j].  coproduct(i) lists Delta(p_g # f) by position: leg x is
    p_(g x^-1) # (x |> f) (x) p_x # f, x a G id, so the leg with left G id r
    is leg r^-1 g.  table[i][j] holds the product of i and j: None while not
    filled, False when it is zero, else (k, sigma) with p_i p_j = sigma p_k;
    _at adds a row and a column for each new key.  product() is the one
    path that fills it, so a reader may take a filled entry straight from
    the table and call product() on None.  Products, coproducts and
    antipodes read P's entries in the order the module docstring's formulas
    do, each once: the product ff', then sigma(g; f, f'); per leg x in G
    order, g x^-1, x |> f and tau(g x^-1, x; f); for S, g |> f and its
    inverse, then sigma and tau.  A lookup that raises stores nothing, so the
    next visit raises again.

    A memoized constant is bare (scalars.bare): an int or Fraction when it is
    rational, as nearly every catalog value is, else a Scalar.  Most are +-1,
    and an int product is several times cheaper than a Scalar one.
    """

    def __init__(self, H, tables=None):
        self.H = H
        P = self.P = window_tables(0 if tables is None else tables, H.mp, H.cp)
        self.one_g = P.gid[H.G.one.key]
        self.keys, self.gkey, self.fkey, self.rkey, self.table = [], [], [], [], []
        self._index, self._coproducts, self._antipodes, self.cqt3_rows = {}, {}, {}, {}

    def index(self, key):
        """The index of a basis key (g, f), interning it on first sight; the one
        point where a key enters the ids, so an element of another group raises
        MixedGroups here."""
        g, f = key
        H = self.H
        return self._at(self.P.gid[H.G._member(g).key], self.P.fid(H.F._member(f)))

    def _at(self, g, f):
        "The index of the basis key with G id g and F id f, interning it on first sight."
        i = self._index.get((g, f))
        if i is None:
            P = self.P
            i = self._index[(g, f)] = len(self.keys)
            self.keys.append((P.gs[g], P.fs[f]))
            self.gkey.append(g)
            self.fkey.append(f)
            self.rkey.append(P.act_right(g, f))
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
                P, g, f, fp = self.P, self.gkey[i], self.fkey[i], self.fkey[j]
                ffp = P.mul(f, fp)
                s = P.sigma[g][f][fp] or P.fill_sigma(g, f, fp)
                hit = (self._at(g, ffp), s)
            self.table[i][j] = hit
        return hit

    def coproduct(self, i):
        "Delta(p_i) as a list of (j1, j2, tau); every leg is read before any is interned."
        out = self._coproducts.get(i)
        if out is None:
            P, g, f = self.P, self.gkey[i], self.fkey[i]
            tau, legs = P.tau, []
            for x in range(len(P.gs)):
                gx = P.gmul[g][P.ginv[x]]
                y = P.act_left(x, f)
                legs.append((gx, y, x, tau[gx][x][f] or P.fill_tau(gx, x, f)))
            out = self._coproducts[i] = [(self._at(gx, y), self._at(x, f), t)
                                         for gx, y, x, t in legs]
        return out

    def antipode(self, i):
        "(j, c) with S(p_i) = c p_j: u = g |> f, then sigma(g^-1; u, u^-1), then tau(g^-1, g; f)."
        hit = self._antipodes.get(i)
        if hit is None:
            P, g, f = self.P, self.gkey[i], self.fkey[i]
            gi, u = P.ginv[g], P.act_left(g, f)
            ui = P.inv(u)
            s = P.sigma[gi][u][ui] or P.fill_sigma(gi, u, ui)
            t = P.tau[gi][g][f] or P.fill_tau(gi, g, f)
            hit = self._antipodes[i] = (self._at(P.ginv[self.rkey[i]], ui),
                                        bare(as_scalar(s * t).inverse()))
        return hit


def _nonzero(acc):
    return {k: v for k, v in acc.items() if v}


# verify_hopf_axioms: exhaustive budgets for associativity triples and
# bialgebra pairs, and the size and seed of the sample drawn beyond them
EXHAUSTIVE_LIMIT = 40000
PAIR_LIMIT = 4096
SAMPLE = 2000
SEED = 7


def _sampled(rng, ids, width):
    """SAMPLE instances of width ids, as one-item rows (prefix, [last]), drawn
    lazily in instance order.  Each id is rng.choice(ids) inlined: getrandbits
    of n.bit_length() bits, n = len(ids), redrawn while it is not below n."""
    n, bits = len(ids), rng.getrandbits
    k = n.bit_length()
    for _ in range(SAMPLE):
        inst = []
        while len(inst) < width:
            r = bits(k)
            if r < n:
                inst.append(ids[r])
        yield tuple(inst[:-1]), inst[-1:]


def verify_hopf_axioms(H, window=4):
    """Axiom sweep over basis elements with F part in the window.

    Associativity and the bialgebra law quantify over all basis triples/pairs
    when that stays under EXHAUSTIVE_LIMIT/PAIR_LIMIT; beyond them the sweep
    covers every potentially-nonzero product pattern plus a deterministic
    random sample (SAMPLE instances, seeded with SEED) of all triples/pairs,
    and `checked` counts both.  window is a word-length bound, or a shared
    PairTables built on H's pair and cocycles, whose word_bound it is and whose
    ids the sweeps read (any other table raises ContextMismatch).
    """
    P = window_tables(window, H.mp, H.cp)
    sc = StructureConstants(H, P)
    ids = [sc._at(g, f) for g in range(len(P.gs)) for f in range(P.nf)]
    table, product, coproduct = sc.table, sc.product, sc.coproduct
    gkey, rkey, one_g, gmul, ginv, nf = sc.gkey, sc.rkey, sc.one_g, P.gmul, P.ginv, P.nf
    row = [ids[g * nf:(g + 1) * nf] for g in range(len(P.gs))]  # the window ids by G id
    rng = random.Random(SEED)
    reports = []

    def witness(inst):
        return tuple(sc.keys[i] for i in inst)

    def report(check, instances, ok):
        reports.append(sweep(check, instances, ok, witness=witness))

    def report_rows(check, rows, first_bad):
        reports.append(sweep_rows(check, rows, first_bad, witness))

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
                    return n, 0
            elif left or right:
                return n, 0
        return None, 0

    if len(ids) ** 3 <= EXHAUSTIVE_LIMIT:
        rows = (((i, j), ids) for i in ids for j in ids)
    else:
        rows = itertools.chain((((i, j), row[rkey[j]]) for i in ids for j in row[rkey[i]]),
                               _sampled(rng, ids, 3))
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

    # coassociativity by position: term (x, y) of (Delta (x) id)Delta(p_i), leg y
    # of Delta(leg x's left factor), has G ids (g x^-1 y^-1, y, x), as has term
    # (yx, x) of (id (x) Delta)Delta(p_i); on each side these triples are
    # distinct and tau is never 0, so the two sums are equal exactly when each
    # pair of terms is.  Every left coproduct is read before any right one
    def coassoc_ok(i):
        legs = coproduct(i)
        lefts = [coproduct(j1) for j1, _, _ in legs]
        rights = [coproduct(j2) for _, j2, _ in legs]
        for x, (_, j2, c) in enumerate(legs):
            for y, (k1, k2, d) in enumerate(lefts[x]):
                z = gmul[y][x]
                m1, m2, e = rights[z][x]
                if k1 != legs[z][0] or k2 != m1 or j2 != m2 or c * d != legs[z][2] * e:
                    return False
        return True

    report("coassociativity", ((i,) for i in ids), coassoc_ok)

    def counit_ok(i):
        # eps (x) id keeps leg x = g of Delta(p_i), id (x) eps keeps leg x = 1
        legs = coproduct(i)
        (_, j2, c), (j1, _, d) = legs[gkey[i]], legs[one_g]
        return j2 == i and c == 1 and j1 == i and d == 1

    report("counit", ((i,) for i in ids), counit_ok)

    # bialgebra compatibility: Delta(ab) = Delta(a)Delta(b), eps(ab) = eps(a)eps(b),
    # one row of j per i, legs read by position (StructureConstants): x1 y1 = 0
    # unless y1's G id is x1's rkey r, and the one leg of Delta(p_j) with left G
    # id r is leg r^-1 g_j.  Their product keeps G id x, that of leg x of
    # Delta(p_i), in front of its right factor, so it is compared with leg x of
    # Delta(p_i p_j), with no sum
    bialg_legs = {}  # i -> the legs of Delta(p_i), built at i's first item

    def bialg_first_bad(prefix, js):
        i, = prefix
        ti, unit_i, legs = table[i], gkey[i] == one_g, bialg_legs.get(i)
        for n, j in enumerate(js):
            ij = ti[j]
            if ij is None:
                ij = product(i, j)
            lhs = coproduct(ij[0]) if ij else ()
            if legs is None:
                legs = bialg_legs[i] = [(ginv[rkey[k1]], table[k1], table[k2], k1, k2, c)
                                        for k1, k2, c in coproduct(i)]
            dj, gj = coproduct(j), gkey[j]
            # every leg is multiplied, even after a mismatch, so products are
            # reached in the object path's order
            ok, hits = True, 0
            for x, (ri, t1, t2, k1, k2, c) in enumerate(legs):
                l1, l2, d = dj[gmul[ri][gj]]
                left, right = t1[l1], t2[l2]
                if left is None:
                    left = product(k1, l1)
                if right is None:
                    right = product(k2, l2)
                if right:
                    hits += 1
                    if lhs:
                        m1, m2, t = lhs[x]
                        if (m1 != left[0] or m2 != right[0]
                                or c * d * left[1] * right[1] != ij[1] * t):
                            ok = False
            if not ok or hits != len(lhs):
                return n, 0
            if (ij[1] if ij and gkey[ij[0]] == one_g else 0) != int(unit_i and gkey[j] == one_g):
                return n, 0
        return None, 0

    if len(ids) ** 2 <= PAIR_LIMIT:
        rows = (((i,), ids) for i in ids)
    else:
        rows = itertools.chain((((i,), row[rkey[i]]) for i in ids), _sampled(rng, ids, 2))
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
