"""Twisted stabilizer coalgebras, their comodules, induction, and characters.

For a base point f, the coalgebra is k^(G_f) with

    Delta(p_g) = sum_{x in G_f} tau(g x^-1, x; f) p_(g x^-1) (x) p_x,

whose right comodules are coefficient systems A^g (g in G_f) with

    A^1 = I,    A^g A^h = tau(g, h; f) A^(g h).

Induction along the transversal T_f produces a comodule over the full Hopf
algebra; its character is both computed by the closed one-line formula and,
independently, as the trace of the induced coaction (two code paths that the
tests compare).

A TwistedCoalgebra indexes G by position, stabilizer first, and holds for
its own lifetime the G_f product as a position table (built with it) and one
tau(., .; f) memo indexed by two positions, each value filled on its first
read through `CocyclePair.tau` (so its checks and errors are those of the
cocycle pair) and kept bare (scalars.bare): an int or Fraction when
rational, else a Scalar.  Its coalgebra check multiplies those bare values,
and the comodule check and one-dimensional solver read both tables by
position; the public `tau(a, b)`, which `induce` and `character` read at
their base point f, returns the memo's value as a Scalar.  Nothing is cached
on the Hopf algebra; the one table the Hopf algebra holds,
HopfAlgebra.structure_constants, serves cqt.verify_R.

An InducedComodule keeps its coaction as a public dict of dense Matrix blocks,
which callers may read and replace.  Each block is mostly zero: from a source
of dimension m, one m x m sub-block per block is nonzero.  So `verify` builds
sparse row views {row: {col: nonzero value}} of the current blocks once per
call, together with the action and product tables over G x U, and its
coassociativity sweep multiplies, scales by tau and compares those views.
"""

from __future__ import annotations

import itertools

from .errors import (DimensionMismatch, InvalidCocycle, NonAbelianStabilizer,
                     NotARootOfUnity, NotInStabilizer, WrongGroup)
from .groups import closure
from .hopf import HopfElement
from .reports import sweep, verdict
from .scalars import (Matrix, ONE, ZERO, as_scalar, bare, commutant_dimension,
                      root_of_unity)


class TwistedCoalgebra:
    """k^(G_f) with the comultiplication twisted by tau(., .; f).

    `_elements` lists G with the stabilizer first, so position i < |G_f| is a
    stabilizer element.  _mul[i][j] and _inv[i] are the positions of products
    and inverses in G_f, and one memo, _taus[i][j], holds tau(., .; f) at two
    positions, each value filled on its first read through `CocyclePair.tau`
    and kept bare (scalars.bare), for the life of the object.
    """

    def __init__(self, H, f):
        f = H.F.coerce(f)
        self.H = H
        self.f = f
        od = H.mp.orbit_data(f)
        stab = self.stabilizer = od.stabilizer
        self.transversal = od.transversal
        self._od = od
        self._elements = stab + [g for g in H.G.elements() if not od.in_stabilizer(g)]
        self._pos = {g: i for i, g in enumerate(self._elements)}
        self._one = self._pos[H.G.one]
        self._mul = _product_positions(H.G, stab)
        self._inv = [row.index(self._one) for row in self._mul]
        n = len(self._elements)
        self._taus = [[None] * n for _ in range(n)]
        self._check_coalgebra()

    def _tau(self, i, j):
        "tau(., .; f) at positions i, j, bare; filled on its first read."
        v = self._taus[i][j]
        if v is None:
            v = self._taus[i][j] = bare(self.H.cp.tau(self._elements[i], self._elements[j],
                                                      self.f))
        return v

    def tau(self, a, b):
        "tau(a, b; f) as a Scalar; CocyclePair.tau rejects an element of another group."
        i, j = self._pos.get(a), self._pos.get(b)
        if i is None or j is None:
            return self.H.cp.tau(a, b, self.f)
        return as_scalar(self._tau(i, j))

    def contains(self, g):
        "Whether g stabilizes f; an element of another group raises MixedGroups."
        return self._od.in_stabilizer(self.H.G._member(g))

    def delta(self, g):
        "The twisted coproduct of p_g, as {(g1, g2): coeff} over G_f x G_f."
        if not self.contains(g):
            raise NotInStabilizer("%r does not stabilize %r" % (g, self.f))
        stab, row = self.stabilizer, self._mul[self._pos[g]]
        out = {}
        for x, xinv in enumerate(self._inv):
            gx = row[xinv]
            out[(stab[gx], stab[x])] = as_scalar(self._tau(gx, x))
        return out

    def counit(self, g):
        if not self.contains(g):
            raise NotInStabilizer("%r does not stabilize %r" % (g, self.f))
        return ONE if g.is_identity() else ZERO

    def _check_coalgebra(self):
        "Coassociativity and counit of the twisted coproduct, exhaustively over G_f."
        stab, mul, taus, tau, one = self.stabilizer, self._mul, self._taus, self._tau, self._one
        n = len(stab)
        # a tau value is never zero (CocyclePair.tau raises), so `or` only fills
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for c in range(n):
                    # coefficient of p_a (x) p_b (x) p_c in both triple coproducts of p_(abc)
                    bc = mul[b][c]
                    if ((taus[ab][c] or tau(ab, c)) * (taus[a][b] or tau(a, b))
                            != (taus[a][bc] or tau(a, bc)) * (taus[b][c] or tau(b, c))):
                        raise InvalidCocycle("twisted coproduct not coassociative at "
                                             "(%r, %r, %r) over %r"
                                             % (stab[a], stab[b], stab[c], stab[mul[ab][c]]))
        # (eps (x) id) Delta(p_g) and (id (x) eps) Delta(p_g) are p_g: tau(1, g) = tau(g, 1) = 1
        for g in range(n):
            for x, xinv in enumerate(self._inv):
                gx = mul[g][xinv]
                if one in (gx, x) and (taus[gx][x] or tau(gx, x)) != 1:
                    raise InvalidCocycle("counit law fails at %r" % stab[g])

    def __repr__(self):
        return "TwistedCoalgebra(f=%r, |G_f|=%d)" % (self.f, len(self.stabilizer))


class Comodule:
    "Right comodule over a twisted stabilizer coalgebra: matrices A^g, g in G_f."

    def __init__(self, coalgebra, dim, matrices, label=""):
        self.coalgebra = coalgebra
        self.dim = dim
        self.label = label
        self.matrices = {}
        for g, M in matrices.items():
            g = coalgebra.H.G.coerce(g)
            if not coalgebra.contains(g):
                raise NotInStabilizer("coefficient at %r outside the stabilizer" % g)
            if M.rows != dim or M.cols != dim:
                raise DimensionMismatch("coefficient block at %r is not %dx%d" % (g, dim, dim))
            self.matrices[g.key] = M
        for g in coalgebra.stabilizer:
            self.matrices.setdefault(g.key, Matrix.zeros(dim, dim))

    @classmethod
    def from_coefficients(cls, coalgebra, dim, coeffs, label=""):
        "coeffs maps (l, i, g) with 1-based l, i to scalars: rho(v_i) = sum v_l (x) a_li^g p_g."
        G = coalgebra.H.G
        mats = {}
        for (l, i, g), c in coeffs.items():
            if not all(isinstance(n, int) and 1 <= n <= dim for n in (l, i)):
                raise DimensionMismatch("index (%r, %r) outside 1..%d" % (l, i, dim))
            M = mats.setdefault(G.coerce(g).key, [[ZERO] * dim for _ in range(dim)])
            M[l - 1][i - 1] = M[l - 1][i - 1] + as_scalar(c)
        return cls(coalgebra, dim,
                   {G._element(k): Matrix(rows) for k, rows in mats.items()}, label=label)

    def matrix(self, g):
        g = self.coalgebra.H.G.coerce(g)
        if not self.coalgebra.contains(g):
            raise NotInStabilizer("%r outside the stabilizer" % g)
        return self.matrices[g.key]

    def diagonal_sum(self, g):
        "sum_i a_ii^g"
        return self.matrix(g).trace()

    def verify(self):
        "Counit and coaction axioms as identities on the coefficient blocks."
        C = self.coalgebra
        G = C.H.G
        reports = []
        ident_ok = self.matrices[G.one.key] == Matrix.identity(self.dim)
        reports.append(verdict("comodule-counit", None if ident_ok else (G.one,), checked=1))
        stab, mul = C.stabilizer, C._mul
        M = [self.matrices[g.key] for g in stab]
        reports.append(sweep(
            "comodule-coassociativity", itertools.product(range(len(stab)), repeat=2),
            lambda a, b: M[a] * M[b] == M[mul[a][b]] * C._tau(a, b),
            witness=lambda inst: (stab[inst[0]], stab[inst[1]])))
        return reports

    def is_valid(self):
        return all(r.passed for r in self.verify())

    def is_simple(self):
        "Simple iff the coefficient blocks have a one-dimensional commutant."
        return commutant_dimension(self.matrices.values(), self.dim) == 1

    def __repr__(self):
        return "Comodule(%sdim %d at f=%r)" % (
            (self.label + ", ") if self.label else "", self.dim, self.coalgebra.f)


# -- one-dimensional enumeration ----------------------------------------------

def _generating_subset(mul, one):
    "Smallest-by-size generating subset of a small group on positions, in stable order."
    pool = [i for i in range(len(mul)) if i != one]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if len(closure(one, combo, lambda k, g: mul[k][g])) == len(mul):
                return list(combo)
    raise AssertionError("unreachable")


def _product_positions(G, elements):
    "mul[i][j], the position in `elements` of elements[i] elements[j], over a finite subgroup of G."
    index = {e.key: i for i, e in enumerate(elements)}
    return [[index[G.mul(a, b).key] for b in elements] for a in elements]


def _onedim_tables(elements, mul, one, tau):
    """Solutions a: K -> k* of a^1 = 1, a^g a^h = tau(g, h) a^(g h) on the finite
    abelian group K = `elements`, taken by position: mul[i][j] is the position
    of the product (`_product_positions`), one that of the identity, and tau a
    function of two positions.  Returns {position: Scalar} dicts.

    The value on each generator h is an n-th root of the telescoped tau product,
    so the candidate sets are finite and the search is complete.  Exactly |K|
    many when any exist; tau = 1 gives the characters of K.
    """
    gens = _generating_subset(mul, one)
    # fixed decomposition of every element as a generator word
    words = closure(one, range(len(gens)), lambda k, gi: mul[k][gens[gi]])

    candidate_sets = []
    for g in gens:
        powers = list(closure(one, (g,), lambda k, h: mul[k][h]))  # 1, g, ..., g^(n-1)
        n = len(powers)
        c = ONE
        for k in powers[1:]:
            c = c * tau(g, k)
        ru = c.as_root_of_unity()
        if ru is None:
            raise NotARootOfUnity(
                "telescoped tau product at %r is not a root of unity: %r" % (elements[g], c))
        m, j = ru
        cands = [root_of_unity(n * m, j + m * i) for i in range(n)]
        assert all(t ** n == c for t in cands)
        candidate_sets.append(cands)

    out = []
    size = range(len(mul))
    for values in itertools.product(*candidate_sets):
        a = {}
        for k, word in words.items():
            acc, acc_val = one, ONE
            for gi in word:
                g = gens[gi]
                acc_val = acc_val * values[gi] / tau(acc, g)
                acc = mul[acc][g]
            a[k] = acc_val
        if all(a[x] * a[y] == tau(x, y) * a[mul[x][y]] for x in size for y in size):
            out.append(a)
    return out


def enumerate_onedim(coalgebra):
    """All one-dimensional comodules over an abelian twisted stabilizer coalgebra:
    the solutions of `_onedim_tables` with tau = tau(., .; f)."""
    C = coalgebra
    stab, mul = C.stabilizer, C._mul
    if any(mul[a][b] != mul[b][a] for a in range(len(stab)) for b in range(a)):
        raise NonAbelianStabilizer("stabilizer of %r is non-abelian" % C.f)
    return [Comodule(C, 1, {stab[i]: Matrix._trusted([[v]]) for i, v in a.items()})
            for a in _onedim_tables(stab, mul, C._one, C._tau)]


# -- induction and characters ----------------------------------------------------

class InducedComodule:
    """Comodule over the full Hopf algebra induced along the transversal.

    Basis (i, z) for i < dim(V), z in T_f; the coaction of each basis vector is

        sum_{x in G} tau(z_x^-1, g_x^-1; f)^-1 tau(z_x^-1 g_x^-1 z, z^-1; f)
                     A^(g_x^-1)[l, i]  (l, z_x) (x) p_(x^-1 z) # (z^-1 |> f)

    with x = g_x z_x the stabilizer/transversal factorization.
    """

    def __init__(self, source):
        C = source.coalgebra
        H = C.H
        G, mp = H.G, H.mp
        f = C.f
        m = source.dim
        trans = C.transversal
        self.source = source
        self.H = H
        self.base_point = f
        self.dim = m * len(trans)
        self.basis_labels = [(i, z) for z in trans for i in range(m)]
        pos = {(i, z.key): zi * m + i for zi, z in enumerate(trans) for i in range(m)}
        blocks = {}
        for zi, z in enumerate(trans):
            zinv = G.inv(z)
            ftarget = mp.act_left(zinv, f)
            for x in G.elements():
                gx, zx = C._od.factorize(x)
                gxi, zxi = G.inv(gx), G.inv(zx)
                coeff = C.tau(zxi, gxi).inverse() * C.tau(G.mul(G.mul(zxi, gxi), z), zinv)
                A = source.matrices[gxi.key]
                hkey = (G.mul(G.inv(x), z), ftarget)
                M = blocks.setdefault(hkey, [[ZERO] * self.dim for _ in range(self.dim)])
                for l in range(m):
                    for i in range(m):
                        if A.entries[l][i]:
                            r, c = pos[(l, zx.key)], pos[(i, z.key)]
                            M[r][c] = M[r][c] + coeff * A.entries[l][i]
        self.blocks = {k: Matrix._trusted(rows) for k, rows in blocks.items()
                       if any(any(v for v in row) for row in rows)}

    def verify(self):
        """Comodule axioms over the full Hopf algebra, on the block support.

        The coassociativity sweep multiplies and compares sparse row views of
        the current blocks (`_sparse_rows`), built once per call.
        """
        H = self.H
        G, mp, cp = H.G, H.mp, H.cp
        reports = []
        total = Matrix.zeros(self.dim, self.dim)
        for (g, u), M in self.blocks.items():
            if g.is_identity():
                total = total + M
        ok = total == Matrix.identity(self.dim)
        reports.append(verdict("induced-counit", None if ok else ("identity block sum",),
                               checked=1))
        # quantify over G x U with U the orbit closure of the support's F parts;
        # outside U both sides of the axiom vanish identically
        fparts = {}
        for (_, u) in self.blocks:
            for v in mp.orbit(u):
                fparts.setdefault(v.key, v)
        U = list(fparts.values())
        elems = G.elements()
        views = {(g.key, u.key): _sparse_rows(M, self.dim) for (g, u), M in self.blocks.items()}
        act = {(h.key, u.key): mp.act_left(h, u).key for h in elems for u in U}
        at = {g.key: i for i, g in enumerate(elems)}
        mul = _product_positions(G, elems)
        empty = {}

        def instances():
            for g in elems:
                for fk in U:
                    B1 = views.get((g.key, fk.key), empty)
                    for h in elems:
                        for u in U:
                            yield g, fk, h, u, B1

        def holds(g, fk, h, u, B1):
            lhs = _sparse_mul(B1, views.get((h.key, u.key), empty))
            if fk.key == act[h.key, u.key]:
                rhs = views.get((elems[mul[at[g.key]][at[h.key]]].key, u.key), empty)
                return lhs == _sparse_scale(rhs, cp.tau(g, h, u))
            return not lhs

        reports.append(sweep("induced-coassociativity", instances(), holds,
                             witness=lambda inst: ((inst[0], inst[1]), (inst[2], inst[3]))))
        return reports

    def is_valid(self):
        return all(r.passed for r in self.verify())

    def character_by_trace(self):
        "Trace of the coaction blocks; an independent route to the character."
        return HopfElement(self.H, {key: M.trace() for key, M in self.blocks.items()})

    def __repr__(self):
        return "InducedComodule(dim %d at f=%r)" % (self.dim, self.base_point)


def _sparse_rows(M, n):
    "{row: {col: value}} over the nonzero entries of M, which must be n x n."
    if M.rows != n or M.cols != n:
        raise DimensionMismatch("coaction block is %dx%d, not %dx%d" % (M.rows, M.cols, n, n))
    out = {}
    for r, row in enumerate(M.entries):
        nonzero = {c: v for c, v in enumerate(row) if v}
        if nonzero:
            out[r] = nonzero
    return out


def _sparse_mul(A, B):
    "Product of two sparse row views; entries that cancel to zero are dropped."
    out = {}
    for r, row in A.items():
        acc = {}
        for k, a in row.items():
            brow = B.get(k)
            if brow:
                for c, b in brow.items():
                    acc[c] = acc[c] + a * b if c in acc else a * b
        acc = {c: v for c, v in acc.items() if v}
        if acc:
            out[r] = acc
    return out


def _sparse_scale(A, s):
    "The sparse row view of A * s for a nonzero scalar s; the support is A's."
    return {r: {c: v * s for c, v in row.items()} for r, row in A.items()}


def induce(V):
    return InducedComodule(V)


class Character:
    "The character of an induced comodule, as an element of the Hopf algebra."

    __slots__ = ("element", "base_point", "dim", "label", "source")

    def __init__(self, element, base_point, dim, label="", source=None):
        self.element = element
        self.base_point = base_point
        self.dim = dim
        self.label = label
        self.source = source

    def __repr__(self):
        tag = self.label or ("chi@%r" % self.base_point)
        return "Character(%s, dim %d: %r)" % (tag, self.dim, self.element)

    def __eq__(self, other):
        if isinstance(other, Character):
            return self.element == other.element
        return NotImplemented

    __hash__ = None


def character(V, label=""):
    """Closed character formula for the induced comodule of V:

        sum_{z in T_f} sum_{g in G_f} tau(z^-1, g; f)^-1 tau(z^-1 g z, z^-1; f)
                                       (sum_i a_ii^g)  p_(z^-1 g z) # (z^-1 |> f)
    """
    C = V.coalgebra
    H = C.H
    G, mp = H.G, H.mp
    f = C.f
    acc = {}
    for z in C.transversal:
        zinv = G.inv(z)
        fz = mp.act_left(zinv, f)
        for g in C.stabilizer:
            diag = V.diagonal_sum(g)
            if not diag:
                continue
            zgz = G.mul(G.mul(zinv, g), z)
            coeff = C.tau(zinv, g).inverse() * C.tau(zgz, zinv) * diag
            key = (zgz, fz)
            acc[key] = acc.get(key, ZERO) + coeff
    elem = HopfElement(H, acc)
    return Character(elem, f, V.dim * len(C.transversal), label=label, source=V)


def trivial_comodule(coalgebra):
    "The one-dimensional comodule with every coefficient equal to 1 (a^g = 1)."
    G = coalgebra.H.G
    return Comodule(coalgebra, 1,
                    {g: Matrix([[ONE]]) for g in coalgebra.stabilizer},
                    label="trivial")


def group_comodules(H, quotient=None):
    """One-dimensional comodules over k^G at the base point 1_F.

    With abelian G these are its characters (twisted by tau(.,.,1) = 1, so
    untwisted); a quotient hom onto an abelian group lifts that quotient's
    characters to G.  Returns Comodule objects at base point 1_F.
    """
    C = TwistedCoalgebra(H, H.F.one)
    if quotient is None:
        return enumerate_onedim(C)
    pi = quotient
    Cq = pi.codomain
    if not Cq.is_abelian():
        raise WrongGroup("quotient characters need an abelian codomain")
    out = []
    for idx, char in enumerate(_abelian_character_tables(Cq)):
        mats = {g: Matrix([[char[pi(g).key]]]) for g in H.G.elements()}
        out.append(Comodule(C, 1, mats, label="lift#%d via %s" % (idx, _hom_tag(pi))))
    return out


def _hom_tag(pi):
    return "%s->%s" % (getattr(pi.domain, "name", pi.domain.family),
                       getattr(pi.codomain, "name", pi.codomain.family))


def _abelian_character_tables(G):
    "Characters of a finite abelian group: the tau = 1 solutions of `_onedim_tables`."
    elements = G.elements()
    one = next(i for i, e in enumerate(elements) if e.is_identity())
    return [{elements[i].key: v for i, v in a.items()}
            for a in _onedim_tables(elements, _product_positions(G, elements), one,
                                    lambda i, j: ONE)]
