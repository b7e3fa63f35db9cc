"""Twisted stabilizer coalgebras, their comodules, induction, and characters.

For a base point f, the coalgebra is k^(G_f) with

    Delta(p_g) = sum_{x in G_f} tau(g x^-1, x; f) p_(g x^-1) (x) p_x,

whose right comodules are coefficient systems A^g (g in G_f) with

    A^1 = I,    A^g A^h = tau(g, h; f) A^(g h).

Induction along the transversal T_f produces a comodule over the full Hopf
algebra; its character is both computed by the closed one-line formula and,
independently, as the trace of the induced coaction (two code paths that the
tests compare).

The whole comodule side reads one table, the context's shared
H.structure_constants.P (the window-0 PairTables that element arithmetic and
cqt.verify_R read).  Its G ids number G as MatchedPair.gids and OrbitData do,
so the stabilizer, transversal, images x |> f and x = g_x z_x factorization
of the pair's OrbitData at f are P ids too, products and inverses in G are
the list lookups P.gmul and P.ginv, and `induce` and `character` read each
z^-1 |> f from OrbitData.images.  Each tau(g, h; u) is read from P.tau,
filled on its first read on the context through `CocyclePair.tau`
(`fill_tau`, so its checks and errors are those of the cocycle pair) and
kept bare (scalars.bare): an int or Fraction when rational, else a Scalar.
So the coalgebra check, the comodule check, the one-dimensional solver,
`induce`, `character` and InducedComodule.verify look each value up once
per context.  They multiply and sum bare values, converting each to a Scalar
once, where the blocks and the HopfElement are built; the public
TwistedCoalgebra.tau(a, b) returns a value as a Scalar.

An InducedComodule keeps its coaction as a public dict of dense Matrix blocks,
which callers may read and replace.  Each block is mostly zero: from a source
of dimension m, one m x m sub-block per block is nonzero.  So `verify` builds
sparse row views {row: {col: nonzero bare value}} of the current blocks once
per call, indexed by G id and by position in the orbit closure U of their F
parts, sums the identity blocks' views for the counit, and its
coassociativity sweep multiplies, scales by tau and compares those views.
It reads its action table over G x U from P too: each g |> u is filled there
on its first read, through MatchedPair.act_left.
"""

from __future__ import annotations

import itertools

from .errors import (DimensionMismatch, InvalidCocycle, NonAbelianStabilizer,
                     NotARootOfUnity, NotInStabilizer, WrongGroup)
from .groups import closure
from .hopf import HopfElement
from .reports import sweep, verdict
from .matched_pair import group_ids
from .scalars import (Matrix, ONE, ZERO, as_scalar, bare, bare_inverse, commutant_dimension,
                      root_of_unity)


class TwistedCoalgebra:
    """k^(G_f) with the comultiplication twisted by tau(., .; f).

    G is indexed by the ids of the context's shared table, P =
    H.structure_constants.P, which number G as MatchedPair.gids and
    OrbitData do, so the stabilizer is `_od.stab_ids`, the identity `_one`, and
    products and inverses are P.gmul and P.ginv.  tau(a, b; f) is read from P as
    P.tau[a][b][fi] or P.fill_tau(a, b, fi), fi = P.fid(f): filled on its
    first read on the context, through `CocyclePair.tau`, and kept bare
    (scalars.bare).
    """

    def __init__(self, H, f):
        f = H.F.coerce(f)
        self.H = H
        self.f = f
        od = self._od = H.mp.orbit_data(f)
        self.stabilizer = od.stabilizer
        self.transversal = od.transversal
        sc = H.structure_constants
        self.P, self._one = sc.P, sc.one_g
        self._fi = self.P.fid(f)
        self._check_coalgebra()

    def _tau(self, a, b):
        "tau(a, b; f) at G ids a, b, bare, from the shared table."
        P, fi = self.P, self._fi
        return P.tau[a][b][fi] or P.fill_tau(a, b, fi)

    def tau(self, a, b):
        "tau(a, b; f) as a Scalar; an element of another group raises MixedGroups."
        G, gid = self.H.G, self.P.gid
        return as_scalar(self._tau(gid[G._member(a).key], gid[G._member(b).key]))

    def contains(self, g):
        "Whether g stabilizes f; an element of another group raises MixedGroups."
        return self._od.in_stabilizer(self.H.G._member(g))

    def delta(self, g):
        "The twisted coproduct of p_g, as {(g1, g2): coeff} over G_f x G_f."
        if not self.contains(g):
            raise NotInStabilizer("%r does not stabilize %r" % (g, self.f))
        P = self.P
        gs, ginv, row = P.gs, P.ginv, P.gmul[P.gid[g.key]]
        out = {}
        for x in self._od.stab_ids:
            gx = row[ginv[x]]
            out[(gs[gx], gs[x])] = as_scalar(self._tau(gx, x))
        return out

    def counit(self, g):
        if not self.contains(g):
            raise NotInStabilizer("%r does not stabilize %r" % (g, self.f))
        return ONE if g.is_identity() else ZERO

    def _check_coalgebra(self):
        """Coassociativity and counit of the twisted coproduct, exhaustively over G_f.

        The counit law reads tau(g, 1) and then tau(1, g) for each g: the terms
        of Delta(p_g) with a leg at 1 are p_g (x) p_1 and p_1 (x) p_g, so these
        are the only coefficients that eps (x) id and id (x) eps keep.
        """
        P, fi, sids = self.P, self._fi, self._od.stab_ids
        gs, mul, taus, fill, one = P.gs, P.gmul, P.tau, P.fill_tau, self._one
        # a tau value is never zero (CocyclePair.tau raises), so `or` only fills
        for a in sids:
            for b in sids:
                ab = mul[a][b]
                for c in sids:
                    # coefficient of p_a (x) p_b (x) p_c in both triple coproducts of p_(abc)
                    bc = mul[b][c]
                    if ((taus[ab][c][fi] or fill(ab, c, fi)) * (taus[a][b][fi] or fill(a, b, fi))
                            != (taus[a][bc][fi] or fill(a, bc, fi))
                            * (taus[b][c][fi] or fill(b, c, fi))):
                        raise InvalidCocycle("twisted coproduct not coassociative at "
                                             "(%r, %r, %r) over %r"
                                             % (gs[a], gs[b], gs[c], gs[mul[ab][c]]))
        # (eps (x) id) Delta(p_g) and (id (x) eps) Delta(p_g) are p_g: tau(1, g) = tau(g, 1) = 1
        for g in sids:
            if ((taus[g][one][fi] or fill(g, one, fi)) != 1
                    or (taus[one][g][fi] or fill(one, g, fi)) != 1):
                raise InvalidCocycle("counit law fails at %r" % gs[g])

    def __repr__(self):
        return "TwistedCoalgebra(f=%r, |G_f|=%d)" % (self.f, len(self.stabilizer))


class Comodule:
    "Right comodule over a twisted stabilizer coalgebra: matrices A^g, g in G_f."

    def __init__(self, coalgebra, dim, matrices):
        self.coalgebra = coalgebra
        self.dim = dim
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
    def from_coefficients(cls, coalgebra, dim, coeffs):
        "coeffs maps (l, i, g) with 1-based l, i to scalars: rho(v_i) = sum v_l (x) a_li^g p_g."
        G = coalgebra.H.G
        mats = {}
        for (l, i, g), c in coeffs.items():
            if not all(isinstance(n, int) and 1 <= n <= dim for n in (l, i)):
                raise DimensionMismatch("index (%r, %r) outside 1..%d" % (l, i, dim))
            M = mats.setdefault(G.coerce(g).key, [[ZERO] * dim for _ in range(dim)])
            M[l - 1][i - 1] = M[l - 1][i - 1] + as_scalar(c)
        return cls(coalgebra, dim, {G._element(k): Matrix(rows) for k, rows in mats.items()})

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
        gs, mul = C.P.gs, C.P.gmul
        M = {a: self.matrices[gs[a].key] for a in C._od.stab_ids}
        reports.append(sweep(
            "comodule-coassociativity", itertools.product(M, repeat=2),
            lambda a, b: M[a] * M[b] == M[mul[a][b]] * C._tau(a, b),
            witness=lambda inst: (gs[inst[0]], gs[inst[1]])))
        return reports

    def is_simple(self):
        "Simple iff the coefficient blocks have a one-dimensional commutant."
        return commutant_dimension(self.matrices.values(), self.dim) == 1

    def __repr__(self):
        return "Comodule(dim %d at f=%r)" % (self.dim, self.coalgebra.f)


# -- one-dimensional enumeration ----------------------------------------------

def _generating_subset(ids, mul, one):
    """A generating subset of the finite group of the ids `ids`: by decreasing
    element order, then by id, every id outside the closure of those before."""
    step = lambda k, g: mul[k][g]
    order = {i: len(closure(one, (i,), step)) for i in ids}
    gens, reached = [], {one}
    for i in sorted(ids, key=lambda i: (-order[i], i)):
        if i not in reached:
            gens.append(i)
            reached = closure(one, gens, step)
    return gens


def _onedim_tables(elements, ids, mul, one, tau):
    """Solutions a: K -> k* of a^1 = 1, a^g a^h = tau(g, h) a^(g h) on the finite
    abelian group K of the ids `ids`, elements[i] the element of id i:
    mul[i][j] is the id of the product, one that of the identity, and tau a
    normalized 2-cocycle given as a function of two ids, with bare values
    (scalars.bare).  Returns {id: Scalar} dicts, keyed in breadth-first order
    from 1.

    The value on each generator h is an n-th root of the telescoped tau product,
    so the candidate sets are finite and the search is complete.  Exactly |K|
    many when any exist; tau = 1 gives the characters of K.

    Each candidate is one breadth-first walk from 1 over the generator edges
    k -> kh: the edge that first reaches kh sets a^(kh) = a^k a^h / tau(k, h),
    dividing only when tau(k, h) != 1, and every other edge must agree.  The
    law at every (k, h) gives it at every (x, y) by induction on the word of y,
    as tau is a 2-cocycle (checked by TwistedCoalgebra._check_coalgebra;
    `_abelian_character_tables` passes 1):
    a^x a^(yh) = tau(x, y) tau(xy, h) a^(xyh) / tau(y, h) = tau(x, yh) a^(xyh).
    """
    gens = _generating_subset(ids, mul, one)
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

    def walk(values):
        "The table a with a^h = values on the generators, or None when an edge disagrees."
        a, queue = {one: ONE}, [one]
        for k in queue:  # the queue grows as the walk reaches new elements
            for g, v in zip(gens, values):
                kg, x, t = mul[k][g], a[k] * v, tau(k, g)
                if t != 1:
                    x = x / t
                if kg not in a:
                    a[kg] = x
                    queue.append(kg)
                elif a[kg] != x:
                    return None
        return a

    return [a for a in map(walk, itertools.product(*candidate_sets)) if a is not None]


def enumerate_onedim(coalgebra):
    """All one-dimensional comodules over an abelian twisted stabilizer coalgebra:
    the solutions of `_onedim_tables` with tau = tau(., .; f)."""
    C, P = coalgebra, coalgebra.P
    sids, gs, mul = C._od.stab_ids, P.gs, P.gmul
    if any(mul[a][b] != mul[b][a] for i, a in enumerate(sids) for b in sids[:i]):
        raise NonAbelianStabilizer("stabilizer of %r is non-abelian" % C.f)
    return [Comodule(C, 1, {gs[i]: Matrix._trusted([[v]]) for i, v in a.items()})
            for a in _onedim_tables(gs, sids, mul, C._one, C._tau)]


# -- induction and characters ----------------------------------------------------

class InducedComodule:
    """Comodule over the full Hopf algebra induced along the transversal.

    Basis (i, z) for i < dim(V), z in T_f; the coaction of each basis vector is

        sum_{x in G} tau(z_x^-1, g_x^-1; f)^-1 tau(z_x^-1 g_x^-1 z, z^-1; f)
                     A^(g_x^-1)[l, i]  (l, z_x) (x) p_(x^-1 z) # (z^-1 |> f)

    with x = g_x z_x the stabilizer/transversal factorization.  Each (z, x)
    writes one block of its own: the blocks of one z differ in x^-1 z, and
    those of two z in z^-1 |> f, as T_f holds one z per such point.
    """

    def __init__(self, source):
        C = source.coalgebra
        H = C.H
        gs, gmul, ginv = C.P.gs, C.P.gmul, C.P.ginv
        f = C.f
        m = source.dim
        od, tau = C._od, C._tau
        self.H = H
        self.base_point = f
        n = self.dim = m * len(od.trans_ids)
        offset = {z: k * m for k, z in enumerate(od.trans_ids)}  # row of (0, z)
        # the nonzero source entries (l, i, A^g[l, i]) per stabilizer G id g, bare
        entries = {g: [(l, i, bare(v)) for l, row in enumerate(source.matrices[gs[g].key].entries)
                       for i, v in enumerate(row) if v]
                   for g in od.stab_ids}
        blocks = {}
        for z in od.trans_ids:
            zinv, c0 = ginv[z], offset[z]
            ftarget = od.images[zinv]
            for x, (gx, zx) in enumerate(od.factor_ids):
                gxi, zxi = ginv[gx], ginv[zx]
                t = tau(zxi, gxi)
                coeff = tau(gmul[gmul[zxi][gxi]][z], zinv)
                if t != 1:
                    coeff = coeff * bare_inverse(t)
                if entries[gxi]:
                    rows, r0 = [[ZERO] * n for _ in range(n)], offset[zx]
                    for l, i, a in entries[gxi]:
                        rows[r0 + l][c0 + i] = as_scalar(coeff * a)
                    blocks[gs[gmul[ginv[x]][z]], ftarget] = Matrix._trusted(rows)
        self.blocks = blocks

    def verify(self):
        """Comodule axioms over the full Hopf algebra, on the block support.

        The counit sums the identity blocks' sparse row views (`_sparse_rows`,
        which rejects a block that is not dim x dim), and the coassociativity
        sweep multiplies, scales and compares those views, built once per call
        and indexed by G id and by position in U.  Ids, actions and tau come
        from the context's shared table (H.structure_constants.P): each g |> u
        and each tau(g, h; u) is read there, so once per context, not per call.
        """
        H = self.H
        G, mp = H.G, H.mp
        P = H.structure_constants.P
        gs, gmul, tau, fill_tau = P.gs, P.gmul, P.tau, P.fill_tau
        n = self.dim
        # a block keyed by another group's element raises MixedGroups, not read as its twin
        gids = [P.gid[G._member(g).key] for g, _ in self.blocks]
        views = [_sparse_rows(M, n) for M in self.blocks.values()]
        one = P.gid[G.one.key]
        total = {}
        for g, rows in zip(gids, views):
            if g == one:
                for r, row in rows.items():
                    acc = total.setdefault(r, {})
                    for c, v in row.items():
                        acc[c] = acc[c] + v if c in acc else v
        ok = all({c: v for c, v in total.get(r, {}).items() if v} == {r: 1} for r in range(n))
        reports = [verdict("induced-counit", None if ok else ("identity block sum",),
                           checked=1)]
        # quantify over G x U with U the orbit closure of the support's F parts;
        # outside U both sides of the axiom vanish identically.  orbit_data checks
        # each F part's membership before P.fid interns the orbit.
        parts = dict.fromkeys(u for _, u in self.blocks)
        U = list(dict.fromkeys(v for u in parts for v in mp.orbit_data(u).orbit))
        fids = [P.fid(v) for v in U]
        pos = {v: i for i, v in enumerate(U)}
        ng, nu = len(gs), len(U)
        empty = {}
        view = [[empty] * nu for _ in range(ng)]
        for g, (_, u), rows in zip(gids, self.blocks, views):
            view[g][pos[u]] = rows
        act = [[P.act_left(h, v) for v in fids] for h in range(ng)]

        def instances():
            for g in range(ng):
                for fk in range(nu):
                    B1 = view[g][fk]
                    for h in range(ng):
                        for u in range(nu):
                            yield g, fk, h, u, B1

        def holds(g, fk, h, u, B1):
            lhs = _sparse_mul(B1, view[h][u])
            if fids[fk] == act[h][u]:
                v = fids[u]
                return lhs == _sparse_scale(view[gmul[g][h]][u],
                                            tau[g][h][v] or fill_tau(g, h, v))
            return not lhs

        reports.append(sweep("induced-coassociativity", instances(), holds,
                             witness=lambda inst: ((gs[inst[0]], U[inst[1]]),
                                                   (gs[inst[2]], U[inst[3]]))))
        return reports

    def character_by_trace(self):
        "Trace of the coaction blocks; an independent route to the character."
        return HopfElement(self.H, {key: M.trace() for key, M in self.blocks.items()})

    def __repr__(self):
        return "InducedComodule(dim %d at f=%r)" % (self.dim, self.base_point)


def _sparse_rows(M, n):
    "{row: {col: bare value}} over the nonzero entries of M, which must be n x n."
    if M.rows != n or M.cols != n:
        raise DimensionMismatch("coaction block is %dx%d, not %dx%d" % (M.rows, M.cols, n, n))
    out = {}
    for r, row in enumerate(M.entries):
        nonzero = {c: bare(v) for c, v in enumerate(row) if v}
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
    "The sparse row view of A * s for a nonzero scalar s, A itself when s == 1; A's support."
    if s == 1:
        return A
    return {r: {c: v * s for c, v in row.items()} for r, row in A.items()}


def induce(V):
    return InducedComodule(V)


class Character:
    "The character of an induced comodule, as an element of the Hopf algebra."

    __slots__ = ("element", "base_point", "dim", "label")

    def __init__(self, element, base_point, dim, label=""):
        self.element = element
        self.base_point = base_point
        self.dim = dim
        self.label = label

    def __repr__(self):
        tag = self.label or ("chi@%r" % self.base_point)
        return "Character(%s, dim %d: %r)" % (tag, self.dim, self.element)

    def __eq__(self, other):
        if isinstance(other, Character):
            return self.element == other.element
        return NotImplemented

    __hash__ = None


def character(V):
    """Closed character formula for the induced comodule of V:

        sum_{z in T_f} sum_{g in G_f} tau(z^-1, g; f)^-1 tau(z^-1 g z, z^-1; f)
                                       (sum_i a_ii^g)  p_(z^-1 g z) # (z^-1 |> f)
    """
    C = V.coalgebra
    H = C.H
    gs, gmul, ginv = C.P.gs, C.P.gmul, C.P.ginv
    od, tau = C._od, C._tau
    f = C.f
    diags = [(g, bare(V.matrices[gs[g].key].trace())) for g in od.stab_ids]
    acc = {}
    for z in od.trans_ids:
        zinv = ginv[z]
        fz = od.images[zinv]
        for g, diag in diags:
            if not diag:
                continue
            zgz = gmul[gmul[zinv][g]][z]
            t = tau(zinv, g)
            coeff = tau(zgz, zinv) * diag
            if t != 1:
                coeff = coeff * bare_inverse(t)
            key = (gs[zgz], fz)
            acc[key] = acc[key] + coeff if key in acc else coeff
    elem = HopfElement(H, {key: as_scalar(v) for key, v in acc.items()})
    return Character(elem, f, V.dim * len(C.transversal))


def trivial_comodule(coalgebra):
    "The one-dimensional comodule with every coefficient equal to 1 (a^g = 1)."
    return Comodule(coalgebra, 1, {g: Matrix([[ONE]]) for g in coalgebra.stabilizer})


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
    return [Comodule(C, 1, {g: Matrix([[char[pi(g).key]]]) for g in H.G.elements()})
            for char in _abelian_character_tables(Cq)]


def _abelian_character_tables(G):
    "Characters of a finite abelian group: the tau = 1 solutions of `_onedim_tables`."
    elements, _, mul, _ = group_ids(G)
    one = next(i for i, e in enumerate(elements) if e.is_identity())
    return [{elements[i].key: v for i, v in a.items()}
            for a in _onedim_tables(elements, range(len(elements)), mul, one, lambda i, j: 1)]
