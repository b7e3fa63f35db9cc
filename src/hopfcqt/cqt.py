"""Candidate coquasitriangular structures and everything that constrains them.

RForm holds a finitely supported bilinear table R(p_g # f, p_h # f') with a
declared window (all of F x F when F is finite, a word-length bound
otherwise).  verify_R evaluates the defining families of a coquasitriangular
form, CQT0 to CQT3 and the convolution-inverse identity (Larson-Towber;
Kassel, Quantum Groups, VIII.5), and on request CQT4, the cotriangular
identity R * R21 = eps (x) eps, which is not a defining family: the zeta_3
bicharacter on Z3_Z3_trivial passes the others and fails it.
structural_zeros scans a support against the forced-zero rules of
_zero_rules, whose two mismatch rules also prune search_R's key set;
necessary_battery bundles the orbit/character conditions, each gated on its
structural hypotheses and swept on integer-id tables; all of them are
necessary except dual-orbit-product-commutation, a module-side condition
with a known counterexample (its docstring names it); the z2_* operations
specialize to |G| = 2.  Condition instances that would need R values beyond the window are
counted as unevaluated, never as passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .comodules import TwistedCoalgebra, character, enumerate_onedim, group_comodules
from .errors import (BadWindow, NonAbelianStabilizer, NotARootOfUnity, OutOfWindow,
                     SearchSpaceTooLarge, UnknownLevel, WrongGroup)
from .groups import z2_generator
from .matched_pair import _product_sets_commute, check_window, window_tables
from .reports import FAIL, SKIPPED, ConditionReport, all_passed, sweep, sweep_rows, verdict
from .scalars import ONE, ZERO, as_scalar, bare, rational


class RForm:
    """Finitely supported bilinear form on basis-key pairs, with a window.

    Inside the window an absent entry is exactly zero; outside the window the
    value is unknown and every condition instance that needs it is reported as
    out-of-window.  `_lengths` keeps each F element's word length, keyed by the
    element itself: one of another group never equals it and still raises
    MixedGroups.
    """

    def __init__(self, H, entries, window=None):
        self.H = H
        if window is None and not H.F.is_finite:
            raise BadWindow("an RForm over infinite F needs a word-length window")
        self.window = check_window(window)
        self._lengths = {}
        table = {}
        for (k1, k2), v in entries.items():
            v = as_scalar(v)
            if v.is_zero():
                continue
            k1, k2 = H._key(*k1), H._key(*k2)
            if not (self.in_window(k1[1]) and self.in_window(k2[1])):
                raise BadWindow("support entry outside the declared window: %r, %r"
                                 % (k1, k2))
            table[(k1, k2)] = v
        self.table = table

    def in_window(self, f):
        if self.window is None:
            return True
        n = self._lengths.get(f)
        if n is None:
            n = self._lengths[f] = self.H.F.element_length(f)
        return n <= self.window

    def try_value(self, key1, key2):
        "Scalar inside the window, None outside it."
        if not (self.in_window(key1[1]) and self.in_window(key2[1])):
            return None
        return self.table.get((key1, key2), ZERO)

    def value(self, key1, key2):
        v = self.try_value(self.H._key(*key1), self.H._key(*key2))
        if v is None:
            raise OutOfWindow("R value outside the declared window")
        return v

    def perturbed(self, key1, key2, value):
        "Copy with one entry replaced; for sensitivity tests."
        entries = dict(self.table)
        entries[(self.H._key(*key1), self.H._key(*key2))] = value
        return RForm(self.H, entries, window=self.window)  # drops a zero value

    def bilinear(self, x, y):
        "R extended bilinearly to elements; None if any needed value is out of window."
        total = ZERO
        for k1, c in x.terms.items():
            for k2, d in y.terms.items():
                v = self.try_value(k1, k2)
                if v is None:
                    return None
                if v:
                    total = total + c * d * v
        return total

    def __repr__(self):
        return "RForm(%d entries, window=%r)" % (len(self.table), self.window)


def eps_tensor_eps(H, window=None):
    "R(p_x # f, p_y # f') = [x = 1][y = 1]; the standard form on a commutative context."
    fs = H.mp.window(window)
    one = H.G.one
    entries = {((one, f), (one, fp)): ONE for f in fs for fp in fs}
    return RForm(H, entries, window=window)


class Memo(dict):
    "A dict that computes each missing entry once, as fn(key)."

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


# -- the CQT condition families -----------------------------------------------
#
# Each family is its defining identity over the int-indexed basis of the
# context's shared StructureConstants (HopfAlgebra.structure_constants, kept
# for the life of the context and grown by every verify_R on it): a, b, c are
# basis indices, a1 (x) a2 the coproduct legs of a, and grid[g][f] the index of
# the window key (g, f).  An instance sums each side of its identity exactly.
# Each level takes (sc, rv, grid) and reads R only through rv, the one _RView
# of R that verify_R builds per call: rv.support[p, q] is R's value at each
# entry of R.table, read once through RForm.try_value, in R.table order;
# rv.out[i], only when R has a window (else rv.out is None), is whether basis
# index i's F part lies outside it, tested once per index; and rv[p][q] is None
# when out[p] or out[q], else support.get((p, q), 0).  CQT1 and CQT2 run on the
# row engine (reports.sweep_rows), a row of c per (a, b): CQT1 hoists table[b],
# rv[a] and the legs of a with rv[a1] and rv[a2]; CQT2 hoists ab, rv[ab], rv[a]
# and rv[b].  CQT0 hoists the unit rows rv[u].  CQT3, whose sides are elements,
# compiles each (x, y) once per table into R-independent rows over read
# positions and walks rv.support block by block on the row engine too (see
# _cqt3).  R values, like the structure constants, are kept bare
# (scalars.bare): an int or Fraction when rational, else a Scalar.

class _RView(Memo):
    "rv[p][q] on the basis indices of sc, with rv.support and rv.out (see above)."

    def __init__(self, R, sc):
        support = self.support = {(sc.index(k1), sc.index(k2)): bare(R.try_value(k1, k2))
                                  for k1, k2 in R.table}
        out = self.out = None if R.window is None else Memo(
            lambda i: not R.in_window(sc.keys[i][1]))
        super().__init__(lambda p: Memo(lambda q: None if out is not None and (out[p] or out[q])
                                        else support.get((p, q), 0)))


def _qrange(R, qbound):
    """The F elements a CQT instance quantifies over: the window qbound, else R's
    window, which is None, and so all of F, only over finite F."""
    return R.H.mp.window(qbound if qbound is not None else R.window)


def _sum(rv, terms):
    """Sum of coef * R(p) * R(q) over the terms (coef, p, q).  None as soon as a
    term has a factor outside the window, even when its other factor is zero."""
    total = 0
    for coef, (p1, p2), (q1, q2) in terms:
        v = rv[p1][p2]
        w = rv[q1][q2]
        if v is None or w is None:
            return None
        if v and w:
            total += coef * v * w
    return total


def _keys(sc):
    "Witness of an instance of basis indices: their G parts, then their F parts."
    return lambda inst: tuple(sc.keys[i][0] for i in inst) + tuple(sc.keys[i][1] for i in inst)


def _cqt0(sc, rv, grid):
    """R(1, b) = eps(b) and R(b, 1) = eps(b), where 1 is the sum of the p_u # 1.  A
    unit's F part is in every window, so the left sum meets an out-of-window b first."""
    units = [sc.index((x, sc.H.F.one)) for x in sc.H.G.elements()]
    unit_rows = [rv[u] for u in units]

    def ok(b):
        left = 0
        for ru in unit_rows:
            v = ru[b]
            if v is None:
                return None
            left += v
        return left == sum(rv[b][u] for u in units) == int(sc.gkey[b] == sc.one_g)

    return sweep("CQT0", ((b,) for row in grid for b in row), ok, witness=_keys(sc))


def _cqt1(sc, rv, grid):
    "R(a, bc) = R(a1, c) R(a2, b)."
    ids = [i for row in grid for i in row]
    legs = Memo(lambda a: [(rv[a1], rv[a2], t) for a1, a2, t in sc.coproduct(a)])

    def first_bad(prefix, cs):
        a, b = prefix
        tb, ra, skipped = sc.table[b], rv[a], 0
        for n, c in enumerate(cs):
            bc = tb[c]
            if bc is None:
                bc = sc.product(b, c)
            lhs = ra[bc[0]] if bc else 0  # R(a, bc) = bc[1] * lhs
            if lhs is None:
                skipped += 1
                continue
            rhs = 0
            for r1, r2, t in legs[a]:
                v, w = r1[c], r2[b]
                if v is None or w is None:
                    rhs = None
                    break
                if v and w:
                    rhs += t * v * w
            if rhs is None:
                skipped += 1
            elif (lhs and lhs * bc[1]) != rhs:
                return n, skipped
        return None, skipped

    return sweep_rows("CQT1", (((a, b), row) for b in ids for row in grid for a in ids),
                      first_bad, _keys(sc))


def _cqt2(sc, rv, grid):
    "R(ab, c) = R(a, c1) R(b, c2)."
    product, coproduct = sc.product, sc.coproduct

    def first_bad(prefix, cs):
        a, b = prefix
        ab = product(a, b)
        rab, ra, rb, skipped = ab and rv[ab[0]], rv[a], rv[b], 0
        for n, c in enumerate(cs):
            lhs = rab[c] if ab else 0  # R(ab, c) = ab[1] * lhs
            if lhs is None:
                skipped += 1
                continue
            rhs = 0
            for c1, c2, t in coproduct(c):
                v, w = ra[c1], rb[c2]
                if v is None or w is None:
                    rhs = None
                    break
                if v and w:
                    rhs += t * v * w
            if rhs is None:
                skipped += 1
            elif (lhs and lhs * ab[1]) != rhs:
                return n, skipped
        return None, skipped

    return sweep_rows("CQT2", (((a, b), crow) for row in grid for a in row for brow in grid
                               for crow in grid for b in brow), first_bad, _keys(sc))


def _cqt3(sc, rv, grid):
    """y1 x1 R(x2, y2) = R(x1, y1) x2 y2 on the p_l component, l the G part of m.

    No term of either side depends on R, so each (x, y) is compiled on its
    first visit into sc.cqt3_rows[x, y], kept for the life of the table:
    (reads, components), reads the distinct R arguments of its terms in read
    order, and per component l a triple (l, the positions in reads that l
    reads, rows), one row per basis index k, [(position, merged coefficient
    of left - right)] with zero merges dropped.  A component holds when every
    row sums to 0.

    A row of the engine is a block (x's G row, y's G row), whose item
    t = (l's G row * nF + ix) * nF + iy is the instance (x, y, m), m the first
    index of l's G row; a failure's witness is (g, h, l, f, f') of the keys
    (g, f) of x, (h, f') of y and (l, .) of m.  The identity is linear in R,
    so a pair whose reads all miss rv.support is 0 = 0.  A component with a
    read outside R's window (rv.out) is unevaluated, even at a zero coefficient.
    """
    gkey, compiled = sc.gkey, sc.cqt3_rows

    def compile_rows(xy):
        x, y = xy
        merged = {}  # (l, k, R argument) -> coefficient of left - right, in read order
        for x1, x2, s in sc.coproduct(x):
            for y1, y2, t in sc.coproduct(y):
                st = s * t
                for coef, hit, pair in ((st, sc.product(y1, x1), (x2, y2)),
                                        (-st, sc.product(x2, y2), (x1, y1))):
                    if hit:
                        k, c = hit
                        key = gkey[k], k, pair
                        merged[key] = merged.get(key, 0) + coef * c
        pos = {pair: i for i, pair in enumerate(dict.fromkeys(pair for _, _, pair in merged))}
        comps = {}  # l -> (positions read, {k: row})
        for (l, k, pair), c in merged.items():
            reads, rows = comps.setdefault(l, ([], {}))
            reads.append(pos[pair])
            if c:
                rows.setdefault(k, []).append((pos[pair], c))
        compiled[xy] = (list(pos),
                        [(l, reads, list(rows.values())) for l, (reads, rows) in comps.items()])
        return compiled[xy]

    def holds(rows, vals):
        "Whether every row of a component sums to 0 on the values at the read positions."
        for row in rows:
            total = 0
            for i, c in row:
                v = vals[i]
                if v:
                    total += c * v
            if total:
                return False
        return True

    support, outside, nF = rv.support, rv.out, len(grid[0])
    hits = support.keys()
    row_of = {gkey[row[0]]: n for n, row in enumerate(grid)}

    def first_bad(prefix, items):
        xrow, yrow = prefix
        bad, skipped = [], []  # the items t that fail, and those unevaluated
        for ix, x in enumerate(xrow):
            for iy, y in enumerate(yrow):
                reads, comps = compiled.get((x, y)) or compile_rows((x, y))
                out = outside is not None and {i for i, (p, q) in enumerate(reads)
                                               if outside[p] or outside[q]}
                if not out and hits.isdisjoint(reads):
                    continue  # 0 = 0 on every component
                vals = [support.get(pair, 0) for pair in reads]
                for l, lreads, rows in comps:
                    t = (row_of[l] * nF + ix) * nF + iy
                    if out and not out.isdisjoint(lreads):
                        skipped.append(t)
                    elif not holds(rows, vals):
                        bad.append(t)
        if not bad:
            return None, len(skipped)
        t = min(bad)
        return t, sum(u < t for u in skipped)

    def witness(inst):
        xrow, yrow, t = inst
        lx, iy = divmod(t, nF)
        gl, ix = divmod(lx, nF)
        return _keys(sc)((xrow[ix], yrow[iy], grid[gl][0]))[:5]

    items = range(len(grid) * nF * nF)
    return sweep_rows("CQT3", (((xrow, yrow), items) for xrow in grid for yrow in grid),
                      first_bad, witness)


def _convolution(check, sc, rv, grid, term):
    "The sum over the legs of a and b of term(a1, a2, b1, b2, coef) = eps(a) eps(b)."
    def ok(a, b):
        total = _sum(rv, [term(a1, a2, b1, b2, s * t) for a1, a2, s in sc.coproduct(a)
                          for b1, b2, t in sc.coproduct(b)])
        return None if total is None else total == int(sc.gkey[a] == sc.one_g == sc.gkey[b])

    return sweep(check, ((a, b) for arow in grid for brow in grid for a in arow for b in brow),
                 ok, witness=_keys(sc))


def _cqt4(sc, rv, grid):
    "R(a1, b1) R(b2, a2) = eps(a) eps(b), the cotriangular R * R21 = eps (x) eps."
    return _convolution("CQT4", sc, rv, grid,
                        lambda a1, a2, b1, b2, c: (c, (a1, b1), (b2, a2)))


def _cqt_inverse(sc, rv, grid):
    "R(S(a1), b1) R(a2, b2) = eps(a) eps(b): R(S(.), .) is a convolution inverse of R."
    def term(a1, a2, b1, b2, c):
        s, d = sc.antipode(a1)
        return c * d, (s, b1), (a2, b2)

    return _convolution("CQT-convolution-inverse", sc, rv, grid, term)


_LEVELS = {0: _cqt0, 1: _cqt1, 2: _cqt2, 3: _cqt3, 4: _cqt4, "inv": _cqt_inverse}


def verify_R(R, levels=(0, 1, 2, 3), qbound=None):
    """Run the requested condition families over the quantifier range: qbound bounds F
    word length over infinite F; over finite F every element is swept whatever the bound."""
    for lv in levels:
        if lv not in _LEVELS:
            raise UnknownLevel("unknown CQT level %r (choose from %s)"
                               % (lv, ", ".join(str(level) for level in _LEVELS)))
    sc = R.H.structure_constants
    grid = [[sc.index((g, f)) for f in _qrange(R, qbound)] for g in R.H.G.elements()]
    rv = _RView(R, sc)
    return [_LEVELS[lv](sc, rv, grid) for lv in levels]


# -- structural zeros -----------------------------------------------------------

def _zero_rules(H):
    """The forced-zero rules as (check, detail, forced): forced(g, f, h, f') is
    True when R(p_g # f, p_h # f') must vanish, detail formats its value.

    The product-mismatch zero ff' != (h |> f')(g |> f); the abelian-F
    stabilizer-mismatch zero (exactly one of g in G_f, h in G_f'); and the
    identity-column zero R(p_g # f, p_h # 1) = 0 for g outside G_f, with the
    mirrored identity-row zero.
    """
    F, act = H.F, H.mp.act_left

    def moves(g, f):
        return act(g, f) != f

    rules = [("product-mismatch", "ff' differs from (h|>f')(g|>f) but R = {!r}",
              lambda g, f, h, fp: F.mul(f, fp) != F.mul(act(h, fp), act(g, f)))]
    if F.is_abelian():
        rules.append(("stabilizer-mismatch", "exactly one of g, h stabilizes its base point",
                      lambda g, f, h, fp: moves(g, f) != moves(h, fp)))
    return rules + [
        ("identity-column", "g moves f or g|>f yet R(p_g#f, p_h#1) = {!r}",
         lambda g, f, h, fp: fp.is_identity() and moves(g, f)),
        ("identity-row", "h moves f' or h|>f' yet R(p_g#1, p_h#f') = {!r}",
         lambda g, f, h, fp: f.is_identity() and moves(h, fp))]


def structural_zeros(R):
    "Support entries that contradict a forced-zero rule, per entry in rule order."
    rules = _zero_rules(R.H)
    return [ConditionReport("structural-zero:" + check, FAIL, witness=(g, f, h, fp),
                            detail=detail.format(v))
            for ((g, f), (h, fp)), v in R.table.items()
            for check, detail, forced in rules if forced(g, f, h, fp)]


# -- necessary-condition battery --------------------------------------------------

def _product_commutation_sweep(check, points, commutes):
    "commutes(p, q)[0] over points x points; a failure's witness is (p, q, commutes' witness)."
    return sweep(check, itertools.product(points, points), lambda p, q: commutes(p, q)[0],
                 witness=lambda pair: pair + (commutes(*pair)[1],))


def _orbit_ids(T, f):
    "(stabilizer ids, their set, transversal ids, orbit F ids) at the F id f of T."
    od = T.mp.orbit_data(T.fs[f])
    return od.stab_ids, set(od.stab_ids), od.trans_ids, [T.fid(u) for u in od.orbit]


def check_orbit_commutation(mp, window=4):
    """O_f O_f' = O_f' O_f for all pairs on the window: a word-length bound, or a
    PairTables built on mp whose word_bound it is (matched_pair.window_tables).
    The orbits are read as F ids of that table and multiplied through its mul;
    the witness, as in MatchedPair.orbit_product_commutes, is mapped back to
    elements."""
    T = window_tables(window, mp)
    fs, mul = T.fs, T.mul
    orbits = Memo(lambda f: _orbit_ids(T, f)[3])

    def commutes(f, fp):
        return _product_sets_commute(mul, orbits[f], orbits[fp])

    report = _product_commutation_sweep("orbit-product-commutation", range(T.nf), commutes)
    if report.failed:
        report.witness = tuple(fs[i] for i in report.witness)
        report.detail = "product element in only one of the two orbit sets"
    return report


def check_dual_orbit_commutation(mp):
    "O'_g O'_g' = O'_g' O'_g for all pairs; needs finite F."
    if not mp.F.is_finite:
        return ConditionReport("dual-orbit-product-commutation", SKIPPED,
                               detail="F infinite: the dual-orbit condition needs finite F")
    return _product_commutation_sweep("dual-orbit-product-commutation", mp.G.elements(),
                                      mp.dual_orbit_product_commutes)


def _onedim_simples_at(H, f):
    "The auto-enumerable one-dimensional simples over the stabilizer coalgebra at f."
    try:
        return enumerate_onedim(TwistedCoalgebra(H, f))
    except (NonAbelianStabilizer, NotARootOfUnity):
        return []


def _char_values(V):
    "Readable value list of a one-dimensional comodule, for witnesses."
    C = V.coalgebra
    return "(" + ", ".join("%r:%r" % (g, V.matrix(g)[0, 0]) for g in C.stabilizer) + ")"


def _traces(V, gs):
    """(V, its character as a list of bare traces by G id), read once from V.matrices;
    None at a g outside V's stabilizer, which no gate reads (necessary_battery)."""
    C, M = V.coalgebra, V.matrices
    return V, [bare(M[g.key].trace()) if C.contains(g) else None for g in gs]


def necessary_battery(H, window=4, quotients=()):
    """The orbit and character conditions for a coquasitriangular structure to exist.

    Past the two orbit checks, each sub-check runs through one gate: it is
    SKIPPED, with the first of its structural hypotheses that fails on the
    window as the detail, or else swept.  The character-quantified checks
    range over one list of characters of G: the auto-enumerated simples at
    1_F (abelian G) plus the lifts along the quotient maps.

    The battery is obstructed when some report fails (not reports.all_passed).
    A failure of any sub-check but one certifies that no coquasitriangular
    structure exists.  The exception is dual-orbit-product-commutation: the
    dual orbits O'_g index the simple H-modules, so commuting their products
    is a module-side (quasitriangular) condition, and it fails on X = S4,
    F = K4, G = S3 with trivial cocycles, where H is commutative and
    eps (x) eps is coquasitriangular (tests/test_battery_tables.py pins it).

    Precondition: H is a Hopf algebra on the window: H.mp.verify and H.cp.verify
    pass (every catalog entry pins both, `hopfcqt cqt-necessary` runs both
    first).  On a context that fails them, "no obstruction" says nothing.

    Every check reads the window of one matched_pair.PairTables: window when it
    is one built on H's pair and cocycles (catalog.run_entry and `hopfcqt
    cqt-necessary` share theirs; any other table raises ContextMismatch), else
    a fresh one on the bound window; the orbit check runs on it too, the
    dual-orbit check needs no window.
    The gates run on its integer ids, each entry filled on its first read
    through MatchedPair.act_left/act_right or CocyclePair.sigma/tau;
    witnesses are mapped back to elements.  The four hypotheses (|> trivial,
    <| trivial, sigma = 1, tau = 1 on G x window) are read there, g-major, so
    a broken cocycle raises at the object path's first lookup.  Each one-dimensional character is read once into a list of bare
    traces by G id (`_traces`), None off its stabilizer, where no gate reads it:
    the characters of G live at 1_F, whose stabilizer OrbitData checks to be G
    (g |> 1 = 1), and central-character-exchange, the one gate that reads simples
    elsewhere, runs only when |> is trivial on the window: every stabilizer is G.
    """
    mp, cp = H.mp, H.cp
    G, F = H.G, H.F
    T = window_tables(window, mp, cp)
    reports = [check_orbit_commutation(mp, T), check_dual_orbit_commutation(mp)]

    def gate(name, hypotheses, instances, ok, witness=tuple):
        "SKIPPED with the detail of the first failing (holds, detail), else the sweep."
        unmet = next((detail for holds, detail in hypotheses if not holds), None)
        reports.append(sweep(name, instances, ok, witness) if unmet is None
                       else ConditionReport(name, SKIPPED, detail=unmet))

    gs, fs = T.gs, T.fs  # fs grows past the window as images get ids
    gids, fids = range(len(gs)), range(T.nf)
    gmul, ginv, left, right = T.gmul, T.ginv, T.act_left, T.act_right
    # a cocycle value is never 0, so `or` only fills
    S, sig, Tau, tau = T.sigma, T.fill_sigma, T.tau, T.fill_tau

    # one stabilizer coalgebra per base point for the whole battery; OrbitData checks
    # that the stabilizer at 1_F is G, whose characters are enumerated for abelian G only
    simples_at = Memo(lambda f: [_traces(V, gs) for V in _onedim_simples_at(H, fs[f])])
    chars = simples_at[T.fid(F.one)] + [_traces(V, gs) for pi in quotients
                                        for V in group_comodules(H, quotient=pi)]

    left_trivial = all(left(g, f) == f for g in gids for f in fids)
    central = all(right(g, f) == g for g in gids for f in fids)
    sigma_triv = all((S[g][f][fp] or sig(g, f, fp)) == 1
                     for g in gids for f in fids for fp in fids)
    tau_triv = all((Tau[g][gp][f] or tau(g, gp, f)) == 1
                   for g in gids for gp in gids for f in fids)
    g_ab = G.is_abelian()
    have_chars = (chars, "no simple comodules over the dual of G available")

    orbits = Memo(lambda f: _orbit_ids(T, f))

    def invariant(f, g, z, w, *_):
        """w(zgz <| (z^-1 |> f)) = w(zgz), zgz = z^-1 g z.  Character-product-commutation
        multiplies both sides by v(g), v a simple at f, which cancels: a value of a
        one-dimensional comodule is never 0, as v(g) v(g^-1) = tau(g, g^-1) v(1)."""
        zi = ginv[z]
        zgz = gmul[gmul[zi][g]][z]
        return w[right(zgz, left(zi, f))] == w[zgz]

    # character-product commutation constraint
    reps = [T.fid(rep) for rep in {rep.key: rep for rep in map(mp.orbit_representative,
                                                                fs[:T.nf])}.values()]

    def char_products():
        for f in reps:
            stab, _, trans, _ = orbits[f]
            for V, _ in simples_at[f]:
                for W, w in chars:
                    for g in stab:
                        for z in trans:
                            yield f, g, z, w, V, W

    gate("character-product-commutation", [have_chars], char_products(), invariant,
         witness=lambda i: (fs[i[0]], _char_values(i[4]), _char_values(i[5]), gs[i[1]],
                            gs[i[2]]))

    # stabilizer action constraint (abelian G, trivial tau)
    def stabilizer_action_ok(g, f, fp, of, op):
        (_, stab_f, _, orbit_f), (_, stab_p, _, orbit_p) = of, op
        gin_f, gin_fp = g in stab_f, g in stab_p
        hits_fp = any(right(g, u) in stab_p for u in orbit_f)
        if gin_f and not gin_fp and hits_fp:
            return False  # part 1
        if gin_f and gin_fp:  # part 2
            return hits_fp == any(right(g, u) in stab_f for u in orbit_p)
        return True

    gate("stabilizer-action-constraint",
         [(g_ab and tau_triv, "needs abelian G and trivial tau")],
         ((g, f, fp, orbits[f], orbits[fp]) for f in fids for fp in fids for g in gids),
         stabilizer_action_ok,
         witness=lambda i: ("part-2" if i[0] in i[4][1] else "part-1",
                            gs[i[0]], fs[i[1]], fs[i[2]]))

    # sigma symmetry on central abelian contexts
    gate("sigma-symmetry-on-central-abelian",
         [(g_ab and F.is_abelian() and tau_triv and central,
           "needs abelian G and F, trivial tau, central extension")],
         ((g, f, fp) for f in fids for fp in fids for g in gids
          if g in orbits[f][1] and g in orbits[fp][1]),
         lambda g, f, fp: (S[g][f][fp] or sig(g, f, fp)) == (S[g][fp][f] or sig(g, fp, f)),
         witness=lambda i: (gs[i[0]], fs[i[1]], fs[i[2]]))

    # class-sum invariance (trivial tau)
    def class_sums():
        for f in fids:
            stab, _, trans, _ = orbits[f]
            for W, w in chars:
                for g in stab:
                    for z in trans:
                        yield f, g, z, w, W

    gate("class-sum-action-invariance", [(tau_triv, "needs trivial tau"), have_chars],
         class_sums(), invariant,
         witness=lambda i: (fs[i[0]], _char_values(i[4]), gs[i[1]], gs[i[2]]))

    # exchange identity when the left action is trivial
    def exchanges():
        for f in fids:
            for fp in fids:
                for (V, v), (W, w), g in itertools.product(simples_at[f], simples_at[fp], gids):
                    yield f, fp, V, W, g, v, w

    def exchange_ok(f, fp, V, W, g, v, w):
        return (v[g] * w[right(g, f)] * (S[g][f][fp] or sig(g, f, fp))
                == v[right(g, fp)] * w[g] * (S[g][fp][f] or sig(g, fp, f)))

    gate("central-character-exchange",
         [(left_trivial, "needs trivial |> (every stabilizer is G)"),
          # the simples are built only when the first hypothesis holds
          (left_trivial and any(simples_at[f] for f in fids), "no simple comodules available")],
         exchanges(), exchange_ok,
         witness=lambda i: (fs[i[0]], fs[i[1]], _char_values(i[2]), _char_values(i[3]),
                            gs[i[4]]))

    # quotient-character exchange and one-dimensional invariance (trivial cocycles)
    trivial = [(left_trivial and sigma_triv and tau_triv, "needs trivial |> and trivial cocycles"),
               (chars, "no one-dimensional characters available")]
    gate("quotient-character-exchange", trivial, itertools.product(chars, chars, gids, fids, fids),
         lambda a, b, g, f, fp: (a[1][g] * b[1][right(g, f)] == a[1][right(g, fp)] * b[1][g]),
         witness=lambda i: (_char_values(i[0][0]), _char_values(i[1][0]),
                            gs[i[2]], fs[i[3]], fs[i[4]]))
    gate("onedim-character-action-invariance", trivial, itertools.product(chars, gids, fids),
         lambda a, g, f: a[1][g] == a[1][right(g, f)],
         witness=lambda i: (_char_values(i[0][0]), gs[i[1]], fs[i[2]],
                            i[0][0].diagonal_sum(gs[i[1]]),
                            i[0][0].diagonal_sum(gs[right(i[1], i[2])])))
    return reports


# -- bicharacter restriction -------------------------------------------------------

def _grouplikes_on_fixed_part(H, S):
    """Group-like elements sum_g a^g p_g # f for f in the fixed part S.

    Solutions a of a^(yx) tau(y, x; f) = a^y a^x; for abelian G these are the
    twisted characters enumerated per base point.  At a fixed f the stabilizer
    is G and T_f = {1}, so the character of the one-dimensional comodule a is
    that group-like.  Returns (f, comodule, element) triples.
    """
    return [(f, V, character(V).element)
            for f in S for V in enumerate_onedim(TwistedCoalgebra(H, f))]


def bicharacter_restriction_check(R, word_bound=None):
    """On a central-on-S context, R restricted to the fixed-part group algebra
    must be a bicharacter on its group-like basis.

    Reports the structural conclusions (S abelian, sigma symmetric on S, the
    fixed part carries a full basis of group-likes) and the three bicharacter
    laws; hypothesis failures are reported, not raised.
    """
    H = R.H
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    reports = []
    S = mp.fixed_points(word_bound if word_bound is not None else R.window)

    central = all(mp.act_right(g, f) == g for g in G.elements() for f in S)
    reports.append(verdict("central-on-fixed-part",
                           None if central else ("<| not trivial on the fixed part",),
                           checked=len(S) * G.order()))
    if not central:
        return reports

    reports.append(verdict("fixed-part-abelian", F.noncommuting_pair(S), checked=len(S) ** 2))

    witness = next(((g, a, b) for g in G.elements() for a in S for b in S
                    if cp.sigma(g, a, b) != cp.sigma(g, b, a)), None)
    reports.append(verdict("sigma-symmetric-on-fixed-part", witness,
                           checked=G.order() * len(S) ** 2))

    if not G.is_abelian():
        reports.append(ConditionReport(
            "grouplike-basis", SKIPPED,
            detail="non-abelian G: one-dimensional simples not auto-enumerable"))
        return reports
    try:
        gls = _grouplikes_on_fixed_part(H, S)
    except NotARootOfUnity as e:
        reports.append(ConditionReport("grouplike-basis", SKIPPED, detail=str(e)))
        return reports
    per_f = {}
    for f, V, elem in gls:
        per_f[f.key] = per_f.get(f.key, 0) + 1
    full = all(n == G.order() for n in per_f.values()) and len(per_f) == len(S)
    reports.append(verdict(
        "grouplike-basis", None if full else ("per-base-point group-like counts", per_f),
        detail="the fixed-part subalgebra is spanned by group-likes iff each "
               "base point carries |G| of them",
        checked=len(gls)))

    one_elem = H.unit()
    elems = [e for (_, _, e) in gls]

    def unit_ok(e):
        v1, v2 = R.bilinear(one_elem, e), R.bilinear(e, one_elem)
        if v1 is None or v2 is None:
            return None
        return v1.is_one() and v2.is_one()

    reports.append(sweep("bicharacter-unit", ((e,) for e in elems), unit_ok,
                         witness=lambda inst: ("unit law",) + inst))

    def triples():
        for e1, e2 in itertools.product(elems, elems):
            prod = e1 * e2
            if any(not R.in_window(k[1]) for k in prod.terms):
                yield e1, e2, None, prod  # one unevaluated instance per product
                continue
            for e3 in elems:
                yield e1, e2, e3, prod

    def multiplicative(e1, e2, e3, prod):
        if e3 is None:
            return None
        left = R.bilinear(prod, e3)
        parts = (R.bilinear(e1, e3), R.bilinear(e2, e3))
        right = R.bilinear(e3, prod)
        parts2 = (R.bilinear(e3, e1), R.bilinear(e3, e2))
        if any(v is None for v in (left, right, *parts, *parts2)):
            return None
        return left == parts[0] * parts[1] and right == parts2[0] * parts2[1]

    reports.append(sweep("bicharacter-multiplicative", triples(), multiplicative,
                         witness=lambda inst: inst[:3]))
    return reports


# -- |G| = 2 specials ---------------------------------------------------------------

def z2_r11_solve():
    """The two possible value patterns of R on the four (., 1) x (., 1) entries.

    Parametrizing k = R(p_1 # 1, p_g # 1), the counit row/column sums force
    (1-k, k, k, -k), and the product condition at the identity forces
    1 - k = (1 - k)^2 + k^2, i.e. 2k^2 - k = k (2k - 1) = 0: k = 0 or k = 1/2.
    """
    cases = []
    for k in (Fraction(0), Fraction(1, 2)):
        cases.append({
            "k": k,
            "table": {("1", "1"): rational(1 - k), ("1", "g"): rational(k),
                      ("g", "1"): rational(k), ("g", "g"): rational(-k)},
        })
    return cases


def z2_r11_rform(H, case):
    "Build the RForm on an F-trivial |G| = 2 context from a z2_r11_solve case."
    z2_generator(H.G)
    one_f = H.F.one
    entries = {}
    for (xn, yn), v in case["table"].items():
        entries[((H.G.parse(xn), one_f), (H.G.parse(yn), one_f))] = v
    window = None if H.F.is_finite else 0
    return RForm(H, entries, window=window)


def z2_remark_diagnostics(R, qbound=None):
    """The either/or constraints at the identity block, split on k = R(p_1#1, p_g#1).

    k = 1/2: each (x, h, f, f') instance must have a vanishing product or the
    quarter identity tau(g,g;f) R(p_g#(g|>f), p_h#1) R(p_g#f, p_h#1) = 1/4.
    k = 0: the two either/or product equations.  Returns one report, or a note
    when the identity block matches neither dichotomy case.
    """
    H = R.H
    G, mp, cp = H.G, H.mp, H.cp
    g = z2_generator(G)
    one = G.one
    one_f = H.F.one
    k = R.try_value((one, one_f), (g, one_f))
    fs = _qrange(R, qbound)
    half = rational(1, 2)
    quarter = rational(1, 4)
    gs = G.elements()
    if k == half:
        def quarter_instances():
            for x, h, f in itertools.product(gs, gs, fs):
                gf = mp.act_left(g, f)
                for fp in fs:
                    yield x, h, f, fp, gf

        def quarter_ok(x, h, f, fp, gf):
            r1 = R.try_value((G.mul(x, g), gf), (h, fp))
            r2 = R.try_value((g, f), (h, one_f))
            r3 = R.try_value((g, gf), (h, one_f))
            if r1 is None or r2 is None or r3 is None:
                return None
            return (r1 * r2).is_zero() or cp.tau(g, g, f) * r3 * r2 == quarter

        return sweep("z2-remark-quarter-identity", quarter_instances(), quarter_ok,
                     witness=lambda inst: inst[:4])
    if k == ZERO:
        def unit_products_ok(x, f, fp):
            vals = (R.try_value((x, f), (one, fp)),
                    R.try_value((one, f), (one, one_f)),
                    R.try_value((x, one_f), (one, fp)),
                    R.try_value((x, f), (g, fp)),
                    R.try_value((one, f), (g, one_f)),
                    R.try_value((x, one_f), (one, mp.act_left(g, fp))))
            if any(v is None for v in vals):
                return None
            ra, rb1, rb2, rc, rd1, rd2 = vals
            first = ra.is_zero() or (rb1.is_one() and rb2.is_one())
            second = rc.is_zero() or (rd1.is_one() and rd2.is_one())
            return first and second

        return sweep("z2-remark-unit-products", itertools.product(gs, fs, fs),
                     unit_products_ok)
    return ConditionReport("z2-remark-diagnostics", SKIPPED,
                           detail="identity block has k = %r, outside the 0 / 1/2 dichotomy" % k)


def z2_shape_classify(R, qbound=None):
    """Classify the support of R on a |G| = 2, abelian-F, mixed context.

    Shape (1): the g row and column vanish identically (support only on
    (p_1, p_1) entries).  Shape (2): the four fixed/moved membership patterns.
    Anything else is nonconforming, with the first offending entry as witness.
    Also scans the two forced zero-product identities on the support and
    attaches the identity-block dichotomy diagnostics.
    """
    H = R.H
    G, F, mp = H.G, H.F, H.mp
    g = z2_generator(G)
    if not F.is_abelian():
        return {"verdict": "hypothesis-not-met",
                "reports": [ConditionReport("z2-shape", SKIPPED, detail="F not abelian")]}
    fs = _qrange(R, qbound)

    def fixed(f):
        return mp.act_left(g, f) == f

    if all(map(fixed, fs)):
        return {"verdict": "hypothesis-not-met",
                "reports": [ConditionReport(
                    "z2-shape", SKIPPED,
                    detail="no moved base points in the window (the fixed part is everything)")]}

    def conforms(x, f, y, fp):
        "The four membership patterns of shape (2): f is fixed iff y = 1, f' iff x = 1."
        return fixed(f) == y.is_identity() and fixed(fp) == x.is_identity()

    entries = [(x, f, y, fp) for (x, f), (y, fp) in R.table]
    ones = [e for e in entries if e[0].is_identity() and e[2].is_identity()]
    gg = [e for e in entries if not (e[0].is_identity() or e[2].is_identity())]
    shape1_witness = next((e for e in entries
                           if not (e[0].is_identity() and e[2].is_identity())), None)
    shape2_witness = next((e for e in entries if not conforms(*e)), None)
    shape1, shape2 = shape1_witness is None, shape2_witness is None
    zero_product_witness = next(
        ((a, b) for a in ones for b in gg
         if (b[1] == a[1] and not fixed(a[1]) and not fixed(b[3]))
         or (b[3] == a[3] and not fixed(a[3]) and not fixed(b[1]))), None)

    if shape1:
        shape = "shape(1)"
    elif shape2 and zero_product_witness is None:
        shape = "shape(2)"
    else:
        shape = "nonconforming"
    reports = [
        verdict("z2-shape-1", shape1_witness, checked=len(R.table),
                detail="support confined to the (p_1, p_1) block"),
        verdict("z2-shape-2", shape2_witness, checked=len(R.table),
                detail="support follows the four fixed/moved membership patterns"),
        verdict("z2-zero-products", zero_product_witness, checked=len(R.table) ** 2,
                detail="forced vanishing of (p_1,p_1) x (p_g,p_g) support pairs"),
        z2_remark_diagnostics(R, qbound),
    ]
    return {"verdict": shape, "shape1": shape1, "shape2": shape2, "reports": reports}


# -- constrained enumeration -----------------------------------------------------

# The backtracking nodes search_R visits before it gives up.
SEARCH_MAX_NODES = 10 ** 6


def search_R(H, values):
    """Enumerate R tables over a finite value set that pass CQT0-CQT3.

    Only for finite contexts with |G| * |F| <= 8.  The two mismatch zeros of
    _zero_rules prune the key set; the identity row/column sums (CQT0) prune
    during assignment; the survivors are verified in full.  Raises
    SearchSpaceTooLarge beyond SEARCH_MAX_NODES.

    Each sum is checked once, at the position of its last key, the first at
    which all its keys hold values (closes[pos], rows before columns).  A sum
    is collected from the keys that read it, so none is empty.
    """
    G, F = H.G, H.F
    if not F.is_finite or G.order() * F.order() > 8:
        raise WrongGroup("search limited to |G| * |F| <= 8")
    values = [as_scalar(v) for v in values]
    mismatch = [forced for check, _, forced in _zero_rules(H) if check.endswith("-mismatch")]
    basis = list(itertools.product(G.elements(), F.elements()))
    keys = [(gf, hfp) for gf in basis for hfp in basis
            if not any(forced(*gf, *hfp) for forced in mismatch)]

    one_f = F.one
    row_groups = {}
    col_groups = {}
    for idx, ((g, f), (h, fp)) in enumerate(keys):
        if f == one_f:
            row_groups.setdefault((h, fp), []).append(idx)
        if fp == one_f:
            col_groups.setdefault((g, f), []).append(idx)
    closes = {}
    for groups in (row_groups, col_groups):
        for (x, _), idxs in groups.items():
            closes.setdefault(idxs[-1], []).append((idxs, ONE if x.is_identity() else ZERO))

    found = []
    assignment = [None] * len(keys)
    nodes = 0

    def backtrack(pos):
        nonlocal nodes
        nodes += 1
        if nodes > SEARCH_MAX_NODES:
            raise SearchSpaceTooLarge("exceeded %d nodes" % SEARCH_MAX_NODES)
        if pos == len(keys):
            entries = {keys[i]: assignment[i] for i in range(len(keys))
                       if not assignment[i].is_zero()}
            R = RForm(H, entries)
            if all_passed(verify_R(R)):
                found.append(R)
            return
        for v in values:
            assignment[pos] = v
            if all(sum((assignment[i] for i in idxs), ZERO) == want
                   for idxs, want in closes.get(pos, ())):
                backtrack(pos + 1)
        assignment[pos] = None

    backtrack(0)
    return found
