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

from .comodules import TwistedCoalgebra, enumerate_onedim, group_comodules
from .errors import (BadWindow, IrrationalRoots, NonAbelianStabilizer, NotARootOfUnity,
                     NotInStabilizer, OutOfWindow, SearchSpaceTooLarge, UnknownLevel,
                     WrongGroup)
from .hopf import HopfElement
from .matched_pair import PairTables, check_window
from .reports import FAIL, SKIPPED, ConditionReport, sweep, verdict
from .scalars import ONE, ZERO, as_scalar, bare, rational


class RForm:
    """Finitely supported bilinear form on basis-key pairs, with a window.

    Inside the window an absent entry is exactly zero; outside the window the
    value is unknown and every condition instance that needs it is reported as
    out-of-window.
    """

    def __init__(self, H, entries, window=None):
        self.H = H
        if window is None and not H.F.is_finite:
            raise BadWindow("an RForm over infinite F needs a word-length window")
        self.window = check_window(window)
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
        return self.H.F.element_length(f) <= self.window

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
# basis indices, a1 (x) a2 the coproduct legs of a, and grid[g][f] the index
# of the window key (g, f).  An instance sums each side of its identity
# exactly, reading R through rv, a memo of RForm.try_value on index pairs,
# one per call.  CQT3, whose sides are elements, compiles each (x, y) once
# per table into R-independent rows (see _cqt3).  R values, like the
# structure constants, are kept bare (scalars.bare): an int or Fraction when
# rational, else a Scalar.

def _qrange(R, qbound):
    """The F elements a CQT instance quantifies over: the window qbound, else R's
    window, which is None, and so all of F, only over finite F."""
    return R.H.mp.window(qbound if qbound is not None else R.window)


def _sum(rv, terms):
    """Sum of coef * R(p) * R(q) over the terms (coef, p, q).  None as soon as a
    term has a factor outside the window, even when its other factor is zero."""
    total = 0
    for coef, p, q in terms:
        v = rv[p]
        w = rv[q]
        if v is None or w is None:
            return None
        if v and w:
            total += coef * v * w
    return total


def _keys(sc):
    "Witness of an instance of basis indices: their G parts, then their F parts."
    return lambda inst: tuple(sc.keys[i][0] for i in inst) + tuple(sc.keys[i][1] for i in inst)


def _cqt0(sc, rv, grid):
    "R(1, b) = eps(b) and R(b, 1) = eps(b), where 1 is the sum of the p_u # 1."
    units = [sc.index((x, sc.H.F.one)) for x in sc.H.G.elements()]

    def ok(b):
        sums = [0, 0]
        for side, p in [(0, (u, b)) for u in units] + [(1, (b, u)) for u in units]:
            v = rv[p]
            if v is None:
                return None
            sums[side] += v
        return sums[0] == sums[1] == int(sc.gkey[b] == sc.one_g)

    return sweep("CQT0", ((b,) for row in grid for b in row), ok, witness=_keys(sc))


def _cqt1(sc, rv, grid):
    "R(a, bc) = R(a1, c) R(a2, b)."
    ids = [i for row in grid for i in row]

    def ok(a, b, c):
        bc = sc.product(b, c)
        lhs = rv[a, bc[0]] if bc else 0  # R(a, bc) = bc[1] * lhs
        rhs = None if lhs is None else _sum(rv, [(t, (a1, c), (a2, b))
                                                 for a1, a2, t in sc.coproduct(a)])
        return None if rhs is None else (lhs and lhs * bc[1]) == rhs

    return sweep("CQT1", ((a, b, c) for b in ids for row in grid for a in ids for c in row),
                 ok, witness=_keys(sc))


def _cqt2(sc, rv, grid):
    "R(ab, c) = R(a, c1) R(b, c2)."
    def ok(a, b, c):
        ab = sc.product(a, b)
        lhs = rv[ab[0], c] if ab else 0  # R(ab, c) = ab[1] * lhs
        rhs = None if lhs is None else _sum(rv, [(t, (a, c1), (b, c2))
                                                 for c1, c2, t in sc.coproduct(c)])
        return None if rhs is None else (lhs and lhs * ab[1]) == rhs

    return sweep("CQT2", ((a, b, c) for row in grid for a in row for brow in grid
                          for crow in grid for b in brow for c in crow), ok, witness=_keys(sc))


def _cqt3(sc, rv, grid):
    """y1 x1 R(x2, y2) = R(x1, y1) x2 y2 on the p_l component, l the G part of m.

    No term of either side depends on R, so each (x, y) is compiled on its
    first visit into sc.cqt3_rows[x, y], kept for the life of the table:
    (reads, components), reads the R arguments of its terms in read order,
    and per component l a triple (l, the arguments l reads, rows), one row
    per basis index k, [(argument, merged coefficient of left - right)] with
    zero merges dropped.  Every visit evaluates the rows: a component with a
    read out of the window is None, else it holds when every row sums to 0.
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
        comps = {}  # l -> (arguments read, {k: row})
        for (l, k, pair), c in merged.items():
            reads, rows = comps.setdefault(l, ([], {}))
            reads.append(pair)
            if c:
                rows.setdefault(k, []).append((pair, c))
        compiled[xy] = (list(dict.fromkeys(pair for _, _, pair in merged)),
                        [(l, reads, list(rows.values())) for l, (reads, rows) in comps.items()])
        return compiled[xy]

    def compare(xy):
        "{l: both sides of (x, y) agree on p_l, None if a term is out of window}; absent l: 0 = 0."
        reads, comps = compiled.get(xy) or compile_rows(xy)
        vals = {p: rv[p] for p in reads}
        out = {}
        for l, lreads, rows in comps:
            if any(vals[p] is None for p in lreads):
                out[l] = None
                continue
            out[l] = True
            for row in rows:
                total = 0
                for p, c in row:
                    v = vals[p]
                    if v:
                        total += c * v
                if total:
                    out[l] = False
                    break
        return out

    sides = Memo(compare)
    witness = _keys(sc)  # (g, h, l, f, f') of the basis keys (g, f), (h, f'), (l, .)
    return sweep("CQT3", ((x, y, lrow[0]) for xrow in grid for yrow in grid for lrow in grid
                          for x in xrow for y in yrow),
                 lambda x, y, m: sides[x, y].get(gkey[m], True),
                 witness=lambda inst: witness(inst)[:5])


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
    "Run the requested condition families over the quantifier range."
    for lv in levels:
        if lv not in _LEVELS:
            raise UnknownLevel("unknown CQT level %r (choose from %s)"
                               % (lv, ", ".join(str(level) for level in _LEVELS)))
    sc = R.H.structure_constants
    grid = [[sc.index((g, f)) for f in _qrange(R, qbound)] for g in R.H.G.elements()]
    rv = Memo(lambda p: bare(R.try_value(sc.keys[p[0]], sc.keys[p[1]])))
    return [_LEVELS[lv](sc, rv, grid) for lv in levels]


def passes_cqt(R, levels=(0, 1, 2, 3), qbound=None):
    return all(r.status != FAIL for r in verify_R(R, levels, qbound))


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


def check_orbit_commutation(mp, word_bound=4):
    "O_f O_f' = O_f' O_f for all pairs on the window."
    report = _product_commutation_sweep("orbit-product-commutation", mp.window(word_bound),
                                        mp.orbit_product_commutes)
    if report.failed:
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


class _OffStabilizer:
    "The character value at a g outside its comodule's stabilizer: using it raises."

    __slots__ = ("g",)

    def __init__(self, g):
        self.g = g

    def _raise(self, other):
        raise NotInStabilizer("%r outside the stabilizer" % self.g)

    __mul__ = __rmul__ = __eq__ = __ne__ = _raise
    __hash__ = None


def _traces(V, gs):
    """(V, its character as a list of bare traces by G id), read once from V.matrices;
    at a g outside V's stabilizer the entry raises NotInStabilizer when used, as
    V.diagonal_sum(g) does."""
    C, M = V.coalgebra, V.matrices
    return V, [bare(M[g.key].trace()) if C.contains(g) else _OffStabilizer(g) for g in gs]


def necessary_battery(H, word_bound=4, quotients=()):
    """The orbit and character conditions for a coquasitriangular structure to exist.

    Past the two orbit checks, each sub-check runs through one gate: it is
    SKIPPED, with the first of its structural hypotheses that fails on the
    window as the detail, or else swept.  The character-quantified checks
    range over one list of characters of G: the auto-enumerated simples at
    1_F (abelian G) plus the lifts along the quotient maps.

    A failure of any sub-check but one certifies that no coquasitriangular
    structure exists.  The exception is dual-orbit-product-commutation: the
    dual orbits O'_g index the simple H-modules, so commuting their products
    is a module-side (quasitriangular) condition, and it fails on X = S4,
    F = K4, G = S3 with trivial cocycles, where H is commutative and
    eps (x) eps is coquasitriangular (tests/test_battery_tables.py pins it).

    The gates run on integer ids.  One matched_pair.PairTables per call holds
    g <| f, g |> f and sigma as right[g][f], left[g][f] and sigma[g][f][f'],
    each filled on its first read through MatchedPair.act_left/act_right or
    CocyclePair.sigma, and each one-dimensional character is read once per
    call into a list of bare traces by G id (`_traces`).  Witnesses are
    mapped back to elements.
    """
    mp, cp = H.mp, H.cp
    G, F = H.G, H.F
    reports = [check_orbit_commutation(mp, word_bound),
               check_dual_orbit_commutation(mp)]

    def gate(name, hypotheses, instances, ok, witness=tuple):
        "SKIPPED with the detail of the first failing (holds, detail), else the sweep."
        unmet = next((detail for holds, detail in hypotheses if not holds), None)
        reports.append(sweep(name, instances, ok, witness) if unmet is None
                       else ConditionReport(name, SKIPPED, detail=unmet))

    T = PairTables(mp, word_bound, cp)
    gs, fs, gid = T.gs, T.fs, T.gid  # fs grows past the window as images get ids
    gids, fids = range(len(gs)), range(T.nf)
    gmul, ginv, left, right = T.gmul, T.ginv, T.act_left, T.act_right
    S, sig = T.sigma, T.fill_sigma  # a sigma value is never 0, so `or` only fills

    # one stabilizer coalgebra per base point for the whole battery; the stabilizer
    # at 1_F is G, so its simples are characters of G, enumerated for abelian G only
    simples_at = Memo(lambda f: [_traces(V, gs) for V in _onedim_simples_at(H, fs[f])])
    chars = simples_at[T.fid(F.one)] + [_traces(V, gs) for pi in quotients
                                        for V in group_comodules(H, quotient=pi)]

    left_trivial = mp.left_action_trivial(word_bound)
    central = mp.is_central(word_bound)
    sigma_triv = cp.sigma_trivial_on(word_bound)
    tau_triv = cp.tau_trivial_on(word_bound)
    g_ab = G.is_abelian()
    have_chars = (chars, "no simple comodules over the dual of G available")

    def orbit_ids(f):
        "(stabilizer ids, their set, transversal ids, orbit ids) at the F id f."
        od = mp.orbit_data(fs[f])
        stab = [gid[g.key] for g in od.stabilizer]
        return (stab, set(stab), [gid[z.key] for z in od.transversal],
                [T.fid(u) for u in od.orbit])

    orbits = Memo(orbit_ids)

    def moved(f, g, z):
        "(z^-1 g z, (z^-1 g z) <| (z^-1 |> f))"
        zi = ginv[z]
        zgz = gmul[gmul[zi][g]][z]
        return zgz, right(zgz, left(zi, f))

    # character-product commutation constraint
    reps = [T.fid(rep) for rep in {rep.key: rep for rep in map(mp.orbit_representative,
                                                                fs[:T.nf])}.values()]

    def char_products():
        for f in reps:
            stab, _, trans, _ = orbits[f]
            for V, v in simples_at[f]:
                for W, w in chars:
                    for g in stab:
                        a = v[g]
                        for z in trans:
                            yield f, V, W, g, z, a, w

    def char_products_commute(f, V, W, g, z, a, w):
        zgz, gmoved = moved(f, g, z)
        return a * w[gmoved] == a * w[zgz]

    gate("character-product-commutation", [have_chars], char_products(),
         char_products_commute,
         witness=lambda i: (fs[i[0]], _char_values(i[1]), _char_values(i[2]), gs[i[3]],
                            gs[i[4]]))

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
                        yield f, W, g, z, w

    def class_sum_invariant(f, W, g, z, w):
        zgz, gmoved = moved(f, g, z)
        return w[gmoved] == w[zgz]

    gate("class-sum-action-invariance", [(tau_triv, "needs trivial tau"), have_chars],
         class_sums(), class_sum_invariant,
         witness=lambda i: (fs[i[0]], _char_values(i[1]), gs[i[2]], gs[i[3]]))

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


def battery_obstructed(reports):
    "True when some applicable necessary condition failed."
    return any(r.failed for r in reports)


# -- bicharacter restriction -------------------------------------------------------

def _grouplikes_on_fixed_part(H, S):
    """Group-like elements sum_g a^g p_g # f for f in the fixed part S.

    Solutions a of a^(yx) tau(y, x; f) = a^y a^x; for abelian G these are the
    twisted characters enumerated per base point.  Returns (f, comodule,
    element) triples.
    """
    out = []
    for f in S:
        C = TwistedCoalgebra(H, f)
        for V in enumerate_onedim(C):
            elem = HopfElement(H, {(g, f): V.matrix(g)[0, 0] for g in H.G.elements()})
            out.append((f, V, elem))
    return out


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

def _sqrt_fraction(q):
    "Exact square root of a nonnegative rational, or None."
    from math import isqrt
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def solve_rational_quadratic(a, b, c):
    "Exact rational roots of a x^2 + b x + c = 0 (a != 0); raises if irrational."
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    disc = b * b - 4 * a * c
    root = _sqrt_fraction(disc)
    if root is None:
        raise IrrationalRoots("discriminant %s is not a rational square" % disc)
    return sorted({(-b - root) / (2 * a), (-b + root) / (2 * a)})


def z2_r11_solve():
    """The two possible value patterns of R on the four (., 1) x (., 1) entries.

    Parametrizing k = R(p_1 # 1, p_g # 1), the counit row/column sums force
    (1-k, k, k, -k), and the product condition at the identity forces
    1 - k = (1 - k)^2 + k^2, i.e. 2k^2 - k = 0.
    """
    cases = []
    for k in solve_rational_quadratic(2, -1, 0):
        cases.append({
            "k": k,
            "table": {("1", "1"): rational(1 - k), ("1", "g"): rational(k),
                      ("g", "1"): rational(k), ("g", "g"): rational(-k)},
        })
    return cases


def z2_r11_rform(H, case):
    "Build the RForm on an F-trivial |G| = 2 context from a z2_r11_solve case."
    if H.G.order() != 2:
        raise WrongGroup("|G| = 2 required")
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
    if G.order() != 2:
        raise WrongGroup("|G| = 2 required")
    g = G.elements()[1]
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
    if G.order() != 2:
        raise WrongGroup("|G| = 2 required")
    if not F.is_abelian():
        return {"verdict": "hypothesis-not-met",
                "reports": [ConditionReport("z2-shape", SKIPPED, detail="F not abelian")]}
    g = G.elements()[1]
    fs = _qrange(R, qbound)
    if all(mp.act_left(g, f) == f for f in fs):
        return {"verdict": "hypothesis-not-met",
                "reports": [ConditionReport(
                    "z2-shape", SKIPPED,
                    detail="no moved base points in the window (the fixed part is everything)")]}

    def fixed(f):
        return mp.act_left(g, f) == f

    def conforms(x, f, y, fp):
        "One of the four fixed/moved membership patterns of shape (2)."
        xi, yi = x.is_identity(), y.is_identity()
        return ((xi and yi and fixed(f) and fixed(fp)) or
                (xi and not yi and not fixed(f) and fixed(fp)) or
                (not xi and yi and fixed(f) and not fixed(fp)) or
                (not xi and not yi and not fixed(f) and not fixed(fp)))

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

def search_R(H, values, levels=(0, 1, 2, 3), max_nodes=10 ** 6):
    """Enumerate R tables over a finite value set that pass the CQT levels.

    Only for finite contexts with |G| * |F| <= 8.  The two mismatch zeros of
    _zero_rules prune the key set; the identity row/column sums (CQT0) prune
    during assignment; the survivors are verified in full.  Raises
    SearchSpaceTooLarge beyond the node budget.
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
    sum_constraints = []
    for (h, fp), idxs in row_groups.items():
        sum_constraints.append((idxs, ONE if h.is_identity() else ZERO))
    for (g, f), idxs in col_groups.items():
        sum_constraints.append((idxs, ONE if g.is_identity() else ZERO))
    last_touch = {}
    for ci, (idxs, _) in enumerate(sum_constraints):
        last_touch[ci] = max(idxs) if idxs else -1

    found = []
    assignment = [None] * len(keys)
    nodes = 0

    def backtrack(pos):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise SearchSpaceTooLarge("exceeded %d nodes" % max_nodes)
        if pos == len(keys):
            entries = {keys[i]: assignment[i] for i in range(len(keys))
                       if not assignment[i].is_zero()}
            R = RForm(H, entries)
            if passes_cqt(R, levels):
                found.append(R)
            return
        for v in values:
            assignment[pos] = v
            ok = True
            for ci, (idxs, want) in enumerate(sum_constraints):
                if last_touch[ci] == pos:
                    total = ZERO
                    for i in idxs:
                        total = total + assignment[i]
                    if total != want:
                        ok = False
                        break
            if ok:
                backtrack(pos + 1)
        assignment[pos] = None

    backtrack(0)
    return found
