"""Candidate coquasitriangular structures and everything that constrains them.

RForm holds a finitely supported bilinear table R(p_g # f, p_h # f') with a
declared window (all of F x F when F is finite, a word-length bound
otherwise).  verify_R evaluates the five defining condition families CQT0 to
CQT4 plus the explicit convolution-inverse identity; structural_zeros scans a
support for forced-zero violations; necessary_battery bundles the
orbit/character necessary conditions; the z2_* operations specialize to
|G| = 2.  Condition instances that would need R values beyond the window are
counted as unevaluated, never as passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .comodules import (TwistedCoalgebra, enumerate_onedim, group_comodules,
                        trivial_comodule)
from .errors import (NonAbelianStabilizer, NotARootOfUnity, SearchSpaceTooLarge,
                     WrongGroup)
from .hopf import HopfElement, antipode_basis, comultiply
from .reports import FAIL, OUT_OF_WINDOW, PASS, SKIPPED, ConditionReport
from .scalars import Matrix, ONE, Scalar, ZERO, rational


class RForm:
    """Finitely supported bilinear form on basis-key pairs, with a window.

    Inside the window an absent entry is exactly zero; outside the window the
    value is unknown and every condition instance that needs it is reported as
    out-of-window.
    """

    def __init__(self, H, entries, window=None):
        self.H = H
        if window is None and not H.F.is_finite:
            raise ValueError("an RForm over infinite F needs a word-length window")
        self.window = window
        table = {}
        for (k1, k2), v in entries.items():
            v = Scalar._coerce(v)
            if v is None:
                raise TypeError("bad R value")
            if v.is_zero():
                continue
            k1 = self._normalize_key(k1)
            k2 = self._normalize_key(k2)
            if not (self.in_window(k1[1]) and self.in_window(k2[1])):
                raise ValueError("support entry outside the declared window: %r, %r"
                                 % (k1, k2))
            table[(k1, k2)] = v
        self.table = table

    def _normalize_key(self, key):
        g, f = key
        if isinstance(g, str):
            g = self.H.G.parse(g)
        if isinstance(f, str):
            f = self.H.F.parse(f)
        self.H.G._member(g)
        self.H.F._member(f)
        return (g, f)

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
        v = self.try_value(self._normalize_key(key1), self._normalize_key(key2))
        if v is None:
            raise KeyError("R value outside the declared window")
        return v

    def support(self):
        return list(self.table.items())

    def perturbed(self, key1, key2, value):
        "Copy with one entry replaced; for sensitivity tests."
        entries = dict(self.table)
        k = (self._normalize_key(key1), self._normalize_key(key2))
        v = Scalar._coerce(value)
        if v.is_zero():
            entries.pop(k, None)
        else:
            entries[k] = v
        return RForm(self.H, entries, window=self.window)

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
    if window is None and not H.F.is_finite:
        raise ValueError("need a window over infinite F")
    fs = H.mp.window(window) if window is not None else H.F.elements()
    one = H.G.one
    entries = {((one, f), (one, fp)): ONE for f in fs for fp in fs}
    return RForm(H, entries, window=window)


# -- the CQT condition families -----------------------------------------------

class _Sweep:
    "Accumulates one condition family's pass/fail/out-of-window instances."

    def __init__(self, check):
        self.check = check
        self.checked = 0
        self.unevaluated = 0
        self.witness = None

    def instance(self, values, verdict):
        "values: list of R lookups (None = out of window); verdict: callable -> bool."
        if any(v is None for v in values):
            self.unevaluated += 1
            return True
        self.checked += 1
        if not verdict():
            return False
        return True

    def fail(self, witness):
        self.witness = witness

    def report(self):
        if self.witness is not None:
            return ConditionReport(self.check, FAIL, witness=self.witness,
                                   checked=self.checked, unevaluated=self.unevaluated)
        status = OUT_OF_WINDOW if (self.unevaluated and not self.checked) else PASS
        return ConditionReport(self.check, status, checked=self.checked,
                               unevaluated=self.unevaluated)


def _qrange(R, qbound):
    H = R.H
    if H.F.is_finite:
        return H.F.elements()
    bound = qbound if qbound is not None else (R.window if R.window is not None else 2)
    return H.F.elements_up_to_length(bound)


def _cqt0(R, fs):
    H = R.H
    G = H.G
    sw = _Sweep("CQT0")
    one = G.one
    for g in G.elements():
        for f in fs:
            want = ONE if g.is_identity() else ZERO
            rows = [R.try_value((x, H.F.one), (g, f)) for x in G.elements()]
            cols = [R.try_value((g, f), (x, H.F.one)) for x in G.elements()]
            ok = sw.instance(rows + cols, lambda: (
                _ssum(rows) == want and _ssum(cols) == want))
            if not ok:
                sw.fail((g, f))
                return sw.report()
    return sw.report()


def _ssum(vals):
    t = ZERO
    for v in vals:
        t = t + v
    return t


def _cqt1(R, fs):
    H = R.H
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    sw = _Sweep("CQT1")
    gs = G.elements()
    for h in gs:
        for fp in fs:
            hfp = mp.act_right(h, fp)
            for l in gs:
                delta = hfp == l
                for g in gs:
                    for f in fs:
                        for fpp in fs:
                            needed = []
                            lhs_val = None
                            if delta:
                                lhs_val = R.try_value((g, f), (h, F.mul(fp, fpp)))
                                needed.append(lhs_val)
                            rhs_terms = []
                            for x in gs:
                                r1 = R.try_value((G.mul(g, G.inv(x)), mp.act_left(x, f)),
                                                 (l, fpp))
                                r2 = R.try_value((x, f), (h, fp))
                                needed.extend((r1, r2))
                                rhs_terms.append((G.mul(g, G.inv(x)), x, r1, r2))

                            def verdict():
                                lhs = (cp.sigma(h, fp, fpp) * lhs_val) if delta else ZERO
                                rhs = ZERO
                                for gx, x, r1, r2 in rhs_terms:
                                    if r1 and r2:
                                        rhs = rhs + cp.tau(gx, x, f) * r1 * r2
                                return lhs == rhs

                            if not sw.instance(needed, verdict):
                                sw.fail((g, h, l, f, fp, fpp))
                                return sw.report()
    return sw.report()


def _cqt2(R, fs):
    H = R.H
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    sw = _Sweep("CQT2")
    gs = G.elements()
    for g in gs:
        for f in fs:
            gf = mp.act_right(g, f)
            for h in gs:
                delta = gf == h
                for l in gs:
                    for fp in fs:
                        for fpp in fs:
                            needed = []
                            lhs_val = None
                            if delta:
                                lhs_val = R.try_value((g, F.mul(f, fp)), (l, fpp))
                                needed.append(lhs_val)
                            rhs_terms = []
                            for x in gs:
                                r1 = R.try_value((g, f),
                                                 (G.mul(l, G.inv(x)), mp.act_left(x, fpp)))
                                r2 = R.try_value((h, fp), (x, fpp))
                                needed.extend((r1, r2))
                                rhs_terms.append((G.mul(l, G.inv(x)), x, r1, r2))

                            def verdict():
                                lhs = (cp.sigma(g, f, fp) * lhs_val) if delta else ZERO
                                rhs = ZERO
                                for lx, x, r1, r2 in rhs_terms:
                                    if r1 and r2:
                                        rhs = rhs + cp.tau(lx, x, fpp) * r1 * r2
                                return lhs == rhs

                            if not sw.instance(needed, verdict):
                                sw.fail((g, h, l, f, fp, fpp))
                                return sw.report()
    return sw.report()


def _cqt3(R, fs):
    H = R.H
    G, F, mp, cp = H.G, H.F, H.mp, H.cp
    sw = _Sweep("CQT3")
    gs = G.elements()
    for g in gs:
        for h in gs:
            for l in gs:
                linv = G.inv(l)
                lh = G.mul(linv, h)
                for f in fs:
                    lf = mp.act_right(l, f)
                    ltf = mp.act_left(l, f)
                    for fp in fs:
                        hfp = mp.act_right(h, fp)
                        lhfp = mp.act_right(lh, fp)
                        # left side: coefficient of p_l # ff'
                        a_left = G.mul(g, linv)
                        b_left = G.mul(h, G.inv(lf))
                        f2_left = mp.act_left(lf, fp)
                        rL = R.try_value((a_left, ltf), (b_left, f2_left))
                        # right side: coefficient of p_l # (l^-1 h |> f')(w |> f)
                        w = G.mul(G.mul(lhfp, G.inv(hfp)), g)
                        rR = R.try_value((w, f), (lh, fp))
                        uL = F.mul(f, fp)
                        uR = F.mul(mp.act_left(lh, fp), mp.act_left(w, f))

                        def verdict():
                            cL = (cp.tau(a_left, l, f)
                                  * cp.tau(b_left, lf, fp)
                                  * rL * cp.sigma(l, f, fp))
                            cR = (cp.tau(G.mul(hfp, G.inv(lhfp)), w, f)
                                  * cp.tau(l, lh, fp)
                                  * rR
                                  * cp.sigma(l, mp.act_left(lh, fp), mp.act_left(w, f)))
                            if uL == uR:
                                return cL == cR
                            return cL.is_zero() and cR.is_zero()

                        if not sw.instance([rL, rR], verdict):
                            sw.fail((g, h, l, f, fp))
                            return sw.report()
    return sw.report()


def _cqt4(R, fs):
    H = R.H
    G, mp, cp = H.G, H.mp, H.cp
    sw = _Sweep("CQT4")
    gs = G.elements()
    for g in gs:
        for h in gs:
            want = ONE if (g.is_identity() and h.is_identity()) else ZERO
            for f in fs:
                for fp in fs:
                    needed = []
                    terms = []
                    for x in gs:
                        gx = G.mul(g, G.inv(x))
                        for y in gs:
                            hy = G.mul(h, G.inv(y))
                            r1 = R.try_value((gx, mp.act_left(x, f)),
                                             (hy, mp.act_left(y, fp)))
                            r2 = R.try_value((y, fp), (x, f))
                            needed.extend((r1, r2))
                            terms.append((gx, x, hy, y, r1, r2))

                    def verdict():
                        total = ZERO
                        for gx, x, hy, y, r1, r2 in terms:
                            if r1 and r2:
                                total = total + (cp.tau(gx, x, f) * cp.tau(hy, y, fp)
                                                 * r1 * r2)
                        return total == want

                    if not sw.instance(needed, verdict):
                        sw.fail((g, h, f, fp))
                        return sw.report()
    return sw.report()


def _cqt_inverse(R, fs):
    "R(S(.), .) is a two-sided convolution inverse of R: (R^-1 * R) = eps (x) eps."
    H = R.H
    G, cp, mp = H.G, H.cp, H.mp
    sw = _Sweep("CQT-convolution-inverse")
    gs = G.elements()
    for g in gs:
        for h in gs:
            want = ONE if (g.is_identity() and h.is_identity()) else ZERO
            for f in fs:
                for fp in fs:
                    needed = []
                    terms = []
                    for x in gs:
                        gx = G.mul(g, G.inv(x))
                        skey, scoef = antipode_basis(H, (gx, mp.act_left(x, f)))
                        for y in gs:
                            hy = G.mul(h, G.inv(y))
                            r1 = R.try_value(skey, (hy, mp.act_left(y, fp)))
                            r2 = R.try_value((x, f), (y, fp))
                            needed.extend((r1, r2))
                            terms.append((gx, x, hy, y, scoef, r1, r2))

                    def verdict():
                        total = ZERO
                        for gx, x, hy, y, scoef, r1, r2 in terms:
                            if r1 and r2:
                                total = total + (cp.tau(gx, x, f) * cp.tau(hy, y, fp)
                                                 * scoef * r1 * r2)
                        return total == want

                    if not sw.instance(needed, verdict):
                        sw.fail((g, h, f, fp))
                        return sw.report()
    return sw.report()


_LEVELS = {0: _cqt0, 1: _cqt1, 2: _cqt2, 3: _cqt3, 4: _cqt4, "inv": _cqt_inverse}


def verify_R(R, levels=(0, 1, 2, 3), qbound=None):
    "Run the requested condition families over the quantifier range."
    fs = _qrange(R, qbound)
    reports = []
    for lv in levels:
        if lv not in _LEVELS:
            raise ValueError("unknown CQT level %r" % (lv,))
        reports.append(_LEVELS[lv](R, fs))
    return reports


def passes_cqt(R, levels=(0, 1, 2, 3), qbound=None):
    return all(r.status != FAIL for r in verify_R(R, levels, qbound))


# -- structural zeros -----------------------------------------------------------

def structural_zeros(R):
    """Support entries that contradict a forced-zero rule.

    Rules: the product-mismatch zero ff' != (h |> f')(g |> f); the abelian-F
    stabilizer-mismatch zero (exactly one of g in G_f, h in G_f'); and the
    identity-column zeros R(p_g # f, p_h # 1) = 0 for g outside G_f or
    G_(g |> f), with the mirrored left-slot version.
    """
    H = R.H
    F, mp = H.F, H.mp
    violations = []
    f_abelian = F.is_abelian()

    def in_stab(g, f):
        return mp.act_left(g, f) == f

    for ((g, f), (h, fp)), v in R.table.items():
        if F.mul(f, fp) != F.mul(mp.act_left(h, fp), mp.act_left(g, f)):
            violations.append(ConditionReport(
                "structural-zero:product-mismatch", FAIL,
                witness=(g, f, h, fp),
                detail="ff' differs from (h|>f')(g|>f) but R = %r" % v))
        if f_abelian and (in_stab(g, f) != in_stab(h, fp)):
            violations.append(ConditionReport(
                "structural-zero:stabilizer-mismatch", FAIL,
                witness=(g, f, h, fp),
                detail="exactly one of g, h stabilizes its base point"))
        if fp.is_identity() and (not in_stab(g, f)
                                 or not in_stab(g, mp.act_left(g, f))):
            violations.append(ConditionReport(
                "structural-zero:identity-column", FAIL, witness=(g, f, h, fp),
                detail="g moves f or g|>f yet R(p_g#f, p_h#1) = %r" % v))
        if f.is_identity() and (not in_stab(h, fp)
                                or not in_stab(h, mp.act_left(h, fp))):
            violations.append(ConditionReport(
                "structural-zero:identity-row", FAIL, witness=(g, f, h, fp),
                detail="h moves f' or h|>f' yet R(p_g#1, p_h#f') = %r" % v))
    return violations


# -- necessary-condition battery --------------------------------------------------

def check_orbit_commutation(mp, word_bound=4):
    "O_f O_f' = O_f' O_f for all pairs on the window."
    fs = mp.window(word_bound)
    checked = 0
    for f in fs:
        for fp in fs:
            checked += 1
            ok, wit = mp.orbit_product_commutes(f, fp)
            if not ok:
                return ConditionReport("orbit-product-commutation", FAIL,
                                       witness=(f, fp, wit), checked=checked,
                                       detail="product element in only one of the two orbit sets")
    return ConditionReport("orbit-product-commutation", PASS, checked=checked)


def check_dual_orbit_commutation(mp):
    "O'_g O'_g' = O'_g' O'_g for all pairs; needs finite F."
    if not mp.F.is_finite:
        return ConditionReport("dual-orbit-product-commutation", SKIPPED,
                               detail="F infinite: the dual-orbit condition needs finite F")
    checked = 0
    for g in mp.G.elements():
        for gp in mp.G.elements():
            checked += 1
            ok, wit = mp.dual_orbit_product_commutes(g, gp)
            if not ok:
                return ConditionReport("dual-orbit-product-commutation", FAIL,
                                       witness=(g, gp, wit), checked=checked)
    return ConditionReport("dual-orbit-product-commutation", PASS, checked=checked)


def _onedim_simples_at(H, f):
    "The auto-enumerable one-dimensional simples over the stabilizer coalgebra at f."
    try:
        C = TwistedCoalgebra(H, f)
        stab = C.stabilizer
        if all(H.G.mul(a, b) == H.G.mul(b, a) for a in stab for b in stab):
            return enumerate_onedim(C)
    except (NonAbelianStabilizer, NotARootOfUnity):
        pass
    return []


def _char_values(V):
    "Readable value list of a one-dimensional comodule, for witnesses."
    C = V.coalgebra
    return "(" + ", ".join("%r:%r" % (g, V.matrix(g)[0, 0]) for g in C.stabilizer) + ")"


def necessary_battery(H, word_bound=4, registered=(), quotients=()):
    """Every necessary condition for a coquasitriangular structure to exist.

    Each sub-check runs only when its structural hypotheses hold on the
    window; comodule-quantified checks range over auto-enumerated simples
    (abelian stabilizers) plus registered comodules and quotient-lifted
    characters.  Any failure certifies that no coquasitriangular structure
    exists.
    """
    mp, cp = H.mp, H.cp
    G, F = H.G, H.F
    fs = mp.window(word_bound)
    registered = list(registered)
    reports = [check_orbit_commutation(mp, word_bound),
               check_dual_orbit_commutation(mp)]

    # one stabilizer coalgebra per base point for the whole battery
    onedim = {}

    def onedim_at(f):
        if f.key not in onedim:
            onedim[f.key] = _onedim_simples_at(H, f)
        return onedim[f.key]

    def simples_at(f):
        "Auto-enumerable plus registered simples over the stabilizer coalgebra at f."
        return onedim_at(f) + [V for V in registered if V.coalgebra.f == f]

    left_trivial = mp.left_action_trivial(word_bound)
    central = mp.is_central(word_bound)
    sigma_triv = cp.sigma_trivial_on(word_bound)
    tau_triv = cp.tau_trivial_on(word_bound)
    g_ab = G.is_abelian()
    f_ab = F.is_abelian()

    wlist = simples_at(F.one)
    for pi in quotients:
        wlist.extend(group_comodules(H, quotient=pi))

    # character-product commutation constraint
    reps = []
    seen = set()
    for f in fs:
        rep = mp.orbit_representative(f)
        if rep.key not in seen:
            seen.add(rep.key)
            reps.append(rep)
    name = "character-product-commutation"
    if not wlist:
        reports.append(ConditionReport(name, SKIPPED,
                                       detail="no simple comodules over the dual of G available"))
    else:
        witness = None
        checked = 0
        for f in reps:
            od = mp.orbit_data(f)
            for V in simples_at(f):
                for W in wlist:
                    for g in od.stabilizer:
                        a = V.diagonal_sum(g)
                        for z in od.transversal:
                            checked += 1
                            zgz = G.mul(G.mul(G.inv(z), g), z)
                            moved = mp.act_right(zgz, mp.act_left(G.inv(z), f))
                            if a * W.diagonal_sum(moved) != a * W.diagonal_sum(zgz):
                                witness = (f, _char_values(V), _char_values(W), g, z)
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        reports.append(ConditionReport(name, FAIL if witness else PASS,
                                       witness=witness, checked=checked))

    # stabilizer action constraint (abelian G, trivial tau)
    name = "stabilizer-action-constraint"
    if not (g_ab and tau_triv):
        reports.append(ConditionReport(name, SKIPPED,
                                       detail="needs abelian G and trivial tau"))
    else:
        witness = None
        checked = 0
        for f in fs:
            odf = mp.orbit_data(f)
            for fp in fs:
                odp = mp.orbit_data(fp)
                for g in G.elements():
                    checked += 1
                    gin_f = odf.in_stabilizer(g)
                    gin_fp = odp.in_stabilizer(g)
                    hits_fp = any(odp.in_stabilizer(mp.act_right(g, fpp))
                                  for fpp in odf.orbit)
                    if gin_f and not gin_fp and hits_fp:
                        witness = ("part-1", g, f, fp)
                        break
                    if gin_f and gin_fp:
                        hits_f = any(odf.in_stabilizer(mp.act_right(g, fppp))
                                     for fppp in odp.orbit)
                        if hits_fp != hits_f:
                            witness = ("part-2", g, f, fp)
                            break
                if witness:
                    break
            if witness:
                break
        reports.append(ConditionReport(name, FAIL if witness else PASS,
                                       witness=witness, checked=checked))

    # sigma symmetry on central abelian contexts
    name = "sigma-symmetry-on-central-abelian"
    if not (g_ab and f_ab and tau_triv and central):
        reports.append(ConditionReport(name, SKIPPED,
                                       detail="needs abelian G and F, trivial tau, central extension"))
    else:
        witness = None
        checked = 0
        for f in fs:
            odf = mp.orbit_data(f)
            for fp in fs:
                odp = mp.orbit_data(fp)
                for g in G.elements():
                    if odf.in_stabilizer(g) and odp.in_stabilizer(g):
                        checked += 1
                        if cp.sigma(g, f, fp) != cp.sigma(g, fp, f):
                            witness = (g, f, fp)
                            break
                if witness:
                    break
            if witness:
                break
        reports.append(ConditionReport(name, FAIL if witness else PASS,
                                       witness=witness, checked=checked))

    # class-sum invariance (trivial tau)
    name = "class-sum-action-invariance"
    if not tau_triv:
        reports.append(ConditionReport(name, SKIPPED, detail="needs trivial tau"))
    elif not wlist:
        reports.append(ConditionReport(name, SKIPPED,
                                       detail="no simple comodules over the dual of G available"))
    else:
        witness = None
        checked = 0
        for f in fs:
            od = mp.orbit_data(f)
            for W in wlist:
                for g in od.stabilizer:
                    for z in od.transversal:
                        checked += 1
                        zgz = G.mul(G.mul(G.inv(z), g), z)
                        moved = mp.act_right(zgz, mp.act_left(G.inv(z), f))
                        if W.diagonal_sum(moved) != W.diagonal_sum(zgz):
                            witness = (f, _char_values(W), g, z)
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        reports.append(ConditionReport(name, FAIL if witness else PASS,
                                       witness=witness, checked=checked))

    # exchange identity when the left action is trivial
    name = "central-character-exchange"
    if not left_trivial:
        reports.append(ConditionReport(name, SKIPPED,
                                       detail="needs trivial |> (every stabilizer is G)"))
    else:
        witness = None
        checked = 0
        for f in fs:
            vlist = simples_at(f)
            for fp in fs:
                wl = simples_at(fp)
                for V in vlist:
                    for W in wl:
                        for g in G.elements():
                            checked += 1
                            lhs = (V.diagonal_sum(g)
                                   * W.diagonal_sum(mp.act_right(g, f))
                                   * cp.sigma(g, f, fp))
                            rhs = (V.diagonal_sum(mp.act_right(g, fp))
                                   * W.diagonal_sum(g) * cp.sigma(g, fp, f))
                            if lhs != rhs:
                                witness = (f, fp, _char_values(V), _char_values(W), g)
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if checked == 0 and witness is None:
            reports.append(ConditionReport(name, SKIPPED,
                                           detail="no simple comodules available"))
        else:
            reports.append(ConditionReport(name, FAIL if witness else PASS,
                                           witness=witness, checked=checked))

    # quotient-character exchange and one-dimensional invariance (trivial cocycles)
    for name, needs in (("quotient-character-exchange", "quot"),
                        ("onedim-character-action-invariance", "inv")):
        if not (left_trivial and sigma_triv and tau_triv):
            reports.append(ConditionReport(
                name, SKIPPED, detail="needs trivial |> and trivial cocycles"))
            continue
        chars = []
        if g_ab:
            chars.extend(onedim_at(F.one))
        for pi in quotients:
            chars.extend(group_comodules(H, quotient=pi))
        for V in registered:
            if V.coalgebra.f == F.one and V.dim == 1:
                chars.append(V)
        if not chars:
            reports.append(ConditionReport(name, SKIPPED,
                                           detail="no one-dimensional characters available"))
            continue
        witness = None
        checked = 0
        if needs == "quot":
            for a in chars:
                for b in chars:
                    for g in G.elements():
                        for f in fs:
                            for fp in fs:
                                checked += 1
                                lhs = (a.diagonal_sum(g)
                                       * b.diagonal_sum(mp.act_right(g, f)))
                                rhs = (a.diagonal_sum(mp.act_right(g, fp))
                                       * b.diagonal_sum(g))
                                if lhs != rhs:
                                    witness = (_char_values(a), _char_values(b), g, f, fp)
                                    break
                            if witness:
                                break
                        if witness:
                            break
                    if witness:
                        break
                if witness:
                    break
        else:
            for a in chars:
                for g in G.elements():
                    for f in fs:
                        checked += 1
                        gf = mp.act_right(g, f)
                        if a.diagonal_sum(g) != a.diagonal_sum(gf):
                            witness = (_char_values(a), g, f,
                                       a.diagonal_sum(g), a.diagonal_sum(gf))
                            break
                    if witness:
                        break
                if witness:
                    break
        reports.append(ConditionReport(name, FAIL if witness else PASS,
                                       witness=witness, checked=checked))
    return reports


def battery_obstructed(reports):
    "True when some applicable necessary condition failed."
    return any(r.failed for r in reports)


# -- bicharacter restriction -------------------------------------------------------

def _grouplikes_on_fixed_part(H, word_bound):
    """Group-like elements sum_g a^g p_g # f for f in the fixed part of the window.

    Solutions a of a^(yx) tau(y, x; f) = a^y a^x; for abelian G these are the
    twisted characters enumerated per base point.  Returns (f, comodule,
    element) triples.
    """
    out = []
    for f in H.mp.fixed_points(word_bound):
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
    bound = word_bound if word_bound is not None else (R.window if R.window is not None else 4)
    reports = []
    S = mp.fixed_points(bound)

    central = all(mp.act_right(g, f) == g for g in G.elements() for f in S)
    reports.append(ConditionReport(
        "central-on-fixed-part", PASS if central else FAIL,
        witness=None if central else ("<| not trivial on the fixed part",),
        checked=len(S) * G.order()))
    if not central:
        return reports

    witness = next(((a, b) for a in S for b in S if F.mul(a, b) != F.mul(b, a)), None)
    reports.append(ConditionReport("fixed-part-abelian", FAIL if witness else PASS,
                                   witness=witness, checked=len(S) ** 2))

    witness = None
    for g in G.elements():
        for a in S:
            for b in S:
                if cp.sigma(g, a, b) != cp.sigma(g, b, a):
                    witness = (g, a, b)
                    break
            if witness:
                break
        if witness:
            break
    reports.append(ConditionReport("sigma-symmetric-on-fixed-part",
                                   FAIL if witness else PASS, witness=witness,
                                   checked=G.order() * len(S) ** 2))

    if not G.is_abelian():
        reports.append(ConditionReport(
            "grouplike-basis", SKIPPED,
            detail="non-abelian G: one-dimensional simples not auto-enumerable"))
        return reports
    try:
        gls = _grouplikes_on_fixed_part(H, bound)
    except NotARootOfUnity as e:
        reports.append(ConditionReport("grouplike-basis", SKIPPED, detail=str(e)))
        return reports
    per_f = {}
    for f, V, elem in gls:
        per_f[f.key] = per_f.get(f.key, 0) + 1
    full = all(n == G.order() for n in per_f.values()) and len(per_f) == len(S)
    reports.append(ConditionReport(
        "grouplike-basis", PASS if full else FAIL,
        witness=None if full else ("per-base-point group-like counts", per_f),
        detail="the fixed-part subalgebra is spanned by group-likes iff each "
               "base point carries |G| of them",
        checked=len(gls)))

    one_elem = H.unit()
    elems = [e for (_, _, e) in gls]
    sw = _Sweep("bicharacter-unit")
    for e in elems:
        v1 = R.bilinear(one_elem, e)
        v2 = R.bilinear(e, one_elem)
        if not sw.instance([v1, v2], lambda: v1.is_one() and v2.is_one()):
            sw.fail(("unit law", e))
            break
    reports.append(sw.report())

    sw = _Sweep("bicharacter-multiplicative")
    for e1 in elems:
        for e2 in elems:
            prod = e1 * e2
            if any(not R.in_window(k[1]) for k in prod.terms):
                sw.unevaluated += 1
                continue
            for e3 in elems:
                left = R.bilinear(prod, e3)
                parts = (R.bilinear(e1, e3), R.bilinear(e2, e3))
                right = R.bilinear(e3, prod)
                parts2 = (R.bilinear(e3, e1), R.bilinear(e3, e2))
                vals = [left, right, *parts, *parts2]
                if not sw.instance(vals, lambda: (left == parts[0] * parts[1]
                                                  and right == parts2[0] * parts2[1])):
                    sw.fail((e1, e2, e3))
                    break
            if sw.witness:
                break
        if sw.witness:
            break
    reports.append(sw.report())
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
        raise ValueError("discriminant %s is not a rational square" % disc)
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
    if k == half:
        sw = _Sweep("z2-remark-quarter-identity")
        for x in G.elements():
            for h in G.elements():
                for f in fs:
                    gf = mp.act_left(g, f)
                    for fp in fs:
                        r1 = R.try_value((G.mul(x, g), gf), (h, fp))
                        r2 = R.try_value((g, f), (h, one_f))
                        r3 = R.try_value((g, gf), (h, one_f))
                        vals = [r1, r2, r3]

                        def verdict():
                            if (r1 * r2).is_zero():
                                return True
                            return cp.tau(g, g, f) * r3 * r2 == quarter

                        if not sw.instance(vals, verdict):
                            sw.fail((x, h, f, fp))
                            return sw.report()
        return sw.report()
    if k == ZERO:
        sw = _Sweep("z2-remark-unit-products")
        for x in G.elements():
            for f in fs:
                for fp in fs:
                    ra = R.try_value((x, f), (one, fp))
                    rb1 = R.try_value((one, f), (one, one_f))
                    rb2 = R.try_value((x, one_f), (one, fp))
                    rc = R.try_value((x, f), (g, fp))
                    rd1 = R.try_value((one, f), (g, one_f))
                    rd2 = R.try_value((x, one_f), (one, mp.act_left(g, fp)))
                    vals = [ra, rb1, rb2, rc, rd1, rd2]

                    def verdict():
                        first = ra.is_zero() or (rb1.is_one() and rb2.is_one())
                        second = rc.is_zero() or (rd1.is_one() and rd2.is_one())
                        return first and second

                    if not sw.instance(vals, verdict):
                        sw.fail((x, f, fp))
                        return sw.report()
        return sw.report()
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

    shape1 = True
    shape1_witness = None
    shape2 = True
    shape2_witness = None
    for ((x, f), (y, fp)), v in R.table.items():
        if not (x.is_identity() and y.is_identity()):
            if shape1:
                shape1 = False
                shape1_witness = (x, f, y, fp)
        xi, yi = x.is_identity(), y.is_identity()
        ok = ((xi and yi and fixed(f) and fixed(fp)) or
              (xi and not yi and not fixed(f) and fixed(fp)) or
              (not xi and yi and fixed(f) and not fixed(fp)) or
              (not xi and not yi and not fixed(f) and not fixed(fp)))
        if shape2 and not ok:
            shape2 = False
            shape2_witness = (x, f, y, fp)

    zero_product_witness = None
    support = list(R.table.items())
    for ((x1, f1), (y1, f2)), v1 in support:
        if not (x1.is_identity() and y1.is_identity()):
            continue
        for ((x2, f3), (y2, f4)), v2 in support:
            if x2.is_identity() or y2.is_identity():
                continue
            if f3 == f1 and not fixed(f1) and not fixed(f4):
                zero_product_witness = ((x1, f1, y1, f2), (x2, f3, y2, f4))
                break
            if f4 == f2 and not fixed(f2) and not fixed(f3):
                zero_product_witness = ((x1, f1, y1, f2), (x2, f3, y2, f4))
                break
        if zero_product_witness:
            break

    if shape1:
        verdict = "shape(1)"
    elif shape2 and zero_product_witness is None:
        verdict = "shape(2)"
    else:
        verdict = "nonconforming"
    reports = [
        ConditionReport("z2-shape-1", PASS if shape1 else FAIL,
                        witness=shape1_witness, checked=len(R.table),
                        detail="support confined to the (p_1, p_1) block"),
        ConditionReport("z2-shape-2", PASS if shape2 else FAIL,
                        witness=shape2_witness, checked=len(R.table),
                        detail="support follows the four fixed/moved membership patterns"),
        ConditionReport("z2-zero-products", FAIL if zero_product_witness else PASS,
                        witness=zero_product_witness, checked=len(R.table) ** 2,
                        detail="forced vanishing of (p_1,p_1) x (p_g,p_g) support pairs"),
        z2_remark_diagnostics(R, qbound),
    ]
    return {"verdict": verdict, "shape1": shape1, "shape2": shape2, "reports": reports}


# -- constrained enumeration -----------------------------------------------------

def search_R(H, values, levels=(0, 1, 2, 3), max_nodes=10 ** 6):
    """Enumerate R tables over a finite value set that pass the CQT levels.

    Only for finite contexts with |G| * |F| <= 8.  Structural zeros prune the
    key set; the identity row/column sums (CQT0) prune during assignment; the
    survivors are verified in full.  Raises SearchSpaceTooLarge beyond the
    node budget.
    """
    G, F, mp = H.G, H.F, H.mp
    if not F.is_finite or G.order() * F.order() > 8:
        raise WrongGroup("search limited to |G| * |F| <= 8")
    values = [Scalar._coerce(v) for v in values]
    keys = []
    for gf in itertools.product(G.elements(), F.elements()):
        for hfp in itertools.product(G.elements(), F.elements()):
            (g, f), (h, fp) = gf, hfp
            if F.mul(f, fp) != F.mul(mp.act_left(h, fp), mp.act_left(g, f)):
                continue  # forced zero
            if F.is_abelian() and ((mp.act_left(g, f) == f) != (mp.act_left(h, fp) == fp)):
                continue  # forced zero
            keys.append((gf, hfp))

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
