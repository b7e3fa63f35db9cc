"""Object-path necessary-condition battery and stabilizer-coalgebra check.

These are `cqt.necessary_battery` and `TwistedCoalgebra._check_coalgebra`
as they were written on group elements: every instance calls the public
actions, group products and sigma/tau lookups, and reads a character as
`diagonal_sum` of a 1 x 1 matrix.  The library runs the same gates on
integer ids over `matched_pair.PairTables` and per-call lists of bare
traces, the orbit-product check on F ids, and the coalgebra check on
position tables of bare tau values; the orbit-product reference here sweeps
elements through `MatchedPair.orbit_product_commutes`.  The tests require both to return the same reports (witness and `checked`
included) and to raise the same error.
"""

import itertools

from hopfcqt.comodules import group_comodules
from hopfcqt.cqt import Memo, _char_values, _onedim_simples_at, check_dual_orbit_commutation
from hopfcqt.errors import InvalidCocycle
from hopfcqt.reports import SKIPPED, ConditionReport, sweep


def check_coalgebra_reference(H, f):
    "Coassociativity and counit of the twisted coproduct at f, on elements; raises InvalidCocycle."
    G, stab = H.G, H.mp.orbit_data(f).stabilizer
    taus = {}

    def tau(a, b):
        v = taus.get((a, b))
        if v is None:
            v = taus[a, b] = H.cp.tau(a, b, f)
        return v

    for a in stab:
        for b in stab:
            ab = G.mul(a, b)
            for c in stab:
                bc = G.mul(b, c)
                if tau(ab, c) * tau(a, b) != tau(a, bc) * tau(b, c):
                    raise InvalidCocycle("twisted coproduct not coassociative at "
                                         "(%r, %r, %r) over %r" % (a, b, c, G.mul(ab, c)))
    for g in stab:
        for x in stab:
            gx = G.mul(g, G.inv(x))
            c = tau(gx, x)
            if gx.is_identity() and (x != g or not c.is_one()):
                raise InvalidCocycle("counit law fails at %r" % g)
            if x.is_identity() and (gx != g or not c.is_one()):
                raise InvalidCocycle("counit law fails at %r" % g)


def check_orbit_commutation_reference(mp, word_bound=4):
    "cqt.check_orbit_commutation on elements, through MatchedPair.orbit_product_commutes."
    fs = mp.window(word_bound)
    commutes = mp.orbit_product_commutes
    report = sweep("orbit-product-commutation", itertools.product(fs, fs),
                   lambda f, fp: commutes(f, fp)[0],
                   witness=lambda pair: pair + (commutes(*pair)[1],))
    if report.failed:
        report.detail = "product element in only one of the two orbit sets"
    return report


def necessary_battery_reference(H, word_bound=4, quotients=()):
    "The object-path battery; same arguments and reports as cqt.necessary_battery."
    mp, cp = H.mp, H.cp
    G, F = H.G, H.F
    gs = G.elements()
    fs = mp.window(word_bound)
    reports = [check_orbit_commutation_reference(mp, word_bound),
               check_dual_orbit_commutation(mp)]

    def gate(name, hypotheses, instances, ok, witness=tuple):
        unmet = next((detail for holds, detail in hypotheses if not holds), None)
        reports.append(sweep(name, instances, ok, witness) if unmet is None
                       else ConditionReport(name, SKIPPED, detail=unmet))

    simples_at = Memo(lambda f: _onedim_simples_at(H, f))
    chars = simples_at[F.one] + [V for pi in quotients for V in group_comodules(H, quotient=pi)]

    left_trivial = all(mp.act_left(g, f) == f for g in gs for f in fs)
    central = all(mp.act_right(g, f) == g for g in gs for f in fs)
    sigma_triv = all(cp.sigma(g, f, fp).is_one() for g in gs for f in fs for fp in fs)
    tau_triv = all(cp.tau(g, gp, f).is_one() for g in gs for gp in gs for f in fs)
    g_ab = G.is_abelian()
    have_chars = (chars, "no simple comodules over the dual of G available")

    def moved(f, g, z):
        zgz = G.mul(G.mul(G.inv(z), g), z)
        return zgz, mp.act_right(zgz, mp.act_left(G.inv(z), f))

    def orbit_pairs():
        for f in fs:
            odf = mp.orbit_data(f)
            for fp in fs:
                yield f, odf, fp, mp.orbit_data(fp)

    reps = list({rep.key: rep for rep in map(mp.orbit_representative, fs)}.values())

    def char_products():
        for f in reps:
            od = mp.orbit_data(f)
            for V in simples_at[f]:
                for W in chars:
                    for g in od.stabilizer:
                        a = V.diagonal_sum(g)
                        for z in od.transversal:
                            yield f, V, W, g, z, a

    def char_products_commute(f, V, W, g, z, a):
        zgz, gmoved = moved(f, g, z)
        return a * W.diagonal_sum(gmoved) == a * W.diagonal_sum(zgz)

    gate("character-product-commutation", [have_chars], char_products(),
         char_products_commute,
         witness=lambda i: (i[0], _char_values(i[1]), _char_values(i[2]), i[3], i[4]))

    def stabilizer_action_ok(g, f, fp, odf, odp):
        gin_f = odf.in_stabilizer(g)
        gin_fp = odp.in_stabilizer(g)
        hits_fp = any(odp.in_stabilizer(mp.act_right(g, fpp)) for fpp in odf.orbit)
        if gin_f and not gin_fp and hits_fp:
            return False
        if gin_f and gin_fp:
            return hits_fp == any(odf.in_stabilizer(mp.act_right(g, fppp))
                                  for fppp in odp.orbit)
        return True

    gate("stabilizer-action-constraint",
         [(g_ab and tau_triv, "needs abelian G and trivial tau")],
         ((g, f, fp, odf, odp) for f, odf, fp, odp in orbit_pairs() for g in gs),
         stabilizer_action_ok,
         witness=lambda i: ("part-2" if i[4].in_stabilizer(i[0]) else "part-1",) + i[:3])

    gate("sigma-symmetry-on-central-abelian",
         [(g_ab and F.is_abelian() and tau_triv and central,
           "needs abelian G and F, trivial tau, central extension")],
         ((g, f, fp) for f, odf, fp, odp in orbit_pairs() for g in gs
          if odf.in_stabilizer(g) and odp.in_stabilizer(g)),
         lambda g, f, fp: cp.sigma(g, f, fp) == cp.sigma(g, fp, f))

    def class_sums():
        for f in fs:
            od = mp.orbit_data(f)
            for W in chars:
                for g in od.stabilizer:
                    for z in od.transversal:
                        yield f, W, g, z

    def class_sum_invariant(f, W, g, z):
        zgz, gmoved = moved(f, g, z)
        return W.diagonal_sum(gmoved) == W.diagonal_sum(zgz)

    gate("class-sum-action-invariance", [(tau_triv, "needs trivial tau"), have_chars],
         class_sums(), class_sum_invariant,
         witness=lambda i: (i[0], _char_values(i[1]), i[2], i[3]))

    def exchanges():
        for f in fs:
            for fp in fs:
                for V, W, g in itertools.product(simples_at[f], simples_at[fp], gs):
                    yield f, fp, V, W, g

    def exchange_ok(f, fp, V, W, g):
        lhs = (V.diagonal_sum(g) * W.diagonal_sum(mp.act_right(g, f))
               * cp.sigma(g, f, fp))
        rhs = (V.diagonal_sum(mp.act_right(g, fp))
               * W.diagonal_sum(g) * cp.sigma(g, fp, f))
        return lhs == rhs

    gate("central-character-exchange",
         [(left_trivial, "needs trivial |> (every stabilizer is G)"),
          (left_trivial and any(simples_at[f] for f in fs), "no simple comodules available")],
         exchanges(), exchange_ok,
         witness=lambda i: (i[0], i[1], _char_values(i[2]), _char_values(i[3]), i[4]))

    trivial = [(left_trivial and sigma_triv and tau_triv, "needs trivial |> and trivial cocycles"),
               (chars, "no one-dimensional characters available")]
    gate("quotient-character-exchange", trivial, itertools.product(chars, chars, gs, fs, fs),
         lambda a, b, g, f, fp: (a.diagonal_sum(g) * b.diagonal_sum(mp.act_right(g, f))
                                 == a.diagonal_sum(mp.act_right(g, fp)) * b.diagonal_sum(g)),
         witness=lambda i: (_char_values(i[0]), _char_values(i[1])) + i[2:])
    gate("onedim-character-action-invariance", trivial, itertools.product(chars, gs, fs),
         lambda a, g, f: a.diagonal_sum(g) == a.diagonal_sum(mp.act_right(g, f)),
         witness=lambda i: (_char_values(i[0]), i[1], i[2], i[0].diagonal_sum(i[1]),
                            i[0].diagonal_sum(mp.act_right(i[1], i[2]))))
    return reports
