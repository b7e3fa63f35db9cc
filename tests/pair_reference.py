"""Object-path matched-pair and cocycle sweeps, kept as the reference.

These are `MatchedPair.verify` and `CocyclePair.verify` as they were written
on group elements: every instance calls the public actions, group products
and sigma/tau lookups, with no memo.  The library runs the same identities
on int ids and per-call, lazily filled nested lists
(`hopfcqt.matched_pair.PairTables`); the tests require both to return the
same reports, witnesses and `checked` counts included, and to raise the same
error on a missing table entry.
"""

from itertools import product

from hopfcqt.reports import sweep


def verify_matched_pair_reference(mp, word_bound=4):
    "The object-path sweep; same arguments and reports as MatchedPair.verify."
    G, F = mp.G, mp.F
    gs = G.elements()
    fs = mp.window(word_bound)
    return [
        sweep("unit-laws", product(gs, fs),
              lambda g, f: (mp.act_right(g, F.one) == g and
                            mp.act_left(g, F.one) == F.one and
                            mp.act_right(G.one, f) == G.one and
                            mp.act_left(G.one, f) == f)),
        sweep("right-action", product(gs, fs, fs),
              lambda g, f, fp: mp.act_right(g, F.mul(f, fp))
                               == mp.act_right(mp.act_right(g, f), fp)),
        sweep("left-action", product(gs, gs, fs),
              lambda g, gp, f: mp.act_left(G.mul(g, gp), f)
                               == mp.act_left(g, mp.act_left(gp, f))),
        sweep("matched-pair-left", product(gs, fs, fs),
              lambda g, f, fp: mp.act_left(g, F.mul(f, fp))
                               == F.mul(mp.act_left(g, f),
                                        mp.act_left(mp.act_right(g, f), fp))),
        sweep("matched-pair-right", product(gs, gs, fs),
              lambda g, gp, f: mp.act_right(G.mul(g, gp), f)
                               == G.mul(mp.act_right(g, mp.act_left(gp, f)),
                                        mp.act_right(gp, f))),
        sweep("action-inverses", product(gs, fs),
              lambda g, f: (F.inv(mp.act_left(g, f))
                            == mp.act_left(mp.act_right(g, f), F.inv(f)) and
                            G.inv(mp.act_right(g, f))
                            == mp.act_right(G.inv(g), mp.act_left(g, f)))),
    ]


def verify_cocycles_reference(cp, word_bound=4):
    "The object-path sweep; same arguments and reports as CocyclePair.verify."
    mp = cp.mp
    G, F = mp.G, mp.F
    gs = G.elements()
    fs = mp.window(word_bound)
    one_G, one_F = G.one, F.one
    return [
        sweep("normalization", product(gs, gs, fs, fs),
              lambda g, gp, f, fp: (cp.sigma(g, one_F, f).is_one() and
                                    cp.sigma(g, f, one_F).is_one() and
                                    cp.sigma(one_G, f, fp).is_one() and
                                    cp.tau(one_G, g, f).is_one() and
                                    cp.tau(g, one_G, f).is_one() and
                                    cp.tau(g, gp, one_F).is_one())),
        sweep("sigma-cocycle", product(gs, fs, fs, fs),
              lambda g, f, fp, fpp:
                  cp.sigma(mp.act_right(g, f), fp, fpp) * cp.sigma(g, f, F.mul(fp, fpp))
                  == cp.sigma(g, f, fp) * cp.sigma(g, F.mul(f, fp), fpp)),
        sweep("tau-cocycle", product(gs, gs, gs, fs),
              lambda g, gp, gpp, f:
                  cp.tau(g, gp, mp.act_left(gpp, f)) * cp.tau(G.mul(g, gp), gpp, f)
                  == cp.tau(g, G.mul(gp, gpp), f) * cp.tau(gp, gpp, f)),
        sweep("compatibility", product(gs, gs, fs, fs),
              lambda g, gp, f, fp:
                  cp.sigma(G.mul(g, gp), f, fp) * cp.tau(g, gp, F.mul(f, fp))
                  == (cp.sigma(g, mp.act_left(gp, f),
                               mp.act_left(mp.act_right(gp, f), fp))
                      * cp.sigma(gp, f, fp)
                      * cp.tau(g, gp, f)
                      * cp.tau(mp.act_right(g, mp.act_left(gp, f)),
                               mp.act_right(gp, f), fp))),
    ]
