"""The twisting pair (sigma, tau) on a matched pair, with verification.

sigma: G x F x F -> k*   twists the multiplication,
tau:   G x G x F -> k*   twists the comultiplication,

subject to normalization, the two cocycle identities, and the compatibility
equation tying them together.  Values are Scalars (roots of unity times
rationals).  Every catalog entry builds its pair with `trivial` or
`from_tables`; any other pair is given by two rule callables.  `verify` runs
on a matched_pair.PairTables: its window argument is a word-length bound,
on which it builds its own, or the table catalog.run_entry shares among its
checks, whose word_bound is the window.  Its identities read
sigma[g][f][f'] and tau[g][g'][f] from nested lists indexed by id, filling
an entry through `sigma`/`tau` on its first lookup, so each distinct
argument triple is looked up once per table, in the order the object path
first reaches it.  All four identities evaluate a whole row of their last F
id per kernel call (PairTables.sweep_rows); normalization reads its values
that do not depend on that id at the row's first item.
"""

from __future__ import annotations

from .errors import InvalidCocycle, MissingEntry, SchemaError
from .groups import z2_generator
from .matched_pair import window_tables
from .scalars import ONE


class CocyclePair:
    "sigma and tau over a fixed matched pair."

    def __init__(self, mp, sigma, tau):
        self.mp = mp
        self._sigma = sigma
        self._tau = tau
        # {"sigma": (table, default), "tau": (table, default)} as from_tables
        # takes them, for serialization; None for a pair given by rules
        self.tables = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, mp):
        cp = cls(mp, lambda g, f, fp: ONE, lambda g, gp, f: ONE)
        cp.tables = {"sigma": ({}, ONE), "tau": ({}, ONE)}
        return cp

    @classmethod
    def from_tables(cls, mp, sigma, tau, sigma_default=ONE, tau_default=ONE):
        """Tables keyed by (g.key, f.key, f'.key) and (g.key, g'.key, f.key).

        Lookups fall back to the default; a None default turns misses into
        MissingEntry errors.  Total tables are only possible for finite F.
        A zero value or a zero default raises SchemaError.
        """
        sigma = dict(sigma)
        tau = dict(tau)
        for tag, table, default in (("sigma", sigma, sigma_default),
                                    ("tau", tau, tau_default)):
            if default is not None and default.is_zero():
                raise SchemaError("%s default is zero; cocycle values must be nonzero" % tag,
                                  tag)
            for key, v in table.items():
                if v.is_zero():
                    raise SchemaError("%s value at %r is zero; cocycle values must be "
                                      "nonzero" % (tag, key), tag)

        def sig(g, f, fp):
            v = sigma.get((g.key, f.key, fp.key), sigma_default)
            if v is None:
                raise MissingEntry("sigma(%r; %r, %r) undeclared" % (g, f, fp))
            return v

        def tv(g, gp, f):
            v = tau.get((g.key, gp.key, f.key), tau_default)
            if v is None:
                raise MissingEntry("tau(%r, %r; %r) undeclared" % (g, gp, f))
            return v

        cp = cls(mp, sig, tv)
        cp.tables = {"sigma": (sigma, sigma_default), "tau": (tau, tau_default)}
        return cp

    # -- evaluation -------------------------------------------------------------

    def sigma(self, g, f, fp):
        self.mp.G._member(g)
        self.mp.F._member(f)
        self.mp.F._member(fp)
        v = self._sigma(g, f, fp)
        if v.is_zero():
            raise InvalidCocycle("sigma value is zero at (%r; %r, %r)" % (g, f, fp))
        return v

    def tau(self, g, gp, f):
        self.mp.G._member(g)
        self.mp.G._member(gp)
        self.mp.F._member(f)
        v = self._tau(g, gp, f)
        if v.is_zero():
            raise InvalidCocycle("tau value is zero at (%r, %r; %r)" % (g, gp, f))
        return v

    # -- verification ---------------------------------------------------------

    def verify(self, window=4):
        """Normalization, both cocycle identities, and compatibility.

        Exhaustive over finite F; over words of length <= the window in the
        infinite families.  window is a word-length bound, or a PairTables
        built with this pair, whose word_bound it is and whose ids the sweeps read
        (matched_pair.window_tables: any other table raises ContextMismatch).
        """
        P = window_tables(window, self.mp, self)
        o, e = P.gid[self.mp.G.one.key], P.fid(self.mp.F.one)
        gmul, fmul, left, right = P.gmul, P.mul, P.act_left, P.act_right
        S, T, sig, tau = P.sigma, P.tau, P.fill_sigma, P.fill_tau
        M, L = P.fmul, P.left

        # row kernels (PairTables.sweep_rows): ids and rows of the outer ids are
        # read once per row, every sigma/tau value inline in its turn
        def normalization(prefix, fps):
            """sigma(g; 1, f), sigma(g; f, 1), sigma(1; f, f'), tau(1, g; f), tau(g, 1; f)
            and tau(g, g'; 1) are 1; the values that do not read f' are read at the
            row's first item, in this order, and decide it and so the row"""
            g, gp, f = prefix
            if (S[g][e][f] or sig(g, e, f)) != 1 or (S[g][f][e] or sig(g, f, e)) != 1:
                return 0, 0
            s_of = S[o][f]
            for n, fp in enumerate(fps):
                if (s_of[fp] or sig(o, f, fp)) != 1:
                    return n, 0
                if n == 0 and ((T[o][g][f] or tau(o, g, f)) != 1
                               or (T[g][o][f] or tau(g, o, f)) != 1
                               or (T[g][gp][e] or tau(g, gp, e)) != 1):
                    return 0, 0
            return None, 0

        def sigma_cocycle(prefix, fpps):
            "sigma(g <| f; f', f'') sigma(g; f, f'f'') = sigma(g; f, f') sigma(g; ff', f'')"
            g, f, fp = prefix
            h, p = right(g, f), fmul(f, fp)
            s_h, s_g, s_p, m_fp = S[h][fp], S[g][f], S[g][p], M[fp]
            for n, fpp in enumerate(fpps):
                q = m_fp[fpp]
                if q is None:
                    q = fmul(fp, fpp)
                if ((s_h[fpp] or sig(h, fp, fpp)) * (s_g[q] or sig(g, f, q))
                        != (s_g[fp] or sig(g, f, fp)) * (s_p[fpp] or sig(g, p, fpp))):
                    return n, 0
            return None, 0

        def tau_cocycle(prefix, fids):
            "tau(g, g'; g'' |> f) tau(gg', g''; f) = tau(g, g'g''; f) tau(g', g''; f)"
            g, gp, gpp = prefix
            a, b = gmul[g][gp], gmul[gp][gpp]
            t_g, t_a, t_b, t_gp, l_gpp = T[g][gp], T[a][gpp], T[g][b], T[gp][gpp], L[gpp]
            for n, f in enumerate(fids):
                h = l_gpp[f]
                if h is None:
                    h = left(gpp, f)
                if ((t_g[h] or tau(g, gp, h)) * (t_a[f] or tau(a, gpp, f))
                        != (t_b[f] or tau(g, b, f)) * (t_gp[f] or tau(gp, gpp, f))):
                    return n, 0
            return None, 0

        def compatibility(prefix, fps):
            """sigma(gg'; f, f') tau(g, g'; ff') = sigma(g; u, v |> f') sigma(g'; f, f')
            tau(g, g'; f) tau(g <| u, v; f'), with u = g' |> f and v = g' <| f"""
            g, gp, f = prefix
            a, u, v = gmul[g][gp], left(gp, f), right(gp, f)
            x = right(g, u)
            s_a, t_g, s_u, s_gp, t_x = S[a][f], T[g][gp], S[g][u], S[gp][f], T[x][v]
            m_f, l_v = M[f], L[v]
            for n, fp in enumerate(fps):
                ff, w = m_f[fp], l_v[fp]
                if ff is None:
                    ff = fmul(f, fp)
                if w is None:
                    w = left(v, fp)
                if ((s_a[fp] or sig(a, f, fp)) * (t_g[ff] or tau(g, gp, ff))
                        != ((s_u[w] or sig(g, u, w)) * (s_gp[fp] or sig(gp, f, fp))
                            * (t_g[f] or tau(g, gp, f)) * (t_x[fp] or tau(x, v, fp)))):
                    return n, 0
            return None, 0

        return [P.sweep_rows("normalization", "GGFF", normalization),
                P.sweep_rows("sigma-cocycle", "GFFF", sigma_cocycle),
                P.sweep_rows("tau-cocycle", "GGGF", tau_cocycle),
                P.sweep_rows("compatibility", "GGFF", compatibility)]

    def tau_square_identity_check(self, f, fp):
        """For |G| = 2: tau(g,g;ff') = sigma(g;f,f')^2 tau(g,g;f) tau(g,g;f').

        Derived from compatibility, so it must hold whenever verify() passes.
        """
        g = z2_generator(self.mp.G)
        F = self.mp.F
        lhs = self.tau(g, g, F.mul(f, fp))
        s = self.sigma(g, f, fp)
        rhs = s * s * self.tau(g, g, f) * self.tau(g, g, fp)
        return lhs == rhs

    def __repr__(self):
        return "CocyclePair(over %r)" % self.mp
