"""The twisting pair (sigma, tau) on a matched pair, with verification.

sigma: G x F x F -> k*   twists the multiplication,
tau:   G x G x F -> k*   twists the comultiplication,

subject to normalization, the two cocycle identities, and the compatibility
equation tying them together.  Values are Scalars (roots of unity times
rationals); finite F uses tables, the infinite families use rule callables
supplied by catalog entries.  `verify` runs on matched_pair.PairTables, so
each distinct sigma/tau argument triple is looked up once.
"""

from __future__ import annotations

from .errors import InvalidCocycle, MissingEntry, SchemaError, WrongGroup
from .matched_pair import PairTables
from .scalars import ONE


class CocyclePair:
    "sigma and tau over a fixed matched pair."

    def __init__(self, mp, sigma_fn, tau_fn, name="", sigma_table=None, tau_table=None,
                 sigma_default=None, tau_default=None):
        self.mp = mp
        self._sigma = sigma_fn
        self._tau = tau_fn
        self.name = name
        # kept for serialization; None means rule-based
        self.sigma_table = sigma_table
        self.tau_table = tau_table
        self.sigma_default = sigma_default
        self.tau_default = tau_default

    # -- constructors ---------------------------------------------------------

    @classmethod
    def trivial(cls, mp, name=""):
        return cls(mp, lambda g, f, fp: ONE, lambda g, gp, f: ONE,
                   name=name, sigma_table={}, tau_table={},
                   sigma_default=ONE, tau_default=ONE)

    @classmethod
    def from_tables(cls, mp, sigma, tau, sigma_default=ONE, tau_default=ONE, name=""):
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

        return cls(mp, sig, tv, name=name, sigma_table=sigma, tau_table=tau,
                   sigma_default=sigma_default, tau_default=tau_default)

    @classmethod
    def from_functions(cls, mp, sigma_fn, tau_fn, name=""):
        return cls(mp, sigma_fn, tau_fn, name=name)

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

    def verify(self, word_bound=4):
        """Normalization, both cocycle identities, and compatibility.

        Exhaustive over finite F; over words of length <= word_bound in the
        infinite families.
        """
        T = PairTables(self.mp, word_bound, self)
        o, e = T.gid[self.mp.G.one.key], T.fid(self.mp.F.one)
        gmul, fmul, left, right, sigma, tau = T.gmul, T.fmul, T.left, T.right, T.sigma, T.tau
        return [
            T.sweep("normalization", "GGFF",
                    lambda g, gp, f, fp: (sigma[g, e, f] == 1 and sigma[g, f, e] == 1
                                          and sigma[o, f, fp] == 1 and tau[o, g, f] == 1
                                          and tau[g, o, f] == 1 and tau[g, gp, e] == 1)),
            T.sweep("sigma-cocycle", "GFFF",
                    lambda g, f, fp, fpp:
                        sigma[right[g, f], fp, fpp] * sigma[g, f, fmul[fp, fpp]]
                        == sigma[g, f, fp] * sigma[g, fmul[f, fp], fpp]),
            T.sweep("tau-cocycle", "GGGF",
                    lambda g, gp, gpp, f:
                        tau[g, gp, left[gpp, f]] * tau[gmul[g][gp], gpp, f]
                        == tau[g, gmul[gp][gpp], f] * tau[gp, gpp, f]),
            T.sweep("compatibility", "GGFF",
                    lambda g, gp, f, fp:
                        sigma[gmul[g][gp], f, fp] * tau[g, gp, fmul[f, fp]]
                        == (sigma[g, left[gp, f], left[right[gp, f], fp]] * sigma[gp, f, fp]
                            * tau[g, gp, f] * tau[right[g, left[gp, f]], right[gp, f], fp])),
        ]

    def tau_square_identity_check(self, f, fp):
        """For |G| = 2: tau(g,g;ff') = sigma(g;f,f')^2 tau(g,g;f) tau(g,g;f').

        Derived from compatibility, so it must hold whenever verify() passes.
        """
        G, F = self.mp.G, self.mp.F
        if G.order() != 2:
            raise WrongGroup("identity specific to |G| = 2, got order %r" % G.order())
        g = G.elements()[1]
        lhs = self.tau(g, g, F.mul(f, fp))
        s = self.sigma(g, f, fp)
        rhs = s * s * self.tau(g, g, f) * self.tau(g, g, fp)
        return lhs == rhs

    # -- hypothesis probes -------------------------------------------------------

    def sigma_trivial_on(self, word_bound=4):
        mp = self.mp
        fs = mp.window(word_bound)
        return all(self.sigma(g, f, fp).is_one()
                   for g in mp.G.elements() for f in fs for fp in fs)

    def tau_trivial_on(self, word_bound=4):
        mp = self.mp
        fs = mp.window(word_bound)
        return all(self.tau(g, gp, f).is_one()
                   for g in mp.G.elements() for gp in mp.G.elements() for f in fs)

    def __repr__(self):
        return "CocyclePair(%s)" % (self.name or "?")
