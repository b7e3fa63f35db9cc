"""The twisting pair (sigma, tau) on a matched pair, with verification.

sigma: G x F x F -> k*   twists the multiplication,
tau:   G x G x F -> k*   twists the comultiplication,

subject to normalization, the two cocycle identities, and the compatibility
equation tying them together.  Values are Scalars (roots of unity times
rationals); finite F uses tables, the infinite families use rule callables
supplied by catalog entries.
"""

from __future__ import annotations

from .errors import MissingEntry, SchemaError, WrongGroup
from .reports import FAIL, PASS, ConditionReport
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
            raise ValueError("sigma value is zero at (%r; %r, %r)" % (g, f, fp))
        return v

    def tau(self, g, gp, f):
        self.mp.G._member(g)
        self.mp.G._member(gp)
        self.mp.F._member(f)
        v = self._tau(g, gp, f)
        if v.is_zero():
            raise ValueError("tau value is zero at (%r, %r; %r)" % (g, gp, f))
        return v

    # -- verification ---------------------------------------------------------

    def verify(self, word_bound=4):
        """Normalization, both cocycle identities, and compatibility.

        Exhaustive over finite F; over words of length <= word_bound in the
        infinite families.
        """
        mp = self.mp
        G, F = mp.G, mp.F
        gs = G.elements()
        fs = mp.window(word_bound)
        reports = []

        def sweep(check, instances, predicate):
            checked = 0
            for inst in instances:
                checked += 1
                if not predicate(*inst):
                    return ConditionReport(check, FAIL, witness=inst, checked=checked)
            return ConditionReport(check, PASS, checked=checked)

        one_G, one_F = G.one, F.one
        reports.append(sweep(
            "normalization",
            ([g, gp, f, fp] for g in gs for gp in gs for f in fs for fp in fs),
            lambda g, gp, f, fp: (self.sigma(g, one_F, f).is_one() and
                                  self.sigma(g, f, one_F).is_one() and
                                  self.sigma(one_G, f, fp).is_one() and
                                  self.tau(one_G, g, f).is_one() and
                                  self.tau(g, one_G, f).is_one() and
                                  self.tau(g, gp, one_F).is_one())))
        reports.append(sweep(
            "sigma-cocycle",
            ([g, f, fp, fpp] for g in gs for f in fs for fp in fs for fpp in fs),
            lambda g, f, fp, fpp:
                self.sigma(mp.act_right(g, f), fp, fpp) * self.sigma(g, f, F.mul(fp, fpp))
                == self.sigma(g, f, fp) * self.sigma(g, F.mul(f, fp), fpp)))
        reports.append(sweep(
            "tau-cocycle",
            ([g, gp, gpp, f] for g in gs for gp in gs for gpp in gs for f in fs),
            lambda g, gp, gpp, f:
                self.tau(g, gp, mp.act_left(gpp, f)) * self.tau(G.mul(g, gp), gpp, f)
                == self.tau(g, G.mul(gp, gpp), f) * self.tau(gp, gpp, f)))
        reports.append(sweep(
            "compatibility",
            ([g, gp, f, fp] for g in gs for gp in gs for f in fs for fp in fs),
            lambda g, gp, f, fp:
                self.sigma(G.mul(g, gp), f, fp) * self.tau(g, gp, F.mul(f, fp))
                == (self.sigma(g, mp.act_left(gp, f),
                               mp.act_left(mp.act_right(gp, f), fp))
                    * self.sigma(gp, f, fp)
                    * self.tau(g, gp, f)
                    * self.tau(mp.act_right(g, mp.act_left(gp, f)),
                               mp.act_right(gp, f), fp))))
        return reports

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
