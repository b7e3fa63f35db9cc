"""Mutual actions of a matched pair of groups, and the orbit combinatorics.

A matched pair carries a right action <| of F on the set G and a left action
|> of G on the set F tied by

    g |> (f f') = (g |> f) ((g <| f) |> f')
    (g g') <| f = (g <| (g' |> f)) (g' <| f)

Actions are given on generator letters and extended to arbitrary elements by
folding those identities along the normal-form word.  Each MatchedPair keeps
one action table (g.key, f.key) -> (g <| f, g |> f): for finite F it is filled
in full at construction, for infinite F each entry is folded once, on its
first use.  Orbits O_f = {g |> f}, stabilizers G_f, transversals T_f (1 in
T_f) and dual orbits O'_g = {g <| f} feed the comodule machinery.
"""

from __future__ import annotations

from .errors import UndefinedGeneratorAction
from .reports import FAIL, PASS, ConditionReport


class OrbitData:
    "Orbit, stabilizer, transversal and the g_x z_x factorization at one base point."

    __slots__ = ("f", "orbit", "stabilizer", "transversal", "_stab_keys", "_factor")

    def __init__(self, mp, f):
        G = mp.G
        self.f = f
        orbit, seen = [], set()
        stab = []
        for g in G.elements():
            gf = mp.act_left(g, f)
            if gf.key not in seen:
                seen.add(gf.key)
                orbit.append(gf)
            if gf == f:
                stab.append(g)
        self.orbit = orbit
        self.stabilizer = stab
        self._stab_keys = {g.key for g in stab}
        for a in stab:
            for b in stab:
                assert G.mul(a, b).key in self._stab_keys, "stabilizer not closed"
            assert G.inv(a).key in self._stab_keys, "stabilizer not inverse-closed"
        trans = []
        for x in G.elements():
            if not any(G.mul(x, G.inv(z)).key in self._stab_keys for z in trans):
                trans.append(x)
        self.transversal = trans
        assert trans[0].is_identity()
        assert len(trans) * len(stab) == G.order()
        self._factor = {}
        for x in G.elements():
            hits = [z for z in trans if G.mul(x, G.inv(z)).key in self._stab_keys]
            assert len(hits) == 1, "coset representatives are not a transversal"
            z = hits[0]
            self._factor[x.key] = (G.mul(x, G.inv(z)), z)
        # the transversal reaches the whole orbit: {z^-1 |> f} = O_f, no repeats
        reached = {mp.act_left(G.inv(z), f).key for z in trans}
        assert reached == seen and len(reached) == len(trans)

    def in_stabilizer(self, g):
        return g.key in self._stab_keys

    def factorize(self, x):
        "x = g_x z_x with g_x in the stabilizer and z_x in the transversal."
        return self._factor[x.key]


class MatchedPair:
    """The pair (G finite, F) with its two actions.

    `act_left`, `act_right` and the orbit data read one action table,
    (g.key, f.key) -> (g <| f, g |> f), total from construction for finite F
    and filled on first use for infinite F, so each pair is folded at most once.
    """

    def __init__(self, G, F, left_letter, right_letter, name=""):
        # left_letter/right_letter: dict (g.key, letter.key) -> GroupElement
        self.G = G
        self.F = F
        self.name = name
        self._letters = {u.key: u for u in F.letters()}
        self._left_letter = left_letter
        self._right_letter = right_letter
        self._table = {}
        self._orbit_cache = {}
        self._dual_cache = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_functions(cls, G, F, left, right, name=""):
        "Tabulate total action functions left(g, f) = g |> f, right(g, f) = g <| f."
        letters = F.letters()
        left_letter, right_letter = {}, {}
        for g in G.elements():
            for u in letters:
                left_letter[(g.key, u.key)] = F._member(left(g, u))
                right_letter[(g.key, u.key)] = G._member(right(g, u))
        mp = cls(G, F, left_letter, right_letter, name=name)
        mp._check_letter_bijections()
        if F.is_finite:
            for g in G.elements():
                for f in F.elements():
                    mp._table[(g.key, f.key)] = (G._member(right(g, f)),
                                                 F._member(left(g, f)))
        return mp

    @classmethod
    def from_generator_tables(cls, G, F, left_tables, right_tables, name=""):
        """Build the pair from tables on generators only.

        Inverse-letter actions are derived: <| by u^-1 inverts the bijection
        <| by u, and g |> u^-1 = ((g <| u^-1) |> u)^-1.
        """
        left_letter, right_letter = {}, {}
        for gen in F.generators():
            perm = {}
            for g in G.elements():
                key = (g.key, gen.key)
                if key not in right_tables or key not in left_tables:
                    raise UndefinedGeneratorAction(
                        "missing action of generator %r on %r" % (gen, g))
                left_letter[key] = F._member(left_tables[key])
                right_letter[key] = G._member(right_tables[key])
                perm[g.key] = right_letter[key]
            image_keys = {v.key for v in perm.values()}
            if len(image_keys) != G.order():
                raise UndefinedGeneratorAction(
                    "<| by generator %r is not a bijection of G" % gen)
            geninv = F.inv(gen)
            if geninv.key not in {gen.key}:
                inv_perm = {perm[k].key: k for k in perm}
                for g in G.elements():
                    right_letter[(g.key, geninv.key)] = G._element(inv_perm[g.key])
                for g in G.elements():
                    h = right_letter[(g.key, geninv.key)]
                    left_letter[(g.key, geninv.key)] = F.inv(left_letter[(h.key, gen.key)])
        mp = cls(G, F, left_letter, right_letter, name=name)
        mp._check_letter_bijections()
        if F.is_finite:
            for g in G.elements():
                for f in F.elements():
                    mp._action(g, f)
        return mp

    def _check_letter_bijections(self):
        for u in self._letters.values():
            rimages = {self._right_letter[(g.key, u.key)].key for g in self.G.elements()}
            if len(rimages) != self.G.order():
                raise UndefinedGeneratorAction("<| by letter %r is not bijective" % u)

    # -- evaluation ---------------------------------------------------------

    def _fold(self, g, word):
        "(g <| w, g |> w) for a word of letters, via the matched-pair extension rule."
        F = self.F
        parts = []
        cur = g
        for u in word:
            parts.append(self._left_letter[(cur.key, u.key)])
            cur = self._right_letter[(cur.key, u.key)]
        return cur, F.product(parts)

    def _action(self, g, f):
        "(g <| f, g |> f) from the action table, folding a missing entry once."
        key = (g.key, f.key)
        hit = self._table.get(key)
        if hit is None:
            hit = self._table[key] = self._fold(g, self.F.letter_decomposition(f))
        return hit

    def act_left(self, g, f):
        "g |> f"
        self.G._member(g)
        self.F._member(f)
        return self._action(g, f)[1]

    def act_right(self, g, f):
        "g <| f"
        self.G._member(g)
        self.F._member(f)
        return self._action(g, f)[0]

    def act_word(self, g, word):
        "Fold an explicit letter word; for consistency tests against normal forms."
        return self._fold(g, word)

    # -- windows --------------------------------------------------------------

    def window(self, bound):
        "The F elements every bounded sweep quantifies over."
        if self.F.is_finite:
            return self.F.elements()
        return self.F.elements_up_to_length(bound)

    # -- verification -----------------------------------------------------------

    def verify(self, word_bound=4):
        "Check the action laws, the matched-pair axioms, and the inverse identities."
        G, F = self.G, self.F
        gs = G.elements()
        fs = self.window(word_bound)
        reports = []

        def sweep(check, instances, predicate):
            checked = 0
            for inst in instances:
                checked += 1
                if not predicate(*inst):
                    return ConditionReport(check, FAIL, witness=inst, checked=checked)
            return ConditionReport(check, PASS, checked=checked)

        reports.append(sweep(
            "unit-laws",
            ([g, f] for g in gs for f in fs),
            lambda g, f: (self.act_right(g, F.one) == g and
                          self.act_left(g, F.one) == F.one and
                          self.act_right(G.one, f) == G.one and
                          self.act_left(G.one, f) == f)))
        reports.append(sweep(
            "right-action",
            ([g, f, fp] for g in gs for f in fs for fp in fs),
            lambda g, f, fp: self.act_right(g, F.mul(f, fp))
                             == self.act_right(self.act_right(g, f), fp)))
        reports.append(sweep(
            "left-action",
            ([g, gp, f] for g in gs for gp in gs for f in fs),
            lambda g, gp, f: self.act_left(G.mul(g, gp), f)
                             == self.act_left(g, self.act_left(gp, f))))
        reports.append(sweep(
            "matched-pair-left",
            ([g, f, fp] for g in gs for f in fs for fp in fs),
            lambda g, f, fp: self.act_left(g, F.mul(f, fp))
                             == F.mul(self.act_left(g, f),
                                      self.act_left(self.act_right(g, f), fp))))
        reports.append(sweep(
            "matched-pair-right",
            ([g, gp, f] for g in gs for gp in gs for f in fs),
            lambda g, gp, f: self.act_right(G.mul(g, gp), f)
                             == G.mul(self.act_right(g, self.act_left(gp, f)),
                                      self.act_right(gp, f))))
        reports.append(sweep(
            "action-inverses",
            ([g, f] for g in gs for f in fs),
            lambda g, f: (F.inv(self.act_left(g, f))
                          == self.act_left(self.act_right(g, f), F.inv(f)) and
                          G.inv(self.act_right(g, f))
                          == self.act_right(G.inv(g), self.act_left(g, f)))))
        return reports

    # -- orbits -----------------------------------------------------------------

    def orbit_data(self, f):
        self.F._member(f)
        if f.key not in self._orbit_cache:
            self._orbit_cache[f.key] = OrbitData(self, f)
        return self._orbit_cache[f.key]

    def orbit(self, f):
        "O_f = {g |> f : g in G}"
        return list(self.orbit_data(f).orbit)

    def stabilizer(self, f):
        "G_f = {g : g |> f = f}, returned as a verified subgroup element list."
        return list(self.orbit_data(f).stabilizer)

    def transversal(self, f):
        "Right coset representatives of G_f in G, identity first."
        return list(self.orbit_data(f).transversal)

    def orbit_representative(self, f):
        "Canonical representative of O_f: minimal by (word length, formatted name)."
        return min(self.orbit(f), key=lambda u: (self.F.element_length(u), self.F.format(u)))

    def dual_orbit(self, g):
        "O'_g = {g <| f : f in F}, the closure of {g} under the letter actions."
        self.G._member(g)
        if g.key not in self._dual_cache:
            seen = {g.key: g}
            frontier = [g]
            while frontier:
                new = []
                for h in frontier:
                    for u in self._letters.values():
                        hu = self._right_letter[(h.key, u.key)]
                        if hu.key not in seen:
                            seen[hu.key] = hu
                            new.append(hu)
                frontier = new
            self._dual_cache[g.key] = list(seen.values())
        return list(self._dual_cache[g.key])

    def orbit_product_commutes(self, f, fp):
        "Set equality of O_f O_f' and O_f' O_f; witness from the symmetric difference."
        F = self.F
        P = {}
        for a in self.orbit(f):
            for b in self.orbit(fp):
                ab = F.mul(a, b)
                P.setdefault(ab.key, ab)
        Q = {}
        for b in self.orbit(fp):
            for a in self.orbit(f):
                ba = F.mul(b, a)
                Q.setdefault(ba.key, ba)
        if set(P) == set(Q):
            return True, None
        for k, v in P.items():
            if k not in Q:
                return False, v
        for k, v in Q.items():
            if k not in P:
                return False, v
        raise AssertionError("unreachable")

    def dual_orbit_product_commutes(self, g, gp):
        "Set equality of O'_g O'_g' and O'_g' O'_g in G."
        G = self.G
        P = {G.mul(a, b).key for a in self.dual_orbit(g) for b in self.dual_orbit(gp)}
        Q = {G.mul(b, a).key for a in self.dual_orbit(g) for b in self.dual_orbit(gp)}
        if P == Q:
            return True, None
        diff = (P - Q) or (Q - P)
        key = sorted(diff, key=repr)[0]
        return False, G._element(key)

    # -- hypothesis probes (bounded for infinite F) ------------------------------

    def left_action_trivial(self, word_bound=4):
        return all(self.act_left(g, f) == f
                   for g in self.G.elements() for f in self.window(word_bound))

    def is_central(self, word_bound=4):
        "g <| f = g everywhere on the window (the extension is central)."
        return all(self.act_right(g, f) == g
                   for g in self.G.elements() for f in self.window(word_bound))

    def fixed_points(self, word_bound=4):
        "Elements of the window fixed by every g (orbit of size one)."
        return [f for f in self.window(word_bound) if len(self.orbit(f)) == 1]

    def __repr__(self):
        return "MatchedPair(%s: G=%r, F=%r)" % (self.name or "?", self.G, self.F)
