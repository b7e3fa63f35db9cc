"""Mutual actions of a matched pair of groups, and the orbit combinatorics.

A matched pair carries a right action <| of F on the set G and a left action
|> of G on the set F tied by

    g |> (f f') = (g |> f) ((g <| f) |> f')
    (g g') <| f = (g <| (g' |> f)) (g' <| f)

Actions are given on generator letters and extended to arbitrary elements by
folding those identities along the normal-form word.  Each MatchedPair keeps
one action table (g.key, f.key) -> (g <| f, g |> f): `from_functions` fills
it in full for finite F from the given functions (the table `verify` then
checks); otherwise each entry is folded once, on its first use.

Orbits O_f = {g |> f}, stabilizers G_f, transversals T_f and dual orbits
O'_g = {g <| f} feed the comodule machinery.  OrbitData reads the |G| images
g |> f once: x joins T_f when x^-1 |> f is an orbit point not reached before,
and z_x in x = g_x z_x is the first x that reached that point.  For a group
action T_f is then the first element of each right coset G_f x, 1 first.
Orbit and dual-orbit products are compared by one rule (_product_sets_commute):
A B = B A as sets, else the witness is the first product a b in a-major order
missing from B A, or else the first product b a (b-major) missing from A B.

`verify` and `CocyclePair.verify` sweep int ids over one PairTables per call:
nested lists indexed by id, each entry filled on its first lookup through the
public act_left/act_right, F.mul/F.inv or CocyclePair.sigma/tau, so each pair
(g, f) is acted on once and each sigma/tau triple looked up once per call.
CocyclePair.verify runs sigma-cocycle and compatibility as row kernels
(PairTables.sweep_rows).
"""

from __future__ import annotations

from itertools import product

from .errors import BadWindow, InvalidAction, UndefinedGeneratorAction
from .groups import closure
from .reports import sweep, sweep_rows
from .scalars import bare

# The largest word-length window a sweep takes.  Instance counts grow with a
# power of the window: `hopfcqt hopf-verify --entry Q8_Dinf` takes about 3 s at
# 20 and 13 s at 32 on a 2-vCPU box, and each doubling costs about x8 more.
MAX_WINDOW = 32


def check_window(bound):
    "bound if it is None or a word length in 0..MAX_WINDOW; else BadWindow."
    if bound is not None and not 0 <= bound <= MAX_WINDOW:
        raise BadWindow("word-length window %r is outside 0..%d" % (bound, MAX_WINDOW))
    return bound


class OrbitData:
    "Orbit, stabilizer, transversal and the g_x z_x factorization at one base point."

    __slots__ = ("f", "orbit", "stabilizer", "transversal", "_stab_keys", "_factor")

    def __init__(self, mp, f):
        G = mp.G
        gs = G.elements()
        self.f = f
        image = {g.key: mp.act_left(g, f) for g in gs}
        self.orbit = list({u.key: u for u in image.values()}.values())  # in G order
        stab = self.stabilizer = [g for g in gs if image[g.key] == f]
        self._stab_keys = {g.key for g in stab}

        def require(ok, what):
            if not ok:
                raise InvalidAction("%s at base point %r: |> is not a group action"
                                    % (what, f))

        for a in stab:
            for b in stab:
                require(G.mul(a, b).key in self._stab_keys, "stabilizer not closed")
            require(G.inv(a).key in self._stab_keys, "stabilizer not inverse-closed")
        first, trans, self._factor = {}, [], {}
        for x in gs:
            z = first.setdefault(image[G.inv(x).key].key, x)
            if z is x:
                trans.append(x)
            gx = G.mul(x, G.inv(z))
            require(gx.key in self._stab_keys, "x z_x^-1 is not in the stabilizer")
            self._factor[x.key] = (gx, z)
        self.transversal = trans
        require(trans[0].is_identity(), "transversal does not start at 1")
        require(len(trans) * len(stab) == G.order(), "cosets do not partition G")

    def in_stabilizer(self, g):
        return g.key in self._stab_keys

    def factorize(self, x):
        "x = g_x z_x with g_x in the stabilizer and z_x in the transversal."
        return self._factor[x.key]


def _product_sets_commute(X, A, B):
    "(True, None) when A B = B A as sets in the group X, else (False, witness); see above."
    AB, BA = {}, {}
    for S, T, out in ((A, B, AB), (B, A, BA)):
        for s in S:
            for t in T:
                prod = X.mul(s, t)
                out.setdefault(prod.key, prod)
    if AB.keys() == BA.keys():
        return True, None
    return False, next(v for P, Q in ((AB, BA), (BA, AB)) for k, v in P.items() if k not in Q)


class MatchedPair:
    """The pair (G finite, F) with its two actions.

    `act_left`, `act_right` and the orbit data read one action table,
    (g.key, f.key) -> (g <| f, g |> f), tabulated or filled on first use as
    the module docstring says, so each pair is folded at most once.
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
        <| by u, and g |> u^-1 = ((g <| u^-1) |> u)^-1, so every letter acts
        bijectively once each generator does.
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
        return cls(G, F, left_letter, right_letter, name=name)

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
        "The F elements every bounded sweep quantifies over; None only for finite F."
        check_window(bound)
        if self.F.is_finite:
            return self.F.elements()
        if bound is None:
            raise BadWindow("a sweep over infinite F needs a word-length window")
        return self.F.elements_up_to_length(bound)

    # -- verification -----------------------------------------------------------

    def verify(self, word_bound=4):
        "Check the action laws, the matched-pair axioms, and the inverse identities."
        T = PairTables(self, word_bound)
        o, e = T.gid[self.G.one.key], T.fid(self.F.one)
        gmul, ginv, fmul, finv, left, right = T.gmul, T.ginv, T.mul, T.inv, T.act_left, T.act_right
        return [
            T.sweep("unit-laws", "GF",
                    lambda g, f: (right(g, e) == g and left(g, e) == e and
                                  right(o, f) == o and left(o, f) == f)),
            T.sweep("right-action", "GFF",
                    lambda g, f, fp: right(g, fmul(f, fp)) == right(right(g, f), fp)),
            T.sweep("left-action", "GGF",
                    lambda g, gp, f: left(gmul[g][gp], f) == left(g, left(gp, f))),
            T.sweep("matched-pair-left", "GFF",
                    lambda g, f, fp: left(g, fmul(f, fp))
                                     == fmul(left(g, f), left(right(g, f), fp))),
            T.sweep("matched-pair-right", "GGF",
                    lambda g, gp, f: right(gmul[g][gp], f)
                                     == gmul[right(g, left(gp, f))][right(gp, f)]),
            T.sweep("action-inverses", "GF",
                    lambda g, f: (finv(left(g, f)) == left(right(g, f), finv(f)) and
                                  ginv[right(g, f)] == right(ginv[g], left(g, f)))),
        ]

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
            right = self._right_letter
            self._dual_cache[g.key] = list(closure(g, list(self._letters),
                                                   lambda h, u: right[(h.key, u)]))
        return list(self._dual_cache[g.key])

    def orbit_product_commutes(self, f, fp):
        "Set equality of O_f O_f' and O_f' O_f in F; witness as in _product_sets_commute."
        return _product_sets_commute(self.F, self.orbit(f), self.orbit(fp))

    def dual_orbit_product_commutes(self, g, gp):
        "Set equality of O'_g O'_g' and O'_g' O'_g in G; witness as in _product_sets_commute."
        return _product_sets_commute(self.G, self.dual_orbit(g), self.dual_orbit(gp))

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


def _blank(kinds, ng, nf):
    "A nested list of None, one axis per letter of kinds: ng ids on a G axis, nf on an F axis."
    size = ng if kinds[0] == "G" else nf
    if len(kinds) == 1:
        return [None] * size
    return [_blank(kinds[1:], ng, nf) for _ in range(size)]


def _widen(table, kinds, ng, nf, grown):
    "Grow every F axis of a _blank table from nf to grown ids."
    if len(kinds) > 1:
        for row in table:
            _widen(row, kinds[1:], ng, nf, grown)
    if kinds[0] == "F":
        table.extend([None] * (grown - nf) if len(kinds) == 1 else
                     [_blank(kinds[1:], ng, grown) for _ in range(grown - nf)])


class PairTables:
    """Int ids and lazily filled tables for one matched-pair or cocycle verify call.

    G ids follow G.elements(); F ids start with the window and append each
    image that leaves it.  gmul[g][g'] and ginv[g] are filled in full.  The
    other tables are nested lists indexed by id, None where not yet filled:
    fmul[f][f'], finv[f], left[g][f] (g |> f), right[g][f] (g <| f) and,
    given cp, sigma[g][f][f'] and tau[g][g'][f].  Every F axis has room for
    the window at first; when fid appends past the room, every F axis of
    every table doubles, so an out-of-window id indexes like a window id.

    An entry is filled on its first lookup, through the public F.mul, F.inv,
    act_left, act_right, CocyclePair.sigma or CocyclePair.tau, so their
    checks and errors stay and each key is looked up once per call, in the
    order the object path first reaches it.  mul, inv, act_left and
    act_right read an id table and fill a missing entry; they test `is
    None`, since id 0 is falsy.  A sweep body reads sigma and tau inline, as
    `sigma[g][f][f'] or fill_sigma(g, f, f')`, which is safe because a
    cocycle value is never zero (CocyclePair raises InvalidCocycle).  The
    value is kept bare (scalars.bare): an int or Fraction when rational, so
    the cocycle identities multiply Python rationals, else a Scalar.

    sweep runs one call per instance; sweep_rows runs one kernel call per row
    of the last letter's ids, for identities cheap enough that the call
    dominates (sigma-cocycle, compatibility).  A kernel may read the ids and
    the list rows that depend only on the outer ids once per row, since
    filling and widening change a row in place and never replace it; it
    reads every sigma/tau value inline, in its turn, so each is still looked
    up in the object path's order.
    """

    def __init__(self, mp, word_bound, cp=None):
        G, F = mp.G, mp.F
        gs = self.gs = G.elements()
        fs = self.fs = list(mp.window(word_bound))
        ng, nf = len(gs), len(fs)
        self.nf = room = nf
        gid = self.gid = {g.key: i for i, g in enumerate(gs)}
        index = {f.key: i for i, f in enumerate(fs)}
        fmul, finv = self.fmul, self.finv = _blank("FF", ng, nf), _blank("F", ng, nf)
        left, right = self.left, self.right = _blank("GF", ng, nf), _blank("GF", ng, nf)
        tables = [(fmul, "FF"), (finv, "F"), (left, "GF"), (right, "GF")]
        if cp is not None:
            sigma, tau = self.sigma, self.tau = _blank("GFF", ng, nf), _blank("GGF", ng, nf)
            tables += [(sigma, "GFF"), (tau, "GGF")]
        self.gmul = [[gid[G.mul(a, b).key] for b in gs] for a in gs]
        self.ginv = [gid[G.inv(a).key] for a in gs]

        # the fills close over the tables, not self: no cycle, so they go with the call
        def fid(f):
            "The id of an F element, appending it on first sight; a full F axis doubles."
            nonlocal room
            i = index.get(f.key)
            if i is None:
                i = index[f.key] = len(fs)
                fs.append(f)
                if i == room:
                    for table, kinds in tables:
                        _widen(table, kinds, ng, room, 2 * room)
                    room *= 2
            return i

        def mul(f, fp):
            v = fmul[f][fp]
            if v is None:
                v = fmul[f][fp] = fid(F.mul(fs[f], fs[fp]))
            return v

        def inv(f):
            v = finv[f]
            if v is None:
                v = finv[f] = fid(F.inv(fs[f]))
            return v

        def act_left(g, f):
            v = left[g][f]
            if v is None:
                v = left[g][f] = fid(mp.act_left(gs[g], fs[f]))
            return v

        def act_right(g, f):
            v = right[g][f]
            if v is None:
                v = right[g][f] = gid[mp.act_right(gs[g], fs[f]).key]
            return v

        self.fid, self.mul, self.inv = fid, mul, inv
        self.act_left, self.act_right = act_left, act_right
        if cp is not None:
            def fill_sigma(g, f, fp):
                v = sigma[g][f][fp] = bare(cp.sigma(gs[g], fs[f], fs[fp]))
                return v

            def fill_tau(g, gp, f):
                v = tau[g][gp][f] = bare(cp.tau(gs[g], gs[gp], fs[f]))
                return v

            self.fill_sigma, self.fill_tau = fill_sigma, fill_tau

    def sweep(self, check, kinds, ok):
        "reports.sweep over window ids, one G or F id per letter of kinds (e.g. 'GFF')."
        ids, witness = self._quantifiers(kinds)
        return sweep(check, product(*ids), ok, witness=witness)

    def sweep_rows(self, check, kinds, first_bad):
        """reports.sweep_rows over window ids: a row of the last letter's ids per
        instance of the other letters, in the order of sweep."""
        ids, witness = self._quantifiers(kinds)
        last = ids.pop()
        return sweep_rows(check, ((prefix, last) for prefix in product(*ids)), first_bad,
                          witness)

    def _quantifiers(self, kinds):
        "The window id range of each letter of kinds, and the witness of an id instance."
        seqs = [self.gs if k == "G" else self.fs for k in kinds]
        ids = [range(len(self.gs) if k == "G" else self.nf) for k in kinds]
        return ids, lambda inst: tuple(seq[i] for seq, i in zip(seqs, inst))
