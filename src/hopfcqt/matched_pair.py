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

Each MatchedPair also holds one G id table (`gids`, built on first use):
G ids follow G.elements(), with the product and inverse as id lists
(group_ids).  OrbitData alone reads G through it, so it multiplies and
inverts by list lookups, not G.mul and G.inv.  Its ids are those of every
PairTables, which numbers G the same way, so the comodule side (comodules.py)
reads OrbitData's ids on the context's shared PairTables.

Orbits O_f = {g |> f}, stabilizers G_f, transversals T_f and dual orbits
O'_g = {g <| f} feed the comodule machinery.  OrbitData reads the |G| images
g |> f once and keeps them (`images`, by G id; `induce` and `character` read
them): x joins T_f when x^-1 |> f is an orbit point not reached before,
and z_x in x = g_x z_x is the first x that reached that point.  For a group
action T_f is then the first element of each right coset G_f x, 1 first.
Orbit and dual-orbit products are compared by one rule (_product_sets_commute),
on group elements or on ids: A B = B A as sets, else the witness is the first
product a b in a-major order missing from B A, or else the first product b a
(b-major) missing from A B.  cqt.check_orbit_commutation applies it to orbits
as F ids of a PairTables.

`verify` and `CocyclePair.verify` sweep int ids over one PairTables: nested
lists indexed by id, each entry filled on its first lookup through the public
act_left/act_right, F.mul/F.inv or CocyclePair.sigma/tau, so each pair (g, f)
is acted on once and each sigma/tau triple looked up once per table.  Their
one `window` argument is a word-length bound, on which they build a table of
their own, or the PairTables that catalog.run_entry and `hopfcqt
cqt-necessary` share among their checks, whose word_bound is the window.
CocyclePair.verify runs all four of its identities as row kernels.
"""

from __future__ import annotations

import functools
from itertools import product

from .errors import BadWindow, ContextMismatch, InvalidAction, UndefinedGeneratorAction
from .groups import MAX_WINDOW, closure
from .reports import sweep, sweep_rows
from .scalars import bare


def check_window(bound):
    "bound if it is None or a word length in 0..MAX_WINDOW; else BadWindow."
    if bound is not None and not 0 <= bound <= MAX_WINDOW:
        raise BadWindow("word-length window %r is outside 0..%d" % (bound, MAX_WINDOW))
    return bound


def group_ids(G):
    """(gs, gid, gmul, ginv) for a finite group G: gs = G.elements(), gid[g.key] the
    id of g in gs, gmul[i][j] the id of gs[i] gs[j] and ginv[i] that of gs[i]^-1."""
    gs = G.elements()
    gid = {g.key: i for i, g in enumerate(gs)}
    return (gs, gid, [[gid[G.mul(a, b).key] for b in gs] for a in gs],
            [gid[G.inv(a).key] for a in gs])


class OrbitData:
    """Orbit, stabilizer, transversal and the g_x z_x factorization at one base point.

    At 1_F the unit law g |> 1 = 1 is checked, so G_1 = G.  G_f is checked to be
    closed under products only: once a G_f lies in G_f, left multiplication by a
    maps the finite set G_f into itself, so every power of a, a^-1 among them, lies
    in G_f.  The transversal starts at 1 unchecked: G.elements() starts at the
    identity in every finite family (FiniteGroup index 0, DirectProductGroup's
    product of such lists), so x = 1 is the first element to reach its point.

    The checks run on the pair's G ids (MatchedPair.gids).  images[x] is
    x |> f for the G id x, each read once through act_left; stab_ids and
    trans_ids are G_f and T_f as G ids, in G order, and factor_ids[x] is the
    pair of G ids (g_x, z_x) for the G id x.
    """

    __slots__ = ("f", "images", "orbit", "stabilizer", "transversal", "stab_ids",
                 "trans_ids", "factor_ids", "_stab_keys", "_gids")

    def __init__(self, mp, f):
        gs, gid, gmul, ginv = self._gids = mp.gids
        self.f = f
        image = self.images = [mp.act_left(g, f) for g in gs]
        self.orbit = list({u.key: u for u in image}.values())  # in G order
        sids = self.stab_ids = [i for i, u in enumerate(image) if u == f]
        stab = self.stabilizer = [gs[i] for i in sids]
        self._stab_keys = {g.key for g in stab}
        in_stab = set(sids)

        def require(ok, what):
            if not ok:
                raise InvalidAction("%s at base point %r: |> is not a group action"
                                    % (what, f))

        if f.is_identity() and len(stab) < len(gs):
            require(False, "%r |> 1 is not 1" % next(g for g, u in zip(gs, image) if u != f))
        for a in sids:
            for b in sids:
                require(gmul[a][b] in in_stab, "stabilizer not closed")
        first, trans, factor = {}, [], []
        for x in range(len(gs)):
            z = first.setdefault(image[ginv[x]].key, x)
            if z == x:
                trans.append(x)
            gx = gmul[x][ginv[z]]
            require(gx in in_stab, "x z_x^-1 is not in the stabilizer")
            factor.append((gx, z))
        self.trans_ids, self.factor_ids = trans, factor
        self.transversal = [gs[z] for z in trans]
        require(len(trans) * len(stab) == len(gs), "cosets do not partition G")

    def in_stabilizer(self, g):
        return g.key in self._stab_keys

    def factorize(self, x):
        "x = g_x z_x with g_x in the stabilizer and z_x in the transversal."
        gs, gid = self._gids[:2]
        gx, z = self.factor_ids[gid[x.key]]
        return gs[gx], gs[z]


def _product_sets_commute(mul, A, B):
    """(True, None) when A B = B A as sets, else (False, witness); see above.  A and B
    are group elements or ids, mul multiplies two of them."""
    AB = dict.fromkeys(mul(a, b) for a in A for b in B)
    BA = dict.fromkeys(mul(b, a) for b in B for a in A)
    if AB.keys() == BA.keys():
        return True, None
    return False, next(v for P, Q in ((AB, BA), (BA, AB)) for v in P if v not in Q)


class MatchedPair:
    """The pair (G finite, F) with its two actions.

    `act_left`, `act_right` and the orbit data read one action table,
    (g.key, f.key) -> (g <| f, g |> f), tabulated or filled on first use as
    the module docstring says, so each pair is folded at most once.

    `gids` is the pair's one G id table (gs, gid, gmul, ginv) of group_ids,
    built on first use and kept: gs lists G.elements(), gid maps g.key to its
    id, gmul and ginv give products and inverses as ids.  Only OrbitData
    reads it; the comodule side reads the same ids, with products, inverses
    and tau, on the context's shared PairTables.  A PairTables builds its own
    gmul and ginv and drops them with itself.
    """

    def __init__(self, G, F, left_letter, right_letter):
        # left_letter/right_letter: dict (g.key, letter.key) -> GroupElement
        self.G = G
        self.F = F
        self._letters = {u.key: u for u in F.letters()}
        self._left_letter = left_letter
        self._right_letter = right_letter
        self._table = {}
        self._orbit_cache = {}
        self._dual_cache = {}

    @functools.cached_property
    def gids(self):
        "The G id table (gs, gid, gmul, ginv) of group_ids, built on first use."
        return group_ids(self.G)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_functions(cls, G, F, left, right):
        "Tabulate total action functions left(g, f) = g |> f, right(g, f) = g <| f."
        letters = F.letters()
        left_letter, right_letter = {}, {}
        for g in G.elements():
            for u in letters:
                left_letter[(g.key, u.key)] = F._member(left(g, u))
                right_letter[(g.key, u.key)] = G._member(right(g, u))
        mp = cls(G, F, left_letter, right_letter)
        mp._check_letter_bijections()
        if F.is_finite:
            for g in G.elements():
                for f in F.elements():
                    mp._table[(g.key, f.key)] = (G._member(right(g, f)),
                                                 F._member(left(g, f)))
        return mp

    @classmethod
    def from_generator_tables(cls, G, F, left_tables, right_tables):
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
        return cls(G, F, left_letter, right_letter)

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

    def verify(self, window=4):
        """Check the action laws, the matched-pair axioms, and the inverse identities
        on a window: a word-length bound, or a shared PairTables built on this pair
        (module docstring; window_tables)."""
        T = window_tables(window, self)
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
        return _product_sets_commute(self.F.mul, self.orbit(f), self.orbit(fp))

    def dual_orbit_product_commutes(self, g, gp):
        "Set equality of O'_g O'_g' and O'_g' O'_g in G; witness as in _product_sets_commute."
        return _product_sets_commute(self.G.mul, self.dual_orbit(g), self.dual_orbit(gp))

    def fixed_points(self, word_bound=4):
        "Elements of the window fixed by every g (orbit of size one)."
        return [f for f in self.window(word_bound) if len(self.orbit(f)) == 1]

    def __repr__(self):
        return "MatchedPair(G=%r, F=%r)" % (self.G, self.F)


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
    """Int ids and lazily filled tables for one verify call, or for every check of one
    catalog.run_entry or `hopfcqt cqt-necessary` call.

    G ids follow G.elements(); F ids start with the window on word_bound,
    which the table keeps, and append each image that leaves it.  gmul[g][g']
    and ginv[g] are filled in full.  The other tables are nested lists indexed
    by id, None where not yet filled: fmul[f][f'], finv[f], left[g][f]
    (g |> f), right[g][f] (g <| f) and, given cp, sigma[g][f][f'] and
    tau[g][g'][f].  Every F axis has room for the window at first; when fid
    appends past the room, every F axis of every table doubles, so an
    out-of-window id indexes like a window id.

    An entry is filled on its first lookup, through the public F.mul, F.inv,
    act_left, act_right, CocyclePair.sigma or CocyclePair.tau, so their
    checks and errors stay and each key is looked up once per table, in the
    order the object path first reaches it.  mul, inv, act_left and
    act_right read an id table and fill a missing entry; they test `is
    None`, since id 0 is falsy.  A sweep body reads sigma and tau inline, as
    `sigma[g][f][f'] or fill_sigma(g, f, f')`, which is safe because a
    cocycle value is never zero (CocyclePair raises InvalidCocycle).  The
    value is kept bare (scalars.bare): an int or Fraction when rational, so
    the cocycle identities multiply Python rationals, else a Scalar.

    sweep runs one call per instance; sweep_rows runs one kernel call per row
    of the last letter's ids, for identities cheap enough that the call
    dominates (the four cocycle identities).  A kernel may read the ids and
    the list rows that depend only on the outer ids once per row, since
    filling and widening change a row in place and never replace it; it
    reads every sigma/tau value inline, in its turn, so each is still looked
    up in the object path's order.

    Checks may share a table, as the four table checks of one run_entry do:
    each of MatchedPair.verify, CocyclePair.verify, hopf.verify_hopf_axioms
    and cqt.necessary_battery takes it as its window argument, and reads its
    word_bound as the window; window_tables refuses a table built on another
    pair, or without the cocycle pair the verifier reads.  An entry is a
    deterministic function of its ids and a lookup that raises stores
    nothing, so a check that reads an entry another filled sees the
    value it would have looked up itself, and raises at the same first
    failing key.  The sharer drops the table on return (13 tables kept on
    the catalog contexts measured 3.6 MB).
    """

    def __init__(self, mp, word_bound, cp=None):
        F = mp.F
        self.mp, self.cp = mp, cp
        gs, gid, self.gmul, self.ginv = group_ids(mp.G)
        self.gs, self.gid = gs, gid
        self.word_bound = word_bound
        fs = self.fs = list(mp.window(word_bound))
        ng, nf = len(gs), len(fs)
        self.nf = room = nf
        index = {f.key: i for i, f in enumerate(fs)}
        fmul, finv = _blank("FF", ng, nf), _blank("F", ng, nf)
        left, right = _blank("GF", ng, nf), _blank("GF", ng, nf)
        self.fmul, self.left = fmul, left  # cocycles.verify reads these two
        tables = [(fmul, "FF"), (finv, "F"), (left, "GF"), (right, "GF")]
        if cp is not None:
            sigma, tau = self.sigma, self.tau = _blank("GFF", ng, nf), _blank("GGF", ng, nf)
            tables += [(sigma, "GFF"), (tau, "GGF")]

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


def window_tables(window, mp, cp=None):
    """The PairTables a verifier of mp (and of cp, when it reads sigma and tau) runs on.

    window is a word-length bound, on which a fresh table is built, or a shared
    PairTables, returned as it is when it was built on mp and, given cp, on cp;
    a table of another pair, or one built without cp, raises ContextMismatch.
    """
    if not isinstance(window, PairTables):
        return PairTables(mp, window, cp)
    if window.mp is not mp:
        raise ContextMismatch("the PairTables was built on another matched pair")
    if cp is not None and window.cp is not cp:
        raise ContextMismatch("the PairTables was built %s"
                              % ("without a cocycle pair" if window.cp is None
                                 else "on another cocycle pair"))
    return window
