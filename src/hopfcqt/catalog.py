"""Built-in catalog: every worked example context, with expected verdicts.

Each entry builds its Hopf context lazily, registers the quotient maps the
battery lifts characters along, and records which named checks must pass or
fail, together with a free-text note explaining the mathematical reason.
Every entry expects CatalogEntry.STRUCTURE (the matched pair, its cocycles
and the Hopf axioms pass); `expected` adds the entry's own verdicts.
run_entry executes requested checks and diffs the outcomes against the
expectations.

Besides the trivial pairs and the twisted Z2_Z2_tau, the actions come in two
shapes, both with trivial cocycles:
  - odd twist (_odd_twist): |> is trivial and g <| f = theta(g) when f is
    odd, where theta is inversion or the r <-> s swap and "odd" is an odd
    y-exponent, an odd word length or an odd integer;
  - Z2 involution (_z2_involution): <| is trivial and the generator of
    G = Z2 acts on F by an involutive automorphism.
"""

from __future__ import annotations

import itertools

from .cocycles import CocyclePair
from .cqt import check_dual_orbit_commutation, check_orbit_commutation, necessary_battery
from .errors import UnknownEntry
from .groups import (DirectProductGroup, GroupHom, IntegerGroup,
                     InfiniteDihedralGroup, cyclic_group, klein_four_group,
                     quaternion_group_q8, symmetric_group_s3)
from .grothendieck import (Z2Simples, character_commutation_sweep,
                           multiset_equal, z2_S_abelian_check)
from .hopf import HopfAlgebra, verify_hopf_axioms
from .matched_pair import MatchedPair, PairTables
from .reports import FAIL, PASS, all_passed, sweep, verdict
from .scalars import MINUS_ONE


class CatalogEntry:
    "One example context plus its expected check outcomes, STRUCTURE among them."

    STRUCTURE = {"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass"}

    def __init__(self, entry_id, summary, build, expected, note="", default_bound=4,
                 quotients=None):
        self.id = entry_id
        self.summary = summary
        self._build = build
        self.expected = {**self.STRUCTURE, **expected}
        self.note = note
        self.default_bound = default_bound
        self._quotients = quotients or (lambda H: [])
        self._context = None

    def context(self):
        if self._context is None:
            self._context = self._build()
        return self._context

    def quotient_homs(self):
        return self._quotients(self.context())

    def __repr__(self):
        return "CatalogEntry(%s)" % self.id


def _context(name, G, F, left=lambda g, f: f, right=lambda g, f: g):
    "The context with actions g |> f = left(g, f), g <| f = right(g, f) and trivial cocycles."
    mp = MatchedPair.from_functions(G, F, left=left, right=right)
    return HopfAlgebra(CocyclePair.trivial(mp), name=name)


def _odd_twist(name, G, F, theta, odd):
    """|> trivial and g <| f = theta(G)(g) for odd(f), else g: theta(G) is an
    involutive automorphism of G and odd a homomorphism F -> Z2."""
    twist = theta(G)
    return _context(name, G, F, right=lambda g, f: twist(g) if odd(f) else g)


def _z2_involution(name, F, phi):
    "G = Z2, <| trivial, and the generator of Z2 acts on F by the involution phi(F)."
    flip = phi(F)
    return _context(name, cyclic_group(2), F,
                    left=lambda a, f: f if a.is_identity() else flip(f))


def _inversion(G):
    return G.inv


def _rs_swap(G):
    return GroupHom(G, G, {"r": "s", "s": "r"})


def _odd_y(f):
    "An odd y-exponent of y^k x^e in the infinite dihedral group."
    return f.key[0] % 2


def _odd_length(f):
    "An odd word length: an odd integer, or y^k x^e with k + e odd."
    return f.group.element_length(f) % 2


def _conjugation_by_12(F):
    t = F.parse("(1 2)")
    return lambda nu: F.mul(F.mul(t, nu), t)


def _negate_z_factor(F):
    return lambda f: F._element((f.key[0], -f.key[1]))


def _build_z2_z2_tau():
    G = cyclic_group(2)
    F = cyclic_group(2, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=lambda g, f: g)
    g = G.parse("g")
    t = F.parse("t")
    cp = CocyclePair.from_tables(mp, {}, {(g.key, g.key, t.key): MINUS_ONE})
    return HopfAlgebra(cp, name="Z2_Z2_tau")


def _q8_quotients(H):
    K4 = klein_four_group()
    return [GroupHom(H.G, K4, {"r": "a", "s": "b"})]


_ENTRIES = {}


def _add(entry):
    _ENTRIES[entry.id] = entry


_add(CatalogEntry(
    "Z2_Dinf",
    "Z2 acting trivially on the infinite dihedral group; inversion is trivial on Z2",
    lambda: _odd_twist("Z2_Dinf", cyclic_group(2), InfiniteDihedralGroup(), _inversion, _odd_y),
    expected={"orbit-commutation": "fail", "necessary-battery": "fail"},
    note="F is non-abelian with every orbit a singleton, so orbit products "
         "cannot commute: no coquasitriangular structure exists."))
_add(CatalogEntry(
    "Z3_Dinf",
    "Z3 with the odd-letter inversion action of the infinite dihedral group",
    lambda: _odd_twist("Z3_Dinf", cyclic_group(3), InfiniteDihedralGroup(), _inversion, _odd_y),
    expected={"orbit-commutation": "fail", "necessary-battery": "fail"},
    note="singleton orbits inside non-abelian F obstruct commutation at (x, y)."))
_add(CatalogEntry(
    "Q8_Dinf",
    "the quaternion group swapped by every odd dihedral letter",
    lambda: _odd_twist("Q8_Dinf", quaternion_group_q8(), InfiniteDihedralGroup(), _rs_swap,
                       _odd_length),
    expected={"orbit-commutation": "fail", "necessary-battery": "fail"},
    note="a non-group-algebra context that still fails orbit commutation at (x, y)."))
_add(CatalogEntry(
    "Z3_Z",
    "Z3 inverted by odd integers, trivial left action",
    lambda: _odd_twist("Z3_Z", cyclic_group(3), IntegerGroup(), _inversion, _odd_length),
    expected={"orbit-commutation": "pass", "necessary-battery": "fail"},
    note="the character (1, w, w^2) of Z3 is not invariant under <| by odd "
         "integers, so the one-dimensional invariance check fails."))
_add(CatalogEntry(
    "Q8_Z",
    "the quaternion group swapped (r <-> s) by odd integers",
    lambda: _odd_twist("Q8_Z", quaternion_group_q8(), IntegerGroup(), _rs_swap, _odd_length),
    expected={"orbit-commutation": "pass", "necessary-battery": "fail"},
    note="the sign character lifted through Q8 -> K4 (value -1 exactly on "
         "r and r^3 cosets) moves under <| by odd integers.",
    quotients=_q8_quotients))
_add(CatalogEntry(
    "S3_Z2",
    "Z2 conjugating S3 by the transposition (1 2); all 36 orbit pairs commute",
    lambda: _z2_involution("S3_Z2", symmetric_group_s3(), _conjugation_by_12),
    expected={"orbit-commutation": "pass", "dual-orbit-commutation": "pass",
              "necessary-battery": "pass", "gr-commutation": "pass"},
    note="every applicable necessary condition passes; the character ring of "
         "the 12-dimensional context is commutative."))
_add(CatalogEntry(
    "Z2_Z",
    "Z2 negating the integers; the commutative mixed context",
    lambda: _z2_involution("Z2_Z", IntegerGroup(), _inversion),
    expected={"orbit-commutation": "pass", "necessary-battery": "pass",
              "gr-commutation": "pass", "z2-table": "pass", "z2-s-abelian": "pass"},
    note="the algebra is commutative, so a coquasitriangular structure exists; "
         "the closed tensor table and the generic pipeline agree."))
_add(CatalogEntry(
    "Z2_Z2_tau",
    "trivial actions with the sign twist tau(g, g; t) = -1 (a twisted 4-dim context)",
    _build_z2_z2_tau,
    expected={"orbit-commutation": "pass", "necessary-battery": "pass",
              "gr-commutation": "pass", "z2-table": "pass"},
    note="the twisted characters involve sqrt(-1); the label product "
         "U_t (x) U_t lands on V_1 because the square-root branches cannot "
         "be chosen multiplicatively here."))
_add(CatalogEntry(
    "Z2_Z2xZ_central",
    "central extension over Z2 x Z with the integer factor negated",
    lambda: _z2_involution("Z2_Z2xZ_central",
                           DirectProductGroup([cyclic_group(2, gen_name="a"), IntegerGroup()]),
                           _negate_z_factor),
    expected={"orbit-commutation": "pass", "necessary-battery": "pass",
              "z2-s-abelian": "pass"},
    note="the fixed part is the Z2 factor; candidate forms passing the "
         "condition families restrict to bicharacters on its group-likes.",
    default_bound=2))
for _gn in (2, 3):
    for _fn in (2, 3):
        _add(CatalogEntry(
            "Z%d_Z%d_trivial" % (_gn, _fn),
            "both actions and both cocycles trivial (tensor context)",
            (lambda gn=_gn, fn=_fn: _context("Z%d_Z%d_trivial" % (gn, fn), cyclic_group(gn),
                                             cyclic_group(fn, gen_name="t"))),
            expected={"orbit-commutation": "pass", "necessary-battery": "pass"},
            note="commutative and cocommutative; the standard form passes "
                 "every condition family."))


def entry_ids():
    return sorted(_ENTRIES)


def get_entry(entry_id):
    if entry_id not in _ENTRIES:
        raise UnknownEntry("unknown catalog entry %r (try: %s)"
                           % (entry_id, ", ".join(entry_ids())))
    return _ENTRIES[entry_id]


# -- the named checks ------------------------------------------------------------

# each check reads the run's PairTables T, whose word_bound is the run's window

def _check_matched_pair(entry, H, T):
    return H.mp.verify(T)


def _check_cocycles(entry, H, T):
    return H.cp.verify(T)


def _check_hopf(entry, H, T):
    return verify_hopf_axioms(H, T)


def _check_orbit(entry, H, T):
    return [check_orbit_commutation(H.mp, T)]


def _check_dual_orbit(entry, H, T):
    return [check_dual_orbit_commutation(H.mp)]


def _check_battery(entry, H, T):
    reports = necessary_battery(H, T, entry.quotient_homs())
    return reports + [verdict(
        "battery-verdict",
        next(((r.check,) + tuple(r.witness) for r in reports if r.failed), None),
        detail="some necessary condition fails: no coquasitriangular structure exists"
        if not all_passed(reports) else
        "no applicable necessary condition fails on the window")]


def _check_gr_commutation(entry, H, T):
    simples = Z2Simples(H)
    chars = [simples.character(l) for l in simples.labels(T.word_bound)]
    return [character_commutation_sweep(chars)]


def _check_z2_table(entry, H, T):
    simples = Z2Simples(H)
    labels = simples.labels(min(T.word_bound, 2))
    return [sweep("z2-closed-table", itertools.product(labels, repeat=2),
                  lambda l1, l2: multiset_equal(simples.tensor_rule(l1, l2),
                                                simples.tensor_by_decomposition(l1, l2)))]


def _check_z2_s_abelian(entry, H, T):
    return [verdict("z2-fixed-part-abelian", z2_S_abelian_check(H.mp, T.word_bound)[1])]


CHECKS = {
    "matched-pair": _check_matched_pair,
    "cocycles": _check_cocycles,
    "hopf-axioms": _check_hopf,
    "orbit-commutation": _check_orbit,
    "dual-orbit-commutation": _check_dual_orbit,
    "necessary-battery": _check_battery,
    "gr-commutation": _check_gr_commutation,
    "z2-table": _check_z2_table,
    "z2-s-abelian": _check_z2_s_abelian,
}


def run_entry(entry_id, checks=None, word_bound=None):
    """Execute the named checks of a catalog entry and diff against expectations.

    Returns a bundle with one record per check: its reports, the observed
    status, the expected status, and whether they match.
    """
    entry = get_entry(entry_id)
    H = entry.context()
    bound = word_bound if word_bound is not None else entry.default_bound
    names = list(checks) if checks else sorted(entry.expected)
    tables = PairTables(H.mp, bound, H.cp)  # read by every check; dropped on return
    records = []
    for name in names:
        if name not in CHECKS:
            raise UnknownEntry("unknown check %r (try: %s)"
                               % (name, ", ".join(sorted(CHECKS))))
        reports = CHECKS[name](entry, H, tables)
        observed = PASS if all_passed(reports) else FAIL
        expected = entry.expected.get(name)
        records.append({
            "check": name,
            "reports": reports,
            "observed": observed,
            "expected": expected,
            "matches": expected is None or observed == expected,
        })
    return {
        "entry": entry.id,
        "note": entry.note,
        "word_bound": bound,
        "records": records,
        "all_match": all(rec["matches"] for rec in records),
    }
