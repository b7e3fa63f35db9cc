"""Built-in catalog: every worked example context, with expected verdicts.

Each entry builds its Hopf context lazily, registers the quotient maps the
battery lifts characters along, and records which named checks must pass or
fail, together with a free-text note explaining the mathematical reason.
run_entry executes requested checks and diffs the outcomes against the
expectations.
"""

from __future__ import annotations

import itertools

from .cocycles import CocyclePair
from .cqt import (battery_obstructed, check_dual_orbit_commutation,
                  check_orbit_commutation, necessary_battery)
from .errors import UnknownEntry
from .groups import (DirectProductGroup, GroupHom, IntegerGroup,
                     InfiniteDihedralGroup, cyclic_group, klein_four_group,
                     quaternion_group_q8, symmetric_group_s3)
from .grothendieck import (Z2Simples, character_commutation_sweep,
                           multiset_equal, z2_S_abelian_check)
from .hopf import HopfAlgebra, verify_hopf_axioms
from .matched_pair import MatchedPair
from .reports import FAIL, PASS, all_passed, sweep, verdict
from .scalars import MINUS_ONE


class CatalogEntry:
    "One example context plus its expected check outcomes."

    def __init__(self, entry_id, summary, build, expected, note="", default_bound=4,
                 quotients=None):
        self.id = entry_id
        self.summary = summary
        self._build = build
        self.expected = expected
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


def _trivial_pair(G, F, name):
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f,
                                    right=lambda g, f: g, name=name)
    return HopfAlgebra(CocyclePair.trivial(mp, name=name), name=name)


def _build_zn_dinf(n):
    def build():
        G = cyclic_group(n)
        F = InfiniteDihedralGroup()

        def right(g, f):
            k, _ = f.key
            return g if k % 2 == 0 else G.inv(g)

        mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=right,
                                        name="Z%d_Dinf" % n)
        return HopfAlgebra(CocyclePair.trivial(mp), name="Z%d_Dinf" % n)
    return build


def _build_q8_dinf():
    G = quaternion_group_q8()
    F = InfiniteDihedralGroup()
    swap = GroupHom(G, G, {"r": "s", "s": "r"})

    def right(g, f):
        k, e = f.key
        return g if (k + e) % 2 == 0 else swap(g)

    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f, right=right,
                                    name="Q8_Dinf")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Q8_Dinf")


def _build_z3_z():
    G = cyclic_group(3)
    F = IntegerGroup()
    mp = MatchedPair.from_functions(
        G, F, left=lambda g, f: f,
        right=lambda g, f: g if f.key % 2 == 0 else G.inv(g), name="Z3_Z")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Z3_Z")


def _build_q8_z():
    G = quaternion_group_q8()
    F = IntegerGroup()
    swap = GroupHom(G, G, {"r": "s", "s": "r"})
    mp = MatchedPair.from_functions(
        G, F, left=lambda g, f: f,
        right=lambda g, f: g if f.key % 2 == 0 else swap(g), name="Q8_Z")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Q8_Z")


def _build_s3_z2():
    G = cyclic_group(2)
    F = symmetric_group_s3()
    t = F.parse("(1 2)")
    mp = MatchedPair.from_functions(
        G, F, left=lambda a, nu: nu if a.is_identity() else F.mul(F.mul(t, nu), t),
        right=lambda a, nu: a, name="S3_Z2")
    return HopfAlgebra(CocyclePair.trivial(mp), name="S3_Z2")


def _build_z2_z():
    G = cyclic_group(2)
    F = IntegerGroup()
    mp = MatchedPair.from_functions(
        G, F, left=lambda a, f: f if a.is_identity() else F._element(-f.key),
        right=lambda a, f: a, name="Z2_Z")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Z2_Z")


def _build_z2_z2_tau():
    G = cyclic_group(2)
    F = cyclic_group(2, gen_name="t")
    mp = MatchedPair.from_functions(G, F, left=lambda g, f: f,
                                    right=lambda g, f: g, name="Z2_Z2_tau")
    g = G.parse("g")
    t = F.parse("t")
    cp = CocyclePair.from_tables(mp, {}, {(g.key, g.key, t.key): MINUS_ONE},
                                 name="Z2_Z2_tau")
    return HopfAlgebra(cp, name="Z2_Z2_tau")


def _build_z2_z2xz():
    G = cyclic_group(2)
    F = DirectProductGroup([cyclic_group(2, gen_name="a"), IntegerGroup()])

    def left(g, f):
        if g.is_identity():
            return f
        a, i = f.key
        return F._element((a, -i))

    mp = MatchedPair.from_functions(G, F, left=left, right=lambda g, f: g,
                                    name="Z2_Z2xZ_central")
    return HopfAlgebra(CocyclePair.trivial(mp), name="Z2_Z2xZ_central")


def _q8_quotients(H):
    K4 = klein_four_group()
    return [GroupHom(H.G, K4, {"r": "a", "s": "b"})]


_ENTRIES = {}


def _add(entry):
    _ENTRIES[entry.id] = entry


_add(CatalogEntry(
    "Z2_Dinf",
    "Z2 acting trivially on the infinite dihedral group; inversion is trivial on Z2",
    _build_zn_dinf(2),
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "fail", "necessary-battery": "fail"},
    note="F is non-abelian with every orbit a singleton, so orbit products "
         "cannot commute: no coquasitriangular structure exists."))
_add(CatalogEntry(
    "Z3_Dinf",
    "Z3 with the odd-letter inversion action of the infinite dihedral group",
    _build_zn_dinf(3),
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "fail", "necessary-battery": "fail"},
    note="singleton orbits inside non-abelian F obstruct commutation at (x, y)."))
_add(CatalogEntry(
    "Q8_Dinf",
    "the quaternion group swapped by every odd dihedral letter",
    _build_q8_dinf,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "fail", "necessary-battery": "fail"},
    note="a non-group-algebra context that still fails orbit commutation at (x, y)."))
_add(CatalogEntry(
    "Z3_Z",
    "Z3 inverted by odd integers, trivial left action",
    _build_z3_z,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "necessary-battery": "fail"},
    note="the character (1, w, w^2) of Z3 is not invariant under <| by odd "
         "integers, so the one-dimensional invariance check fails."))
_add(CatalogEntry(
    "Q8_Z",
    "the quaternion group swapped (r <-> s) by odd integers",
    _build_q8_z,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "necessary-battery": "fail"},
    note="the sign character lifted through Q8 -> K4 (value -1 exactly on "
         "r and r^3 cosets) moves under <| by odd integers.",
    quotients=_q8_quotients))
_add(CatalogEntry(
    "S3_Z2",
    "Z2 conjugating S3 by the transposition (1 2); all 36 orbit pairs commute",
    _build_s3_z2,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "dual-orbit-commutation": "pass",
              "necessary-battery": "pass", "gr-commutation": "pass"},
    note="every applicable necessary condition passes; the character ring of "
         "the 12-dimensional context is commutative."))
_add(CatalogEntry(
    "Z2_Z",
    "Z2 negating the integers; the commutative mixed context",
    _build_z2_z,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "necessary-battery": "pass",
              "gr-commutation": "pass", "z2-table": "pass", "z2-s-abelian": "pass"},
    note="the algebra is commutative, so a coquasitriangular structure exists; "
         "the closed tensor table and the generic pipeline agree."))
_add(CatalogEntry(
    "Z2_Z2_tau",
    "trivial actions with the sign twist tau(g, g; t) = -1 (a twisted 4-dim context)",
    _build_z2_z2_tau,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "necessary-battery": "pass",
              "gr-commutation": "pass", "z2-table": "pass"},
    note="the twisted characters involve sqrt(-1); the label product "
         "U_t (x) U_t lands on V_1 because the square-root branches cannot "
         "be chosen multiplicatively here."))
_add(CatalogEntry(
    "Z2_Z2xZ_central",
    "central extension over Z2 x Z with the integer factor negated",
    _build_z2_z2xz,
    expected={"matched-pair": "pass", "cocycles": "pass", "hopf-axioms": "pass",
              "orbit-commutation": "pass", "necessary-battery": "pass",
              "z2-s-abelian": "pass"},
    note="the fixed part is the Z2 factor; candidate forms passing the "
         "condition families restrict to bicharacters on its group-likes.",
    default_bound=2))
for _gn in (2, 3):
    for _fn in (2, 3):
        _add(CatalogEntry(
            "Z%d_Z%d_trivial" % (_gn, _fn),
            "both actions and both cocycles trivial (tensor context)",
            (lambda gn=_gn, fn=_fn: _trivial_pair(
                cyclic_group(gn), cyclic_group(fn, gen_name="t"),
                "Z%d_Z%d_trivial" % (gn, fn))),
            expected={"matched-pair": "pass", "cocycles": "pass",
                      "hopf-axioms": "pass", "orbit-commutation": "pass",
                      "necessary-battery": "pass"},
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

def _status(reports):
    return PASS if all_passed(reports) else FAIL


def _check_matched_pair(entry, H, bound):
    return H.mp.verify(bound)


def _check_cocycles(entry, H, bound):
    return H.cp.verify(bound)


def _check_hopf(entry, H, bound):
    return verify_hopf_axioms(H, bound)


def _check_orbit(entry, H, bound):
    return [check_orbit_commutation(H.mp, bound)]


def _check_dual_orbit(entry, H, bound):
    return [check_dual_orbit_commutation(H.mp)]


def _check_battery(entry, H, bound):
    reports = necessary_battery(H, bound, quotients=entry.quotient_homs())
    return reports + [verdict(
        "battery-verdict",
        next(((r.check,) + tuple(r.witness) for r in reports if r.failed), None),
        detail="some necessary condition fails: no coquasitriangular structure exists"
        if battery_obstructed(reports) else
        "no applicable necessary condition fails on the window")]


def _check_gr_commutation(entry, H, bound):
    simples = Z2Simples(H)
    chars = [simples.character(l) for l in simples.labels(bound)]
    return [character_commutation_sweep(chars)]


def _check_z2_table(entry, H, bound):
    simples = Z2Simples(H)
    labels = simples.labels(min(bound, 2))
    return [sweep("z2-closed-table", itertools.product(labels, repeat=2),
                  lambda l1, l2: multiset_equal(simples.tensor_rule(l1, l2),
                                                simples.tensor_by_decomposition(l1, l2)))]


def _check_z2_s_abelian(entry, H, bound):
    return [verdict("z2-fixed-part-abelian", z2_S_abelian_check(H.mp, bound)[1])]


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
    records = []
    for name in names:
        if name not in CHECKS:
            raise UnknownEntry("unknown check %r (try: %s)"
                               % (name, ", ".join(sorted(CHECKS))))
        reports = CHECKS[name](entry, H, bound)
        observed = _status(reports)
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
