#!/usr/bin/env python3
"""Orbit combinatorics and the necessary-condition battery.

A coquasitriangular structure forces every pair of orbit products to commute
as sets, and forces one-dimensional characters of the dual of G to be
invariant under the right action.  The catalog's dihedral and integer-action
entries each fail one of these, certifying that no such structure exists.
"""

from hopfcqt import all_passed, get_entry, necessary_battery

# orbits of the sign-flip action of Z2 on the integers
mp = get_entry("Z2_Z").context().mp
three = mp.F.parse("3")
print("Z2 negating Z, at the base point 3:")
print("  orbit       =", mp.orbit(three))
print("  stabilizer  =", mp.stabilizer(three))
print("  transversal =", mp.transversal(three))

# the infinite dihedral group with singleton orbits: products cannot commute
mpd = get_entry("Q8_Dinf").context().mp
ok, witness = mpd.orbit_product_commutes(mpd.F.parse("x"), mpd.F.parse("y"))
print("\ninfinite dihedral base points x, y: orbit products commute?", ok)
print("  witness element in only one product set:", witness)

# battery verdicts for the three flavours of obstruction
for eid in ("Q8_Dinf", "Z3_Z", "Q8_Z", "S3_Z2"):
    entry = get_entry(eid)
    H = entry.context()
    reports = necessary_battery(H, window=3, quotients=entry.quotient_homs())
    verdict = ("no coquasitriangular structure can exist"
               if not all_passed(reports) else
               "no applicable necessary condition fails")
    print("\n%s: %s" % (eid, verdict))
    for r in reports:
        mark = {"pass": " ", "fail": "x", "skipped": "-"}.get(r.status, "?")
        line = "  [%s] %s" % (mark, r.check)
        if r.failed:
            line += "  witness: %s" % (tuple(str(w) for w in r.witness),)
        print(line)
