#!/usr/bin/env python3
"""Build a bicrossed-product Hopf algebra from scratch and verify its axioms.

We take G = Z2 acting on F = S3 by conjugation with (1 2), the trivial right
action, and trivial cocycles.  The resulting context is 12-dimensional; every
axiom is checked exactly (no floating point anywhere).
"""

from hopfcqt import (CocyclePair, HopfAlgebra, MatchedPair, antipode,
                     comultiply, counit, cyclic_group, symmetric_group_s3,
                     verify_hopf_axioms)

G = cyclic_group(2)
F = symmetric_group_s3()
t = F.parse("(1 2)")

mp = MatchedPair.from_functions(
    G, F,
    left=lambda a, nu: nu if a.is_identity() else F.mul(F.mul(t, nu), t),
    right=lambda a, nu: a)

print("matched-pair axioms:")
for report in mp.verify():
    print("  %-22s %s  (%d instances)" % (report.check, report.status, report.checked))

cp = CocyclePair.trivial(mp)
print("\ncocycle identities:")
for report in cp.verify():
    print("  %-22s %s" % (report.check, report.status))

H = HopfAlgebra(cp, "demo")
a = H.basis("g", "(1 2)")
b = H.basis("g", "(1 3)")
print("\nsome structure maps:")
print("  (p_g # (1 2)) * (p_g # (1 3)) =", a * b)
print("  Delta(p_g # (1 3)) =", comultiply(b))
print("  eps(p_1 # (1 2)) =", counit(H.basis("1", "(1 2)")))
print("  S(p_g # (1 2 3)) =", antipode(H.basis("g", "(1 2 3)")))
print("  unit element =", H.unit())

print("\nfull axiom sweep (associativity over all 12^3 basis triples, etc.):")
for report in verify_hopf_axioms(H):
    print("  %-26s %s  (%d instances)" % (report.check, report.status, report.checked))
