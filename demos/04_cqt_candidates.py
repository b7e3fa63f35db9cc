#!/usr/bin/env python3
"""Candidate coquasitriangular structures: verification and classification.

The five condition families CQT0-CQT4 characterize coquasitriangular forms.
On a |G| = 2 context the four identity-block values are forced into one of
two patterns; enumeration over a value set recovers exactly those patterns;
and on a central entry every passing form restricts to a bicharacter on the
group-likes of the fixed part.
"""

from hopfcqt import (CocyclePair, HopfAlgebra, MatchedPair, RForm, all_passed,
                     bicharacter_restriction_check, cyclic_group,
                     eps_tensor_eps, get_entry, search_R,
                     structural_zeros, verify_R, z2_r11_rform, z2_r11_solve)
from hopfcqt.scalars import MINUS_ONE, ONE, ZERO, rational

# the forced identity-block dichotomy
print("identity-block dichotomy:")
for case in z2_r11_solve():
    print("  k = %-4s table = %s" % (case["k"],
          {"%s,%s" % key: repr(v) for key, v in case["table"].items()}))

# verify both forced tables on the smallest |G| = 2 context
G = cyclic_group(2)
F1 = cyclic_group(1)
mp = MatchedPair.from_functions(G, F1, left=lambda g, f: f, right=lambda g, f: g)
H = HopfAlgebra(CocyclePair.trivial(mp), "Z2, trivial F")
for case in z2_r11_solve():
    R = z2_r11_rform(H, case)
    print("  k = %-4s passes CQT0-CQT3:" % case["k"], all_passed(verify_R(R, (0, 1, 2, 3))))

bad = z2_r11_rform(H, z2_r11_solve()[1]).perturbed(("g", "1"), ("g", "1"),
                                                   rational(1, 2))
print("  sign-flipped table:",
      [(r.check, r.status) for r in verify_R(bad, (0, 1, 2, 3)) if r.failed])

# enumeration over a small value set recovers exactly the two tables
found = search_R(H, [ZERO, ONE, rational(1, 2), rational(-1, 2), MINUS_ONE])
print("\nenumerative search recovered %d forms" % len(found))

# structural zeros catch support the condition families would reject
Hz = get_entry("Z2_Z").context()
R = RForm(Hz, {((Hz.G.parse("g"), Hz.F.parse("1")), (Hz.G.one, Hz.F.parse("1"))): ONE},
          window=2)
print("\nstructural-zero scan of a bad support entry:")
for v in structural_zeros(R):
    print("  %s at %s" % (v.check, tuple(str(w) for w in v.witness)))

# bicharacter restriction on the central entry over Z2 x Z
Hc = get_entry("Z2_Z2xZ_central").context()
Rstd = eps_tensor_eps(Hc, window=2)
print("\ncentral entry: standard form passes CQT0-CQT3 on the window:",
      all_passed(verify_R(Rstd, (0, 1, 2, 3), qbound=2)))
for report in bicharacter_restriction_check(Rstd, word_bound=1):
    print("  %-34s %s" % (report.check, report.status))
