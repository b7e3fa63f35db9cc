#!/usr/bin/env python3
"""Simple comodules, induction, characters, and the closed tensor table.

For |G| = 2 the simple comodules split into one-dimensional pairs U_f, V_f at
fixed base points (coefficients +-sqrt(tau(g,g;f))) and two-dimensional W_f at
moved base points.  Characters are computed two independent ways: the closed
formula over the transversal, and the trace of the induced coaction.  The
script asserts what it prints: the two characters agree, the induced axioms
pass, and the decomposition of chi(W_1)^2 is the closed tensor rule.
"""

from hopfcqt import (TwistedCoalgebra, Z2Simples, char_product, character,
                     decompose, enumerate_onedim, get_entry, induce)

H = get_entry("Z2_Z").context()
simples = Z2Simples(H)

print("simple labels with base points of length <= 2:", simples.labels(2))

# a one-dimensional comodule at the fixed point 0 and its induced character
C0 = TwistedCoalgebra(H, "0")
U0, V0 = enumerate_onedim(C0)
print("\ncomodules at 0:", [V.matrix("g")[0, 0] for V in (U0, V0)],
      "(coefficient of p_g)")
closed, by_trace = character(V0).element, induce(V0).character_by_trace()
print("chi by closed formula:", closed)
print("chi by induced trace :", by_trace)
assert by_trace == closed

# a moved base point induces a two-dimensional simple
W = enumerate_onedim(TwistedCoalgebra(H, "1"))[0]
ind = induce(W)
reports = ind.verify()
print("\ninduced comodule at 1: dimension", ind.dim,
      "| axioms:", [r.status for r in reports])
assert all(r.passed for r in reports)
chi_w = ind.character_by_trace()
print("chi(W_1) =", chi_w)
assert chi_w == character(W).element

# products in the character ring, decomposed against the closed table
W1 = simples.label("W", "1")
prod = char_product(simples.character(W1), simples.character(W1))
print("\nchi(W_1)^2 =", prod)
basis = [simples.label("W", "2"), simples.label("U", "0"), simples.label("V", "0")]
mults = decompose(prod, [simples.character(l) for l in basis])
rule = simples.tensor_rule(W1, W1)
print("decomposition:", " + ".join("%d*%s" % (m, l) for m, l in zip(mults, basis)))
print("closed rule  :", rule)
expanded = [l for m, l in zip(mults, basis) for _ in range(m)]
assert sorted(expanded, key=repr) == sorted(rule, key=repr)

print("\nfull closed table at bound 1:")
for l1, l2, out in simples.gr_table(1):
    print("  %-8s (x) %-8s = %s" % (l1, l2, " + ".join(map(repr, out))))

# a twisted context: tau(g,g;t) = -1 makes sqrt(-1) appear in the characters
Ht = get_entry("Z2_Z2_tau").context()
st = Z2Simples(Ht)
Ut = st.label("U", "t")
print("\ntwisted context: chi(U_t) =", st.character(Ut).element)
print("U_t (x) U_t =", st.tensor_rule(Ut, Ut),
      " (the branch sign moves the product to the V label)")
