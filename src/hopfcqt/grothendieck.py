"""Products of characters, decomposition into irreducibles, and the closed
tensor rules for |G| = 2.

Character products are computed in the Hopf algebra itself, so commutativity
tests work even over infinite F.  For |G| = 2 the simple comodules fall into
three families, labelled over the fixed/free part of F:

    f fixed by g:  U_f, V_f   (one-dimensional, coefficient +-sqrt(tau(g,g;f)))
    f moved by g:  W_f        (two-dimensional, W_f ~ W_(g|>f))

and the closed tensor rules reproduce the label-level products, including the
four-way split of W (x) W.  The U/V output label carries the square-root
branch sign sqrt(tau(f)) sqrt(tau(f')) sigma(g;f,f') / sqrt(tau(ff')), which
is +1 for trivial cocycles.
"""

from __future__ import annotations

from .comodules import Character, TwistedCoalgebra, enumerate_onedim, trivial_comodule
from .errors import (DependentCharacters, HopfCqtError, NonIntegralMultiplicity, NotInSpan,
                     UnknownLabelKind, WrongGroup)
from .hopf import multiply
from .reports import sweep
from .scalars import Matrix, ONE, ZERO, solve_linear, sqrt_root_of_unity


def _as_element(c):
    return c.element if isinstance(c, Character) else c


def char_product(c1, c2):
    "chi(M) chi(N) = chi(M (x) N), computed by multiplication in H."
    return multiply(_as_element(c1), _as_element(c2))


def commutes(c1, c2):
    "Exact equality of both products; witness is the first differing basis key."
    a = char_product(c1, c2)
    b = char_product(c2, c1)
    if a == b:
        return True, None
    for key in list(a.terms) + [k for k in b.terms if k not in a.terms]:
        if a.terms.get(key, ZERO) != b.terms.get(key, ZERO):
            return False, key
    raise AssertionError("unreachable")


def decompose(x, basis):
    """Multiplicities of x in the given characters; exact, and they must be
    nonnegative integers (the positivity of the character ring).
    """
    x = _as_element(x)
    basis = list(basis)
    if not basis:
        raise NotInSpan("empty basis")
    keys = set(x.terms)
    for c in basis:
        keys |= set(_as_element(c).terms)
    if not keys:
        raise DependentCharacters("every given character is zero")
    keys = sorted(keys, key=repr)
    A = Matrix._trusted([[_as_element(c).terms.get(k, ZERO) for c in basis] for k in keys])
    b = Matrix._trusted([[x.terms.get(k, ZERO)] for k in keys])
    sol = solve_linear(A, b)
    if sol.status == "inconsistent":
        raise NotInSpan("element is not a combination of the given characters")
    if sol.status != "unique":
        raise DependentCharacters("characters are not linearly independent")
    mults = []
    for v in sol.particular:
        if not v.is_rational():
            raise NonIntegralMultiplicity("non-rational multiplicity %r" % v)
        q = v.as_rational()
        if q.denominator != 1 or q < 0:
            raise NonIntegralMultiplicity("multiplicity %s is not a nonnegative integer" % q)
        mults.append(int(q))
    return mults


# -- the |G| = 2 closed form -----------------------------------------------------

class Z2Label:
    "Label of a simple comodule for |G| = 2: kind U/V/W plus the base point."

    __slots__ = ("kind", "f")

    def __init__(self, kind, f):
        if kind not in ("U", "V", "W"):
            raise UnknownLabelKind("kind must be U, V or W, got %r" % (kind,))
        self.kind = kind
        self.f = f

    def __eq__(self, other):
        if not isinstance(other, Z2Label):
            return NotImplemented
        return self.kind == other.kind and self.f == other.f

    def __hash__(self):
        return hash((self.kind, self.f.key))

    def __repr__(self):
        return "%s[%r]" % (self.kind, self.f)


class Z2Simples:
    """The simple comodules of a |G| = 2 context, by label.

    For the life of the instance it memoizes the twisted coalgebra and
    sqrt(tau(g, g; f)) per base point f and the closed character per label,
    each computed on first use; a returned Character is shared, not copied.
    """

    def __init__(self, H):
        if H.G.order() != 2:
            raise WrongGroup("|G| = 2 required, got order %r" % H.G.order())
        self.H = H
        self.g = H.G.elements()[1]
        self._coalgebras = {}
        self._sqrt_taus = {}
        self._characters = {}

    def in_fixed_part(self, f):
        "True when g |> f = f (the base point carries two one-dimensional simples)."
        return self.H.mp.act_left(self.g, f) == f

    def sqrt_tau(self, f):
        "sqrt(tau(g, g; f)), keyed by f itself, so a foreign element misses and is rejected."
        s = self._sqrt_taus.get(f)
        if s is None:
            s = self._sqrt_taus[f] = sqrt_root_of_unity(self.H.cp.tau(self.g, self.g, f))
        return s

    def label(self, kind, f):
        f = self.H.F.coerce(f)
        lab = Z2Label(kind, f)  # rejects a kind other than U, V and W
        if kind in ("U", "V"):
            if not self.in_fixed_part(f):
                raise HopfCqtError("label %s needs a fixed base point, %r is moved" % (kind, f))
            return lab
        if self.in_fixed_part(f):
            raise HopfCqtError("label W needs a moved base point, %r is fixed" % f)
        return Z2Label("W", self.H.mp.orbit_representative(f))

    def labels(self, word_bound=4):
        "All simple labels with base point in the window, W orbits deduplicated."
        out = []
        seen_w = set()
        for f in self.H.mp.window(word_bound):
            if self.in_fixed_part(f):
                out.append(Z2Label("U", f))
                out.append(Z2Label("V", f))
            else:
                rep = self.H.mp.orbit_representative(f)
                if rep.key not in seen_w:
                    seen_w.add(rep.key)
                    out.append(Z2Label("W", rep))
        return out

    def comodule(self, label):
        "The underlying stabilizer comodule of a label."
        f = label.f
        key = f.key
        if key not in self._coalgebras:
            self._coalgebras[key] = TwistedCoalgebra(self.H, f)
        C = self._coalgebras[key]
        if label.kind == "W":
            return trivial_comodule(C)
        want = self.sqrt_tau(f) if label.kind == "U" else -self.sqrt_tau(f)
        for V in enumerate_onedim(C):
            if V.matrix(self.g)[0, 0] == want:
                return V
        raise AssertionError("one-dimensional comodule with a^g = %r not found" % want)

    def character(self, label):
        "chi(U_f) = p_1#f + sqrt(tau) p_g#f, chi(V_f) with -sqrt, chi(W_f) = p_1#f + p_1#(g|>f)."
        chi = self._characters.get(label)
        if chi is None:
            chi = self._characters[label] = self._closed_character(label)
        return chi

    def _closed_character(self, label):
        H, g = self.H, self.g
        f = label.f
        if label.kind == "W":
            elem = H.basis(H.G.one, f) + H.basis(H.G.one, H.mp.act_left(g, f))
            return Character(elem, f, 2, label=repr(label))
        s = self.sqrt_tau(f)
        if label.kind == "V":
            s = -s
        elem = H.basis(H.G.one, f) + H.basis(g, f).scaled(s)
        return Character(elem, f, 1, label=repr(label))

    def tensor_rule(self, l1, l2):
        """Closed-form decomposition of l1 (x) l2 into labels.

        U/V products carry the square-root branch sign; W (x) W splits four
        ways on the fixed/moved membership of ff' and f(g|>f').
        """
        H, g = self.H, self.g
        F = H.F
        f1, f2 = l1.f, l2.f
        uv1, uv2 = l1.kind in ("U", "V"), l2.kind in ("U", "V")
        if uv1 and uv2:
            f3 = F.mul(f1, f2)
            sign = (self.sqrt_tau(f1) * self.sqrt_tau(f2)
                    * H.cp.sigma(g, f1, f2) / self.sqrt_tau(f3))
            assert sign == ONE or sign == -ONE, "branch mismatch is always +-1"
            eps = 1
            if l1.kind == "V":
                eps = -eps
            if l2.kind == "V":
                eps = -eps
            if sign == -ONE:
                eps = -eps
            return [self.label("U" if eps == 1 else "V", f3)]
        if uv1 != uv2:
            return [self.label("W", F.mul(f1, f2))]
        out = []
        for part in (F.mul(f1, f2), F.mul(f1, H.mp.act_left(g, f2))):
            if self.in_fixed_part(part):
                out.append(self.label("U", part))
                out.append(self.label("V", part))
            else:
                out.append(self.label("W", part))
        return out

    def tensor_by_decomposition(self, l1, l2):
        """The same product through the generic pipeline: multiply the two
        characters in H and decompose against the simples based at orbit
        representatives seen in the product's support.
        """
        c1, c2 = self.character(l1), self.character(l2)
        prod = char_product(c1, c2)
        cand = {}
        for (gkey, u) in prod.terms:
            if self.in_fixed_part(u):
                for kind in ("U", "V"):
                    lab = Z2Label(kind, u)
                    cand[(kind, u.key)] = lab
            else:
                lab = self.label("W", u)
                cand[("W", lab.f.key)] = lab
        labels = sorted(cand.values(), key=lambda l: (l.kind, repr(l.f)))
        mults = decompose(prod, [self.character(l) for l in labels])
        out = []
        for lab, m in zip(labels, mults):
            out.extend([lab] * m)
        return out

    def gr_table(self, word_bound=2):
        "All pairwise label products by the closed rule, for display."
        labels = self.labels(word_bound)
        return [(l1, l2, self.tensor_rule(l1, l2)) for l1 in labels for l2 in labels]


def z2_tensor_rule(H, label1, label2):
    "Module-level convenience wrapper around Z2Simples.tensor_rule."
    simples = Z2Simples(H)
    return simples.tensor_rule(label1, label2)


def z2_S_abelian_check(mp, word_bound=4):
    """Commutativity of the fixed-point part S = {f : g |> f = f} on the window.

    A necessary condition for the character ring to be commutative.
    """
    if mp.G.order() != 2:
        raise WrongGroup("|G| = 2 required")
    witness = mp.F.noncommuting_pair(mp.fixed_points(word_bound))
    return witness is None, witness


def character_commutation_sweep(chars):
    "Pairwise commutation of a character list; one report."
    return sweep("character-ring-commutation",
                 ((c1, c2) for i, c1 in enumerate(chars) for c2 in chars[i + 1:]),
                 lambda c1, c2: commutes(c1, c2)[0],
                 witness=lambda pair: (getattr(pair[0], "label", "?"),
                                       getattr(pair[1], "label", "?"), commutes(*pair)[1]))


def multiset_equal(labels1, labels2):
    k1 = sorted((l.kind, repr(l.f)) for l in labels1)
    k2 = sorted((l.kind, repr(l.f)) for l in labels2)
    return k1 == k2
