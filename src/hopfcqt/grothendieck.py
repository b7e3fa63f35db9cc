"""Products of characters, decomposition into irreducibles, and the closed
tensor rules for |G| = 2.

Character products are computed in the Hopf algebra itself, so commutativity
tests work even over infinite F.  For |G| = 2 the simple comodules fall into
three families, labelled over the fixed/free part of F:

    f fixed by g:  U_f, V_f   (one-dimensional, coefficient +-sqrt(tau(g,g;f)))
    f moved by g:  W_f        (two-dimensional, W_f ~ W_(g|>f))

`Z2Simples.simples_at` is the one rule for the labels over a base point; the
label list, the W (x) W rule and the decomposition candidates all read it.
The closed tensor rules reproduce the label-level products, including the
four-way split of W (x) W.  The U/V output label carries the square-root
branch sign sqrt(tau(f)) sqrt(tau(f')) sigma(g;f,f') / sqrt(tau(ff')), which
is +1 for trivial cocycles.
"""

from __future__ import annotations

from .comodules import Character
from .errors import (DependentCharacters, HopfCqtError, InvalidCocycle,
                     NonIntegralMultiplicity, NotInSpan, UnknownLabelKind)
from .groups import z2_generator
from .hopf import _same_context, multiply
from .reports import sweep
from .scalars import ONE, ZERO, Scalar, _eliminate, bare, sqrt_root_of_unity


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
    nonnegative integers (the positivity of the character ring).  Every
    character must live over x's context (ContextMismatch otherwise).

    One row per basis key, in first-seen key order, of bare values (scalars.bare),
    the characters' coefficients and then x's, is eliminated in place by
    scalars._eliminate; a unique solution and the ranks that pick the error do
    not depend on the row order.  Elimination can leave a rational value as a
    Scalar (of order 1), so a Scalar multiplicity is tested by is_rational, not
    taken as non-rational for its type.
    """
    x = _as_element(x)
    basis = [_as_element(c) for c in basis]
    if not basis:
        raise NotInSpan("empty basis")
    for c in basis:
        _same_context(x, c)
    keys = list(dict.fromkeys(k for e in [x] + basis for k in e.terms))
    if not keys:
        raise DependentCharacters("every given character is zero")
    n = len(basis)
    aug = [[bare(e.terms.get(k, ZERO)) for e in basis] + [bare(x.terms.get(k, ZERO))]
           for k in keys]
    pivots = _eliminate(aug, n)
    if any(row[n] for row in aug[len(pivots):]):
        raise NotInSpan("element is not a combination of the given characters")
    if len(pivots) < n:
        raise DependentCharacters("characters are not linearly independent")
    mults = []
    for row in aug[:n]:  # rank n: row r holds the pivot of column r
        q = row[n]
        if q.__class__ is Scalar:
            if not q.is_rational():
                raise NonIntegralMultiplicity("non-rational multiplicity %r" % q)
            q = q.as_rational()
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

    For the life of the instance it memoizes, each on first use, the labels
    over each base point f (`simples_at`) and sqrt(tau(g, g; f)) per f, and
    per label its closed character and its sort key; a returned Character is
    shared, not copied.
    """

    def __init__(self, H):
        self.g = z2_generator(H.G)
        self.H = H
        self._simples = {}
        self._sqrt_taus = {}
        self._characters = {}
        self._sort_keys = {}

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
        simples = self.simples_at(f)
        if kind in ("U", "V"):
            if simples[0].kind == "W":
                raise HopfCqtError("label %s needs a fixed base point, %r is moved" % (kind, f))
            return lab
        if simples[0].kind != "W":
            raise HopfCqtError("label W needs a moved base point, %r is fixed" % f)
        return simples[0]

    def simples_at(self, f):
        """The labels over f: U_f and V_f when g |> f = f, else W at f's orbit
        representative.  A shared tuple, keyed by f itself, so a foreign element
        misses and is rejected."""
        labs = self._simples.get(f)
        if labs is None:
            labs = self._simples[f] = ((Z2Label("U", f), Z2Label("V", f))
                                       if self.in_fixed_part(f) else
                                       (Z2Label("W", self.H.mp.orbit_representative(f)),))
        return labs

    def _sort_key(self, label):
        "(kind, repr of the base point): the order of the decomposition candidates."
        key = self._sort_keys.get(label)
        if key is None:
            key = self._sort_keys[label] = (label.kind, repr(label.f))
        return key

    def labels(self, word_bound=4):
        "All simple labels with base point in the window, W orbits deduplicated."
        return list(dict.fromkeys(lab for f in self.H.mp.window(word_bound)
                                  for lab in self.simples_at(f)))

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

        U/V products carry the square-root branch sign s(f1) s(f2) sigma(g; f1, f2)
        / s(f1 f2), s the chosen square root of tau(g, g; .); its square is 1
        exactly when the tau-square identity holds at (f1, f2), which is checked
        first (InvalidCocycle otherwise).  The product is V when the V factors
        and a -1 sign are odd in number, else U.  W (x) W splits four ways on
        the fixed/moved membership of ff' and f(g|>f').
        """
        H, g = self.H, self.g
        F = H.F
        f1, f2 = l1.f, l2.f
        uv1, uv2 = l1.kind in ("U", "V"), l2.kind in ("U", "V")
        if uv1 and uv2:
            if not H.cp.tau_square_identity_check(f1, f2):
                raise InvalidCocycle("tau(g,g;ff') = sigma(g;f,f')^2 tau(g,g;f) tau(g,g;f') "
                                     "fails at (%r, %r)" % (f1, f2))
            f3 = F.mul(f1, f2)
            sign = (self.sqrt_tau(f1) * self.sqrt_tau(f2)
                    * H.cp.sigma(g, f1, f2) / self.sqrt_tau(f3))
            odd = (l1.kind == "V") + (l2.kind == "V") + (sign == -ONE)
            return [self.label("V" if odd % 2 else "U", f3)]
        if uv1 != uv2:
            return [self.label("W", F.mul(f1, f2))]
        return [lab for part in (F.mul(f1, f2), F.mul(f1, H.mp.act_left(g, f2)))
                for lab in self.simples_at(part)]

    def tensor_by_decomposition(self, l1, l2):
        """The same product through the generic pipeline: multiply the two
        characters in H and decompose against the simples based at orbit
        representatives seen in the product's support.
        """
        c1, c2 = self.character(l1), self.character(l2)
        prod = char_product(c1, c2)
        cand = dict.fromkeys(lab for (_, u) in prod.terms for lab in self.simples_at(u))
        labels = sorted(cand, key=self._sort_key)
        mults = decompose(prod, [self.character(l) for l in labels])
        out = []
        for lab, m in zip(labels, mults):
            out.extend([lab] * m)
        return out

    def gr_table(self, word_bound=2):
        "All pairwise label products by the closed rule, for display."
        labels = self.labels(word_bound)
        return [(l1, l2, self.tensor_rule(l1, l2)) for l1 in labels for l2 in labels]


def z2_S_abelian_check(mp, word_bound=4):
    """Commutativity of the fixed-point part S = {f : g |> f = f} on the window.

    A necessary condition for the character ring to be commutative.
    """
    z2_generator(mp.G)
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
