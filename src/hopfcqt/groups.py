"""Group families: finite groups with full tables, the integers, the infinite
dihedral group, and direct products; plus group homomorphisms.

Elements are value objects in a fixed normal form per family.  The infinite
dihedral group stores y^k x^e; its multiplication is the closed form coming
from x^2 = 1 and x y x = y^-1, and the tests check it against an independent
word-rewriting oracle (the affine action i |-> +-i + c on the integers).
"""

from __future__ import annotations

import itertools

from .errors import (InfiniteGroup, MixedGroups, SchemaError,
                     UndefinedGeneratorAction)


class GroupElement:
    "Immutable element of a Group; normal form lives in `key`."

    __slots__ = ("group", "key")

    def __init__(self, group, key):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __mul__(self, other):
        return self.group.mul(self, other)

    def __pow__(self, n):
        return self.group.power(self, n)

    def inverse(self):
        return self.group.inv(self)

    def is_identity(self):
        return self.key == self.group.one.key

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            return False
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return self.group.format(self)


class Group:
    "Common interface for all group families."

    family = "?"

    def _element(self, key):
        return GroupElement(self, key)

    def _member(self, a):
        if not isinstance(a, GroupElement) or (a.group is not self and a.group != self):
            raise MixedGroups("element %r does not belong to %r" % (a, self))
        return a

    # family-specific: one, mul, inv, generators, letters, letter_decomposition,
    # element_length, elements_up_to_length, is_abelian, parse, format, descriptor

    @property
    def is_finite(self):
        return self.order() is not None

    def order(self):
        return None

    def elements(self):
        raise InfiniteGroup("cannot enumerate %r" % self)

    def power(self, a, n):
        self._member(a)
        if n < 0:
            return self.power(self.inv(a), -n)
        result, base = self.one, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base) if n > 1 else base
            n >>= 1
        return result

    def product(self, factors):
        out = self.one
        for a in factors:
            out = self.mul(out, a)
        return out

    def letters(self):
        "Generators and their inverses, deduplicated; the alphabet for words."
        out = []
        for g in self.generators():
            if all(g != h for h in out):
                out.append(g)
            gi = self.inv(g)
            if all(gi != h for h in out):
                out.append(gi)
        return out

    def elements_up_to_length(self, bound):
        "All elements of word length <= bound; finite groups return everything."
        if self.is_finite:
            return self.elements()
        raise NotImplementedError

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq


# -- finite groups ----------------------------------------------------------

class FiniteGroup(Group):
    """Finite group given by an element list and a multiplication table.

    Index 0 is the identity.  Construction checks the group axioms outright:
    associativity, two-sided identity, inverses (which forces Latin-square
    rows and columns).

    Elements are interned: the group builds its |G| GroupElement objects once,
    and `one`, `elements`, `mul`, `inv` and every other constructor return
    those same objects.  Equal but distinct group instances keep separate
    element objects, which still compare equal.
    """

    family = "finite"

    def __init__(self, name, element_names, table, generators, builtin=None, check=True):
        self.name = name
        self.element_names = list(element_names)
        self.table = [list(row) for row in table]
        n = len(self.element_names)
        self.builtin = builtin
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table shape does not match element list")
        self._elements = [GroupElement(self, i) for i in range(n)]
        self._inv = [None] * n
        if check:
            self._check_axioms()
        else:
            for i in range(n):
                self._inv[i] = next(j for j in range(n) if self.table[i][j] == 0)
        self.generator_indices = [self._name_index(g) if isinstance(g, str) else g
                                  for g in generators]
        gen_closure = self._closure(self.generator_indices)
        if len(gen_closure) != n:
            raise ValueError("declared generators do not generate %s" % name)
        self._decomp_cache = None

    def _name_index(self, name):
        try:
            return self.element_names.index(name)
        except ValueError:
            raise SchemaError("unknown element %r of %s" % (name, self.name))

    def _check_axioms(self):
        n = len(self.element_names)
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("index 0 is not a two-sided identity")
        for i in range(n):
            for j in range(n):
                if not (0 <= self.table[i][j] < n):
                    raise ValueError("table entry out of range")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError("multiplication table is not associative")
        for i in range(n):
            invs = [j for j in range(n) if self.table[i][j] == 0]
            if len(invs) != 1 or self.table[invs[0]][i] != 0:
                raise ValueError("element %d lacks a two-sided inverse" % i)
            self._inv[i] = invs[0]

    def _closure(self, seed):
        seen = {0}
        frontier = [0]
        gens = list(seed)
        while frontier:
            new = []
            for i in frontier:
                for g in gens:
                    j = self.table[i][g]
                    if j not in seen:
                        seen.add(j)
                        new.append(j)
            frontier = new
        return seen

    def _element(self, key):
        return self._elements[key]

    @property
    def one(self):
        return self._elements[0]

    def order(self):
        return len(self.element_names)

    def elements(self):
        return list(self._elements)

    def mul(self, a, b):
        self._member(a)
        self._member(b)
        return self._elements[self.table[a.key][b.key]]

    def inv(self, a):
        self._member(a)
        return self._elements[self._inv[a.key]]

    def generators(self):
        return [self._element(i) for i in self.generator_indices]

    def element_length(self, a):
        # finite groups are always inside any verification window
        return 0

    def letter_decomposition(self, a):
        "Shortest word in the generator letters, via breadth-first search."
        if self._decomp_cache is None:
            letters = self.letters()
            cache = {0: ()}
            frontier = [0]
            while frontier:
                new = []
                for i in frontier:
                    for g in letters:
                        j = self.table[i][g.key]
                        if j not in cache:
                            cache[j] = cache[i] + (g,)
                            new.append(j)
                frontier = new
            self._decomp_cache = cache
        return list(self._decomp_cache[self._member(a).key])

    def is_abelian(self):
        n = len(self.element_names)
        return all(self.table[i][j] == self.table[j][i]
                   for i in range(n) for j in range(i + 1, n))

    def parse(self, text):
        text = text.strip()
        if text in self.element_names:
            return self._element(self.element_names.index(text))
        # word in element names: factors separated by '*', optional '^power'
        out = self.one
        for chunk in text.split("*"):
            chunk = chunk.strip()
            name, power = chunk, 1
            if "^" in chunk:
                name, _, exp = chunk.rpartition("^")
                name = name.strip()
                power = int(exp)
            if name not in self.element_names:
                raise SchemaError("unknown element %r of %s" % (chunk, self.name))
            out = self.mul(out, self.power(self._element(self.element_names.index(name)), power))
        return out

    def format(self, a):
        return self.element_names[self._member(a).key]

    def descriptor(self):
        if self.builtin is not None:
            return dict(self.builtin)
        return {"family": "finite", "name": self.name, "names": list(self.element_names),
                "table": [list(r) for r in self.table],
                "generators": [self.element_names[i] for i in self.generator_indices]}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.element_names == other.element_names and self.table == other.table

    def __hash__(self):
        return hash(("finite", len(self.element_names)))

    def __repr__(self):
        return "FiniteGroup(%s, order %d)" % (self.name, len(self.element_names))


def finite_group_from_elements(name, elems, mul_fn, names, generators, builtin=None):
    "Build a FiniteGroup from abstract elements with a multiplication callable."
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mul_fn(a, b)] for b in elems] for a in elems]
    return FiniteGroup(name, names, table, generators, builtin=builtin)


def cyclic_group(n, gen_name="g"):
    "Z_n with elements 1, g, g^2, ..."
    names = ["1"] + [gen_name if k == 1 else "%s^%d" % (gen_name, k) for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup("Z%d" % n, names, table, [1 if n > 1 else 0],
                       builtin={"family": "Zn", "n": n, "gen": gen_name})


def klein_four_group():
    "Z_2 x Z_2 with generators a, b."
    elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
    names = ["1", "a", "b", "a*b"]
    mul = lambda u, v: ((u[0] + v[0]) % 2, (u[1] + v[1]) % 2)
    return finite_group_from_elements("K4", elems, mul, names, ["a", "b"],
                                      builtin={"family": "K4"})


def _perm_mul(p, q):
    "Composition of image tuples: (p q)(i) = p(q(i))."
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_name(p):
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def symmetric_group_s3():
    "S_3 listed as (), (1 2), (1 3), (2 3), (1 2 3), (1 3 2)."
    elems = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = [_cycle_name(p) for p in elems]
    return finite_group_from_elements("S3", elems, _perm_mul, names,
                                      ["(1 2)", "(1 2 3)"], builtin={"family": "S3"})


def permutation_group(generator_images, name="perm"):
    "Closure of permutation generators given as 0-indexed image lists."
    degree = len(generator_images[0])
    gens = [tuple(p) for p in generator_images]
    for p in gens:
        if sorted(p) != list(range(degree)):
            raise SchemaError("not a permutation: %r" % (p,))
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                h = _perm_mul(e, g)
                if h not in seen:
                    seen.add(h)
                    elems.append(h)
                    new.append(h)
        frontier = new
    names = [_cycle_name(p) for p in elems]
    return finite_group_from_elements(
        name, elems, _perm_mul, names, [_cycle_name(g) for g in gens],
        builtin={"family": "perm", "generators": [list(g) for g in generator_images]})


def quaternion_group_q8():
    "Q_8 = <r, s | r^4 = 1, r^2 = s^2, s r = r^-1 s> as pairs r^a s^b."
    elems = [(a, b) for b in (0, 1) for a in range(4)]

    def mul(u, v):
        a, b = u
        c, d = v
        # s r^c = r^-c s and s^2 = r^2
        return ((a + (c if b == 0 else -c) + (2 if b and d else 0)) % 4, (b + d) % 2)

    def nm(u):
        a, b = u
        rs = "1" if a == 0 else ("r" if a == 1 else "r^%d" % a)
        if not b:
            return rs
        return "s" if a == 0 else rs + "*s"

    names = [nm(e) for e in elems]
    return finite_group_from_elements("Q8", elems, mul, names, ["r", "s"],
                                      builtin={"family": "Q8"})


# -- the integers -----------------------------------------------------------

class IntegerGroup(Group):
    "The additive integers; elements are plain ints, generator t = 1."

    family = "Z"

    @property
    def one(self):
        return self._element(0)

    def mul(self, a, b):
        self._member(a)
        self._member(b)
        return self._element(a.key + b.key)

    def inv(self, a):
        self._member(a)
        return self._element(-a.key)

    def generators(self):
        return [self._element(1)]

    def element_length(self, a):
        return abs(self._member(a).key)

    def letter_decomposition(self, a):
        k = self._member(a).key
        letter = self._element(1 if k > 0 else -1)
        return [letter] * abs(k)

    def elements_up_to_length(self, bound):
        return [self._element(k) for k in range(-bound, bound + 1)]

    def is_abelian(self):
        return True

    def parse(self, text):
        try:
            return self._element(int(text.strip()))
        except ValueError:
            raise SchemaError("bad integer element %r" % text)

    def format(self, a):
        return str(self._member(a).key)

    def descriptor(self):
        return {"family": "Z"}

    def __eq__(self, other):
        return self is other or isinstance(other, IntegerGroup)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "IntegerGroup(Z)"


# -- the infinite dihedral group --------------------------------------------

class InfiniteDihedralGroup(Group):
    """<x, y | x^2 = 1, x y x = y^-1> in the normal form y^k x^e, e in {0, 1}.

    mul((k,e),(k',e')) = (k + k', e') for e = 0 and (k - k', 1 - e' mod 2) for
    e = 1, which is the confluent reduction of the defining relations.
    """

    family = "Dinf"

    @property
    def one(self):
        return self._element((0, 0))

    def mul(self, a, b):
        self._member(a)
        self._member(b)
        k, e = a.key
        kp, ep = b.key
        if e == 0:
            return self._element((k + kp, ep))
        return self._element((k - kp, (1 + ep) % 2))

    def inv(self, a):
        self._member(a)
        k, e = a.key
        return self._element((-k, 0) if e == 0 else (k, 1))

    @property
    def x(self):
        return self._element((0, 1))

    @property
    def y(self):
        return self._element((1, 0))

    def generators(self):
        return [self.x, self.y]

    def element_length(self, a):
        k, e = self._member(a).key
        return abs(k) + e

    def letter_decomposition(self, a):
        k, e = self._member(a).key
        yletter = self._element((1, 0)) if k > 0 else self._element((-1, 0))
        word = [yletter] * abs(k)
        if e:
            word.append(self.x)
        return word

    def elements_up_to_length(self, bound):
        out = []
        for e in (0, 1):
            for k in range(-(bound - e), bound - e + 1):
                out.append(self._element((k, e)))
        return out

    def is_abelian(self):
        return False

    def parse(self, text):
        text = text.strip()
        if text == "1":
            return self.one
        out = self.one
        for chunk in text.split("*"):
            chunk = chunk.strip()
            name, power = chunk, 1
            if "^" in chunk:
                name, _, exp = chunk.partition("^")
                power = int(exp)
            if name == "x":
                base = self.x
            elif name == "y":
                base = self.y
            else:
                raise SchemaError("bad infinite-dihedral element %r" % text)
            out = self.mul(out, self.power(base, power))
        return out

    def format(self, a):
        k, e = self._member(a).key
        parts = []
        if k == 1:
            parts.append("y")
        elif k:
            parts.append("y^%d" % k)
        if e:
            parts.append("x")
        return "*".join(parts) if parts else "1"

    def descriptor(self):
        return {"family": "Dinf"}

    def __eq__(self, other):
        return self is other or isinstance(other, InfiniteDihedralGroup)

    def __hash__(self):
        return hash("Dinf")

    def __repr__(self):
        return "InfiniteDihedralGroup()"


# -- direct products ---------------------------------------------------------

class DirectProductGroup(Group):
    "Direct product of groups; elements are tuples of factor elements."

    family = "product"

    def __init__(self, factors):
        if len(factors) < 2:
            raise ValueError("need at least two factors")
        self.factors = list(factors)

    @property
    def one(self):
        return self._element(tuple(f.one.key for f in self.factors))

    def _wrap(self, keys):
        return self._element(tuple(keys))

    def _parts(self, a):
        self._member(a)
        return [f._element(k) for f, k in zip(self.factors, a.key)]

    def mul(self, a, b):
        return self._wrap(f.mul(x, y).key for f, x, y in
                          zip(self.factors, self._parts(a), self._parts(b)))

    def inv(self, a):
        return self._wrap(f.inv(x).key for f, x in zip(self.factors, self._parts(a)))

    def embed(self, i, x):
        "The factor element x in slot i, identity elsewhere."
        keys = [f.one.key for f in self.factors]
        keys[i] = self.factors[i]._member(x).key
        return self._wrap(keys)

    def generators(self):
        out = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                out.append(self.embed(i, g))
        return out

    def order(self):
        total = 1
        for f in self.factors:
            n = f.order()
            if n is None:
                return None
            total *= n
        return total

    def elements(self):
        if not self.is_finite:
            raise InfiniteGroup("cannot enumerate %r" % self)
        combos = itertools.product(*[f.elements() for f in self.factors])
        return [self._wrap(x.key for x in combo) for combo in combos]

    def element_length(self, a):
        return sum(f.element_length(x) for f, x in zip(self.factors, self._parts(a)))

    def letter_decomposition(self, a):
        word = []
        for i, (f, x) in enumerate(zip(self.factors, self._parts(a))):
            word.extend(self.embed(i, u) for u in f.letter_decomposition(x))
        return word

    def elements_up_to_length(self, bound):
        pools = [f.elements_up_to_length(bound) for f in self.factors]
        out = []
        for combo in itertools.product(*pools):
            if sum(f.element_length(x) for f, x in zip(self.factors, combo)) <= bound:
                out.append(self._wrap(x.key for x in combo))
        return out

    def is_abelian(self):
        return all(f.is_abelian() for f in self.factors)

    def parse(self, text):
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            inner = text[1:-1]
            depth = 0
            parts, cur = [], []
            for ch in inner:
                if ch == "," and depth == 0:
                    parts.append("".join(cur))
                    cur = []
                    continue
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                cur.append(ch)
            parts.append("".join(cur))
            if len(parts) == len(self.factors):
                return self._wrap(f.parse(p).key for f, p in zip(self.factors, parts))
        raise SchemaError("bad product element %r" % text)

    def format(self, a):
        return "(" + ", ".join(f.format(x) for f, x in
                               zip(self.factors, self._parts(a))) + ")"

    def descriptor(self):
        return {"family": "product", "factors": [f.descriptor() for f in self.factors]}

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DirectProductGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(("product", len(self.factors)))

    def __repr__(self):
        return "DirectProductGroup(%s)" % ", ".join(repr(f) for f in self.factors)


# -- descriptors --------------------------------------------------------------

def group_from_descriptor(desc):
    "Rebuild a group from its JSON descriptor; a malformed one raises SchemaError."
    if not isinstance(desc, dict) or "family" not in desc:
        raise SchemaError("group descriptor must be an object with a 'family'", "group")
    fam = desc["family"]
    try:
        return _group_from_family(fam, desc)
    except (LookupError, TypeError, ValueError) as e:
        # the constructors reject bad arguments with these errors
        raise SchemaError("bad %r group descriptor: %s" % (fam, e), "group")


def _group_from_family(fam, desc):
    if fam == "Zn":
        n = int(desc["n"])
        if n < 1:
            raise ValueError("n must be >= 1, got %d" % n)
        return cyclic_group(n, gen_name=desc.get("gen", "g"))
    if fam == "K4":
        return klein_four_group()
    if fam == "S3":
        return symmetric_group_s3()
    if fam == "Q8":
        return quaternion_group_q8()
    if fam == "Z":
        return IntegerGroup()
    if fam == "Dinf":
        return InfiniteDihedralGroup()
    if fam == "perm":
        return permutation_group(desc["generators"], name=desc.get("name", "perm"))
    if fam == "finite":
        return FiniteGroup(desc.get("name", "finite"), desc["names"], desc["table"],
                           desc.get("generators", [desc["names"][1]]))
    if fam == "product":
        return DirectProductGroup([group_from_descriptor(d) for d in desc["factors"]])
    raise SchemaError("unknown group family %r" % fam, "group.family")


# -- homomorphisms -------------------------------------------------------------

class GroupHom:
    """Group homomorphism given by generator images.

    Finite domains are closed and checked exhaustively; the two infinite
    families are checked on their defining relations.
    """

    def __init__(self, domain, codomain, images):
        self.domain = domain
        self.codomain = codomain
        self.images = {}
        for gen, img in images.items():
            if isinstance(gen, str):
                gen = domain.parse(gen)
            if isinstance(img, str):
                img = codomain.parse(img)
            domain._member(gen)
            codomain._member(img)
            self.images[gen.key] = img
        self._map = None
        if isinstance(domain, FiniteGroup):
            self._map = self._close_finite()
        elif isinstance(domain, IntegerGroup):
            if domain._element(1).key not in self.images:
                raise ValueError("image of the generator 1 required")
        elif isinstance(domain, InfiniteDihedralGroup):
            ix = self.images.get(domain.x.key)
            iy = self.images.get(domain.y.key)
            if ix is None or iy is None:
                raise ValueError("images of x and y required")
            C = self.codomain
            if C.mul(ix, ix) != C.one or C.mul(C.mul(ix, iy), ix) != C.inv(iy):
                raise ValueError("generator images do not satisfy the relations")
        else:
            raise ValueError("unsupported homomorphism domain %r" % domain)

    def _close_finite(self):
        D, C = self.domain, self.codomain
        for idx in D.generator_indices:
            if idx not in self.images:
                raise ValueError("missing image of generator %r"
                                 % D.element_names[idx])
        full = {0: C.one}
        frontier = [0]
        while frontier:
            new = []
            for i in frontier:
                for gidx in D.generator_indices:
                    j = D.table[i][gidx]
                    img = C.mul(full[i], self.images[gidx])
                    if j in full:
                        if full[j] != img:
                            raise ValueError("generator images are inconsistent")
                    else:
                        full[j] = img
                        new.append(j)
            frontier = new
        n = len(D.element_names)
        for i in range(n):
            for j in range(n):
                if full[D.table[i][j]] != C.mul(full[i], full[j]):
                    raise ValueError("not a homomorphism at (%s, %s)"
                                     % (D.element_names[i], D.element_names[j]))
        return full

    def __call__(self, a):
        self.domain._member(a)
        if self._map is not None:
            return self._map[a.key]
        D, C = self.domain, self.codomain
        if isinstance(D, IntegerGroup):
            return C.power(self.images[1], a.key)
        # infinite dihedral: (k, e) = y^k x^e
        k, e = a.key
        out = C.power(self.images[D.y.key], k)
        if e:
            out = C.mul(out, self.images[D.x.key])
        return out
