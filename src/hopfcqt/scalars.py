"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Every number in the library is a Scalar: a polynomial in zeta_N with rational
coefficients, reduced modulo the N-th cyclotomic polynomial Phi_N.  Mixing
orders embeds both operands into Q(zeta_lcm) lazily.  There is no floating
point anywhere.

Representation.  A Scalar of order N holds exactly phi(N) coefficients, each
an ``int`` when it is integral and a ``Fraction`` (denominator > 1) otherwise,
so the common rational x rational case is plain int arithmetic.  A value that
turns out to be rational is collapsed to order 1.

Kernel.  One product ``_poly_mul`` and one division ``_poly_divmod``, exact
over Q and int-preserving for a monic divisor, build Phi_n and serve ``*`` and
the extended-Euclid ``inverse``.  ``_reduce_mod_cyclotomic``, the hot path of
``*`` and of embeddings, keeps its own in-place remainder loop: building a
quotient there slowed the characters workload by 2-7%.

Coercion.  Every entry point (``Scalar(...)``, ``rational``, ``as_scalar``, the
operators) takes an int (bool included) or a Fraction and nothing else, no
other ``numbers.Rational`` such as sympy's: that raises NotAScalar, or makes an
operator return NotImplemented.  The internal constructors ``Scalar._trusted``
(canonical coefficients, no checks), ``_rat`` (one int or Fraction result) and
``Matrix._trusted`` (rows of Scalars) skip the validation and are for results
computed in this module only.  The sweeps' memo tables hold a rational value
bare, as its int or Fraction (``bare``), and rely on Scalar's reflected
operators where it meets a cyclotomic one.  ``as_root_of_unity`` is memoized
per distinct value, like ``euler_phi`` and ``cyclotomic_polynomial`` per order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm

from .errors import (DimensionMismatch, DivisionByZero, InvalidScalar, NotARootOfUnity,
                     NotAScalar, SchemaError, shown)


def divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n):
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _norm(c):
    "Canonical coefficient: an int when c is integral, else the Fraction c."
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _poly_mul(a, b):
    "Product of two polynomials, coefficients ascending; exact over Q, ints stay ints."
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder of a by b over Q; b's leading coefficient is nonzero.

    A monic b never divides a coefficient, so int inputs give int outputs.
    """
    lead, deg = b[-1], len(b) - 1
    a = list(a)
    q = [0] * max(len(a) - deg, 1)
    for i in range(len(a) - 1 - deg, -1, -1):
        c = a[i + deg] if lead == 1 else Fraction(a[i + deg], lead)
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return q, a[:deg]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    "Coefficients of Phi_n, ascending degree, monic, as a tuple of ints."
    den = [1]
    for d in divisors(n):
        if d < n:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod([-1] + [0] * (n - 1) + [1], den)
    assert not any(r), "x^n - 1 is not divisible by the Phi_d, d < n"
    return tuple(q)


def _reduce_mod_cyclotomic(coeffs, n):
    "Reduce a rational polynomial modulo Phi_n; returns phi(n) canonical coefficients."
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, deg - 1, -1):
        top = c[i]
        if top:
            base = i - deg
            for j in range(deg + 1):
                c[base + j] -= top * phi[j]
    c = c[:deg]
    if len(c) < deg:
        c += [0] * (deg - len(c))
    return tuple(map(_norm, c))


def _embed(coeffs, n, m):
    "Rewrite coefficients over zeta_n as coefficients over zeta_m (n | m)."
    step = m // n
    out = [0] * ((len(coeffs) - 1) * step + 1 or 1)
    for i, c in enumerate(coeffs):
        if c:
            out[i * step] += c
    return _reduce_mod_cyclotomic(out, m)


_RATIONALS = (int, Fraction)  # the one coercion rule, see the module docstring


def _coefficient(c):
    "Validate one public coefficient and return it in canonical form."
    if c.__class__ is int:
        return c
    if isinstance(c, _RATIONALS):
        return _norm(Fraction(c))
    raise NotAScalar("scalar coefficients must be int or Fraction, got %r" % (c,))


class Scalar:
    """An element of Q(zeta_N): rational coefficients of 1, zeta, ..., zeta^(phi(N)-1).

    Immutable; all operations are pure and exact.  Elements that turn out to be
    rational are collapsed to order 1.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if not isinstance(order, int) or order < 1:
            raise InvalidScalar("order must be an int >= 1, got %r" % (order,))
        coeffs = tuple(map(_coefficient, coeffs))
        deg = euler_phi(order)
        if len(coeffs) != deg:
            raise DimensionMismatch(
                "expected %d coefficients for order %d, got %d" % (deg, order, len(coeffs)))
        if order > 1 and not any(coeffs[1:]):
            order, coeffs = 1, coeffs[:1]
        _set_order(self, order)
        _set_coeffs(self, coeffs)

    @staticmethod
    def _trusted(order, coeffs):
        "Internal constructor: coeffs are phi(order) canonical coefficients."
        s = _new(Scalar)
        if order > 1 and not any(coeffs[1:]):
            order, coeffs = 1, coeffs[:1]
        _set_order(s, order)
        _set_coeffs(s, coeffs)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- coercion -------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scalar):
            return v
        if v.__class__ is int:
            return _rat(v)
        if isinstance(v, _RATIONALS):
            return _rat(Fraction(v))
        return None

    def _aligned(self, other):
        m = lcm(self.order, other.order)
        a = self.coeffs if self.order == m else _embed(self.coeffs, self.order, m)
        b = other.coeffs if other.order == m else _embed(other.coeffs, other.order, m)
        return m, a, b

    # -- ring/field operations -----------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.order == 1 and other.order == 1:
            return _rat(self.coeffs[0] + other.coeffs[0])
        m, a, b = self._aligned(other)
        return Scalar._trusted(m, tuple(_norm(x + y) for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        if self.order == 1:
            return _rat(-self.coeffs[0])
        return Scalar._trusted(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return _rat(self.coeffs[0] - other.coeffs[0])
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if other.order == 1:
            c = other.coeffs[0]
            if self.order == 1:
                return _rat(self.coeffs[0] * c)
            return Scalar._trusted(self.order, tuple(_norm(x * c) for x in self.coeffs))
        if self.order == 1:
            c = self.coeffs[0]
            return Scalar._trusted(other.order, tuple(_norm(c * y) for y in other.coeffs))
        m, a, b = self._aligned(other)
        return Scalar._trusted(m, _reduce_mod_cyclotomic(_poly_mul(a, b), m))

    __rmul__ = __mul__

    def inverse(self):
        "Field inverse; raises DivisionByZero on zero."
        if self.is_zero():
            raise DivisionByZero("scalar is zero")
        if self.order == 1:
            c = self.coeffs[0]
            if c == 1 or c == -1:
                return self
            return _rat(Fraction(c.denominator, c.numerator))
        # extended Euclid in Q[x] against Phi_N: s1 * self = r1 (mod Phi_N)
        n = self.order
        r0, r1 = cyclotomic_polynomial(n), list(self.coeffs)
        s0, s1 = [0], [1]
        while True:
            while not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = Fraction(1, r1[0])
                return Scalar._trusted(n, _reduce_mod_cyclotomic([c * inv for c in s1], n))
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, _poly_mul(q, s1), fillvalue=0)]

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        if self.order == 1:
            return not self.coeffs[0]
        return not any(self.coeffs)

    def is_one(self):
        return self.order == 1 and self.coeffs[0] == 1

    def is_rational(self):
        return self.order == 1

    def as_rational(self):
        if self.order != 1:
            raise InvalidScalar("not a rational scalar: %r" % self)
        return Fraction(self.coeffs[0])

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        _, a, b = self._aligned(other)
        return a == b

    __hash__ = None  # compare, do not hash

    def __repr__(self):
        return format_scalar(self)

    # -- roots of unity ---------------------------------------------------

    def as_root_of_unity(self):
        """Recognize self as zeta_m^j with m minimal; returns (m, j) or None.

        Memoized per distinct value (`_root_of_unity_index`).
        """
        return _root_of_unity_index(self.order, self.coeffs)


@lru_cache(maxsize=None)
def _root_of_unity_index(order, coeffs):
    """(m, j) with Scalar._trusted(order, coeffs) == zeta_m^j, m minimal, or None.

    The torsion units of Q(zeta_N) are exactly the M-th roots of unity for
    M = N (N even) or 2N (N odd), so the scan is finite and complete.
    """
    x = Scalar._trusted(order, coeffs)
    if x.is_zero():
        return None
    M = x.order if x.order % 2 == 0 else 2 * x.order
    if x ** M != ONE:
        return None
    m = next(d for d in divisors(M) if x ** d == ONE)
    for j in range(m):
        if gcd(j, m) == 1 and x == root_of_unity(m, j):
            return (m, j)
    return None


_new = object.__new__
_set_order = Scalar.order.__set__
_set_coeffs = Scalar.coeffs.__set__


def _rat(q):
    "Internal constructor of the rational Scalar q (int or Fraction); 0 and +-1 are shared."
    if q.__class__ is int:
        if -1 <= q <= 1:
            return _UNITS[q]
    elif q.denominator == 1:
        return _rat(q.numerator)
    s = _new(Scalar)
    _set_order(s, 1)
    _set_coeffs(s, (q,))
    return s


ZERO, ONE, MINUS_ONE = (Scalar._trusted(1, (q,)) for q in (0, 1, -1))
_UNITS = {0: ZERO, 1: ONE, -1: MINUS_ONE}


def bare(v):
    "A rational Scalar as its int or Fraction; anything else, None included, unchanged."
    return v.coeffs[0] if v.__class__ is Scalar and v.order == 1 else v


def rational(p, q=1):
    "The rational number p/q as a Scalar; p and q are ints or Fractions."
    p, q = _coefficient(p), _coefficient(q)
    if not q:
        raise DivisionByZero("rational %s/0" % (p,))
    return _rat(Fraction(p, q))


def root_of_unity(n, j=1):
    "zeta_n^j, canonically reduced; root_of_unity(n, 0) == 1."
    if not isinstance(n, int) or n < 1:
        raise InvalidScalar("root of unity order must be an int >= 1, got %r" % (n,))
    j %= n
    coeffs = [0] * (j + 1)
    coeffs[j] = 1
    return Scalar._trusted(n, _reduce_mod_cyclotomic(coeffs, n))


def sqrt_root_of_unity(x):
    """Canonical square root of a root of unity: zeta_m^j |-> zeta_(2m)^j.

    The branch is fixed (j reduced into [0, m) with m the multiplicative
    order), so outputs are deterministic; squaring the result returns x.
    """
    x = Scalar._coerce(x)
    ru = x.as_root_of_unity() if x is not None else None
    if ru is None:
        raise NotARootOfUnity("no square root in the cyclotomic lattice: %r" % (x,))
    m, j = ru
    return root_of_unity(2 * m, j)


# -- scalar literals ------------------------------------------------------

_TOKEN = re.compile(r"\s*(zeta|\d+/\d+|\d+|[()*+,-])")
# parentheses recurse three frames deep each; unary minus is a loop
MAX_LITERAL_DEPTH = 100
# largest N of Q(zeta_N) a literal may name or reach through its + - *: the cost
# of Phi_N and of reducing by it grows with N (zeta(30030,1) runs for minutes),
# while the library itself works at orders <= 8
MAX_LITERAL_ORDER = 1000


def parse_scalar(text):
    """Parse a scalar literal: rationals, zeta(N,j), and +/-/* combinations.

    Examples: "2", "-1/2", "zeta(4,1)", "-1/2*zeta(4,1)", "1/2 + 1/2*zeta(3,1)".
    A zeta order above MAX_LITERAL_ORDER, named or reached by combining two
    orders, raises SchemaError before any arithmetic at that order.  A
    non-string (a JSON number, say) raises SchemaError too.
    """
    if not isinstance(text, str):
        raise SchemaError("scalar literal must be a string, got %s" % shown(text))
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SchemaError("bad scalar literal %s" % shown(text), location="char %d" % pos)
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    state = {"i": 0}

    def peek():
        return tokens[state["i"]]

    def take(expected=None):
        tok = tokens[state["i"]]
        if expected is not None and tok != expected:
            raise SchemaError("expected %r in scalar literal %s" % (expected, shown(text)))
        state["i"] += 1
        return tok

    def integer():
        tok = take()
        if tok is None or not tok.isdigit():
            raise SchemaError("expected an integer in scalar literal %s" % shown(text))
        return number(int, tok)

    def number(convert, tok):
        "convert(tok); a number past int()'s digit limit raises SchemaError, not ValueError."
        try:
            return convert(tok)
        except ValueError:
            raise SchemaError("a %d-character number in scalar literal %s is too long"
                              % (len(tok), shown(text))) from None

    def factor(depth):
        negate = False
        while peek() == "-":
            take()
            negate = not negate
        v = atom(depth)
        return -v if negate else v

    def atom(depth):
        tok = peek()
        if tok == "(":
            if depth >= MAX_LITERAL_DEPTH:
                raise SchemaError("scalar literal nests deeper than %d parentheses"
                                  % MAX_LITERAL_DEPTH)
            take()
            v = expr(depth + 1)
            take(")")
            return v
        if tok == "zeta":
            take()
            take("(")
            n = integer()
            if n < 1:
                raise SchemaError("zeta order must be >= 1 in scalar literal %s" % shown(text))
            order_bound(n)
            take(",")
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            j = sign * integer()
            take(")")
            return root_of_unity(n, j)
        if tok is not None and re.fullmatch(r"\d+(/\d+)?", tok):
            take()
            try:
                return rational(number(Fraction, tok))
            except ZeroDivisionError:
                raise SchemaError("zero denominator in scalar literal %s" % shown(text))
        raise SchemaError("bad scalar literal %s" % shown(text))

    def order_bound(n):
        if n > MAX_LITERAL_ORDER:
            raise SchemaError("scalar literal %s reaches zeta order %d, above %d"
                              % (shown(text), n, MAX_LITERAL_ORDER))

    def term(depth):
        v = factor(depth)
        while peek() == "*":
            take()
            w = factor(depth)
            order_bound(lcm(v.order, w.order))
            v = v * w
        return v

    def expr(depth):
        v = term(depth)
        while peek() in ("+", "-"):
            plus = take() == "+"
            w = term(depth)
            order_bound(lcm(v.order, w.order))
            v = v + w if plus else v - w
        return v

    value = expr(0)
    if peek() is not None:
        raise SchemaError("trailing junk in scalar literal %s" % shown(text))
    return value


def format_scalar(x):
    "Canonical literal for a Scalar; parse_scalar(format_scalar(x)) == x."
    if x.is_rational():
        return str(x.coeffs[0])
    parts = []
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
        if i == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "zeta(%d,%d)" % (x.order, i)
        else:
            body = "%s*zeta(%d,%d)" % (abs(c), x.order, i)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


# -- exact linear algebra --------------------------------------------------

def as_scalar(v):
    "v as a Scalar; v is a Scalar, int or Fraction, else NotAScalar is raised."
    s = Scalar._coerce(v)
    if s is None:
        raise NotAScalar("cannot use %r as a scalar" % (v,))
    return s


class Matrix:
    "Dense rectangular matrix of Scalars; exact arithmetic only."

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[as_scalar(v) for v in row] for row in entries]
        if not entries:
            raise DimensionMismatch("empty matrix")
        w = len(entries[0])
        if any(len(row) != w for row in entries):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", w)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def _trusted(entries):
        "Internal constructor: entries is a non-empty rectangular list of Scalar rows."
        m = _new(Matrix)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", len(entries[0]))
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([[ZERO] * c for _ in range(r)])

    @classmethod
    def column(cls, values):
        return cls([[v] for v in values])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and
                all(self.entries[i][j] == other.entries[i][j]
                    for i in range(self.rows) for j in range(self.cols)))

    __hash__ = None

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("matrix add: %dx%d vs %dx%d"
                                    % (self.rows, self.cols, other.rows, other.cols))
        return Matrix._trusted([[a + b for a, b in zip(r, s)]
                                for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + Matrix._trusted([[-v for v in row] for row in other.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix mul: %dx%d by %dx%d"
                                        % (self.rows, self.cols, other.rows, other.cols))
            cols = list(zip(*other.entries))
            return Matrix._trusted([[_dot(row, col) for col in cols] for row in self.entries])
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return Matrix._trusted([[v * s for v in row] for row in self.entries])

    __rmul__ = __mul__

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def __repr__(self):
        return "Matrix(%s)" % ([[format_scalar(v) for v in row] for row in self.entries],)


def _dot(row, col):
    acc = ZERO
    for a, b in zip(row, col):
        if a and b:
            acc = acc + a * b
    return acc


class LinearSolution:
    """Exact description of the solution set of A x = b.

    status is "unique", "parametric" (particular solution + kernel basis) or
    "inconsistent"; kernel holds basis vectors of the homogeneous solutions.
    """

    __slots__ = ("status", "particular", "kernel", "rank")

    def __init__(self, status, particular, kernel, rank):
        self.status = status
        self.particular = particular
        self.kernel = kernel
        self.rank = rank

    @property
    def kernel_dimension(self):
        return len(self.kernel)


def solve_linear(A, b=None):
    """Exact Gaussian elimination for A x = b (b a column Matrix or None).

    With b None only the homogeneous system is analyzed (particular = zero
    vector).  No rounding anywhere; pivots are exact nonzero tests.
    """
    if b is None:
        b = Matrix.zeros(A.rows, 1)
    if b.rows != A.rows or b.cols != 1:
        raise DimensionMismatch("rhs must be a %dx1 column" % A.rows)
    m, n = A.rows, A.cols
    aug = [[A.entries[i][j] for j in range(n)] + [b.entries[i][0]] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    rank = len(pivots)
    for r in range(rank, m):
        if aug[r][n]:
            return LinearSolution("inconsistent", None, [], rank)
    particular = [ZERO] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    free_cols = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free_cols:
        vec = [ZERO] * n
        vec[fc] = ONE
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        kernel.append(vec)
    status = "unique" if not kernel else "parametric"
    return LinearSolution(status, particular, kernel, rank)


def commutant_dimension(mats, n):
    """dim { X : X M = M X for every M } computed by exact elimination.

    The commutation constraints are vectorized over the n^2 unknown entries of
    X; a one-dimensional commutant certifies simplicity of a coefficient
    system.
    """
    mats = list(mats)
    for M in mats:
        if M.rows != n or M.cols != n:
            raise DimensionMismatch("commutant: expected %dx%d, got %dx%d"
                                    % (n, n, M.rows, M.cols))
    if not mats:
        return n * n
    rows = []
    for M in mats:
        for i in range(n):
            for j in range(n):
                # (X M - M X)[i][j] = sum_k X[i,k] M[k,j] - M[i,k] X[k,j]
                coeff = [ZERO] * (n * n)
                for k in range(n):
                    coeff[i * n + k] = coeff[i * n + k] + M.entries[k][j]
                    coeff[k * n + j] = coeff[k * n + j] - M.entries[i][k]
                rows.append(coeff)
    sol = solve_linear(Matrix(rows))
    return n * n - sol.rank
