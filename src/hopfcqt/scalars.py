"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

Every number in the library is a Scalar: a polynomial in zeta_N with rational
coefficients, reduced modulo the N-th cyclotomic polynomial Phi_N.  Mixing
orders embeds both operands into Q(zeta_lcm) lazily.  There is no floating
point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import DimensionMismatch, DivisionByZero, NotARootOfUnity, SchemaError


def lcm(a, b):
    return a // gcd(a, b) * b


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


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divexact_int(num, den):
    "Exact division of integer polynomials; den must be monic."
    num = list(num)
    qlen = len(num) - len(den) + 1
    q = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    assert not any(num), "polynomial division was not exact"
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    "Coefficients of Phi_n, ascending degree, monic, as a tuple of ints."
    num = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in divisors(n):
        if d < n:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_divexact_int(num, den))


def _reduce_mod_cyclotomic(coeffs, n):
    "Reduce a Fraction polynomial modulo Phi_n; returns exactly phi(n) coefficients."
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
        c += [Fraction(0)] * (deg - len(c))
    return tuple(c)


def _embed(coeffs, n, m):
    "Rewrite coefficients over zeta_n as coefficients over zeta_m (n | m)."
    step = m // n
    out = [Fraction(0)] * ((len(coeffs) - 1) * step + 1 or 1)
    for i, c in enumerate(coeffs):
        if c:
            out[i * step] += c
    return _reduce_mod_cyclotomic(out, m)


class Scalar:
    """An element of Q(zeta_N): rational coefficients of 1, zeta, ..., zeta^(phi(N)-1).

    Immutable; all operations are pure and exact.  Elements that turn out to be
    rational are collapsed to order 1.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
        deg = euler_phi(order)
        if len(coeffs) != deg:
            raise DimensionMismatch(
                "expected %d coefficients for order %d, got %d" % (deg, order, len(coeffs)))
        if order > 1 and not any(coeffs[1:]):
            order, coeffs = 1, coeffs[:1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- coercion -------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar(1, (Fraction(v),))
        return None

    def _aligned(self, other):
        m = lcm(self.order, other.order)
        a = self.coeffs if self.order == m else _embed(self.coeffs, self.order, m)
        b = other.coeffs if other.order == m else _embed(other.coeffs, other.order, m)
        return m, a, b

    # -- ring/field operations -----------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Scalar(1, (self.coeffs[0] + other.coeffs[0],))
        m, a, b = self._aligned(other)
        return Scalar(m, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.order == 1:
            c = other.coeffs[0]
            return Scalar(self.order, tuple(x * c for x in self.coeffs))
        if self.order == 1:
            c = self.coeffs[0]
            return Scalar(other.order, tuple(c * y for y in other.coeffs))
        m, a, b = self._aligned(other)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Scalar(m, _reduce_mod_cyclotomic(prod, m))

    __rmul__ = __mul__

    def inverse(self):
        "Field inverse; raises DivisionByZero on zero."
        if self.is_zero():
            raise DivisionByZero("scalar is zero")
        if self.order == 1:
            return Scalar(1, (1 / self.coeffs[0],))
        # extended Euclid in Q[x] against Phi_N
        n = self.order
        phi = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv = 1 / r1[0]
                return Scalar(n, _reduce_mod_cyclotomic([c * inv for c in s1], n))
            q = _poly_divmod(r0, r1)
            r0, r1 = r1, _poly_mod(r0, r1)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

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
        return not any(self.coeffs)

    def is_one(self):
        return self.order == 1 and self.coeffs[0] == 1

    def is_rational(self):
        return self.order == 1

    def as_rational(self):
        if self.order != 1:
            raise ValueError("not a rational scalar: %r" % self)
        return self.coeffs[0]

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

        The torsion units of Q(zeta_N) are exactly the M-th roots of unity for
        M = N (N even) or 2N (N odd), so the scan is finite and complete.
        """
        if self.is_zero():
            return None
        M = self.order if self.order % 2 == 0 else 2 * self.order
        if self ** M != ONE:
            return None
        m = next(d for d in divisors(M) if self ** d == ONE)
        for j in range(m):
            if gcd(j, m) == 1 and self == root_of_unity(m, j):
                return (m, j)
        return None


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _poly_divmod(a, b):
    "Quotient of a by b over Q (b need not be monic)."
    a = list(a)
    while b and not b[-1]:
        b = b[:-1]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        q[i] = c
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return q


def _poly_mod(a, b):
    a = list(a)
    while b and not b[-1]:
        b = b[:-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] / b[-1]
        if c:
            for j, d in enumerate(b):
                a[i + j] -= c * d
    return a[:len(b) - 1] or [Fraction(0)]


ZERO = Scalar(1, (0,))
ONE = Scalar(1, (1,))
MINUS_ONE = Scalar(1, (-1,))


def rational(p, q=1):
    "The rational number p/q as a Scalar."
    return Scalar(1, (Fraction(p, q),))


def root_of_unity(n, j=1):
    "zeta_n^j, canonically reduced; root_of_unity(n, 0) == 1."
    if n < 1:
        raise ValueError("n must be >= 1")
    j %= n
    coeffs = [Fraction(0)] * (j + 1)
    coeffs[j] = Fraction(1)
    return Scalar(n, _reduce_mod_cyclotomic(coeffs, n))


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


def parse_scalar(text):
    """Parse a scalar literal: rationals, zeta(N,j), and +/-/* combinations.

    Examples: "2", "-1/2", "zeta(4,1)", "-1/2*zeta(4,1)", "1/2 + 1/2*zeta(3,1)".
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise SchemaError("bad scalar literal %r" % text, location="char %d" % pos)
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
            raise SchemaError("expected %r in scalar literal %r" % (expected, text))
        state["i"] += 1
        return tok

    def integer():
        tok = take()
        if tok is None or not tok.isdigit():
            raise SchemaError("expected an integer in scalar literal %r" % text)
        return int(tok)

    def factor():
        tok = peek()
        if tok == "-":
            take()
            return -factor()
        if tok == "(":
            take()
            v = expr()
            take(")")
            return v
        if tok == "zeta":
            take()
            take("(")
            n = integer()
            if n < 1:
                raise SchemaError("zeta order must be >= 1 in scalar literal %r" % text)
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
                return rational(Fraction(tok))
            except ZeroDivisionError:
                raise SchemaError("zero denominator in scalar literal %r" % text)
        raise SchemaError("bad scalar literal %r" % text)

    def term():
        v = factor()
        while peek() == "*":
            take()
            v = v * factor()
        return v

    def expr():
        v = term()
        while peek() in ("+", "-"):
            if take() == "+":
                v = v + term()
            else:
                v = v - term()
        return v

    value = expr()
    if peek() is not None:
        raise SchemaError("trailing junk in scalar literal %r" % text)
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

def _as_scalar(v):
    s = Scalar._coerce(v)
    if s is None:
        raise TypeError("cannot coerce %r to Scalar" % (v,))
    return s


class Matrix:
    "Dense rectangular matrix of Scalars; exact arithmetic only."

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[_as_scalar(v) for v in row] for row in entries]
        if not entries:
            raise DimensionMismatch("empty matrix")
        w = len(entries[0])
        if any(len(row) != w for row in entries):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", w)
        object.__setattr__(self, "entries", entries)

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
        return Matrix([[self.entries[i][j] + other.entries[i][j]
                        for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        return self + Matrix([[-v for v in row] for row in other.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch("matrix mul: %dx%d by %dx%d"
                                        % (self.rows, self.cols, other.rows, other.cols))
            return Matrix([[_dot(self.entries[i], [other.entries[k][j] for k in range(other.rows)])
                            for j in range(other.cols)] for i in range(self.rows)])
        s = Scalar._coerce(other)
        if s is None:
            return NotImplemented
        return Matrix([[v * s for v in row] for row in self.entries])

    __rmul__ = __mul__

    def scaled(self, s):
        return self * s

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self.entries[i][i]
        return t

    def column_values(self, j=0):
        return [self.entries[i][j] for i in range(self.rows)]

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
