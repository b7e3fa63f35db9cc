import random
from fractions import Fraction
from math import gcd

import pytest

from hopfcqt.catalog import get_entry
from hopfcqt.errors import (DivisionByZero, HopfCqtError, InvalidScalar, NotARootOfUnity,
                            NotAScalar, SchemaError)
from hopfcqt.scalars import (MAX_LITERAL_ORDER, Matrix, ONE, MINUS_ONE, Scalar,
                             ZERO, commutant_dimension, cyclotomic_polynomial,
                             _embed, divisors, euler_phi, format_scalar,
                             as_scalar, parse_scalar, rational, root_of_unity,
                             solve_linear, sqrt_root_of_unity)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_field_op_examples():
    z3 = root_of_unity(3)
    assert z3 + z3 * z3 == MINUS_ONE
    z4 = root_of_unity(4)
    assert z4 * z4 == MINUS_ONE
    assert rational(1, 2).inverse() == 2
    # zeta_3^-1 = zeta_3^2 = -1 - zeta_3, by division and by a negative power alike
    assert repr(1 / z3) == repr(z3 ** -1) == "-1 - zeta(3,1)"


def test_root_of_unity_examples():
    assert root_of_unity(2, 1) == MINUS_ONE
    assert root_of_unity(1, 5) == ONE
    assert root_of_unity(6, 3) == MINUS_ONE
    assert root_of_unity(5, 0) == ONE


def _scan_root_of_unity(x):
    "The uncached scan: (m, j) with x = zeta_m^j, m minimal, or None."
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


def test_root_of_unity_cache_matches_scan():
    # every zeta_m^j (m <= 24) at its own order and stored at twice that order,
    # zeta_4 stored at order 12, and three non-roots
    values = []
    for m in range(1, 25):
        for j in range(m):
            x = root_of_unity(m, j)
            values.append(x)
            values.append(Scalar._trusted(2 * x.order, _embed(x.coeffs, x.order, 2 * x.order)))
    z4_at_12 = Scalar._trusted(12, _embed(root_of_unity(4).coeffs, 4, 12))
    assert z4_at_12.order == 12
    values += [z4_at_12, rational(2), ONE + root_of_unity(4), ZERO]
    for x in values:
        want = _scan_root_of_unity(x)
        assert x.as_root_of_unity() == want, x
        assert x.as_root_of_unity() == want, x
    assert z4_at_12.as_root_of_unity() == (4, 1)
    assert [v.as_root_of_unity() for v in values[-3:]] == [None, None, None]


def test_sqrt_examples():
    assert sqrt_root_of_unity(ONE) == ONE
    assert sqrt_root_of_unity(MINUS_ONE) == root_of_unity(4)
    assert sqrt_root_of_unity(root_of_unity(3)) == root_of_unity(6)


def test_sqrt_rejects_non_roots():
    with pytest.raises(NotARootOfUnity):
        sqrt_root_of_unity(rational(2))
    with pytest.raises(NotARootOfUnity):
        sqrt_root_of_unity(root_of_unity(4) + ONE)  # |1 + i| = sqrt(2)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        (root_of_unity(3) - root_of_unity(3)).inverse()


def test_public_constructors_reject_bad_input():
    for bad in (1.5, 2.0, "1/2"):
        with pytest.raises(TypeError):
            Scalar(1, (bad,))
        with pytest.raises(TypeError):
            rational(bad)
    with pytest.raises(TypeError):
        Scalar(4, (1, 0.5))
    with pytest.raises(DivisionByZero):
        rational(1, 0)
    with pytest.raises(DivisionByZero):
        rational(Fraction(1, 2), Fraction(0))
    assert Scalar(1, (True,)).coeffs == (1,) and type(Scalar(1, (True,)).coeffs[0]) is int
    assert Scalar(3, (Fraction(4, 2), 0)) == rational(2)
    for call in (lambda: Scalar(0, ()), lambda: Scalar(2.0, (1,)), lambda: root_of_unity(0),
                 lambda: root_of_unity(-3, 1), lambda: root_of_unity(4.0),
                 lambda: root_of_unity(4).as_rational()):
        with pytest.raises(InvalidScalar):
            call()
    assert issubclass(InvalidScalar, HopfCqtError) and issubclass(InvalidScalar, ValueError)


def test_one_coercion_rule_for_every_entry_point():
    # int (bool included) and Fraction are scalars; numbers.Rational alone is not
    sympy = pytest.importorskip("sympy")
    H = get_entry("Z2_Z2_tau").context()
    half = sympy.Rational(1, 2)
    for call in (lambda: rational(half), lambda: as_scalar(half),
                 lambda: H.element([("g", "t", half)])):
        with pytest.raises(NotAScalar):
            call()
    for v in (True, 3, Fraction(1, 2)):
        assert rational(v) == as_scalar(v) == H.element([("g", "t", v)]).coefficient("g", "t")
    # both sides of * on an element follow the same rule
    x = H.basis("g", "t")
    for v in (2.0, "2", half):
        for call in (lambda: x * v, lambda: v * x):
            with pytest.raises(NotAScalar):
                call()
    for v in (True, 3, Fraction(1, 2), root_of_unity(4)):
        assert v * x == x * v == x.scaled(v)


def test_deeply_nested_literals():
    assert parse_scalar("-" * 5000 + "1") == ONE
    assert parse_scalar("-" * 5001 + "1") == MINUS_ONE
    assert parse_scalar("(" * 100 + "zeta(4,1)" + ")" * 100) == root_of_unity(4)
    for text in ["(" * 101 + "1" + ")" * 101, "(" * 2000 + "1" + ")" * 2000]:
        with pytest.raises(SchemaError):
            parse_scalar(text)


def test_literal_orders_are_bounded():
    assert parse_scalar("zeta(%d,1)" % MAX_LITERAL_ORDER) == root_of_unity(MAX_LITERAL_ORDER)
    assert parse_scalar("zeta(997,1)*zeta(997,996)") == ONE
    for text in ["zeta(30030,1)", "zeta(%d,1)" % (MAX_LITERAL_ORDER + 1),
                 "zeta(997,1)*zeta(991,1)", "zeta(997,1) + zeta(991,1)",
                 "1 - zeta(8,1)*(zeta(997,1) - zeta(991,1))"]:
        with pytest.raises(SchemaError):
            parse_scalar(text)


def test_sqrt_squares_back_randomized():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(1, 25)
        j = rng.randrange(0, n)
        x = root_of_unity(n, j)
        s = sqrt_root_of_unity(x)
        assert s * s == x


def _random_scalar(rng):
    n = rng.choice([1, 2, 3, 4, 6, 8, 12])
    coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
              for _ in range(euler_phi(n))]
    return Scalar(n, coeffs)


def test_field_axioms_randomized():
    rng = random.Random(5)
    for _ in range(150):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE
            assert (a * b) / a == b


def test_cross_order_equality():
    # zeta_3 embedded into order 6: zeta_6^2 = zeta_6 - 1
    z3 = root_of_unity(3)
    z6 = root_of_unity(6)
    assert z3 == z6 * z6
    assert z6 ** 6 == ONE
    assert z6 ** 3 == MINUS_ONE


def test_scalar_literals_round_trip():
    for text in ["2", "-1/2", "zeta(4,1)", "-1/2*zeta(4,1)",
                 "1/2 + 1/2*zeta(3,1)", "zeta(8,3)", "0"]:
        v = parse_scalar(text)
        assert parse_scalar(format_scalar(v)) == v
    assert parse_scalar("-1/2*zeta(4,1)") == rational(-1, 2) * root_of_unity(4)


def test_solve_linear_examples():
    sol = solve_linear(Matrix.identity(2), Matrix.column([ONE, root_of_unity(3)]))
    assert sol.status == "unique"
    assert sol.particular == [ONE, root_of_unity(3)]

    sol = solve_linear(Matrix.zeros(2, 2), Matrix.column([ZERO, ZERO]))
    assert sol.status == "parametric"
    assert sol.kernel_dimension == 2

    sol = solve_linear(Matrix([[1, 1], [1, -1]]), Matrix.column([ONE, ZERO]))
    assert sol.status == "unique"
    assert sol.particular == [rational(1, 2), rational(1, 2)]

    sol = solve_linear(Matrix([[1, 1], [1, 1]]), Matrix.column([ONE, ZERO]))
    assert sol.status == "inconsistent"


def test_solve_linear_substitutes_back_randomized():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 4)
        A = Matrix([[_random_scalar(rng) for _ in range(n)] for _ in range(n)])
        b = Matrix.column([_random_scalar(rng) for _ in range(n)])
        sol = solve_linear(A, b)
        if sol.status == "inconsistent":
            continue
        x = Matrix.column(sol.particular)
        assert A * x == b
        for vec in sol.kernel:
            assert A * Matrix.column(vec) == Matrix.zeros(n, 1)


def _brute_commutant_dim_2x2(mats):
    # independent oracle: eliminate the explicit 4-unknown commutation system
    # over x = (x11, x12, x21, x22) with plain Fractions
    rows = []
    for M in mats:
        m = [[M[i, j].as_rational() for j in range(2)] for i in range(2)]
        for i in range(2):
            for j in range(2):
                row = [Fraction(0)] * 4
                for k in range(2):
                    row[i * 2 + k] += m[k][j]
                    row[k * 2 + j] -= m[i][k]
                rows.append(row)
    rank = 0
    for col in range(4):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return 4 - rank


def test_commutant_dimension_examples():
    assert commutant_dimension([Matrix.identity(2)], 2) == 4
    mats = [Matrix([[1, 0], [0, -1]]), Matrix([[0, 1], [1, 0]])]
    assert _brute_commutant_dim_2x2(mats) == 1
    assert commutant_dimension(mats, 2) == 1
    assert commutant_dimension([], 1) == 1


def test_commutant_matches_oracle_randomized():
    rng = random.Random(3)
    for _ in range(25):
        mats = [Matrix([[rng.randrange(-2, 3) for _ in range(2)] for _ in range(2)])
                for _ in range(rng.randrange(1, 3))]
        assert commutant_dimension(mats, 2) == _brute_commutant_dim_2x2(mats)
