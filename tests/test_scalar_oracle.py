"""Cyclotomic arithmetic against an independent oracle.

The oracle is sympy: a Scalar of order n becomes the polynomial
sum c_i t^(i L/n) over QQ, reduced modulo sympy's own cyclotomic polynomial
Phi_L, where L is a common multiple of every order involved.  The remainder is
unique, so two values are equal exactly when their remainders are.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hopfcqt.errors import DivisionByZero  # noqa: E402
from hopfcqt.scalars import (Scalar, cyclotomic_polynomial, euler_phi,  # noqa: E402
                             format_scalar, lcm, parse_scalar)

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
t = sympy.Symbol("t")

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def scalars(draw):
    n = draw(st.sampled_from(ORDERS))
    return Scalar(n, draw(st.lists(coefficients, min_size=euler_phi(n),
                                   max_size=euler_phi(n))))


def _phi(L):
    return sympy.Poly(sympy.cyclotomic_poly(L, t), t, domain="QQ")


def _oracle(x, L):
    "x as a polynomial over QQ in t = zeta_L, reduced modulo Phi_L."
    step = L // x.order
    expr = sum((sympy.Rational(c.numerator, c.denominator) * t ** (i * step)
                for i, c in enumerate(x.coeffs)), sympy.Integer(0))
    return sympy.Poly(expr, t, domain="QQ").rem(_phi(L))


def _assert_canonical(x):
    assert len(x.coeffs) == euler_phi(x.order)
    for c in x.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    if x.order > 1:
        assert any(x.coeffs[1:]), "a rational value must collapse to order 1"
    if x.is_rational():
        assert type(x.as_rational()) is Fraction
    assert parse_scalar(format_scalar(x)) == x


def test_cyclotomic_polynomials_match_sympy():
    # n = 105 is the first n with a coefficient outside {-1, 0, 1}
    for n in range(1, 121):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi), n
        assert phi == tuple(_phi(n).all_coeffs()[::-1]), n
    assert min(cyclotomic_polynomial(105)) == -2
    assert all(min(cyclotomic_polynomial(n)) >= -1 for n in range(1, 105))


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


@SETTINGS
@given(scalars(), scalars())
def test_ring_operations_match_sympy(a, b):
    L = lcm(a.order, b.order)
    pa, pb = _oracle(a, L), _oracle(b, L)
    for ours, theirs in ((a + b, pa + pb), (a - b, pa - pb), (a * b, pa * pb), (-a, -pa)):
        _assert_canonical(ours)
        assert _oracle(ours, L) == theirs.rem(_phi(L))
    assert (a == b) == (pa == pb)
    assert a == a + 0 and a * 1 == a


@SETTINGS
@given(scalars())
def test_inverse_matches_sympy(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
        return
    inv = a.inverse()
    _assert_canonical(inv)
    L = a.order
    assert _oracle(inv, L) == sympy.invert(_oracle(a, L), _phi(L))
    assert (a * inv).is_one()


@SETTINGS
@given(scalars())
def test_representation_invariant(a):
    _assert_canonical(a)
    _assert_canonical(a * a)
    _assert_canonical(a + a)
