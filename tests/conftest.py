"""Fixtures shared across the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture(scope="session")
def delta_series_oracle():
    """{(m, n): c[m][n]} for m + n <= 8: the coefficients of
    -log(((1+x)^(1/2) + (1+y)^(1/2))/2) from sympy, an oracle independent
    of the closed form in `twisted.delta_coeff`.  With x = a*t and y = b*t
    one series in t to order 9 holds every c[m][n] as the a^m b^n
    coefficient of its t^(m+n) term.  The series costs a second or two, so
    it is built once per session; skips without sympy."""
    sympy = pytest.importorskip("sympy")
    a, b, t = sympy.symbols("a b t")
    half = sympy.Rational(1, 2)
    expr = -sympy.log(((1 + a * t) ** half + (1 + b * t) ** half) / 2)
    order = 9
    poly = sympy.Poly(sympy.series(expr, t, 0, order).removeO(), a, b, t)
    oracle = {}
    for m in range(order):
        for n in range(order - m):
            q = sympy.Rational(poly.coeff_monomial(a**m * b**n * t ** (m + n)))
            oracle[(m, n)] = Fraction(int(q.p), int(q.q))
    return oracle
