"""Fixtures shared across the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture(scope="session")
def delta_series_oracle():
    """{(m, n): c[m][n]} for m + n <= 8: the coefficients of
    -log(((1+x)^(1/2) + (1+y)^(1/2))/2) from sympy's series at order 9,
    an oracle independent of `twisted.delta_table`.  The series costs
    seconds, so it is built once per session; skips without sympy."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    expr = -sympy.log(
        ((1 + x) ** sympy.Rational(1, 2) + (1 + y) ** sympy.Rational(1, 2)) / 2
    )
    order = 9
    px = sympy.series(expr, x, 0, order).removeO().expand()
    oracle = {}
    for m in range(order):
        py = sympy.series(px.coeff(x, m), y, 0, order - m).removeO().expand()
        for n in range(order - m):
            q = sympy.Rational(sympy.nsimplify(py.coeff(y, n)))
            oracle[(m, n)] = Fraction(int(q.p), int(q.q))
    return oracle
