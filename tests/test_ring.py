"""Exactness and faithfulness of the coefficient ring."""

import cmath
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold_voa.ring import (
    RingMismatchError,
    RingParams,
    RingPrecisionError,
    cyclotomic_poly,
)

KS = (1, 2, 3, 4, 6)


@pytest.fixture(scope="module", params=KS)
def params(request):
    return RingParams(request.param)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16, 20, 24])
def test_cyclotomic_matches_sympy(n):
    x = sympy.symbols("x")
    want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
    assert list(cyclotomic_poly(n)) == [int(c) for c in want]


def scalars(params, max_terms=4):
    keys = st.tuples(
        st.integers(min_value=0, max_value=params.degree - 1),
        st.integers(min_value=0, max_value=params.t_degree - 1),
    )
    coeffs = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
    )
    return st.dictionaries(keys, coeffs, max_size=max_terms).map(params.scalar)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ring_axioms(params, data):
    x = data.draw(scalars(params))
    y = data.draw(scalars(params))
    z = data.draw(scalars(params))
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + params.zero() == x
    assert x * params.rational(1) == x
    assert (x - x).is_zero()


def _eval_interval(params, x, prec=120):
    """Rigorous interval evaluation with zeta and t sent to their values."""
    with mpmath.workprec(prec):
        iv = mpmath.iv
        iv.prec = prec
        pi = iv.pi
        two = iv.mpf(2)
        k = params.k
        zeta_re = iv.cos(pi / (2 * k))
        zeta_im = iv.sin(pi / (2 * k))
        t_val = two ** (iv.mpf(1) / (2 * k))
        total_re = iv.mpf(0)
        total_im = iv.mpf(0)
        for (a, b), c in x.terms.items():
            cr = iv.mpf(c.numerator) / iv.mpf(c.denominator)
            # zeta^a by repeated interval multiplication
            re, im = iv.mpf(1), iv.mpf(0)
            for _ in range(a):
                re, im = re * zeta_re - im * zeta_im, re * zeta_im + im * zeta_re
            tb = t_val**b
            total_re += cr * re * tb
            total_im += cr * im * tb
        return total_re, total_im


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_zero_test_is_faithful(params, data):
    """Canonical form zero iff a certified interval evaluation contains 0."""
    x = data.draw(scalars(params))
    y = data.draw(scalars(params))
    w = x * y + x - y
    re, im = _eval_interval(params, w)
    contains_zero = (0 in re) and (0 in im)
    if w.is_zero():
        assert contains_zero
    else:
        assert not contains_zero, f"nonzero canonical form {w} straddles zero"


def test_zeta_homomorphism(params):
    n = params.n_roots
    for a in range(-n, 2 * n, 3):
        for b in range(-n, 2 * n, 5):
            assert params.zeta(a) * params.zeta(b) == params.zeta(a + b)
    assert params.zeta(0) == params.rational(1)
    assert params.zeta(4 * params.k) == params.rational(1)
    assert params.zeta(2 * params.k) == params.rational(-1)


def test_two_pow_homomorphism(params):
    k = params.k
    qs = [Fraction(i, 2 * k) for i in range(-3, 4)] + [Fraction(2), Fraction(-1)]
    for p in qs:
        for q in qs:
            assert params.two_to(p) * params.two_to(q) == params.two_to(p + q)
    assert params.two_to(Fraction(-2 * k)) == params.rational(Fraction(1, 4**k))


def test_two_pow_rejects_foreign_denominator(params):
    with pytest.raises(RingPrecisionError):
        params.two_to(Fraction(1, 4 * params.k))


def test_t_relation(params):
    k = params.k
    t = params.two_to(Fraction(1, 2 * k))
    acc = params.rational(1)
    for _ in range(2 * k):
        acc = acc * t
    assert acc == params.rational(2)
    if k % 2 == 0:
        # sqrt(2) is cyclotomic for even k and t^k must hit it exactly
        sqrt2 = params.zeta(k // 2) + params.zeta(-(k // 2))
        assert params.two_to(Fraction(1, 2)) == sqrt2


def test_examples_from_contract():
    p1 = RingParams(1)
    assert p1.rational(Fraction(1, 2)) + p1.rational(Fraction(1, 2)) == p1.rational(1)
    assert (p1.zeta(1) + (-p1.zeta(1))).is_zero()
    t = p1.two_to(Fraction(1, 2))
    assert t + t == t * 2
    # k=2: t^2 equals the cyclotomic sqrt(2) and squares to 2
    p2 = RingParams(2)
    tsq = p2.two_to(Fraction(1, 2))
    assert tsq * tsq == p2.rational(2)
    # and it is the positive root: sum c zeta^a t^b in floats, zeta = e^(i pi/2k), t = 2^(1/2k)
    value = sum(
        float(c) * cmath.exp(1j * cmath.pi * a / 4) * 2.0 ** (b / 4) for (a, b), c in tsq.terms.items()
    )
    assert abs(value - 2**0.5) < 1e-12
    # zero test
    assert (p1.zeta(2) + p1.rational(1)).is_zero()  # zeta^(2k) = -1 at k=1
    assert not (t - p1.rational(1)).is_zero()


def test_mismatched_params_rejected():
    a = RingParams(1).rational(1)
    b = RingParams(2).rational(1)
    with pytest.raises(RingMismatchError):
        _ = a + b
    with pytest.raises(RingMismatchError):
        _ = a * b


def test_serialization_deterministic(params):
    x = params.zeta(1) * 3 + params.two_to(Fraction(1, 2 * params.k)) * Fraction(-1, 2)
    assert str(x) == str(params.scalar(dict(x.terms)))
    assert str(params.zero()) == "0"
    one = str(params.rational(1))
    assert one == "(1)*zeta^0*t^0"


RINGS = {k: RingParams(k) for k in range(1, 7)}


def _basis_product(x, y):
    """x * y summed over every pair of basis monomials through `_mul_basis`,
    the general product, whatever the operands are."""
    params = x.params
    out = {}
    for (a1, b1), c1 in x.terms.items():
        for (a2, b2), c2 in y.terms.items():
            for a, b, c in params._mul_basis(a1, b1, a2, b2):
                out[(a, b)] = out.get((a, b), 0) + c1 * c2 * c
    return params.scalar(out)


@settings(max_examples=120, deadline=None)
@given(k=st.integers(min_value=1, max_value=6), data=st.data())
def test_rational_fast_path_equals_the_basis_product(k, data):
    """A product with a rational, one or zero operand, on either side, skips
    the basis products; it must still equal them and hold no zero."""
    params = RINGS[k]
    x = data.draw(scalars(params))
    c = data.draw(
        st.sampled_from((Fraction(0), Fraction(1)))
        | st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7)
    )
    y = params.rational(c)
    want = _basis_product(x, y)
    products = [x * y, y * x, x * c, c * x]
    if c.denominator == 1:
        products += [x * int(c), int(c) * x]
    for got in products:
        assert got == want
        assert all(got.terms.values())
        assert got.terms is not x.terms
    zero = params.zero()
    assert x + zero == x
    assert zero + x == x
