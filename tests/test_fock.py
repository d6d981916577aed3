"""Graded vectors: oscillator action, the involution, and graded dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifold_voa import labels as lb
from orbifold_voa.fock import (
    UVector,
    graded_dim,
    heis_act,
    label_basis,
    lattice_vector,
    m1_graded_dim,
    partitions_of,
    project_eigen,
    t_term,
    theta,
    top_vector,
    tw_vacuum,
    u_term,
    vacuum,
)
from orbifold_voa.cli import decomp_window
from orbifold_voa.fusion import decompose
from orbifold_voa.ring import RingParams, Scalar

HALF = Fraction(1, 2)


@pytest.fixture(scope="module", params=(1, 2, 3))
def params(request):
    return RingParams(request.param)


def test_oscillator_contractions(params):
    k = params.k
    assert heis_act(1, heis_act(-1, vacuum(params))) == vacuum(params) * (2 * k)
    e_a = lattice_vector(params, 2 * k)
    assert heis_act(0, e_a) == e_a * (2 * k)
    got = heis_act(HALF, heis_act(-HALF, tw_vacuum(params)))
    assert got == tw_vacuum(params) * k


def test_twisted_zero_mode_rejected(params):
    with pytest.raises(ValueError):
        heis_act(0, tw_vacuum(params))
    with pytest.raises(ValueError):
        heis_act(1, tw_vacuum(params))  # integer modes are not half-odd


def test_theta_involution(params):
    k = params.k
    x = heis_act(-1, lattice_vector(params, 2 * k))
    assert theta(x) == u_term(params, [1], -2 * k, -1)
    assert theta(theta(x)) == x
    y = t_term(params, [HALF, Fraction(3, 2)], 1)
    assert theta(y) == y  # even oscillator length, sector fixed


def u_vectors(params):
    parts = st.lists(st.integers(1, 3), max_size=3).map(lambda l: tuple(sorted(l, reverse=True)))
    keys = st.tuples(parts, st.integers(-4, 4))
    coeffs = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4)
    return st.dictionaries(keys, coeffs, min_size=1, max_size=3).map(
        lambda d: UVector(params, d)
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_projection_resolves_identity(params, data):
    v = data.draw(u_vectors(params))
    assert project_eigen(v, +1) + project_eigen(v, -1) == v
    assert project_eigen(project_eigen(v, +1), +1) == project_eigen(v, +1)
    assert project_eigen(project_eigen(v, +1), -1).is_zero()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(-3, 3))
def test_theta_oscillator_commutation(params, data, n):
    """theta alpha(n) = -alpha(n) theta on index-zero terms; index negates
    in general, which the lattice reflection absorbs."""
    v = data.draw(u_vectors(params))
    if n == 0:
        return
    lhs = theta(heis_act(n, v))
    rhs = heis_act(n, theta(v)) * (-1)
    # on terms of index r the two sides differ only through r -> -r, so
    # compare after restricting to the zero coset
    lhs0 = UVector(params, {kk: c for kk, c in lhs.terms.items() if kk[1] == 0})
    rhs0 = UVector(params, {kk: c for kk, c in rhs.terms.items() if kk[1] == 0})
    assert lhs0 == rhs0


def test_weight_additivity(params):
    v = u_term(params, [2, 1], 1)
    w0 = v.max_weight()
    assert heis_act(-3, v).max_weight() == w0 + 3
    assert heis_act(1, v).max_weight() == w0 - 1
    tv = t_term(params, [Fraction(3, 2)], 2)
    assert heis_act(-HALF, tv).max_weight() == tv.max_weight() + HALF


def test_projection_kills_wrong_parity(params):
    assert project_eigen(vacuum(params), -1).is_zero()
    x = u_term(params, [1], 0)  # odd length at index zero
    assert project_eigen(x, +1).is_zero()


def test_graded_dim_examples(params):
    k = params.k
    assert graded_dim(params, lb.u_plus(), Fraction(0)) == 1
    assert graded_dim(params, lb.tw(1, +1), Fraction(1, 16)) == 1
    assert graded_dim(params, lb.tw(1, -1), Fraction(9, 16)) == 1
    if k >= 2:
        # the single vector a(-1)e[0]
        assert graded_dim(params, lb.u_minus(), Fraction(1)) == 1
    else:
        # k=1 exception: the lattice pair enters at weight 1 as well
        assert graded_dim(params, lb.u_minus(), Fraction(1)) == 2


def test_graded_dim_by_brute_force_enumeration(params):
    """Counting route vs explicit basis construction."""
    k = params.k
    for label in lb.all_labels(k):
        top = lb.top_weight(label, k)
        basis = label_basis(params, label, top + 3)
        by_weight: dict[Fraction, int] = {}
        for v in basis:
            (w,) = v.weights()
            by_weight[w] = by_weight.get(w, 0) + 1
        for j in range(0, 7):
            w = top + Fraction(j, 2)
            assert graded_dim(params, label, w) == by_weight.get(w, 0), (label.code, w)


def test_label_validation(params):
    with pytest.raises(ValueError):
        graded_dim(params, lb.lam(params.k), Fraction(1))


def test_decomposition_characters(params):
    k = params.k
    for label in lb.all_labels(k):
        top = lb.top_weight(label, k)
        for j in range(0, 2 * 10 + 1):
            w = top + Fraction(j, 2)
            lhs = graded_dim(params, label, w)
            rhs = sum(
                m1_graded_dim(params, m1, w)
                for m1, _ in decompose(label, k, window=2 * k * (int(w) + 1) + 2)
            )
            assert lhs == rhs, (label.code, w, lhs, rhs)


def test_weight_sized_window_keeps_every_reaching_constituent():
    """`decomp_window(k, w)` lists every constituent that the wide window
    2k(int(w)+1)+2 counts at weight w, for every label at k=1..10."""
    multi = 0
    for k in range(1, 11):
        params = RingParams(k)
        for label in lb.all_labels(k):
            top = lb.top_weight(label, k)
            for j in range(0, 2 * 4 + 1):
                w = top + Fraction(j, 2)
                wide = [
                    m1_graded_dim(params, m1, w)
                    for m1, _ in decompose(label, k, window=2 * k * (int(w) + 1) + 2)
                ]
                sized = [
                    m1_graded_dim(params, m1, w)
                    for m1, _ in decompose(label, k, window=decomp_window(k, w))
                ]
                assert sum(sized) == sum(wide), (k, label.code, w)
                if sum(sized) and sum(1 for d in sized if d) >= 2:
                    multi += 1
    assert multi > 0


def test_partition_enumeration():
    assert list(partitions_of(0)) == [()]
    assert sorted(partitions_of(4)) == sorted(
        [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    )


def test_top_vectors(params):
    k = params.k
    assert top_vector(params, lb.u_plus()) == vacuum(params)
    assert top_vector(params, lb.lam(1) if k > 1 else lb.half(+1)) is not None
    va_minus = top_vector(params, lb.half(-1))
    assert va_minus == lattice_vector(params, k) - lattice_vector(params, -k)
    if k == 1:
        with pytest.raises(ValueError):
            top_vector(params, lb.u_minus())


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_scalar_product_matches_the_filtered_constructor(k):
    """v * c and c * v equal the vector built through the constructor,
    which coerces and zero-tests every product, and hold no zero Scalar,
    for int, Fraction and cyclotomic factors, zero included."""
    params = RingParams(k)
    zeta = params.zeta(1)
    vectors = (
        lattice_vector(params, 1) * zeta
        + u_term(params, [2, 1], -1, Fraction(-2, 3))
        + u_term(params, [1], 2 * k, params.two_to(Fraction(1, 2 * k))),
        t_term(params, [HALF], 1, params.zeta(3)) + tw_vacuum(params, 2, Fraction(1, 4)),
        UVector(params, {}),
    )
    factors = (
        0, 1, -3, Fraction(0), Fraction(-2, 3),
        params.zero(), zeta - zeta, params.rational(Fraction(5, 7)),
        zeta, zeta * params.two_to(Fraction(1, 2 * k)) + params.rational(2),
    )
    nonzero = 0
    for v in vectors:
        for c in factors:
            want = type(v)(params, {key: x * c for key, x in v.terms.items()})
            for got in (v * c, c * v):
                assert got == want, (v, c)
                assert all(isinstance(x, Scalar) and not x.is_zero() for x in got.terms.values())
                assert got.terms is not v.terms
            nonzero += bool(want)
    assert nonzero > 0
