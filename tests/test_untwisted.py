"""The untwisted mode engine: axioms, weight bookkeeping, distinguished
vectors, and the published mode identities recomputed from scratch."""

from fractions import Fraction

import pytest

from orbifold_voa import untwisted
from orbifold_voa.fock import UVector, coset_basis, heis_act, lattice_vector, u_term, vacuum
from orbifold_voa.ring import RingParams
from orbifold_voa.untwisted import (
    commutator_formula_check,
    e_vec,
    f_vec,
    j_vec,
    omega_vec,
    p_coeff_apply,
    support_modes,
    vertex_mode,
)


@pytest.fixture(scope="module", params=(1, 2, 3, 4))
def params(request):
    return RingParams(request.param)


def test_identity_operator(params):
    v = u_term(params, [2, 1], 3)
    assert vertex_mode(vacuum(params), -1, v) == v
    for m in (-3, -2, 0, 1):
        assert vertex_mode(vacuum(params), m, v).is_zero()


def test_grading_mode(params):
    k = params.k
    om = omega_vec(params)
    for r in range(0, 2 * k + 1):
        e_r = lattice_vector(params, r)
        assert vertex_mode(om, 1, e_r) == e_r * Fraction(r * r, 4 * k)
        x = heis_act(-2, e_r)
        assert vertex_mode(om, 1, x) == x * (Fraction(r * r, 4 * k) + 2)


def test_translation_mode(params):
    k = params.k
    om = omega_vec(params)
    assert vertex_mode(om, 0, vacuum(params)).is_zero()
    got = vertex_mode(om, 0, lattice_vector(params, 1))
    assert got == u_term(params, [1], 1, Fraction(1, 2 * k))
    assert vertex_mode(om, -1, vacuum(params)) == om


def test_translation_derivative_property(params):
    """Modes of the operator of L(-1)u are the z-derivative modes: the
    coefficient at exponent m picks up the factor -(m+1) after the shift."""
    om = omega_vec(params)
    v = lattice_vector(params, 1)
    for u in (lattice_vector(params, 1), u_term(params, [1], 0)):
        lu = vertex_mode(om, 0, u)  # L(-1) u
        nonzero = 0
        for m in support_modes(lu, v, 4):
            lhs = vertex_mode(lu, m, v)
            rhs = vertex_mode(u, m - 1, v) * (-(m))
            # d/dz sum u_m z^(-m-1) = sum (-m-1) u_m z^(-m-2): the mode at
            # exponent m of the derivative is -(m) times the mode at m-1
            assert lhs == rhs, (params.k, m)
            nonzero += bool(lhs)
        assert nonzero > 0, (params.k, u)


def test_exponent_support(params):
    k = params.k
    u = lattice_vector(params, 1)
    v = lattice_vector(params, 1)
    on_grid = -Fraction(1, 2 * k) - 1
    assert not vertex_mode(u, on_grid, v).is_zero()
    for off in (on_grid + Fraction(1, 4 * k + 1), on_grid + Fraction(1, 2)):
        if (off + Fraction(1, 2 * k)).denominator != 1:
            assert vertex_mode(u, off, v).is_zero()


def test_weight_bookkeeping(params):
    k = params.k
    u = u_term(params, [2], 1)
    v = u_term(params, [1], 1)
    nonzero = 0
    for m in support_modes(u, v, 5):
        got = vertex_mode(u, m, v)
        for key in got.terms:
            assert got.key_weight(key) == u.max_weight() + v.max_weight() - m - 1
        nonzero += bool(got)
    assert nonzero > 0, k


def test_distinguished_vectors_theta_parity(params):
    from orbifold_voa.fock import theta

    assert theta(omega_vec(params)) == omega_vec(params)
    assert theta(j_vec(params)) == j_vec(params)
    assert theta(e_vec(params)) == e_vec(params)
    assert theta(f_vec(params)) == f_vec(params) * (-1)
    assert omega_vec(params).max_weight() == 2
    assert j_vec(params).max_weight() == 4
    assert e_vec(params).max_weight() == params.k


def test_symmetric_mode_fixes_half_lattice_top(params):
    k = params.k
    E = e_vec(params)
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)
    assert vertex_mode(E, k - 1, v0) == v0
    v1 = lattice_vector(params, k) - lattice_vector(params, -k)
    assert vertex_mode(E, k - 1, v1) == v1 * (-1)


def test_oscillator_transfer_identity(params):
    k = params.k
    E = e_vec(params)
    w = heis_act(-1, lattice_vector(params, k)) - heis_act(-1, lattice_vector(params, -k))
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)
    assert vertex_mode(E, k, w) == v0 * (2 * k)


def test_zero_mode_creation_series(params):
    k = params.k
    E = e_vec(params)
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)
    lhs = vertex_mode(E, 0, v0)
    rhs = p_coeff_apply(params, +1, k - 1, lattice_vector(params, k)) + p_coeff_apply(
        params, -1, k - 1, lattice_vector(params, -k)
    )
    assert lhs == rhs


def test_p_coeff_basics(params):
    v = lattice_vector(params, 1)
    assert p_coeff_apply(params, +1, 0, v) == v
    assert p_coeff_apply(params, +1, 1, v) == heis_act(-1, v)
    assert p_coeff_apply(params, -1, 1, v) == heis_act(-1, v) * (-1)


def _creation_series_reference(params, sign, n, v):
    """E_n v for E(x) = exp(sign * sum_q alpha(-q) x^q / q), by the
    recurrence n E_n = sign * sum_{q=1}^n alpha(-q) E_{n-q}."""
    series = [v]
    for j in range(1, n + 1):
        acc = UVector(params, {})
        for q in range(1, j + 1):
            acc = acc + heis_act(-q, series[j - q])
        series.append(acc * Fraction(sign, j))
    return series[n]


def test_p_coeff_matches_creation_series_recurrence(params):
    k = params.k
    v = (
        lattice_vector(params, k) * 3
        + u_term(params, [2, 1, 1], -1, Fraction(-1, 2))
        + u_term(params, [1], 1, params.zeta(1))
    )
    for sign in (+1, -1):
        for n in range(0, 13):
            got = p_coeff_apply(params, sign, n, v)
            assert got == _creation_series_reference(params, sign, n, v), (sign, n)
            assert got, (sign, n)



def test_p_coeff_calls_no_mode_kernel(monkeypatch):
    """The creation-series oracle stays a second route: with the kernel's
    creation stage, skeleton and driver made to raise, it returns the same
    vectors."""
    params = RingParams(3)
    v = lattice_vector(params, 3) + u_term(params, [2, 1], -1, Fraction(-1, 2))
    cases = [(sign, n) for sign in (+1, -1) for n in range(0, 9)]
    want = [p_coeff_apply(params, sign, n, v) for sign, n in cases]
    params.memo.clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the creation-series oracle called the mode kernel")

    for name in ("_creation_table", "_skeleton", "term_pair_images"):
        monkeypatch.setattr(untwisted, name, refuse)
    assert [p_coeff_apply(params, sign, n, v) for sign, n in cases] == want
    assert all(want[1:])


def test_p_coeff_rows_are_built_once_per_ring():
    """Both signs at one degree read one ("pcoeff", n) entry of the ring
    memo."""
    params = RingParams(2)
    v = lattice_vector(params, 2)
    plus = p_coeff_apply(params, +1, 5, v)
    rows = params.memo[("pcoeff", 5)]
    minus = p_coeff_apply(params, -1, 5, v)
    assert [key for key in params.memo if key[0] == "pcoeff"] == [("pcoeff", 5)]
    assert params.memo[("pcoeff", 5)] is rows
    assert plus and minus and plus != minus

def test_commutator_with_lattice_operator():
    for k in (1, 2):
        params = RingParams(k)
        u = lattice_vector(params, 2 * k)
        alpha = u_term(params, [1], 0)
        cutoff = 4 if k == 1 else 3
        for coset in (0, 1):
            vectors = [UVector(params, {key: 1}) for key in coset_basis(params, coset, cutoff)]
            for m in (-2, -1, 0, 1, 2):
                ok, nontrivial = commutator_formula_check(
                    vertex_mode, alpha, heis_act, (m,), u, vectors, cutoff + k
                )
                assert ok, (k, coset, m)
                assert nontrivial > 0, (k, coset, m)
    # the identity operator commutes outright
    params = RingParams(1)
    v = u_term(params, [1], 0)
    for m in (-1, 1):
        lhs = heis_act(m, vertex_mode(vacuum(params), -1, v))
        rhs = vertex_mode(vacuum(params), -1, heis_act(m, v))
        assert lhs == rhs


def test_antisymmetric_transfer_of_oscillator_zero_mode(params):
    """The zero mode of the degree-one oscillator state against the
    symmetric lattice vector lands on the antisymmetric one."""
    k = params.k
    E = e_vec(params)
    a1 = u_term(params, [1], 0)
    assert vertex_mode(E, 0, a1) == f_vec(params) * (-2 * k)
    for i in range(1, k + 1):
        assert vertex_mode(E, i, a1).is_zero()
