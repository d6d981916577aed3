"""Mutation coverage for the identity checkers: an operator whose image at
one on-grid mode is doubled must make every checker fail, so no checker
can pass by comparing only zeros."""

from fractions import Fraction
from functools import partial

import pytest

from orbifold_voa.fock import (
    TVector,
    UVector,
    coset_basis,
    heis_act,
    lattice_vector,
    theta,
    twisted_basis,
)
from orbifold_voa.intertwine import (
    Y_RS,
    Y_RS_THETA,
    IntertwinerSpec,
    intertwiner_mode,
    target_of,
)
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import conjugation_check, lattice_sector_map, mtheta_mode, tilde_mode
from orbifold_voa.untwisted import (
    commutator_formula_check,
    e_vec,
    omega_vec,
    support_modes,
    vertex_mode,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module", params=(1, 2, 3))
def params(request):
    return RingParams(request.param)


def doubled_at(op, u_star, m_star):
    """`op` with its image of `u_star` at the exponent `m_star` doubled."""

    def perturbed(u, m, v, *args):
        image = op(u, m, v, *args)
        return image * 2 if m == m_star and u == u_star else image

    return perturbed


def deepest_nonzero(op, u, v, depth):
    """The last exponent of `support_modes(u, v, depth)` (the highest
    output weight) at which the image of v is nonzero."""
    return [m for m in support_modes(u, v, depth) if op(u, m, v)][-1]


def twisted_vectors(params, max_weight):
    return [
        TVector(params, {key: 1})
        for sector in (1, 2)
        for key in twisted_basis(params, sector, max_weight)
    ]


def test_commutator_check_catches_a_doubled_mode(params):
    # the oscillator commutators, untwisted and twisted: a = alpha(-1)1
    k = params.k
    alpha = UVector(params, {((1,), 0): 1})
    untwisted_vectors = [UVector(params, {key: 1}) for key in coset_basis(params, 1, 2)]
    cases = [
        (vertex_mode, lattice_vector(params, 2 * k), n, untwisted_vectors, 2 + k)
        for n in (-1, 2)
    ] + [
        (mtheta_mode, lattice_vector(params, r), n, twisted_vectors(params, 1), 3)
        for r in (1, 2 * k)
        for n in (-HALF, Fraction(3, 2))
    ]
    for op, u, n, vectors, depth in cases:
        ok, nontrivial = commutator_formula_check(op, alpha, heis_act, (n,), u, vectors, depth)
        assert ok and nontrivial > 0, (op.__name__, n)
        m_star = deepest_nonzero(op, u, vectors[0], depth)
        mutant = doubled_at(op, u, m_star)
        ok, _ = commutator_formula_check(mutant, alpha, heis_act, (n,), u, vectors, depth)
        assert not ok, (op.__name__, n, m_star)


def test_conjugation_check_catches_a_doubled_mode(params):
    k = params.k
    vectors = twisted_vectors(params, 1)
    cases = (
        (mtheta_mode, lattice_vector(params, 1), None),
        (mtheta_mode, heis_act(-1, lattice_vector(params, 1)), None),
        (tilde_mode, lattice_vector(params, 2 * k), None),
        (tilde_mode, lattice_vector(params, k), lattice_sector_map(1)),
    )
    for op, u, dress in cases:
        ok, nontrivial = conjugation_check(op, u, vectors, 3, dress)
        assert ok and nontrivial > 0, op.__name__
        m_star = deepest_nonzero(op, u, theta(vectors[0]), 3)
        ok, _ = conjugation_check(doubled_at(op, u, m_star), u, vectors, 3, dress)
        assert not ok, (op.__name__, m_star)


def test_jacobi_check_catches_a_doubled_mode(params):
    # the intertwiner residues: a = omega, E acting through vertex_mode
    k = params.k
    u = v = lattice_vector(params, 1)
    om, E = omega_vec(params), e_vec(params)
    cases = (
        (IntertwinerSpec(Y_RS, 1, 1), om, 1),
        (IntertwinerSpec(Y_RS, 1, 1), E, k),
        (IntertwinerSpec(Y_RS_THETA, 1, 1), om, 0),
        (IntertwinerSpec(Y_RS_THETA, 1, 1), E, 1),
    )
    for spec, a, n in cases:
        op, grid = partial(intertwiner_mode, spec), partial(target_of, spec)
        a_on = partial(vertex_mode, a)
        ok, nontrivial = commutator_formula_check(op, a, a_on, (n,), u, (v,), 3, grid)
        assert ok and nontrivial > 0, (spec.name, n)
        m_star = [m for m in support_modes(u, grid(v), 3) if op(u, m, v)][-1]
        mutant = doubled_at(op, u, m_star)
        ok, _ = commutator_formula_check(mutant, a, a_on, (n,), u, (v,), 3, grid)
        assert not ok, (spec.name, n, m_star)
