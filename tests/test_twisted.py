"""Twisted layer: correction coefficients against an independent oracle,
the corrected operator's top-level actions, sector maps, commutators."""

from fractions import Fraction

import pytest

from orbifold_voa.fock import (
    TVector,
    heis_act,
    lattice_vector,
    t_term,
    tw_vacuum,
    twisted_basis,
    u_term,
    vacuum,
)
from orbifold_voa.ring import RingParams
from orbifold_voa.twisted import (
    PsiMap,
    conjugation_check,
    delta_apply,
    delta_coeff,
    delta_table,
    lattice_sector_map,
    mtheta_mode,
    psi_map,
    tilde_mode,
    twisted_mode,
)
from orbifold_voa.untwisted import commutator_formula_check, e_vec, j_vec, omega_vec, support_modes

HALF = Fraction(1, 2)

# frozen from the bivariate Taylor expansion of the generating function,
# computed with an independent symbolic engine
ORACLE_DELTA = {
    (0, 0): Fraction(0),
    (0, 1): Fraction(-1, 4),
    (0, 2): Fraction(3, 32),
    (0, 3): Fraction(-5, 96),
    (0, 4): Fraction(35, 1024),
    (0, 5): Fraction(-63, 2560),
    (0, 6): Fraction(77, 4096),
    (0, 7): Fraction(-429, 28672),
    (0, 8): Fraction(6435, 524288),
    (1, 1): Fraction(1, 16),
    (1, 2): Fraction(-1, 32),
    (1, 3): Fraction(5, 256),
    (1, 4): Fraction(-7, 512),
    (1, 5): Fraction(21, 2048),
    (1, 6): Fraction(-33, 4096),
    (1, 7): Fraction(429, 65536),
    (2, 2): Fraction(9, 512),
    (2, 3): Fraction(-3, 256),
    (2, 4): Fraction(35, 4096),
    (2, 5): Fraction(-27, 4096),
    (2, 6): Fraction(693, 131072),
    (3, 3): Fraction(25, 3072),
    (3, 4): Fraction(-25, 4096),
    (3, 5): Fraction(315, 65536),
    (4, 4): Fraction(1225, 262144),
}


def test_delta_against_frozen_oracle():
    for (m, n), c in ORACLE_DELTA.items():
        assert delta_coeff(m, n) == c, (m, n)
        assert delta_coeff(n, m) == c, (n, m)


def test_delta_against_live_symbolic_oracle(delta_series_oracle):
    assert len(delta_series_oracle) == 45  # every m + n <= 8
    for (m, n), want in delta_series_oracle.items():
        assert delta_coeff(m, n) == want, (m, n)


def test_delta_table_symmetry():
    tab = delta_table(8)
    for (m, n), c in tab.items():
        assert tab[(n, m)] == c


@pytest.fixture(scope="module", params=(1, 2, 3))
def params(request):
    return RingParams(request.param)


def test_delta_apply_examples(params):
    k = params.k
    e_a = lattice_vector(params, 2 * k)
    assert delta_apply(e_a) == {0: e_a}
    assert delta_apply(vacuum(params)) == {0: vacuum(params)}
    x = u_term(params, [1, 1], 0)
    out = delta_apply(x)
    expected = vacuum(params) * (Fraction(1, 16) / (2 * k) * 2 * (2 * k) ** 2)
    assert out[2] == expected
    assert out[0] == x


def test_twisted_top_level_actions(params):
    """The full twisted rows of the generator-action table, recomputed."""
    k = params.k
    om, J, E = omega_vec(params), j_vec(params), e_vec(params)
    e_unit = Fraction(2, 2 ** (2 * k))
    for sector, sign in ((1, 1), (2, -1)):
        plus = tw_vacuum(params, sector)
        minus = t_term(params, [HALF], sector)
        assert twisted_mode(om, 1, plus) == plus * Fraction(1, 16)
        assert twisted_mode(om, 1, minus) == minus * Fraction(9, 16)
        assert twisted_mode(J, 3, plus) == plus * Fraction(3, 128)
        assert twisted_mode(J, 3, minus) == minus * Fraction(-45, 128)
        assert twisted_mode(E, k - 1, plus) == plus * (sign * e_unit)
        assert twisted_mode(E, k - 1, minus) == minus * (-sign * e_unit * (4 * k - 1))


def test_twisted_mode_rejects_dual_lattice(params):
    if params.k == 1:
        return
    u = lattice_vector(params, 1)
    with pytest.raises(ValueError):
        twisted_mode(u, 0, tw_vacuum(params))


def test_twisted_weight_bookkeeping(params):
    k = params.k
    u = lattice_vector(params, 1)
    v = t_term(params, [HALF], 1)
    nonzero = 0
    for m in support_modes(u, v, 3):
        got = tilde_mode(u, m, v)
        for key in got.terms:
            assert got.key_weight(key) == u.max_weight() + v.max_weight() - m - 1
        nonzero += bool(got)
    assert nonzero > 0, k


def test_psi_relations(params):
    k = params.k
    for b in range(-3, 4):
        eb = lattice_sector_map(b)
        for r in range(-6 * k, 6 * k + 1):
            ps = psi_map(params, r)
            sign = -1 if (b * r) % 2 else 1
            assert eb.compose(ps) == ps.compose(eb).scale(sign)
            assert eb.compose(ps) == psi_map(params, r + 2 * k * b)
    for m in range(-3, 4):
        assert psi_map(params, -2 * k * m) == psi_map(params, 2 * k * m)
        assert psi_map(params, -(k + 2 * k * m)) == lattice_sector_map(-1).compose(
            psi_map(params, k + 2 * k * m)
        )
    assert psi_map(params, 0) == PsiMap(((1, 0), (0, 1)))
    assert psi_map(params, 2 * k) == PsiMap(((1, 0), (0, -1)))


def test_psi_swaps_sectors_on_odd_index(params):
    v = tw_vacuum(params, 1)
    out = psi_map(params, 1).apply(v)
    assert set(key[1] for key in out.terms) == {2}


def _twisted_vectors(params, sectors, max_weight):
    return [
        TVector(params, {key: 1})
        for sector in sectors
        for key in twisted_basis(params, sector, max_weight)
    ]


def test_twisted_commutators(params):
    k = params.k
    vectors = _twisted_vectors(params, (1,), Fraction(3, 2))
    alpha = u_term(params, [1], 0)
    for r in sorted({1, k, 2 * k}):
        u = lattice_vector(params, r)
        for mp in (-Fraction(3, 2), -HALF, HALF, Fraction(3, 2)):
            ok, nontrivial = commutator_formula_check(mtheta_mode, alpha, heis_act, (mp,), u, vectors, 4)
            assert ok, (k, r, mp)
            assert nontrivial > 0, (k, r, mp)


def test_theta_conjugation_oscillator_part(params):
    vectors = _twisted_vectors(params, (1,), Fraction(3, 2))
    for u in (lattice_vector(params, 1), heis_act(-1, lattice_vector(params, 1))):
        ok, nontrivial = conjugation_check(mtheta_mode, u, vectors, 4)
        assert ok, params.k
        assert nontrivial > 0, params.k


def test_theta_conjugation_with_sector_maps(params):
    """Conjugation identities of the sector-dressed operator: plain for
    lattice support, dressed by the inverse lattice character on the
    half-shift coset."""
    k = params.k
    cases = [
        (lattice_vector(params, 2 * k), None),
        (lattice_vector(params, k), lattice_sector_map(1)),
    ]
    vectors = _twisted_vectors(params, (1, 2), HALF)
    for u, dress in cases:
        ok, nontrivial = conjugation_check(tilde_mode, u, vectors, 3, dress)
        assert ok, k
        assert nontrivial > 0, k
