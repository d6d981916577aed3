"""Intertwiner layer: phases, coset targeting, witnesses, the forced-zero
coupling, and the residue form of the defining commutation."""

from fractions import Fraction

import pytest

from orbifold_voa import labels as lb
from orbifold_voa.fock import (
    UVector,
    lattice_vector,
    theta,
    tw_vacuum,
    u_term,
)
from orbifold_voa.intertwine import (
    TILDE,
    Y_RS,
    Y_RS_THETA,
    IntertwinerSpec,
    direct_witness,
    first_nonzero_mode,
    forced_zero_coupling,
    intertwiner_mode,
    jacobi_commutator_check,
    phase_apply,
    witness_vectors,
)
from orbifold_voa.ring import RingParams
from orbifold_voa.untwisted import e_vec, omega_vec, support_modes


@pytest.fixture(scope="module", params=(1, 2, 3))
def params(request):
    return RingParams(request.param)


def test_phase_group_law(params):
    v = u_term(params, [1], 1) + lattice_vector(params, 3)
    for r in range(0, 2 * params.k + 2):
        for s in range(0, 2 * params.k + 2):
            assert phase_apply(r, phase_apply(s, v)) == phase_apply(r + s, v)
    assert phase_apply(0, v) == v


def test_phase_theta_equivariance(params):
    v = u_term(params, [2, 1], -2) + lattice_vector(params, 1)
    for r in range(-2, 2 * params.k + 1):
        assert theta(phase_apply(r, theta(v))) == phase_apply(-r, v)


def test_leading_coefficient_carries_phase(params):
    k = params.k
    for r in range(1, 2 * k):
        for s in range(1, 2 * k):
            spec = IntertwinerSpec(Y_RS, r, s)
            u = lattice_vector(params, r)
            v = lattice_vector(params, s)
            m = u.max_weight() + v.max_weight() - 1 - Fraction((r + s) ** 2, 4 * k)
            got = intertwiner_mode(spec, u, m, v)
            assert got == UVector(params, {((), r + s): params.zeta(r * s)})


def test_target_coset(params):
    k = params.k
    spec = IntertwinerSpec(Y_RS, 1, 1)
    spec_t = IntertwinerSpec(Y_RS_THETA, 1, 1)
    u = u_term(params, [1], 1)
    v = u_term(params, [1], 1)
    nonzero = nonzero_t = 0
    for m in support_modes(u, v, 4):
        out = intertwiner_mode(spec, u, m, v)
        assert all((key[1] - 2) % (2 * k) == 0 for key in out.terms)
        nonzero += bool(out)
    for m in support_modes(u, theta(v), 4):
        out_t = intertwiner_mode(spec_t, u, m, v)
        assert all(key[1] % (2 * k) == 0 for key in out_t.terms)
        nonzero_t += bool(out_t)
    assert nonzero > 0 and nonzero_t > 0, (k, nonzero, nonzero_t)


def test_membership_validation(params):
    spec = IntertwinerSpec(Y_RS, 1, 1)
    with pytest.raises(ValueError):
        intertwiner_mode(spec, lattice_vector(params, 2), 0, lattice_vector(params, 1))
    with pytest.raises(ValueError):
        intertwiner_mode(spec, lattice_vector(params, 1), 0, lattice_vector(params, 2))
    with pytest.raises(ValueError):
        intertwiner_mode(spec, lattice_vector(params, 1), 0, tw_vacuum(params))


def test_witness_examples(params):
    k = params.k
    # the identity-type operator is its own witness
    spec0 = IntertwinerSpec(Y_RS, 0, 0)
    one = lattice_vector(params, 0)
    assert first_nonzero_mode(spec0, one, one, 2) is not None
    if k >= 2:
        spec = IntertwinerSpec(Y_RS, 1, 1)
        u = v = lattice_vector(params, 1)
        assert first_nonzero_mode(spec, u, v, 4) is not None


def test_twisted_witness_leading_coefficient():
    params = RingParams(1)
    spec = IntertwinerSpec(TILDE, 1)
    res = first_nonzero_mode(spec, lattice_vector(params, 1), tw_vacuum(params, 1), 2)
    assert res is not None
    m, img = res
    # leading coefficient is 2^(-1/2), landing in the swapped sector
    assert set(key[1] for key in img.terms) == {2}
    coeff = next(iter(img.terms.values()))
    assert coeff == params.two_to(Fraction(-1, 2))


def test_forced_zero_coupling():
    for k in (1, 2, 3):
        assert forced_zero_coupling(RingParams(k)), k


def test_direct_witness_assignment(params):
    k = params.k
    vp, vm = lb.u_plus(), lb.u_minus()
    got = direct_witness(k, (vp, lb.tw(1, +1), lb.tw(1, +1)))
    assert got is not None and got[0].kind == TILDE
    # twisted first label has no direct construction
    assert direct_witness(k, (lb.tw(1, +1), vp, lb.tw(1, +1))) is None
    # an untwisted triple picks the sum or difference coset automatically
    if k >= 2:
        hit = direct_witness(k, (lb.lam(1), lb.lam(1), lb.u_plus()))
        assert hit is not None and hit[0].kind == Y_RS_THETA
        hit2 = direct_witness(k, (lb.lam(1), lb.lam(1), lb.lam(2) if k > 2 else lb.half(+1)))
        assert hit2 is not None and hit2[0].kind == Y_RS


@pytest.mark.parametrize("k", range(1, 7))
def test_nonvanishing_witness_implies_value_one(k):
    """A direct construction whose image, projected onto the target, is
    nonzero witnesses a nonzero fusion rule; at the triples where it would
    land in the wrong twisted sector or eigenspace there must be none."""
    from orbifold_voa.fusion import get_engine

    params = RingParams(k)
    eng = get_engine(k)
    for t in eng.all_triples():
        hit = direct_witness(k, t)
        if hit is None:
            continue
        spec, sign = hit
        u, v = witness_vectors(params, t)
        if first_nonzero_mode(spec, u, v, 6, sign) is not None:
            assert eng.fusion(*t) == 1, (spec.name, [w.code for w in t])


def test_package_exports_both_witness_halves():
    import orbifold_voa

    assert orbifold_voa.direct_witness is direct_witness
    assert orbifold_voa.witness_vectors is witness_vectors
    assert orbifold_voa.first_nonzero_mode is first_nonzero_mode


def test_jacobi_residue_for_conformal_and_lattice_modes():
    for k in (2, 3):
        params = RingParams(k)
        spec = IntertwinerSpec(Y_RS, 1, 1)
        spec_t = IntertwinerSpec(Y_RS_THETA, 1, 1)
        u = lattice_vector(params, 1)
        v = lattice_vector(params, 1)
        om = omega_vec(params)
        E = e_vec(params)
        cases = [(spec, om, n) for n in (0, 1, 2)]
        cases += [(spec, E, n) for n in (k - 1, k)]
        cases += [(spec_t, a, n) for a in (om, E) for n in (0, 1)]
        for sp, a, n in cases:
            ok, nontrivial = jacobi_commutator_check(sp, a, n, u, v, 3)
            assert ok, (k, sp.name, n)
            assert nontrivial > 0, (k, sp.name, n)


def test_eigenprojected_witnesses_match_nonzero_types(params):
    """Restricting to eigenprojected top vectors reproduces the published
    nonzero untwisted types at witness level."""
    from orbifold_voa.fusion import get_engine

    k = params.k
    eng = get_engine(k)
    untwisted = [w for w in lb.all_labels(k) if not w.is_twisted]
    for w1 in untwisted:
        for w2 in untwisted:
            for w3 in untwisted:
                if eng.fusion(w1, w2, w3) != 1:
                    continue
                hit = direct_witness(k, (w1, w2, w3))
                if hit is None:
                    continue
                if k == 1 and lb.u_minus() in (w1, w2):
                    continue  # two-dimensional top level
                spec, sign = hit
                u, v = witness_vectors(params, (w1, w2, w3))
                assert first_nonzero_mode(spec, u, v, 6, sign) is not None, (
                    w1.code,
                    w2.code,
                    w3.code,
                )
