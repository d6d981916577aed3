"""Intertwiner layer: phases, coset targeting, witnesses, the forced-zero
coupling, and the residue form of the defining commutation."""

from fractions import Fraction
from functools import partial

import pytest

from orbifold_voa import labels as lb
from orbifold_voa import untwisted
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
    phase_apply,
    target_of,
    witness_vectors,
)
from orbifold_voa.ring import RingParams
from orbifold_voa.untwisted import commutator_formula_check, e_vec, omega_vec, support_modes, vertex_mode


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


@pytest.mark.parametrize("kind", ("tilde_Y_theta", "Y_RS", "tilde_y", ""))
def test_spec_refuses_an_unknown_kind(kind):
    # theta acts on each twisted eigenmodule as +-1, so there is no
    # theta-composed twisted kind
    with pytest.raises(ValueError, match="unknown intertwiner kind"):
        IntertwinerSpec(kind, 1)


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
            mode, grid = partial(intertwiner_mode, sp), partial(target_of, sp)
            a_on = partial(vertex_mode, a)
            ok, nontrivial = commutator_formula_check(mode, a, a_on, (n,), u, (v,), 3, grid)
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


# -- the planned target: checked, theta-composed and phase-twisted once per plan ---


def composed_intertwiner_mode(spec: IntertwinerSpec, u: UVector, m, v: UVector) -> UVector:
    """The untwisted intertwiners as the vertex operator on the target of v
    made afresh at every mode: the composition the package ran before the
    mode driver planned the target, kept as the reference."""
    return vertex_mode(u, m, phase_apply(spec.r, target_of(spec, v)))


def _reference_inputs(params: RingParams, r: int, s: int) -> tuple:
    """u with three terms in the coset r mod 2k, and two v in the coset s:
    one with several terms, one whose coefficient is not rational."""
    two_k = 2 * params.k
    u = (
        lattice_vector(params, r)
        + u_term(params, [1], r + two_k, Fraction(-2, 3))
        + u_term(params, [2], r, params.zeta(1))
    )
    several = (
        lattice_vector(params, s)
        + u_term(params, [2, 1], s, Fraction(1, 3))
        + u_term(params, [1], s - two_k, -2)
    )
    irrational = u_term(params, [1, 1], s, params.zeta(1) + params.two_to(Fraction(1, two_k)))
    return u, (several, irrational)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_untwisted_intertwiners_match_the_composed_reference(k):
    """Y_rs and Y_rs∘theta equal `composed_intertwiner_mode` at every mode
    of their support grid: each sweep runs whole on its own plan before the
    reference, whose vertex_mode calls replace that plan, is swept."""
    params = RingParams(k)
    two_k = 2 * k
    nonzero = {Y_RS: 0, Y_RS_THETA: 0}
    for r, s in ((1, 1), (k, 1 - k), (0, k), (k + 1, 2)):
        u, vs = _reference_inputs(params, r, s)
        for kind in (Y_RS, Y_RS_THETA):
            spec = IntertwinerSpec(kind, r % two_k, s % two_k)
            for v in vs:
                modes = support_modes(u, target_of(spec, v), 3)
                got = [intertwiner_mode(spec, u, m, v) for m in modes]
                want = [composed_intertwiner_mode(spec, u, m, v) for m in modes]
                assert got == want, (spec.name, r, s)
                nonzero[kind] += sum(map(bool, got))
    assert min(nonzero.values()) > 0, nonzero


def _counted_plans(monkeypatch) -> list:
    """The target v of every plan the mode driver builds from here on."""
    plans = []

    def counted(params, u, v, *args, _plan=untwisted._plan):
        plans.append(v)
        return _plan(params, u, v, *args)

    monkeypatch.setattr(untwisted, "_plan", counted)
    return plans


def test_a_theta_composed_sweep_builds_one_plan(monkeypatch):
    params = RingParams(2)
    spec = IntertwinerSpec(Y_RS_THETA, 1, 3)
    u, (v, _irrational) = _reference_inputs(params, 1, 3)
    modes = support_modes(u, theta(v), 4)
    assert len(modes) > 1
    plans = _counted_plans(monkeypatch)
    images = [intertwiner_mode(spec, u, m, v) for m in modes]
    assert plans == [phase_apply(1, theta(v))]
    monkeypatch.undo()
    assert images == [composed_intertwiner_mode(spec, u, m, v) for m in modes]
    assert any(images)


def test_each_kind_plans_its_own_target(monkeypatch):
    """Y_rs then Y_rs∘theta on the same (u, v) at one mode build two plans,
    and the second call returns the theta-composed image, not the image
    the first plan would give."""
    params = RingParams(2)
    # r * s / k is whole, so v and theta(v) put u on one grid
    u, v = lattice_vector(params, 2), lattice_vector(params, 1) + u_term(params, [1], -3, 2)
    plain, composed = IntertwinerSpec(Y_RS, 2, 1), IntertwinerSpec(Y_RS_THETA, 2, 1)
    m = next(
        m
        for m in support_modes(u, v, 4)
        if composed_intertwiner_mode(composed, u, m, v) and composed_intertwiner_mode(plain, u, m, v)
    )
    params.memo.clear()
    plans = _counted_plans(monkeypatch)
    first = intertwiner_mode(plain, u, m, v)
    second = intertwiner_mode(composed, u, m, v)
    assert plans == [phase_apply(2, v), phase_apply(2, theta(v))]
    monkeypatch.undo()
    assert first == composed_intertwiner_mode(plain, u, m, v)
    assert second == composed_intertwiner_mode(composed, u, m, v)
    assert first != second


def test_a_planned_vector_is_checked_again_under_another_spec():
    """A v planned under one spec is refused under a spec whose coset it is
    not in, on the very next call."""
    params = RingParams(3)
    u, v = lattice_vector(params, 1), lattice_vector(params, 2) + u_term(params, [1], -4)
    fits = IntertwinerSpec(Y_RS, 1, 2)
    modes = support_modes(u, v, 2)
    assert any([intertwiner_mode(fits, u, m, v) for m in modes])
    for kind in (Y_RS, Y_RS_THETA):
        with pytest.raises(ValueError, match="second input lives at lattice index"):
            intertwiner_mode(IntertwinerSpec(kind, 1, 4), u, modes[-1], v)
        intertwiner_mode(fits, u, modes[-1], v)
