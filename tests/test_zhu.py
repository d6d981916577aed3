"""Top-level action machinery and the dual-module correspondence."""

from fractions import Fraction

import pytest

from orbifold_voa import labels as lb
from orbifold_voa.labels import contragredient
from orbifold_voa.fock import UVector, top_vector, vacuum
from orbifold_voa.ring import RingParams
from orbifold_voa.untwisted import omega_vec, vertex_mode
from orbifold_voa.zhu import (
    GENERATORS,
    expected_top_actions,
    top_action,
    top_action_table,
)


@pytest.fixture(scope="module", params=(1, 2, 3, 4))
def params(request):
    return RingParams(request.param)


def test_conformal_square_acts_as_grading_square(params):
    """Top-level actions are multiplicative along the star product: the
    square of the conformal vector, om_{-1} om + 2 om_0 om + om_1 om (the
    residue of (1+z)^2 z^(-1) Y(om, z) om), acts by the squared eigenvalue."""
    if params.k == 1:
        label = lb.half(+1)
    else:
        label = lb.u_minus()
    om = omega_vec(params)
    sq = vertex_mode(om, -1, om) + vertex_mode(om, 0, om) * 2 + vertex_mode(om, 1, om)
    top = top_vector(params, label)
    acc = params.zero()
    ref = top.sorted_keys()[0]
    for w in sorted(sq.weights()):
        comp = UVector(params, {key: c for key, c in sq.terms.items() if sq.key_weight(key) == w})
        img = vertex_mode(comp, w - 1, top)
        acc = acc + img.terms.get(ref, params.zero())
    want = top_action(params, "omega", label)
    assert acc == want * want


def test_top_actions_match_expected_table(params):
    k = params.k
    for label in lb.all_labels(k):
        if k == 1 and label == lb.u_minus():
            with pytest.raises(ValueError):
                top_action(params, "omega", label)
            continue
        want = expected_top_actions(params, label)
        for gen in GENERATORS:
            assert top_action(params, gen, label) == want[gen], (label.code, gen)


def test_half_shift_quartic_value_is_the_coset_formula(params):
    """The half-shift eigenmodules carry the r = k value of the lattice
    coset formula for the quartic generator (not the misprinted quartic
    polynomial in k)."""
    k = params.k
    got = top_action(params, "J", lb.half(+1))
    x2 = Fraction(k, 2)
    assert got == params.rational(x2 * x2 - x2 / 2)
    if k >= 2:
        # differs from the misprint except at k = 1
        assert got != params.rational(Fraction(k**4, 4) - Fraction(k**2, 4))


def test_sign_rule_across_duals(params):
    """Grading and quartic actions agree between a label and its dual; the
    lattice generator's action flips by (-1)^k."""
    k = params.k
    flip = -1 if k % 2 else 1
    for label in lb.all_labels(k):
        if k == 1 and lb.u_minus() in (label, contragredient(label, k)):
            continue
        dual = contragredient(label, k)
        assert top_action(params, "omega", label) == top_action(params, "omega", dual)
        assert top_action(params, "J", label) == top_action(params, "J", dual)
        assert top_action(params, "E", label) * flip == top_action(params, "E", dual)


def test_contragredient_structure(params):
    k = params.k
    for label in lb.all_labels(k):
        assert contragredient(contragredient(label, k), k) == label
        if k % 2 == 0:
            assert contragredient(label, k) == label
    if k % 2 == 1:
        assert contragredient(lb.half(+1), k) == lb.half(-1)
        assert contragredient(lb.tw(1, +1), k) == lb.tw(2, +1)
        assert contragredient(lb.tw(2, -1), k) == lb.tw(1, -1)
        assert contragredient(lb.u_plus(), k) == lb.u_plus()


def test_identity_acts_as_one_on_every_top_level(params):
    k = params.k
    for label in lb.all_labels(k):
        if k == 1 and label == lb.u_minus():
            continue
        top = top_vector(params, label)
        if isinstance(top, UVector):
            got = vertex_mode(vacuum(params), -1, top)
        else:
            from orbifold_voa.twisted import twisted_mode

            got = twisted_mode(vacuum(params), -1, top)
        assert got == top


def test_table_runtime(params):
    import time

    t0 = time.time()
    table = top_action_table(params)
    assert len(table) == (params.k + 7) - (1 if params.k == 1 else 0)
    assert time.time() - t0 < 30


def test_only_v_minus_at_k1_has_no_top_vector(params):
    """`labels.has_top_vector` is the one rule for the k=1 exception: the
    table leaves out exactly the labels it refuses, and `top_vector`
    refuses them too."""
    k = params.k
    without = [w for w in lb.all_labels(k) if not lb.has_top_vector(w, k)]
    assert without == ([lb.u_minus()] if k == 1 else [])
    assert sorted(top_action_table(params)) == sorted(
        w.code for w in lb.all_labels(k) if w not in without
    )
    for w in without:
        with pytest.raises(ValueError, match="two-dimensional top level"):
            top_vector(params, w)
