"""Top-level machinery: the computed actions of the three generators on
every top level.  The contragredient correspondence is a rule on labels
and lives in `labels`.

Top-level actions are always evaluated through the vertex operators (the
weight-preserving mode of the generator), never read from a table; the
closed forms exposed for cross-checking live in `expected_top_actions`.
"""

from __future__ import annotations

from fractions import Fraction

from . import labels as lb
from .fock import TVector, UVector, top_vector
# still bound here: bench/layertrace.py wraps `zhu.contragredient` by name (ROADMAP item 1(a))
from .labels import contragredient
from .ring import RingParams, Scalar
from .twisted import twisted_mode
from .untwisted import e_vec, j_vec, omega_vec, vertex_mode

GENERATORS = ("omega", "J", "E")


def generator_vector(params: RingParams, name: str) -> UVector:
    if name == "omega":
        return omega_vec(params)
    if name == "J":
        return j_vec(params)
    if name == "E":
        return e_vec(params)
    raise ValueError(f"unknown generator {name!r}")


def _homogeneous_weight(a: UVector) -> Fraction:
    weights = a.weights()
    if len(weights) != 1:
        raise ValueError("argument must be homogeneous")
    (w,) = weights
    if w.denominator != 1:
        raise ValueError(f"weight {w} is not an integer")
    return w


def top_action(params: RingParams, gen: str, label: lb.ModuleLabel) -> Scalar:
    """The scalar by which the weight-preserving mode of the named generator
    acts on the top level of the labelled module, computed from the
    operators (`top_vector` refuses a bad label and one without a top vector)."""
    a = generator_vector(params, gen)
    return _eigenvalue(params, a, _homogeneous_weight(a) - 1, top_vector(params, label), label, gen)


def _eigenvalue(params: RingParams, a: UVector, m: Fraction, top, label, gen) -> Scalar:
    """The scalar by which mode m of a acts on `top`, the top vector of
    `label`, checked to be an eigenvalue."""
    if isinstance(top, TVector):
        image = twisted_mode(a, m, top)
    else:
        image = vertex_mode(a, m, top)
    # extract the eigenvalue and confirm the top vector is an eigenvector;
    # its keys have one weight, so the least is the first of `sorted_keys`
    ref_key = min(top.terms)
    ref = top.terms[ref_key]
    got = image.terms.get(ref_key, params.zero())
    scalar = got * (Fraction(1) / ref.as_rational())
    if image != top * scalar:
        raise AssertionError(
            f"top level of {label.code} is not an eigenvector of o({gen})"
        )
    return scalar


def top_action_table(params: RingParams) -> dict[str, dict[str, Scalar]]:
    """Computed generator actions for every label with a top vector
    (`labels.has_top_vector`), as `top_action` computes them.  Each generator
    vector and its weight-preserving mode are found once for the whole
    table, and each label's top vector once for its row."""
    modes = {}
    for gen in GENERATORS:
        a = generator_vector(params, gen)
        modes[gen] = a, _homogeneous_weight(a) - 1
    out: dict[str, dict[str, Scalar]] = {}
    for label in lb.all_labels(params.k):
        if not lb.has_top_vector(label, params.k):
            continue
        top = top_vector(params, label)
        out[label.code] = {
            gen: _eigenvalue(params, a, m, top, label, gen) for gen, (a, m) in modes.items()
        }
    return out


def expected_top_actions(params: RingParams, label: lb.ModuleLabel) -> dict[str, Scalar]:
    """Closed-form generator actions used as the cross-check oracle.

    These are the published values with one correction: the quartic
    generator acts on the half-shift top level by k^2/4 - k/4 (the r = k
    case of the lattice-coset formula), which the printed table misstates
    as k^4/4 - k^2/4; see the module's first-principles computation.
    """
    k = params.k
    r2 = lambda r: Fraction(r * r, 2 * k)
    if label.kind == lb.VAC:
        if label.sign > 0:
            vals = (Fraction(0), Fraction(0), Fraction(0))
        else:
            vals = (Fraction(1), Fraction(-6), Fraction(0))
    elif label.kind == lb.LAM:
        x2 = r2(label.r)
        vals = (x2 / 2, x2 * x2 - x2 / 2, Fraction(0))
    elif label.kind == lb.HALF:
        x2 = r2(k)
        vals = (Fraction(k, 4), x2 * x2 - x2 / 2, Fraction(label.sign))
    else:
        e_unit = Fraction(2, 2 ** (2 * k))
        sector_sign = 1 if label.sector == 1 else -1
        if label.sign > 0:
            vals = (Fraction(1, 16), Fraction(3, 128), sector_sign * e_unit)
        else:
            vals = (
                Fraction(9, 16),
                Fraction(-45, 128),
                -sector_sign * e_unit * (4 * k - 1),
            )
    return {g: params.rational(v) for g, v in zip(GENERATORS, vals)}
