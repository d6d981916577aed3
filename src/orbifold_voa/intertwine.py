"""Explicit intertwining operators between the irreducible modules, the
search for the first nonzero mode of each, and the forced-zero
verification for the one case the restriction bound cannot see.  Their
names (`IntertwinerSpec`, the kinds, and `direct_witness`, which picks one
for a triple) read labels alone and live in `fusion`.

Untwisted intertwiners compose the plain vertex operator with a phase
twist: the operator attached to u at lattice index a multiplies a target
term at index s by zeta^(a*s) before acting.  The theta-composed variant
feeds theta(v) instead of v and lands in the difference coset.  Neither
reads the mode, so the mode driver of `untwisted` checks the coset of v
and makes its target, theta and phase included, once per plan: a sweep
over m transforms v once.  Twisted ones are the tilde operators of the
twisted module layer; they need no theta-composed kind, since theta acts
on each twisted eigenmodule as +-1.
"""

from __future__ import annotations

from . import labels as lb
from .fock import (
    TVector,
    UVector,
    heis_act,
    lattice_vector,
    project_eigen,
    theta,
    top_vector,
)
# still bound here: bench/layertrace.py wraps `intertwine.direct_witness` by name
# and bench/workloads.py builds `intertwine.IntertwinerSpec` (ROADMAP item 1(a))
from .fusion import KINDS, TILDE, Y_RS, Y_RS_THETA, IntertwinerSpec, direct_witness
from .ring import RingParams
from .twisted import tilde_mode
from .untwisted import _one_row, _place, e_vec, f_vec, support_modes, term_pair_images, vertex_mode


def phase_apply(r: int, v: UVector) -> UVector:
    """Multiply each term at lattice index s by zeta^(r*s)."""
    params = v.params

    def act(key, c):
        _parts, s = key
        yield key, c * params.zeta(r * s)

    return v.map_terms(act)


def target_of(spec: IntertwinerSpec, v):
    """The second input as the operator of `spec` sees it: theta(v) for
    Y_rs∘theta, v otherwise."""
    return theta(v) if spec.kind == Y_RS_THETA else v


def _check_coset(spec: IntertwinerSpec, which: str, v: UVector, c: int) -> None:
    """Refuse a `which` input of `spec` with a term outside the coset c
    mod 2k."""
    k2 = 2 * v.params.k
    for (_parts, a) in v.terms:
        if (a - c) % k2 != 0:
            raise ValueError(
                f"{which} input lives at lattice index {a}, not in the "
                f"coset {c} mod {k2} declared by {spec.name}"
            )


def _target(spec: IntertwinerSpec, v: UVector) -> UVector:
    """The vector the vertex operator of an untwisted `spec` acts on: v,
    refused outside the coset of spec.s, through `target_of` and then
    `phase_apply` at spec.r."""
    _check_coset(spec, "second", v, spec.s)
    return phase_apply(spec.r, target_of(spec, v))


def intertwiner_mode(spec: IntertwinerSpec, u: UVector, m, v):
    """Exact mode action of the chosen intertwiner.  An untwisted kind is
    the vertex operator on `_target(spec, v)`, which the mode driver makes
    once per plan (`untwisted.term_pair_images`), so a sweep over m
    checks, transforms and phase-twists v once."""
    _check_coset(spec, "first", u, spec.r)
    if spec.kind in (Y_RS, Y_RS_THETA):
        if not isinstance(v, UVector):
            raise ValueError(f"{spec.name} needs an untwisted second input")
        return UVector._wrap(u.params, term_pair_images(u, m, v, _one_row, _place, (_target, spec)))
    if not isinstance(v, TVector):
        raise ValueError(f"{spec.name} needs a twisted second input")
    return tilde_mode(u, m, v)


def first_nonzero_mode(spec: IntertwinerSpec, u, v, cutoff, target_sign: int = 0):
    """(mode, image) of the first mode on the support grid, down to output
    weight `cutoff`, whose image is nonzero, or None.  With target_sign +-1
    each image is first projected onto that target eigenspace."""
    if not u or not v:
        raise ValueError("witness inputs must be nonzero")
    for m in support_modes(u, target_of(spec, v), cutoff):
        img = intertwiner_mode(spec, u, m, v)
        if target_sign and img:
            img = project_eigen(img, target_sign)
        if img:
            return m, img
    return None


# -- the one bound-blind vanishing ------------------------------------------------


def _phi_restrict(x: UVector, k: int) -> UVector:
    """Isomorphism from the zero-layer of the half-shift eigenmodule onto the
    single coset component: keep the terms at lattice index +k."""
    return UVector(x.params, {key: c for key, c in x.terms.items() if key[1] == k})


def _phi_inverse(y: UVector) -> UVector:
    """Inverse of _phi_restrict on its image: symmetrize with theta."""
    return y + theta(y)


def forced_zero_coupling(params: RingParams) -> bool:
    """Decide whether the coupling constant of the unique candidate
    intertwiner from the odd lattice piece into the plus half-shift module
    is forced to vanish.

    The candidate is the one-parameter family d * phi^{-1} Y(u, z) phi(v)
    on the zero layer.  Commuting the weight-k symmetric lattice mode
    through the degree-one oscillator modes expresses the same auxiliary
    mode two ways; the difference of the two evaluations multiplies d, so
    d = 0 is forced exactly when that difference is nonzero.  All the
    ingredient identities are recomputed here, not assumed.
    """
    k = params.k
    E = e_vec(params)
    v0 = lattice_vector(params, k) + lattice_vector(params, -k)

    # ingredient identities of the commutation argument
    a1 = UVector(params, {((1,), 0): 1})
    if vertex_mode(E, 0, a1) != f_vec(params) * (-2 * k):
        return False
    for i in range(1, k + 1):
        if vertex_mode(E, i, a1):
            return False
    if vertex_mode(E, k - 1, v0) != v0:
        return False
    w = heis_act(-1, lattice_vector(params, k)) - heis_act(-1, lattice_vector(params, -k))
    if vertex_mode(E, k, w) != v0 * (2 * k):
        return False
    if vertex_mode(E, k, v0):
        return False

    def conj(mode_n: int, e_mode: int, x: UVector) -> UVector:
        # E_{e_mode} phi^{-1} alpha(mode_n) phi (x)  minus the other order
        lhs = vertex_mode(E, e_mode, _phi_inverse(heis_act(mode_n, _phi_restrict(x, k))))
        rhs = _phi_inverse(heis_act(mode_n, _phi_restrict(vertex_mode(E, e_mode, x), k)))
        return lhs - rhs

    a_side = conj(-1, k, v0)
    b_side = conj(0, k - 1, v0)
    return bool(a_side - b_side)


# -- matching explicit constructions to fusion triples ------------------------------


def witness_vectors(params: RingParams, triple) -> tuple[UVector, UVector | TVector]:
    """The inputs (u, v) of the construction `direct_witness` picks: the
    generating top vectors of the first two modules, with the degree-one
    oscillator state standing in for a two-dimensional top level (V- at
    k=1, `labels.has_top_vector`)."""

    def vector(label: lb.ModuleLabel):
        if not lb.has_top_vector(label, params.k):
            return UVector(params, {((1,), 0): 1})
        return top_vector(params, label)

    w1, w2, _w3 = triple
    return vector(w1), vector(w2)
