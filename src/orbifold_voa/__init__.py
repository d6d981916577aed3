"""Exact engine for the rank-one charge conjugation orbifold: graded
modules, explicit intertwining operators at truncated degree, and the
verified fusion-rule tables.

The label half (`labels`, `fusion`) loads with the package.  The names of
the operator half load with their module on first use (PEP 562), so a
program that reads only the fusion rules never imports the operators."""

from .fusion import (
    EngineInconsistencyError,
    FusionEngine,
    IntertwinerSpec,
    bound_blind_zeros,
    decompose,
    direct_witness,
    fusion,
    get_engine,
    m1_fusion,
    m1_products,
    upper_bound,
)
from .labels import M1Label, ModuleLabel, all_labels, contragredient, parse_label, quasi_admissible

# the module that defines each operator-half name of the package API
_LAZY = {
    name: module
    for module, names in (
        ("fock", "TVector UVector graded_dim heis_act lattice_vector m1_graded_dim project_eigen theta "
                 "top_vector tw_vacuum vacuum"),
        ("intertwine", "first_nonzero_mode forced_zero_coupling intertwiner_mode phase_apply witness_vectors"),
        ("ring", "RingMismatchError RingParams RingPrecisionError Scalar"),
        ("twisted", "PsiMap delta_apply delta_coeff psi_map tilde_mode twisted_mode"),
        ("untwisted", "commutator_formula_check e_vec f_vec j_vec omega_vec p_coeff_apply vertex_mode"),
        ("zhu", "expected_top_actions top_action top_action_table"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    """An operator-half name of the package API, from its module (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__version__ = "0.1.0"
