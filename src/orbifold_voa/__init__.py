"""Exact engine for the rank-one charge conjugation orbifold: graded
modules, explicit intertwining operators at truncated degree, and the
verified fusion-rule tables."""

from .fock import (
    TVector,
    UVector,
    graded_dim,
    heis_act,
    lattice_vector,
    m1_graded_dim,
    project_eigen,
    theta,
    top_vector,
    tw_vacuum,
    vacuum,
)
from .fusion import (
    EngineInconsistencyError,
    FusionEngine,
    bound_blind_zeros,
    decompose,
    fusion,
    get_engine,
    m1_fusion,
    m1_products,
    upper_bound,
)
from .intertwine import (
    IntertwinerSpec,
    direct_witness,
    first_nonzero_mode,
    forced_zero_coupling,
    intertwiner_mode,
    phase_apply,
    witness_vectors,
)
from .labels import M1Label, ModuleLabel, all_labels, contragredient, parse_label, quasi_admissible
from .ring import RingMismatchError, RingParams, RingPrecisionError, Scalar
from .twisted import PsiMap, delta_apply, delta_coeff, psi_map, tilde_mode, twisted_mode
from .untwisted import commutator_formula_check, e_vec, f_vec, j_vec, omega_vec, p_coeff_apply, vertex_mode
from .zhu import expected_top_actions, top_action, top_action_table

__version__ = "0.1.0"
