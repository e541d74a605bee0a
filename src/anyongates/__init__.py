"""Anyon models, mapping class group actions, and monomial gate classification."""

from .models import (
    AnyonModel,
    ModelError,
    dg_abelian,
    fibonacci,
    ising,
    load_builtin,
    parse_model,
    quantum_dimensions,
    serialize_model,
    validate,
    verlinde_fusion,
    zn_toric,
)
from .surfaces import (
    InfeasibleSurfaceError,
    SurfaceSpec,
    enumerate_labelings,
    sphere_surface,
    standard_dap,
    torus_surface,
)
from .mcg import evaluate_word, torus_generators
from .budget import SearchBudgetError
from .solver import (
    DeltaSet,
    MonomialMatrix,
    delta_set,
    intersect_delta,
    is_monomial,
    solve_intertwiner,
)
from .classify import (
    ClassificationError,
    ClassificationReport,
    allowed_curve_permutations,
    classify,
    classify_punctured_sphere,
    classify_torus,
    iso_phase_set,
)
from .abelian import (
    affine_permutations,
    group_coordinates,
    is_abelian,
    lattice_commutation_check,
    string_operator_matrices,
    torus_word_families,
)

__version__ = "0.1.0"

__all__ = [
    "AnyonModel",
    "ClassificationError",
    "ClassificationReport",
    "DeltaSet",
    "InfeasibleSurfaceError",
    "ModelError",
    "MonomialMatrix",
    "SearchBudgetError",
    "SurfaceSpec",
    "affine_permutations",
    "allowed_curve_permutations",
    "classify",
    "classify_punctured_sphere",
    "classify_torus",
    "delta_set",
    "dg_abelian",
    "enumerate_labelings",
    "evaluate_word",
    "fibonacci",
    "group_coordinates",
    "intersect_delta",
    "is_abelian",
    "is_monomial",
    "ising",
    "iso_phase_set",
    "lattice_commutation_check",
    "load_builtin",
    "parse_model",
    "quantum_dimensions",
    "serialize_model",
    "solve_intertwiner",
    "sphere_surface",
    "standard_dap",
    "string_operator_matrices",
    "torus_generators",
    "torus_surface",
    "torus_word_families",
    "validate",
    "verlinde_fusion",
    "zn_toric",
]
