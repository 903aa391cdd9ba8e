"""Locally D- and A-optimal designs for gamma models without intercept.

The package constructs closed-form optimal designs where theory provides
them, verifies optimality through equivalence-theorem sensitivity checks
on candidate sets, computes weights numerically with the multiplicative
algorithm where no closed form exists, and quantifies robustness through
D-efficiency sweeps.
"""

from .model_core import (
    COINCIDENCE_TOL,
    WEIGHT_SUM_TOL,
    Design,
    ExperimentalRegion,
    GammaDesignError,
    GammaModel,
    IterationCapExceeded,
    ModelKind,
    NonpositivePredictor,
    RankDeficientCandidates,
    RegionKind,
    SingularInformation,
    ValidationError,
    design_from_json,
    design_to_json,
    feature_matrix,
    features,
    information_matrix,
    intensity,
    mix_designs,
    model_from_json,
    model_to_json,
    region_from_json,
    region_to_json,
    validate_design_region,
    validate_positivity,
)
from .equivalence import (
    DEFAULT_TOL,
    Criterion,
    VerificationReport,
    orthant_axis_points,
    region_vertices,
    sensitivity,
    verify_optimality,
)
from .analytic_designs import (
    INTERACTION_VERTEX_NAMES,
    THREE_FACTOR_VERTEX_NAMES,
    Classification,
    InteractionLabel,
    ThreeFactorLabel,
    ThreeFactorScenario,
    a_optimal_orthant,
    a_optimal_two_factor,
    classify_three_factor,
    d_optimal_interaction,
    d_optimal_orthant,
    d_optimal_two_factor,
    equal_beta_threshold,
    intensity_ranking,
    interaction_equal_beta,
    interaction_vertices,
    is_simplex_design_d_optimal,
    simplex_design,
    three_factor_vertices,
    xi3_weights,
)
from .transforms import (
    UNIT_SQUARE_VERTICES,
    InterceptTransform,
    first_order_ratio_map,
    induced_polytope_vertices,
    interaction_to_intercept,
    map_design_interaction,
    map_point_interaction,
    unmap_point_interaction,
    verify_intercept_design,
)
from .solver import SolverParams, SolverTrace, multiplicative
from .efficiency import (
    EfficiencySweep,
    InteractionFamily,
    ThreeFactorFamily,
    d_efficiency,
    efficiency_sweep,
    gamma_grid,
    interaction_benchmark_designs,
    three_factor_benchmark_designs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
