"""The input contract: every malformed number a caller passes in, and every
inadmissible parameter point, is reported as a ValidationError."""

from __future__ import annotations

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gammadesign import (
    Design,
    ExperimentalRegion,
    GammaModel,
    InteractionFamily,
    InterceptTransform,
    NonpositivePredictor,
    RegionKind,
    SolverParams,
    ThreeFactorFamily,
    ThreeFactorScenario,
    ValidationError,
    a_optimal_orthant,
    a_optimal_two_factor,
    d_efficiency,
    d_optimal_interaction,
    d_optimal_orthant,
    d_optimal_two_factor,
    efficiency_sweep,
    equal_beta_threshold,
    feature_matrix,
    first_order_ratio_map,
    gamma_grid,
    induced_polytope_vertices,
    intensity,
    interaction_benchmark_designs,
    interaction_equal_beta,
    interaction_to_intercept,
    is_simplex_design_d_optimal,
    map_point_interaction,
    mix_designs,
    model_from_json,
    multiplicative,
    orthant_axis_points,
    region_from_json,
    sensitivity,
    simplex_design,
    three_factor_benchmark_designs,
    three_factor_vertices,
    unmap_point_interaction,
    validate_positivity,
    verify_intercept_design,
    verify_optimality,
    xi3_weights,
)

M2 = GammaModel.first_order(2)
SQUARE = ExperimentalRegion.hypercube(1.0, 2.0, 2)
D2 = Design([(1.0, 2.0), (2.0, 1.0)], [0.5, 0.5])

# Each of these raised a bare TypeError or ValueError before numbers were
# converted in one place.
REPRODUCERS = {
    # vectors
    "validate_positivity": lambda: validate_positivity(M2, (1, "x"), SQUARE),
    "multiplicative": lambda: multiplicative(M2, (1, "x"), [(1.0, 2.0), (2.0, 1.0)]),
    "intensity": lambda: intensity(M2, (1, "x"), (1.0, 2.0)),
    "d_efficiency": lambda: d_efficiency(M2, (1, "x"), D2, D2),
    "d_optimal_interaction": lambda: d_optimal_interaction(1, 2, (1, "x", 1)),
    "is_simplex_design_d_optimal": lambda: is_simplex_design_d_optimal(3, 1, 2, (1, "x", 1)),
    "interaction_to_intercept": lambda: interaction_to_intercept(1, 2, (1, "x", 1)),
    # bounds
    "hypercube": lambda: ExperimentalRegion.hypercube("a", 2, 2),
    "ExperimentalRegion": lambda: ExperimentalRegion(RegionKind.HYPERCUBE, 2, "a", 2.0),
    "simplex_design_bounds": lambda: simplex_design(3, "a", 2),
    "three_factor_vertices": lambda: three_factor_vertices("a", 2),
    "d_optimal_two_factor": lambda: d_optimal_two_factor(None, 2),
    "induced_polytope_vertices": lambda: induced_polytope_vertices("a", 2),
    "InteractionFamily": lambda: InteractionFamily("a", 4),
    "interaction_benchmark_designs": lambda: interaction_benchmark_designs("a", 4),
    # short tuples and scalars
    "a_optimal_two_factor": lambda: a_optimal_two_factor(1, 2, (1, 2, 3)),
    "a_optimal_orthant": lambda: a_optimal_orthant((1, "x")),
    "mix_designs": lambda: mix_designs([D2], ["x"]),
    "d_optimal_orthant_scale": lambda: d_optimal_orthant(2, (1, "x")),
    "efficiency_sweep": lambda: efficiency_sweep(ThreeFactorFamily(), three_factor_benchmark_designs(), ["x"]),
    "gamma_grid": lambda: gamma_grid("a", 1),
    "xi3_weights": lambda: xi3_weights("a"),
    "interaction_equal_beta": lambda: interaction_equal_beta(1, 2, "x"),
    "ThreeFactorScenario": lambda: ThreeFactorScenario("a", 1.0),
    # points
    "map_point_interaction": lambda: map_point_interaction((1, "x"), 1, 2),
    "unmap_point_interaction": lambda: unmap_point_interaction((0.5, "x"), 1, 2),
    "first_order_ratio_map": lambda: first_order_ratio_map((1, "x")),
    # counts
    "d_optimal_orthant_nu": lambda: d_optimal_orthant(2.5),
    "simplex_design_nu": lambda: simplex_design(3.0, 1, 2),
    "orthant_axis_points": lambda: orthant_axis_points("3"),
    "equal_beta_threshold": lambda: equal_beta_threshold("3"),
    # An int too large for a float raised a bare OverflowError.
    "Design_huge_int": lambda: Design([(1.0, 10**400)], [1.0]),
    "hypercube_huge_int": lambda: ExperimentalRegion.hypercube(1, 10**400, 2),
    "verify_optimality_huge_int": lambda: verify_optimality(M2, (1, 10**400), D2, "D", [(1.0, 2.0)]),
    "validate_positivity_huge_int": lambda: validate_positivity(M2, (1, 10**400), SQUARE),
    "multiplicative_huge_int": lambda: multiplicative(M2, (1, 1), [(1.0, 2.0), (2.0, 10**400)]),
    "gamma_grid_huge_int": lambda: gamma_grid(0, 10**400, 1),
    "ThreeFactorScenario_huge_int": lambda: ThreeFactorScenario(1, 10**400),
    "SolverParams_huge_int": lambda: SolverParams(convergence_tol=10**400),
}

# Further entry points that convert caller numbers through the same rules.
FURTHER = {
    "contains": lambda: SQUARE.contains((1, "x")),
    "predictor": lambda: interaction_to_intercept(1, 2, (1, 1, 1)).predictor((0.5, "x")),
    "intercept_fields": lambda: InterceptTransform(1, 2, "x", 1, 1).intensity((0.5, 0.5)),
    # The predictor was stated by hand, past the beta judge: a string field raised TypeError,
    # and a nan or infinite one returned nan or inf where the intensity refuses it.
    "intercept_fields_predictor": lambda: InterceptTransform(1, 2, "x", 1, 1).predictor((0.5, 0.5)),
    "intercept_nan_field_predictor": lambda: InterceptTransform(1, 2, float("nan"), 1, 1).predictor((0.5, 0.5)),
    "intercept_infinite_field_predictor": lambda: InterceptTransform(1, 2, 1, float("inf"), 1).predictor((0.5, 0.5)),
    "family_admissible": lambda: InteractionFamily().admissible("x"),
    "family_beta": lambda: ThreeFactorFamily(-1).beta("x"),
    "solver_iterations": lambda: SolverParams(max_iterations=2.5),
    "solver_tolerance": lambda: SolverParams(convergence_tol="x"),
    "verify_tol": lambda: verify_optimality(M2, (1, 1), D2, "D", [(1.0, 2.0)], tol="x"),
    "weights_as_string": lambda: Design([(1.0,)], "1"),
    "coefficients_as_mapping": lambda: mix_designs([D2], {1.0: 1.0}),
    "grid_nan_step": lambda: gamma_grid(0.0, 1.0, float("nan")),
    "grid_infinite_step": lambda: gamma_grid(0.0, 1.0, float("inf")),
    "coefficient_nan": lambda: mix_designs([D2, D2], [float("nan"), 1.0]),
    "scale_nan": lambda: orthant_axis_points(2, (float("nan"), 1.0)),
    "points_as_bytes": lambda: Design([b"12"], [1.0]),
    # A nan tol made every design, an optimal one included, fail verification.
    "verify_tol_nan": lambda: verify_optimality(M2, (1, 1), D2, "D", [(1.0, 2.0)], tol=float("nan")),
    "verify_tol_infinite": lambda: verify_optimality(M2, (1, 1), D2, "D", [(1.0, 2.0)], tol=float("inf")),
    "intercept_tol_nan": lambda: verify_intercept_design(
        interaction_to_intercept(1, 2, (1, 1, 1)), Design([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1 / 3] * 3), tol=float("nan")
    ),
    # A negative tol failed an exactly optimal design, whose excess is round-off of either sign.
    "verify_tol_negative": lambda: verify_optimality(M2, (1, 1), D2, "D", [(1.0, 2.0)], tol=-1.0),
    "intercept_tol_negative": lambda: verify_intercept_design(
        interaction_to_intercept(1, 2, (1, 1, 1)), Design([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1 / 3] * 3), tol=-1e-12
    ),
    # A repeated candidate ran a whole solve, then named "support points" the caller never passed.
    "solver_repeated_candidates": lambda: multiplicative(
        GammaModel.first_order(3), (1, 1, 1), three_factor_vertices() + three_factor_vertices()[:2]
    ),
    "verify_candidate_dimension": lambda: verify_optimality(M2, (1, 1), D2, "D", [(1.0, 2.0, 3.0)]),
    # An unknown criterion ran the A check, and its report's to_json() raised AttributeError.
    "verify_criterion_unknown": lambda: verify_optimality(M2, (1, 1), D2, "X", [(1.0, 2.0)]),
    "sensitivity_criterion_unknown": lambda: sensitivity(M2, (1, 1), D2, (1.0, 2.0), "X"),
    "intercept_criterion_unknown": lambda: verify_intercept_design(
        interaction_to_intercept(1, 2, (1, 1, 1)), Design([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [1 / 3] * 3), "X"
    ),
    # A JSON nu is judged by the count rule as it stands: only a JSON integer is a count.
    "model_json_nu_fraction": lambda: model_from_json({"kind": "first_order", "nu": 2.5}),
    "model_json_nu_bool": lambda: model_from_json({"kind": "interaction", "nu": True}),
    "model_json_nu_string": lambda: model_from_json({"kind": "first_order", "nu": "3"}),
    "model_json_nu_float": lambda: model_from_json({"kind": "first_order", "nu": 3.0}),
    "region_json_nu_fraction": lambda: region_from_json({"kind": "orthant", "nu": 2.5}),
    "region_json_nu_bool": lambda: region_from_json({"kind": "orthant", "nu": True}),
    "region_json_nu_string": lambda: region_from_json({"kind": "hypercube", "nu": "3", "a": 1.0, "b": 2.0}),
    "region_json_nu_float": lambda: region_from_json({"kind": "hypercube", "nu": 3.0, "a": 1.0, "b": 2.0}),
    # An infinite upper bound built a cube on which validate_positivity answered True and the
    # simplex rule warned "invalid value encountered in multiply".
    "hypercube_infinite_bound": lambda: ExperimentalRegion.hypercube(1, float("inf"), 3),
    "region_json_infinite_bound": lambda: region_from_json({"kind": "hypercube", "nu": 3, "a": 1.0, "b": float("inf")}),
    "simplex_rule_infinite_bound": lambda: is_simplex_design_d_optimal(3, 1, float("inf"), (1, 1, 1)),
    "simplex_design_infinite_bound": lambda: simplex_design(3, 1, float("inf")),
    "two_factor_infinite_bound": lambda: d_optimal_two_factor(1, float("inf")),
    "three_factor_vertices_infinite_bound": lambda: three_factor_vertices(1, float("inf")),
    "interaction_family_infinite_bound": lambda: InteractionFamily(1, float("inf")),
    "interaction_to_intercept_infinite_bound": lambda: interaction_to_intercept(1, float("inf"), (1, 1, 1)),
    # An infinite tolerance certified the uniform start after 0 iterations, whatever its excess.
    "solver_tolerance_infinite": lambda: SolverParams(convergence_tol=float("inf")),
}


@pytest.mark.parametrize("call", REPRODUCERS.values(), ids=REPRODUCERS.keys())
def test_malformed_numbers_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", FURTHER.values(), ids=FURTHER.keys())
def test_further_malformed_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_nonpositive_predictor_is_a_validation_error():
    assert issubclass(NonpositivePredictor, ValidationError)
    with pytest.raises(ValidationError):
        a_optimal_two_factor(1.0, 2.0, (-1.0, 0.4))


def test_converted_bounds_are_stored_as_floats():
    region = ExperimentalRegion(RegionKind.HYPERCUBE, 2, 1, "2.5")
    assert (region.a, region.b) == (1.0, 2.5)
    assert all(type(c) is float for c in (region.a, region.b))
    family = InteractionFamily(1, 4)
    assert type(family.a) is float and family.name == "interaction_square_1_4"
    assert ThreeFactorScenario(1, 0).beta_vector() == (1.0, 0.0, 0.0)



# ---------------------------------------------------------------- point batches

# One malformed batch of two-coordinate points per rule of the point judge.
# A set has no order, so it is refused as a point.
MALFORMED_BATCHES = {
    "ragged": [[1.0, 2.0], [1.0]],
    "empty_rows": [[], []],
    "str_point": ["12", "21"],
    "set_point": [{1.0, 2.0}, (2.0, 1.0)],
    "nan": [[1.0, float("nan")], [2.0, 1.0]],
    "huge_int": [[1.0, 10**400], [2.0, 1.0]],
}
BATCH_CALLS = {
    "Design": lambda batch: Design(batch, [0.5, 0.5]),
    "feature_matrix": lambda batch: feature_matrix(M2, batch),
    "verify_candidates": lambda batch: verify_optimality(M2, (1, 1), D2, "D", batch),
    "solver_candidates": lambda batch: multiplicative(M2, (1, 1), batch),
}


@pytest.mark.parametrize("batch", MALFORMED_BATCHES.values(), ids=MALFORMED_BATCHES.keys())
@pytest.mark.parametrize("call", BATCH_CALLS.values(), ids=BATCH_CALLS.keys())
def test_every_point_entry_refuses_malformed_batches(call, batch):
    with pytest.raises(ValidationError):
        call(batch)


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize("name", [n for n in MALFORMED_BATCHES if n != "set_point"])  # JSON has no sets
def test_cli_candidate_files_refuse_malformed_batches(capsys, tmp_path, command, name):
    from gammadesign.cli import run

    design_file, cand_file = tmp_path / "design.json", tmp_path / "cands.json"
    design_file.write_text(json.dumps({"points": [[1, 2], [2, 1]], "weights": [0.5, 0.5]}))
    cand_file.write_text(json.dumps(MALFORMED_BATCHES[name]))
    argv = [command, "--nu", "2", "--beta", "1,1", "--candidates", str(cand_file)]
    code = run(argv + ["--design", str(design_file)] if command == "verify" else argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["design", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "inf", "--beta=1,1,1"], "bounds must satisfy"),
        (["solve", "--nu", "3", "--region", "hypercube", "--a", "1", "--b", "2", "--beta=-1,2,2", "--convergence-tol", "inf"],
         "convergence_tol must be positive and finite"),
    ],
    ids=["infinite_bound", "infinite_convergence_tol"],
)
def test_cli_refuses_infinite_bounds_and_tolerances(capsys, argv, message):
    """The design warned "invalid value encountered in multiply" before a points error, and the solve
    printed the uniform start with exit status 0."""
    from gammadesign.cli import run

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ValidationError" and message in error["message"]


COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**300), 10**300),
    st.fractions(max_denominator=10**20),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
)


@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(COORDINATES, min_size=d, max_size=d), min_size=1, max_size=5)))
def test_judged_points_are_the_floats_of_their_coordinates(points):
    """The judged tuples hold float() of each coordinate, however it was written."""
    from gammadesign.model_core import _canonical_points, _judged

    assert _canonical_points(_judged(points)) == tuple(tuple(map(float, pt)) for pt in points)
