"""Closed-form optimal designs, validity conditions, and the classifiers."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    InteractionFamily,
    InteractionLabel,
    NonpositivePredictor,
    ThreeFactorFamily,
    ThreeFactorLabel,
    ThreeFactorScenario,
    ValidationError,
    a_optimal_orthant,
    a_optimal_two_factor,
    classify_three_factor,
    d_efficiency,
    d_optimal_interaction,
    d_optimal_orthant,
    d_optimal_two_factor,
    efficiency_sweep,
    equal_beta_threshold,
    intensity_ranking,
    interaction_equal_beta,
    interaction_vertices,
    is_simplex_design_d_optimal,
    mix_designs,
    orthant_axis_points,
    region_vertices,
    simplex_design,
    three_factor_benchmark_designs,
    three_factor_vertices,
    validate_positivity,
    verify_optimality,
    xi3_weights,
)

from oracles import drop_vertex_forms, equal_beta_edges, min_trace_weight, trace_inverse, ulp_steps, unit_scaled


CUBE3 = ExperimentalRegion.hypercube(1.0, 2.0, 3)
V = three_factor_vertices()  # v1..v8 in the fixed numbering, as V[0]..V[7]


def cube_model() -> GammaModel:
    return GammaModel.first_order(3)


def tier_index(groups) -> dict:
    return {pt: k for k, group in enumerate(groups) for pt, _ in group}


# ---------------------------------------------------------------- vertices


def test_three_factor_vertex_numbering():
    assert V[0] == (1.0, 1.0, 1.0)
    assert V[1] == (2.0, 1.0, 1.0)
    assert V[2] == (1.0, 2.0, 1.0)
    assert V[3] == (1.0, 1.0, 2.0)
    assert V[4] == (1.0, 2.0, 2.0)
    assert V[5] == (2.0, 1.0, 2.0)
    assert V[6] == (2.0, 2.0, 1.0)
    assert V[7] == (2.0, 2.0, 2.0)


def test_interaction_vertex_numbering():
    assert interaction_vertices(1.0, 4.0) == (
        (4.0, 4.0),
        (4.0, 1.0),
        (1.0, 4.0),
        (1.0, 1.0),
    )


# ---------------------------------------------------------------- scenarios


def test_scenario_admissibility():
    ThreeFactorScenario(1.0, 0.3)
    ThreeFactorScenario(1.0, -0.24)
    ThreeFactorScenario(-1.0, 1.5)
    ThreeFactorScenario(0.0, 2.0)
    for beta1, beta in [(1.0, -0.25), (1.0, -0.3), (-1.0, 0.5), (-1.0, -1.0), (0.0, 0.0), (0.0, -1.0)]:
        with pytest.raises(ValidationError):
            ThreeFactorScenario(beta1, beta)


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
@example(1e-323, 0.0)
def test_scenario_admissibility_is_the_positivity_rule(beta1, beta):
    """A scenario is admissible exactly where the kernel's positivity rule holds on [1,2]^3. At
    (1e-323, 0.0) the quotient -beta_1/4 rounded to -0.0, and the scenario was refused."""
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 3)
    positive = validate_positivity(GammaModel.first_order(3), (beta1, beta, beta), cube)
    try:
        ThreeFactorScenario(beta1, beta)
    except ValidationError:
        assert not positive
    else:
        assert positive


def test_scenario_gamma():
    assert ThreeFactorScenario(2.0, 1.0).gamma == pytest.approx(0.5)
    assert ThreeFactorScenario(0.0, 1.0).gamma is None
    assert ThreeFactorScenario(-1.0, 2.0).beta_vector() == (-1.0, 2.0, 2.0)


# ---------------------------------------------------------------- orthant


def test_d_optimal_orthant_examples():
    d2 = d_optimal_orthant(2)
    assert d2.points == ((1.0, 0.0), (0.0, 1.0))
    assert d2.weights == (0.5, 0.5)
    d3 = d_optimal_orthant(3, scale=(2.0, 1.0, 1.0))
    assert d3.points == ((2.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert d3.weights == (1.0 / 3.0,) * 3
    d4 = d_optimal_orthant(4)
    assert d4.size == 4
    assert d4.weights == (0.25,) * 4
    with pytest.raises(ValidationError):
        d_optimal_orthant(3, scale=(1.0, 0.0, 1.0))


def test_d_optimal_orthant_parameter_free():
    rng = np.random.default_rng(17)
    design = d_optimal_orthant(3, scale=(2.0, 0.5, 1.0))
    for _ in range(5):
        beta = tuple(rng.uniform(0.1, 10.0, size=3))
        candidates = list(design.points) + [
            tuple(rng.uniform(0.05, 5.0, size=3)) for _ in range(20)
        ]
        report = verify_optimality(cube_model(), beta, design, Criterion.D, candidates)
        assert report.passed


def test_a_optimal_orthant_examples():
    assert a_optimal_orthant((1.0, 1.0)).weights == (0.5, 0.5)
    assert a_optimal_orthant((1.0, 3.0)).weights == (0.25, 0.75)
    assert a_optimal_orthant((2.0, 2.0, 4.0)).weights == (0.25, 0.25, 0.5)
    with pytest.raises(NonpositivePredictor):
        a_optimal_orthant((1.0, -1.0))


def test_a_optimal_orthant_beats_random_weights():
    rng = np.random.default_rng(23)
    beta = (1.0, 3.0, 0.4)
    design = a_optimal_orthant(beta)
    best = trace_inverse("first_order", beta, design.points, design.weights)
    for w in rng.dirichlet(np.ones(3), size=200):
        assert best <= trace_inverse("first_order", beta, design.points, w) + 1e-9


def test_a_optimal_orthant_passes_verification():
    beta = (0.7, 2.0, 1.1, 0.5)
    design = a_optimal_orthant(beta, scale=(1.0, 2.0, 0.5, 3.0))
    report = verify_optimality(
        GammaModel.first_order(4), beta, design, Criterion.A, orthant_axis_points(4)
    )
    assert report.passed
    # the optimal trace has the closed value (sum of coefficients)^2
    assert report.bound == pytest.approx(sum(beta) ** 2, rel=1e-12)


# ---------------------------------------------------------------- two-factor


def test_d_optimal_two_factor_examples():
    assert d_optimal_two_factor(1.0, 2.0).points == ((1.0, 2.0), (2.0, 1.0))
    assert d_optimal_two_factor(1.0, 4.0).weights == (0.5, 0.5)
    with pytest.raises(ValidationError):
        d_optimal_two_factor(2.0, 1.0)


def test_d_optimal_two_factor_passes_verification():
    for beta in ((1.0, 2.0), (3.0, 0.5)):
        design = d_optimal_two_factor(1.0, 4.0)
        square = ExperimentalRegion.hypercube(1.0, 4.0, 2)
        report = verify_optimality(
            GammaModel.first_order(2), beta, design, Criterion.D, region_vertices(square)
        )
        assert report.passed


def test_a_optimal_two_factor_weight_values():
    d = a_optimal_two_factor(1.0, 2.0, (1.0, 1.0))
    assert dict(zip(d.points, d.weights))[(1.0, 2.0)] == pytest.approx(0.5)
    # the formula value 4/9 is carried by the support point whose own
    # predictor is beta1*b + beta2*a; pairing it the other way around
    # violates the equivalence bound at both support points
    d = a_optimal_two_factor(1.0, 2.0, (1.0, 2.0))
    w = dict(zip(d.points, d.weights))
    assert w[(2.0, 1.0)] == pytest.approx(4.0 / 9.0)
    assert w[(1.0, 2.0)] == pytest.approx(5.0 / 9.0)
    d = a_optimal_two_factor(1.0, 4.0, (3.0, 1.0))
    w = dict(zip(d.points, d.weights))
    assert w[(4.0, 1.0)] == pytest.approx(13.0 / 20.0)


def test_a_optimal_two_factor_matches_trace_search():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.uniform(0.3, 2.0)
        b = a * rng.uniform(1.1, 4.0)
        beta = tuple(rng.uniform(0.2, 3.0, size=2))
        design = a_optimal_two_factor(a, b, beta)
        w1 = min_trace_weight("first_order", beta, design.points)
        assert design.weights[0] == pytest.approx(w1, abs=1e-7)


def test_a_optimal_two_factor_passes_verification():
    beta = (1.0, 2.0)
    design = a_optimal_two_factor(1.0, 2.0, beta)
    square = ExperimentalRegion.hypercube(1.0, 2.0, 2)
    report = verify_optimality(
        GammaModel.first_order(2), beta, design, Criterion.A, region_vertices(square)
    )
    assert report.passed


def test_a_optimal_two_factor_rejects_bad_predictor():
    with pytest.raises(NonpositivePredictor):
        a_optimal_two_factor(1.0, 4.0, (1.0, -1.0))


@pytest.mark.parametrize(
    "construct, huge, unit",
    [
        (a_optimal_orthant, (1e308,) * 3, (1.0,) * 3),
        (lambda beta: a_optimal_two_factor(1.0, 3.0, beta), (1e308, 1e308), (1.0, 1.0)),
    ],
    ids=["orthant", "two_factor"],
)
def test_a_optimal_weights_are_formed_at_the_scaled_beta(construct, huge, unit):
    """The weights are of degree 0 in beta; at 1e308 their sums overflowed and the design
    was refused with "weights must be strictly positive"."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert construct(huge).weights == construct(unit).weights


@pytest.mark.parametrize(
    "construct",
    [lambda: a_optimal_orthant((math.inf, 1.0)), lambda: a_optimal_two_factor(1.0, 2.0, (math.nan, 1.0))],
    ids=["orthant_inf", "two_factor_nan"],
)
def test_a_optimal_constructors_name_a_non_finite_beta(construct):
    """A non-finite beta was reported as "weights must be strictly positive"."""
    with pytest.raises(ValidationError, match="beta entries must be finite"):
        construct()


@pytest.mark.parametrize(
    "construct",
    [lambda: a_optimal_orthant((1.0,)), lambda: a_optimal_two_factor(1.0, 2.0, (1.0, 2.0, 3.0))],
    ids=["orthant_short", "two_factor_long"],
)
def test_a_optimal_constructors_state_the_beta_length_rule(construct):
    """Both read beta by the one beta rule of ``model_core``."""
    with pytest.raises(ValidationError, match=r"beta must have 2 entries, not [13]"):
        construct()


# ---------------------------------------------------------------- simplex


def test_simplex_design_examples():
    d3 = simplex_design(3, 1.0, 2.0)
    assert d3.points == (V[1], V[2], V[3])
    assert d3.weights == (1.0 / 3.0,) * 3
    d4 = simplex_design(4, 1.0, 2.0)
    assert (2.0, 1.0, 1.0, 1.0) in d4.points
    assert simplex_design(3, 2.0, 3.0).points == (
        (3.0, 2.0, 2.0),
        (2.0, 3.0, 2.0),
        (2.0, 2.0, 3.0),
    )
    with pytest.raises(ValidationError):
        simplex_design(2, 1.0, 2.0)


def test_simplex_condition_examples():
    assert is_simplex_design_d_optimal(3, 1.0, 2.0, (1.0, 1.0, 1.0))
    assert not is_simplex_design_d_optimal(4, 1.0, 1.5, (1.0, 1.0, 1.0, 1.0))
    assert is_simplex_design_d_optimal(4, 1.0, 2.0, (1.0, 1.0, 1.0, 1.0))


def test_simplex_condition_agrees_with_verification():
    rng = np.random.default_rng(67)
    seen = {True: 0, False: 0}
    for _ in range(20):
        nu = int(rng.integers(3, 6))
        a = rng.uniform(0.5, 2.0)
        b = a * rng.uniform(1.05, 3.0)
        beta = tuple(rng.uniform(0.2, 3.0, size=nu))
        cube = ExperimentalRegion.hypercube(a, b, nu)
        claim = is_simplex_design_d_optimal(nu, a, b, beta)
        report = verify_optimality(
            GammaModel.first_order(nu),
            beta,
            simplex_design(nu, a, b),
            Criterion.D,
            region_vertices(cube),
        )
        assert claim == report.passed
        seen[claim] += 1
    assert seen[True] and seen[False]  # both outcomes exercised


def test_equal_beta_threshold():
    assert equal_beta_threshold(2) == 0.0
    assert equal_beta_threshold(3) == 1.0
    assert equal_beta_threshold(4) == 3.0


def test_equal_beta_threshold_matches_condition():
    for nu in (3, 4, 5):
        for ratio in (1.2, 1.8, 2.5, 3.5):
            expected = ratio**2 >= equal_beta_threshold(nu)
            got = is_simplex_design_d_optimal(nu, 1.0, ratio, (1.0,) * nu)
            assert got == expected


# ---------------------------------------------------------------- cube classifier


def test_xi3_weight_examples():
    np.testing.assert_allclose(
        xi3_weights(0.0), (5.0 / 16.0, 9.0 / 32.0, 9.0 / 32.0, 1.0 / 8.0), rtol=1e-15
    )
    np.testing.assert_allclose(xi3_weights(-1.0 / 7.0), (0.25,) * 4, rtol=1e-12)
    w = xi3_weights(0.1)
    assert all(wi > 0 for wi in w)
    assert sum(w) == pytest.approx(1.0, abs=1e-12)


def test_xi3_weights_domain():
    with pytest.raises(ValidationError):
        xi3_weights(0.2)
    with pytest.raises(ValidationError):
        xi3_weights(-5.0 / 23.0)


def test_xi3_weights_continuous_at_region_borders():
    # approaching the lower border the first vertex drops out; approaching
    # the upper border the last one does, matching the neighbouring designs
    lo = xi3_weights(-5.0 / 23.0 + 1e-10)
    np.testing.assert_allclose(lo, (0.0, 1 / 3, 1 / 3, 1 / 3), atol=1e-8)
    hi = xi3_weights(0.2 - 1e-10)
    np.testing.assert_allclose(hi, (1 / 3, 1 / 3, 1 / 3, 0.0), atol=1e-8)


def test_classifier_positive_beta1():
    c = classify_three_factor(ThreeFactorScenario(1.0, 1.0))
    assert c.label is ThreeFactorLabel.XI1
    assert c.design.points == (V[1], V[2], V[3])
    assert not c.numerical

    c = classify_three_factor(ThreeFactorScenario(7.0, -1.0))  # gamma = -1/7
    assert c.label is ThreeFactorLabel.XI3
    np.testing.assert_allclose(c.design.weights, (0.25,) * 4, rtol=1e-12)
    assert c.design.points == (V[1], V[2], V[3], V[4])

    c = classify_three_factor(ThreeFactorScenario(1.0, 0.0))
    assert c.label is ThreeFactorLabel.XI3
    np.testing.assert_allclose(
        c.design.weights, (5 / 16, 9 / 32, 9 / 32, 1 / 8), rtol=1e-12
    )

    c = classify_three_factor(ThreeFactorScenario(1.0, -0.23))
    assert c.label is ThreeFactorLabel.XI2
    assert c.design.points == (V[2], V[3], V[4])


def test_classifier_negative_and_zero_beta1():
    c = classify_three_factor(ThreeFactorScenario(-1.0, 4.0))  # gamma = -4
    assert c.label is ThreeFactorLabel.XI1

    c = classify_three_factor(ThreeFactorScenario(-1.0, 1.1))  # gamma = -1.1
    assert c.label is ThreeFactorLabel.XI4
    assert c.design.points == (V[1], V[5], V[6])

    c = classify_three_factor(ThreeFactorScenario(-1.0, 2.0))  # gamma = -2
    assert c.label is ThreeFactorLabel.XI5_NUMERICAL
    assert c.design is None
    assert c.numerical
    assert c.gamma == pytest.approx(-2.0)

    c = classify_three_factor(ThreeFactorScenario(0.0, 3.0))
    assert c.label is ThreeFactorLabel.XI1
    assert c.gamma is None


def test_classifier_boundaries():
    assert classify_three_factor(ThreeFactorScenario(5.0, 1.0)).label is ThreeFactorLabel.XI1
    assert (
        classify_three_factor(ThreeFactorScenario(23.0, -5.0)).label
        is ThreeFactorLabel.XI2
    )
    assert (
        classify_three_factor(ThreeFactorScenario(-1.0, 3.0)).label
        is ThreeFactorLabel.XI1
    )
    assert (
        classify_three_factor(ThreeFactorScenario(-5.0, 6.0)).label
        is ThreeFactorLabel.XI4
    )
    assert (
        classify_three_factor(ThreeFactorScenario(-1.0, 2.99)).label
        is ThreeFactorLabel.XI5_NUMERICAL
    )


@pytest.mark.parametrize("edge", [0.2, -5.0 / 23.0])
def test_xi3_neighbours_have_positive_weights_near_the_edges(edge):
    """The Xi3 weights decide the subregion: within 3 ulps of the ratio where
    an end weight vanishes, no design carries a nonpositive weight."""
    labels = set()
    for k in range(-3, 4):
        c = classify_three_factor(ThreeFactorScenario(1.0, ulp_steps(edge, k)))
        labels.add(c.label)
        assert min(c.design.weights) > 0.0
    assert labels == {ThreeFactorLabel.XI3, ThreeFactorLabel.XI1 if edge > 0.0 else ThreeFactorLabel.XI2}


def test_classifier_closed_forms_pass_verification():
    scenarios = [
        ThreeFactorScenario(1.0, 1.0),
        ThreeFactorScenario(1.0, 0.0),
        ThreeFactorScenario(1.0, -0.23),
        ThreeFactorScenario(7.0, -1.0),
        ThreeFactorScenario(-1.0, 1.1),
        ThreeFactorScenario(-1.0, 4.0),
        ThreeFactorScenario(0.0, 1.0),
    ]
    for sc in scenarios:
        c = classify_three_factor(sc)
        assert c.design is not None
        report = verify_optimality(
            cube_model(), sc.beta_vector(), c.design, Criterion.D, region_vertices(CUBE3)
        )
        assert report.passed, (sc, c.label, report.worst_excess)


def test_classifier_scale_invariant():
    for beta1, beta in [(1.0, 0.1), (1.0, -0.22), (-1.0, 1.3), (-1.0, 2.0)]:
        base = classify_three_factor(ThreeFactorScenario(beta1, beta))
        for lam in (0.1, 7.0):
            scaled = classify_three_factor(ThreeFactorScenario(lam * beta1, lam * beta))
            assert scaled.label is base.label
            if base.design is None:
                assert scaled.design is None
            else:
                # the ratio beta/beta1 picks up one rounding step under
                # scaling, so weights agree to working precision only
                assert scaled.design.points == base.design.points
                np.testing.assert_allclose(
                    scaled.design.weights, base.design.weights, rtol=1e-12
                )


# One classification per label; the interaction four-point label both in
# closed form and numerically.
CLASSIFICATIONS = {
    "Xi1": lambda: classify_three_factor(ThreeFactorScenario(1.0, 1.0)),
    "Xi2": lambda: classify_three_factor(ThreeFactorScenario(1.0, -0.23)),
    "Xi3": lambda: classify_three_factor(ThreeFactorScenario(1.0, 0.0)),
    "Xi4": lambda: classify_three_factor(ThreeFactorScenario(-1.0, 1.1)),
    "Xi5Numerical": lambda: classify_three_factor(ThreeFactorScenario(-1.0, 2.0)),
    "Case_i": lambda: d_optimal_interaction(1.0, 4.0, (5.0, 5.0, 1.0)),
    "Case_ii": lambda: d_optimal_interaction(1.0, 4.0, (2.0, -0.5, 0.3)),
    "Case_iii": lambda: d_optimal_interaction(1.0, 4.0, (-0.5, 2.0, 0.3)),
    "Case_iv": lambda: interaction_equal_beta(1.0, 4.0, -0.45),
    "Case_v_FourPoint": lambda: interaction_equal_beta(1.0, 4.0, 1.0),
    "Case_v_FourPoint_numerical": lambda: d_optimal_interaction(1.0, 2.0, (1.0, 2.0, 0.5)),
}


@pytest.mark.parametrize("name", CLASSIFICATIONS)
def test_classification_builds_its_design_once_on_first_access(built_designs, name):
    c = CLASSIFICATIONS[name]()
    assert c.label.value == name.removesuffix("_numerical")
    assert built_designs == []  # a classifier returns support and weights, not a Design
    assert c.design is c.design
    if c.numerical:
        assert c.points is None and c.weights is None and c.design is None
        assert built_designs == []
    else:
        assert built_designs == [(c.points, c.weights)]
        assert c.design == Design(c.points, c.weights)


def test_classifier_json_shape():
    obj = classify_three_factor(ThreeFactorScenario(1.0, 0.0)).to_json()
    assert set(obj) == {"label", "design", "numerical", "gamma"}
    assert obj["label"] == "Xi3"
    assert obj["numerical"] is False
    obj = classify_three_factor(ThreeFactorScenario(-1.0, 2.0)).to_json()
    assert obj["design"] is None
    assert obj["numerical"] is True


# ---------------------------------------------------------------- interaction


def test_interaction_case_i_example():
    c = d_optimal_interaction(1.0, 4.0, (5.0, 5.0, 1.0))
    assert c.label is InteractionLabel.CASE_I
    assert c.design.points == ((4.0, 4.0), (4.0, 1.0), (1.0, 4.0))
    assert c.design.weights == (1 / 3,) * 3


def test_interaction_case_iv_example():
    c = d_optimal_interaction(1.0, 4.0, (-0.4, -0.4, 1.0))
    assert c.label is InteractionLabel.CASE_IV
    assert c.design.points == ((4.0, 1.0), (1.0, 4.0), (1.0, 1.0))


def test_interaction_cases_ii_and_iii():
    # dropping the mixed vertex whose own intensity is smallest; the kept
    # triple differs from a naive reading of the case list, and the swap
    # is what verification supports
    c = d_optimal_interaction(1.0, 4.0, (2.0, -0.5, 0.3))
    assert c.label is InteractionLabel.CASE_II
    assert c.design.points == ((4.0, 4.0), (1.0, 4.0), (1.0, 1.0))
    c = d_optimal_interaction(1.0, 4.0, (-0.5, 2.0, 0.3))
    assert c.label is InteractionLabel.CASE_III
    assert c.design.points == ((4.0, 4.0), (4.0, 1.0), (1.0, 1.0))


def test_interaction_three_point_cases_pass_verification():
    cases = [
        (5.0, 5.0, 1.0),
        (-0.4, -0.4, 1.0),
        (2.0, -0.5, 0.3),
        (-0.5, 2.0, 0.3),
    ]
    verts = interaction_vertices(1.0, 4.0)
    for beta in cases:
        c = d_optimal_interaction(1.0, 4.0, beta)
        report = verify_optimality(
            GammaModel.interaction(), beta, c.design, Criterion.D, verts
        )
        assert report.passed, (beta, c.label, report.worst_excess)


def test_interaction_swapped_triples_fail_verification():
    # keeping the small-intensity mixed vertex instead must break optimality
    verts = interaction_vertices(1.0, 4.0)
    beta = (2.0, -0.5, 0.3)
    wrong = Design(points=[verts[0], verts[1], verts[3]], weights=[1 / 3] * 3)
    report = verify_optimality(GammaModel.interaction(), beta, wrong, Criterion.D, verts)
    assert not report.passed


def test_interaction_no_case_i_on_narrow_square():
    # on [1,2]^2 the top-triple support never wins while the interaction
    # coefficient is positive; with a negative one it can, so the sweep
    # below keeps beta3 > 0 and a witness for the other sign follows
    rng = np.random.default_rng(91)
    count = 0
    while count < 200:
        beta = (rng.uniform(-2.0, 3.0), rng.uniform(-2.0, 3.0), rng.uniform(0.05, 3.0))
        try:
            c = d_optimal_interaction(1.0, 2.0, beta)
        except NonpositivePredictor:
            continue
        count += 1
        assert c.label is not InteractionLabel.CASE_I
    witness = (1.0, 1.5, -0.7)
    c = d_optimal_interaction(1.0, 2.0, witness)
    assert c.label is InteractionLabel.CASE_I
    report = verify_optimality(
        GammaModel.interaction(), witness, c.design, Criterion.D, interaction_vertices(1.0, 2.0)
    )
    assert report.passed


def test_interaction_four_point_closed_form_dispatch():
    c = d_optimal_interaction(1.0, 4.0, (2.0, 2.0, 1.0))  # gamma = 2
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT
    assert not c.numerical
    assert c.design.size == 4
    report = verify_optimality(
        GammaModel.interaction(),
        (2.0, 2.0, 1.0),
        c.design,
        Criterion.D,
        interaction_vertices(1.0, 4.0),
    )
    assert report.passed


def test_interaction_four_point_weights_at_a_tiny_interaction_coefficient():
    """beta_1/beta_3 is about 4.5e307 here, and the weights are found without
    forming that ratio, so none of them overflows to nan."""
    beta = (1.0, 1.0, 2.2250738585072014e-308)
    c = d_optimal_interaction(1.0, 2.0, beta)
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT
    assert c.weights == pytest.approx((5 / 16, 9 / 32, 9 / 32, 1 / 8), rel=1e-15)
    report = verify_optimality(GammaModel.interaction(), beta, c.design, Criterion.D, interaction_vertices(1.0, 2.0))
    assert report.passed


@pytest.mark.parametrize("beta", [(1.0, 1.0, 0.0), (1e-200, 1e-200, 1e-360)])
def test_interaction_four_point_closed_form_at_a_zero_interaction_coefficient(beta):
    """At beta_3 = 0 (1e-360 underflows to it) the ratio gamma is undefined, and the
    weights were once left to the solver although their closed form holds there."""
    c = d_optimal_interaction(1.0, 2.0, beta)
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT and c.gamma is None
    assert c.points == interaction_vertices(1.0, 2.0)
    assert c.weights == pytest.approx((5 / 16, 9 / 32, 9 / 32, 1 / 8), rel=1e-15)
    # D-optimality is invariant to the scale of beta; verification is not: at 1e-200 M overflows
    report = verify_optimality(GammaModel.interaction(), unit_scaled(beta), c.design, Criterion.D, interaction_vertices(1.0, 2.0))
    assert report.passed


def test_interaction_four_point_numerical_flag():
    c = d_optimal_interaction(1.0, 2.0, (1.0, 2.0, 0.5))
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT
    assert c.numerical
    assert c.design is None


def test_interaction_positivity_enforced():
    with pytest.raises(NonpositivePredictor):
        d_optimal_interaction(1.0, 2.0, (1.0, 1.0, -1.0))


DROP_LABELS = (InteractionLabel.CASE_I, InteractionLabel.CASE_II, InteractionLabel.CASE_III, InteractionLabel.CASE_IV)


def oracle_drop_label(a: float, b: float, beta) -> InteractionLabel:
    """The label the hand-expanded quadratic forms give at ``unit_scaled(beta)``."""
    for label, form in zip(DROP_LABELS, drop_vertex_forms(a, b, beta)):
        if form <= 0.0:
            return label
    return InteractionLabel.CASE_V_FOUR_POINT


@given(
    st.floats(0.1, 5.0),
    st.floats(1.01, 8.0),
    st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_interaction_drop_rule_matches_quadratic_forms(a, ratio, beta):
    """The intercept-corner rule picks the label of the source-model
    quadratic forms at every admissible parameter point."""
    b = a * ratio
    assume(all(beta[0] * x1 + beta[1] * x2 + beta[2] * x1 * x2 > 0.0 for x1, x2 in interaction_vertices(a, b)))
    assert d_optimal_interaction(a, b, beta).label is oracle_drop_label(a, b, beta)


@given(st.floats(0.1, 5.0), st.floats(1.01, 8.0), st.integers(-3, 3), st.booleans())
def test_interaction_equal_beta_rule_on_threshold_lines(a, ratio, ulps, upper):
    """On the equal-beta threshold lines gamma = -ab/(3b-a) and, where
    b > 3a, gamma = ab/(b-3a), and within a few ulp of them, the general
    classifier gives the design of ``interaction_equal_beta``, and it verifies."""
    b = a * ratio
    assume(not upper or b > 3.0 * a)
    gamma = ulp_steps(a * b / (b - 3.0 * a) if upper else -a * b / (3.0 * b - a), ulps)
    beta = (gamma, gamma, 1.0)
    got, want = d_optimal_interaction(a, b, beta), interaction_equal_beta(a, b, gamma)
    assert (got.label, got.points, got.weights) == (want.label, want.points, want.weights)
    report = verify_optimality(GammaModel.interaction(), beta, got.design, Criterion.D, interaction_vertices(a, b))
    assert report.passed, (a, b, gamma, report.worst_excess)


# ---------------------------------------------------------------- equal-beta


def test_equal_beta_uniform_at_zero():
    c = interaction_equal_beta(1.0, 4.0, 0.0)
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT
    np.testing.assert_allclose(c.design.weights, (0.25,) * 4, rtol=1e-14)


def test_equal_beta_thresholds():
    c = interaction_equal_beta(1.0, 4.0, 4.0)
    assert c.label is InteractionLabel.CASE_I
    assert c.design.points == ((4.0, 4.0), (4.0, 1.0), (1.0, 4.0))
    c = interaction_equal_beta(1.0, 4.0, -4.0 / 11.0)
    assert c.label is InteractionLabel.CASE_IV
    c = interaction_equal_beta(1.0, 4.0, 3.99)
    assert c.label is InteractionLabel.CASE_V_FOUR_POINT


def test_equal_beta_four_point_verified():
    # one instance on a wide square, one on a narrow square where the
    # three-point region at the top does not exist
    for (a, b, gamma) in [(1.0, 4.0, 1.3), (1.0, 2.0, 0.7), (1.0, 2.0, 50.0)]:
        c = interaction_equal_beta(a, b, gamma)
        assert c.label is InteractionLabel.CASE_V_FOUR_POINT
        w = c.design.weights
        assert all(wi > 0 for wi in w)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        beta = (gamma, gamma, 1.0)
        report = verify_optimality(
            GammaModel.interaction(), beta, c.design, Criterion.D, interaction_vertices(a, b)
        )
        assert report.passed, (a, b, gamma, report.worst_excess)
        # the two mixed vertices always share a weight
        by_point = dict(zip(c.design.points, w))
        assert by_point[(b, a)] == pytest.approx(by_point[(a, b)], rel=1e-12)


def test_equal_beta_domain():
    with pytest.raises(ValidationError):
        interaction_equal_beta(1.0, 4.0, -0.5)
    with pytest.raises(ValidationError):
        interaction_equal_beta(1.0, 4.0, -0.7)
    # Above -a/2, but the kernel's predictor at (a, a) rounds to nonpositive.
    with pytest.raises(ValidationError, match=r"gamma must exceed -a/2"):
        interaction_equal_beta(0.21, 4.0, -0.10499999999999998)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_equal_beta_names_a_non_finite_ratio(gamma):
    """Every ValidationError was relabelled, so inf and nan read "gamma must exceed -a/2"."""
    with pytest.raises(ValidationError, match="beta entries must be finite"):
        interaction_equal_beta(1.0, 4.0, gamma)


@given(st.floats(0.2, 3.0), st.floats(1.05, 8.0))
def test_equal_beta_designs_have_positive_weights_near_the_edges(a, ratio):
    """The four-point weights decide the case: within 3 ulps of a ratio where
    one of them vanishes, the classifier drops that vertex instead of
    returning a zero weight."""
    b = a * ratio
    for edge in equal_beta_edges(a, b):
        for k in range(-3, 4):
            c = interaction_equal_beta(a, b, ulp_steps(edge, k))
            assert min(c.design.weights) > 0.0


def test_equal_beta_rules_agree_near_the_edges_of_narrow_squares():
    """The narrow squares of a seeded sweep within 1e-8 relative of the edge
    -ab/(3b-a). A drop rule with slack 1e-12 |beta|^2 once decided these
    ratios in ``d_optimal_interaction``: its label differed from that of the
    weight signs out to 2.5e-10 relative, and three of its three-point designs
    here failed verification at tol 1e-9 (excess 1.07e-9 at a = 2.48438995154029,
    b = 2.655893790137105, gamma = -1.2033421790607075)."""
    rng = np.random.default_rng(0)
    squares = []
    for _ in range(400):
        a = float(rng.uniform(0.2, 3.0))
        squares.append((a, a * float(rng.uniform(1.05, 8.0))))
    narrow = [(a, b) for a, b in squares if b < 1.1 * a]
    assert len(narrow) == 3
    offsets = np.geomspace(1e-15, 1e-8, 36).tolist()
    for a, b in narrow:
        for edge in equal_beta_edges(a, b):
            for gamma in [edge * (1.0 + sign * offset) for offset in offsets for sign in (1.0, -1.0)]:
                got, want = d_optimal_interaction(a, b, (gamma, gamma, 1.0)), interaction_equal_beta(a, b, gamma)
                assert (got.label, got.points, got.weights) == (want.label, want.points, want.weights)
                report = verify_optimality(
                    GammaModel.interaction(), (gamma, gamma, 1.0), got.design, Criterion.D, interaction_vertices(a, b), tol=1e-9
                )
                assert report.passed, (a, b, gamma, report.worst_excess)


# ---------------------------------------------------------------- mixtures


def test_mixture_of_orthant_optima_stays_optimal():
    rng = np.random.default_rng(3)
    d1 = d_optimal_orthant(3)
    d2 = d_optimal_orthant(3, scale=(2.0, 3.0, 4.0))
    mixed = mix_designs([d1, d2], [0.4, 0.6])
    beta = tuple(rng.uniform(0.1, 10.0, size=3))
    candidates = list(mixed.points) + [tuple(rng.uniform(0.05, 5.0, size=3)) for _ in range(20)]
    report = verify_optimality(cube_model(), beta, mixed, Criterion.D, candidates)
    assert report.passed


# ---------------------------------------------------------------- rankings


def test_ranking_zero_beta1():
    groups = intensity_ranking(cube_model(), (0.0, 1.0, 1.0), CUBE3)
    tiers = tier_index(groups)
    assert tiers[V[1]] < tiers[V[2]] == tiers[V[3]] == tiers[V[5]] == tiers[V[6]] < tiers[V[4]]


def test_ranking_strict_pattern_above_one():
    groups = intensity_ranking(cube_model(), (1.0, 2.0, 2.0), CUBE3)
    tiers = tier_index(groups)
    assert tiers[V[1]] < tiers[V[2]] == tiers[V[3]]
    assert tiers[V[2]] < tiers[V[5]] == tiers[V[6]] < tiers[V[4]]


def test_ranking_ties_at_gamma_one():
    # at ratio exactly 1 the first four predictors coincide pairwise, so
    # a strict pattern is arithmetically impossible and ties are reported
    groups = intensity_ranking(cube_model(), (1.0, 1.0, 1.0), CUBE3)
    sizes = [len(g) for g in groups]
    assert sizes == [1, 3, 3, 1]
    tiers = tier_index(groups)
    assert tiers[V[1]] == tiers[V[2]] == tiers[V[3]]
    assert tiers[V[4]] == tiers[V[5]] == tiers[V[6]]


@given(
    st.integers(-1000, 1000),
    st.one_of(
        st.sampled_from([(1.0, 0.1, 0.2), (1.0, 2.0, 2.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0)]),
        st.tuples(*[st.floats(0.01, 100.0)] * 3),
    ),
)
def test_ranking_is_the_same_at_every_power_of_two_of_beta(k, beta):
    """The groups at 2^k beta are the groups at beta, with no warning; within the
    float range each value is the value at beta times 4^-k, exactly."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = intensity_ranking(cube_model(), beta, CUBE3)
        scaled = intensity_ranking(cube_model(), [math.ldexp(b, k) for b in beta], CUBE3)
    assert [[pt for pt, _ in g] for g in scaled] == [[pt for pt, _ in g] for g in base]
    if abs(k) <= 200:
        assert [[u for _, u in g] for g in scaled] == [[math.ldexp(u, -2 * k) for _, u in g] for g in base]


@given(
    st.integers(-600, 600),
    st.integers(2, 4).flatmap(lambda nu: st.lists(st.integers(-2, 4).map(float), min_size=nu, max_size=nu)),
)
def test_ranking_is_the_same_on_every_power_of_two_of_the_cube(k, beta):
    """The groups on [c, 2c]^nu, c = 2^k, are those on [1, 2]^nu, ties included, with no warning: the keys
    are intensities relative to the largest. On [2^-160, 2^-159]^2 every key of eta**-2 overflowed."""
    model, c = GammaModel.first_order(len(beta)), math.ldexp(1.0, k)
    assume(validate_positivity(model, beta, ExperimentalRegion.hypercube(1.0, 2.0, model.nu)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = intensity_ranking(model, beta, ExperimentalRegion.hypercube(1.0, 2.0, model.nu))
        scaled = intensity_ranking(model, beta, ExperimentalRegion.hypercube(c, 2.0 * c, model.nu))
    assert [[tuple(x / c for x in pt) for pt, _ in g] for g in scaled] == [[pt for pt, _ in g] for g in base]


def test_ranking_ties_on_a_tiny_cube():
    groups = intensity_ranking(GammaModel.first_order(2), (1, 1), ExperimentalRegion.hypercube(1e-160, 2e-160, 2))
    assert [[pt for pt, _ in g] for g in groups] == [[(1e-160, 1e-160)], [(1e-160, 2e-160), (2e-160, 1e-160)], [(2e-160, 2e-160)]]


def test_ranking_rejects_bad_inputs():
    with pytest.raises(NonpositivePredictor):
        intensity_ranking(cube_model(), (-1.0, 1.0, 1.0), CUBE3)
    with pytest.raises(ValidationError):
        intensity_ranking(cube_model(), (1.0, 1.0, 1.0), ExperimentalRegion.orthant(3))


# ---------------------------------------------------------------- huge ratios


def _xi3_unscaled(g):
    return (
        (5 + 23 * g) / (16 * (1 + 4 * g)),
        9 * (1 + 3 * g) ** 2 / (32 * (1 + g) * (1 + 4 * g)),
        (1 - g - 20 * g**2) / (8 * (1 + g) * (1 + 4 * g)),
    )


def _four_point_unscaled(a, b, g):
    s = a * b + (a + b) * g
    return (
        (a * b - (a - 3 * b) * g) / (4 * b * (a + 2 * g)),
        s**2 / (4 * a * b * (b + 2 * g) * (a + 2 * g)),
        (a * b - (b - 3 * a) * g) / (4 * a * (b + 2 * g)),
    )


@given(st.one_of(st.floats(-1e6, -1.0001), st.floats(-0.99, 1e6)), st.floats(0.2, 3.0), st.floats(1.05, 8.0))
def test_scaled_weights_agree_with_the_unscaled_formulas(gamma, a, ratio):
    from gammadesign.analytic_designs import _four_point_interaction, _xi3_weights

    w1, w2, _, w4 = _xi3_weights(gamma)
    np.testing.assert_allclose((w1, w2, w4), _xi3_unscaled(gamma), rtol=1e-12)
    if gamma > -a / 2.0:
        w1, w2, _, w4 = _four_point_interaction(a, a * ratio, gamma)
        np.testing.assert_allclose((w1, w2, w4), _four_point_unscaled(a, a * ratio, gamma), rtol=1e-12)


@pytest.mark.parametrize("gamma", [1e200, 1e300, 1.7e308, sys.float_info.max])
def test_equal_beta_weights_stay_finite_at_huge_ratios(gamma):
    """The four-point weights overflowed to nan at gamma = 1e200, and the admissible
    ratio's design then refused them as not strictly positive. Near the largest
    float, admissibility overflowed the predictor."""
    assert InteractionFamily(1.0, 2.0).admissible(gamma) and not InteractionFamily(1.0, 2.0).admissible(-gamma)
    assert ThreeFactorFamily().admissible(gamma) and ThreeFactorFamily(-1).admissible(-gamma)
    result = interaction_equal_beta(1.0, 2.0, gamma)
    assert result.label is InteractionLabel.CASE_V_FOUR_POINT
    assert all(0.0 < w < 1.0 for w in result.weights)
    assert sum(result.weights) == pytest.approx(1.0, abs=1e-12)
    assert result.design.weights == result.weights
    assert InteractionFamily(1.0, 2.0).reference(gamma) == result.design


@pytest.mark.parametrize(
    "a, b, beta",
    [(1.0, 2.0, (1.0, 1.0, 1e-160)), (1.0, 4.0, (5.0, 5.0, 1.0)), (1.0, 4.0, (2.0, -0.5, 0.3)),
     (1.0, 4.0, (-0.5, 2.0, 0.3)), (1.0, 4.0, (-0.4, -0.4, 1.0)), (1.0, 2.0, (1.0, 2.0, 0.5))],
)
def test_interaction_drop_rule_is_scale_invariant_up_to_huge_betas(a, b, beta):
    """At (1e160, 1e160, 1) the drop rule's squares overflowed: a warning, then OverflowError.
    At tiny scales they underflowed, and the rule dropped a vertex it must keep."""
    base = d_optimal_interaction(a, b, beta)
    for scale in (1e160, 2.0**900, 1e-160, 1e-200, 1e-300, 2.0**-900):
        product = tuple(scale * c for c in beta)
        if any(c != 0.0 and p == 0.0 for c, p in zip(beta, product)):
            continue  # an entry underflowed to 0, so the product is no multiple of beta
        scaled = d_optimal_interaction(a, b, product)
        assert scaled.label is base.label and scaled.weights == base.weights


def _verdict(fn, *args):
    try:
        return fn(*args)
    except NonpositivePredictor:
        return NonpositivePredictor


@given(
    st.integers(2, 6),
    st.floats(0.2, 3.0),
    st.floats(1.05, 8.0),
    st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
    st.integers(-1000, 1000),
)
def test_kernel_verdicts_are_invariant_to_power_of_two_scales(nu, a, ratio, entries, k):
    """Positivity on a cube, the simplex-design rule, the interaction classifier and
    the interaction family's admissibility give the same answer at 2^k beta as at
    beta, and warn of no overflow: the predictor of beta near the largest float
    overflowed, and the squares of the simplex rule under- and overflowed."""
    b = a * ratio
    times = [math.ldexp(c, k) for c in entries]
    assume(all(math.ldexp(c, -k) == e for c, e in zip(times, entries)))  # 2^k beta is exact
    cube, first_order = ExperimentalRegion.hypercube(a, b, nu), GammaModel.first_order(nu)
    square = ExperimentalRegion.hypercube(a, b, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert validate_positivity(first_order, times[:nu], cube) == validate_positivity(first_order, entries[:nu], cube)
        if nu > 2:
            want, got = (_verdict(is_simplex_design_d_optimal, nu, a, b, beta[:nu]) for beta in (entries, times))
            assert got == want
        for beta in (entries[:3], (entries[0], entries[0], abs(entries[1]))):
            want, got = (_verdict(d_optimal_interaction, a, b, [math.ldexp(c, s) for c in beta]) for s in (0, k))
            assert got is want or (got.label, got.points, got.weights) == (want.label, want.points, want.weights)
        ratio_path = [math.ldexp(c, k) for c in (entries[0], entries[0], 1.0)]
        assert InteractionFamily(a, b).admissible(entries[0]) == validate_positivity(GammaModel.interaction(), ratio_path, square)


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300, 2.0**-900])
def test_interaction_design_at_tiny_equal_betas(scale):
    """(1e-200,)*3 and (1e-300,)*3 dropped v4 where (1, 1, 1) keeps all four vertices,
    and at (1e-160,)*3 the middle weights were off in the sixth digit."""
    base = d_optimal_interaction(1.0, 4.0, (1.0, 1.0, 1.0))
    tiny = d_optimal_interaction(1.0, 4.0, (scale,) * 3)
    assert tiny.label is base.label is InteractionLabel.CASE_V_FOUR_POINT
    assert tiny.weights == pytest.approx(base.weights, rel=1e-15)


def test_three_factor_sweep_at_a_huge_ratio_warns_of_no_overflow():
    """Neither its weights nor its intensities overflow or underflow: M is built at betas scaled by the
    kernel, so the row at 1e200 is the efficiency at that ratio, with no warning."""
    designs = three_factor_benchmark_designs()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep = efficiency_sweep(ThreeFactorFamily(), designs, (0.5, 1e200))
        reference = ThreeFactorFamily().reference(1e200)
        want = [d_efficiency(cube_model(), ThreeFactorFamily().beta(1e200), d, reference) for d in designs.values()]
    assert sweep.gammas == (0.5, 1e200)
    np.testing.assert_allclose(sweep.values[1], want, rtol=1e-12, atol=0.0)
