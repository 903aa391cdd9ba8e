"""Closed-form constructors build their support arrays themselves and skip the
coincidence search after one exact scalar test. The public rule stays the
oracle: each design must be the one ``Design(points, weights)`` builds through
the full judge, and each must raise the same ValidationError on the edge."""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from gammadesign import (
    Design,
    NonpositivePredictor,
    ThreeFactorScenario,
    ValidationError,
    a_optimal_orthant,
    a_optimal_two_factor,
    classify_three_factor,
    d_optimal_interaction,
    d_optimal_orthant,
    d_optimal_two_factor,
    interaction_benchmark_designs,
    interaction_equal_beta,
    orthant_axis_points,
    simplex_design,
    three_factor_benchmark_designs,
)
from gammadesign.model_core import COINCIDENCE_TOL

# COINCIDENCE_TOL and its neighbouring floats: b - a, or a scale, one ulp either side of the tolerance.
EDGE = (math.nextafter(COINCIDENCE_TOL, 0.0), COINCIDENCE_TOL, math.nextafter(COINCIDENCE_TOL, 1.0))
# ulp(COINCIDENCE_TOL): a multiple of it below 2**-72 plus an EDGE value is exact, so b - a is that value.
TOL_ULP = 2.0**-92

positive = st.floats(0.1, 10.0)
lower_bounds = st.floats(1e-3, 1e3)
# Squares of every span: wide ones, and b - a exactly at an EDGE value above a multiple of the ulp.
wide_bounds = st.tuples(lower_bounds, st.floats(1.001, 100.0)).map(lambda ar: (ar[0], ar[0] * ar[1]))
edge_bounds = st.tuples(st.integers(1, 2**20), st.sampled_from(EDGE)).map(lambda md: (md[0] * TOL_ULP, md[0] * TOL_ULP + md[1]))
bounds = st.one_of(wide_bounds, edge_bounds)
# Squares whose (a, (a + b) / 2, b) grid is spaced near an EDGE value: within a few ulps of it, at times exactly.
grid_edge_bounds = st.tuples(st.integers(1, 2**20), st.sampled_from(EDGE), st.integers(-4, 4)).map(
    lambda mdk: (mdk[0] * TOL_ULP, mdk[0] * TOL_ULP + 2.0 * mdk[1] + mdk[2] * TOL_ULP)
)
# Scales drawn at and around the tolerance as well as far above it, so that two of them may lie below it.
scales = lambda nu: st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from(EDGE + (1e-13,))), min_size=nu, max_size=nu)


def outcome(build):
    """What ``build()`` returns, or the type and message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


def assert_judged_alike(build, points, weights):
    """``build()`` and ``Design(points, weights)`` raise the same ValidationError, or give designs alike in
    every observable: tuples, bitwise arrays, equality, hash and repr."""
    built, judged = outcome(build), outcome(lambda: Design(points, weights))
    if not isinstance(judged, Design):
        assert built == judged
        return
    assert isinstance(built, Design), built
    for mine, theirs in ((built._pts, judged._pts), (built._wts, judged._wts)):
        assert not mine.flags.writeable
        assert (mine.dtype, mine.shape, mine.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes())
    assert built.points == judged.points and built.weights == judged.weights
    assert built == judged and hash(built) == hash(judged) and repr(built) == repr(judged)


def assert_builds_judged_alike(build):
    """Every Design that ``build()`` makes by ``Design._distinct``, up to one that raises, is judged alike to the
    one built from its points and weights through the full judge; so ``build()`` raises only where the judge does."""
    calls = []
    distinct = Design._distinct.__func__

    def recorded(cls, X, w, verdict=True):
        calls.append((X, w, verdict))
        return distinct(cls, X, w, verdict)

    with mock.patch.object(Design, "_distinct", classmethod(recorded)):
        built = outcome(build)
    for X, w, verdict in calls:
        assert_judged_alike(lambda: Design._distinct(X, w, verdict), X.tolist(), w.tolist())
    if isinstance(built, dict):
        assert len(calls) == len(built)
    return built


def test_edge_bounds_sit_one_ulp_around_the_tolerance():
    """The edge strategy's premise: b - a is exactly the drawn EDGE value."""
    for m in (1, 3, 2**20):
        for d in EDGE:
            a = m * TOL_ULP
            assert (a + d) - a == d


@given(st.integers(2, 6).flatmap(lambda nu: st.tuples(st.just(nu), scales(nu))))
@example((3, [1e-13, COINCIDENCE_TOL, 1.0]))
@example((3, [EDGE[0], COINCIDENCE_TOL, 1.0]))
@example((2, [EDGE[0], EDGE[0]]))
def test_d_optimal_orthant_is_the_judged_design(nu_scale):
    nu, scale = nu_scale
    assert_judged_alike(lambda: d_optimal_orthant(nu, scale), orthant_axis_points(nu, scale), [1.0 / nu] * nu)


@given(st.integers(2, 6).flatmap(lambda nu: st.tuples(st.lists(positive, min_size=nu, max_size=nu), scales(nu))))
@example(([1.0, 2.0, 3.0], [EDGE[0], COINCIDENCE_TOL, 1.0]))
@example(([1.0, 2.0], [EDGE[0], EDGE[0]]))
def test_a_optimal_orthant_is_the_judged_design(beta_scale):
    beta, scale = beta_scale
    total = sum(beta)
    assert_judged_alike(lambda: a_optimal_orthant(beta, scale), orthant_axis_points(len(beta), scale), [c / total for c in beta])


@given(bounds)
@example((TOL_ULP, TOL_ULP + EDGE[0]))
@example((TOL_ULP, TOL_ULP + COINCIDENCE_TOL))
def test_d_optimal_two_factor_is_the_judged_design(ab):
    a, b = ab
    assert_judged_alike(lambda: d_optimal_two_factor(a, b), [(a, b), (b, a)], [0.5, 0.5])


@given(bounds, st.tuples(positive, positive))
@example((TOL_ULP, TOL_ULP + COINCIDENCE_TOL), (1.0, 3.0))
def test_a_optimal_two_factor_is_the_judged_design(ab, beta):
    a, b = ab
    b1, b2 = beta
    w1 = (b1 * a + b2 * b) / ((b1 + b2) * (a + b))
    assert_judged_alike(lambda: a_optimal_two_factor(a, b, beta), [(a, b), (b, a)], [w1, 1.0 - w1])


@given(st.integers(3, 7), bounds)
@example(4, (TOL_ULP, TOL_ULP + EDGE[0]))
@example(4, (TOL_ULP, TOL_ULP + COINCIDENCE_TOL))
def test_simplex_design_is_the_judged_design(nu, ab):
    a, b = ab
    points = [(a,) * j + (b,) + (a,) * (nu - 1 - j) for j in range(nu)]
    assert_judged_alike(lambda: simplex_design(nu, a, b), points, [1.0 / nu] * nu)


def test_three_factor_benchmark_designs_are_the_judged_designs():
    assert list(assert_builds_judged_alike(three_factor_benchmark_designs)) == [f"xi{k}" for k in range(1, 8)]


@given(st.one_of(bounds, grid_edge_bounds))
@example((TOL_ULP, TOL_ULP + EDGE[0]))
@example((TOL_ULP, TOL_ULP + COINCIDENCE_TOL))  # the vertices exactly at the tolerance, the grid below it
@example((2 * TOL_ULP, 2 * TOL_ULP + 2.0 * COINCIDENCE_TOL - TOL_ULP))  # the grid spaced exactly at the tolerance
@example((2 * TOL_ULP, 2 * TOL_ULP + 2.0 * EDGE[0]))  # the grid spaced one ulp below it
def test_interaction_benchmark_designs_are_the_judged_designs(ab):
    a, b = ab
    assert_builds_judged_alike(lambda: interaction_benchmark_designs(a, b))


def test_grid_edge_examples_sit_on_the_tolerance():
    """The explicit grid examples' premise: the smaller grid spacing is exactly the stated EDGE value."""
    a = 2 * TOL_ULP
    for b, spacing in ((a + 2.0 * COINCIDENCE_TOL - TOL_ULP, COINCIDENCE_TOL), (a + 2.0 * EDGE[0], EDGE[0])):
        mid = (a + b) / 2.0
        assert min(mid - a, b - mid) == spacing


def assert_classification_judged_alike(classification):
    if classification.numerical:
        assert classification.design is None
    else:
        assert_judged_alike(lambda: classification.design, classification.points, classification.weights)


@given(st.floats(-5.0, 5.0), st.floats(-30.0, 30.0))
def test_three_factor_classification_designs_are_the_judged_designs(beta1, beta):
    try:
        scenario = ThreeFactorScenario(beta1, beta)
    except ValidationError:
        assume(False)
    assert_classification_judged_alike(classify_three_factor(scenario))


@given(bounds, st.tuples(positive, positive, st.floats(-1.0, 10.0)), st.booleans())
@example((TOL_ULP, TOL_ULP + EDGE[0]), (1.0, 1.0, 1.0), True)
@example((TOL_ULP, TOL_ULP + COINCIDENCE_TOL), (1.0, 2.0, 0.5), False)
def test_interaction_classification_designs_are_the_judged_designs(ab, beta, equal):
    a, b = ab
    beta = (beta[0], beta[0], beta[2]) if equal else beta
    try:
        classification = d_optimal_interaction(a, b, beta)
    except NonpositivePredictor:
        assume(False)
    assert_classification_judged_alike(classification)


@given(bounds, st.floats(-0.49, 50.0))
@example((TOL_ULP, TOL_ULP + COINCIDENCE_TOL), 1.0)
def test_equal_beta_interaction_designs_are_the_judged_designs(ab, ratio):
    a, b = ab
    assert_classification_judged_alike(interaction_equal_beta(a, b, ratio * a))


@pytest.mark.parametrize("span, distinct", [(EDGE[0], False), (EDGE[1], True), (EDGE[2], True)])
def test_vertex_supports_coincide_below_the_tolerance_only(span, distinct):
    """At the edge itself the constructors keep the verdict of the coincidence rule."""
    a = 3 * TOL_ULP
    builds = [
        lambda: d_optimal_two_factor(a, a + span),
        lambda: simplex_design(3, a, a + span),
        lambda: d_optimal_interaction(a, a + span, (1.0, 1.0, 1.0)).design,
        lambda: d_optimal_orthant(3, (span, span, 1.0)),
    ]
    for build in builds:
        if distinct:
            assert isinstance(build(), Design)
        else:
            with pytest.raises(ValidationError, match="pairwise distinct"):
                build()


def test_classification_stated_by_hand_is_judged():
    """Only a classifier's own vertex supports skip the search; the same fields stated by hand are judged."""
    classification = classify_three_factor(ThreeFactorScenario(1.0, 0.0))
    repeated = ((1.0, 1.0, 1.0),) * len(classification.points)
    stated = type(classification)(classification.label, repeated, classification.weights, None)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        stated.design
