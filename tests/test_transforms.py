"""Square-to-square intercept transform and the ratio-space geometry."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.spatial import ConvexHull

from gammadesign import (
    Criterion,
    Design,
    GammaModel,
    InteractionLabel,
    UNIT_SQUARE_VERTICES,
    ValidationError,
    d_optimal_interaction,
    first_order_ratio_map,
    induced_polytope_vertices,
    intensity,
    interaction_to_intercept,
    interaction_vertices,
    map_design_interaction,
    map_point_interaction,
    sensitivity,
    unmap_point_interaction,
    verify_intercept_design,
    verify_optimality,
)


# ---------------------------------------------------------------- point map


def test_map_sends_vertices_to_corners():
    for (a, b) in [(1.0, 2.0), (1.0, 4.0), (0.5, 3.0)]:
        assert map_point_interaction((b, b), a, b) == (0.0, 0.0)
        assert map_point_interaction((a, a), a, b) == (1.0, 1.0)


def test_map_coordinatewise_orientation():
    # each coordinate is inverted independently: the first coordinate of
    # the image depends only on x1, so (b,a) lands on (0,1)
    assert map_point_interaction((2.0, 1.0), 1.0, 2.0) == (0.0, 1.0)
    assert map_point_interaction((1.0, 2.0), 1.0, 2.0) == (1.0, 0.0)


def test_map_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.uniform(0.3, 2.0)
        b = a * rng.uniform(1.1, 5.0)
        x = tuple(rng.uniform(a, b, size=2))
        z = map_point_interaction(x, a, b)
        back = unmap_point_interaction(z, a, b)
        np.testing.assert_allclose(back, x, rtol=1e-12)


def test_map_rejects_outside_points():
    with pytest.raises(ValidationError):
        map_point_interaction((0.5, 1.5), 1.0, 2.0)
    with pytest.raises(ValidationError):
        unmap_point_interaction((1.2, 0.0), 1.0, 2.0)


def test_map_design_keeps_weights():
    design = Design(points=[(1.0, 2.0), (2.0, 1.0)], weights=[0.3, 0.7])
    mapped = map_design_interaction(design, 1.0, 2.0)
    assert mapped.points == ((1.0, 0.0), (0.0, 1.0))
    assert mapped.weights == (0.3, 0.7)


# ---------------------------------------------------------------- transform


def test_transform_coefficients():
    t = interaction_to_intercept(1.0, 4.0, (2.0, 3.0, 0.5))
    assert t.beta0 == pytest.approx(0.5 + 5.0 / 4.0)
    assert t.beta1 == pytest.approx(3.0 * 0.75)
    assert t.beta2 == pytest.approx(2.0 * 0.75)
    with pytest.raises(ValidationError):
        interaction_to_intercept(1.0, 1.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        interaction_to_intercept(0.0, 1.0, (1.0, 1.0, 1.0))


def test_transform_fields_are_formed_at_the_scaled_beta():
    """The fields are linear in beta, so at beta 2^1023 times a unit-scale beta they are 2^1023 times its
    fields, exactly. beta0 overflowed to inf, and vertex_intensities() then refused it as non-finite."""
    huge = (1e308, 1e308, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t = interaction_to_intercept(1.0, 2.0, huge)
        unit = interaction_to_intercept(1.0, 2.0, [math.ldexp(c, -1023) for c in huge])
        assert (t.beta0, t.beta1, t.beta2) == tuple(math.ldexp(f, 1023) for f in (unit.beta0, unit.beta1, unit.beta2))
        assert t.vertex_intensities() == (0.0, 0.0, 0.0, 0.0)  # u ~ 1e-616: the saturated true values
    assert d_optimal_interaction(1.0, 2.0, huge).label is InteractionLabel.CASE_V_FOUR_POINT


def test_transform_corner_intensity_equal_coefficients():
    beta, beta3 = 1.5, 0.25
    t = interaction_to_intercept(1.0, 4.0, (beta, beta, beta3))
    c = t.vertex_intensities()
    assert c[3] == pytest.approx((beta3 + 2.0 * beta) ** -2, rel=1e-12)


def test_transform_predictor_identity():
    # the intercept-model predictor at the image point is the original
    # predictor divided by x1*x2, so intensities pick up (x1*x2)^2
    rng = np.random.default_rng(8)
    model = GammaModel.interaction()
    for _ in range(25):
        a = rng.uniform(0.3, 2.0)
        b = a * rng.uniform(1.1, 4.0)
        beta = tuple(rng.uniform(0.1, 2.0, size=3))
        t = interaction_to_intercept(a, b, beta)
        x = tuple(rng.uniform(a, b, size=2))
        z = map_point_interaction(x, a, b)
        eta_x = float(np.dot([x[0], x[1], x[0] * x[1]], beta))
        assert t.predictor(z) * x[0] * x[1] == pytest.approx(eta_x, rel=1e-10)
        assert t.intensity(z) == pytest.approx(
            (x[0] * x[1]) ** 2 * intensity(model, beta, x), rel=1e-10
        )


@given(
    st.integers(-1000, 1000),
    st.tuples(st.floats(0.1, 4.0), st.floats(1.1, 4.0)),
    st.tuples(*[st.floats(0.01, 10.0)] * 3),
)
@example(-665, (1.0, 2.0), (1.0, 1.0, 1.0))  # fields near 1e-200
def test_intercept_intensities_at_every_power_of_two_of_the_fields(k, bounds, beta):
    """At the fields times 2^k the intensities are those at k = 0 times 4^-k where that is representable,
    inf beyond it, and no warning is raised: eta**-2 at fields near 1e-200 overflowed with a warning."""
    a, b = bounds[0], bounds[0] * bounds[1]
    base = interaction_to_intercept(a, b, beta)
    fields = [math.ldexp(f, k) for f in (base.beta0, base.beta1, base.beta2)]
    assume(all(math.ldexp(f, -k) == f0 for f, f0 in zip(fields, (base.beta0, base.beta1, base.beta2))))
    scaled = dataclasses.replace(base, beta0=fields[0], beta1=fields[1], beta2=fields[2])
    z = (0.25, 0.75)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [*scaled.vertex_intensities(), scaled.intensity(z)]
    for u, u0 in zip(got, [*base.vertex_intensities(), base.intensity(z)]):
        try:
            assert u == math.ldexp(u0, -2 * k)
        except OverflowError:
            assert u == math.inf


def test_sensitivity_carried_across_transform():
    model = GammaModel.interaction()
    a, b = 1.0, 4.0
    beta = (0.8, 1.7, 0.3)
    verts = interaction_vertices(a, b)
    design = Design(points=list(verts), weights=[0.1, 0.2, 0.3, 0.4])
    t = interaction_to_intercept(a, b, beta)
    mapped = map_design_interaction(design, a, b)
    for v in verts:
        s_x = sensitivity(model, beta, design, v, Criterion.D)
        report = verify_intercept_design(t, mapped, candidates=[map_point_interaction(v, a, b)])
        assert report.sensitivities[0] == pytest.approx(s_x, rel=1e-9)


def test_verification_outcome_matches_across_transform():
    rng = np.random.default_rng(44)
    model = GammaModel.interaction()
    outcomes = set()
    trials = 0
    while trials < 20:
        a = rng.uniform(0.5, 2.0)
        b = a * rng.uniform(1.2, 4.0)
        beta = tuple(rng.uniform(-1.5, 2.5, size=3))
        verts = interaction_vertices(a, b)
        if any(np.dot([v[0], v[1], v[0] * v[1]], beta) <= 1e-6 for v in verts):
            continue
        trials += 1
        w = rng.dirichlet(np.ones(4))
        design = Design(points=list(verts), weights=list(w))
        report_x = verify_optimality(model, beta, design, Criterion.D, verts)
        t = interaction_to_intercept(a, b, beta)
        report_z = verify_intercept_design(t, map_design_interaction(design, a, b))
        assert report_x.passed == report_z.passed
        np.testing.assert_allclose(
            sorted(report_x.sensitivities), sorted(report_z.sensitivities), rtol=1e-9
        )
        outcomes.add(report_x.passed)
    assert False in outcomes  # random weights are rarely optimal


def test_corner_intensity_rule_matches_classifier():
    # the classifier's three-point cases coincide with one corner of the
    # target square dominating: its squared predictor at least the sum of
    # the other three
    corner_to_label = {
        0: InteractionLabel.CASE_IV,
        1: InteractionLabel.CASE_III,
        2: InteractionLabel.CASE_II,
        3: InteractionLabel.CASE_I,
    }
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 40:
        a = rng.uniform(0.5, 1.5)
        b = a * rng.uniform(1.2, 4.5)
        beta = tuple(rng.uniform(-1.5, 2.5, size=3))
        verts = interaction_vertices(a, b)
        if any(np.dot([v[0], v[1], v[0] * v[1]], beta) <= 1e-6 for v in verts):
            continue
        checked += 1
        c = interaction_to_intercept(a, b, beta).vertex_intensities()
        s = [1.0 / ck for ck in c]
        k = int(np.argmax(s))
        expected = (
            corner_to_label[k]
            if s[k] >= sum(s) - s[k]
            else InteractionLabel.CASE_V_FOUR_POINT
        )
        got = d_optimal_interaction(a, b, beta).label
        assert got is expected, (a, b, beta, got, expected)


# ---------------------------------------------------------------- ratio space


def test_polytope_vertices_unit_case():
    pts = induced_polytope_vertices(1.0, 2.0)
    assert set(pts) == {
        (0.5, 1.0),
        (1.0, 0.5),
        (0.5, 0.5),
        (2.0, 1.0),
        (1.0, 2.0),
        (2.0, 2.0),
    }
    with pytest.raises(ValidationError):
        induced_polytope_vertices(2.0, 1.0)


def test_common_ratio_point_is_interior():
    for (a, b) in [(1.0, 2.0), (1.0, 3.0), (0.4, 1.1)]:
        pts = np.asarray(induced_polytope_vertices(a, b))
        hull = ConvexHull(pts)
        assert len(hull.vertices) == 6  # all six are extreme points
        # strict interiority: every facet inequality holds with slack
        x = np.array([1.0, 1.0])
        slack = hull.equations[:, :2] @ x + hull.equations[:, 2]
        assert np.all(slack < -1e-9)


def test_ratio_map_examples():
    assert first_order_ratio_map((1.0, 1.0, 1.0)) == (1.0, 1.0)
    assert first_order_ratio_map((2.0, 2.0, 2.0)) == (1.0, 1.0)
    assert first_order_ratio_map((1.0, 2.0, 1.0)) == (2.0, 1.0)
    assert first_order_ratio_map((2.0, 1.0)) == (0.5,)
    with pytest.raises(ValidationError):
        first_order_ratio_map((0.0, 1.0, 1.0))


def test_ratio_map_scale_free():
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = tuple(rng.uniform(0.5, 3.0, size=3))
        doubled = tuple(2.0 * c for c in x)
        assert first_order_ratio_map(doubled) == first_order_ratio_map(x)
        tripled = tuple(3.0 * c for c in x)
        np.testing.assert_allclose(
            first_order_ratio_map(tripled), first_order_ratio_map(x), rtol=1e-15
        )


def test_unit_square_vertex_order():
    assert UNIT_SQUARE_VERTICES == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
