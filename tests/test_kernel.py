"""Property tests of the numeric kernel: batched features, the Cholesky
factor with its log-determinant, and the D- and A-sensitivities, each
against the explicit formula rebuilt in ``oracles``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gammadesign import Design, GammaModel, ValidationError, feature_matrix, features, information_matrix
from gammadesign.model_core import _a_sensitivities, _d_sensitivities, _factor

from oracles import raw_features, raw_information, raw_intensities

# Derandomized so that tier-1 runs the same examples every time.
KERNEL = settings(max_examples=200, deadline=None, derandomize=True)

MODELS = st.one_of(st.integers(2, 6).map(GammaModel.first_order), st.just(GammaModel.interaction()))


@st.composite
def model_and_points(draw):
    model = draw(MODELS)
    coordinate = st.floats(-1e3, 1e3, allow_nan=False)
    point = st.lists(coordinate, min_size=model.nu, max_size=model.nu)
    return model, draw(st.lists(point, min_size=1, max_size=12))


@st.composite
def admissible_designs(draw):
    """A model, a positive beta and a design on [0.5, 2]^nu, so that the
    predictor is positive at every support point and candidate.

    Two backward-stable routes to log det M or M^-1 agree only to about
    cond(M) * eps, so the designs kept have cond(M) < 1e4 (about 95% of
    the draws).
    """
    model = draw(MODELS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = model.p + draw(st.integers(0, 6))
    design = Design([tuple(pt) for pt in rng.uniform(0.5, 2.0, (n, model.nu))], rng.dirichlet(np.ones(n)))
    beta = rng.uniform(0.1, 2.0, model.p)
    assume(np.linalg.cond(raw_information(model.kind.value, beta, design.points, design.weights)) < 1e4)
    candidates = np.vstack([design.points, rng.uniform(0.5, 2.0, (10, model.nu))])
    return model, beta, design, candidates


@KERNEL
@given(model_and_points())
def test_feature_matrix_matches_oracle_and_features(case):
    model, points = case
    F = feature_matrix(model, points)
    np.testing.assert_array_equal(F, raw_features(model.kind.value, points))
    for row, x in zip(F, points):
        np.testing.assert_array_equal(row, features(model, x))


@pytest.mark.parametrize("points", [[[1.0, 2.0], [1.0]], [[1.0, "a"]], [1.0, 2.0], [[1.0, np.inf]], {"x": 1}])
def test_feature_matrix_rejects_malformed_batches(points):
    with pytest.raises(ValidationError):
        feature_matrix(GammaModel.first_order(2), points)


@KERNEL
@given(admissible_designs())
def test_cholesky_logdet_matches_slogdet(case):
    model, beta, design, _ = case
    _, logdet = _factor(information_matrix(model, beta, design))
    sign, expected = np.linalg.slogdet(raw_information(model.kind.value, beta, design.points, design.weights))
    assert sign > 0
    assert logdet == pytest.approx(expected, rel=1e-12, abs=1e-12)


@KERNEL
@given(admissible_designs())
def test_sensitivities_match_inverse_formula(case):
    model, beta, design, candidates = case
    kind = model.kind.value
    L, _ = _factor(information_matrix(model, beta, design))
    F = raw_features(kind, candidates)
    u = raw_intensities(kind, beta, candidates)
    inv = np.linalg.inv(raw_information(kind, beta, design.points, design.weights))
    np.testing.assert_allclose(_d_sensitivities(L, F, u), u * np.einsum("ij,jk,ik->i", F, inv, F), rtol=1e-10)
    values, bound = _a_sensitivities(L, F, u)
    np.testing.assert_allclose(values, u * np.einsum("ij,jk,ik->i", F, inv @ inv, F), rtol=1e-10)
    assert bound == pytest.approx(np.trace(inv), rel=1e-10)
