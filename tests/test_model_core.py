"""Core types: models, regions, designs, intensities, information matrices."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import gammadesign.model_core
from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    NonpositivePredictor,
    ValidationError,
    d_optimal_two_factor,
    design_from_json,
    design_to_json,
    features,
    information_matrix,
    intensity,
    mix_designs,
    model_from_json,
    model_to_json,
    region_from_json,
    region_to_json,
    region_vertices,
    simplex_design,
    validate_design_region,
    validate_positivity,
    verify_optimality,
)

from gammadesign.model_core import COINCIDENCE_TOL, _has_coincident
from oracles import any_pair_within, raw_information


# ---------------------------------------------------------------- fixtures


def unit_vector(i: int, nu: int) -> tuple[float, ...]:
    return tuple(1.0 if j == i else 0.0 for j in range(nu))


def random_cube_design(rng: np.random.Generator, nu: int, npts: int) -> Design:
    pts = rng.uniform(1.0, 2.0, size=(npts, nu))
    w = rng.dirichlet(np.ones(npts))
    return Design(points=[tuple(p) for p in pts], weights=list(w))


# ---------------------------------------------------------------- model type


def test_model_parameter_counts():
    assert GammaModel.first_order(2).p == 2
    assert GammaModel.first_order(5).p == 5
    assert GammaModel.interaction().p == 3
    assert GammaModel.interaction().nu == 2


def test_model_requires_two_factors():
    with pytest.raises(ValidationError):
        GammaModel.first_order(1)


def test_model_json_round_trip():
    for model in (GammaModel.first_order(3), GammaModel.interaction()):
        obj = model_to_json(model)
        assert set(obj) == {"kind", "nu"}
        assert model_from_json(obj) == model


# ---------------------------------------------------------------- regions


def test_hypercube_bounds_must_be_ordered_and_positive():
    ExperimentalRegion.hypercube(1.0, 2.0, 3)
    with pytest.raises(ValidationError):
        ExperimentalRegion.hypercube(2.0, 1.0, 3)
    with pytest.raises(ValidationError):
        ExperimentalRegion.hypercube(0.0, 1.0, 2)
    with pytest.raises(ValidationError):
        ExperimentalRegion.hypercube(1.0, 1.0, 2)


def test_region_membership():
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 2)
    assert cube.contains((1.0, 2.0))
    assert not cube.contains((0.5, 1.5))
    orthant = ExperimentalRegion.orthant(3)
    assert orthant.contains((0.0, 1.0, 5.0))
    assert not orthant.contains((0.0, 0.0, 0.0))
    assert not orthant.contains((-1.0, 1.0, 1.0))


def test_region_json_round_trip():
    for region in (
        ExperimentalRegion.orthant(4),
        ExperimentalRegion.hypercube(1.0, 4.0, 2),
    ):
        obj = region_to_json(region)
        assert region_from_json(obj) == region
    with pytest.raises(ValidationError):
        region_from_json({"kind": "sphere", "nu": 2})


# ---------------------------------------------------------------- designs


def test_design_weight_validation():
    with pytest.raises(ValidationError):
        Design(points=[(1.0,), (2.0,)], weights=[0.6, 0.6])
    with pytest.raises(ValidationError):
        Design(points=[(1.0,), (2.0,)], weights=[1.2, -0.2])
    with pytest.raises(ValidationError):
        Design(points=[(1.0,), (2.0,)], weights=[1.0, 0.0])


def test_distinct_designs_keep_the_weight_rules():
    """The constructor for judged, pairwise distinct rows skips only the parse and the coincidence search."""
    distinct = lambda points, weights: Design._distinct(np.array(points), np.array(weights))
    for weights in ([0.6, 0.6], [1.2, -0.2], [1.0, 0.0], [1.0, math.nan]):
        with pytest.raises(ValidationError):
            distinct([(1.0,), (2.0,)], weights)
    design = distinct([(1.0, 2.0), (2.0, 1.0)], [0.25, 0.75])
    assert design == Design([(1.0, 2.0), (2.0, 1.0)], [0.25, 0.75])
    assert not design._pts.flags.writeable and not design._wts.flags.writeable


def test_design_points_pairwise_distinct():
    with pytest.raises(ValidationError):
        Design(points=[(1.0, 1.0), (1.0, 1.0)], weights=[0.5, 0.5])
    # differences above the coincidence tolerance are allowed
    Design(points=[(1.0, 1.0), (1.0, 1.0 + 1e-9)], weights=[0.5, 0.5])


# Coordinates within, at and beyond the coincidence tolerance of each other;
# 0, 9e-13, 1.4e-12 and 2e-12 chain across more than the tolerance.
NEAR_COORDINATES = (0.0, 1e-13, -1e-13, 5e-13, 9e-13, 1.4e-12, 2e-12, 1.0, 1.0 + 1e-13, 1.0 - 1e-13)


@given(
    st.integers(1, 4).flatmap(
        lambda dim: st.lists(st.tuples(*[st.sampled_from(NEAR_COORDINATES)] * dim), max_size=12)
    )
)
# The last point links the others on the first axis and leaves on the second,
# so the one coincident pair, the first and third, is adjacent in neither order.
@example([(0.0, 0.0), (1.4e-12, 1e-13), (0.0, 5e-13), (9e-13, 1.0)])
def test_coincidence_search_matches_all_pairs_oracle(points):
    assert _has_coincident(points) == any_pair_within(points, COINCIDENCE_TOL)


def test_coincidence_search_compares_few_pairs_on_grids(counted_calls):
    compared = counted_calls(gammadesign.model_core, "_coincident")
    cube = list(itertools.product((1.0, 2.0), repeat=10))
    grid = list(itertools.product(np.linspace(1.0, 2.0, 45).tolist(), repeat=2))
    for points in (cube, grid):
        compared.clear()
        Design(points, [1.0 / len(points)] * len(points))
        assert sum(len(seen) for _, seen in compared) <= len(points)  # all pairs: n(n-1)/2


def test_design_rejects_ragged_or_nonfinite_points():
    with pytest.raises(ValidationError):
        Design(points=[(1.0, 2.0), (1.0,)], weights=[0.5, 0.5])
    with pytest.raises(ValidationError):
        Design(points=[(np.inf, 2.0)], weights=[1.0])


@pytest.mark.parametrize(
    "points, weights",
    [([[1, None]], [1.0]), ([["a", 1]], [1.0]), ([[1, 2]], ["x"]), ([[1, 2]], [None]), ([1, 2], [1.0])],
    ids=["none_coordinate", "string_coordinate", "string_weight", "none_weight", "bare_numbers"],
)
def test_design_rejects_malformed_input(points, weights):
    """Each of these raised a bare TypeError or ValueError before the point
    and weight checks became one canonicalizer."""
    with pytest.raises(ValidationError):
        Design(points, weights)


def test_design_json_round_trip():
    design = Design(points=[(1.0, 2.0), (2.0, 1.0)], weights=[0.25, 0.75])
    obj = design_to_json(design)
    assert set(obj) == {"points", "weights"}
    assert design_from_json(obj) == design


@pytest.mark.parametrize(
    "clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"]
)
def test_design_copies_keep_their_judged_arrays_read_only(clone):
    """A deep copy's arrays were writable: written, the copy still compared equal
    to its original while its information matrix differed."""
    model, beta = GammaModel.first_order(2), (1.0, 1.0)
    design = Design(points=[(1.0, 2.0), (2.0, 1.0)], weights=[0.25, 0.75])
    twin = clone(design)
    for array in (twin._pts, twin._wts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert twin == design
    np.testing.assert_array_equal(information_matrix(model, beta, twin), information_matrix(model, beta, design))


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda d: pickle.loads(pickle.dumps(d)),
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "read"])
@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_lazy_designs_copy_compare_and_print_as_built(clone, read_first):
    """A design keeps arrays and builds its tuples on first read. Copies made before or after that read
    equal their original, hash and print alike, and keep read-only arrays bitwise the original's."""
    design = d_optimal_two_factor(1.0, 3.0)
    built = Design([(1.0, 3.0), (3.0, 1.0)], [0.5, 0.5])
    if read_first:
        assert (design.points, design.weights) == (((1.0, 3.0), (3.0, 1.0)), (0.5, 0.5))
    twin = clone(design)
    for array, original in ((twin._pts, design._pts), (twin._wts, design._wts)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
        assert array.tobytes() == original.tobytes()
    for other in (design, built):
        assert twin == other and hash(twin) == hash(other) and repr(twin) == repr(other)
    assert repr(twin) == "Design(points=((1.0, 3.0), (3.0, 1.0)), weights=(0.5, 0.5))"


def test_replaced_designs_are_judged_again():
    design = d_optimal_two_factor(1.0, 3.0)
    assert dataclasses.replace(design, weights=(0.25, 0.75)).weights == (0.25, 0.75)
    with pytest.raises(ValidationError, match="pairwise distinct"):
        dataclasses.replace(design, points=((1.0, 3.0), (1.0, 3.0)))
    with pytest.raises(ValidationError, match="sum to one"):
        dataclasses.replace(design, weights=(0.5, 0.6))


def test_size_dimension_and_verification_build_no_tuples():
    model, beta = GammaModel.first_order(4), (1.0, 1.0, 1.0, 1.0)
    for design in (simplex_design(4, 1.0, 2.0), Design(list(map(tuple, np.eye(4) + 1.0)), [0.25] * 4)):
        assert design.size == 4 and design.dimension == 4
        verify_optimality(model, beta, design, Criterion.D, region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, 4)))
        information_matrix(model, beta, design)
        assert "points" not in vars(design) and "weights" not in vars(design)
        assert design.points[0] == (2.0, 1.0, 1.0, 1.0)  # built on this first read, then kept
        assert vars(design)["points"] is design.points


def test_design_from_json_repairs_rounded_weights():
    # ten-significant-digit serialization loses up to ~1e-10 of the sum
    obj = {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "weights": [0.3333333333] * 3}
    design = design_from_json(obj)
    assert sum(design.weights) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        design_from_json({"points": [[1], [2]], "weights": [0.5, 0.499]})
    with pytest.raises(ValidationError):
        design_from_json({"points": [[1]], "weights": ["x"]})


def test_design_region_validation():
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 2)
    inside = Design(points=[(1.0, 2.0)], weights=[1.0])
    validate_design_region(inside, cube)
    outside = Design(points=[(1.0, 2.5)], weights=[1.0])
    with pytest.raises(ValidationError):
        validate_design_region(outside, cube)


# ---------------------------------------------------------------- features


def test_features_examples():
    m3 = GammaModel.first_order(3)
    assert features(m3, (1.0, 2.0, 1.0)).tolist() == [1.0, 2.0, 1.0]
    mi = GammaModel.interaction()
    assert features(mi, (2.0, 3.0)).tolist() == [2.0, 3.0, 6.0]
    m2 = GammaModel.first_order(2)
    assert features(m2, (0.0, 1.0)).tolist() == [0.0, 1.0]


def test_features_dimension_mismatch():
    with pytest.raises(ValidationError):
        features(GammaModel.first_order(3), (1.0, 2.0))
    with pytest.raises(ValidationError):
        features(GammaModel.interaction(), (1.0, 2.0, 3.0))


# ---------------------------------------------------------------- intensity


def test_intensity_examples():
    m3 = GammaModel.first_order(3)
    assert intensity(m3, (1.0, 1.0, 1.0), (2.0, 1.0, 1.0)) == pytest.approx(1.0 / 16.0)
    m2 = GammaModel.first_order(2)
    assert intensity(m2, (1.0, 1.0), (1.0, 0.0)) == pytest.approx(1.0)
    mi = GammaModel.interaction()
    assert intensity(mi, (1.0, 1.0, 1.0), (1.0, 1.0)) == pytest.approx(1.0 / 9.0)


def test_intensity_rejects_nonpositive_predictor():
    m2 = GammaModel.first_order(2)
    with pytest.raises(NonpositivePredictor):
        intensity(m2, (1.0, -1.0), (1.0, 1.0))  # predictor exactly 0
    with pytest.raises(NonpositivePredictor):
        intensity(m2, (-1.0, -1.0), (1.0, 1.0))


# ---------------------------------------------------------------- information


def test_information_single_point():
    m2 = GammaModel.first_order(2)
    design = Design(points=[(1.0, 0.0)], weights=[1.0])
    M = information_matrix(m2, (1.0, 1.0), design)
    np.testing.assert_allclose(M, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_information_two_axis_points():
    m2 = GammaModel.first_order(2)
    design = Design(points=[(1.0, 0.0), (0.0, 1.0)], weights=[0.5, 0.5])
    M = information_matrix(m2, (1.0, 1.0), design)
    np.testing.assert_allclose(M, np.diag([0.5, 0.5]), atol=1e-15)


def test_information_scale_free_in_x_for_first_order():
    rng = np.random.default_rng(20240811)
    m3 = GammaModel.first_order(3)
    beta = (0.5, 1.0, 2.0)
    design = random_cube_design(rng, 3, 5)
    scaled = Design(
        points=[tuple(2.0 * c for c in p) for p in design.points],
        weights=list(design.weights),
    )
    M = information_matrix(m3, beta, design)
    M2 = information_matrix(m3, beta, scaled)
    np.testing.assert_allclose(M2, M, rtol=1e-12)


def test_information_matches_direct_assembly():
    rng = np.random.default_rng(7)
    m3 = GammaModel.first_order(3)
    beta = (1.0, 0.3, 0.7)
    design = random_cube_design(rng, 3, 6)
    expected = raw_information("first_order", beta, design.points, design.weights)
    np.testing.assert_allclose(information_matrix(m3, beta, design), expected, rtol=1e-13)


def test_information_symmetric_psd():
    rng = np.random.default_rng(99)
    mi = GammaModel.interaction()
    beta = (1.0, 2.0, 0.5)
    design = random_cube_design(rng, 2, 4)
    M = information_matrix(mi, beta, design)
    np.testing.assert_allclose(M, M.T, atol=1e-12)
    assert np.linalg.eigvalsh(M).min() >= -1e-10


def test_information_beta_scaling():
    """Scaling β by λ scales M by λ⁻² and det by λ^(-2p)."""
    rng = np.random.default_rng(13)
    m3 = GammaModel.first_order(3)
    beta = np.array([1.0, 2.0, 0.5])
    design = random_cube_design(rng, 3, 5)
    M = information_matrix(m3, beta, design)
    for lam in (0.1, 3.0, 7.0):
        Ms = information_matrix(m3, lam * beta, design)
        np.testing.assert_allclose(Ms, M / lam**2, rtol=1e-12)
        np.testing.assert_allclose(
            np.linalg.det(Ms), np.linalg.det(M) * lam ** (-2 * 3), rtol=1e-10
        )


def test_information_rank_independent_of_beta():
    # a two-point design in three factors is rank deficient for every β
    m3 = GammaModel.first_order(3)
    thin = Design(points=[(1.0, 1.0, 1.0), (2.0, 1.0, 1.0)], weights=[0.5, 0.5])
    full = Design(
        points=[(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)],
        weights=[0.25, 0.25, 0.25, 0.25],
    )
    for design, expected_rank in ((thin, 2), (full, 3)):
        for beta in ((1.0, 1.0, 1.0), (0.3, 2.0, 0.9)):
            M = information_matrix(m3, beta, design)
            assert np.linalg.matrix_rank(M, tol=1e-10) == expected_rank


def test_information_linear_in_mixture():
    rng = np.random.default_rng(21)
    m2 = GammaModel.first_order(2)
    beta = (1.5, 0.8)
    d1 = random_cube_design(rng, 2, 3)
    d2 = random_cube_design(rng, 2, 4)
    mixed = mix_designs([d1, d2], [0.3, 0.7])
    expected = 0.3 * information_matrix(m2, beta, d1) + 0.7 * information_matrix(
        m2, beta, d2
    )
    np.testing.assert_allclose(information_matrix(m2, beta, mixed), expected, rtol=1e-12)


CUBE3_DESIGN = Design(list(itertools.product((1.0, 2.0), repeat=3)), [0.125] * 8)


@given(
    st.integers(-1000, 1000),
    st.one_of(
        st.sampled_from([(1.0, 0.1, 0.2), (1.0, 2.0, 2.0), (-1.0, 2.9, 2.9), (0.0, 1.0, 1.0)]),
        st.tuples(*[st.floats(0.01, 100.0)] * 3),
    ),
)
@example(-664, (1.0, 2.0, 2.0))
@example(664, (1.0, 2.0, 2.0))
def test_intensity_and_information_at_every_power_of_two_of_beta(k, beta):
    """u and M at 2^k beta are u and M at beta times 4^-k, with no warning: exactly
    within the float range, saturating to inf or 0 beyond it. Read at the raw beta,
    u at (1, 2, 2) 2^-664 warned "overflow encountered in power"."""
    m3 = GammaModel.first_order(3)
    scaled = [math.ldexp(b, k) for b in beta]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, scaled_u = (intensity(m3, b, (2.0, 1.0, 1.0)) for b in (beta, scaled))
        M, scaled_M = (information_matrix(m3, b, CUBE3_DESIGN) for b in (beta, scaled))
        with np.errstate(over="ignore"):
            expected_u, expected_M = np.ldexp(u, -2 * k), np.ldexp(M, -2 * k)
    assert scaled_u == expected_u
    np.testing.assert_array_equal(scaled_M, expected_M)
    if abs(k) <= 200:
        assert scaled_u == math.ldexp(u, -2 * k) > 0.0
        assert scaled_M.tolist() == [[math.ldexp(m, -2 * k) for m in row] for row in M.tolist()]


def exact_intensity(beta, x) -> Fraction:
    return 1 / sum(Fraction(b) * Fraction(v) for b, v in zip(beta, x)) ** 2


MANTISSAS = st.floats(1.0, 2.0)


@given(st.tuples(*[st.tuples(MANTISSAS, st.integers(-500, 500))] * 2, *[st.tuples(MANTISSAS, st.integers(-1000, 1000))] * 2))
@example(((1.0, 300), (1.0, -300), (1.0, -600), (1.0, -100)))
def test_intensity_at_mixed_magnitudes_is_the_exact_value(draws):
    """u from beta and x of mixed magnitudes is the exact u wherever that is a normal float. At beta scaled by
    ``_tamed``, eta**-2 overflowed where eta fell below about 1e-154: at beta (2^300, 2^-300) and x (2^-600,
    2^-100) the intensity read inf, not about 2^600."""
    beta, x = [tuple(math.ldexp(m, e) for m, e in pair) for pair in (draws[:2], draws[2:])]
    exact = exact_intensity(beta, x)
    assume(2.0**-1000 < exact < 2.0**1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = intensity(GammaModel.first_order(2), beta, x)
    assert abs(Fraction(u) - exact) <= 1e-15 * exact, (beta, x, u, float(exact))


def test_intensity_and_information_at_the_mixed_magnitudes_that_overflowed():
    """Both read inf or nan at the parent: eta at the scaled beta is about 1e-160 and 1e-155."""
    m2 = GammaModel.first_order(2)
    assert intensity(m2, (1e100, 0.0), (1e-160, 1.0)) == float(exact_intensity((1e100, 0.0), (1e-160, 1.0))) == 1e120
    beta, points = (1e100, 1e-100), [(1e-155, 5.0), (3.0, 5.0)]
    exact = [[float(sum(exact_intensity(beta, x) * Fraction(x[i]) * Fraction(x[j]) / 2 for x in points)) for j in (0, 1)] for i in (0, 1)]
    np.testing.assert_allclose(information_matrix(m2, beta, Design(points, [0.5, 0.5])), exact, rtol=1e-12)


# ---------------------------------------------------------------- positivity


def test_positivity_examples():
    assert validate_positivity(
        GammaModel.first_order(2), (1.0, 2.0), ExperimentalRegion.orthant(2)
    )
    assert validate_positivity(
        GammaModel.first_order(3), (-1.0, 2.0, 2.0), ExperimentalRegion.hypercube(1.0, 2.0, 3)
    )
    assert not validate_positivity(
        GammaModel.interaction(), (1.0, 1.0, -1.0), ExperimentalRegion.hypercube(1.0, 2.0, 2)
    )


def test_positivity_orthant_rules():
    m2 = GammaModel.first_order(2)
    orthant2 = ExperimentalRegion.orthant(2)
    assert not validate_positivity(m2, (1.0, 0.0), orthant2)
    assert not validate_positivity(m2, (1.0, -0.1), orthant2)
    mi = GammaModel.interaction()
    assert validate_positivity(mi, (1.0, 1.0, 0.0), orthant2)
    assert validate_positivity(mi, (2.0, 3.0, 1.0), orthant2)
    assert not validate_positivity(mi, (1.0, 1.0, -0.1), orthant2)
    assert not validate_positivity(mi, (0.0, 1.0, 1.0), orthant2)


def test_positivity_cube_decided_at_vertices():
    # β makes the predictor positive at all 4 vertices but only barely
    mi = GammaModel.interaction()
    cube = ExperimentalRegion.hypercube(1.0, 2.0, 2)
    assert validate_positivity(mi, (1.0, 1.0, -0.99), cube)
    assert not validate_positivity(mi, (1.0, 1.0, -1.0), cube)


# ---------------------------------------------------------------- mixtures


def test_mix_identity():
    design = Design(points=[(1.0, 2.0), (2.0, 1.0)], weights=[0.4, 0.6])
    assert mix_designs([design], [1.0]) == design


def test_mix_disjoint_supports():
    d1 = Design(points=[(1.0, 1.0)], weights=[1.0])
    d2 = Design(points=[(2.0, 2.0)], weights=[1.0])
    mixed = mix_designs([d1, d2], [0.5, 0.5])
    assert mixed.points == ((1.0, 1.0), (2.0, 2.0))
    assert mixed.weights == (0.5, 0.5)


def test_mix_merges_copies():
    design = Design(points=[(1.0, 2.0), (2.0, 1.0)], weights=[0.4, 0.6])
    assert mix_designs([design, design], [0.5, 0.5]) == design


def test_mix_merges_within_tolerance():
    d1 = Design(points=[(1.0, 1.0)], weights=[1.0])
    d2 = Design(points=[(1.0, 1.0 + 1e-14)], weights=[1.0])
    mixed = mix_designs([d1, d2], [0.25, 0.75])
    assert mixed.size == 1
    assert mixed.weights == (1.0,)


def test_mix_input_validation():
    design = Design(points=[(1.0, 1.0)], weights=[1.0])
    with pytest.raises(ValidationError):
        mix_designs([], [])
    with pytest.raises(ValidationError):
        mix_designs([design, design], [0.7, 0.7])
    with pytest.raises(ValidationError):
        mix_designs([design, design], [1.5, -0.5])
