"""Property tests of the numeric kernel: batched features, the Cholesky
factor with its log-determinant, the whitened rows and the D- and
A-sensitivities, each against the explicit formula rebuilt in
``oracles``; and the stacked forms of the predictor and the factor,
each against a loop of one-point calls."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gammadesign import (
    Design,
    ExperimentalRegion,
    GammaModel,
    NonpositivePredictor,
    SingularInformation,
    ValidationError,
    feature_matrix,
    features,
    information_matrix,
    region_vertices,
)
from gammadesign.model_core import (
    _a_sensitivities,
    _factor,
    _information,
    _intensity_arrays,
    _outer,
    _positive_predictor,
    _whitened,
)

from oracles import raw_features, raw_information, raw_intensities

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


@given(admissible_designs())
def test_cholesky_logdet_matches_slogdet(case):
    model, beta, design, _ = case
    _, logdet = _factor(information_matrix(model, beta, design))
    sign, expected = np.linalg.slogdet(raw_information(model.kind.value, beta, design.points, design.weights))
    assert sign > 0
    assert logdet == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(admissible_designs())
def test_sensitivities_match_inverse_formula(case):
    model, beta, design, candidates = case
    kind = model.kind.value
    L, _ = _factor(information_matrix(model, beta, design))
    F = raw_features(kind, candidates)
    u = raw_intensities(kind, beta, candidates)
    inv = np.linalg.inv(raw_information(kind, beta, design.points, design.weights))
    psi = u * np.einsum("ij,jk,ik->i", F, inv, F)
    G = F.T * np.sqrt(u)
    # The whitened rows: |z_i|^2 = psi_i and (z_i' z_j)^2 = u_i u_j (f_i' M^-1 f_j)^2,
    # the latter to round-off of its Cauchy-Schwarz bound psi_i psi_j.
    Z = _whitened(L, G)
    np.testing.assert_allclose((Z * Z).sum(axis=0), psi, rtol=1e-10)
    assert np.all(np.abs((Z.T @ Z) ** 2 - np.outer(u, u) * (F @ inv @ F.T) ** 2) <= 1e-10 * np.outer(psi, psi))
    values, bound = _a_sensitivities(L, G)
    np.testing.assert_allclose(values, u * np.einsum("ij,jk,ik->i", F, inv @ inv, F), rtol=1e-10)
    assert bound == pytest.approx(np.trace(inv), rel=1e-10)


# ---------------------------------------------------------------- stacks


@st.composite
def information_stacks(draw):
    """A stack of 1..8 information matrices of one model, each from its own
    design and positive beta on [0.5, 2]^nu with cond(M) < 1e4, and a
    drawn member index."""
    model = draw(MODELS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 8))):
        n = model.p + int(rng.integers(0, 7))
        design = Design([tuple(pt) for pt in rng.uniform(0.5, 2.0, (n, model.nu))], rng.dirichlet(np.ones(n)))
        M = information_matrix(model, rng.uniform(0.1, 2.0, model.p), design)
        assume(np.linalg.cond(M) < 1e4)
        stack.append(M)
    return np.array(stack), draw(st.integers(0, len(stack) - 1))


def _singular(M) -> bool:
    try:
        _factor(M)
    except SingularInformation:
        return True
    return False


@given(information_stacks())
def test_stacked_factor_matches_per_matrix_loop(case):
    stack, _ = case
    L, logdets = _factor(stack)
    assert logdets.shape == (len(stack),)
    for M, L_row, logdet in zip(stack, L, logdets):
        L_one, logdet_one = _factor(M)
        np.testing.assert_allclose(L_row, L_one, rtol=1e-12, atol=0.0)
        assert logdet == pytest.approx(logdet_one, rel=1e-12, abs=1e-12)


@given(information_stacks(), st.sampled_from([-1e-6, 0.0, 1e-17, 1e-14, 1e-13, 1e-12, 1e-11, 1e-9, 1e-4]))
def test_stack_with_one_singular_member_raises_as_that_member_does(case, ratio):
    """One member gets its smallest eigenvalue set to ``ratio`` times its
    largest, across the pivot floor and into indefiniteness."""
    stack, bad = case
    values, vectors = np.linalg.eigh(stack[bad])
    values[0] = ratio * values[-1]
    stack[bad] = (vectors * values) @ vectors.T
    assert not any(_singular(M) for k, M in enumerate(stack) if k != bad)
    if _singular(stack[bad]):
        with pytest.raises(SingularInformation):
            _factor(stack)
    else:
        np.testing.assert_allclose(_factor(stack)[1][bad], _factor(stack[bad])[1], rtol=1e-12)


def _entry_with_floor(square: float, ulps: int) -> float:
    """A diagonal entry X with 1e-12 * X exactly ``ulps`` ulps from ``square``
    in [1, 2), found by ulp steps of X near 1e12, which move the product by
    less than an ulp there."""
    target = square
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    X = target / 1e-12
    while 1e-12 * X < target:
        X = math.nextafter(X, math.inf)
    while 1e-12 * X > target:
        X = math.nextafter(X, -math.inf)
    assert 1e-12 * X == target
    return X


@given(information_stacks(), st.sampled_from([-1, 0, 1]), st.integers(-20, 20))
def test_stack_member_at_the_pivot_floor_raises_as_it_does_alone(case, ulps, power):
    """The member diag(s^2, X, .., X) * 4**power has smallest pivot s * 2**power,
    and its pivot squared lies 1 ulp below the floor 1e-12 * max diag M, on it,
    or 1 ulp above it (``ulps`` = 1, 0, -1): scaling by powers of 4 is exact."""
    stack, bad = case
    s = 1.0 + 2.0**-10  # s^2 is exact, and its ulp neighbours share its binade
    p = stack.shape[-1]
    stack[bad] = np.diag([s * s] + [_entry_with_floor(s * s, ulps)] * (p - 1)) * 4.0**power
    assert _singular(stack[bad]) == (ulps >= 0)
    if ulps >= 0:
        with pytest.raises(SingularInformation):
            _factor(stack)
    else:
        assert _factor(stack)[1][bad] == pytest.approx(_factor(stack[bad])[1], rel=1e-12)


@given(information_stacks(), st.booleans())
def test_stack_member_with_a_nan_pivot_raises(case, last):
    """A nan in M gives a nan pivot; the one-matrix test must not let min() skip it."""
    stack, bad = case
    if last:
        stack[bad, -1, 0] = stack[bad, 0, -1] = np.nan  # only the last pivot is nan
    else:
        stack[bad, 0, 0] = np.nan
    assert np.isnan(np.linalg.cholesky(stack[bad]).diagonal()).any()
    for M in (stack, stack[bad]):
        with pytest.raises(SingularInformation, match="smallest pivot nan"):
            _factor(M)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stack_error_names_the_first_failing_members_smallest_pivot(p):
    """A passing member with smaller pivots comes first, a second failing member last."""
    tiny = 1e-20 * np.eye(p)  # pivots 1e-10, but a well-conditioned matrix
    failing, later = np.eye(p), np.eye(p)
    failing[0, 0], later[0, 0] = 1e-14, 1e-16  # pivots 1e-7 and 1e-8
    with pytest.raises(SingularInformation, match=r"smallest pivot 1\.000e-07\)"):
        _factor(np.array([tiny, failing, tiny, later]))


@given(MODELS, st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_stacked_intensities_match_per_beta_calls(model, seed, size):
    """Positive betas on [0.5, 2]^nu, except one member whose entries may
    be negative: the stack raises exactly when that member does."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.5, 2.0, (int(rng.integers(1, 10)), model.nu))
    betas = rng.uniform(0.1, 2.0, (size, model.p))
    betas[rng.integers(size)] = rng.uniform(-1.5, 2.0, model.p)
    try:
        per_beta = [_intensity_arrays(model, beta, points)[1] for beta in betas]
    except NonpositivePredictor:
        with pytest.raises(NonpositivePredictor):
            _positive_predictor(model, betas, points)
        return
    F, eta = _positive_predictor(model, betas, points)
    np.testing.assert_array_equal(F, feature_matrix(model, points))
    np.testing.assert_allclose(eta**-2, np.array(per_beta), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------- K table and judged arrays


@given(admissible_designs(), st.integers(1, 6))
def test_outer_product_table_gives_single_and_stacked_information(case, size):
    """M = (w u) K over the table K of the outer products: for one weight vector,
    and for a (G, n) stack of w u from G parameter points at once."""
    model, beta, design, _ = case
    kind = model.kind.value
    rng = np.random.default_rng(size)
    betas = np.vstack([beta, rng.uniform(0.1, 2.0, (size - 1, model.p))])
    F, eta = _positive_predictor(model, betas, design._pts)
    u = eta**-2
    K = _outer(F)
    np.testing.assert_allclose(
        _information(K, design._wts * u[0]), raw_information(kind, beta, design.points, design.weights), rtol=1e-12
    )
    stack = _information(K, design._wts * u)
    assert stack.shape == (size, model.p, model.p)
    for M, b in zip(stack, betas):
        np.testing.assert_allclose(M, raw_information(kind, b, design.points, design.weights), rtol=1e-12)


@given(admissible_designs())
def test_design_keeps_read_only_arrays_equal_to_its_tuples(case):
    _, _, design, _ = case
    for array, values in ((design._pts, design.points), (design._wts, design.weights)):
        assert not array.flags.writeable
        assert array.tolist() == [list(v) if isinstance(v, tuple) else v for v in values]
        with pytest.raises(ValueError):
            array[0] = 1.0
    # The arrays are not fields: equality, hashing and repr stay on the tuples.
    twin = Design(list(design.points), list(design.weights))
    assert twin == design and hash(twin) == hash(design) and "_pts" not in repr(design)


@pytest.mark.parametrize("nu", range(1, 9))
def test_region_vertices_is_the_read_only_product_array(nu):
    """One float64 array, row for row the lexicographic product of the bounds, that no caller can write."""
    V = region_vertices(ExperimentalRegion.hypercube(0.5, 3.0, nu))
    expected = np.array(list(itertools.product((0.5, 3.0), repeat=nu)))
    assert V.shape == expected.shape == (2**nu, nu) and (V == expected).all()
    assert V.dtype == np.float64
    with pytest.raises(ValueError):
        V[0, 0] = 1.0
