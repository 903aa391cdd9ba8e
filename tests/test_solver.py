"""Certified D-optimal weight solver on finite candidate sets."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import gammadesign.model_core
import gammadesign.solver
from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    IterationCapExceeded,
    NonpositivePredictor,
    RankDeficientCandidates,
    SolverParams,
    ThreeFactorFamily,
    ValidationError,
    gamma_grid,
    information_matrix,
    multiplicative,
    region_vertices,
    three_factor_vertices,
    validate_positivity,
    verify_optimality,
)

from oracles import best_logdet_weights, det_information


CUBE3 = ExperimentalRegion.hypercube(1.0, 2.0, 3)
V = three_factor_vertices()


def cube_weights(beta, **kw):
    design, trace = multiplicative(
        GammaModel.first_order(3), beta, region_vertices(CUBE3), **kw
    )
    return dict(zip(design.points, design.weights)), trace


# ---------------------------------------------------------------- parameters


def test_params_validation():
    SolverParams(10, 1e-6)
    with pytest.raises(ValidationError):
        SolverParams(max_iterations=0)
    with pytest.raises(ValidationError):
        SolverParams(convergence_tol=0.0)


def test_vertex_array_and_vertex_tuples_give_equal_solves():
    vertices = region_vertices(CUBE3)
    solve = lambda candidates: multiplicative(GammaModel.first_order(3), (-1.0, 2.0, 2.0), candidates)
    assert solve(vertices) == solve(list(map(tuple, vertices.tolist())))


# ---------------------------------------------------------------- benchmarks


def test_recovers_tabulated_weights_at_minus_two():
    w, trace = cube_weights((-1.0, 2.0, 2.0))
    assert trace.converged
    assert w.get(V[0], 0.0) < 1e-4 and w.get(V[4], 0.0) < 1e-4 and w.get(V[7], 0.0) < 1e-4
    assert w[V[1]] == pytest.approx(0.3125, abs=2e-3)
    assert w[V[2]] == pytest.approx(0.2604, abs=2e-3)
    assert w[V[3]] == pytest.approx(0.2604, abs=2e-3)
    assert w[V[5]] == pytest.approx(0.0833, abs=2e-3)
    assert w[V[6]] == pytest.approx(0.0833, abs=2e-3)


def test_recovers_tabulated_weights_at_minus_two_point_nine():
    w, _ = cube_weights((-1.0, 2.9, 2.9))
    assert w[V[1]] == pytest.approx(0.3312, abs=2e-3)
    assert w[V[2]] == pytest.approx(0.3285, abs=2e-3)
    assert w[V[3]] == pytest.approx(0.3285, abs=2e-3)
    assert w[V[5]] == pytest.approx(0.0059, abs=2e-3)
    assert w[V[6]] == pytest.approx(0.0059, abs=2e-3)


def test_recovers_axis_closed_form():
    m3 = GammaModel.first_order(3)
    axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    for beta in ((1.0, 1.0, 1.0), (0.2, 5.0, 1.3)):
        design, trace = multiplicative(m3, beta, axes)
        assert trace.converged
        np.testing.assert_allclose(design.weights, (1 / 3,) * 3, atol=1e-6)


def test_matches_projected_search_oracle():
    for beta in ((-1.0, 1.5, 1.5), (-1.0, 2.5, 2.5)):
        design, _ = multiplicative(GammaModel.first_order(3), beta, region_vertices(CUBE3))
        d_solver = det_information("first_order", beta, design.points, design.weights)
        _, logdet = best_logdet_weights("first_order", beta, region_vertices(CUBE3))
        assert d_solver == pytest.approx(np.exp(logdet), rel=1e-4)


# ---------------------------------------------------------------- invariants


def test_logdet_sequence_monotone():
    for beta in ((-1.0, 2.0, 2.0), (-1.0, 1.3, 1.3), (1.0, 0.0, 0.0)):
        _, trace = cube_weights(beta)
        lds = np.asarray(trace.log_dets)
        assert lds.size == trace.iterations + 1
        drops = np.diff(lds)
        assert np.all(drops >= -1e-12 * np.abs(lds[:-1]))


def test_symmetric_coefficients_give_symmetric_weights():
    w, _ = cube_weights((-1.0, 1.7, 1.7))
    assert w[V[2]] == pytest.approx(w[V[3]], abs=1e-6)
    assert w[V[5]] == pytest.approx(w[V[6]], abs=1e-6)


def test_output_stable_under_beta_scaling():
    w1, _ = cube_weights((-1.0, 2.0, 2.0))
    w2, _ = cube_weights((-7.0, 14.0, 14.0))
    assert set(w1) == set(w2)
    for pt in w1:
        assert w1[pt] == pytest.approx(w2[pt], abs=1e-8)


def _scale_case(seed):
    """[1,2]^3 at (-1, 2, 2) for seed None, else a random admissible beta on a random cube of 4 to 6 factors."""
    if seed is None:
        return GammaModel.first_order(3), (-1.0, 2.0, 2.0), region_vertices(CUBE3)
    rng = np.random.default_rng(seed)
    nu = int(rng.integers(4, 7))
    a = rng.uniform(0.5, 2.0)
    region = ExperimentalRegion.hypercube(a, a * rng.uniform(1.5, 4.0), nu)
    model = GammaModel.first_order(nu)
    while True:
        beta = tuple(rng.uniform(-1.0, 3.0, nu).tolist())
        if validate_positivity(model, beta, region):
            return model, beta, region_vertices(region)


@given(st.one_of(st.none(), st.integers(0, 2**32 - 1)), st.integers(-1000, 1000))
@example(None, 664)
@example(None, -664)
def test_solve_is_the_same_at_every_power_of_two_scale_of_beta(seed, k):
    """The solver forms G at beta scaled by a power of two, so at 2^k beta it takes the same iterates and
    only its log-dets move, by -2pk ln 2. Forming G at the raw beta, (-1, 2, 2) 2^664 underflowed M to a
    rank-deficient matrix, and 2^-664 overflowed it."""
    model, beta, candidates = _scale_case(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        design, trace = multiplicative(model, beta, candidates)
        scaled_design, scaled_trace = multiplicative(model, [math.ldexp(value, k) for value in beta], candidates)
    assert scaled_design == design
    assert (scaled_trace.iterations, scaled_trace.final_excess) == (trace.iterations, trace.final_excess)
    shift = 2 * model.p * k * math.log(2.0)
    assert scaled_trace.log_dets == pytest.approx([ld - shift for ld in trace.log_dets], rel=1e-12)


def test_result_passes_verification():
    params = SolverParams(convergence_tol=1e-9)
    design, trace = multiplicative(
        GammaModel.first_order(3), (-1.0, 2.0, 2.0), region_vertices(CUBE3), params
    )
    report = verify_optimality(
        GammaModel.first_order(3),
        (-1.0, 2.0, 2.0),
        design,
        Criterion.D,
        region_vertices(CUBE3),
        tol=1e-8,
    )
    assert report.passed
    assert trace.final_excess <= 1e-9


def test_converged_design_is_the_certified_iterate():
    # Pruning small weights after convergence would return a design with
    # excess 4.0e-7 here while the trace reports 9.9e-9.
    m4 = GammaModel.first_order(4)
    beta = (-0.05, 1.02, 0.79, 0.55)
    V4 = region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, 4))
    params = SolverParams()
    design, trace = multiplicative(m4, beta, V4, params)
    assert trace.converged
    report = verify_optimality(m4, beta, design, Criterion.D, V4, tol=params.convergence_tol)
    assert report.passed
    assert report.worst_excess == pytest.approx(trace.final_excess, abs=1e-12)
    # the design is the last iterate itself: nothing dropped, nothing rescaled
    assert all(w > 0.0 for w in design.weights)
    assert math.fsum(design.weights) == pytest.approx(1.0, abs=1e-15)
    _, logdet = np.linalg.slogdet(information_matrix(m4, beta, design))
    assert logdet == pytest.approx(trace.log_dets[-1], abs=1e-12)


@given(a=st.floats(0.5, 2.0), ratio=st.floats(1.2, 4.0), beta=st.lists(st.floats(-1.0, 3.0), min_size=3, max_size=6))
@example(a=1.0, ratio=2.0, beta=[-1.0, 2.9, 2.9])
@example(a=1.0, ratio=2.0, beta=[-1.0, 2.5, 2.5])
@example(a=1.0, ratio=2.0, beta=[-1.0, 2.0, 2.0])
@example(a=1.0, ratio=2.0, beta=[-1.0, 1.5, 1.5])
@example(a=1.0, ratio=2.0, beta=[-1.0, 1.23, 1.23])
def test_converged_solves_verify_at_the_default_tolerance(a, ratio, beta):
    """A solve that reports converged returns a design that verifies at the default tolerance, on an
    admissible cube of 3 to 6 factors and at the five betas of table 2, with the solver's excess as its
    worst excess bit for bit. With a solver default of 1e-8, table 2's gamma = -2.9 converged at excess
    1.22e-9 and failed verification at 1e-9."""
    model, cube = GammaModel.first_order(len(beta)), ExperimentalRegion.hypercube(a, a * ratio, len(beta))
    assume(validate_positivity(model, beta, cube))
    vertices = region_vertices(cube)
    design, trace = multiplicative(model, beta, vertices)
    assert trace.converged
    report = verify_optimality(model, beta, design, Criterion.D, vertices)
    assert report.passed, trace.final_excess
    assert report.worst_excess == trace.final_excess


def test_band_certifies_within_factorization_budget(monkeypatch):
    """At most 200 factorizations per band ratio, and exactly one whitening
    of the candidates per factorization."""
    factorizations, whitenings = [], []
    factor, whitened = gammadesign.solver._factor, gammadesign.solver._whitened

    def counting(M):
        factorizations.append(M)
        return factor(M)

    def counting_whitened(L, G):
        whitenings.append(L)
        return whitened(L, G)

    monkeypatch.setattr(gammadesign.solver, "_factor", counting)
    monkeypatch.setattr(gammadesign.solver, "_whitened", counting_whitened)
    params = SolverParams(convergence_tol=1e-10)
    m3 = GammaModel.first_order(3)
    for gamma in (*gamma_grid(-2.99, -1.21, 0.01), -2.999, -1.2001, -1.2000000000000002):
        beta = (-1.0, -gamma, -gamma)
        factorizations.clear()
        whitenings.clear()
        design, trace = multiplicative(m3, beta, region_vertices(CUBE3), params)
        assert trace.converged and len(factorizations) <= 200, gamma
        assert len(whitenings) == len(factorizations), gamma
        assert verify_optimality(m3, beta, design, Criterion.D, region_vertices(CUBE3), tol=1e-9).passed, gamma


@pytest.mark.parametrize("gamma", [-2.0, -1.5])
def test_multiplicative_steps_certify_table2(monkeypatch, gamma):
    """With the Newton working set capped at 4 points, table 2's iterates take no Newton step, so every
    iterate but the deletions (at most one per candidate) is multiplicative: 157 and 89 of them. The solve
    still certifies, verifies at its own tolerance, and its log det never falls by more than round-off."""
    newton_steps = []
    kkt_step = gammadesign.solver._kkt_step

    def counting(H, rhs):
        newton_steps.append(len(rhs))
        return kkt_step(H, rhs)

    monkeypatch.setattr(gammadesign.solver, "_NEWTON_MAX_POINTS", 4)
    monkeypatch.setattr(gammadesign.solver, "_kkt_step", counting)
    m3, beta, params = GammaModel.first_order(3), (-1.0, -gamma, -gamma), SolverParams()
    design, trace = multiplicative(m3, beta, V, params)
    assert newton_steps == [] and trace.iterations > 8 + 80
    assert trace.converged and trace.final_excess <= params.convergence_tol
    assert verify_optimality(m3, beta, design, Criterion.D, V, tol=params.convergence_tol).passed
    assert np.diff(trace.log_dets).min() >= -1e-13


def test_gain_of_a_change_that_removes_all_weight_is_minus_infinity():
    """Four support points of weight 1/4 whitened to 2 e_i (so M = I): removing every weight leaves
    M = 0, whose eigenvalue change is exactly -1."""
    assert gammadesign.solver._gain(2.0 * np.eye(4), np.full(4, -0.25)) == -math.inf


# ---------------------------------------------------------------- parameter paths

TABLE2_BETAS = [(-1.0, -gamma, -gamma) for gamma in (-2.9, -2.5, -2.0, -1.5, -1.23)]
BAND_BETAS = [(-1.0, -gamma, -gamma) for gamma in gamma_grid(-2.99, -1.21, 0.01)]


@pytest.mark.parametrize("betas, params", [(TABLE2_BETAS, SolverParams()), (BAND_BETAS, SolverParams(convergence_tol=1e-10))], ids=["table2", "band"])
def test_path_points_match_their_cold_solves(betas, params):
    """Each warm-started point's weights over the judged candidates make a design that
    verifies, has the support and log det of its cold solve, and takes no more
    iterations; its trace keeps the trace contract."""
    m3 = GammaModel.first_order(3)
    X, path = gammadesign.solver._solve_path(m3, betas, V, params)
    assert X.tolist() == [list(v) for v in V] and len(path) == len(betas)
    for beta, (w, trace) in zip(betas, path):
        assert w.shape == (len(V),) and w.min() >= 0.0, beta
        design = Design(X[w > 0.0], w[w > 0.0])
        cold, cold_trace = multiplicative(m3, beta, V, params)
        assert trace.converged and trace.iterations <= cold_trace.iterations, beta
        assert verify_optimality(m3, beta, design, Criterion.D, V, tol=params.convergence_tol).passed, beta
        assert design.points == cold.points, beta
        assert trace.log_dets[-1] == pytest.approx(cold_trace.log_dets[-1], rel=1e-12), beta
        log_dets = np.asarray(trace.log_dets)
        assert log_dets.size == trace.iterations + 1
        assert np.all(np.diff(log_dets) >= -1e-12 * np.maximum(1.0, np.abs(log_dets[:-1]))), beta


def test_path_iteration_counts(monkeypatch):
    """Table 2 takes 20 iterations along its path at the default tolerance (18 at 1e-8). The band at
    tol 1e-10 takes at most 250 iterations (1,386 cold), at most 9 per ratio, and
    one factorization per iterate plus one per ratio for its start."""
    factorizations = []
    factor = gammadesign.solver._factor

    def counting(M):
        factorizations.append(M)
        return factor(M)

    monkeypatch.setattr(gammadesign.solver, "_factor", counting)
    m3 = GammaModel.first_order(3)
    _, table2 = gammadesign.solver._solve_path(m3, TABLE2_BETAS, V, SolverParams())
    assert [trace.iterations for _, trace in table2] == [9, 2, 3, 3, 3]
    factorizations.clear()
    _, band = gammadesign.solver._solve_path(m3, BAND_BETAS, V, SolverParams(convergence_tol=1e-10))
    iterations = [trace.iterations for _, trace in band]
    assert sum(iterations) <= 250 and max(iterations) <= 9
    assert len(factorizations) == sum(iterations) + len(BAND_BETAS)


NEG = ThreeFactorFamily(-1)
TABLE2_GAMMAS = (-2.9, -2.5, -2.0, -1.5, -1.23)
BAND_GAMMAS = gamma_grid(-2.99, -1.21, 0.01)


def test_closed_form_start_iteration_counts(monkeypatch):
    """Started from the best of Xi1 and Xi4, table 2 takes 13 iterations (20 from uniform weights), and the band at
    tol 1e-10 at most 231 (237), at most 3 per ratio (9). Both closed forms are factored at the first ratio, and
    each later ratio's tangent start once: one factorization per iterate, one per ratio and one more."""
    factorizations = []
    factor = gammadesign.solver._factor

    def counting(M):
        factorizations.append(M)
        return factor(M)

    monkeypatch.setattr(gammadesign.solver, "_factor", counting)
    _, table2 = NEG._path(TABLE2_GAMMAS, SolverParams())
    assert [trace.iterations for _, trace in table2] == [2, 2, 3, 3, 3]
    factorizations.clear()
    _, band = NEG._path(BAND_GAMMAS, SolverParams(convergence_tol=1e-10))
    iterations = [trace.iterations for _, trace in band]
    assert sum(iterations) <= 231 and max(iterations) <= 3
    assert len(factorizations) == sum(iterations) + len(BAND_GAMMAS) + 1


@pytest.mark.parametrize(
    "gammas, tol", [(TABLE2_GAMMAS, 1e-9), (BAND_GAMMAS, 1e-9), (BAND_GAMMAS, 1e-10)], ids=["table2", "band_1e-9", "band_1e-10"]
)
def test_path_excess_is_the_verified_excess_of_its_weights(gammas, tol):
    """At every point of a path the solver's excess is the worst excess that verification finds for the
    design of its certified weights, at the same beta and tolerance over the same candidates, bit for bit."""
    X, path = NEG._path(gammas, SolverParams(convergence_tol=tol))
    for gamma, (w, trace) in zip(gammas, path):
        report = verify_optimality(NEG.model, NEG.beta(gamma), Design(X[w > 0.0], w[w > 0.0]), Criterion.D, X, tol=tol)
        assert trace.converged and report.passed, gamma
        assert report.worst_excess == trace.final_excess, gamma


@pytest.mark.parametrize("gamma, label", [(-2.9, "xi1"), (-1.23, "xi4")])
def test_first_point_starts_from_the_closed_form_of_largest_log_det(gamma, label):
    """Near each end of the band the first point starts from the closed form of that end: its log_dets[0] is the
    larger of the two closed forms' log dets there."""
    beta = NEG.beta(gamma)
    closed_forms = {
        "xi1": Design([V[1], V[2], V[3]], [1 / 3] * 3),
        "xi4": Design([V[1], V[5], V[6]], [1 / 3] * 3),
    }
    log_dets = {name: np.linalg.slogdet(information_matrix(NEG.model, beta, d))[1] for name, d in closed_forms.items()}
    _, ((_, trace),) = NEG._path((gamma,), SolverParams())
    assert max(log_dets, key=log_dets.get) == label
    assert trace.log_dets[0] == pytest.approx(log_dets[label], rel=1e-12)


def test_singular_starts_fall_back_to_uniform_weights():
    """Starts whose M fails the pivot floor are passed over; with no other start, the path is the cold one, bitwise."""
    m3 = GammaModel.first_order(3)
    one_vertex = np.eye(len(V))[0]
    X, path = gammadesign.solver._solve_path(m3, TABLE2_BETAS, V, SolverParams(), (one_vertex, one_vertex))
    _, cold = gammadesign.solver._solve_path(m3, TABLE2_BETAS, V, SolverParams())
    for (w, trace), (w_cold, trace_cold) in zip(path, cold):
        assert w.tobytes() == w_cold.tobytes() and trace == trace_cold


@given(
    st.lists(st.floats(-3.0, -1.2, exclude_min=True, exclude_max=True), min_size=1, max_size=5, unique=True),
    st.booleans(),
    st.sampled_from([1e-9, 1e-10]),
)
@example([math.nextafter(-3.0, 0.0)], True, 1e-10)
@example([math.nextafter(-1.2, -3.0)], False, 1e-10)
def test_closed_form_started_paths_match_their_cold_solves(gammas, ascending, tol):
    """Each point of a band path started from the closed forms, in either direction, verifies at its tolerance, has
    the support and log det of its cold solve, and takes no more iterations."""
    params = SolverParams(convergence_tol=tol)
    gammas = sorted(gammas, reverse=not ascending)
    X, path = NEG._path(gammas, params)
    for gamma, (w, trace) in zip(gammas, path):
        beta = NEG.beta(gamma)
        design = Design(X[w > 0.0], w[w > 0.0])
        cold, cold_trace = multiplicative(NEG.model, beta, V, params)
        assert trace.converged and trace.iterations <= cold_trace.iterations, gamma
        assert verify_optimality(NEG.model, beta, design, Criterion.D, V, tol=tol).passed, gamma
        assert design.points == cold.points, gamma
        assert trace.log_dets[-1] == pytest.approx(cold_trace.log_dets[-1], rel=1e-12), gamma


def test_path_start_is_a_first_order_prediction():
    """Near gamma = -2 the tangent start at gamma + h misses the weights certified there
    by O(h^2), the previous certified weights by O(h): a tenfold smaller h shrinks the
    first error about a hundredfold (1.8e-6 -> 1.8e-8) and the second tenfold."""
    m3 = GammaModel.first_order(3)
    X = gammadesign.model_core._judged(V)
    params = SolverParams(convergence_tol=1e-13)

    def certified(gamma):
        design, trace = multiplicative(m3, (-1.0, -gamma, -gamma), V, params)
        assert trace.converged and design.size == 5
        weights = dict(zip(design.points, design.weights))
        return np.array([weights.get(v, 0.0) for v in V])

    def columns(gamma):
        return gammadesign.model_core._columns(m3, (-1.0, -gamma, -gamma), X)[0]

    w, G = certified(-2.0), columns(-2.0)
    L, _ = gammadesign.solver._factored(G, w)
    Z = gammadesign.model_core._whitened(L, G)
    predicted_errors, previous_errors = [], []
    for h in (1e-2, 1e-3):
        target = certified(-2.0 + h)
        start = gammadesign.solver._predicted(columns(-2.0 + h), G, Z, w, m3.p)
        predicted_errors.append(np.abs(start - target).max())
        previous_errors.append(np.abs(w - target).max())
    assert predicted_errors[0] / predicted_errors[1] >= 50.0, predicted_errors
    assert 5.0 <= previous_errors[0] / previous_errors[1] <= 20.0, previous_errors
    assert predicted_errors[0] < previous_errors[1], (predicted_errors, previous_errors)


def test_path_judges_its_candidates_once(counted_calls, built_designs):
    """One coincidence search over the candidates for the whole path, which builds no Design; the
    one Design of a public solve, on rows of the judged candidates, does not search its support again."""
    coincident = counted_calls(gammadesign.model_core, "_has_coincident")
    gammadesign.solver._solve_path(GammaModel.first_order(3), TABLE2_BETAS, V, SolverParams())
    assert [args for args in coincident if len(args) == 1] == [([list(v) for v in V],)]  # a search, not its recursion
    assert built_designs == []
    coincident.clear()
    multiplicative(GammaModel.first_order(3), TABLE2_BETAS[0], V)
    assert [args for args in coincident if len(args) == 1] == [([list(v) for v in V],)] and len(built_designs) == 1
    factored = counted_calls(gammadesign.model_core, "_factor")
    with pytest.raises(ValidationError, match="^candidate points must be pairwise distinct$"):
        gammadesign.solver._solve_path(GammaModel.first_order(3), TABLE2_BETAS, V + V[:1], SolverParams())
    assert factored == []


def test_path_designs_equal_publicly_built_designs():
    """The Design a solve builds from the certified weights of its path equals the publicly built one."""
    for beta in TABLE2_BETAS:
        design, _ = multiplicative(GammaModel.first_order(3), beta, V)
        public = Design(design.points, design.weights)
        assert design == public and hash(design) == hash(public) and repr(design) == repr(public)
        for array, expected in ((design._pts, public._pts), (design._wts, public._wts)):
            assert not array.flags.writeable
            assert array.dtype == expected.dtype and array.tobytes() == expected.tobytes()


@pytest.mark.parametrize("uniform_fails", [False, True])
def test_singular_warm_start_falls_back_to_uniform_weights(monkeypatch, uniform_fails):
    """A warm start whose M fails the pivot floor restarts the point from uniform
    weights, which then solves it exactly as a cold solve does; when uniform
    weights fail too, the candidates are rank deficient."""
    m3 = GammaModel.first_order(3)
    (_, first), (cold, cold_trace) = (multiplicative(m3, beta, V) for beta in TABLE2_BETAS[:2])
    failing = {first.iterations + 1, first.iterations + 2} if uniform_fails else {first.iterations + 1}
    calls = []
    factor = gammadesign.solver._factor

    def failing_factor(M):
        calls.append(M)
        if len(calls) - 1 in failing:
            raise gammadesign.model_core.SingularInformation("forced")
        return factor(M)

    monkeypatch.setattr(gammadesign.solver, "_factor", failing_factor)
    if uniform_fails:
        with pytest.raises(RankDeficientCandidates):
            gammadesign.solver._solve_path(m3, TABLE2_BETAS[:2], V, SolverParams())
        return
    X, (_, (w, trace)) = gammadesign.solver._solve_path(m3, TABLE2_BETAS[:2], V, SolverParams())
    assert Design(X[w > 0.0], w[w > 0.0]) == cold and trace == cold_trace


def test_returned_weights_sum_to_one():
    w, _ = cube_weights((-1.0, 2.0, 2.0))
    assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(wi >= 1e-6 for wi in w.values())


# ---------------------------------------------------------------- trace


def test_trace_json_shape():
    _, trace = cube_weights((-1.0, 2.0, 2.0))
    obj = trace.to_json()
    assert set(obj) == {"iterations", "log_dets", "final_excess", "converged"}
    assert obj["iterations"] == len(obj["log_dets"]) - 1
    assert obj["converged"] is True


def test_iteration_cap_warns_and_flags():
    params = SolverParams(max_iterations=3, convergence_tol=1e-12)
    with pytest.warns(IterationCapExceeded):
        design, trace = multiplicative(
            GammaModel.first_order(3), (-1.0, 1.25, 1.25), region_vertices(CUBE3), params
        )
    assert not trace.converged
    assert trace.iterations == 3
    assert sum(design.weights) == pytest.approx(1.0, abs=1e-12)


def test_converged_run_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cube_weights((-1.0, 2.0, 2.0))


# ---------------------------------------------------------------- errors


def test_rank_deficient_candidates_rejected():
    m2 = GammaModel.first_order(2)
    with pytest.raises(RankDeficientCandidates):
        multiplicative(m2, (1.0, 1.0), [(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(RankDeficientCandidates):
        multiplicative(m2, (1.0, 1.0), [(1.0, 2.0)])


def test_candidate_positivity_enforced():
    m2 = GammaModel.first_order(2)
    with pytest.raises(NonpositivePredictor):
        multiplicative(m2, (1.0, -1.0), [(1.0, 1.0), (1.0, 2.0)])


def test_repeated_candidate_is_refused_before_any_factorization(counted_calls):
    factored = counted_calls(gammadesign.model_core, "_factor")
    with pytest.raises(ValidationError, match="^candidate points must be pairwise distinct$"):
        multiplicative(GammaModel.first_order(3), (1.0, 1.0, 1.0), V + V[:2])
    assert factored == []


def test_empty_candidates_rejected():
    with pytest.raises(ValidationError):
        multiplicative(GammaModel.first_order(2), (1.0, 1.0), [])
