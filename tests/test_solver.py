"""Certified D-optimal weight solver on finite candidate sets."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import gammadesign.model_core
import gammadesign.solver
from gammadesign import (
    Criterion,
    ExperimentalRegion,
    GammaModel,
    IterationCapExceeded,
    NonpositivePredictor,
    RankDeficientCandidates,
    SolverParams,
    ValidationError,
    gamma_grid,
    information_matrix,
    multiplicative,
    region_vertices,
    three_factor_vertices,
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
