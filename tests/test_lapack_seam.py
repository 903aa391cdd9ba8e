"""The kernel's LAPACK seam against ``np.linalg`` as the reference: the gufuncs
that ``model_core`` calls directly give, bitwise, what the public functions
give, and a failed factorization reaches the singularity rule as a nan pivot,
with no warning. A stack's log-dets never reach the seam: ``_logdets`` runs
without it and reports an indefinite member as a nan pivot too. Every test
here raises warnings as errors."""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammadesign import (
    Criterion,
    Design,
    ExperimentalRegion,
    GammaModel,
    SingularInformation,
    d_efficiency,
    region_vertices,
    verify_optimality,
)
from gammadesign import model_core, solver
from gammadesign.model_core import _a_sensitivities, _factor, _logdets, _whitened
from gammadesign.solver import _gain, multiplicative

from oracles import logdet_tolerance

# The public functions in the seam's call form: the reference the gufuncs are held to.
NUMPY_LINALG = SimpleNamespace(
    cholesky_lo=lambda a, signature: np.linalg.cholesky(a),
    solve=lambda a, b, signature: np.linalg.solve(a, b),
    inv=lambda a, signature: np.linalg.inv(a),
    eigvalsh_lo=lambda a, signature: np.linalg.eigvalsh(a),
)


@pytest.fixture(autouse=True)
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@st.composite
def spd_stacks(draw):
    """A (G, p, p) array of symmetric positive definite matrices A A' + p I, 2 <= p <= 10,
    and a (p, n) right-hand side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, size, n = draw(st.integers(2, 10)), draw(st.integers(1, 8)), draw(st.integers(1, 64))
    A = rng.normal(size=(size, p, p))
    return A @ A.transpose(0, 2, 1) + p * np.eye(p), rng.normal(size=(p, n))


@given(spd_stacks())
def test_factor_is_numpy_cholesky_bitwise(case):
    """L of one matrix equals ``np.linalg.cholesky``'s, and so does the log-det taken from it, 2 sum(log pivots) as a
    float sum. A stack never reaches the seam: ``_logdets`` runs with no LAPACK module at all, each member's log-det
    is bitwise that member's alone, and it lies within ``logdet_tolerance`` of the log-det from numpy's factor."""
    stack, _ = case
    for M in stack:
        L, logdet = _factor(M)
        expected = np.linalg.cholesky(M)
        assert np.array_equal(L, expected)
        assert logdet == 2.0 * math.fsum(map(math.log, expected.diagonal().tolist()))
    members = np.stack(list(stack), axis=-1)
    with mock.patch.object(model_core, "_lapack", SimpleNamespace()):
        logdets = _logdets(members)
        assert all(logdet == _logdets(members[:, :, g : g + 1])[0] for g, logdet in enumerate(logdets))
    for M, logdet in zip(stack, logdets):
        assert abs(logdet - 2.0 * np.log(np.linalg.cholesky(M).diagonal()).sum()) <= logdet_tolerance(M)


@given(spd_stacks(), st.floats(-0.9, 2.0))
def test_solves_inverse_and_eigenvalues_are_numpy_bitwise(case, step):
    """``_whitened``, ``_a_sensitivities`` and ``solver._gain`` equal their
    ``np.linalg.solve``, ``inv`` and ``eigvalsh`` forms."""
    stack, G = case
    L = np.linalg.cholesky(stack[0])
    assert np.array_equal(_whitened(L, G), np.linalg.solve(L, G))
    Linv = np.linalg.inv(L)
    H = Linv.T @ (Linv @ G)
    values, bound = _a_sensitivities(L, G)
    assert np.array_equal(values, (H * H).sum(axis=0)) and bound == float((Linv * Linv).sum())
    Z = np.linalg.solve(L, G)
    change = step * np.full(Z.shape[1], 1.0 / Z.shape[1])
    lam = np.linalg.eigvalsh((Z * change) @ Z.T)
    expected = -math.inf if lam[0] <= -1.0 else math.fsum(map(math.log1p, lam.tolist())) - len(lam) * math.log1p(change.sum())
    assert _gain(Z, change) == expected


@settings(max_examples=40)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_solve_and_verification_are_bitwise_the_numpy_runs(nu, seed):
    """The solver (Newton's KKT solve and trial eigenvalues included) and D and A
    verification give the same bits with every gufunc replaced by its public function."""
    rng = np.random.default_rng(seed)
    model = GammaModel.first_order(nu)
    beta = rng.uniform(0.1, 2.0, nu)
    candidates = np.vstack([region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, nu)), rng.uniform(1.0, 2.0, (6, nu))])

    def run():
        design, trace = multiplicative(model, beta, candidates)
        reports = [verify_optimality(model, beta, design, c, candidates) for c in Criterion]
        return design, trace, [(r.bound, r.worst_excess, r._sensitivities.tolist()) for r in reports]

    seam = run()
    with mock.patch.object(model_core, "_lapack", NUMPY_LINALG), mock.patch.object(solver, "_lapack", NUMPY_LINALG):
        assert run() == seam


@given(spd_stacks(), st.data())
def test_indefinite_member_is_a_nan_pivot(case, data):
    """A member that ``np.linalg.cholesky`` refuses fails the one singularity rule as a nan pivot: alone through
    ``_factor``, whose failed factorization gives nan pivots, and through ``_logdets``, alone or in a stack, where
    its nonpositive pivot is reported as nan and it is named as the first failing member."""
    stack, _ = case
    bad = data.draw(st.integers(0, len(stack) - 1))
    values, vectors = np.linalg.eigh(stack[bad])
    values[0] = -values[-1]
    stack[bad] = (vectors * values) @ vectors.T
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack[bad])
    with pytest.raises(SingularInformation, match=r"smallest pivot nan\)"):
        _factor(stack[bad])
    members = np.stack(list(stack), axis=-1)
    for M, member in ((members, bad), (members[:, :, bad : bad + 1], 0)):
        with pytest.raises(SingularInformation, match=r"smallest pivot nan\)") as error:
            _logdets(M)
        assert error.value._member == member


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_rank_deficient_design_is_singular_without_warning(nu, seed):
    """A design on fewer than p points: most draws fail the factorization, the rest the
    pivot floor. Verification, D and A, and ``d_efficiency`` raise SingularInformation."""
    rng = np.random.default_rng(seed)
    model = GammaModel.first_order(nu)
    k = int(rng.integers(1, nu))
    design = Design([tuple(x) for x in rng.uniform(1.0, 2.0, (k, nu))], rng.dirichlet(np.ones(k)))
    beta = rng.uniform(0.1, 2.0, nu)
    vertices = region_vertices(ExperimentalRegion.hypercube(1.0, 2.0, nu))
    for criterion in Criterion:
        with pytest.raises(SingularInformation):
            verify_optimality(model, beta, design, criterion, vertices)
    full = Design(vertices, [1.0 / len(vertices)] * len(vertices))
    with pytest.raises(SingularInformation):
        d_efficiency(model, beta, design, full)
