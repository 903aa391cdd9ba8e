"""Certified D-optimal weights on a finite candidate set.

The solver maximizes log det M(w) over weights w on the candidates, with psi_i
the D-sensitivity of candidate i and p the parameter count. The candidates are
judged once and their columns G = [sqrt(u_i) f_i] formed once per parameter
point. Each iterate takes M by ``_gram`` over its support's columns, as
verification does, its Cholesky factor L and Z = L^-1 G; psi_i = |z_i|^2, and
every step below slices Z. Each iterate is one of three steps:

- Deletion: support points below the Harman & Pronzato (2007) bound are in
  no optimal support; they lose their weight unless that lowers log det M.
- Newton, on the support plus the top violator under sum(w) = 1: it solves
  [H 1; 1' 0] [d; lambda] = [psi; 0], H_ij = (z_i' z_j)^2,
  with a 1e-9 ridge on H, since the weights are not unique beyond p(p+1)/2
  support points. The step is halved, stopping once at the ratio test (the
  first weight reaching zero), until log det M does not decrease; weights
  it takes to zero or below become exactly zero.
- Multiplicative, w_i <- w_i psi_i / p: the warm start while the support
  is too large for Newton, and the fallback when its line search stalls.

Trials are judged by log det(I + L^-1 dM L^-T) from the changed columns of Z:
no factorization, and round-off that scales with the change. The loop stops
once the global excess max psi - p is at most the tolerance, by default
``DEFAULT_TOL``; verification finds that excess bit for bit. The trace's
``log_dets``, one per accepted iterate, are at beta; the iterates, on G from
``_columns``, are the same at every 2^k beta.

A path of parameter points (``_solve_path``) judges the candidates once and
returns each point's certified weights over all of them; ``multiplicative``
builds the one Design of a solve. The first point starts from the given start
weights whose M passes the pivot floor with the largest log det there
(``multiplicative`` gives none). Each later point starts from a tangent
prediction (``_predicted``): the previous certified weights plus the first-
order change that keeps psi = p on their support. A point's ``log_dets[0]``
is taken at its start; a point with no start whose M passes the floor starts
from uniform weights. The predictor and the Newton step share one KKT solve,
``_kkt_step``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .model_core import (
    DEFAULT_TOL,
    Design,
    GammaModel,
    IterationCapExceeded,
    RankDeficientCandidates,
    SingularInformation,
    ValidationError,
    _candidate_set,
    _check_count,
    _columns,
    _factor,
    _floats,
    _gram,
    _has_coincident,
    _lapack,
    _whitened,
)

__all__ = ["SolverParams", "SolverTrace", "multiplicative"]

# Largest Newton working set: its Hessian costs s^2 memory and s^3 time.
# Larger supports take multiplicative steps until deletions shrink them.
_NEWTON_MAX_POINTS = 1024
# Ridge on the Newton Hessian, for supports beyond p(p+1)/2 points.
_RIDGE = 1e-9


@dataclass(frozen=True)
class SolverParams:
    """Iteration cap and stopping tolerance on the global sensitivity excess."""

    max_iterations: int = 100_000
    convergence_tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        _check_count(self.max_iterations, 1, "max_iterations")
        (convergence_tol,) = _floats((self.convergence_tol,), "convergence_tol")
        if not 0.0 < convergence_tol < math.inf:  # an infinite one would certify the uniform start, whatever its excess
            raise ValidationError("convergence_tol must be positive and finite")
        object.__setattr__(self, "convergence_tol", convergence_tol)


@dataclass(frozen=True)
class SolverTrace:
    """Convergence record: one log-det entry per accepted iterate."""

    iterations: int
    log_dets: tuple[float, ...]
    final_excess: float
    converged: bool

    def to_json(self) -> dict:
        return {**asdict(self), "log_dets": list(self.log_dets)}


def multiplicative(
    model: GammaModel,
    beta: Sequence[float],
    candidates: Sequence[Sequence[float]],
    params: SolverParams = SolverParams(),
) -> tuple[Design, SolverTrace]:
    """D-optimal weights over ``candidates`` at the parameter point ``beta``.

    The candidates must be pairwise distinct by the rule of ``Design``; a
    repeated point raises ValidationError before the first factorization.
    The design is the last iterate's candidates of positive weight, and
    ``trace.final_excess`` is its global sensitivity excess. Hitting the
    iteration cap first emits ``IterationCapExceeded``; ``trace.converged``
    records which case occurred."""
    X, ((w, trace),) = _solve_path(model, (beta,), candidates, params)
    return Design._distinct(X[w > 0.0], w[w > 0.0]), trace  # rows of X, searched once by the solve


def _solve_path(
    model: GammaModel, betas: Sequence, candidates: Sequence, params: SolverParams, starts: tuple[np.ndarray, ...] = ()
) -> tuple[np.ndarray, list]:
    """The judged candidates X, and at each parameter point of the path ``betas`` the certified weights over all
    of X with the point's trace, each point started as the module docstring says; ``starts`` are weight vectors
    over X that the first point may start from."""
    X = _candidate_set(candidates, "model", model.nu)
    if _has_coincident(X.tolist()):
        raise ValidationError("candidate points must be pairwise distinct")
    p = model.p
    certified = None  # G, Z and weights of the previous point's last iterate
    results = []
    for beta in betas:
        G, r = _columns(model, beta, X)  # the columns sqrt(u_i) f_i at beta / r
        opened = []  # (L, log det, w) of each start whose M passes the pivot floor
        for w in starts if certified is None else (_predicted(G, *certified, p),):
            try:
                opened.append((*_factored(G, w), w))
            except SingularInformation:
                pass
        if opened:
            L, logdet, w = max(opened, key=lambda start: start[1])
        else:
            w = np.full(len(X), 1.0 / len(X))
            try:
                L, logdet = _factored(G, w)
            except SingularInformation as exc:  # every candidate carries weight
                raise RankDeficientCandidates("candidate set does not span the parameter dimension") from exc
        log_dets = [logdet]
        while True:
            Z = _whitened(L, G)
            psi = np.add.reduce(Z * Z, axis=0)
            top = np.maximum.reduce(psi)
            excess = float(top - p)
            if excess <= params.convergence_tol or len(log_dets) > params.max_iterations:
                break
            w = _next_weights(Z, w, psi, p, top)
            L, logdet = _factored(G, w)
            log_dets.append(logdet)
        converged = excess <= params.convergence_tol
        if not converged:
            message = f"solver stopped after {params.max_iterations} iterations with sensitivity excess {excess:.3e}"
            warnings.warn(message, IterationCapExceeded, stacklevel=3)
        certified = G, Z, w
        shift = 2 * p * math.log(r)  # log det M at beta is log det M at beta / r less 2p ln r
        results.append((w, SolverTrace(len(log_dets) - 1, tuple(ld - shift for ld in log_dets), excess, converged)))
    return X, results


def _factored(G: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """``_factor`` of M = ``_gram`` over the columns of positive weight, as verification passes them."""
    support = w.nonzero()[0]
    return _factor(_gram(G[:, support], w[support]))


def _predicted(G: np.ndarray, G_prev: np.ndarray, Z: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """The tangent start at the columns G from the previous point's columns G_prev, whitened Z and weights w.

    Each column only rescales between the points, g_i = t_i g_prev_i, so M(w) here is the previous M at the
    weights w t^2. With t normalized to sum(w t) = 1 and eps = t - 1, this is the first-order weight change on
    the support that keeps psi_i = p there: psi_i moves by 2 p eps_i - 2 (H (w eps))_i with the weights held and
    by -(H delta)_i with a weight change delta, H the Newton Hessian of the support."""
    support = (w > 0.0).nonzero()[0]
    G_s, Z_s, w_s = G_prev[:, support], Z[:, support], w[support]
    t = np.add.reduce(G[:, support] * G_s, axis=0) / np.add.reduce(G_s * G_s, axis=0)
    eps = t / np.add.reduce(w_s * t) - 1.0
    H = Z_s.T @ Z_s
    H *= H
    delta = _kkt_step(H, 2.0 * p * eps - 2.0 * (H @ (w_s * eps)))
    start = np.zeros(len(w))
    start[support] = np.maximum(w_s + delta, 0.0)
    return start / np.add.reduce(start)


def _kkt_step(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """d of the KKT system [H 1; 1' 0] [d; lambda] = [rhs; 0] with the ridge added to H in place, by elimination:
    d = a - lambda b, with H a = rhs, H b = 1 and 1'd = 0."""
    n = len(rhs)
    H.reshape(-1)[:: n + 1] += _RIDGE
    columns = np.empty((n, 2))
    columns[:, 0] = rhs
    columns[:, 1] = 1.0
    a, b = _lapack.solve(H, columns, signature="dd->d").T  # H is positive definite: the solve cannot fail
    return a - (np.add.reduce(a) / np.add.reduce(b)) * b


def _next_weights(Z: np.ndarray, w: np.ndarray, psi: np.ndarray, p: int, top: float) -> np.ndarray:
    """The next iterate from the whitened candidates Z: a deletion, a damped Newton step, or else a multiplicative step."""
    excess = float(top - p)
    bound = p * (1.0 + excess / 2.0 - math.sqrt(excess * (4.0 + excess - 4.0 / p)) / 2.0)
    drop = ((psi < bound) & (w > 0.0)).nonzero()[0]
    if drop.size and _gain(Z[:, drop], -w[drop]) >= 0.0:
        kept = np.where(psi < bound, 0.0, w)
        return kept / np.add.reduce(kept)
    work = ((w > 0.0) | (psi == top)).nonzero()[0]
    n = work.size
    if n <= _NEWTON_MAX_POINTS:
        w_work, Z_work = w[work], Z[:, work]
        H = Z_work.T @ Z_work
        H *= H
        d = _kkt_step(H, psi[work])
        # Step length at which each weight reaches zero, and the first of them among positive weights.
        zero_at = np.empty(n)
        zero_at.fill(np.inf)
        np.divide(w_work, -d, out=zero_at, where=d < 0.0)
        t_ratio = np.minimum.reduce(zero_at, where=w_work > 0.0, initial=np.inf)
        stepped = np.empty(n)
        t = 1.0
        for _ in range(30):  # cuts before the line search counts as stalled
            np.multiply(d, t, out=stepped)
            stepped += w_work
            np.maximum(stepped, 0.0, out=stepped)
            stepped[zero_at <= t] = 0.0
            if _gain(Z_work, stepped - w_work) >= 0.0:
                w = w.copy()
                w[work] = stepped
                return w / np.add.reduce(w)
            t = max(t / 2.0, t_ratio) if t > t_ratio else t / 2.0
    scaled = w * psi / p
    return scaled / np.add.reduce(scaled)


def _gain(Z: np.ndarray, change: np.ndarray) -> float:
    """log det M(w + change) - log det M(w) - p log sum(w + change), the gain of the
    renormalized iterate, from the whitened features Z of the changed candidates."""
    with np.errstate(invalid="ignore"):  # eigenvalues that do not converge come back nan: a nan gain accepts no step
        lam = _lapack.eigvalsh_lo((Z * change) @ Z.T, signature="d->d")
    if lam[0] <= -1.0:
        return -math.inf
    return math.fsum(map(math.log1p, lam.tolist())) - len(lam) * math.log1p(np.add.reduce(change))

