"""Certified D-optimal weights on a finite candidate set.

The solver maximizes log det M(w) over weights w on the candidates, with
psi_i the D-sensitivity of candidate i and p the parameter count. The
candidates are judged once, and their columns G = [sqrt(u_i) f_i] and the
table K of outer products u_i f_i f_i' are formed once per solve from the
``model_core`` kernel. Each iterate takes M = w K, its Cholesky factor L
and one solve Z = L^-1 G; psi_i = |z_i|^2, and every step below slices Z.
From its start, each iterate is one of three steps:

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

Trials are judged by log det(I + L^-1 dM L^-T) from the changed columns
of Z: no factorization, and round-off that scales with the change. The
loop stops once the global excess max psi - p is at most the tolerance,
and returns that certified iterate, its candidates of positive weight.
The trace holds one ``log_dets`` entry per accepted iterate, at beta; the
iterates take G from ``_columns``, so they are the same at every 2^k beta.

A path of parameter points (``_solve_path``) judges the candidates once and
starts each later point from the previous certified weights, exact zeros
kept, so its ``log_dets[0]`` is taken there; a start whose M fails the pivot
floor is replaced by uniform weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model_core import (
    Design,
    GammaModel,
    IterationCapExceeded,
    RankDeficientCandidates,
    SingularInformation,
    ValidationError,
    _check_count,
    _columns,
    _factor,
    _floats,
    _has_coincident,
    _information,
    _judged,
    _outer,
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
    convergence_tol: float = 1e-8

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
        return {
            "iterations": self.iterations,
            "log_dets": list(self.log_dets),
            "final_excess": self.final_excess,
            "converged": self.converged,
        }


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
    return _solve_path(model, (beta,), candidates, params)[0]


def _solve_path(model: GammaModel, betas: Sequence, candidates: Sequence, params: SolverParams) -> list[tuple[Design, SolverTrace]]:
    """``multiplicative`` at each parameter point of the path ``betas``, each point
    started as the module docstring says."""
    X = _judged(candidates)
    if len(X) == 0:
        raise ValidationError("candidate set must be nonempty")
    if _has_coincident(X.tolist()):
        raise ValidationError("candidate points must be pairwise distinct")
    p = model.p
    w = uniform = np.full(len(X), 1.0 / len(X))
    results = []
    for beta in betas:
        G, r = _columns(model, beta, X)  # the columns sqrt(u_i) f_i at beta / r, and the table K of their outer products
        K = _outer(G.T)
        for w in (w,) if w is uniform else (w, uniform):  # the previous certified weights, else uniform ones
            try:
                L, logdet = _factor(_information(K, w))
                break
            except SingularInformation as exc:
                if w is uniform:  # every candidate carries weight
                    raise RankDeficientCandidates("candidate set does not span the parameter dimension") from exc
        log_dets = [logdet]
        while True:
            Z = _whitened(L, G)
            psi = (Z * Z).sum(axis=0)
            top = psi.max()
            excess = float(top - p)
            if excess <= params.convergence_tol or len(log_dets) > params.max_iterations:
                break
            w = _next_weights(Z, w, psi, p, top)
            L, logdet = _factor(_information(K, w))
            log_dets.append(logdet)
        converged = excess <= params.convergence_tol
        if not converged:
            warnings.warn(
                f"solver stopped after {params.max_iterations} iterations with sensitivity excess {excess:.3e}",
                IterationCapExceeded,
                stacklevel=3,
            )
        support = np.flatnonzero(w)
        shift = 2 * p * math.log(r)  # log det M at beta is log det M at beta / r less 2p ln r
        trace = SolverTrace(len(log_dets) - 1, tuple(ld - shift for ld in log_dets), excess, converged)
        results.append((Design(X[support], w[support]), trace))
    return results


def _next_weights(Z: np.ndarray, w: np.ndarray, psi: np.ndarray, p: int, top: float) -> np.ndarray:
    """The next iterate from the whitened candidates Z: a deletion, a damped Newton step, or else a multiplicative step."""
    excess = float(top - p)
    bound = p * (1.0 + excess / 2.0 - math.sqrt(excess * (4.0 + excess - 4.0 / p)) / 2.0)
    drop = np.flatnonzero((psi < bound) & (w > 0.0))
    if drop.size and _gain(Z[:, drop], -w[drop]) >= 0.0:
        kept = np.where(psi < bound, 0.0, w)
        return kept / kept.sum()
    work = np.flatnonzero((w > 0.0) | (psi == top))
    n = work.size
    if n <= _NEWTON_MAX_POINTS:
        w_work, Z_work = w[work], Z[:, work]
        H = Z_work.T @ Z_work
        H *= H
        H.reshape(-1)[:: n + 1] += _RIDGE
        # The KKT system by elimination: d = a - lambda b, with H a = psi, H b = 1 and 1'd = 0.
        rhs = np.ones((n, 2))
        rhs[:, 0] = psi[work]
        a, b = np.linalg.solve(H, rhs).T
        d = a - (a.sum() / b.sum()) * b
        # Step length at which each weight reaches zero, and the first of them among positive weights.
        zero_at = np.divide(w_work, -d, out=np.full(n, np.inf), where=d < 0.0)
        t_ratio = zero_at.min(where=w_work > 0.0, initial=np.inf)
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
                return w / w.sum()
            t = max(t / 2.0, t_ratio) if t > t_ratio else t / 2.0
    scaled = w * psi / p
    return scaled / scaled.sum()


def _gain(Z: np.ndarray, change: np.ndarray) -> float:
    """log det M(w + change) - log det M(w) - p log sum(w + change), the gain of the
    renormalized iterate, from the whitened features Z of the changed candidates."""
    lam = np.linalg.eigvalsh((Z * change) @ Z.T)
    if lam[0] <= -1.0:
        return -math.inf
    return math.fsum(map(math.log1p, lam.tolist())) - len(lam) * math.log1p(change.sum())

