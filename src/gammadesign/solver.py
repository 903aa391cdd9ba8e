"""Multiplicative algorithm for D-optimal weights on a finite candidate set.

Starting from uniform weights, each step rescales every weight by its
D-sensitivity over the parameter count, w_i <- w_i * psi(x_i)/p. The
weighted average of the sensitivities equals p, so the simplex is
preserved and the log-determinant never decreases. Iteration stops once
the largest sensitivity excess drops to the convergence tolerance.
"""

from __future__ import annotations

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
    _d_sensitivities,
    _factor,
    _floats,
    _information,
    _intensity_arrays,
)

__all__ = ["SolverParams", "SolverTrace", "multiplicative"]


@dataclass(frozen=True)
class SolverParams:
    """Iteration cap, stopping tolerance, and reporting threshold."""

    max_iterations: int = 100_000
    convergence_tol: float = 1e-8
    prune_tol: float = 1e-6

    def __post_init__(self) -> None:
        _check_count(self.max_iterations, 1, "max_iterations")
        convergence_tol, prune_tol = _floats((self.convergence_tol, self.prune_tol), "tolerances")
        if not (convergence_tol > 0.0 and prune_tol > 0.0):
            raise ValidationError("tolerances must be positive")
        object.__setattr__(self, "convergence_tol", convergence_tol)
        object.__setattr__(self, "prune_tol", prune_tol)


@dataclass(frozen=True)
class SolverTrace:
    """Convergence record: one log-det entry per visited weight vector."""

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

    The returned design drops candidates whose converged weight falls
    below ``params.prune_tol`` and renormalizes the rest. If the
    iteration cap is hit first, the best weights found so far are
    returned and an ``IterationCapExceeded`` warning is emitted; the
    trace's ``converged`` flag records which case occurred.
    """
    if len(candidates) == 0:
        raise ValidationError("candidate set must be nonempty")
    F, u = _intensity_arrays(model, beta, candidates)
    p = model.p
    m = len(candidates)
    w = np.full(m, 1.0 / m)

    log_dets: list[float] = []
    converged = False
    excess = np.inf
    # one evaluation per visited weight vector: at most max_iterations updates
    for step in range(params.max_iterations + 1):
        try:
            L, logdet = _factor(_information(F, u, w))
        except SingularInformation as exc:
            if step:
                raise
            # every candidate carries weight at step 0
            raise RankDeficientCandidates("candidate set does not span the parameter dimension") from exc
        log_dets.append(logdet)
        psi = _d_sensitivities(L, F, u)
        excess = float(psi.max() - p)
        if excess <= params.convergence_tol:
            converged = True
            break
        if step == params.max_iterations:
            break
        w *= psi / p
        w /= w.sum()

    if not converged:
        warnings.warn(
            f"multiplicative solver stopped after {params.max_iterations} iterations "
            f"with sensitivity excess {excess:.3e}",
            IterationCapExceeded,
            stacklevel=2,
        )
    keep = np.nonzero(w >= params.prune_tol)[0]
    kept_w = w[keep]
    design = Design([candidates[k] for k in keep], kept_w / kept_w.sum())
    trace = SolverTrace(
        iterations=len(log_dets) - 1,
        log_dets=tuple(log_dets),
        final_excess=excess,
        converged=converged,
    )
    return design, trace
