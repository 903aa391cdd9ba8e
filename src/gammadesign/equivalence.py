"""Sensitivity functions and optimality verification on candidate sets.

A design is locally D-optimal iff its D-sensitivity
psi(x) = u(x, beta) f(x)' M^-1 f(x) stays below the parameter count p
everywhere, and locally A-optimal iff u(x, beta) f(x)' M^-2 f(x) stays
below tr(M^-1). Both bounds are attained at the support points of an
optimal design. Verification here is over finite candidate sets; for
hypercubes the vertices form an essentially complete class, so they are
the canonical candidates.

Both sensitivities come from the Cholesky factor L of M, built by the
kernel in ``model_core`` (``feature_matrix`` gives the rows f(x) of a
batch of points): psi(x) = u(x) |L^-1 f(x)|^2 for D, and
u(x) |L^-T L^-1 f(x)|^2 with bound |L^-1|_F^2 for A. The package has one
singularity rule, applied there: M is singular when its Cholesky
factorization fails or min diag(L)^2 <= 1e-12 * max diag(M), and
verification then raises ``SingularInformation``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model_core import (
    Design,
    GammaModel,
    ValidationError,
    _a_sensitivities,
    _canonical_points,
    _check_count,
    _d_sensitivities,
    _factor,
    _floats,
    _information,
    _intensity_arrays,
    region_vertices,
)

__all__ = [
    "Criterion",
    "VerificationReport",
    "region_vertices",
    "orthant_axis_points",
    "sensitivity",
    "verify_optimality",
    "DEFAULT_TOL",
]

# Default ceiling on the sensitivity excess accepted as "optimal".
DEFAULT_TOL = 1e-9


class Criterion(str, enum.Enum):
    D = "D"
    A = "A"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the optimality bound over a candidate set."""

    criterion: Criterion
    bound: float
    points: tuple[tuple[float, ...], ...]
    sensitivities: tuple[float, ...]
    worst_point: tuple[float, ...]
    worst_excess: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "bound": self.bound,
            "worst_point": list(self.worst_point),
            "worst_excess": self.worst_excess,
            "pass": self.passed,
            "values": [
                {"point": list(pt), "sensitivity": s}
                for pt, s in zip(self.points, self.sensitivities)
            ],
        }


def orthant_axis_points(nu: int, scale: Sequence[float] | None = None) -> list[tuple[float, ...]]:
    """The canonical orthant candidates a_i * e_i (unit axis points by default)."""
    _check_count(nu, 1, message="nu must be positive")
    scale = (1.0,) * nu if scale is None else _floats(scale, "scale")
    if len(scale) != nu:
        raise ValidationError("scale must have one entry per factor")
    if not all(s > 0.0 for s in scale):  # refuses nan
        raise ValidationError("scale entries must be positive")
    return [(0.0,) * j + (s,) + (0.0,) * (nu - 1 - j) for j, s in enumerate(scale)]


def sensitivity(
    model: GammaModel,
    beta: Sequence[float],
    design: Design,
    x: Sequence[float],
    criterion: Criterion = Criterion.D,
) -> float:
    """Sensitivity of the design at one point under the given criterion."""
    return verify_optimality(model, beta, design, criterion, [x]).sensitivities[0]


def _report_from_arrays(
    F_design: np.ndarray,
    u_design: np.ndarray,
    weights: Sequence[float],
    F_cand: np.ndarray,
    u_cand: np.ndarray,
    cand_points: tuple[tuple[float, ...], ...],
    criterion: Criterion,
    tol: float,
) -> VerificationReport:
    """Report for the design with feature rows F_design, intensities
    u_design and weights, over the canonical candidate points with rows
    F_cand and u_cand."""
    (tol,) = _floats((tol,), "tol")
    if not math.isfinite(tol):  # a nan tol would fail every design
        raise ValidationError("tol must be finite")
    L, _ = _factor(_information(F_design, u_design, np.asarray(weights)))
    if criterion is Criterion.D:
        vals, bound = _d_sensitivities(L, F_cand, u_cand), float(L.shape[0])
    else:
        vals, bound = _a_sensitivities(L, F_cand, u_cand)
    worst = int(np.argmax(vals))  # ties resolved by first index
    excess = float(vals[worst] - bound)
    return VerificationReport(
        criterion=criterion,
        bound=bound,
        points=cand_points,
        sensitivities=tuple(vals.tolist()),
        worst_point=cand_points[worst],
        worst_excess=excess,
        passed=excess <= tol,
    )


def verify_optimality(
    model: GammaModel,
    beta: Sequence[float],
    design: Design,
    criterion: Criterion,
    candidates: Sequence[Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Check the equivalence-theorem bound at every candidate point.

    The report records each candidate's sensitivity; the design passes
    iff the largest excess over the bound is at most ``tol``.
    """
    points = _canonical_points(candidates)
    if not points:
        raise ValidationError("candidate set must be nonempty")
    Fd, ud = _intensity_arrays(model, beta, design.points)
    Fc, uc = _intensity_arrays(model, beta, points)
    return _report_from_arrays(Fd, ud, design.weights, Fc, uc, points, criterion, tol)
