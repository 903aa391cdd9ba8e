"""Reductions of intercept-free models to intercept models.

Two reductions are implemented. For the interaction model on a square,
the coordinatewise map z_j = ((1/x_j) - 1/b) / ((1/a) - 1/b) carries
[a,b]^2 onto [0,1]^2 and turns the model into a two-factor intercept
model; D-optimality is preserved in both directions. For the
first-order model, dividing by the first coordinate yields ratio
coordinates t_j = x_{j+1}/x_1 on a polytope, which shows that interior
points such as the images of (a,..,a) and (b,..,b) never support an
optimal design.

Note the vertex pairing of the square map: it sends (b,a) to (0,1) and
(a,b) to (1,0), since a larger x_j gives a smaller z_j in the same
coordinate slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model_core import Design, GammaModel, ValidationError, _check_beta, _check_bounds, _in_box, _judged, _positive_predictor, _predictor
from .equivalence import DEFAULT_TOL, Criterion, VerificationReport, _verification_report

__all__ = [
    "InterceptTransform",
    "map_point_interaction",
    "unmap_point_interaction",
    "map_design_interaction",
    "interaction_to_intercept",
    "verify_intercept_design",
    "induced_polytope_vertices",
    "first_order_ratio_map",
    "UNIT_SQUARE_VERTICES",
]

# Corners of the target square [0,1]^2, fixed candidate order.
UNIT_SQUARE_VERTICES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
# f(z) = (1, z1, z2) is the first-order regression vector of the point
# (1, z1, z2), so the intercept model is a first-order model in three
# factors and shares its kernel, positivity rule included.
_LIFTED = GammaModel.first_order(3)


def _lifted(Z: np.ndarray) -> np.ndarray:
    """The judged points Z lifted to (1, z1, z2) by one column stack."""
    return np.column_stack((np.ones(len(Z)), Z))


def _plane(X: np.ndarray) -> np.ndarray:
    """The judged points X, which must have two coordinates."""
    if X.shape[1] != 2:
        raise ValidationError("point must have two coordinates")
    return X


def _square_map(X: np.ndarray, a: float, b: float, inverse: bool = False) -> np.ndarray:
    """The square map of the judged points X of [a,b]^2 onto [0,1]^2, or its ``inverse``, in one expression,
    after the input rule of both maps: 0 < a < b < inf, and every point in [a,b]^2 ([0,1]^2 for the inverse)."""
    a, b = _check_bounds(a, b)
    lo, hi = (0, 1) if inverse else (a, b)
    inside = _in_box(_plane(X), lo, hi)
    if not inside.all():
        raise ValidationError(f"point {tuple(X[np.argmin(inside)].tolist())} lies outside [{lo}, {hi}]^2")
    ib, span = 1.0 / b, 1.0 / a - 1.0 / b
    return 1.0 / (X * span + ib) if inverse else (1.0 / X - ib) / span


def map_point_interaction(x: Sequence[float], a: float, b: float) -> tuple[float, float]:
    """Map a point of [a,b]^2 to [0,1]^2, coordinate by coordinate."""
    return tuple(_square_map(_judged([x]), a, b)[0].tolist())


def unmap_point_interaction(z: Sequence[float], a: float, b: float) -> tuple[float, float]:
    """Inverse of ``map_point_interaction``."""
    return tuple(_square_map(_judged([z]), a, b, inverse=True)[0].tolist())


def map_design_interaction(design: Design, a: float, b: float) -> Design:
    """Image of a design on [a,b]^2 under the square map, weights kept."""
    return Design(_square_map(design._pts, a, b), design.weights)


@dataclass(frozen=True)
class InterceptTransform:
    """Intercept-model parameters equivalent to an interaction-model point.

    The predictor on the target square is
    beta0 + beta1 * z_1 + beta2 * z_2, and the intensity is its inverse
    square. The corner intensities c_k line up with the vertex-dropping
    conditions of the source model.
    """

    a: float
    b: float
    beta0: float
    beta1: float
    beta2: float

    def predictor(self, z: Sequence[float]) -> float:
        return float(self._predictors(_plane(_judged([z])), _predictor)[1][0])  # any sign: no positivity rule

    def _predictors(self, Z: np.ndarray, rule=_positive_predictor) -> tuple[np.ndarray, np.ndarray]:
        """F and the predictor eta of the judged points Z, lifted to (1, z1, z2), by the kernel ``rule``."""
        beta = _check_beta(_LIFTED, (self.beta0, self.beta1, self.beta2))  # the fields of a directly built transform are caller input
        return rule(_LIFTED, beta, _lifted(Z))[:2]

    def intensity(self, z: Sequence[float]) -> float:
        return float((self._predictors(_judged([z]))[1] ** -2)[0])

    def vertex_intensities(self) -> tuple[float, float, float, float]:
        """Intensities c_1..c_4 at (0,0), (1,0), (0,1), (1,1)."""
        return tuple((self._predictors(np.array(UNIT_SQUARE_VERTICES))[1] ** -2).tolist())


def interaction_to_intercept(a: float, b: float, beta: Sequence[float]) -> InterceptTransform:
    """Transformed parameters of the equivalent intercept model on [0,1]^2."""
    a, b = _check_bounds(a, b)
    b1, b2, b3 = _check_beta(GammaModel.interaction(), beta).tolist()
    span = 1.0 / a - 1.0 / b
    return InterceptTransform(a=a, b=b, beta0=b3 + (b1 + b2) / b, beta1=b2 * span, beta2=b1 * span)


def verify_intercept_design(
    transform: InterceptTransform,
    design: Design,
    criterion: Criterion = Criterion.D,
    candidates: Sequence[Sequence[float]] | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Optimality check of a design living on the target square [0,1]^2.

    Candidates default to the four corners, which decide optimality for
    this model class.
    """
    points = UNIT_SQUARE_VERTICES if candidates is None else candidates
    beta = (transform.beta0, transform.beta1, transform.beta2)
    return _verification_report(_LIFTED, beta, design, points, criterion, tol, lift=_lifted)


def induced_polytope_vertices(a: float, b: float) -> list[tuple[float, float]]:
    """Vertices of the ratio-coordinate region for three factors on [a,b]^3.

    The images of (a,a,a) and (b,b,b) coincide at (1,1), which lies in
    the interior of this hexagon, so neither cube vertex can support an
    optimal design.
    """
    a, b = _check_bounds(a, b)
    lo, hi = a / b, b / a
    return [(lo, 1.0), (1.0, lo), (lo, lo), (hi, 1.0), (1.0, hi), (hi, hi)]


def first_order_ratio_map(x: Sequence[float]) -> tuple[float, ...]:
    """Ratio coordinates t_j = x_{j+1}/x_1, scale-free in x."""
    (pt,) = _judged([x]).tolist()
    if len(pt) < 2:
        raise ValidationError("point must have at least two coordinates")
    if pt[0] <= 0.0:
        raise ValidationError("first coordinate must be positive")
    return tuple(c / pt[0] for c in pt[1:])
