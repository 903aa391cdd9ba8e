"""Closed-form locally optimal designs and parameter-space classifiers.

Covers the saturated orthant designs (D and A), the two-factor designs
on a square, the equal-weight "one high coordinate" simplex design on a
cube with its optimality condition, the full subregion classifier for
the three-factor cube [1,2]^3 with beta_2 = beta_3, and the vertex
designs for the two-factor interaction model on [a,b]^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model_core import (
    Design,
    ExperimentalRegion,
    GammaModel,
    ModelKind,
    NonpositivePredictor,
    RegionKind,
    ValidationError,
    _check_bounds,
    _intensity_arrays,
    design_to_json,
    region_vertices,
)
from .equivalence import orthant_axis_points

__all__ = [
    "ThreeFactorLabel",
    "InteractionLabel",
    "ThreeFactorScenario",
    "Classification",
    "three_factor_vertices",
    "interaction_vertices",
    "THREE_FACTOR_VERTEX_NAMES",
    "INTERACTION_VERTEX_NAMES",
    "d_optimal_orthant",
    "a_optimal_orthant",
    "d_optimal_two_factor",
    "a_optimal_two_factor",
    "simplex_design",
    "is_simplex_design_d_optimal",
    "equal_beta_threshold",
    "classify_three_factor",
    "xi3_weights",
    "d_optimal_interaction",
    "interaction_equal_beta",
    "intensity_ranking",
]

# Relative slack on the vertex condition of the simplex-design test;
# support vertices satisfy it with equality, so exact zero is on the edge.
_VERTEX_CONDITION_RTOL = 1e-9
# Quadratic-form conditions for dropping a square vertex count as
# satisfied below this multiple of |beta|^2.
_DROP_CONDITION_RTOL = 1e-12
# Relative gap under which two vertex intensities count as tied.
_RANKING_TIE_RTOL = 1e-12

THREE_FACTOR_VERTEX_NAMES = ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8")
INTERACTION_VERTEX_NAMES = ("v1", "v2", "v3", "v4")


class ThreeFactorLabel(str, enum.Enum):
    """Optimality subregions on the three-factor cube (beta_2 = beta_3)."""

    XI1 = "Xi1"
    XI2 = "Xi2"
    XI3 = "Xi3"
    XI4 = "Xi4"
    XI5_NUMERICAL = "Xi5Numerical"


class InteractionLabel(str, enum.Enum):
    """Support patterns of the interaction model on a square."""

    CASE_I = "Case_i"
    CASE_II = "Case_ii"
    CASE_III = "Case_iii"
    CASE_IV = "Case_iv"
    CASE_V_FOUR_POINT = "Case_v_FourPoint"


def three_factor_vertices(a: float = 1.0, b: float = 2.0) -> tuple[tuple[float, float, float], ...]:
    """Vertices of [a,b]^3 in the fixed reporting order v1..v8."""
    _check_bounds(a, b)
    return (
        (a, a, a), (b, a, a), (a, b, a), (a, a, b),
        (a, b, b), (b, a, b), (b, b, a), (b, b, b),
    )


def interaction_vertices(a: float, b: float) -> tuple[tuple[float, float], ...]:
    """Vertices of [a,b]^2 in the fixed reporting order v1..v4."""
    _check_bounds(a, b)
    return ((b, b), (b, a), (a, b), (a, a))


@dataclass(frozen=True)
class ThreeFactorScenario:
    """Parameter point (beta_1, beta, beta) for the cube [1,2]^3.

    Admissible iff the predictor is positive on the cube, i.e.
    beta > -beta_1 when beta_1 <= 0 and beta > -beta_1/4 when beta_1 > 0.
    """

    beta1: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.beta1) and math.isfinite(self.beta)):
            raise ValidationError("scenario parameters must be finite")
        if self.beta1 <= 0.0:
            admissible = self.beta > -self.beta1
        else:
            admissible = self.beta > -self.beta1 / 4.0
        if not admissible:
            raise ValidationError("parameter point leaves the predictor nonpositive on the cube")

    @property
    def gamma(self) -> float | None:
        """Ratio beta/beta_1, or None when beta_1 = 0."""
        if self.beta1 == 0.0:
            return None
        return self.beta / self.beta1

    def beta_vector(self) -> tuple[float, float, float]:
        return (self.beta1, self.beta, self.beta)


@dataclass(frozen=True)
class Classification:
    """A subregion label with its design, if one is available in closed form."""

    label: ThreeFactorLabel | InteractionLabel
    design: Design | None
    numerical: bool
    gamma: float | None

    def to_json(self) -> dict:
        return {
            "label": self.label.value,
            "design": None if self.design is None else design_to_json(self.design),
            "numerical": self.numerical,
            "gamma": self.gamma,
        }


def _equal_weight(points: Sequence[Sequence[float]]) -> Design:
    n = len(points)
    return Design(points, [1.0 / n] * n)


def d_optimal_orthant(nu: int, scale: Sequence[float] | None = None) -> Design:
    """Equal-weight design on the scaled axis points a_i e_i.

    Locally D-optimal on the positive orthant for every admissible
    parameter vector, regardless of the positive scale chosen.
    """
    if nu < 2:
        raise ValidationError("nu must be at least 2")
    return _equal_weight(orthant_axis_points(nu, scale))


def a_optimal_orthant(beta: Sequence[float], scale: Sequence[float] | None = None) -> Design:
    """Axis-point design with weights beta_i / sum(beta), locally A-optimal.

    The scale of each axis point cancels from the information matrix, so
    the weights do not depend on it.
    """
    vec = [float(c) for c in beta]
    nu = len(vec)
    if nu < 2:
        raise ValidationError("beta must have at least two entries")
    if any(c <= 0.0 for c in vec):
        raise NonpositivePredictor("orthant positivity requires every beta_i > 0")
    total = sum(vec)
    return Design(orthant_axis_points(nu, scale), [c / total for c in vec])


def d_optimal_two_factor(a: float, b: float) -> Design:
    """Equal-weight design on (a,b) and (b,a), D-optimal on [a,b]^2."""
    _check_bounds(a, b)
    return _equal_weight([(a, b), (b, a)])


def a_optimal_two_factor(a: float, b: float, beta: Sequence[float]) -> Design:
    """Two-point design on (a,b) and (b,a) with A-optimal weights.

    Each support point carries weight proportional to its own predictor
    value; this pairing (and only this one) attains the equivalence
    bound at both points.
    """
    _check_bounds(a, b)
    b1, b2 = (float(c) for c in beta)
    if b1 * a + b2 * b <= 0.0 or b1 * b + b2 * a <= 0.0:
        raise NonpositivePredictor("predictor must be positive at both support points")
    w1 = (b1 * a + b2 * b) / ((b1 + b2) * (a + b))
    return Design([(a, b), (b, a)], [w1, 1.0 - w1])


def simplex_design(nu: int, a: float, b: float) -> Design:
    """Equal-weight design on the nu cube vertices with a single high coordinate."""
    if nu < 3:
        raise ValidationError("nu must be at least 3")
    _check_bounds(a, b)
    points = []
    for j in range(nu):
        pt = [float(a)] * nu
        pt[j] = float(b)
        points.append(pt)
    return _equal_weight(points)


def is_simplex_design_d_optimal(nu: int, a: float, b: float, beta: Sequence[float]) -> bool:
    """Whether the single-high-coordinate design is D-optimal at ``beta``.

    Checks the vertex condition
    sum_j (x_j - q T(x))^2 c_j^2 <= (b-a)^2 (sum_j beta_j x_j)^2
    with T(x) = sum x_i, q = a/((nu-1)a + b) and
    c_j = (b-a) beta_j + a sum(beta) at every cube vertex.
    """
    if nu < 3:
        raise ValidationError("nu must be at least 3")
    X = np.asarray(region_vertices(ExperimentalRegion.hypercube(a, b, nu)))
    _intensity_arrays(GammaModel.first_order(nu), beta, X)  # raises unless positive at every vertex
    vec = np.asarray(beta, dtype=float)
    q = a / ((nu - 1) * a + b)
    c = (b - a) * vec + a * float(vec.sum())
    lhs = (X - q * X.sum(axis=1, keepdims=True)) ** 2 @ c**2
    rhs = (b - a) ** 2 * (X @ vec) ** 2
    return bool(np.all(lhs <= rhs * (1.0 + _VERTEX_CONDITION_RTOL)))


def equal_beta_threshold(nu: int) -> float:
    """Threshold on (b/a)^2 above which the simplex design is D-optimal
    under equal parameter values: (nu-1)(nu-2)/2."""
    if nu < 2:
        raise ValidationError("nu must be at least 2")
    return (nu - 1) * (nu - 2) / 2.0


def xi3_weights(gamma: float) -> tuple[float, float, float, float]:
    """Weights of the four-vertex design on {v2,v3,v4,v5} of [1,2]^3.

    Defined for gamma = beta/beta_1 strictly between -5/23 and 1/5; the
    weights are positive there and sum to one.
    """
    if not -5.0 / 23.0 < gamma < 0.2:
        raise ValidationError("gamma must lie strictly between -5/23 and 1/5")
    w1 = (5.0 + 23.0 * gamma) / (16.0 * (1.0 + 4.0 * gamma))
    w2 = 9.0 * (1.0 + 3.0 * gamma) ** 2 / (32.0 * (1.0 + gamma) * (1.0 + 4.0 * gamma))
    w4 = (1.0 - gamma - 20.0 * gamma**2) / (8.0 * (1.0 + gamma) * (1.0 + 4.0 * gamma))
    return (w1, w2, w2, w4)


def classify_three_factor(scenario: ThreeFactorScenario) -> Classification:
    """D-optimal design on [1,2]^3 for a parameter point (beta_1, beta, beta).

    Every admissible point falls in exactly one subregion. Four of them
    carry closed-form designs; on the remaining band (beta_1 < 0,
    -3 < gamma < -6/5) the weights must be computed numerically and the
    returned design is None.
    """
    v = three_factor_vertices(1.0, 2.0)
    gamma = scenario.gamma
    if gamma is None or (scenario.beta1 > 0 and gamma >= 0.2) or (scenario.beta1 < 0 and gamma <= -3.0):
        return Classification(ThreeFactorLabel.XI1, _equal_weight([v[1], v[2], v[3]]), False, gamma)
    if scenario.beta1 > 0:
        if gamma <= -5.0 / 23.0:
            return Classification(ThreeFactorLabel.XI2, _equal_weight([v[2], v[3], v[4]]), False, gamma)
        design = Design([v[1], v[2], v[3], v[4]], xi3_weights(gamma))
        return Classification(ThreeFactorLabel.XI3, design, False, gamma)
    if gamma >= -1.2:
        return Classification(ThreeFactorLabel.XI4, _equal_weight([v[1], v[5], v[6]]), False, gamma)
    return Classification(ThreeFactorLabel.XI5_NUMERICAL, None, True, gamma)


def _drop_vertex_forms(a: float, b: float, beta: np.ndarray) -> tuple[float, float, float, float]:
    """Quadratic forms deciding, in order, whether v4, v2, v3 or v1 can
    be dropped from the support on [a,b]^2 (form <= 0 means: drop)."""
    b1, b2, b3 = beta
    ia, ib = 1.0 / a, 1.0 / b
    form_i = b3**2 + ib**2 * (b1**2 + b2**2) + (ib**2 - ia**2 + 2.0 * ia * ib) * b1 * b2 + 2.0 * ib * b3 * (b1 + b2)
    form_ii = b3**2 + ib**2 * b1**2 + ia**2 * b2**2 + 2.0 * ib * b3 * b1 + 2.0 * ia * b3 * b2 + (ib**2 + ia**2) * b1 * b2
    form_iii = b3**2 + ib**2 * b2**2 + ia**2 * b1**2 + 2.0 * ib * b3 * b2 + 2.0 * ia * b3 * b1 + (ib**2 + ia**2) * b1 * b2
    form_iv = b3**2 + ia**2 * (b1**2 + b2**2) + (ia**2 - ib**2 + 2.0 * ia * ib) * b1 * b2 + 2.0 * ia * b3 * (b1 + b2)
    return form_i, form_ii, form_iii, form_iv


def d_optimal_interaction(a: float, b: float, beta: Sequence[float]) -> Classification:
    """D-optimal design for the interaction model on [a,b]^2.

    One of four quadratic-form conditions in beta may allow dropping a
    vertex, giving an equal-weight three-point design. Otherwise all
    four vertices support the optimum; the weights are in closed form
    when beta_1 = beta_2 and numerical (design None) when not.

    The condition labelled ``Case_ii`` drops vertex v2 = (b,a) and
    ``Case_iii`` drops v3 = (a,b): the intensity ranking of the mapped
    intercept model ties each condition to those supports, which the
    brute-force oracle confirms.
    """
    v = interaction_vertices(a, b)
    _intensity_arrays(GammaModel.interaction(), beta, v)  # raises unless positive at every vertex
    vec = np.asarray(beta, dtype=float)
    tol = _DROP_CONDITION_RTOL * float(vec @ vec)
    forms = _drop_vertex_forms(a, b, vec)
    supports = (
        (InteractionLabel.CASE_I, (v[0], v[1], v[2])),
        (InteractionLabel.CASE_II, (v[0], v[2], v[3])),
        (InteractionLabel.CASE_III, (v[0], v[1], v[3])),
        (InteractionLabel.CASE_IV, (v[1], v[2], v[3])),
    )
    gamma = vec[0] / vec[2] if vec[0] == vec[1] and vec[2] != 0.0 else None
    for form, (label, support) in zip(forms, supports):
        if form <= tol:
            return Classification(label, _equal_weight(support), False, gamma)
    if gamma is not None and gamma > -a / 2.0:
        return Classification(InteractionLabel.CASE_V_FOUR_POINT, _four_point_interaction(a, b, gamma), False, gamma)
    return Classification(InteractionLabel.CASE_V_FOUR_POINT, None, True, gamma)


def _four_point_interaction(a: float, b: float, gamma: float) -> Design:
    w1 = (a * b - (a - 3.0 * b) * gamma) / (4.0 * b * (a + 2.0 * gamma))
    w2 = (a * b + (a + b) * gamma) ** 2 / (4.0 * a * b * (b + 2.0 * gamma) * (a + 2.0 * gamma))
    w4 = (a * b - (b - 3.0 * a) * gamma) / (4.0 * a * (b + 2.0 * gamma))
    return Design(interaction_vertices(a, b), [w1, w2, w2, w4])


def interaction_equal_beta(a: float, b: float, gamma: float) -> Classification:
    """D-optimal design on [a,b]^2 when beta_1 = beta_2, by the ratio
    gamma = beta/beta_3 > -a/2.

    Low ratios drop v1 = (b,b); on a long enough square (b > 3a) high
    ratios drop v4 = (a,a); in between all four vertices carry weight.
    The four-point weight formula also extends beyond the b <= 3a case,
    where no ratio allows dropping v4.
    """
    _check_bounds(a, b)
    if not math.isfinite(gamma) or gamma <= -a / 2.0:
        raise ValidationError("gamma must exceed -a/2")
    if gamma <= -a * b / (3.0 * b - a):
        v = interaction_vertices(a, b)
        return Classification(InteractionLabel.CASE_IV, _equal_weight([v[1], v[2], v[3]]), False, gamma)
    if b - 3.0 * a > 0.0 and gamma >= a * b / (b - 3.0 * a):
        v = interaction_vertices(a, b)
        return Classification(InteractionLabel.CASE_I, _equal_weight([v[0], v[1], v[2]]), False, gamma)
    return Classification(InteractionLabel.CASE_V_FOUR_POINT, _four_point_interaction(a, b, gamma), False, gamma)


def intensity_ranking(
    model: GammaModel, beta: Sequence[float], region: ExperimentalRegion
) -> list[list[tuple[tuple[float, ...], float]]]:
    """Cube vertices grouped by descending intensity.

    Each group collects vertices whose intensities agree to relative
    ``1e-12``; within a group the vertex enumeration order is kept.
    """
    if region.kind is not RegionKind.HYPERCUBE:
        raise ValidationError("intensity ranking is defined on hypercube regions")
    vertices = region_vertices(region)
    _, u = _intensity_arrays(model, beta, vertices)
    values = list(zip(vertices, u.tolist()))
    values.sort(key=lambda item: -item[1])
    groups: list[list[tuple[tuple[float, ...], float]]] = []
    for pt, val in values:
        if groups and groups[-1][0][1] - val <= _RANKING_TIE_RTOL * groups[-1][0][1]:
            groups[-1].append((pt, val))
        else:
            groups.append([(pt, val)])
    return groups
