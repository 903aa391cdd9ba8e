"""Closed-form locally optimal designs and parameter-space classifiers.

Covers the saturated orthant designs (D and A), the two-factor designs
on a square, the equal-weight "one high coordinate" simplex design on a
cube with its optimality condition, the full subregion classifier for
the three-factor cube [1,2]^3 with beta_2 = beta_3, and the vertex
designs for the two-factor interaction model on [a,b]^2.
"""

from __future__ import annotations

import enum
import functools
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
    ValidationError,
    _check_beta,
    _check_bounds,
    _check_count,
    _floats,
    _intensity_arrays,
    _positive_predictor,
    _predictor,
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
# Conditions for dropping a square vertex count as satisfied below this
# multiple of |beta|^2.
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
    a, b = _check_bounds(a, b)
    return (
        (a, a, a), (b, a, a), (a, b, a), (a, a, b),
        (a, b, b), (b, a, b), (b, b, a), (b, b, b),
    )


def interaction_vertices(a: float, b: float) -> tuple[tuple[float, float], ...]:
    """Vertices of [a,b]^2 in the fixed reporting order v1..v4."""
    return _square(*_check_bounds(a, b))


def _square(a: float, b: float) -> tuple[tuple[float, float], ...]:
    return ((b, b), (b, a), (a, b), (a, a))


_CUBE = three_factor_vertices(1.0, 2.0)


@dataclass(frozen=True)
class ThreeFactorScenario:
    """Parameter point (beta_1, beta, beta) for the cube [1,2]^3.

    Admissible iff the predictor is positive on the cube, i.e.
    beta > -beta_1 when beta_1 <= 0 and beta > -beta_1/4 when beta_1 > 0.
    """

    beta1: float
    beta: float

    def __post_init__(self) -> None:
        beta1, beta = _floats((self.beta1, self.beta), "scenario parameters")
        object.__setattr__(self, "beta1", beta1)
        object.__setattr__(self, "beta", beta)
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
    """A subregion label with its closed-form support and weights, both None if numerical."""

    label: ThreeFactorLabel | InteractionLabel
    points: tuple[tuple[float, ...], ...] | None
    weights: tuple[float, ...] | None
    gamma: float | None

    @property
    def numerical(self) -> bool:
        """Whether the weights must be computed numerically (no closed-form design)."""
        return self.points is None

    @functools.cached_property
    def design(self) -> Design | None:
        """The closed-form design, built on first access, or None."""
        return None if self.numerical else Design(self.points, self.weights)

    def to_json(self) -> dict:
        return {
            "label": self.label.value,
            "design": None if self.design is None else design_to_json(self.design),
            "numerical": self.numerical,
            "gamma": self.gamma,
        }


def _equal_weight(points: Sequence[Sequence[float]]) -> tuple[tuple, tuple[float, ...]]:
    n = len(points)
    return tuple(points), (1.0 / n,) * n


def d_optimal_orthant(nu: int, scale: Sequence[float] | None = None) -> Design:
    """Equal-weight design on the scaled axis points a_i e_i.

    Locally D-optimal on the positive orthant for every admissible
    parameter vector, regardless of the positive scale chosen.
    """
    return Design(*_equal_weight(orthant_axis_points(_check_count(nu, 2), scale)))


def a_optimal_orthant(beta: Sequence[float], scale: Sequence[float] | None = None) -> Design:
    """Axis-point design with weights beta_i / sum(beta), locally A-optimal.

    The scale of each axis point cancels from the information matrix, so
    the weights do not depend on it.
    """
    vec = _floats(beta, "beta")
    if len(vec) < 2:
        raise ValidationError("beta must have at least two entries")
    # Positivity in pure Python: a kernel call would cost more than the whole constructor.
    if any(c <= 0.0 for c in vec):
        raise NonpositivePredictor("orthant positivity requires every beta_i > 0")
    total = sum(vec)
    return Design(orthant_axis_points(len(vec), scale), [c / total for c in vec])


def d_optimal_two_factor(a: float, b: float) -> Design:
    """Equal-weight design on (a,b) and (b,a), D-optimal on [a,b]^2."""
    a, b = _check_bounds(a, b)
    return Design(*_equal_weight([(a, b), (b, a)]))


def a_optimal_two_factor(a: float, b: float, beta: Sequence[float]) -> Design:
    """Two-point design on (a,b) and (b,a) with A-optimal weights.

    Each support point carries weight proportional to its own predictor
    value; this pairing (and only this one) attains the equivalence
    bound at both points.
    """
    a, b = _check_bounds(a, b)
    vec = _floats(beta, "beta")
    if len(vec) != 2:
        raise ValidationError("beta must have two entries")
    b1, b2 = vec
    # Positivity in pure Python, as in a_optimal_orthant.
    if b1 * a + b2 * b <= 0.0 or b1 * b + b2 * a <= 0.0:
        raise NonpositivePredictor("predictor must be positive at both support points")
    w1 = (b1 * a + b2 * b) / ((b1 + b2) * (a + b))
    return Design([(a, b), (b, a)], [w1, 1.0 - w1])


def simplex_design(nu: int, a: float, b: float) -> Design:
    """Equal-weight design on the nu cube vertices with a single high coordinate."""
    _check_count(nu, 3)
    a, b = _check_bounds(a, b)
    return Design(*_equal_weight([(a,) * j + (b,) + (a,) * (nu - 1 - j) for j in range(nu)]))


def is_simplex_design_d_optimal(nu: int, a: float, b: float, beta: Sequence[float]) -> bool:
    """Whether the single-high-coordinate design is D-optimal at ``beta``.

    Checks the vertex condition
    sum_j (x_j - q T(x))^2 c_j^2 <= (b-a)^2 (sum_j beta_j x_j)^2
    with T(x) = sum x_i, q = a/((nu-1)a + b) and
    c_j = (b-a) beta_j + a sum(beta) at every cube vertex.
    """
    model = GammaModel.first_order(_check_count(nu, 3))
    region = ExperimentalRegion.hypercube(a, b, nu)
    a, b, vec = region.a, region.b, _check_beta(model, beta)
    X, eta = _positive_predictor(model, vec, region_vertices(region))  # raises unless positive at every vertex
    q = a / ((nu - 1) * a + b)
    c = (b - a) * vec + a * float(vec.sum())
    lhs = (X - q * X.sum(axis=1, keepdims=True)) ** 2 @ c**2
    rhs = (b - a) ** 2 * eta**2
    return bool(np.all(lhs <= rhs * (1.0 + _VERTEX_CONDITION_RTOL)))


def equal_beta_threshold(nu: int) -> float:
    """Threshold on (b/a)^2 above which the simplex design is D-optimal
    under equal parameter values: (nu-1)(nu-2)/2."""
    _check_count(nu, 2)
    return (nu - 1) * (nu - 2) / 2.0


def xi3_weights(gamma: float) -> tuple[float, float, float, float]:
    """Weights of the four-vertex design on {v2,v3,v4,v5} of [1,2]^3.

    Defined for gamma = beta/beta_1 strictly between -5/23 and 1/5; the
    weights are positive there and sum to one.
    """
    (gamma,) = _floats((gamma,), "gamma")
    if not -5.0 / 23.0 < gamma < 0.2:
        raise ValidationError("gamma must lie strictly between -5/23 and 1/5")
    return _xi3_weights(gamma)


def _xi3_weights(gamma):
    """``xi3_weights`` unchecked, at a float ratio or elementwise at an array of them.
    Squares are products, which round alike on floats and arrays; pow() need not."""
    t = 1.0 + 3.0 * gamma
    w1 = (5.0 + 23.0 * gamma) / (16.0 * (1.0 + 4.0 * gamma))
    w2 = 9.0 * (t * t) / (32.0 * (1.0 + gamma) * (1.0 + 4.0 * gamma))
    w4 = (1.0 - gamma - 20.0 * (gamma * gamma)) / (8.0 * (1.0 + gamma) * (1.0 + 4.0 * gamma))
    return (w1, w2, w2, w4)


def classify_three_factor(scenario: ThreeFactorScenario) -> Classification:
    """D-optimal design on [1,2]^3 for a parameter point (beta_1, beta, beta).

    Every admissible point falls in exactly one subregion. For beta_1 > 0 the
    Xi3 weights decide it: their first weight vanishes at gamma = -5/23 and
    their last at 1/5, and a vertex whose weight is not positive is dropped
    (Xi2, Xi1). For beta_1 < 0 the edges -3 and -6/5 are constants; on the
    band between them the weights must be computed numerically and the
    returned support and weights are None.
    """
    gamma = scenario.gamma
    if gamma is None:
        return Classification(ThreeFactorLabel.XI1, *_equal_weight(_CUBE[1:4]), gamma)
    table, index = _three_factor_cases(scenario.beta1, gamma)
    return Classification(*table[index], gamma)


def _three_factor_cases(beta1: float, gamma):
    """Case table (label, support, weights) of [1,2]^3 for beta_1 != 0, and the
    case index of gamma: an int for a float ratio, an array for an array of them."""
    if beta1 > 0.0:
        return _four_point_cases((ThreeFactorLabel.XI2, ThreeFactorLabel.XI1, ThreeFactorLabel.XI3), _CUBE[1:5], _xi3_weights(gamma))
    # No closed-form weight vanishes on the edges of beta_1 < 0, so they stay constants.
    xi1, xi4 = _equal_weight(_CUBE[1:4]), _equal_weight((_CUBE[1], _CUBE[5], _CUBE[6]))
    table = ((ThreeFactorLabel.XI1, *xi1), (ThreeFactorLabel.XI4, *xi4), (ThreeFactorLabel.XI5_NUMERICAL, None, None))
    return table, _case_index(gamma > -3.0, gamma < -1.2)


def _four_point_cases(labels, points, weights):
    """Case table and case index of a four-point closed form, decided by its end
    weights: the equal-weight triple without the first point where that weight
    is not positive, else without the last where that one is not, else all four."""
    table = ((labels[0], *_equal_weight(points[1:])), (labels[1], *_equal_weight(points[:3])), (labels[2], points, weights))
    return table, _case_index(weights[0] > 0.0, weights[3] > 0.0)


def _case_index(first, second):
    """0 where ``first`` fails, else 1 where ``second`` fails, else 2: an int on bools, an array on arrays."""
    return first * (1 + second)


def d_optimal_interaction(a: float, b: float, beta: Sequence[float]) -> Classification:
    """D-optimal design for the interaction model on [a,b]^2.

    Vertex v_k may be dropped, giving an equal-weight three-point design,
    when the intercept-model rule transferred through the square map holds
    (Gaffke, Idais & Schwabe): with e_k = f(v_k)' beta / (v_k1 v_k2) the
    intercept predictor at the mapped corner,
    sum_{j != k} e_j^2 <= e_k^2. Otherwise all four vertices support the
    optimum; the weights are in closed form when beta_1 = beta_2 and
    numerical (support and weights None) when not. Vertices are tried in
    the order v4, v2, v3, v1, labelled ``Case_i`` to ``Case_iv``.
    """
    a, b = _check_bounds(a, b)
    v = interaction_vertices(a, b)
    model = GammaModel.interaction()
    vec = _check_beta(model, beta)
    _, eta = _positive_predictor(model, vec, v)  # raises unless positive at every vertex
    tol = _DROP_CONDITION_RTOL * float(vec @ vec)
    e2 = [(h / (x1 * x2)) ** 2 for h, (x1, x2) in zip(eta.tolist(), v)]
    half = 0.5 * sum(e2)
    drops = ((InteractionLabel.CASE_I, 3), (InteractionLabel.CASE_II, 1), (InteractionLabel.CASE_III, 2), (InteractionLabel.CASE_IV, 0))
    beta1, beta2, beta3 = vec.tolist()
    gamma = beta1 / beta3 if beta1 == beta2 and beta3 != 0.0 else None
    for label, k in drops:
        if half - e2[k] <= tol:
            return Classification(label, *_equal_weight(v[:k] + v[k + 1:]), gamma)
    if gamma is not None and gamma > -a / 2.0:
        return Classification(InteractionLabel.CASE_V_FOUR_POINT, v, _four_point_interaction(a, b, beta1, beta3), gamma)
    return Classification(InteractionLabel.CASE_V_FOUR_POINT, None, None, gamma)


def _four_point_interaction(a: float, b: float, beta1, beta3=1.0):
    """The four-vertex weights at beta = (beta1, beta1, beta3 > 0), on floats or elementwise
    on arrays: beta3 = 1 on the ratio path, and a tiny beta3 passed as such overflows no
    ratio. Squares are written as products for the reason given in ``_xi3_weights``."""
    ab = a * b * beta3
    s = ab + (a + b) * beta1
    w1 = (ab - (a - 3.0 * b) * beta1) / (4.0 * b * (a * beta3 + 2.0 * beta1))
    w2 = s * s / (4.0 * a * b * (b * beta3 + 2.0 * beta1) * (a * beta3 + 2.0 * beta1))
    w4 = (ab - (b - 3.0 * a) * beta1) / (4.0 * a * (b * beta3 + 2.0 * beta1))
    return (w1, w2, w2, w4)


def interaction_equal_beta(a: float, b: float, gamma: float) -> Classification:
    """D-optimal design on [a,b]^2 when beta_1 = beta_2, by the ratio
    gamma = beta/beta_3, admissible when the predictor is positive at every
    vertex (gamma > -a/2). The four-point weights decide the case: the
    weight of v1 = (b,b) vanishes at gamma = -ab/(3b-a) and, when b > 3a,
    that of v4 = (a,a) at ab/(b-3a); a vertex whose weight is not positive
    is dropped (``Case_iv``, ``Case_i``).
    """
    a, b = _check_bounds(a, b)
    (gamma,) = _floats((gamma,), "gamma")
    if not math.isfinite(gamma) or not _predictor(GammaModel.interaction(), (gamma, gamma, 1.0), _square(a, b))[2].all():
        raise ValidationError("gamma must exceed -a/2")
    table, index = _interaction_cases(a, b, gamma)
    return Classification(*table[index], gamma)


def _interaction_cases(a: float, b: float, gamma):
    """Case table (label, support, weights) of the equal-beta square [a,b]^2 on
    validated bounds, and the case index of gamma as in ``_three_factor_cases``."""
    labels = (InteractionLabel.CASE_IV, InteractionLabel.CASE_I, InteractionLabel.CASE_V_FOUR_POINT)
    return _four_point_cases(labels, _square(a, b), _four_point_interaction(a, b, gamma))


def intensity_ranking(
    model: GammaModel, beta: Sequence[float], region: ExperimentalRegion
) -> list[list[tuple[tuple[float, ...], float]]]:
    """Cube vertices grouped by descending intensity.

    Each group collects vertices whose intensities agree to relative
    ``1e-12``; within a group the vertex enumeration order is kept.
    """
    vertices = region_vertices(region)  # raises unless the region is a hypercube
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
