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
    COINCIDENCE_TOL,
    Design,
    ExperimentalRegion,
    GammaModel,
    NonpositivePredictor,
    ValidationError,
    _canonical_points,
    _check_beta,
    _check_bounds,
    _check_count,
    _floats,
    _index_bits,
    _positive_predictor,
    _rescaled,
    _scaled_beta,
    _scaled_intensities,
    _tamed,
    design_to_json,
    region_vertices,
)
from .equivalence import _axis_scales

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
    return ((a, a, a), (b, a, a), (a, b, a), (a, a, b), (a, b, b), (b, a, b), (b, b, a), (b, b, b))


def interaction_vertices(a: float, b: float) -> tuple[tuple[float, float], ...]:
    """Vertices of [a,b]^2 in the fixed reporting order v1..v4."""
    return _square(*_check_bounds(a, b))


def _square(a: float, b: float) -> tuple[tuple[float, float], ...]:
    return ((b, b), (b, a), (a, b), (a, a))


_CUBE = three_factor_vertices(1.0, 2.0)
_THIRDS = (1.0 / 3.0,) * 3  # the equal weights of every three-point support of the classifiers
# The models whose beta the constructors read, built once: the first-order ones once per nu.
_INTERACTION_MODEL, _first_order_model = GammaModel.interaction(), functools.lru_cache(maxsize=16)(GammaModel.first_order)


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
        vars(self).update(beta1=beta1, beta=beta)  # frozen: the converted floats are stored past the dataclass guard
        if not (math.isfinite(beta1) and math.isfinite(beta)):
            raise ValidationError("scenario parameters must be finite")
        if not (beta > -beta1 if beta1 <= 0.0 else 4.0 * beta > -beta1):  # 4 beta is exact or infinite; beta_1/4 underflows
            raise ValidationError("parameter point leaves the predictor nonpositive on the cube")

    @property
    def gamma(self) -> float | None:
        """Ratio beta/beta_1, or None when beta_1 = 0."""
        return None if self.beta1 == 0.0 else self.beta / self.beta1

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
        """The closed-form design, built on first access, or None. A span kept by ``_classified``, not a field, so
        that ``dataclasses.replace`` drops it, decides coincidence; any other support is judged as a caller's."""
        if self.numerical or "_span" not in vars(self):
            return None if self.numerical else Design(self.points, self.weights)
        return _closed_form(np.array(self.points), self._span, self.weights)

    def to_json(self) -> dict:
        design = None if self.design is None else design_to_json(self.design)
        return {"label": self.label.value, "design": design, "numerical": self.numerical, "gamma": self.gamma}


def _classified(label, points, weights, gamma, span: float) -> Classification:
    """A classifier's result on distinct vertices of [a,b]^nu, whose span b - a lets ``design`` skip the search."""
    result = Classification(label, points, weights, gamma)
    vars(result)["_span"] = span
    return result


def _closed_form(X: np.ndarray, span: float, weights: Sequence[float] | None = None) -> Design:
    """The design on weights (equal when None) over its constructor's support array X, any two of whose points differ by
    ``span`` or more in some coordinate, so that ``span >= COINCIDENCE_TOL`` is the verdict of ``_has_coincident``: two
    vertices of [a,b]^nu differ by abs(u - v) = b - a, and axis points a_i e_i, a_j e_j by a_i and a_j, so ``sorted(a)[1]``."""
    return Design._distinct(X, np.full(len(X), 1.0 / len(X)) if weights is None else np.array(weights), span >= COINCIDENCE_TOL)


def d_optimal_orthant(nu: int, scale: Sequence[float] | None = None) -> Design:
    """Equal-weight design on the scaled axis points a_i e_i.

    Locally D-optimal on the positive orthant for every admissible
    parameter vector, regardless of the positive scale chosen.
    """
    scale = _axis_scales(_check_count(nu, 2), scale)
    return _closed_form(np.diag(scale), sorted(scale)[1])


def a_optimal_orthant(beta: Sequence[float], scale: Sequence[float] | None = None) -> Design:
    """Axis-point design with weights beta_i / sum(beta), locally A-optimal.

    The scale of each axis point cancels from the information matrix, so
    the weights do not depend on it. They are of degree 0 in beta, which is
    read by ``_check_beta`` and scaled by ``_tamed``, so no sum overflows.
    """
    vec = _check_beta(None, beta)
    # Positivity in pure Python: a kernel call would cost more than the whole constructor.
    if any(c <= 0.0 for c in vec):
        raise NonpositivePredictor("orthant positivity requires every beta_i > 0")
    scale, scaled = _axis_scales(len(vec), scale), _tamed(*vec)
    total = sum(scaled)
    return _closed_form(np.diag(scale), sorted(scale)[1], [c / total for c in scaled])


def d_optimal_two_factor(a: float, b: float) -> Design:
    """Equal-weight design on (a,b) and (b,a), D-optimal on [a,b]^2."""
    a, b = _check_bounds(a, b)
    return _closed_form(np.array(((a, b), (b, a))), b - a)


def a_optimal_two_factor(a: float, b: float, beta: Sequence[float]) -> Design:
    """Two-point design on (a,b) and (b,a) with A-optimal weights.

    Each support point carries weight proportional to its own predictor
    value; this pairing (and only this one) attains the equivalence
    bound at both points. The weights are of degree 0 in beta, which is
    read by ``_scaled_beta``, so they are formed at its scaled form.
    """
    a, b = _check_bounds(a, b)
    b1, b2 = _scaled_beta(_first_order_model(2), beta)[0]
    # Positivity in pure Python, as in a_optimal_orthant.
    if b1 * a + b2 * b <= 0.0 or b1 * b + b2 * a <= 0.0:
        raise NonpositivePredictor("predictor must be positive at both support points")
    w1 = (b1 * a + b2 * b) / ((b1 + b2) * (a + b))
    return _closed_form(np.array(((a, b), (b, a))), b - a, (w1, 1.0 - w1))


def simplex_design(nu: int, a: float, b: float) -> Design:
    """Equal-weight design on the nu cube vertices with a single high coordinate."""
    _check_count(nu, 3)
    a, b = _check_bounds(a, b)
    return _closed_form(np.where(np.eye(nu, dtype=bool), b, a), b - a)


def is_simplex_design_d_optimal(nu: int, a: float, b: float, beta: Sequence[float]) -> bool:
    """Whether the single-high-coordinate design is D-optimal at ``beta``.

    Checks the vertex condition sum_j (x_j - q T(x))^2 c_j^2 <= (b-a)^2 (sum_j beta_j x_j)^2,
    with T(x) = sum x_i, q = a/((nu-1)a + b) and c_j = (b-a) beta_j + a sum(beta), exactly at
    every cube vertex but the design's own support vertices (in ``region_vertices`` order, the
    indices with one bit set), which meet it with equality whatever beta is and are not judged.
    """
    model = _first_order_model(_check_count(nu, 3))
    a, b = _check_bounds(a, b)
    vec = np.array(_scaled_beta(model, beta)[0])  # both sides of the condition are of degree 2 in beta
    X, eta = _positive_predictor(model, vec, np.where(_index_bits(nu), b, a))  # raises unless positive at every vertex
    q = a / ((nu - 1) * a + b)
    c = (b - a) * vec + a * float(vec.sum())
    violated = (X - q * X.sum(axis=1, keepdims=True)) ** 2 @ c**2 > (b - a) ** 2 * eta**2
    return all(0 < k and k & (k - 1) == 0 for k in np.flatnonzero(violated).tolist())


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
    """``xi3_weights`` unchecked and ratio-scaled by ``_tamed``, at a float ratio or elementwise at an array
    of them. Squares are products, which round alike on floats and arrays; pow() need not."""
    one, g = _tamed(1.0, gamma)
    t = one + 3.0 * g
    w1 = (5.0 * one + 23.0 * g) / (16.0 * (one + 4.0 * g))
    w2 = 9.0 * (t * t) / (32.0 * (one + g) * (one + 4.0 * g))
    w4 = (one * one - one * g - 20.0 * (g * g)) / (8.0 * (one + g) * (one + 4.0 * g))
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
        return _classified(ThreeFactorLabel.XI1, _CUBE[1:4], _THIRDS, gamma, 1.0)
    table, index = _three_factor_cases(scenario.beta1, gamma)
    return _classified(*table[index], gamma, 1.0)


def _three_factor_cases(beta1: float, gamma):
    """Case table (label, support, weights) of [1,2]^3 for beta_1 != 0, and the
    case index of gamma: an int for a float ratio, an array for an array of them."""
    if beta1 > 0.0:
        return _four_point_cases((ThreeFactorLabel.XI2, ThreeFactorLabel.XI1, ThreeFactorLabel.XI3), _CUBE[1:5], _xi3_weights(gamma))
    # No closed-form weight vanishes on the edges of beta_1 < 0, so they stay constants.
    xi1, xi4 = _CUBE[1:4], (_CUBE[1], _CUBE[5], _CUBE[6])
    table = ((ThreeFactorLabel.XI1, xi1, _THIRDS), (ThreeFactorLabel.XI4, xi4, _THIRDS), (ThreeFactorLabel.XI5_NUMERICAL, None, None))
    return table, _case_index(gamma > -3.0, gamma < -1.2)


def _four_point_cases(labels, points, weights):
    """Case table and case index of a four-point closed form, decided by its end
    weights: the equal-weight triple without the first point where that weight
    is not positive, else without the last where that one is not, else all four."""
    table = ((labels[0], points[1:], _THIRDS), (labels[1], points[:3], _THIRDS), (labels[2], points, weights))
    return table, _case_index(weights[0] > 0.0, weights[3] > 0.0)


def _case_index(first, second):
    """0 where ``first`` fails, else 1 where ``second`` fails, else 2: an int on bools, an array on arrays."""
    return first * (1 + second)


def d_optimal_interaction(a: float, b: float, beta: Sequence[float]) -> Classification:
    """D-optimal design for the interaction model on [a,b]^2.

    For beta_1 = beta_2 with beta_3 >= 0 the four-point weights decide the
    case, as ``interaction_equal_beta`` states. Otherwise vertex v_k may be
    dropped, giving an equal-weight three-point design, when the
    intercept-model rule transferred through the square map holds
    (Gaffke, Idais & Schwabe): with e_k = f(v_k)' beta / (v_k1 v_k2) the
    intercept predictor at the mapped corner, sum_{j != k} e_j^2 <= e_k^2,
    tried in the order v4, v2, v3, v1 (``Case_i`` to ``Case_iv``); else all
    four vertices support the optimum with numerical weights (None). Both
    rules read beta scaled by ``_tamed``, so they are invariant to scale.
    """
    a, b = _check_bounds(a, b)
    v = _square(a, b)
    vec = _check_beta(_INTERACTION_MODEL, beta)
    scaled = _tamed(*vec)
    _, eta = _positive_predictor(_INTERACTION_MODEL, scaled, np.array(v))  # raises unless positive at every vertex
    gamma = vec[0] / vec[2] if vec[0] == vec[1] and vec[2] != 0.0 else None
    if vec[0] == vec[1] and vec[2] >= 0.0:
        table, index = _interaction_cases(a, b, scaled[0], scaled[2])
        return _classified(*table[index], gamma, b - a)
    e2 = [(h / (x1 * x2)) ** 2 for h, (x1, x2) in zip(eta.tolist(), v)]
    half = 0.5 * sum(e2)
    drops = ((InteractionLabel.CASE_I, 3), (InteractionLabel.CASE_II, 1), (InteractionLabel.CASE_III, 2), (InteractionLabel.CASE_IV, 0))
    for label, k in drops:
        if half <= e2[k]:
            return _classified(label, v[:k] + v[k + 1:], _THIRDS, gamma, b - a)
    return Classification(InteractionLabel.CASE_V_FOUR_POINT, None, None, gamma)


def _four_point_interaction(a: float, b: float, beta1, beta3=1.0):
    """The four-vertex weights at beta = (beta1, beta1, beta3 >= 0), on floats or elementwise
    on arrays: beta3 = 1 on the ratio path, and a tiny beta3 passed as such overflows no
    ratio, nor does a huge one in the scaled form of ``_tamed``. Squares are written as
    products for the reason given in ``_xi3_weights``."""
    beta1, beta3 = _tamed(beta1, beta3)
    ab = a * b * beta3
    s = ab + (a + b) * beta1
    w1 = (ab - (a - 3.0 * b) * beta1) / (4.0 * b * (a * beta3 + 2.0 * beta1))
    w2 = s * s / (4.0 * a * b * (b * beta3 + 2.0 * beta1) * (a * beta3 + 2.0 * beta1))
    w4 = (ab - (b - 3.0 * a) * beta1) / (4.0 * a * (b * beta3 + 2.0 * beta1))
    return (w1, w2, w2, w4)


def interaction_equal_beta(a: float, b: float, gamma: float) -> Classification:
    """D-optimal design on [a,b]^2 when beta_1 = beta_2, by the ratio
    gamma = beta/beta_3: ``d_optimal_interaction`` at (gamma, gamma, 1),
    admissible when the predictor is positive at every vertex
    (gamma > -a/2). The four-point weights decide the case: the weight of
    v1 = (b,b) vanishes at gamma = -ab/(3b-a) and, when b > 3a, that of
    v4 = (a,a) at ab/(b-3a); a vertex whose weight is not positive is
    dropped (``Case_iv``, ``Case_i``).
    """
    a, b = _check_bounds(a, b)
    (gamma,) = _floats((gamma,), "gamma")
    try:
        return d_optimal_interaction(a, b, (gamma, gamma, 1.0))
    except NonpositivePredictor as exc:
        raise ValidationError("gamma must exceed -a/2") from exc


def _interaction_cases(a: float, b: float, gamma, beta3=1.0):
    """Case table (label, support, weights) of the square [a,b]^2 on validated bounds at
    beta = (gamma, gamma, beta3 >= 0), and the case index as in ``_three_factor_cases``."""
    labels = (InteractionLabel.CASE_IV, InteractionLabel.CASE_I, InteractionLabel.CASE_V_FOUR_POINT)
    return _four_point_cases(labels, _square(a, b), _four_point_interaction(a, b, gamma, beta3))


def intensity_ranking(
    model: GammaModel, beta: Sequence[float], region: ExperimentalRegion
) -> list[list[tuple[tuple[float, ...], float]]]:
    """Cube vertices grouped by descending intensity.

    Each group collects vertices whose intensities agree to relative
    ``1e-12``; within a group the vertex enumeration order is kept. The
    intensities are compared relative to the largest, from the mantissas and
    exponents of ``_scaled_intensities``, so the groups are the same at every
    2^k beta and on every cube [2^k a, 2^k b]^nu; the reported u(x, beta) is
    scaled back by the exact power of four, to inf or 0 beyond the float range.
    """
    V = region_vertices(region)  # raises unless the region is a hypercube
    _, mantissas, t = _scaled_intensities(model, beta, V)
    u = _rescaled(mantissas, t)
    keys = _rescaled(mantissas, t - np.maximum.reduce(t))  # u relative to 2**max(t): the largest key is in (1, 4]
    groups: list[list[tuple[tuple[float, ...], float]]] = []
    for pt, key, val in sorted(zip(_canonical_points(V), keys.tolist(), u.tolist()), key=lambda item: -item[1]):
        if groups and head - key <= _RANKING_TIE_RTOL * head:
            groups[-1].append((pt, val))
        else:
            groups.append([(pt, val)])
            head = key  # the largest key of the new group
    return groups
