"""Core objects for gamma-model design problems.

This module defines the model family (first-order or two-factor
interaction predictor, both without intercept), experimental regions,
approximate designs, and the basic quantities built from them: the
intensity function and the normalized information matrix.

The solver, verification, efficiencies and transforms share one numeric
kernel here: one judge checks each point batch once, and ``_check_dimension``
its dimension against the one it must have, naming both (``_candidate_set``
judges a solver's or verification's candidates); ``_check_beta`` is the
one beta rule, and ``_scaled_beta`` reads a caller's beta by it at one
scale, for ``_columns`` (G = [sqrt(u_i) f_i]) and ``_scaled_intensities``
(u); one design's M is one product (G w) G', ``_gram``, and a stack over
parameter points one product over a table of outer products; one Cholesky
factor L gives log det M, one solve L^-1 G. A stacked rule sets the index
of the first failing member of its stack on its error, as ``_member``.

A ``Design`` keeps read-only arrays. Caller points are judged and searched
for coincident pairs; an array the library built enters by ``_distinct``,
skipping the search where an exact test decides it: rows of searched solver
candidates, or one scalar test of a closed form (b - a for cube vertices, the
second-smallest scale for axis points). Float-mapped points are searched.

The linear predictor is eta(x) = f(x)' beta with f(x) = x for the
first-order model and f(x) = (x1, x2, x1*x2) for the interaction model.
All mean-related constants drop out after normalization, so the
intensity reduces to u(x, beta) = eta(x)**-2, which is only defined
where eta(x) > 0.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
# numpy's LAPACK gufuncs, the module np.linalg itself calls, without its per-call checks: the kernel's matrices
# are float64 and square by construction. A gufunc that fails raises nothing; it fills that matrix with nan.
from numpy.linalg import _umath_linalg as _lapack

__all__ = [
    "GammaDesignError",
    "ValidationError",
    "NonpositivePredictor",
    "SingularInformation",
    "RankDeficientCandidates",
    "IterationCapExceeded",
    "ModelKind",
    "RegionKind",
    "GammaModel",
    "ExperimentalRegion",
    "Design",
    "features",
    "feature_matrix",
    "intensity",
    "information_matrix",
    "validate_positivity",
    "validate_design_region",
    "mix_designs",
    "model_to_json",
    "model_from_json",
    "region_to_json",
    "region_from_json",
    "design_to_json",
    "design_from_json",
    "COINCIDENCE_TOL",
    "WEIGHT_SUM_TOL",
]

# Two points are considered identical when no coordinate differs by more.
COINCIDENCE_TOL = 1e-12
# Design weights must sum to one within this absolute tolerance.
WEIGHT_SUM_TOL = 1e-12
# Relative pivot floor of the singularity rule in ``_factor``.
_SINGULARITY_RTOL = 1e-12
# Default ceiling on the D-sensitivity excess: the solver stops within it, and verification accepts it.
DEFAULT_TOL = 1e-9


class GammaDesignError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GammaDesignError, ValueError):
    """An input object or argument violates a documented precondition."""


class NonpositivePredictor(ValidationError):
    """The linear predictor is not strictly positive where required: always
    a fault of the caller's beta or points, so a validation error."""


class SingularInformation(GammaDesignError):
    """An information matrix is numerically singular."""


class RankDeficientCandidates(GammaDesignError):
    """A candidate set does not span the full parameter dimension."""


class IterationCapExceeded(UserWarning):
    """The iterative solver hit its iteration cap before converging."""


class ModelKind(str, enum.Enum):
    FIRST_ORDER = "first_order"
    INTERACTION = "interaction"


class RegionKind(str, enum.Enum):
    ORTHANT = "orthant"
    HYPERCUBE = "hypercube"


@dataclass(frozen=True)
class GammaModel:
    """A gamma model identified by its predictor structure.

    Parameters
    ----------
    kind:
        ``ModelKind.FIRST_ORDER`` for f(x) = x on ``nu`` factors, or
        ``ModelKind.INTERACTION`` for f(x) = (x1, x2, x1*x2) on two.
    nu:
        Number of experimental factors. Must be >= 2, and exactly 2 for
        the interaction model.
    """

    kind: ModelKind
    nu: int

    def __post_init__(self) -> None:
        interaction = self.kind is ModelKind.INTERACTION
        message = "interaction model is defined for nu = 2 only" if interaction else "first-order model requires nu >= 2"
        if _check_count(self.nu, 2, "factor count nu", message) != 2 and interaction:
            raise ValidationError(message)

    @property
    def p(self) -> int:
        """Length of the parameter vector."""
        return self.nu if self.kind is ModelKind.FIRST_ORDER else 3

    @staticmethod
    def first_order(nu: int) -> "GammaModel":
        return GammaModel(ModelKind.FIRST_ORDER, nu)

    @staticmethod
    def interaction() -> "GammaModel":
        return GammaModel(ModelKind.INTERACTION, 2)


@dataclass(frozen=True)
class ExperimentalRegion:
    """The set of admissible experimental settings.

    Either the positive orthant (no bounds stored) or the cube
    [a, b]**nu with 0 < a < b < inf.
    """

    kind: RegionKind
    nu: int
    a: float | None = None
    b: float | None = None

    def __post_init__(self) -> None:
        _check_count(self.nu, 1, "region dimension nu", "region dimension nu must be a positive integer")
        if self.kind is RegionKind.ORTHANT:
            if self.a is not None or self.b is not None:
                raise ValidationError("orthant regions store no bounds")
        else:
            if self.a is None or self.b is None:
                raise ValidationError("hypercube regions require bounds a and b")
            a, b = _check_bounds(self.a, self.b)
            vars(self).update(a=a, b=b)  # frozen: the converted floats are stored past the dataclass guard

    @staticmethod
    def orthant(nu: int) -> "ExperimentalRegion":
        return ExperimentalRegion(RegionKind.ORTHANT, nu)

    @staticmethod
    def hypercube(a: float, b: float, nu: int) -> "ExperimentalRegion":
        return ExperimentalRegion(RegionKind.HYPERCUBE, nu, a, b)

    def contains(self, x: Sequence[float]) -> bool:
        """Whether ``x`` lies in the region (boundary included)."""
        X = _judged([x])
        return X.shape[1] == self.nu and bool(self._inside(X)[0])

    def _inside(self, X: np.ndarray) -> np.ndarray:
        """Which rows of the judged points X, of the region's dimension, lie in it."""
        if self.kind is RegionKind.ORTHANT:
            return (X >= 0.0).all(axis=1) & (X > 0.0).any(axis=1)
        return _in_box(X, self.a, self.b)


def _floats(values: Iterable[float], what: str) -> tuple[float, ...]:
    """``values`` as floats, the one conversion of caller numbers outside numpy: a
    str, bytes or mapping for the sequence, or an entry float() refuses, raises
    ValidationError. Finiteness is left to each caller's rule."""
    try:
        # Tuples and lists skip the ABC test, which costs more than converting.
        if not isinstance(values, (tuple, list)) and isinstance(values, (str, bytes, Mapping)):
            raise TypeError(f"{values!r} is not a list of numbers")
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numbers: {exc}") from exc


def _check_count(n: int, minimum: int, what: str = "nu", message: str | None = None) -> int:
    """The count rule: an int, not a bool, of at least ``minimum``; ``message`` reports a smaller count."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError(f"{what} must be an integer")
    if n < minimum:
        raise ValidationError(message or f"{what} must be at least {minimum}")
    return n


def _check_dimension(d: int, nu: int, what: str, of: str) -> None:
    """The dimension rule: ``what`` of dimension d must have the dimension nu of its ``of``, else ValidationError naming both."""
    if d != nu:
        raise ValidationError(f"{what} has dimension {d}, the {of} {nu}")


def _check_bounds(a: float, b: float) -> tuple[float, float]:
    """The cube bounds rule: a and b as floats, or ValidationError unless 0 < a < b < inf."""
    a, b = _floats((a, b), "bounds")
    if not 0.0 < a < b < math.inf:
        raise ValidationError("bounds must satisfy 0 < a < b < inf")
    return a, b


def _in_box(X: np.ndarray, a: float, b: float) -> np.ndarray:
    """Which rows of X have every coordinate in [a, b], with slack 1e-12 * max(1, |b|)."""
    slack = 1e-12 * max(1.0, abs(b))
    return ((a - slack <= X) & (X <= b + slack)).all(axis=-1)


def _judged(points: Iterable[Sequence[float]]) -> np.ndarray:
    """The one check of point input: a batch of points as a new (n, d) float array of one positive
    dimension with finite coordinates, (0, 0) when empty. Anything else, such as a string or a
    set where a coordinate list belongs, raises ValidationError."""
    try:
        X = np.array(points if isinstance(points, (list, tuple, np.ndarray)) else list(points), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"points must be equal-length lists of numbers: {exc}") from exc
    if X.shape == (0,):
        return X.reshape(0, 0)
    if X.ndim != 2 or not X.shape[1]:
        raise ValidationError("points must share one positive dimension")
    if not np.logical_and.reduce(np.isfinite(X), axis=None):  # elementwise: a sum of finite coordinates may overflow
        raise ValidationError("point coordinates must be finite")
    return X


def _candidate_set(points: Iterable[Sequence[float]], of: str, nu: int) -> np.ndarray:
    """The judged candidates of a solve or a verification: a nonempty point set of dimension nu, that of its ``of``."""
    X = _judged(points)
    if not len(X):
        raise ValidationError("candidate set must be nonempty")
    _check_dimension(X.shape[1], nu, "candidate set", of)
    return X


def _canonical_points(X: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """The rows of judged points as float tuples."""
    return tuple(map(tuple, X.tolist()))


def _coincident(pt: Sequence[float], seen: Sequence[Sequence[float]]) -> int | None:
    """Index of the first point of ``seen`` that no coordinate of ``pt``
    differs from by ``COINCIDENCE_TOL`` or more, or None."""
    for k, other in enumerate(seen):
        if all(abs(u - v) < COINCIDENCE_TOL for u, v in zip(pt, other)):
            return k
    return None


def _has_coincident(points: Sequence[Sequence[float]], axis: int = 0) -> bool:
    """Whether two of ``points`` coincide by ``_coincident``, without comparing
    every pair: sorted along ``axis``, the points split wherever neighbours
    differ by ``COINCIDENCE_TOL`` or more, and each part is searched on the
    next axis. Points in different parts differ by at least the tolerance on
    that axis, so only the points of a final part are compared pairwise."""
    if len(points) < 2:
        return False
    if axis == len(points[0]):
        return any(_coincident(pt, points[:i]) is not None for i, pt in enumerate(points))
    ordered = sorted(points, key=operator.itemgetter(axis))
    start = 0
    for k in range(1, len(ordered)):
        if ordered[k][axis] - ordered[k - 1][axis] >= COINCIDENCE_TOL:
            if k - start > 1 and _has_coincident(ordered[start:k], axis + 1):  # a single point coincides with none
                return True
            start = k
    return len(ordered) - start > 1 and _has_coincident(ordered[start:], axis + 1)


class _ArrayBacked:
    """Base of the frozen dataclasses that keep read-only arrays, named in ``_ARRAYS``, and build each tuple
    field named in ``_LAZY`` from them on its first read, as ``_LAZY[name](self)``, and then keep it. The
    state of an object made, copied or unpickled is set by ``__setstate__``, which makes the arrays read-only;
    ``__getattr__`` runs only when a lookup misses, so every other name is an AttributeError."""

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        for name in self._ARRAYS:
            vars(self)[name].setflags(write=False)

    def __getattr__(self, name: str):
        if name not in self._LAZY:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = vars(self)[name] = self._LAZY[name](self)
        return value


@dataclass(frozen=True)
class Design(_ArrayBacked):
    """An approximate design: finitely many support points with weights.

    Weights are strictly positive and sum to one; support points are pairwise distinct (no coordinate-wise
    coincidence within ``COINCIDENCE_TOL``). A design keeps both as read-only arrays; the ``points`` and
    ``weights`` tuples are built from them on first read, and then kept.
    """

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    _ARRAYS = ("_pts", "_wts")
    _LAZY = {"points": lambda design: _canonical_points(design._pts), "weights": lambda design: tuple(design._wts.tolist())}

    def __init__(self, points: Iterable[Sequence[float]], weights: Iterable[float]) -> None:
        self._set(_judged(points), np.array(_floats(weights, "weights")))

    @classmethod
    def _distinct(cls, X: np.ndarray, w: np.ndarray, distinct: bool | None = True) -> "Design":
        """The design on weights w over a new judged array X (n, d) its caller built, with every rule but no parse:
        ``distinct`` is the caller's exact verdict of the coincidence rule on X, or None to run the search."""
        design = cls.__new__(cls)
        design._set(X, w, distinct)
        return design

    def _set(self, X: np.ndarray, w: np.ndarray, distinct: bool | None = None) -> None:
        """Keeps the judged X and the weights w (n,) as read-only arrays, which are not fields (equality, hash and
        repr keep to the tuples), then applies the weight rules to the floats of w and the coincidence rule."""
        self.__setstate__({"_pts": X, "_wts": w})
        weights = w.tolist()
        if not len(X):
            raise ValidationError("design needs at least one support point")
        if len(X) != len(weights):
            raise ValidationError("points and weights must have equal length")
        if any(v <= 0.0 or not math.isfinite(v) for v in weights):
            raise ValidationError("weights must be strictly positive")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("weights must sum to one")
        if _has_coincident(X.tolist()) if distinct is None else not distinct:
            raise ValidationError("support points must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self._wts)

    @property
    def dimension(self) -> int:
        return self._pts.shape[1]


def feature_matrix(model: GammaModel, points: Sequence[Sequence[float]]) -> np.ndarray:
    """Regression vectors f(x) of a batch of points, one row per point.

    Returns an (n, p) array: the points themselves for the first-order
    model and rows ``(x1, x2, x1*x2)`` for the interaction model.
    """
    return _widened(model, _judged(points))


def _widened(model: GammaModel, X: np.ndarray) -> np.ndarray:
    """Feature matrix F of judged points X, which must have ``model.nu`` columns."""
    _check_dimension(X.shape[1], model.nu, "point set", "model")
    if model.kind is ModelKind.FIRST_ORDER:
        return X
    return np.concatenate((X, X[:, :1] * X[:, 1:]), axis=1)


def features(model: GammaModel, x: Sequence[float]) -> np.ndarray:
    """Regression vector f(x) of the model at the point ``x``.

    Returns ``x`` itself for the first-order model and
    ``(x1, x2, x1*x2)`` for the interaction model.
    """
    return feature_matrix(model, [x])[0]


def _check_beta(model: GammaModel | None, beta: Sequence[float]) -> tuple[float, ...]:
    """The package's one beta rule: caller ``beta`` as ``model.p`` finite floats, converted by ``_floats`` in
    Python, which costs less than numpy on a handful of entries. A ``model`` of None reads the beta of a
    first-order model with one factor per entry, so at least two."""
    vec = _floats(beta, "beta")
    p = max(len(vec), 2) if model is None else model.p
    if len(vec) != p:
        raise ValidationError(f"beta must have {p} entries, not {len(vec)}")
    if not all(map(math.isfinite, vec)):
        raise ValidationError("beta entries must be finite")
    return vec


def _tamed(*values):
    """``values`` scaled by one power of two so that the largest magnitude lies in [1, 2): floats, or elementwise
    on arrays and floats that broadcast together. A quantity homogeneous in the values keeps its sign, and one of
    degree 0 every bit, wherever its unscaled form neither overflows nor underflows; no square overflows at huge
    values nor underflows at tiny ones. The package's one overflow-safe scaling; ``_scaled_beta`` applies it to beta."""
    if np.ndarray in map(type, values):
        e = 1 - np.frexp(np.abs(np.broadcast_arrays(*values)).max(axis=0))[1]
        return tuple(np.ldexp(v, e) for v in values)
    return _scale(values)[0]


def _scale(values: Sequence[float]) -> tuple[tuple[float, ...], int]:
    """The floats ``values`` scaled as ``_tamed`` scales them, and the exponent s with values = scaled * 2**s."""
    s = math.frexp(max(map(abs, values)))[1] - 1
    return tuple(math.ldexp(v, -s) for v in values), s


def _scaled_beta(model: GammaModel, beta: Sequence[float]) -> tuple[tuple[float, ...], int]:
    """Caller ``beta`` judged by ``_check_beta`` and scaled by ``_tamed``, and s with beta = scaled * 2**s: the
    kernel's one reading of a caller's scale, for ``_columns``, ``_scaled_intensities``, ``d_efficiency``,
    ``is_simplex_design_d_optimal``, ``a_optimal_two_factor`` and ``interaction_to_intercept``."""
    return _scale(_check_beta(model, beta))


def _predictor(model: GammaModel, B, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix F of the judged points X, the predictor eta = B F' and
    the mask eta > 0, which is the package's one admissibility rule. B is the
    floats of a beta judged by ``_check_beta``, scaled or not, or a (G, p)
    stack of parameter points, giving (G, n) eta."""
    F = _widened(model, X)
    eta = B @ F.T
    return F, eta, eta > 0.0


def _positive_predictor(model: GammaModel, B, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and eta of ``_predictor``; raises NonpositivePredictor where eta is not positive, naming the
    point, and for a (G, p) stack B setting the index of its first failing parameter point as ``_member``."""
    F, eta, positive = _predictor(model, B, X)
    if not positive.all():
        at = tuple(int(axis[0]) for axis in np.nonzero(~positive))  # (k,), or (g, k) for a stack
        error = NonpositivePredictor(f"predictor is not positive at {tuple(X[at[-1]].tolist())}")
        if len(at) == 2:
            error._member = at[0]
        raise error
    return F, eta


def _scaled_intensities(model: GammaModel, beta: Sequence[float], X: np.ndarray) -> tuple[np.ndarray, ...]:
    """F of the judged points X and their intensities u = eta**-2 at caller ``beta``, under the positivity rule of
    ``_positive_predictor``, as mantissas m**-2 in (1, 4] and exponents t = -2(s + e), for eta = m * 2**e at the
    scaled beta of ``_scaled_beta`` and beta = scaled * 2**s. No eta**-2 is formed, so ``_rescaled(m**-2, t)`` is u
    at beta, saturating only where u leaves the float range."""
    scaled, s = _scaled_beta(model, beta)
    F, eta = _positive_predictor(model, scaled, X)
    m, e = np.frexp(eta)
    return F, m**-2, -2 * (s + e)


def _rescaled(values: np.ndarray, s: int | np.ndarray) -> np.ndarray:
    """``values`` times 2**s, exactly within the float range and saturating to inf or 0 beyond it, with no warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, s)


def _columns(model: GammaModel, beta: Sequence[float], X: np.ndarray) -> tuple[np.ndarray, float]:
    """G = F' / eta = [sqrt(u_i) f_i] of the judged points X at the scaled beta of ``_scaled_beta``, under the
    positivity rule of ``_positive_predictor``; and r = 2**s, the power of two that caller ``beta`` was divided by."""
    scaled, s = _scaled_beta(model, beta)
    F, eta = _positive_predictor(model, scaled, X)
    return F.T / eta, math.ldexp(1.0, s)


def _gram(G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """M = sum_i w_i g_i g_i' = (G w) G' over the columns of G (p, n), the one product for one design's M. Callers pass only
    columns of positive weight: a BLAS kernel may sum zero-weight columns in another order, and equal arrays give one M."""
    return (G * w) @ G.T


def _information(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The (G, p, p) stack M_g = sum_i V_gi f_i f_i' for a (G, n) stack V of weights w u at G parameter points, as
    V K over the table K of the flattened outer products of the rows of F, formed once for the whole stack."""
    K = (F[:, :, None] * F[:, None, :]).reshape(len(F), -1)
    return (V @ K).reshape(len(V), F.shape[1], F.shape[1])


def _factor(M: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Lower Cholesky factor L of M, and log det M = 2 sum(log diag L); a
    (G, p, p) stack is factored in one call and gives (G,) log-dets.

    This is the package's one singularity rule: SingularInformation is
    raised when a pivot is nan or min diag(L)**2 <= 1e-12 * max diag(M),
    for any matrix of a stack, naming the smallest pivot of the first that
    fails, and setting its index as ``_member``. A failed factorization
    returns nan pivots.
    """
    with np.errstate(invalid="ignore"):
        L = _lapack.cholesky_lo(M, signature="d->d")
    if M.ndim == 2:  # Python floats: with a handful of parameters they cost less than numpy reductions
        return L, _pivot_logdet(L.diagonal().tolist(), M.diagonal().tolist())
    pivots = L.diagonal(0, -2, -1).T.copy()  # (p, G): reduced over contiguous rows, in row order
    smallest = pivots.min(axis=0)  # nan for a nan pivot
    failing = np.flatnonzero(~_above_floor(smallest, M.diagonal(0, -2, -1).T.copy().max(axis=0)))
    if failing.size:
        error = _singular(smallest[failing[0]])
        error._member = int(failing[0])
        raise error
    return L, 2.0 * np.log(pivots).sum(axis=0)


def _pivot_logdet(pivots: list[float], scales: list[float]) -> float:
    """The pivot test of one matrix, then 2 sum(log pivots). The log-det comes first
    (pivots are positive or nan), because it keeps a nan pivot that min() may skip."""
    logdet = 2.0 * math.fsum(map(math.log, pivots))
    smallest = min(pivots) if logdet == logdet else math.nan
    if not _above_floor(smallest, max(scales)):
        raise _singular(smallest)
    return logdet


def _above_floor(smallest, scale):
    """The pivot floor, on floats or elementwise on arrays: smallest**2 > 1e-12 * scale."""
    return smallest * smallest > _SINGULARITY_RTOL * scale


def _singular(smallest: float) -> SingularInformation:
    return SingularInformation(f"information matrix is numerically singular (smallest pivot {smallest:.3e})")


def _whitened(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Z = L^-1 G by one solve, for the Cholesky factor L of M and G = [sqrt(u_i) f_i] = [f_i / eta_i],
    formed once per point set. |z_i|^2 is the D-sensitivity of column i, and (z_i' z_j)^2 = u_i u_j (f_i' M^-1 f_j)^2."""
    return _lapack.solve(L, G, signature="dd->d")  # L passed the pivot floor: nonsingular, so the solve cannot fail


def _a_sensitivities(L: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, float]:
    """A-sensitivities u(x) |L^-T L^-1 f(x)|^2 = u(x) |M^-1 f(x)|^2 of the columns of G, and
    their bound tr(M^-1) = |L^-1|_F^2, from the one inverse of L the bound needs."""
    Linv = _lapack.inv(L, signature="d->d")
    H = Linv.T @ (Linv @ G)
    return (H * H).sum(axis=0), float((Linv * Linv).sum())


def intensity(model: GammaModel, beta: Sequence[float], x: Sequence[float]) -> float:
    """GLM intensity u(x, beta) = (f(x)' beta)**-2.

    Raises
    ------
    NonpositivePredictor
        If f(x)' beta <= 0, where the gamma mean is undefined.
    """
    _, u, t = _scaled_intensities(model, beta, _judged([x]))
    return float(_rescaled(u, t)[0])


def information_matrix(model: GammaModel, beta: Sequence[float], design: Design) -> np.ndarray:
    """Normalized information matrix M = sum_i w_i u(x_i) f(x_i) f(x_i)'.

    The result is symmetrized by averaging with its transpose; it is
    positive semidefinite by construction.
    """
    _check_dimension(design.dimension, model.nu, "design", "model")
    F, u, t = _scaled_intensities(model, beta, design._pts)
    top = np.maximum.reduce(t)  # M is formed at u / 2**top, which neither overflows nor loses its largest term
    M = _gram(F.T, design._wts * _rescaled(u, t - top))
    return _rescaled((M + M.T) / 2.0, top)


def region_vertices(region: ExperimentalRegion) -> np.ndarray:
    """The 2**nu vertices of a hypercube as one read-only (2**nu, nu) float array, lexicographic: a < b, first coordinate slowest."""
    if region.kind is not RegionKind.HYPERCUBE:
        raise ValidationError("only hypercube regions have vertices")
    V = np.where(_index_bits(region.nu), region.b, region.a)
    V.setflags(write=False)
    return V


@functools.lru_cache(maxsize=16)
def _index_bits(nu: int) -> np.ndarray:
    """The bits of the vertex indices 0 .. 2**nu - 1 as a read-only (2**nu, nu) bool table, most significant first."""
    bits = (np.arange(2**nu)[:, None] >> np.arange(nu - 1, -1, -1)) & 1 == 1
    bits.setflags(write=False)
    return bits


def validate_positivity(model: GammaModel, beta: Sequence[float], region: ExperimentalRegion) -> bool:
    """Whether f(x)' beta > 0 holds on the whole region.

    On a hypercube the predictor is affine in each coordinate, so the
    minimum is attained at a vertex and the 2**nu vertices decide the
    answer. On the positive orthant the first-order predictor is
    positive everywhere iff every beta_i > 0; the interaction predictor
    additionally tolerates beta_3 = 0 but no negative entry.
    """
    vec = _check_beta(model, beta)
    _check_dimension(region.nu, model.nu, "region", "model")
    if region.kind is RegionKind.ORTHANT:
        if model.kind is ModelKind.FIRST_ORDER:
            return all(v > 0.0 for v in vec)
        return vec[0] > 0.0 and vec[1] > 0.0 and vec[2] >= 0.0
    return bool(_predictor(model, _tamed(*vec), region_vertices(region))[2].all())


def validate_design_region(design: Design, region: ExperimentalRegion) -> None:
    """Raise ValidationError unless every support point lies in the region."""
    _check_dimension(design.dimension, region.nu, "design", "region")
    inside = region._inside(design._pts)
    if not inside.all():
        raise ValidationError(f"support point {design.points[int(np.argmin(inside))]} lies outside the region")


def mix_designs(designs: Sequence[Design], coefficients: Sequence[float]) -> Design:
    """Convex combination of designs on a common region.

    Support is the union of the component supports; points closer than
    ``COINCIDENCE_TOL`` in every coordinate are merged by adding their
    weights. Points whose combined weight is zero (zero coefficient)
    are dropped.
    """
    coeffs = _floats(coefficients, "coefficients")
    if len(designs) == 0:
        raise ValidationError("need at least one design to mix")
    if len(coeffs) != len(designs):
        raise ValidationError("one coefficient per design is required")
    if not (all(c >= 0.0 for c in coeffs) and abs(sum(coeffs) - 1.0) <= WEIGHT_SUM_TOL):  # refuses nan
        raise ValidationError("coefficients must be nonnegative and sum to one")
    if len({d.dimension for d in designs}) != 1:
        raise ValidationError("designs must share one dimension")

    merged_points, merged_weights = [], []
    for design, coeff in zip(designs, coeffs):
        for pt, w in zip(design.points, design.weights):
            k = _coincident(pt, merged_points)
            if k is None:
                merged_points.append(pt)
                merged_weights.append(coeff * w)
            else:
                merged_weights[k] += coeff * w
    keep = [k for k, w in enumerate(merged_weights) if w > 0.0]
    return Design([merged_points[k] for k in keep], [merged_weights[k] for k in keep])


# ---------------------------------------------------------------------------
# JSON-facing converters. Field names are part of the public interface.

def model_to_json(model: GammaModel) -> dict:
    return {"kind": model.kind.value, "nu": model.nu}


def _kind_and_nu(obj: dict, kinds: type[enum.Enum], what: str):
    try:
        return kinds(obj["kind"]), obj["nu"]  # nu is judged by the count rule: a JSON integer
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} object: {exc}") from exc


def model_from_json(obj: dict) -> GammaModel:
    return GammaModel(*_kind_and_nu(obj, ModelKind, "model"))


def region_to_json(region: ExperimentalRegion) -> dict:
    out = {"kind": region.kind.value, "nu": region.nu}
    return out if region.kind is RegionKind.ORTHANT else {**out, "a": region.a, "b": region.b}


def region_from_json(obj: dict) -> ExperimentalRegion:
    kind, nu = _kind_and_nu(obj, RegionKind, "region")
    if kind is RegionKind.ORTHANT:
        return ExperimentalRegion.orthant(nu)
    return ExperimentalRegion.hypercube(obj.get("a"), obj.get("b"), nu)


def design_to_json(design: Design) -> dict:
    return {"points": [list(pt) for pt in design.points], "weights": list(design.weights)}


def design_from_json(obj: dict) -> Design:
    try:
        points, weights = obj["points"], _floats(obj["weights"], "weights")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad design object: {exc}") from exc
    # Serialized weights carry formatting round-off (10 significant digits),
    # so a sum near one is repaired here; anything further off is an error.
    total = math.fsum(weights)
    if total > 0.0 and 0.0 < abs(total - 1.0) <= 1e-8:
        weights = [w / total for w in weights]
    return Design(points, weights)
