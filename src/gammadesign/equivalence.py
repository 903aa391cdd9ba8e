"""Sensitivity functions and optimality verification on candidate sets.

A design is locally D-optimal iff its D-sensitivity
psi(x) = u(x, beta) f(x)' M^-1 f(x) stays below the parameter count p
everywhere, and locally A-optimal iff u(x, beta) f(x)' M^-2 f(x) stays
below tr(M^-1). Both bounds are attained at the support points of an
optimal design. Verification here is over finite candidate sets; for
hypercubes the vertices form an essentially complete class, so they are
the canonical candidates.

Both come from the kernel in ``model_core``, which the solver also uses:
one ``_columns`` call on the design's points and the judged candidates gives
the columns g(x) = sqrt(u(x)) f(x) of both, M = sum_i w_i g_i g_i' over the
support, and one solve whitens the candidates, z(x) = L^-1 g(x) for the
Cholesky factor L of M. So psi(x) = |z(x)|^2 for D; for A, the one inverse
of L gives u(x) |L^-T L^-1 f(x)|^2 and the bound |L^-1|_F^2. The factor
holds the package's one singularity rule: M is singular when its Cholesky
factorization fails or min diag(L)^2 <= 1e-12 * max diag(M).

A report keeps the judged candidate array and the sensitivity array, both
read-only. Its verdict (criterion, bound, worst excess, pass flag) is set
when it is made; the per-candidate tuples (points, sensitivities, worst
point) are built from the arrays on first read, so a caller that reads
only the verdict never builds them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model_core import (
    Design,
    GammaModel,
    ValidationError,
    _a_sensitivities,
    _canonical_points,
    _check_count,
    _columns,
    _factor,
    _floats,
    _judged,
    _whitened,
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


@dataclass(frozen=True, init=False)
class VerificationReport:
    """Outcome of checking the optimality bound over a candidate set.

    ``criterion``, ``bound``, ``worst_excess`` and ``passed`` are set when the
    report is made. ``points``, ``sensitivities`` and ``worst_point`` are
    tuples built from the report's read-only candidate and sensitivity
    arrays on first read, and then kept.
    """

    criterion: Criterion
    bound: float
    points: tuple[tuple[float, ...], ...]
    sensitivities: tuple[float, ...]
    worst_point: tuple[float, ...]
    worst_excess: float
    passed: bool

    def __init__(
        self, criterion: Criterion, bound: float, candidates: np.ndarray, sensitivities: np.ndarray,
        worst: int, worst_excess: float, passed: bool,
    ) -> None:
        """A report on the judged ``candidates`` (n, d) with their ``sensitivities`` (n,), whose
        largest is at index ``worst``. Both arrays are made read-only and kept, not copied."""
        self.__setstate__(dict(
            criterion=criterion, bound=bound, worst_excess=worst_excess, passed=passed,
            _candidates=candidates, _sensitivities=sensitivities, _worst=worst,
        ))

    def __setstate__(self, state: dict) -> None:
        """Sets the state of a report made, copied or unpickled, with its two arrays made read-only."""
        vars(self).update(state)
        self._candidates.setflags(write=False)
        self._sensitivities.setflags(write=False)

    def __getattr__(self, name: str):
        """Builds ``points``, ``sensitivities`` or ``worst_point`` from the arrays on first read and keeps it.
        Runs only when a lookup misses, so every other name is an AttributeError."""
        if name == "points":
            value = _canonical_points(self._candidates)
        elif name == "sensitivities":
            value = tuple(self._sensitivities.tolist())
        elif name == "worst_point":
            value = self.points[self._worst]
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vars(self)[name] = value
        return value

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


def _verification_report(
    model: GammaModel,
    beta: Sequence[float],
    design: Design,
    candidates: Sequence[Sequence[float]],
    criterion: Criterion,
    tol: float,
    lift: Callable[[np.ndarray], np.ndarray] | None = None,
) -> VerificationReport:
    """Report for ``design`` over ``candidates``, judged once: one ``_columns`` call gives G = F' / eta of the
    design's points and the candidates together (each point mapped by ``lift`` first, if given), at beta / r
    for the power of two r of ``_tamed``, so no square overflows or underflows. The verdict is taken there:
    D-sensitivities are homogeneous of degree 0 in beta and keep every bit; the A excess is judged relative to
    its bound, and the A values, of degree 2, are scaled back by r twice, to inf or 0 beyond the float range."""
    try:
        criterion = Criterion(criterion)  # a plain "D" or "A" too
    except ValueError as exc:
        raise ValidationError(f"criterion must be D or A: {exc}") from exc
    C = _judged(candidates)
    if not len(C):
        raise ValidationError("candidate set must be nonempty")
    if C.shape[1] != design.dimension:
        raise ValidationError(f"candidates have dimension {C.shape[1]}, the design {design.dimension}")
    (tol,) = _floats((tol,), "tol")
    if not 0.0 <= tol < math.inf:  # a nan tol fails every design, a negative one even an exact optimum
        raise ValidationError("tol must be nonnegative" if tol < 0.0 else "tol must be finite")
    k = design.size
    X = np.concatenate((design._pts, C))
    G, r = _columns(model, beta, X if lift is None else lift(X))
    Gs = G[:, :k]  # M = sum_i w_i g_i g_i' from columns G already holds: one product, no K table to build
    L, _ = _factor((Gs * design._wts) @ Gs.T)
    if criterion is Criterion.D:
        Z = _whitened(L, G[:, k:])
        vals, bound = (Z * Z).sum(axis=0), float(L.shape[0])
    else:
        vals, bound = _a_sensitivities(L, G[:, k:])
    worst = int(vals.argmax())  # ties resolved by first index
    excess = float(vals[worst] - bound)
    if criterion is Criterion.D:
        return VerificationReport(criterion, bound, C, vals, worst, excess, excess <= tol)
    with np.errstate(over="ignore", under="ignore"):  # r twice: r * r itself may overflow
        vals = vals * r * r
    return VerificationReport(criterion, bound * r * r, C, vals, worst, excess * r * r, excess <= tol * bound)


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
    iff the largest excess over the bound is at most ``tol``: absolute for
    D, and relative to the bound tr(M^-1) for A.
    """
    return _verification_report(model, beta, design, candidates, criterion, tol)
