"""D-efficiencies and efficiency sweeps across parameter ratios.

The D-efficiency of a design against the locally optimal one is
(det M(design) / det M(optimal))**(1/p). Sweeps trace this value over a
grid of the ratio gamma that indexes the optimality subregions, against
the closed-form optimum (plain support and weights, so a sweep builds no
Design per ratio) or the solver's; each design and reference support
takes one stacked Cholesky factorization over the whole grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model_core import (
    Design,
    GammaModel,
    NonpositivePredictor,
    SingularInformation,
    ValidationError,
    _check_beta,
    _check_bounds,
    _factor,
    _floats,
    _information,
    _intensity_arrays,
    _predictor,
)
from .analytic_designs import (
    ThreeFactorScenario,
    classify_three_factor,
    interaction_equal_beta,
    interaction_vertices,
    three_factor_vertices,
    xi3_weights,
)
from .solver import SolverParams, multiplicative

__all__ = [
    "d_efficiency",
    "EfficiencySweep",
    "ThreeFactorFamily",
    "InteractionFamily",
    "gamma_grid",
    "efficiency_sweep",
    "three_factor_benchmark_designs",
    "interaction_benchmark_designs",
]

# Solver tolerance for reference designs without a closed form; tight
# enough that reference error stays far below sweep reporting precision.
_REFERENCE_TOL = 1e-10


def _logdets(model: GammaModel, betas: np.ndarray, points, weights) -> np.ndarray:
    """log det M of one support at each row of the (G, p) stack ``betas``, with
    one weight vector or a (G, n) stack of them: one factorization in all."""
    F, u = _intensity_arrays(model, betas, points, stacked=True)
    return _factor(_information(F, u, np.asarray(weights)))[1]


def d_efficiency(model: GammaModel, beta: Sequence[float], design: Design, optimal: Design) -> float:
    """Efficiency of ``design`` relative to ``optimal`` at the point ``beta``."""
    betas = _check_beta(model, beta)[None]
    ld_design = _logdets(model, betas, design.points, design.weights)
    ld_optimal = _logdets(model, betas, optimal.points, optimal.weights)
    return float(np.exp((ld_design - ld_optimal) / model.p)[0])


class _Family:
    """Admissibility and reference design, shared by the sweep families."""

    def admissible(self, gamma: float) -> bool:
        return bool(_admissible(self, _floats((gamma,), "gamma"))[0][0])

    def reference(self, gamma: float) -> Design:
        """Locally D-optimal design at this ratio."""
        return Design(*self._optimum(gamma))


@dataclass(frozen=True)
class ThreeFactorFamily(_Family):
    """Parameter path (beta_1, beta, beta) = sign * (1, gamma, gamma) on [1,2]^3."""

    beta1_sign: int = 1

    def __post_init__(self) -> None:
        if self.beta1_sign not in (-1, 1):
            raise ValidationError("beta1_sign must be +1 or -1")

    @property
    def name(self) -> str:
        sign = "+" if self.beta1_sign > 0 else "-"
        return f"three_factor_cube_beta1{sign}"

    @property
    def model(self) -> GammaModel:
        return GammaModel.first_order(3)

    @property
    def vertices(self) -> tuple[tuple[float, float, float], ...]:
        return three_factor_vertices(1.0, 2.0)

    def scenario(self, gamma: float) -> ThreeFactorScenario:
        return ThreeFactorScenario(*self.beta(gamma)[:2])

    def beta(self, gamma: float) -> tuple[float, float, float]:
        (gamma,) = _floats((gamma,), "gamma")
        sign = 1.0 if self.beta1_sign > 0 else -1.0
        return (sign, sign * gamma, sign * gamma)

    def _optimum(self, gamma: float) -> tuple[tuple, tuple[float, ...]]:
        """Support and weights of the optimum at this ratio, solved
        numerically on the subregion without a closed form."""
        result = classify_three_factor(self.scenario(gamma))
        if not result.numerical:
            return result.points, result.weights
        params = SolverParams(convergence_tol=_REFERENCE_TOL)
        design, _ = multiplicative(self.model, self.beta(gamma), self.vertices, params)
        return design.points, design.weights


@dataclass(frozen=True)
class InteractionFamily(_Family):
    """Parameter path (gamma, gamma, 1) for the interaction model on [a,b]^2."""

    a: float = 1.0
    b: float = 4.0

    def __post_init__(self) -> None:
        a, b = _check_bounds(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def name(self) -> str:
        return f"interaction_square_{self.a:g}_{self.b:g}"

    @property
    def model(self) -> GammaModel:
        return GammaModel.interaction()

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return interaction_vertices(self.a, self.b)

    def beta(self, gamma: float) -> tuple[float, float, float]:
        (gamma,) = _floats((gamma,), "gamma")
        return (gamma, gamma, 1.0)

    def _optimum(self, gamma: float) -> tuple[tuple, tuple[float, ...]]:
        result = interaction_equal_beta(self.a, self.b, gamma)
        return result.points, result.weights


def _admissible(family: _Family, gammas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Which of the float ratios ``gammas`` are admissible, and the (K, p)
    stack of betas of the K that are: a ratio is admissible when it is
    finite and the kernel's positivity rule holds at every vertex of the
    family's region, decided for the whole grid in one call."""
    grid = np.array(gammas)
    ok = np.isfinite(grid)
    betas = np.array([family.beta(gamma) for gamma in grid[ok].tolist()], dtype=float).reshape(-1, family.model.p)
    positive = _predictor(family.model, betas, family.vertices, stacked=True)[2].all(axis=1)
    ok[ok] = positive
    return ok, betas[positive]


@dataclass(frozen=True)
class EfficiencySweep:
    """Efficiencies of named designs over a ratio grid."""

    scenario: str
    gammas: tuple[float, ...]
    design_names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    skipped: tuple[str, ...]

    def column(self, name: str) -> tuple[float, ...]:
        idx = self.design_names.index(name)
        return tuple(row[idx] for row in self.values)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "gammas": list(self.gammas),
            "designs": list(self.design_names),
            "values": [list(row) for row in self.values],
            "skipped": list(self.skipped),
        }

    def to_csv(self, float_format: str = "%.10g") -> str:
        lines = ["gamma," + ",".join(self.design_names)]
        for g, row in zip(self.gammas, self.values):
            lines.append(",".join(float_format % value for value in (g, *row)))
        return "\n".join(lines) + "\n"


def gamma_grid(start: float, stop: float, step: float = 0.01) -> tuple[float, ...]:
    """Inclusive grid from start to stop built by integer stepping."""
    start, stop, step = _floats((start, stop, step), "grid ends and step")
    if not step > 0.0:
        raise ValidationError("step must be positive")
    span = (stop - start) / step
    count = round(span) if math.isfinite(span) else -1
    if count < 0 or not abs(start + count * step - stop) <= 1e-9:
        raise ValidationError("stop must be reachable from start in whole steps")
    return tuple(start + k * step for k in range(count + 1))


def efficiency_sweep(
    family: ThreeFactorFamily | InteractionFamily,
    designs: Mapping[str, Design],
    gammas: Sequence[float],
) -> EfficiencySweep:
    """Efficiency of each design against the local optimum at every ratio.

    Inadmissible grid points, non-finite ones included, are skipped and
    recorded in ``skipped``. A singular or nonpositive row raises, naming
    its gamma and design.
    """
    if not designs:
        raise ValidationError("need at least one design to sweep")
    names = tuple(designs)
    model = family.model
    gammas = _floats(gammas, "gammas")
    ok, betas = _admissible(family, gammas)
    kept = [gamma for gamma, keep in zip(gammas, ok) if keep]
    skipped = [f"gamma={gamma:g} is outside the admissible range" for gamma, keep in zip(gammas, ok) if not keep]
    # Library-made (support, weights) pairs need no Design; rows sharing a support share one factorization.
    optima = [family._optimum(gamma) for gamma in kept]
    by_support: dict[tuple, list[int]] = {}
    for row, (points, _) in enumerate(optima):
        by_support.setdefault(points, []).append(row)
    ld_ref = np.empty(len(kept))
    try:
        for points, rows in by_support.items():
            ld_ref[rows] = _logdets(model, betas[rows], points, [optima[r][1] for r in rows])
        ld = np.column_stack([_logdets(model, betas, d.points, d.weights) for d in designs.values()])
    except (SingularInformation, NonpositivePredictor):
        # Name the first failing row by evaluating the rows one at a time.
        supports = [(name, (d.points, d.weights)) for name, d in designs.items()]
        for gamma, beta, optimum in zip(kept, betas, optima):
            for name, (points, weights) in (("reference", optimum), *supports):
                try:
                    _logdets(model, beta[None], points, weights)
                except (SingularInformation, NonpositivePredictor) as exc:
                    raise type(exc)(f"gamma={gamma!r}, design {name}: {exc}") from exc
        raise
    values = np.exp((ld - ld_ref[:, None]) / model.p)
    return EfficiencySweep(family.name, tuple(kept), names, tuple(map(tuple, values.tolist())), tuple(skipped))


def three_factor_benchmark_designs() -> dict[str, Design]:
    """The designs compared on [1,2]^3: the three subregion optima, the
    full factorial, both half fractions, and the 27-point grid."""
    v = three_factor_vertices(1.0, 2.0)
    grid = list(itertools.product((1.0, 1.5, 2.0), repeat=3))
    return {
        "xi1": Design([v[1], v[2], v[3]], [1 / 3] * 3),
        "xi2": Design([v[2], v[3], v[4]], [1 / 3] * 3),
        "xi3": Design([v[1], v[2], v[3], v[4]], xi3_weights(-1.0 / 7.0)),
        "xi4": Design(v, [1 / 8] * 8),
        "xi5": Design([v[0], v[4], v[5], v[6]], [1 / 4] * 4),
        "xi6": Design([v[1], v[2], v[3], v[7]], [1 / 4] * 4),
        "xi7": Design(grid, [1 / 27] * 27),
    }


def interaction_benchmark_designs(a: float = 1.0, b: float = 4.0) -> dict[str, Design]:
    """The designs compared on [a,b]^2: both three-vertex optima, the
    uniform vertex design, and the 9-point grid."""
    v = interaction_vertices(a, b)
    mid = (a + b) / 2.0
    grid = list(itertools.product((a, mid, b), repeat=2))
    return {
        "xi1": Design([v[0], v[1], v[2]], [1 / 3] * 3),
        "xi2": Design([v[1], v[2], v[3]], [1 / 3] * 3),
        "xi3": Design(v, [1 / 4] * 4),
        "xi4": Design(grid, [1 / 9] * 9),
    }
