"""D-efficiencies and efficiency sweeps across parameter ratios.

The D-efficiency of a design against the locally optimal one is
(det M(design) / det M(optimal))**(1/p). Sweeps trace this value over a
grid of the ratio gamma that indexes the optimality subregions, on whole
arrays: the grid's betas are one array per family, and the classifiers'
private case function evaluates the closed-form weights on the whole grid.
The subregion edges -5/23, 1/5, -ab/(3b-a) and ab/(b-3a) are roots of
those weights, so their signs decide each ratio's case; no Design is built
per ratio, and a ratio without a closed form is solved numerically. Each
design and reference support takes one stacked Cholesky factorization
over the whole grid, judged singular or not by array reductions.
"""

from __future__ import annotations

import functools
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
    _outer,
    _positive_predictor,
    _predictor,
    _tamed,
)
from .analytic_designs import (
    InteractionLabel,
    ThreeFactorLabel,
    ThreeFactorScenario,
    _interaction_cases,
    _three_factor_cases,
    interaction_vertices,
    three_factor_vertices,
)
from .solver import SolverParams, _solve_path

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
_REFERENCE_PARAMS = SolverParams(convergence_tol=1e-10)


def _logdets(model: GammaModel, betas: np.ndarray, points, weights) -> np.ndarray:
    """log det M of one support (a design's judged array, or a library-built table) at each row of the
    library-built (G, p) stack ``betas``, with one weight vector or a (G, n) stack of them: one table K, one factorization."""
    F, eta = _positive_predictor(model, betas, np.asarray(points))
    return _factor(_information(_outer(F), np.asarray(weights) * eta**-2))[1]


def d_efficiency(model: GammaModel, beta: Sequence[float], design: Design, optimal: Design) -> float:
    """Efficiency of ``design`` relative to ``optimal`` at ``beta``, taken scaled by ``_tamed``: it is of degree 0."""
    betas = np.array([_tamed(*_check_beta(model, beta).tolist())])
    ld_design = _logdets(model, betas, design._pts, design._wts)
    ld_optimal = _logdets(model, betas, optimal._pts, optimal._wts)
    return float(np.exp((ld_design - ld_optimal) / model.p)[0])


class _Family:
    """Admissibility, parameter path and optima, shared by the sweep families. Each
    family states its path in ``_beta`` and its case function in ``_cases``; both
    take a float or an array of ratios."""

    def admissible(self, gamma: float) -> bool:
        return bool(_admissible(self, _floats((gamma,), "gamma"))[0][0])

    def beta(self, gamma: float) -> tuple[float, float, float]:
        return self._beta(*_floats((gamma,), "gamma"))

    def reference(self, gamma: float) -> Design:
        """Locally D-optimal design at this admissible ratio."""
        (gamma,) = _floats((gamma,), "gamma")
        if not self.admissible(gamma):
            raise ValidationError(f"gamma={gamma!r} is outside the admissible range")
        ((points, weights, _),) = self._optima(np.array([gamma]))
        return Design(points, np.atleast_2d(weights)[0])

    def _optima(self, gammas: np.ndarray) -> list[tuple[tuple, np.ndarray, Sequence[int]]]:
        """Optima at the admissible ratios ``gammas`` as (support, weights, rows)
        groups: each closed-form case once, with a weight row per ratio of it, and
        a numerical solve per ratio of the case without a closed form."""
        table, index = self._cases(gammas)
        groups = []
        for case, (_, points, weights) in enumerate(table):
            rows = np.flatnonzero(index == case)
            if points is None and len(rows):  # one solver path through the case's ratios, in grid order
                path = _solve_path(self.model, [self._beta(gammas[row]) for row in rows], self.vertices, _REFERENCE_PARAMS)
                groups.extend((design.points, design.weights, [row]) for row, (design, _) in zip(rows.tolist(), path))
            elif len(rows):
                groups.append((points, np.broadcast_to(_as_columns(weights), (len(gammas), len(points)))[rows], rows))
        return groups


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

    @functools.cached_property
    def vertices(self) -> tuple[tuple[float, float, float], ...]:
        return three_factor_vertices(1.0, 2.0)

    def scenario(self, gamma: float) -> ThreeFactorScenario:
        return ThreeFactorScenario(*self.beta(gamma)[:2])

    def _beta(self, gamma):
        sign = float(self.beta1_sign)
        return (sign, sign * gamma, sign * gamma)

    def _cases(self, gammas: np.ndarray):
        return _three_factor_cases(float(self.beta1_sign), gammas)


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

    @functools.cached_property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return interaction_vertices(self.a, self.b)

    def _beta(self, gamma):
        return (gamma, gamma, 1.0)

    def _cases(self, gammas: np.ndarray):
        return _interaction_cases(self.a, self.b, gammas)


def _as_columns(values) -> np.ndarray:
    """Floats and equal-length arrays as the columns of one array: (n,), or (k, n) with arrays of k."""
    return np.stack(np.broadcast_arrays(*values), axis=-1)


def _admissible(family: _Family, gammas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Which of the float ratios ``gammas`` are admissible, and the (K, p)
    stack of betas of the K that are: a ratio is admissible when it is
    finite and the kernel's positivity rule holds at every vertex of the
    family's region, decided for the whole grid in one call on the betas
    scaled by ``_tamed``, which keeps the sign and cannot overflow."""
    grid = np.array(gammas)
    ok = np.isfinite(grid)
    path = family._beta(grid[ok])
    positive = _predictor(family.model, _as_columns(_tamed(*path)), np.array(family.vertices))[2].all(axis=1)
    betas = _as_columns(path)
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
        row = ",".join([float_format] * (1 + len(self.design_names))) + "\n"
        body = "".join([row % (g, *values) for g, values in zip(self.gammas, self.values)])
        return "gamma," + ",".join(self.design_names) + "\n" + body


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
    grid = np.array(_floats(gammas, "gammas"))
    ok, betas = _admissible(family, grid)
    kept = grid[ok]
    skipped = [f"gamma={gamma:g} is outside the admissible range" for gamma in grid[~ok].tolist()]
    # One factorization per closed-form case, and one per numerically solved ratio.
    references = family._optima(kept)
    ld_ref = np.empty(len(kept))
    try:
        for points, weights, rows in references:
            ld_ref[rows] = _logdets(model, betas[rows], points, weights)
        ld = np.column_stack([_logdets(model, betas, d._pts, d._wts) for d in designs.values()])
    except (SingularInformation, NonpositivePredictor):
        # Name the first failing row by evaluating the rows one at a time.
        optima = {}
        for points, weights, rows in references:
            optima.update((row, (points, w)) for row, w in zip(rows, np.broadcast_to(weights, (len(rows), len(points)))))
        supports = [(name, (d._pts, d._wts)) for name, d in designs.items()]
        for row, (gamma, beta) in enumerate(zip(kept.tolist(), betas)):
            for name, (points, weights) in (("reference", optima[row]), *supports):
                try:
                    _logdets(model, beta[None], points, weights)
                except (SingularInformation, NonpositivePredictor) as exc:
                    raise type(exc)(f"gamma={gamma!r}, design {name}: {exc}") from exc
        raise
    values = np.exp((ld - ld_ref[:, None]) / model.p)
    return EfficiencySweep(family.name, tuple(kept.tolist()), names, tuple(map(tuple, values.tolist())), tuple(skipped))


def three_factor_benchmark_designs() -> dict[str, Design]:
    """The designs compared on [1,2]^3: the three subregion optima, the
    full factorial, both half fractions, and the 27-point grid."""
    v = three_factor_vertices(1.0, 2.0)
    grid = list(itertools.product((1.0, 1.5, 2.0), repeat=3))
    optima = {label: Design(points, weights) for label, points, weights in _three_factor_cases(1.0, -1.0 / 7.0)[0]}
    return {
        "xi1": optima[ThreeFactorLabel.XI1],
        "xi2": optima[ThreeFactorLabel.XI2],
        "xi3": optima[ThreeFactorLabel.XI3],
        "xi4": Design(v, [1 / 8] * 8),
        "xi5": Design([v[0], v[4], v[5], v[6]], [1 / 4] * 4),
        "xi6": Design([v[1], v[2], v[3], v[7]], [1 / 4] * 4),
        "xi7": Design(grid, [1 / 27] * 27),
    }


def interaction_benchmark_designs(a: float = 1.0, b: float = 4.0) -> dict[str, Design]:
    """The designs compared on [a,b]^2: both three-vertex optima, the
    uniform vertex design, and the 9-point grid."""
    a, b = _check_bounds(a, b)
    v = interaction_vertices(a, b)
    mid = (a + b) / 2.0
    grid = list(itertools.product((a, mid, b), repeat=2))
    optima = {label: Design(points, weights) for label, points, weights in _interaction_cases(a, b, 0.0)[0]}
    return {
        "xi1": optima[InteractionLabel.CASE_I],
        "xi2": optima[InteractionLabel.CASE_IV],
        "xi3": Design(v, [1 / 4] * 4),
        "xi4": Design(grid, [1 / 9] * 9),
    }
