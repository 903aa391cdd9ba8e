"""D-efficiencies and efficiency sweeps across parameter ratios.

The D-efficiency of a design against the locally optimal one is
(det M(design) / det M(optimal))**(1/p). Sweeps trace this value over a
grid of the ratio gamma that indexes the optimality subregions, on whole
arrays: the grid's betas are one array per family, and the classifiers'
private case function evaluates the closed-form weights on the whole grid.
The subregion edges -5/23, 1/5, -ab/(3b-a) and ab/(b-3a) are roots of
those weights, so their signs decide each ratio's case, and the band edges
-3 and -6/5 are constants; no Design is built per ratio and no ratio is solved.
A sweep forms one stack of M per design and per case present, each written into
its columns of one array allocated up front, and the kernel's ``_logdets``
eliminates that array at once; ``d_efficiency`` is a stack of two.
An efficiency is of degree 0 in beta, so M is built at betas scaled by the
kernel: ``d_efficiency`` reads its beta by ``_scaled_beta``, and a sweep
scales each grid row by ``_tamed``, so eta**-2 stays in range at any ratio.
A failing member names its stack and row by the ``_member`` index the kernel sets.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model_core import (
    Design,
    GammaModel,
    NonpositivePredictor,
    SingularInformation,
    ValidationError,
    _ArrayBacked,
    _check_bounds,
    _check_dimension,
    _floats,
    _information,
    _logdets,
    _positive_predictor,
    _predictor,
    _scaled_beta,
    _tamed,
)
from .analytic_designs import (
    ThreeFactorLabel,
    ThreeFactorScenario,
    _closed_form,
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

# Smallest table that CSV output prints from integers. Below about 250 entries one % operation costs less
# than the integer path's fixed cost of some 25 numpy calls: on a shared 2-vCPU x86 host, 45 entries took
# 19 us by % and 71 us from integers, 1,000 entries 208 us and 81 us.
_INTEGER_ROWS_MIN_ENTRIES = 256


def _information_stack(model: GammaModel, betas: np.ndarray, points, weights, out=None) -> np.ndarray:
    """The (p, p, G) stack of M of one support (a design's judged array, or a library-built table) at each row of the
    (G, p) stack ``betas``, scaled by the kernel, with one weight vector or a (G, n) stack of them: one product,
    written into the (p*p, G) array ``out`` when one is given, as ``_information`` writes it."""
    F, eta = _positive_predictor(model, betas, np.asarray(points))
    return _information(F, np.asarray(weights) * eta**-2, out)


def d_efficiency(model: GammaModel, beta: Sequence[float], design: Design, optimal: Design) -> float:
    """Efficiency of ``design`` relative to ``optimal`` at ``beta``, read by ``_scaled_beta``: it is of degree 0.
    Either design off the model's dimension raises ValidationError, naming it. Both are one two-member stack."""
    _check_dimension(design.dimension, model.nu, "design", "model")
    _check_dimension(optimal.dimension, model.nu, "optimal design", "model")
    betas = np.array([_scaled_beta(model, beta)[0]])
    ld = _logdets(np.concatenate([_information_stack(model, betas, d._pts, d._wts) for d in (design, optimal)], axis=-1))
    return float(np.exp((ld[:1] - ld[1:]) / model.p)[0])


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
        ((points, (weights,), _),) = self._optima(np.array([gamma]))
        return Design(points, weights)

    def _optima(self, gammas: np.ndarray) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
        """Optima at the admissible ratios ``gammas``, one (support, weights, rows) group per case present with a weight
        row per ratio: each case a closed form on its own support."""
        table, index = self._cases(gammas)
        groups = []
        for case, (_, points, weights) in enumerate(table):
            rows = np.flatnonzero(index == case)
            if len(rows):
                groups.append((points, np.broadcast_to(_as_columns(weights), (len(gammas), len(points)))[rows], rows))
        return groups

    def _path(self, gammas: Sequence[float], params: SolverParams) -> tuple[np.ndarray, list]:
        """``_solve_path`` over the vertices at the ratios ``gammas`` in order, its first point started from the
        best of the closed forms in the family's case table at the first ratio, each set on its vertices."""
        table, _ = self._cases(gammas[0])
        starts = []
        for _, points, weights in table:
            if weights is not None:  # a float ratio off the band skips the band weights
                start = np.zeros(len(self.vertices))
                start[[self.vertices.index(point) for point in points]] = weights
                starts.append(start)
        return _solve_path(self.model, [self._beta(gamma) for gamma in gammas], self.vertices, params, tuple(starts))


@dataclass(frozen=True)
class ThreeFactorFamily(_Family):
    """Parameter path (beta_1, beta, beta) = sign * (1, gamma, gamma) on [1,2]^3."""

    beta1_sign: int = 1

    def __post_init__(self) -> None:
        if self.beta1_sign not in (-1, 1):
            raise ValidationError("beta1_sign must be +1 or -1")

    @property
    def name(self) -> str:
        return f"three_factor_cube_beta1{'+' if self.beta1_sign > 0 else '-'}"

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
        vars(self).update(a=a, b=b)  # frozen: the converted floats are stored past the dataclass guard

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
    stack of betas of the K that are, each scaled by ``_tamed``, which keeps
    the sign and cannot overflow: a ratio is admissible when it is finite
    and the kernel's positivity rule holds at every vertex of the family's
    region, decided for the whole grid in one call on these betas."""
    grid = np.array(gammas)
    ok = np.isfinite(grid)
    betas = _as_columns(_tamed(*family._beta(grid[ok])))
    positive = _predictor(family.model, betas, np.array(family.vertices))[2].all(axis=1)
    ok[ok] = positive
    return ok, betas[positive]


@dataclass(frozen=True, init=False)
class EfficiencySweep(_ArrayBacked):
    """Efficiencies of named designs over a ratio grid.

    The ratios and efficiencies are kept as one read-only (G, 1 + D) array,
    a ratio and its D efficiencies per row; ``gammas`` and ``values`` are
    tuples built from it on first read, and then kept.
    """

    scenario: str
    gammas: tuple[float, ...]
    design_names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    skipped: tuple[str, ...]

    _ARRAYS = ("_table",)
    _LAZY = {
        "gammas": lambda sweep: tuple(sweep._table[:, 0].tolist()),
        "values": lambda sweep: tuple(map(tuple, sweep._table[:, 1:].tolist())),
    }

    def __init__(self, scenario: str, table: np.ndarray, design_names: tuple[str, ...], skipped: tuple[str, ...]) -> None:
        """A sweep over the (G, 1 + D) ``table``, made read-only and kept, not copied."""
        self.__setstate__(dict(scenario=scenario, design_names=design_names, skipped=skipped, _table=table))

    def column(self, name: str) -> tuple[float, ...]:
        return tuple(self._table[:, 1 + self.design_names.index(name)].tolist())

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "gammas": self._table[:, 0].tolist(),
            "designs": list(self.design_names),
            "values": self._table[:, 1:].tolist(),
            "skipped": list(self.skipped),
        }

    def to_csv(self, float_format: str = "%.10g") -> str:
        return "gamma," + ",".join(self.design_names) + "\n" + _csv_rows(self._table, float_format)


def _csv_rows(table, float_format: str) -> str:
    """The rows of the 2-D float ``table`` (an array or a list of rows) as CSV lines, each entry as
    ``float_format % entry`` prints it.

    For ``%.<k>f`` with k = 1..9, y = x 10^k lies within half a spacing of the exact product, so where
    |y| < 2^50 and |y - n| + spacing(|y|) < 0.5 for n = rint(y), the exact product rounds to n under any tie
    rule and x is printed from the digits of n. A table with an entry that fails this test, a table of fewer
    than ``_INTEGER_ROWS_MIN_ENTRIES`` entries, and any other format are printed by one ``%`` operation.
    """
    table = np.asarray(table, dtype=float)
    fixed = re.fullmatch(r"%\.([1-9])f", float_format)
    if fixed and table.size >= _INTEGER_ROWS_MIN_ENTRIES:
        k = int(fixed[1])
        with np.errstate(invalid="ignore", over="ignore"):  # nan and inf entries fail the test
            y = table.ravel() * 10.0**k
            n = np.rint(y)
            magnitude = np.abs(y)
            exact = (magnitude < 2.0**50) & (np.abs(y - n) + np.spacing(magnitude) < 0.5)
        if exact.all():
            return _fixed_rows(np.signbit(table.ravel()), n, k, table.shape[1])
    return (",".join([float_format] * table.shape[1]) + "\n") * len(table) % tuple(table.ravel().tolist())


def _fixed_rows(negative: np.ndarray, n: np.ndarray, k: int, cols: int) -> str:
    """CSV lines of ``cols`` entries x = n 10^-k, signed by ``negative`` as ``%`` signs -0.0. Each entry is
    written right-aligned into a column of one byte buffer padded with spaces, which are removed at the end."""
    magnitude = np.abs(n)
    width = len(str(int(np.maximum.reduce(magnitude)) // 10**k))  # whole digits of the widest entry
    places = (10 ** np.arange(width + k - 1, -1, -1)).astype(float)[:, None]
    digits = np.floor(magnitude / places)  # exact, as |n| < 2**50
    digits[1:] -= 10.0 * digits[:-1]
    cells = np.empty((width + k + 3, len(n)), np.uint8)  # sign, whole digits, point, fraction digits, separator
    cells[0], cells[width + 1], cells[-1] = ord(" "), ord("."), ord(",")
    cells[1 : width + 1] = digits[:width] + ord("0")
    cells[width + 2 : -1] = digits[width:] + ord("0")
    cells[-1, cols - 1 :: cols] = ord("\n")
    leading = magnitude < places[: width - 1]  # the zeros before the first whole digit
    cells[1:width][leading] = ord(" ")
    cells[np.add.reduce(leading, axis=0)[negative], negative.nonzero()[0]] = ord("-")
    return cells.T.tobytes().replace(b" ", b"").decode("ascii")


def gamma_grid(start: float, stop: float, step: float = 0.01) -> tuple[float, ...]:
    """Inclusive grid from start to stop built by integer stepping."""
    return tuple(_grid(start, stop, step).tolist())


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """The ratios of ``gamma_grid`` as an array, which ``efficiency_sweep`` reads as it is."""
    start, stop, step = _floats((start, stop, step), "grid ends and step")
    if not step > 0.0:
        raise ValidationError("step must be positive")
    span = (stop - start) / step
    count = round(span) if math.isfinite(span) else -1
    if count < 0 or not abs(start + count * step - stop) <= 1e-9:
        raise ValidationError("stop must be reachable from start in whole steps")
    return start + np.arange(count + 1) * step


def efficiency_sweep(
    family: ThreeFactorFamily | InteractionFamily,
    designs: Mapping[str, Design],
    gammas: Sequence[float],
) -> EfficiencySweep:
    """Efficiency of each design against the local optimum at every ratio.

    Inadmissible grid points, non-finite ones included, are skipped and recorded in
    ``skipped``. A design whose points do not have the model's dimension raises
    before anything is solved, naming the design. Each support is one stack over
    its rows, formed in its slice of one preallocated array, which one elimination
    takes whole. The first singular or nonpositive stack (the reference supports in
    case order, then the designs in order) raises, naming its design and the gamma
    of its first failing row. A 1-D float64 array of ratios is read as it is.
    """
    one_d = isinstance(gammas, np.ndarray) and gammas.ndim == 1 and gammas.dtype == np.float64
    grid = gammas if one_d else np.array(_floats(gammas, "gammas"))
    if not designs:
        raise ValidationError("need at least one design to sweep")
    names = tuple(designs)
    model = family.model
    for name, design in designs.items():
        _check_dimension(design.dimension, model.nu, f"design {name}", "model")
    ok, betas = _admissible(family, grid)
    kept = grid[ok]
    skipped = [f"gamma={gamma:g} is outside the admissible range" for gamma in grid[~ok].tolist()]
    stacks = [(0, points, weights, rows) for points, weights, rows in family._optima(kept)]
    stacks += [(column, d._pts, d._wts, np.arange(len(kept))) for column, d in enumerate(designs.values(), 1)]
    rows = np.concatenate([at for *_, at in stacks])  # each member's row and column of ld, by stack in order
    columns = np.repeat([column for column, *_ in stacks], [len(at) for *_, at in stacks])
    M, start, failure = np.empty((model.p**2, len(rows))), 0, None  # each stack's product goes into its columns
    for column, points, weights, at in stacks:
        try:
            _information_stack(model, betas[at], points, weights, M[:, start : start + len(at)])
        except NonpositivePredictor as exc:
            failure, M = (exc, column, at[exc._member]), M[:, :start]
            break  # a singular stack before this one raises first
        start += len(at)
    try:
        logdets = _logdets(M.reshape(model.p, model.p, -1))  # the stacks before a nonpositive one, if any
    except SingularInformation as exc:
        failure = exc, columns[exc._member], rows[exc._member]
    if failure:
        exc, column, row = failure
        raise type(exc)(f"gamma={float(kept[row])!r}, design {(('reference',) + names)[column]}: {exc}") from exc
    ld = np.empty((len(kept), 1 + len(names)))  # column 0 the reference's log-dets, then one per design
    ld[rows, columns] = logdets
    table = np.column_stack((kept, np.exp((ld[:, 1:] - ld[:, :1]) / model.p)))
    return EfficiencySweep(family.name, table, names, tuple(skipped))


def three_factor_benchmark_designs() -> dict[str, Design]:
    """The designs compared on [1,2]^3: the three subregion optima, the
    full factorial, both half fractions, and the 27-point grid. Vertices of
    the cube and points of the grid are distinct by construction."""
    v = np.array(three_factor_vertices(1.0, 2.0))
    optima = {label: _closed_form(np.array(points), 1.0, weights) for label, points, weights in _three_factor_cases(1.0, -1.0 / 7.0)[0]}
    return {
        "xi1": optima[ThreeFactorLabel.XI1],
        "xi2": optima[ThreeFactorLabel.XI2],
        "xi3": optima[ThreeFactorLabel.XI3],
        "xi4": _closed_form(v, 1.0),
        "xi5": _closed_form(v[[0, 4, 5, 6]], 1.0),
        "xi6": _closed_form(v[[1, 2, 3, 7]], 1.0),
        "xi7": _closed_form(np.array(list(itertools.product((1.0, 1.5, 2.0), repeat=3))), 0.5),
    }


def interaction_benchmark_designs(a: float = 1.0, b: float = 4.0) -> dict[str, Design]:
    """The designs compared on [a,b]^2: both three-vertex optima, the
    uniform vertex design, and the 9-point grid. Vertices are apart by b - a
    in some coordinate, and grid points by mid - a, b - mid or b - a."""
    a, b = _check_bounds(a, b)
    v = np.array(interaction_vertices(a, b))
    mid = (a + b) / 2.0
    grid = np.array(list(itertools.product((a, mid, b), repeat=2)))
    return {
        "xi1": _closed_form(v[[0, 1, 2]], b - a),  # Case_i, without v4 = (a, a)
        "xi2": _closed_form(v[[1, 2, 3]], b - a),  # Case_iv, without v1 = (b, b)
        "xi3": _closed_form(v, b - a),
        "xi4": _closed_form(grid, min(mid - a, b - mid)),
    }
