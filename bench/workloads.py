"""The four benchmark workloads, built from a seed.

Each workload is a list of ops. An op is a call into gammadesign's public
API (``fn``, timed) and a check of what it returned (``check``, not
timed). A check returns None when the output is right, or a
``(kind, detail)`` failure. Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gammadesign as gd
from gammadesign import cli

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

# Tolerances of the output checks.
VERIFY_TOL = 1e-6
EFFICIENCY_CEILING = 1.0 + 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    fn: Callable[[], object]
    check: Callable[[object, Callable[[str, float], None]], tuple[str, str] | None]


def build(workload: str, seed: int, outdir: Path) -> list[Op]:
    """Ops of one pass. ``outdir`` is where ``reproduce`` writes; it is
    created by the first op, not here, so building writes nothing."""
    rng = np.random.default_rng(seed)
    if workload == "reproduce":
        return _reproduce(rng, outdir)
    if workload == "band_sweep":
        return _band_sweep(rng)
    if workload == "cube_ladder":
        return _cube_ladder(rng)
    if workload == "verify_mix":
        return _verify_mix(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- reproduce

def _reproduce(rng: np.random.Generator, outdir: Path) -> list[Op]:
    goldens = {t: (GOLDEN_DIR / f"{t}.csv").read_bytes() for t in ("table2", "example1", "example2")}

    def make(target: str) -> Op:
        path = outdir / f"{target}.csv"

        def fn():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(["reproduce", target, "--outdir", str(outdir)])
            return code, out.getvalue(), err.getvalue()

        def check(result, count):
            code, out, err = result
            if code != 0:
                return "exit_code", f"exit {code}: {err.strip()}"
            written = path.read_bytes()
            count("cli.bytes_written", len(written) + len(out.encode()))
            if json.loads(out) != {"written": [str(path)]}:
                return "stdout", out.strip()
            if written != goldens[target]:
                return "golden_mismatch", f"{path.name} differs from golden/{path.name}"
            return None

        return Op(target, fn, check)

    return [make(t) for t in rng.permutation(sorted(goldens))]


# ---------------------------------------------------------------- band_sweep

def _efficiency_check(sweep, count) -> tuple[str, str] | None:
    if sweep.skipped or len(sweep.values) != 1:
        return "rows", f"expected one row, got {len(sweep.values)} (skipped {list(sweep.skipped)})"
    bad = [v for v in sweep.values[0] if not 0.0 < v <= EFFICIENCY_CEILING]
    if bad:
        return "efficiency_range", f"efficiencies outside (0, 1+1e-9]: {bad}"
    return None


def _band_sweep(rng: np.random.Generator) -> list[Op]:
    # The grid is used exactly as gamma_grid returns it: its float drift
    # (-1.2000000000000002, -1.0000000000000002) is a known defect that
    # the benchmark must keep showing.
    family = gd.ThreeFactorFamily(-1)
    designs = gd.three_factor_benchmark_designs()
    grid = gd.gamma_grid(-2.99, -1.0, 0.01)

    def make(gamma: float) -> Op:
        return Op(f"gamma={gamma!r}", lambda: gd.efficiency_sweep(family, designs, (gamma,)), _efficiency_check)

    return [make(grid[k]) for k in rng.permutation(len(grid))]


# ---------------------------------------------------------------- cube_ladder

CUBE_NUS = range(3, 11)
CUBE_BETA1 = -0.05
# Coefficients beta_2..beta_nu of each rung are a fixed draw from
# uniform(0.5, 1.5); the run seed permutes them. Relabelling factors
# leaves the problem, and so the iteration count, unchanged, while free
# draws move one pass between 10 s and 35 s, far beyond any usable bound.
# This draw keeps the nu=10 defect: the solver reports converged after
# 36197 iterations, but the returned design has excess 7.9e-5 > 1e-6.
# It stays clear of the iteration cap, which alone costs over 30 s at
# nu=10.
CUBE_LADDER_DRAW = 5


def cube_ladder_coefficients() -> dict[int, np.ndarray]:
    draw = np.random.default_rng(CUBE_LADDER_DRAW)
    return {nu: draw.uniform(0.5, 1.5, nu - 1) for nu in CUBE_NUS}


def _cube_ladder(rng: np.random.Generator) -> list[Op]:
    ops = []
    for nu, coefficients in cube_ladder_coefficients().items():
        model = gd.GammaModel.first_order(nu)
        cube = gd.ExperimentalRegion.hypercube(1.0, 2.0, nu)
        beta = (CUBE_BETA1, *(float(c) for c in rng.permutation(coefficients)))
        if not gd.validate_positivity(model, beta, cube):
            raise ValueError(f"cube_ladder beta {beta} is not admissible on [1,2]^{nu}")
        vertices = gd.region_vertices(cube)

        def fn(model=model, beta=beta, vertices=vertices):
            design, trace = gd.multiplicative(model, beta, vertices)
            report = gd.verify_optimality(model, beta, design, gd.Criterion.D, vertices, tol=VERIFY_TOL)
            return trace, report

        ops.append(Op(f"nu={nu}", fn, _cube_check))
    return ops


def _cube_check(result, count) -> tuple[str, str] | None:
    trace, report = result
    if not report.passed:
        return "verification", (
            f"returned design has excess {report.worst_excess:.3g} > {VERIFY_TOL:g} "
            f"(converged={trace.converged}, solver final excess {trace.final_excess:.3g})"
        )
    return None


# ---------------------------------------------------------------- verify_mix

VERIFY_MIX_PER_KIND = 400


def _verified(report) -> tuple[str, str] | None:
    if report.passed:
        return None
    return "verification", f"excess {report.worst_excess:.3g} at {report.worst_point}"


def _orthant(rng: np.random.Generator, criterion) -> tuple[Callable, Callable]:
    nu = int(rng.integers(2, 7))
    scale = tuple(float(s) for s in rng.uniform(0.5, 2.0, nu))
    beta = tuple(float(b) for b in rng.uniform(0.2, 3.0, nu))
    model = gd.GammaModel.first_order(nu)
    orthant = gd.ExperimentalRegion.orthant(nu)

    def fn():
        if not gd.validate_positivity(model, beta, orthant):
            return None
        if criterion is gd.Criterion.D:
            design = gd.d_optimal_orthant(nu, scale)
        else:
            design = gd.a_optimal_orthant(beta, scale)
        return gd.verify_optimality(model, beta, design, criterion, gd.orthant_axis_points(nu, scale), VERIFY_TOL)

    def check(report, count):
        return ("positivity", "admissible beta rejected") if report is None else _verified(report)

    return fn, check


def _two_factor(rng: np.random.Generator, criterion) -> tuple[Callable, Callable]:
    a = float(rng.uniform(0.3, 2.0))
    b = a * float(rng.uniform(1.1, 4.0))
    beta = tuple(float(c) for c in rng.uniform(0.2, 3.0, 2))
    model = gd.GammaModel.first_order(2)
    square = gd.ExperimentalRegion.hypercube(a, b, 2)

    def fn():
        if criterion is gd.Criterion.D:
            design = gd.d_optimal_two_factor(a, b)
        else:
            design = gd.a_optimal_two_factor(a, b, beta)
        return gd.verify_optimality(model, beta, design, criterion, gd.region_vertices(square), VERIFY_TOL)

    return fn, lambda report, count: _verified(report)


def _simplex(rng: np.random.Generator) -> tuple[Callable, Callable]:
    nu = int(rng.integers(3, 7))
    a = float(rng.uniform(0.5, 2.0))
    # b/a starts at 1.25 because below about 1.09 at nu=6 the det-based
    # singularity rule of verify_optimality rejects M although its
    # condition number is only ~1e4. That defect is shown on every pass by
    # the fixed op "simplex_nu6_narrow", not at seed-dependent random ops.
    b = a * float(rng.uniform(1.25, 3.0))
    beta = tuple(float(c) for c in rng.uniform(0.2, 3.0, nu))
    return _simplex_op(nu, a, b, beta)


def _simplex_op(nu: int, a: float, b: float, beta: tuple[float, ...]) -> tuple[Callable, Callable]:
    model = gd.GammaModel.first_order(nu)
    cube = gd.ExperimentalRegion.hypercube(a, b, nu)

    def fn():
        claim = gd.is_simplex_design_d_optimal(nu, a, b, beta)
        report = gd.verify_optimality(
            model, beta, gd.simplex_design(nu, a, b), gd.Criterion.D, gd.region_vertices(cube), VERIFY_TOL
        )
        return claim, report

    def check(result, count):
        claim, report = result
        if claim != report.passed:
            return "verdict_mismatch", f"theory says {claim}, verification says {report.passed} (excess {report.worst_excess:.3g})"
        return None

    return fn, check


def _interaction(rng: np.random.Generator) -> tuple[Callable, Callable]:
    a = float(rng.uniform(0.5, 2.0))
    b = a * float(rng.uniform(1.1, 5.0))
    gamma = float(rng.uniform(-0.45 * a, 5.0))

    def fn():
        design = gd.interaction_equal_beta(a, b, gamma).design
        transform = gd.interaction_to_intercept(a, b, (gamma, gamma, 1.0))
        mapped = gd.map_design_interaction(design, a, b)
        return gd.verify_intercept_design(transform, mapped, gd.Criterion.D, tol=VERIFY_TOL)

    return fn, lambda report, count: _verified(report)


# Ratio intervals of the closed-form subregions of [1,2]^3, kept off the
# admissibility edges where the predictor vanishes at a vertex; the
# numerical band (beta1 < 0, -3 < gamma < -1.2) needs the solver and is
# left to band_sweep.
_CLOSED_FORM_RATIOS = ((1.0, -0.24, 2.0), (-1.0, -1.2, -1.01), (-1.0, -6.0, -3.0))


def _classify(rng: np.random.Generator) -> tuple[Callable, Callable]:
    sign, lo, hi = _CLOSED_FORM_RATIOS[int(rng.integers(len(_CLOSED_FORM_RATIOS)))]
    scale = float(rng.uniform(0.5, 2.0))
    gamma = float(rng.uniform(lo, hi))
    beta1 = sign * scale
    model = gd.GammaModel.first_order(3)

    def fn():
        result = gd.classify_three_factor(gd.ThreeFactorScenario(beta1, beta1 * gamma))
        if result.design is None:
            return result, None
        beta = (beta1, beta1 * gamma, beta1 * gamma)
        vertices = gd.three_factor_vertices(1.0, 2.0)
        return result, gd.verify_optimality(model, beta, result.design, gd.Criterion.D, vertices, VERIFY_TOL)

    def check(result, count):
        classification, report = result
        if report is None:
            return "no_design", f"{classification.label.value} at gamma={gamma!r} has no closed form"
        return _verified(report)

    return fn, check


def _verify_mix(rng: np.random.Generator) -> list[Op]:
    kinds = {
        "orthant_D": lambda: _orthant(rng, gd.Criterion.D),
        "orthant_A": lambda: _orthant(rng, gd.Criterion.A),
        "two_factor_D": lambda: _two_factor(rng, gd.Criterion.D),
        "two_factor_A": lambda: _two_factor(rng, gd.Criterion.A),
        "simplex": lambda: _simplex(rng),
        "interaction": lambda: _interaction(rng),
        "classify": lambda: _classify(rng),
    }
    # Equal counts per kind keep the op-time distribution, and so its
    # median, the same from seed to seed; only the order and the
    # parameters are random.
    ops = []
    for kind, make in kinds.items():
        for i in range(VERIFY_MIX_PER_KIND):
            fn, check = make()
            ops.append(Op(f"{kind}#{i}", fn, check))
    ops.append(Op("simplex_nu6_narrow", *_simplex_op(6, 1.0, 1.05, (1.0,) * 6)))
    return [ops[k] for k in rng.permutation(len(ops))]
