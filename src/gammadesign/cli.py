"""Command-line interface.

Subcommands: ``design`` (construct an optimal design), ``classify``
(subregion of the three-factor cube), ``verify`` (equivalence-theorem
check), ``solve`` (D-optimal weights on a candidate set), ``efficiency``
(D-efficiency sweep to CSV), and ``reproduce`` (regenerate the reference
tables and sweeps).

Output is deterministic: floats are printed with 10 significant digits
in JSON and 4 decimals in reproduction CSVs. Validation problems exit
with status 2, computation failures with 1; both write one JSON error
object to stderr. A ``solve`` that stops at its iteration cap still
writes its design and exits 0, with one JSON warning object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .model_core import (
    Design,
    ExperimentalRegion,
    GammaDesignError,
    GammaModel,
    IterationCapExceeded,
    ModelKind,
    RegionKind,
    ValidationError,
    _check_beta,
    _floats,
    design_from_json,
    design_to_json,
    validate_design_region,
    validate_positivity,
)
from .equivalence import (
    DEFAULT_TOL,
    Criterion,
    orthant_axis_points,
    region_vertices,
    verify_optimality,
)
from .analytic_designs import (
    THREE_FACTOR_VERTEX_NAMES,
    ThreeFactorScenario,
    a_optimal_orthant,
    a_optimal_two_factor,
    classify_three_factor,
    d_optimal_interaction,
    d_optimal_orthant,
    d_optimal_two_factor,
    is_simplex_design_d_optimal,
    simplex_design,
)
from .solver import SolverParams, multiplicative
from .efficiency import (
    InteractionFamily,
    ThreeFactorFamily,
    efficiency_sweep,
    interaction_benchmark_designs,
    three_factor_benchmark_designs,
    _csv_rows,
    _grid,
)

__all__ = ["main", "run"]

_JSON_FLOAT_FORMAT = "%.10g"
_CSV_FLOAT_FORMAT = "%.4f"


# ---------------------------------------------------------------------------
# Deterministic JSON output. The stdlib encoder prints floats with repr,
# which leaks platform-independent but noisy digits; this emitter pins
# every finite float to 10 significant digits.

def render_json(value) -> str:
    if isinstance(value, dict):
        items = (f"{json.dumps(str(key))}: {render_json(item)}" for key, item in value.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(render_json, value)) + "]"
    if isinstance(value, float) and math.isfinite(value):
        return _JSON_FLOAT_FORMAT % value
    return json.dumps(value)  # str, int, bool, None and non-finite floats (Infinity, -Infinity, NaN) as the stdlib prints them


def _write(text: str, path: str | Path | None) -> None:
    """Write text to the file at ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit(value, path: str | Path | None) -> None:
    _write(render_json(value) + "\n", path)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValidationError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument plumbing shared by several subcommands.

def _make_model(args) -> GammaModel:
    kind = ModelKind(args.model)
    if kind is ModelKind.INTERACTION:
        return GammaModel(kind, 2 if args.nu is None else args.nu)  # the model's own rule refuses any other nu
    if args.nu is None:
        raise ValidationError("--nu is required for the first-order model")
    return GammaModel.first_order(args.nu)


def _make_region(args, model: GammaModel) -> ExperimentalRegion:
    kind = RegionKind(args.region)
    if kind is RegionKind.ORTHANT:
        return ExperimentalRegion.orthant(model.nu)
    if args.a is None or args.b is None:
        raise ValidationError("hypercube regions require --a and --b")
    return ExperimentalRegion.hypercube(args.a, args.b, model.nu)


def _candidates(args, model: GammaModel, design: Design | None = None):
    """Candidates from the --candidates file, else from --region: a hypercube's vertices, or an orthant
    ``design``'s points plus the axis points it lacks. A given ``design`` must lie in the region."""
    if args.candidates is not None:
        return _load_json(args.candidates)
    if args.region is None:
        raise ValidationError("either --candidates or --region is required")
    region = _make_region(args, model)
    if design is not None:
        validate_design_region(design, region)
        if region.kind is RegionKind.ORTHANT:
            return list(design.points) + [pt for pt in orthant_axis_points(model.nu) if pt not in design.points]
    return region_vertices(region)  # an orthant has none: ValidationError


def _require_beta(args, model: GammaModel) -> tuple[float, ...]:
    if args.beta is None:
        raise ValidationError("--beta is required for this configuration")
    return _check_beta(model, args.beta.split(","))


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_design(args) -> int:
    design, provenance = _construct_design(args)
    _emit({**design_to_json(design), "provenance": provenance}, args.output)
    return 0


def _construct_design(args) -> tuple[Design, str]:
    """The requested design and how it was made: "analytic" or "numerical"."""
    model = _make_model(args)
    region = _make_region(args, model)
    criterion = Criterion(args.criterion)
    scale = None if args.scale is None else _floats(args.scale.split(","), "--scale")
    if args.beta is not None and not validate_positivity(model, _require_beta(args, model), region):
        raise ValidationError(f"beta violates positivity on the {region.kind.value}")

    if model.kind is ModelKind.INTERACTION:
        if region.kind is not RegionKind.HYPERCUBE:
            raise ValidationError("interaction designs are constructed on hypercube regions")
        if criterion is not Criterion.D:
            raise ValidationError("only D-optimal interaction designs are available")
        beta = _require_beta(args, model)
        result = d_optimal_interaction(region.a, region.b, beta)
        if result.design is not None:
            return result.design, "analytic"
        return multiplicative(model, beta, region_vertices(region))[0], "numerical"

    if region.kind is RegionKind.ORTHANT:
        if criterion is Criterion.D:
            return d_optimal_orthant(model.nu, scale), "analytic"
        return a_optimal_orthant(_require_beta(args, model), scale), "analytic"

    # first-order model on a hypercube
    if criterion is Criterion.A:
        if model.nu != 2:
            raise ValidationError("A-optimal hypercube designs are available for nu = 2 only")
        return a_optimal_two_factor(region.a, region.b, _require_beta(args, model)), "analytic"
    if model.nu == 2:
        return d_optimal_two_factor(region.a, region.b), "analytic"
    beta = _require_beta(args, model)
    if is_simplex_design_d_optimal(model.nu, region.a, region.b, beta):
        return simplex_design(model.nu, region.a, region.b), "analytic"
    if model.nu == 3 and region.a == 1.0 and region.b == 2.0 and beta[1] == beta[2]:
        result = classify_three_factor(ThreeFactorScenario(beta[0], beta[1]))
        if result.design is not None:
            return result.design, "analytic"
    return multiplicative(model, beta, region_vertices(region))[0], "numerical"


def _cmd_classify(args) -> int:
    if args.beta1_sign == "zero":
        scenario = ThreeFactorScenario(0.0, 1.0)
    elif args.gamma is None:
        raise ValidationError("--gamma is required unless --beta1-sign is zero")
    else:
        sign = 1.0 if args.beta1_sign == "pos" else -1.0
        scenario = ThreeFactorScenario(sign, sign * args.gamma)
    _emit(classify_three_factor(scenario).to_json(), args.output)
    return 0


def _cmd_verify(args) -> int:
    model = _make_model(args)
    beta = _require_beta(args, model)
    design = design_from_json(_load_json(args.design))
    report = verify_optimality(model, beta, design, Criterion(args.criterion), _candidates(args, model, design), args.tol)
    _emit(report.to_json(), args.output)
    return 0


def _cmd_solve(args) -> int:
    model = _make_model(args)
    beta = _require_beta(args, model)
    candidates = _candidates(args, model)
    params = SolverParams(max_iterations=args.max_iterations, convergence_tol=args.convergence_tol)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IterationCapExceeded)
        design, trace = multiplicative(model, beta, candidates, params)
    for warning in caught:  # a cap hit is reported as data; any other warning is shown as it would have been
        if issubclass(warning.category, IterationCapExceeded):
            _print_error(warning.message, "warning")
        else:
            warnings.showwarning(warning.message, warning.category, warning.filename, warning.lineno)
    if args.trace is not None:
        _emit(trace.to_json(), args.trace)
    _emit({**design_to_json(design), "provenance": "numerical"}, args.output)
    return 0


def _sweep_for_family(family: str, a=None, b=None, start=None, stop=None, step: float = 0.01):
    """The sweep of one family over its benchmark designs; bounds and grid
    ends left as None take the family's defaults."""
    bounds = {name: value for name, value in (("a", a), ("b", b)) if value is not None}
    if family == "three-factor":
        if bounds:
            raise ValidationError("--a and --b apply to the interaction family only")
        sweep_family, designs, ends = ThreeFactorFamily(), three_factor_benchmark_designs(), (-0.24, 1.0)
    else:
        sweep_family = InteractionFamily(**bounds)
        designs, ends = interaction_benchmark_designs(sweep_family.a, sweep_family.b), (-0.49, 5.0)
    start, stop = ends[0] if start is None else start, ends[1] if stop is None else stop
    return efficiency_sweep(sweep_family, designs, _grid(start, stop, step))


def _cmd_efficiency(args) -> int:
    sweep = _sweep_for_family(args.family, args.a, args.b, args.start, args.stop, args.step)
    _write(sweep.to_csv(_JSON_FLOAT_FORMAT), args.output)
    if args.json is not None:
        _emit(sweep.to_json(), args.json)
    return 0


def _cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{args.target}.csv"
    if args.target == "table2":
        family, gammas = ThreeFactorFamily(-1), (-2.9, -2.5, -2.0, -1.5, -1.23)
        _, solved = family._path(gammas, SolverParams())
        rows = [[gamma, *w.tolist()] for gamma, (w, _) in zip(gammas, solved)]  # one weight per vertex, in vertex order
        _write(",".join(("gamma",) + THREE_FACTOR_VERTEX_NAMES) + "\n" + _csv_rows(rows, _CSV_FLOAT_FORMAT), path)
    else:
        family = "three-factor" if args.target == "example1" else "interaction"
        _write(_sweep_for_family(family).to_csv(_CSV_FLOAT_FORMAT), path)
    _emit({"written": [str(path)]}, None)
    return 0


# ---------------------------------------------------------------------------
# Parser.

def _add_model_flags(sub, *, region_default: str | None = None) -> None:
    sub.add_argument("--model", choices=[k.value for k in ModelKind], default="first_order")
    sub.add_argument("--nu", type=int, default=None, help="number of factors")
    sub.add_argument("--beta", default=None, help="comma-separated parameter vector")
    sub.add_argument("--region", choices=[k.value for k in RegionKind], default=region_default)
    sub.add_argument("--a", type=float, default=None, help="hypercube lower bound")
    sub.add_argument("--b", type=float, default=None, help="hypercube upper bound")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared by every
    later one, so callers must not mutate it. Reuse is safe: each
    ``parse_args`` makes a fresh namespace, keeps ``set_defaults`` on the
    parser, and reads ``sys.argv``, the streams and the terminal width when
    it runs."""
    parser = argparse.ArgumentParser(
        prog="gammadesign",
        description="Locally optimal designs for gamma models without intercept.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct a locally optimal design")
    _add_model_flags(p_design, region_default="hypercube")
    p_design.add_argument("--criterion", choices=[c.value for c in Criterion], default="D")
    p_design.add_argument("--scale", default=None, help="axis scales for orthant designs")
    p_design.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p_design.set_defaults(func=_cmd_design)

    p_classify = sub.add_parser("classify", help="three-factor cube subregion for a ratio")
    p_classify.add_argument("--gamma", type=float, default=None, help="ratio beta/beta1")
    p_classify.add_argument("--beta1-sign", choices=["pos", "neg", "zero"], required=True)
    p_classify.add_argument("--output", default=None)
    p_classify.set_defaults(func=_cmd_classify)

    p_verify = sub.add_parser("verify", help="equivalence-theorem check of a design file")
    _add_model_flags(p_verify)
    p_verify.add_argument("--design", required=True, help="design JSON file")
    p_verify.add_argument("--criterion", choices=[c.value for c in Criterion], default="D")
    p_verify.add_argument("--candidates", default=None, help="JSON file with candidate points")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="certified D-optimal weights on a candidate set (damped Newton steps on the support)")
    _add_model_flags(p_solve)
    p_solve.add_argument("--candidates", default=None, help="JSON file with candidate points")
    p_solve.add_argument("--max-iterations", type=int, default=SolverParams.max_iterations)
    p_solve.add_argument("--convergence-tol", type=float, default=SolverParams.convergence_tol)
    p_solve.add_argument("--trace", default=None, help="write the solver trace JSON here")
    p_solve.add_argument("--output", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_eff = sub.add_parser("efficiency", help="D-efficiency sweep over a ratio grid")
    p_eff.add_argument("--family", choices=["three-factor", "interaction"], required=True)
    p_eff.add_argument("--a", type=float, default=None)
    p_eff.add_argument("--b", type=float, default=None)
    p_eff.add_argument("--start", type=float, default=None)
    p_eff.add_argument("--stop", type=float, default=None)
    p_eff.add_argument("--step", type=float, default=0.01)
    p_eff.add_argument("--output", default=None, help="CSV path (stdout when omitted)")
    p_eff.add_argument("--json", default=None, help="also write the sweep as JSON here")
    p_eff.set_defaults(func=_cmd_efficiency)

    p_rep = sub.add_parser("reproduce", help="regenerate reference tables and sweeps")
    p_rep.add_argument("target", choices=["table2", "example1", "example2"])
    p_rep.add_argument("--outdir", default=".")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GammaDesignError, OSError) as exc:
        _print_error(exc)
        return 2 if isinstance(exc, ValidationError) else 1


def _print_error(exc: Exception, key: str = "error") -> None:
    obj = {key: {"type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(render_json(obj) + "\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
