"""Benchmark for gammadesign: one closed-loop caller driving the public API.

Run from the root of a checkout:

    python3 bench/run.py --workload band_sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --self-check

A run builds one pass of ops from the seed, then runs whole passes, each
op starting when the previous one returns, for about ``--seconds``. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends half the time untraced and half with span wrappers installed, and
reports the per-layer metrics. Every line but the last is a JSON record
of the run (environment, failed ops); the last line is the result
object. README.md explains the workloads and what each metric measures.

Each op's time is its fastest over the passes of a run, and a pass takes
the sum of those. On a shared host, contention from other tenants slows
whole stretches of a run by up to 2x; the fastest repeat of an op moves
far less from run to run than its median does. Set-up time is likewise
the fastest of several fresh interpreters, started at intervals spread
over the run.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is first imported; setup
# probes inherit this environment.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("reproduce", "band_sweep", "cube_ladder", "verify_mix")

# setup_s is the fastest of this many fresh interpreters, spread over the run.
SETUP_PROBES = 21
# op_tail_s is the highest percentile of a pass with this many ops above it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "solver.s_per_iteration":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("excess_max"):
        return "excess"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def import_package():
    """Import gammadesign from this checkout's sources, never from elsewhere."""
    package_dir = SRC / "gammadesign"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"run.py: {package_dir} not found; run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import gammadesign

    if Path(gammadesign.__file__).resolve().parent != package_dir:
        sys.exit(f"run.py: imported gammadesign from {gammadesign.__file__}, not {package_dir}")
    return gammadesign


# ---------------------------------------------------------------- running ops


@dataclass
class Passes:
    """Pass wall times, each op's fastest time over the passes, and failures."""

    walls: list[float] = field(default_factory=list)
    best: list[float] = field(default_factory=list)  # per op, in pass order
    failures: list[tuple[str, str, str]] = field(default_factory=list)  # (op, kind, detail)
    attempted: int = 0


def run_op(op, count, cap_warning):
    """Time one op; return its seconds and its failure, or None.

    A failure is, in order of precedence: an exception, an
    IterationCapExceeded warning, or a failed output check.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = op.fn()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            return time.perf_counter() - start, (type(exc).__name__, str(exc))
        elapsed = time.perf_counter() - start
    for w in caught:
        if issubclass(w.category, cap_warning):
            return elapsed, (cap_warning.__name__, str(w.message))
    return elapsed, op.check(result, count)


def run_passes(ops, budget: float, cap_warning, tracer=None, after_pass=None) -> Passes:
    """Whole passes while the next one is expected to end within ``budget``
    seconds; at least one. ``after_pass(seconds_since_start)`` is called
    after each pass, untimed."""
    count = tracer.add if tracer is not None else (lambda name, value: None)
    passes = Passes(best=[float("inf")] * len(ops))
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            elapsed, failure = run_op(op, count, cap_warning)
            passes.best[i] = min(passes.best[i], elapsed)
            if failure is not None:
                passes.failures.append((op.name, *failure))
        passes.walls.append(time.perf_counter() - start)
        passes.attempted += len(ops)
        if after_pass is not None:
            after_pass(time.perf_counter() - begin)
        if time.perf_counter() - begin + statistics.fmean(passes.walls) > budget:
            return passes


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


# ---------------------------------------------------------------- reporting


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_pin": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def tail(best: list[float]) -> tuple[float, dict]:
    """Op time at the highest percentile with TAIL_BEYOND ops above it,
    over the ops of one pass; the slowest op when a pass is too short."""
    ordered = sorted(best)
    k = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], {
        "percentile": 100.0 * (k + 1) / len(ordered),
        "ops": len(ordered),
        "ops_beyond": len(ordered) - 1 - k,
    }


def load_expected() -> dict[str, set[tuple[str, str]]]:
    data = json.loads((BENCH_DIR / "expected_failures.json").read_text())
    return {w: {(f["op"], f["kind"]) for f in entries} for w, entries in data["workloads"].items()}


def failure_summary(failures, expected: set[tuple[str, str]]) -> list[dict]:
    table: dict[tuple[str, str], dict] = {}
    for op, kind, detail in failures:
        entry = table.setdefault((op, kind), {"op": op, "kind": kind, "detail": detail, "count": 0,
                                              "expected": (op, kind) in expected})
        entry["count"] += 1
    return list(table.values())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, gd) -> int:
    import tracing
    import workloads

    outdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    ops = workloads.build(args.workload, args.seed, outdir)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    cap = gd.IterationCapExceeded
    try:
        if args.trace:
            plain = run_passes(ops, args.seconds / 2, cap)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(ops, args.seconds / 2, cap, tracer)
            finally:
                tracer.restore()
            runs = [plain, traced]
        else:
            setup = []

            def probe_when_due(elapsed: float) -> None:
                # One probe per SETUP_PROBES-th of the run, so that a slow
                # stretch of the host is less likely to cover all of them.
                if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                    setup.append(measure_setup(args.workload, args.seed))

            probe_when_due(0.0)
            plain = run_passes(ops, args.seconds, cap, after_pass=probe_when_due)
            while len(setup) < SETUP_PROBES:
                setup.append(measure_setup(args.workload, args.seed))
            runs = [plain]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    expected = load_expected()[args.workload]
    summary = failure_summary(failures, expected)
    tail_value, tail_info = tail(plain.best)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "passes": sum(len(r.walls) for r in runs),
        "ops_per_pass": len(ops),
        "pass_walls_s": [w for r in runs for w in r.walls],
        "op_tail": tail_info,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": summary,
    }
    if args.trace:
        metrics = {name: metric(value, per_layer_unit(name)) for name, value in tracer.metrics(len(traced.walls)).items()}
        metrics["trace_overhead_ratio"] = metric(
            sum(traced.best) / sum(plain.best), "ratio"
        )
    else:
        record["setup_samples_s"] = setup
        values = {
            "setup_s": min(setup),
            "wall_s": sum(plain.best),
            "op_p50_s": statistics.median(plain.best),
            "op_tail_s": tail_value,
            "ops_ok_ratio": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: metric(value, E2E_UNITS[name]) for name, value in values.items()}
    print(json.dumps(record))
    correct = all(entry["expected"] for entry in summary)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- self-check


def self_check() -> int:
    """Run every workload briefly, traced and untraced, and compare the
    output with BENCHMARK.json and expected_failures.json.

    This covers all four workloads, also those BENCHMARK.json leaves out.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    problems = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            for entry in spec[group]:
                got = result["metrics"].get(entry["name"])
                if got is None:
                    problems.append(f"{workload} trace={trace}: metric {entry['name']} missing")
                elif not got.get("unit") or got["unit"] != entry["unit"]:
                    problems.append(f"{workload} trace={trace}: {entry['name']} unit {got.get('unit')!r}, want {entry['unit']!r}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {entry['name']} has no numeric value")
            seen = {(f["op"], f["kind"]) for f in record["failures"]}
            want = expected[workload]
            if seen != want or result["failed"] != record["passes"] * len(want):
                problems.append(
                    f"{workload} trace={trace}: failures {sorted(seen)} x {result['failed']} over "
                    f"{record['passes']} passes, expected {sorted(want)} on every pass"
                )
            print(f"{workload} (trace={trace}, {record['passes']} passes, {result['attempted']} ops, {result['failed']} failed)")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    if problems:
        return 1
    print("self-check passed")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run each workload briefly and check the output")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    gd = import_package()
    if args.self_check:
        return self_check()
    return measure(args, gd)


if __name__ == "__main__":
    sys.exit(main())
