"""Span wrappers around the public functions of gammadesign's modules.

A traced run rebinds every module binding of each wrapped function (so
``from .model_core import features`` inside ``solver`` is wrapped too)
and restores the originals afterwards. Spans nest strictly because the
benchmark is one thread, so a span's self time is its duration minus the
durations of its direct children. Spans are aggregated per name as they
close instead of being stored: a ``reproduce`` pass alone opens tens of
thousands of ``features`` spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Functions wrapped per module, by name; None means every public
# function the module lists in __all__.
WRAPPED = {
    "model_core": ("features", "information_matrix", "validate_positivity"),
    "solver": ("multiplicative",),
    "equivalence": ("verify_optimality",),
    "efficiency": ("efficiency_sweep",),
    "analytic_designs": None,
    "transforms": None,
    "cli": ("run",),
}


class Tracer:
    """Per-name span totals plus the counters read off each layer's results."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, float("-inf")), value)

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- result counters --------------------------------------------------

    def _after_solve(self, args, kwargs, result) -> None:
        design, trace = result
        candidates = args[2] if len(args) > 2 else kwargs["candidates"]
        self.add("solver.iterations", trace.iterations)
        self.peak("solver.iterations_max", trace.iterations)
        self.add("solver.solves", 1)
        self.add("solver.converged", int(trace.converged))
        self.peak("solver.final_excess_max", trace.final_excess)
        self.add("solver.support", design.size)
        self.add("solver.candidates", len(candidates))
        if self.inside("efficiency.efficiency_sweep"):
            self.add("efficiency.rows_numerical", 1)

    def _after_verify(self, args, kwargs, report) -> None:
        self.add("equivalence.candidates_checked", len(report.points))
        self.peak("equivalence.worst_excess_max", report.worst_excess)

    def _after_sweep(self, args, kwargs, sweep) -> None:
        self.add("efficiency.rows", len(sweep.gammas))
        self.add("efficiency.rows_skipped", len(sweep.skipped))

    # -- installing and removing the wrappers -----------------------------

    def install(self) -> None:
        import gammadesign

        package = gammadesign.__name__
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        after = {
            "solver.multiplicative": self._after_solve,
            "equivalence.verify_optimality": self._after_verify,
            "efficiency.efficiency_sweep": self._after_sweep,
        }
        for layer, names in WRAPPED.items():
            module = sys.modules[f"{package}.{layer}"]
            if names is None:
                names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            for fn_name in names:
                original = getattr(module, fn_name)
                span = f"{layer}.{fn_name}"
                wrapper = self._wrap(span, original, after.get(span))
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patches.append((owner, attr, original))
                            setattr(owner, attr, wrapper)
        design_cls = sys.modules[f"{package}.model_core"].Design
        self._patches.append((design_cls, "__init__", design_cls.__init__))
        design_cls.__init__ = self._wrap("model_core.Design", design_cls.__init__)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-layer metrics ------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass per-layer metrics; maxima are over the whole run."""

        def per_pass(value: float) -> float:
            return value / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def layer_total(table, layer: str) -> float:
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        out: dict[str, float] = {}
        for span in (
            "model_core.features",
            "model_core.information_matrix",
            "model_core.Design",
            "solver.multiplicative",
            "equivalence.verify_optimality",
            "efficiency.efficiency_sweep",
            "cli.run",
        ):
            out[f"{span}.calls"] = per_pass(self.calls[span])
            out[f"{span}.self_s"] = per_pass(self.self_s[span])
        out["model_core.validate_positivity.self_s"] = per_pass(self.self_s["model_core.validate_positivity"])
        for layer in ("analytic_designs", "transforms"):
            out[f"{layer}.calls"] = per_pass(layer_total(self.calls, layer))
            out[f"{layer}.self_s"] = per_pass(layer_total(self.self_s, layer))

        c = self.counts
        solves = c["solver.solves"]
        out["solver.iterations"] = per_pass(c["solver.iterations"])
        out["solver.iterations_max"] = self.maxima.get("solver.iterations_max", 0)
        out["solver.s_per_iteration"] = ratio(self.self_s["solver.multiplicative"], c["solver.iterations"])
        out["solver.cap_hits"] = per_pass(solves - c["solver.converged"])
        out["solver.converged_ratio"] = ratio(c["solver.converged"], solves)
        out["solver.final_excess_max"] = self.maxima.get("solver.final_excess_max", 0.0)
        out["solver.support_ratio"] = ratio(c["solver.support"], c["solver.candidates"])
        out["equivalence.candidates_checked"] = per_pass(c["equivalence.candidates_checked"])
        out["equivalence.worst_excess_max"] = self.maxima.get("equivalence.worst_excess_max", 0.0)
        for name in ("efficiency.rows", "efficiency.rows_numerical", "efficiency.rows_skipped", "cli.bytes_written"):
            out[name] = per_pass(c[name])
        return out
