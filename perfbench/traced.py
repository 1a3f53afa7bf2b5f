"""Run the latefuse CLI with timing hooks around each layer's public functions.

Usage: python3 perfbench/traced.py TRACE_JSON CLI_ARG...

The CLI receives exactly the arguments it would get untraced.  Hooks are
installed before ``latefuse.cli.main`` runs: each target function is
replaced, by identity, in every loaded ``latefuse.*`` module, because the CLI
imports the functions by name.  The objective is timed by wrapping the
callables of the ``Objective`` that ``make_mse_objective`` returns.  A hook
whose target is gone is listed under "missing" and records nothing, so its
metrics read as missing rather than as zero.  No file of the package is
edited.
"""

from __future__ import annotations

import json
import sys
import time

_started = time.perf_counter()
import latefuse.cli  # noqa: E402  (timed: this import is the CLI's start-up cost)

IMPORT_S = time.perf_counter() - _started

# (module, function) -> layer span it feeds; the objective's callables are
# reached through make_mse_objective.
SPANS = {
    ("latefuse.ingestion", "read_inducer_csv"): "ingestion.parse",
    ("latefuse.ingestion", "load_ground_truth"): "ingestion.truth",
    ("latefuse.ingestion", "assemble"): "ingestion.assemble",
    ("latefuse.ingestion", "fit_minmax"): "ingestion.normalise",
    ("latefuse.ingestion", "apply_minmax"): "ingestion.normalise",
    ("latefuse.fusion", "fuse"): "fusion.fuse",
    ("latefuse.fusion", "make_mse_objective"): "fusion.objective",
    ("latefuse.optimizers", "optimize"): "optimizers.optimize",
    ("latefuse.evaluation", "map_at_k"): "evaluation.map_at_k",
    ("latefuse.cli", "_atomic"): "cli.write",
}
OBJECTIVE_CALLABLES = ("value", "gradient", "value_batch")


class Tracer:
    """Spans and counts kept in memory and written once, when the CLI returns."""

    def __init__(self) -> None:
        self.busy_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.rows_parsed = 0
        self.rows_evaluated = 0
        self.batch_points = 0
        self.objective_ns = {name: [] for name in OBJECTIVE_CALLABLES}
        self.objective_total_ns = 0
        self.methods: dict[str, dict] = {}
        self.missing: list[str] = []

    def install(self) -> None:
        for (module_name, attr), span in SPANS.items():
            module = sys.modules.get(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                self._lose(f"{module_name}.{attr}")
                continue
            wrapper = getattr(self, "_wrap_" + attr.strip("_"), self._wrap_span)(target, span)
            for name, loaded in list(sys.modules.items()):
                if name.split(".")[0] != "latefuse" or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is target:
                        setattr(loaded, key, wrapper)

    def _lose(self, hook: str) -> None:
        if hook not in self.missing:
            self.missing.append(hook)

    def _add(self, span: str, ns: int) -> None:
        self.busy_ns[span] = self.busy_ns.get(span, 0) + ns
        self.calls[span] = self.calls.get(span, 0) + 1

    def _wrap_span(self, fn, span: str):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(span, time.perf_counter_ns() - t0)

        return timed

    def _wrap_read_inducer_csv(self, fn, span: str):
        timed = self._wrap_span(fn, span)

        def parse(*args, **kwargs):
            table = timed(*args, **kwargs)
            try:
                self.rows_parsed += len(table)
            except TypeError:  # the parsed type no longer has a length
                self._lose("ingestion.rows")
            return table

        return parse

    def _wrap_map_at_k(self, fn, span: str):
        timed = self._wrap_span(fn, span)

        def evaluate(fused, *args, **kwargs):
            self.rows_evaluated += len(fused)
            return timed(fused, *args, **kwargs)

        return evaluate

    def _wrap_make_mse_objective(self, fn, span: str):
        def make(*args, **kwargs):
            objective = fn(*args, **kwargs)
            for name in OBJECTIVE_CALLABLES:
                inner = getattr(objective, name, None)
                try:
                    if not callable(inner):
                        raise AttributeError(name)
                    setattr(objective, name, self._timed_objective(name, inner))
                except AttributeError:  # absent, or the objective is read-only
                    self._lose(f"objective.{name}")
            return objective

        return make

    def _timed_objective(self, name: str, fn):
        durations = self.objective_ns[name]

        def call(x):
            t0 = time.perf_counter_ns()
            out = fn(x)
            ns = time.perf_counter_ns() - t0
            durations.append(ns)
            self.objective_total_ns += ns
            if name == "value_batch":
                self.batch_points += len(x)
            return out

        return call

    def _wrap_optimize(self, fn, span: str):
        def optimize(method, *args, **kwargs):
            before_ns = self.objective_total_ns
            before = {name: len(self.objective_ns[name]) for name in ("value", "gradient")}
            before_points = self.batch_points
            t0 = time.perf_counter_ns()
            report = fn(method, *args, **kwargs)
            busy = time.perf_counter_ns() - t0
            self._add(span, busy)
            objective = self.objective_total_ns - before_ns
            self.methods[method] = {
                "busy_s": busy / 1e9,
                "self_s": (busy - objective) / 1e9,
                "f_evals": len(self.objective_ns["value"]) - before["value"]
                + self.batch_points - before_points,
                "g_evals": len(self.objective_ns["gradient"]) - before["gradient"],
                "iterations": getattr(report, "iterations", None),
                "converged": getattr(report, "converged", None),
            }
            return report

        return optimize

    def dump(self, path: str, exit_code: int) -> None:
        doc = {
            "exit_code": exit_code,
            "import_s": IMPORT_S,
            "busy_s": {span: ns / 1e9 for span, ns in self.busy_ns.items()},
            "calls": self.calls,
            "rows_parsed": self.rows_parsed,
            "rows_evaluated": self.rows_evaluated,
            "batch_points": self.batch_points,
            "objective_us": {k: _summary(v) for k, v in self.objective_ns.items()},
            "objective_busy_s": self.objective_total_ns / 1e9,
            "methods": self.methods,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _summary(durations_ns: list[int]) -> dict:
    """Call count, median and 99th percentile (nearest rank) in microseconds."""
    if not durations_ns:
        return {"calls": 0, "median": 0.0, "p99": 0.0}
    ordered = sorted(durations_ns)
    n = len(ordered)
    median = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    p99 = ordered[max(0, -(-99 * n // 100) - 1)]
    return {"calls": n, "median": median / 1e3, "p99": p99 / 1e3}


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = latefuse.cli.main(argv)
    tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
