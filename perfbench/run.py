"""Benchmark of the latefuse command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, both modes

The program runs from ``src/`` of the repository this directory sits in, as
it is, and the benchmark's scratch files go to ``.perfbench_work/`` there.
Each invocation is a fresh ``python3 -m latefuse`` process and invocations
run one at a time (a closed loop with one client).  A run:

1. set-up, three times (``setup_s`` is the median): generates the workload's
   inputs and makes one warm-up invocation on them, which is not among the
   measured ones.  The exact bounded least-squares optimum of the dev split
   is solved once, outside the timing;
2. measures: invokes the CLI until the next invocation would end after
   ``--seconds``.  With ``--trace 0`` the invocations take the CLI seeds
   ``N*8 .. N*8+7`` in turn (see SEED_POOL); with ``--trace 1`` untraced and
   traced invocations alternate on CLI seed ``N*8`` (see traced.py), so the
   tracing overhead is their difference;
3. checks every invocation: exit code 0, every artifact present and parsing,
   weights in [0, 1]^m, ``dev_mse`` equal to a residual-form evaluation of
   the saved weights within 1e-12 relative, and artifacts byte-identical to
   those of the first invocation (warm-up included) with the same CLI seed,
   apart from the ``wall_time`` field.  Traced counts must equal
   ``optimizer_report.json`` and repeat exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines above it
print every metric with its unit, the environment and the failures.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run, set-up included, stops starting invocations after this
SETUP_REPEATS = 3
# Untraced runs cycle through this many CLI seeds, so a run's median covers
# several random searches: pso and ga stop early by chance, and ga's iteration
# count alone ranges over 4x between seeds.  Traced runs keep one seed, so
# their counts repeat exactly.
SEED_POOL = 8
K = 10  # the CLI's default MAP cutoff
GAP_ZERO = 1e-12
MSE_RTOL = 1e-12
RUN_ARTIFACTS = (
    "manifest.json",
    "norm_params.json",
    "weights.json",
    "optimizer_report.json",
    "eval_report.json",
    "eval_report.csv",
)
SUMMARY_ARTIFACTS = ("summary.csv", "summary.json")
EXCLUDED_FIELD = "wall_time"  # timing field, outside the byte-identical set

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "optimality_gap_max": "mse",
    "failure_rate": "ratio",
}
# Reported on standard output but not in the JSON metrics: both read 0 when
# all is well, and a share-of-median bound on 0 is meaningless.  The JSON's
# "failed"/"attempted" carry the failure rate; optimizers.<m>.gap the gaps.
UNBOUNDED_END_TO_END = ("optimality_gap_max", "failure_rate")

METHOD_METRICS = {
    "busy_s": "s",
    "self_s": "s",
    "f_evals": "count",
    "g_evals": "count",
    "iterations": "count",
    "converged": "bool",
    "gap": "mse",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "ingestion.parse_s": "s",
        "ingestion.parse_calls": "count",
        "ingestion.rows_parsed": "count",
        "ingestion.truth_s": "s",
        "ingestion.assemble_s": "s",
        "ingestion.normalise_s": "s",
    }
    for name in ("value", "gradient", "value_batch"):
        units[f"fusion.{name}_us"] = "us"
        units[f"fusion.{name}_us_p99"] = "us"
    for name in ("value", "gradient", "value_batch"):
        units[f"fusion.{name}_calls"] = "count"
    units.update({"fusion.batch_points": "count", "fusion.busy_s": "s", "fusion.fuse_s": "s"})
    for method in inputs.ALL_METHODS:
        for metric, unit in METHOD_METRICS.items():
            units[f"optimizers.{method}.{metric}"] = unit
    units.update({"evaluation.map_at_k_s": "s", "evaluation.rows": "count"})
    for method in inputs.ALL_METHODS:
        units[f"evaluation.map_at_{K}.{method}"] = "ratio"
    units.update({"cli.import_s": "s", "cli.write_s": "s", "cli.self_s": "s", "cli.trace_overhead_s": "s"})
    return units


PER_LAYER_UNITS = per_layer_units()


# ---------------------------------------------------------------- processes


@dataclass
class Invocation:
    traced: bool
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    problems: list[str] = field(default_factory=list)
    snapshot: dict[str, bytes] = field(default_factory=dict)
    methods: dict[str, dict] = field(default_factory=dict)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """The launcher.py process, which starts every child (see there why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.env = child_env()

    def run(self, cmd: list[str], log: Path, timeout: float) -> dict:
        """Exit code, wall s, user+sys CPU s and peak RSS MB of one child."""
        request = {"cmd": cmd, "env": self.env, "cwd": str(ROOT), "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process exited early")
        return json.loads(answer)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- checks


@dataclass
class Reference:
    """What the benchmark knows independently of the program."""

    inputs: inputs.Inputs
    dev_matrix: np.ndarray
    optimum: float
    crosscheck: str


def build_reference(data: inputs.Inputs) -> tuple[Reference, list[str]]:
    raw = data.dev.scores
    a = reference.normalise(raw, raw.min(axis=0), raw.max(axis=0))
    y = data.dev.labels
    optimum = reference.residual_mse(a, y, reference.bvls(a, y))
    problems = []
    other = reference.scipy_bvls(a, y)
    if other is None:
        crosscheck = "skipped (scipy does not import)"
    else:
        f_other = reference.residual_mse(a, y, other)
        crosscheck = f"scipy lsq_linear(bvls) optimum {f_other!r}"
        if optimum > f_other * (1 + MSE_RTOL):
            problems.append(f"exact optimum {optimum!r} is above scipy's {f_other!r}")
    return Reference(data, a, optimum, crosscheck), problems


def _strip_wall_time(name: str, data: bytes) -> bytes:
    text = data.decode("utf-8")
    if name.endswith(".json"):
        rows = json.loads(text)
        for row in rows:
            row.pop(EXCLUDED_FIELD, None)
        return json.dumps(rows, sort_keys=True).encode()
    rows = list(csv.reader(io.StringIO(text)))
    drop = rows[0].index(EXCLUDED_FIELD) if rows and EXCLUDED_FIELD in rows[0] else None
    kept = [[c for i, c in enumerate(row) if i != drop] for row in rows]
    return "\n".join(",".join(row) for row in kept).encode()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= MSE_RTOL * max(abs(a), abs(b), 1e-300)


def check_artifacts(out: Path, workload: inputs.Workload, ref: Reference, inv: Invocation) -> None:
    """Fill inv.snapshot and inv.methods from the artifacts; record every problem."""
    compare = workload.argv[0] == "compare"
    dirs = {m: out / m for m in workload.methods} if compare else {workload.methods[0]: out}
    docs: dict[str, object] = {}
    files = [(d / name, f"{m}/{name}") for m, d in dirs.items() for name in RUN_ARTIFACTS]
    if compare:
        files += [(out / name, name) for name in SUMMARY_ARTIFACTS]
    for path, label in files:
        try:
            data = path.read_bytes()
            text = data.decode("utf-8")
            docs[label] = json.loads(text) if label.endswith(".json") else list(csv.reader(io.StringIO(text)))
        except (OSError, ValueError) as exc:
            inv.problems.append(f"artifact {label}: {exc}")
            continue
        inv.snapshot[label] = _strip_wall_time(label, data) if label in SUMMARY_ARTIFACTS else data
    if inv.problems:
        return

    m = len(ref.inputs.inducer_names)
    summary = {row["method"]: row for row in docs["summary.json"]} if compare else {}
    for method in dirs:
        try:
            weights = np.asarray(docs[f"{method}/weights.json"]["weights"], dtype=np.float64)
            report = docs[f"{method}/optimizer_report.json"]
            map_k = float(docs[f"{method}/eval_report.json"]["map_at_k"])
            dev_mse = float(report["best_objective"])
            counts = {
                "f_evals": int(report["function_evaluations"]),
                "g_evals": int(report["gradient_evaluations"]),
                "iterations": int(report["iterations"]),
            }
        except (KeyError, TypeError, ValueError) as exc:
            inv.problems.append(f"{method}: artifact field missing or malformed: {exc!r}")
            continue
        if weights.shape != (m,) or not np.all((weights >= 0.0) & (weights <= 1.0)):
            inv.problems.append(f"{method}: weights outside [0,1]^{m} or of wrong length")
            continue
        fresh = reference.residual_mse(ref.dev_matrix, ref.inputs.dev.labels, weights)
        if not _close(dev_mse, fresh):
            inv.problems.append(f"{method}: dev_mse {dev_mse!r} but the saved weights give {fresh!r}")
        if compare and not _close(float(summary.get(method, {}).get("dev_mse", math.nan)), fresh):
            inv.problems.append(f"{method}: summary dev_mse disagrees with the saved weights")
        gap = dev_mse - ref.optimum
        inv.methods[method] = {
            **counts,
            "gap": 0.0 if abs(gap) < GAP_ZERO else gap,
            "map": map_k,
        }


def check_trace(inv: Invocation, trace_path: Path) -> None:
    try:
        inv.trace = json.loads(trace_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        inv.problems.append(f"trace file unreadable: {exc}")
        return
    for method, found in inv.methods.items():
        traced = inv.trace["methods"].get(method)
        if traced is None:
            inv.problems.append(f"{method}: the traced run saw no optimize call")
            continue
        for key in ("f_evals", "g_evals", "iterations"):
            if traced[key] is not None and traced[key] != found[key]:
                inv.problems.append(
                    f"{method}: traced {key} {traced[key]} != optimizer_report.json {found[key]}"
                )


# ---------------------------------------------------------------- one run


def cli_seeds(seed: int, trace: bool) -> list[int]:
    """The CLI --seed values a run cycles through, in order."""
    first = seed * SEED_POOL
    return [first] if trace else list(range(first, first + SEED_POOL))


class Runner:
    def __init__(self, workload: inputs.Workload, seeds: list[int], launcher: Launcher) -> None:
        self.workload = workload
        self.launcher = launcher
        self.seeds = seeds
        self.data_dir = WORK / "data"
        self.out = WORK / "out"
        self.reference_snapshots: dict[int, dict[str, bytes]] = {}  # CLI seed -> first artifacts
        self.repeats_checked = 0
        self.ref: Reference | None = None
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def cli_args(self, cli_seed: int) -> list[str]:
        data = self.ref.inputs
        return [
            *self.workload.argv,
            "--dev", str(data.dev.directory),
            "--test", str(data.test.directory),
            "--truth", *(str(p) for p in data.truth_paths),
            "--out", str(self.out),
            "--seed", str(cli_seed),
        ]

    def invoke(self, traced: bool, cli_seed: int) -> Invocation:
        inv = Invocation(traced)
        shutil.rmtree(self.out, ignore_errors=True)
        trace_path = WORK / "trace.json"
        trace_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "traced.py"), str(trace_path), *self.cli_args(cli_seed)]
        else:
            cmd = [sys.executable, "-m", "latefuse", *self.cli_args(cli_seed)]
        timeout = max(1.0, self.deadline - time.monotonic())
        used = self.launcher.run(cmd, WORK / "child.log", timeout)
        inv.wall_s, inv.cpu_s, inv.peak_rss_mb = used["wall_s"], used["cpu_s"], used["peak_rss_mb"]
        if used["code"] != 0:
            tail = (WORK / "child.log").read_text(encoding="utf-8", errors="replace")[-400:]
            inv.problems.append(f"exit code {used['code']}: {tail.strip()}")
            return inv
        check_artifacts(self.out, self.workload, self.ref, inv)
        earlier = self.reference_snapshots.setdefault(cli_seed, inv.snapshot)
        if earlier is not inv.snapshot:
            self.repeats_checked += 1
            differ = sorted(
                k for k in set(inv.snapshot) | set(earlier) if inv.snapshot.get(k) != earlier.get(k)
            )
            if differ:
                inv.problems.append(f"artifacts differ from an earlier invocation with --seed {cli_seed}: {differ}")
        if traced and not inv.problems:
            check_trace(inv, trace_path)
        return inv

    def setup(self) -> tuple[list[float], list[float], list[Invocation], list[str]]:
        """Set up SETUP_REPEATS times: inputs, then a warm-up invocation on them."""
        gen_times, warm_ups, problems = [], [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.data_dir, ignore_errors=True)
            started = time.perf_counter()
            data = inputs.generate(self.workload, self.data_dir)
            gen_times.append(time.perf_counter() - started)
            if self.ref is None:  # the exact optimum is the benchmark's own work: untimed
                self.ref, problems = build_reference(data)
            elif data.digest != self.ref.inputs.digest:
                problems.append(f"inputs regenerated with another digest: {data.digest}")
            warm_ups.append(self.invoke(False, self.seeds[0]))
        return gen_times, [inv.wall_s for inv in warm_ups], warm_ups, problems

    def measure(self, seconds: float, trace: bool) -> list[Invocation]:
        invocations: list[Invocation] = []
        started = time.monotonic()
        rounds = 0
        while True:
            cli_seed = self.seeds[rounds % len(self.seeds)]
            for traced in ((False, True) if trace else (False,)):
                invocations.append(self.invoke(traced, cli_seed))
            elapsed = time.monotonic() - started
            rounds += 1
            if elapsed * (rounds + 1) / rounds > seconds or time.monotonic() > self.deadline:
                return invocations


def end_to_end(setup_s: float, measured: list[Invocation], warm_ups: list[Invocation], attempted: int, failed: int) -> dict:
    untraced = [inv for inv in measured if not inv.traced]
    good = [inv for inv in untraced if inv.ok] or untraced  # all failed: still report numbers
    gaps = [
        d["gap"] for inv in [*warm_ups, *measured] if inv.ok for m, d in inv.methods.items() if m != "equal"
    ]
    return {
        "wall_s": statistics.median(inv.wall_s for inv in good),
        "cpu_s": statistics.median(inv.cpu_s for inv in good),
        "peak_rss_mb": statistics.median(inv.peak_rss_mb for inv in good),
        "setup_s": setup_s,
        "optimality_gap_max": max(gaps) if gaps else math.nan,
        "failure_rate": failed / attempted,
    }


def hooks_for(name: str) -> set[str]:
    """The hooks (see traced.py) a per-layer metric is measured through."""
    ingestion = "latefuse.ingestion."
    objective = {"latefuse.fusion.make_mse_objective"}
    layer, _, rest = name.partition(".")
    if layer == "ingestion":
        stage = rest.split("_")[0]
        return {
            "parse": {ingestion + "read_inducer_csv"},
            "rows": {ingestion + "read_inducer_csv", "ingestion.rows"},
            "truth": {ingestion + "load_ground_truth"},
            "assemble": {ingestion + "assemble"},
            "normalise": {ingestion + "fit_minmax", ingestion + "apply_minmax"},
        }[stage]
    if layer == "fusion":
        if rest == "fuse_s":
            return {"latefuse.fusion.fuse"}
        if rest == "busy_s":
            return objective
        if rest == "batch_points" or rest.startswith("value_batch"):
            return objective | {"objective.value_batch"}
        return objective | {"objective." + rest.split("_")[0]}
    if layer == "optimizers":
        metric = rest.rsplit(".", 1)[1]
        needs = {"latefuse.optimizers.optimize"}
        if metric in ("self_s", "f_evals"):
            needs |= objective | {"objective.value"}
        if metric == "g_evals":
            needs |= objective | {"objective.gradient"}
        return needs
    if layer == "evaluation":
        return set() if rest.startswith(f"map_at_{K}.") else {"latefuse.evaluation.map_at_k"}
    if rest == "write_s":
        return {"latefuse.cli._atomic"}
    return set()


SELF_TIME_SPANS = (
    "ingestion.parse", "ingestion.truth", "ingestion.assemble", "ingestion.normalise",
    "fusion.fuse", "optimizers.optimize", "evaluation.map_at_k", "cli.write",
)
EXACT_UNITS = ("count", "bool", "mse", "ratio")  # must repeat exactly between invocations


def layer_values(inv: Invocation) -> dict[str, float]:
    """Every per-layer metric one traced invocation measured; lost hooks leave gaps."""
    t = inv.trace
    gone = set(t["missing"])
    busy, calls, obj = t["busy_s"], t["calls"], t["objective_us"]
    v: dict[str, float] = {
        "ingestion.parse_s": busy.get("ingestion.parse", 0.0),
        "ingestion.parse_calls": calls.get("ingestion.parse", 0),
        "ingestion.rows_parsed": t["rows_parsed"],
        "ingestion.truth_s": busy.get("ingestion.truth", 0.0),
        "ingestion.assemble_s": busy.get("ingestion.assemble", 0.0),
        "ingestion.normalise_s": busy.get("ingestion.normalise", 0.0),
        "fusion.batch_points": t["batch_points"],
        "fusion.busy_s": t["objective_busy_s"],
        "fusion.fuse_s": busy.get("fusion.fuse", 0.0),
        "evaluation.map_at_k_s": busy.get("evaluation.map_at_k", 0.0),
        "evaluation.rows": t["rows_evaluated"],
        "cli.import_s": t["import_s"],
        "cli.write_s": busy.get("cli.write", 0.0),
        "cli.self_s": inv.wall_s - t["import_s"] - sum(busy.get(k, 0.0) for k in SELF_TIME_SPANS),
    }
    for name in ("value", "gradient", "value_batch"):
        v[f"fusion.{name}_us"] = obj[name]["median"]
        v[f"fusion.{name}_us_p99"] = obj[name]["p99"]
        v[f"fusion.{name}_calls"] = obj[name]["calls"]
    for method in inputs.ALL_METHODS:
        # a method the workload does not run did no work: every figure reads 0
        traced = t["methods"].get(method, {})
        found = inv.methods.get(method, {})
        for metric in METHOD_METRICS:
            value = found.get("gap", 0) if metric == "gap" else traced.get(metric, 0)
            if value is None:  # the report no longer has this field
                gone.add(f"report.{metric}")
                continue
            v[f"optimizers.{method}.{metric}"] = int(value) if metric == "converged" else value
        v[f"evaluation.map_at_{K}.{method}"] = found.get("map", 0)
    kept = {name: value for name, value in v.items() if not hooks_for(name) & gone}
    if any(hook.startswith("latefuse.") for hook in gone):
        del kept["cli.self_s"]  # the time of the lost span would land in it
    return kept


def per_layer(measured: list[Invocation]) -> dict[str, float]:
    """Medians over the traced invocations; exact figures must repeat exactly."""
    traced = [inv for inv in measured if inv.traced and inv.ok]
    untraced = [inv for inv in measured if not inv.traced and inv.ok]
    samples: dict[str, list[float]] = {}
    first = None
    for inv in traced:
        values = layer_values(inv)
        exact = {k: x for k, x in values.items() if PER_LAYER_UNITS[k] in EXACT_UNITS}
        if first is None:
            first = exact
        elif exact != first:
            changed = sorted(k for k in exact if exact[k] != first.get(k))
            inv.problems.append(f"traced figures did not repeat exactly: {changed}")
            continue
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics = {
        name: values[0] if PER_LAYER_UNITS[name] in EXACT_UNITS else statistics.median(values)
        for name, values in samples.items()
    }
    if traced and untraced:
        metrics["cli.trace_overhead_s"] = (
            statistics.median(i.wall_s for i in traced) - statistics.median(i.wall_s for i in untraced)
        )
    return metrics


# ---------------------------------------------------------------- report


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, asked through ctypes; None if unavailable."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(workload: inputs.Workload, seed: int, seeds: list[int], data: inputs.Inputs) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in thread_vars},
        "git_commit": git_commit(),
        "seed": seed,
        "cli_seeds": seeds,
        "data_seed": inputs.DATA_SEED,
        "input_sha256": data.digest,
        "workload": workload.name,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(workload: inputs.Workload, seed: int, seconds: float, trace: bool) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        with Launcher() as launcher:
            runner = Runner(workload, cli_seeds(seed, trace), launcher)
            gen_times, warm_times, warm_ups, problems = runner.setup()
            measured = runner.measure(seconds, trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    layers = per_layer(measured) if trace else {}
    everything = [*warm_ups, *measured]
    setup_s = statistics.median(g + w for g, w in zip(gen_times, warm_times))
    failed = sum(not inv.ok for inv in everything)
    e2e = end_to_end(setup_s, measured, warm_ups, len(everything), failed)
    untraced = sum(inv.ok and not inv.traced for inv in measured)

    data = runner.ref.inputs
    d, t = workload.dev, workload.test
    print(f"perfbench workload={workload.name} seed={seed} trace={int(trace)} seconds={seconds:g}")
    print("env " + json.dumps(environment(workload, seed, runner.seeds, data), sort_keys=True))
    seeds = ",".join(map(str, runner.seeds))
    print(f"invocation: latefuse {' '.join(workload.argv)} --seed {{{seeds}}} in turn; dev {d.samples}x{workload.inducers}"
          f" ({d.videos} videos), test {t.samples}x{workload.inducers} ({t.videos} videos)")
    print(f"exact optimum (dev MSE, BVLS) {runner.ref.optimum!r}; cross-check: {runner.ref.crosscheck}")
    print(f"set-up: median of {SETUP_REPEATS}, each inputs + one warm-up invocation: "
          + ", ".join(f"{g:.4f} + {w:.4f} s" for g, w in zip(gen_times, warm_times)))
    print(f"invocations: {len(everything)} attempted ({len(warm_ups)} warm-up, {len(measured)} measured), {failed} failed;"
          f" {runner.repeats_checked} compared byte for byte with an earlier one of the same --seed")
    walls = sorted(inv.wall_s for inv in measured if inv.ok and not inv.traced)
    print("untraced wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"end-to-end (timings: median of {untraced} untraced invocations):")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<40} {_fmt(e2e[name]):>14} {unit}")
    if trace:
        traced = sum(inv.ok and inv.traced for inv in measured)
        print(f"per-layer (timings: median of {traced} traced invocations; counts repeat exactly):")
        for name, unit in PER_LAYER_UNITS.items():
            shown = _fmt(layers[name]) if name in layers else "missing"
            print(f"  {name:<40} {shown:>14} {unit}")
    for number, inv in enumerate(everything):
        for problem in inv.problems:
            print(f"FAIL invocation {number}{' (traced)' if inv.traced else ''}: {problem}")
    for problem in problems:
        print(f"FAIL reference: {problem}")

    if trace:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items() if name in layers}
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name not in UNBOUNDED_END_TO_END
        }
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latefuse" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run it from a full checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(inputs.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in inputs.WORKLOADS.values():
        for trace in (False, True):
            result = run_one(workload, args.seed, args.seconds, trace)
            print()
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload.name}.{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
