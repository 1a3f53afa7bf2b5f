"""End-to-end gate for the whole pipeline.

Ten numbered checks, each printing one PASS/FAIL line (run with -s to see
them on success).  Every check states its own tolerance and time budget
inline; none of them may be loosened to make a red run green.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from latefuse.cli import compare
from latefuse.evaluation import map_at_k
from latefuse.fusion import equal_weights, fuse, make_mse_objective, mse
from latefuse.ingestion import ScoreMatrix, assemble
from latefuse.optimizers import METHODS, optimize
from latefuse.synth import SynthSpec, generate
from oracles import (
    ap_oracle,
    build_tables,
    grid_oracle,
    planted_score_matrix,
    random_score_matrix,
    small_disk_pair,
)

SEARCH_METHODS = ("pso", "ga", "nelder-mead", "trust-region", "lbfgsb", "tnc")

PLANTED_W = np.array([0.9, 0.1, 0.5, 0.7, 0.3])


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def small_budget(method: str) -> dict:
    return {
        "pso": {"swarm_size": 40, "stagnation_window": 20},
        "ga": {"population_size": 30, "stagnation_window": 20, "max_generations": 100},
    }.get(method, {})


@pytest.fixture(scope="module")
def disk_pair(tmp_path_factory):
    """Small on-disk dev/test dataset pair shared by the subprocess checks."""
    return small_disk_pair(tmp_path_factory.mktemp("data"))


def test_01_gradient_matches_central_differences():
    budget = 5.0
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(1, 30))
        matrix = random_score_matrix(n, m, seed=int(rng.integers(0, 2**31)))
        objective = make_mse_objective(matrix)
        x = rng.uniform(0.0, 1.0, size=m)
        analytic = objective.gradient(x)
        h = 1e-6
        for j in range(m):
            step = np.zeros(m)
            step[j] = h
            fd = (objective.value(x + step) - objective.value(x - step)) / (2 * h)
            worst = max(worst, abs(analytic[j] - fd))
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        worst <= 1e-6 and elapsed < budget,
        f"analytic gradient vs central differences on 100 instances: "
        f"max_abs_err={worst:.3e} (<=1e-6), {elapsed:.2f}s (<{budget:.0f}s)",
    )


def test_02_deterministic_methods_converge_on_planted_data():
    budget = 30.0
    matrix = planted_score_matrix(500, 5, PLANTED_W, seed=7)
    objective = make_mse_objective(matrix)
    tolerances = {"trust-region": 1e-6, "lbfgsb": 1e-6, "tnc": 1e-6, "nelder-mead": 1e-3}
    started = time.perf_counter()
    reached = {}
    for method, tol in tolerances.items():
        report = optimize(method, objective, seed=0)
        reached[method] = (report.best_objective, report.best_objective <= tol, report.iterations)
    elapsed = time.perf_counter() - started
    ok = all(hit for _, hit, _ in reached.values()) and elapsed < budget
    detail = ", ".join(f"{m}={v:.2e}" for m, (v, _, _) in reached.items())
    _criterion(2, ok, f"planted 500x5 minima: {detail}; {elapsed:.2f}s (<{budget:.0f}s)")


def test_03_stochastic_methods_converge_for_most_seeds():
    budget = 120.0
    matrix = planted_score_matrix(500, 5, PLANTED_W, seed=7)
    objective = make_mse_objective(matrix)
    started = time.perf_counter()
    hits = {}
    for method in ("pso", "ga"):
        wins = 0
        for seed in range(10):
            report = optimize(method, objective, seed=seed)
            if report.best_objective <= 1e-3:
                wins += 1
        hits[method] = wins
    elapsed = time.perf_counter() - started
    ok = all(w >= 9 for w in hits.values()) and elapsed < budget
    _criterion(
        3,
        ok,
        f"stochastic seeds reaching 1e-3 on planted 500x5: pso={hits['pso']}/10, "
        f"ga={hits['ga']}/10 (>=9 each); {elapsed:.2f}s (<{budget:.0f}s)",
    )


def test_04_search_methods_dominate_coarse_grid():
    budget = 60.0
    started = time.perf_counter()
    worst_gap = -np.inf
    ok = True
    for seed in (31, 32):
        matrix = random_score_matrix(150, 3, seed=seed)
        objective = make_mse_objective(matrix)
        grid = grid_oracle(matrix, step=0.05)
        for method in SEARCH_METHODS:
            report = optimize(method, objective, seed=0)
            gap = report.best_objective - grid.objective
            worst_gap = max(worst_gap, gap)
            ok = ok and report.best_objective <= grid.objective + 1e-9
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < budget
    _criterion(
        4,
        ok,
        f"all six search methods vs 0.05-step grid at m=3: worst gap={worst_gap:.3e} "
        f"(<=1e-9); {elapsed:.2f}s (<{budget:.0f}s)",
    )


def test_05_every_search_method_ties_or_beats_equal_weights():
    rng = np.random.default_rng(505)
    failures = []
    for i in range(20):
        n = int(rng.integers(40, 121))
        m = int(rng.integers(2, 13))
        matrix = random_score_matrix(n, m, seed=i)
        equal_mse = mse(equal_weights(m), matrix)
        objective = make_mse_objective(matrix)
        for method in SEARCH_METHODS:
            report = optimize(method, objective, small_budget(method), seed=i)
            if not report.best_objective <= equal_mse:
                failures.append((i, method, report.best_objective, equal_mse))
    _criterion(
        5,
        not failures,
        f"optimized dev MSE <= equal-weights dev MSE on 20 datasets x 6 methods: "
        f"{120 - len(failures)}/120 hold" + (f"; first failure {failures[0]}" if failures else ""),
    )


def test_06_average_precision_matches_definitional_oracle():
    budget = 5.0
    started = time.perf_counter()
    cases = 0
    mismatches = 0
    for length in range(1, 11):
        # one video per pattern, its items ranked in the pattern's order by their scores
        patterns = list(itertools.product((0, 1), repeat=length))
        keys = [(f"v{v:04d}", f"i{pos:02d}") for v in range(len(patterns)) for pos in range(length)]
        labels = np.array(patterns, dtype=np.float64).ravel()
        matrix = ScoreMatrix(keys, labels, ["c0"], np.zeros((len(keys), 1)))
        fused = np.tile(np.arange(length, 0, -1, dtype=np.float64), len(patterns))
        for k in range(1, 13):
            per_group = map_at_k(fused, matrix, k).per_group
            for bits, (_, ap, _) in zip(patterns, per_group, strict=True):
                cases += 1
                if ap != ap_oracle(bits, k):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    _criterion(
        6,
        mismatches == 0 and elapsed < budget,
        f"AP equals the independent oracle on {cases} pattern/cutoff cases: "
        f"{mismatches} mismatches; {elapsed:.2f}s (<{budget:.0f}s)",
    )


def test_07_map_is_invariant_under_increasing_transforms():
    rng = np.random.default_rng(707)
    w_star = rng.uniform(0.1, 0.9, size=4).tolist()
    mismatches = 0
    for trial in range(100):
        spec = SynthSpec(60, 4, 6, seed=trial, planted_weights=w_star)
        tables, truth = build_tables(spec)
        matrix = assemble(tables, truth)
        fused = fuse(rng.uniform(0.0, 1.0, size=4), matrix)
        scale = float(rng.uniform(0.1, 50.0))
        shift = float(rng.uniform(-100.0, 100.0))
        base = map_at_k(fused, matrix, k=10)
        transformed = map_at_k(scale * fused + shift, matrix, k=10)
        if base.map_at_k != transformed.map_at_k or base.per_group != transformed.per_group:
            mismatches += 1
    _criterion(
        7,
        mismatches == 0,
        f"MAP@10 under 100 strictly increasing score transforms: {mismatches} changes (exact equality)",
    )


def _run_cli(dataset, out_dir, threads: str) -> dict:
    dev, test = dataset
    env = os.environ | {
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    }
    cmd = [
        sys.executable, "-m", "latefuse", "run",
        "--method", "pso", "--seed", "7",
        "--set", "swarm_size=60", "--set", "stagnation_window=25",
        "--dev", str(dev.inducer_paths[0].parent),
        "--test", str(test.inducer_paths[0].parent),
        "--truth", str(dev.truth_path), str(test.truth_path),
        "--out", str(out_dir),
    ]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = ["weights.json", "norm_params.json", "optimizer_report.json", "eval_report.json", "eval_report.csv"]
    return {name: (Path(out_dir) / name).read_bytes() for name in names}


def test_08_fixed_seed_runs_are_byte_identical(disk_pair, tmp_path):
    first = _run_cli(disk_pair, tmp_path / "a", threads="1")
    second = _run_cli(disk_pair, tmp_path / "b", threads="1")
    wide = _run_cli(disk_pair, tmp_path / "c", threads="4")
    reruns_equal = first == second
    threads_equal = first == wide
    _criterion(
        8,
        reruns_equal and threads_equal,
        f"fixed-seed artifacts byte-identical: rerun={reruns_equal}, 1-vs-4-threads={threads_equal}",
    )


def test_09_full_seven_method_compare_at_scale(tmp_path):
    budget = 600.0
    w_star = np.random.default_rng(909).uniform(0.05, 1.0, size=29).tolist()
    dev = generate(
        SynthSpec(1877, 29, 30, seed=0, planted_weights=w_star, noise_sigma=0.05, key_prefix="d"),
        tmp_path / "dev",
    )
    test = generate(
        SynthSpec(558, 29, 10, seed=1, planted_weights=w_star, noise_sigma=0.05, key_prefix="t"),
        tmp_path / "test",
    )
    started = time.perf_counter()
    results = compare(
        list(METHODS), [str(tmp_path / "dev")], [str(tmp_path / "test")],
        [str(dev.truth_path), str(test.truth_path)], tmp_path / "cmp",
    )
    elapsed = time.perf_counter() - started
    ok = len(results) == 7 and (tmp_path / "cmp" / "summary.csv").exists() and elapsed < budget
    _criterion(
        9,
        ok,
        f"seven-method compare on 1877x29 dev / 558x29 test with default budgets: "
        f"{elapsed:.1f}s (<{budget:.0f}s)",
    )


def test_10_fuzzed_runs_respect_bounds_and_trace_order():
    rng = np.random.default_rng(1010)
    methods = sorted(METHODS)
    bound_breaks = 0
    trace_breaks = 0
    for i in range(1000):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(10, 61))
        method = methods[int(rng.integers(0, len(methods)))]
        matrix = random_score_matrix(n, m, seed=int(rng.integers(0, 2**31)))
        params = {
            "pso": {"swarm_size": 12, "stagnation_window": 5},
            "ga": {"population_size": 12, "stagnation_window": 5, "max_generations": 20},
        }.get(method, {})
        seed = int(rng.integers(0, 2**31))
        settings = {**params, "max_iterations": int(rng.integers(1, 50))}
        report = optimize(method, make_mse_objective(matrix), settings, seed=seed)
        if not (np.all(report.best_weights >= 0.0) and np.all(report.best_weights <= 1.0)):
            bound_breaks += 1
        values = [f for _, f in report.trace]
        if any(b > a for a, b in zip(values, values[1:])):
            trace_breaks += 1
    _criterion(
        10,
        bound_breaks == 0 and trace_breaks == 0,
        f"1000 fuzzed runs (dims 1-29): bound violations={bound_breaks}, "
        f"non-monotone traces={trace_breaks}",
    )
