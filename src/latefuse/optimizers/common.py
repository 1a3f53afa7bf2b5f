"""Shared machinery for the weight-search methods: config, report, counting.

Every optimizer works on the closed box [lower_bound, upper_bound]^dimension,
tracks a canonical incumbent (best weights re-evaluated through the scalar
objective path, so the reported objective is bit-reproducible), and returns
an OptimizerReport with a non-increasing best-so-far trace.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from ..fusion import Objective


class NonFiniteObjectiveError(RuntimeError):
    """The objective or gradient returned NaN/inf; optimization must abort."""

    def __init__(self, point: np.ndarray, value, kind: str = "objective"):
        self.point = np.asarray(point, dtype=np.float64).copy()
        super().__init__(f"non-finite {kind} value {value!r} at point {self.point.tolist()}")


class ParameterError(ValueError):
    """An optimizer setting has the wrong type or lies out of its range."""


def _check_type(key: str, value, default) -> None:
    """Require an integer where the default is an int, and a finite real number otherwise."""
    integral = isinstance(default, int)
    wanted = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ParameterError(
            f"{key} must be {'an integer' if integral else 'a number'}, got {value!r}"
        )
    try:
        finite = integral or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ParameterError(f"{key} must be finite, got {value!r}")


@dataclass
class OptimizerConfig:
    dimension: int
    lower_bound: float = 0.0
    upper_bound: float = 1.0
    max_iterations: int = 10000
    tolerance: float = 1e-8
    seed: int = 0
    method_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.default is not MISSING:
                _check_type(f.name, getattr(self, f.name), f.default)
        if self.dimension < 1:
            raise ParameterError("dimension must be >= 1")
        if not self.lower_bound < self.upper_bound:
            raise ParameterError("lower_bound must be strictly below upper_bound")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ParameterError("tolerance must be > 0")

    @property
    def span(self) -> float:
        return self.upper_bound - self.lower_bound

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "max_iterations": self.max_iterations,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "method_params": dict(self.method_params),
        }


@dataclass
class OptimizerReport:
    method: str
    best_weights: np.ndarray
    best_objective: float
    function_evaluations: int
    gradient_evaluations: int
    iterations: int
    converged: bool
    trace: list[tuple[int, float]]
    seed: int
    config: OptimizerConfig

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "best_weights": [float(x) for x in self.best_weights],
            "best_objective": float(self.best_objective),
            "function_evaluations": self.function_evaluations,
            "gradient_evaluations": self.gradient_evaluations,
            "iterations": self.iterations,
            "converged": self.converged,
            "trace": [[it, f] for it, f in self.trace],
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    def save_trace_csv(self, path: str | Path) -> None:
        lines = ["iteration,best_objective"]
        for it, f in self.trace:
            lines.append(f"{it},{f!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


class CountingObjective:
    """Wraps an Objective with evaluation counters and finiteness checks."""

    def __init__(self, objective: Objective):
        self._objective = objective
        self.function_evaluations = 0
        self.gradient_evaluations = 0

    @property
    def has_gradient(self) -> bool:
        return self._objective.gradient is not None

    def value(self, x: np.ndarray) -> float:
        self.function_evaluations += 1
        v = float(self._objective.value(x))
        if not math.isfinite(v):
            raise NonFiniteObjectiveError(x, v)
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self._objective.gradient is None:
            raise ValueError("objective provides no gradient")
        self.gradient_evaluations += 1
        g = np.asarray(self._objective.gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjectiveError(x, g, kind="gradient")
        return g

    def value_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a (p, m) stack of points; counts p evaluations."""
        self.function_evaluations += len(xs)
        if self._objective.value_batch is not None:
            vals = np.asarray(self._objective.value_batch(xs), dtype=np.float64)
        else:
            vals = np.array([float(self._objective.value(x)) for x in xs])
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteObjectiveError(xs[bad], vals[bad])
        return vals


class Incumbent:
    """Best-so-far tracker; the stored objective always comes from the scalar path.

    Population methods evaluate candidates in batch, which may round
    differently from the scalar path; re-evaluating on improvement keeps the
    reported best_objective bit-equal to a fresh evaluation of best_weights.
    """

    def __init__(self, counting: CountingObjective):
        self._counting = counting
        self.best_x: np.ndarray | None = None
        self.best_f = math.inf
        self.trace: list[tuple[int, float]] = []

    def consider(self, x: np.ndarray, iteration: int, value: float | None = None) -> bool:
        if value is None and self.best_x is not None and np.array_equal(x, self.best_x):
            return False  # the incumbent itself: a re-score could not improve on it
        f = self._counting.value(x) if value is None else float(value)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=np.float64, copy=True)
            self.trace.append((iteration, f))
            return True
        return False


def equal_start(config: OptimizerConfig) -> np.ndarray:
    """The uniform 1/m starting point, projected into the box."""
    w = np.full(config.dimension, 1.0 / config.dimension)
    return np.clip(w, config.lower_bound, config.upper_bound)


def projected_gradient_norm(x: np.ndarray, g: np.ndarray, lo: float, hi: float) -> float:
    """Infinity norm of x - P(x - g); zero exactly at a box-constrained stationary point."""
    return float(np.max(np.abs(x - np.clip(x - g, lo, hi))))


def projected_backtracking(
    counting: CountingObjective,
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    lo: float,
    hi: float,
    c: float = 1e-4,
    max_backtracks: int = 60,
) -> tuple[np.ndarray, float] | None:
    """Armijo backtracking along the projected arc P(x + alpha * direction).

    Sufficient decrease is measured against the realized (projected) step.
    Returns None when no feasible decreasing step exists at any tried scale.
    """
    alpha = 1.0
    for _ in range(max_backtracks):
        trial = np.clip(x + alpha * direction, lo, hi)
        step = trial - x
        if not np.any(step):
            return None  # direction points entirely out of the box
        slope = float(g @ step)
        if slope < 0.0:
            f_trial = counting.value(trial)
            if f_trial <= f + c * slope:
                return trial, f_trial
        alpha *= 0.5
    return None


def resolve_params(config: OptimizerConfig, defaults: Mapping[str, float]) -> dict:
    """Merge method_params over defaults; unknown keys and mistyped values are an error."""
    params = dict(defaults)
    for key, value in config.method_params.items():
        if key not in defaults:
            raise ParameterError(
                f"unknown method parameter {key!r}; valid keys: {sorted(defaults)}"
            )
        _check_type(key, value, defaults[key])
        params[key] = value
    return params


def make_report(
    method: str,
    config: OptimizerConfig,
    incumbent: Incumbent,
    counting: CountingObjective,
    iterations: int,
    converged: bool,
) -> OptimizerReport:
    assert incumbent.best_x is not None, "optimizer finished without evaluating any point"
    w = incumbent.best_x
    assert np.all(w >= config.lower_bound) and np.all(w <= config.upper_bound), (
        "incumbent escaped the bounds"
    )
    return OptimizerReport(
        method=method,
        best_weights=w.copy(),
        best_objective=incumbent.best_f,
        function_evaluations=counting.function_evaluations,
        gradient_evaluations=counting.gradient_evaluations,
        iterations=iterations,
        converged=converged,
        trace=list(incumbent.trace),
        seed=config.seed,
        config=config,
    )
