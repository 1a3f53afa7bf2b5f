"""Shared machinery for the weight-search methods: settings, search state, search loops.

Every optimizer works on the closed box [0, 1]^m, the paper's weight range,
with m the objective's `dimension`, through the one `Search` that `optimize`
builds for its run: it counts the search's evaluations (calls of the
objective's `value`, `gradient` and `value_batch`), keeps a canonical
incumbent (best weights re-scored through the objective's `exact`, so the
reported objective is bit-reproducible) that starts at the equal weights,
the start point of every method, and builds the OptimizerReport, named after
the method, with its non-increasing best-so-far trace.

The gradient methods run in `descend`, the one projected-descent loop: it
stops at a box-stationary point, and each method supplies only its step on
the `free_set` variables; lbfgsb and tnc search along it with `line_search`.
The population methods, pso and ga, run in `evolve`, the one generation loop:
it seeds the population, offers each generation's best point to the incumbent
and stops after a stagnation window, and each method supplies only its step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ..fusion import Objective, equal_weights


class NonFiniteObjectiveError(RuntimeError):
    """The objective or gradient returned NaN/inf; optimization must abort."""

    def __init__(self, point: np.ndarray, value, kind: str = "objective"):
        self.point = np.asarray(point, dtype=np.float64).copy()
        super().__init__(f"non-finite {kind} value {value!r} at point {self.point.tolist()}")


class ParameterError(ValueError):
    """An optimizer setting has the wrong type or lies out of its range."""


class Setting(NamedTuple):
    """One optimizer setting: its type, its default and the interval it must lie in.

    A ``None`` default is derived from the dimension by the optimizer.  An end
    may name another setting, whose value then bounds this one.  ``interval``
    holds the brackets: "[" and "]" include an end, "(" and ")" exclude it.
    """

    type: type
    default: int | float | None
    low: float | str
    high: float | str
    interval: str = "[]"

    def describe(self) -> str:
        return f"{self.interval[0]}{self.low}, {self.high}{self.interval[1]}"

    def check(self, key: str, value, resolved: Mapping, given: bool = True) -> None:
        """Reject a value of the wrong type, a non-finite real or one outside the interval.

        The interval message says when the value is the default (``given``
        false) and gives the resolved value of each end that names a setting.
        """
        integral = self.type is int
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
        low, high = (resolved[end] if isinstance(end, str) else end for end in (self.low, self.high))
        above = low < value if self.interval[0] == "(" else low <= value
        below = value < high if self.interval[1] == ")" else value <= high
        if not (above and below):
            notes = [] if given else ["the default"]
            notes += [f"{end} is {resolved[end]!r}" for end in (self.low, self.high) if isinstance(end, str)]
            note = f" ({'; '.join(notes)})" if notes else ""
            raise ParameterError(f"{key} must be in {self.describe()}, got {value!r}{note}")


# The settings that every method takes, next to its own.
CONFIG_SETTINGS = {
    "max_iterations": Setting(int, 10000, 1, 10**7),
    "tolerance": Setting(float, 1e-8, 0, math.inf, "()"),
}

# The spec of a run's seed, which `optimize` takes next to the settings.
SEED = Setting(int, 0, 0, math.inf, "[)")


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
    settings: dict  # the run's resolved settings: each given value, else its default
    seed: int


class Search:
    """One run's search state: counted evaluations, the exact incumbent and its report.

    `value`, `gradient` and `value_batch` are the search's evaluations, each
    one call of the objective's attribute of that name, counted and checked
    finite; `function_evaluations` counts `value` calls plus the points of
    `value_batch` calls.  `exact` re-scores, made only
    for the incumbent, are not counted.

    `consider` re-scores a point that the search's own values say beats the
    incumbent and keeps it only on an exact improvement, so the reported
    best_objective and trace are bit-equal to a fresh exact evaluation of
    best_weights.  The equal start is considered at iteration 0, on
    construction, so no method reports worse than the equal weights.
    `method` names the report, `settings` are the run's resolved settings,
    which the method reads, `seed` seeds its random draws and `dimension`
    is the objective's m.
    """

    def __init__(self, objective: Objective, method: str, settings: dict, seed: int = 0):
        self._objective = objective
        self.method = method
        self.settings = settings
        self.seed = seed
        self.dimension = objective.dimension
        self.function_evaluations = 0
        self.gradient_evaluations = 0
        self.best_x = equal_weights(self.dimension)
        self.best_f = self.exact(self.best_x)
        self.trace: list[tuple[int, float]] = [(0, self.best_f)]

    def value(self, x: np.ndarray) -> float:
        self.function_evaluations += 1
        v = float(self._objective.value(x))
        if not math.isfinite(v):
            raise NonFiniteObjectiveError(x, v)
        return v

    def exact(self, x: np.ndarray) -> float:
        """The reference score of x, through the objective's `exact`."""
        v = float(self._objective.exact(x))
        if not math.isfinite(v):
            raise NonFiniteObjectiveError(x, v)
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self.gradient_evaluations += 1
        g = np.asarray(self._objective.gradient(x), dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise NonFiniteObjectiveError(x, g, kind="gradient")
        return g

    def value_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a (p, m) stack of points; counts p evaluations."""
        self.function_evaluations += len(xs)
        vals = np.asarray(self._objective.value_batch(xs), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteObjectiveError(xs[bad], vals[bad])
        return vals

    def consider(self, x: np.ndarray, iteration: int) -> bool:
        if np.array_equal(x, self.best_x):
            return False  # the incumbent itself: a re-score could not improve on it
        f = self.exact(x)
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=np.float64, copy=True)
            self.trace.append((iteration, f))
            return True
        return False

    def report(self, iterations: int, converged: bool) -> OptimizerReport:
        w = self.best_x
        assert np.all(w >= 0.0) and np.all(w <= 1.0), "incumbent escaped the box"
        return OptimizerReport(
            method=self.method,
            best_weights=w.copy(),
            best_objective=self.best_f,
            function_evaluations=self.function_evaluations,
            gradient_evaluations=self.gradient_evaluations,
            iterations=iterations,
            converged=converged,
            trace=list(self.trace),
            settings=self.settings,
            seed=self.seed,
        )


def projected_gradient_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Infinity norm of x - P(x - g); zero exactly at a box-constrained stationary point."""
    return float(np.max(np.abs(x - np.clip(x - g, 0.0, 1.0))))


def free_set(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Mask of the variables a descent step may move.

    Interior variables are free; a variable on a bound stays fixed unless the
    gradient pulls it back into the box.
    """
    return ((x > 0.0) & (x < 1.0)) | ((x <= 0.0) & (g < 0)) | ((x >= 1.0) & (g > 0))


# The Armijo line search's settings, shared by the methods that use it.
LINE_SEARCH_SETTINGS = {
    "armijo_c": Setting(float, 1e-4, 0, 1, "()"),
    "max_backtracks": Setting(int, 60, 1, 1000),
}


def line_search(
    search: Search,
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    direction: np.ndarray,
    steepest: np.ndarray,
) -> tuple[np.ndarray, float, bool] | None:
    """Armijo backtracking along the projected arc P(x + alpha * d).

    d is `direction` when it descends, then `steepest` when `direction` does
    not descend or finds no step; `direction is steepest` is tried once.
    Sufficient decrease is measured against the realized (projected) step,
    with the search's `LINE_SEARCH_SETTINGS`.
    Returns (trial, f_trial, fell_back), or None when neither finds a step.
    """
    p = search.settings
    c = float(p["armijo_c"])
    descends = direction is not steepest and float(g @ direction) < 0.0
    for d in (direction, steepest) if descends else (steepest,):
        alpha = 1.0
        for _ in range(p["max_backtracks"]):
            trial = np.clip(x + alpha * d, 0.0, 1.0)
            step = trial - x
            if not np.any(step):
                break  # d points entirely out of the box
            slope = float(g @ step)
            if slope < 0.0:
                f_trial = search.value(trial)
                if f_trial <= f + c * slope:
                    return trial, f_trial, d is not direction
            alpha *= 0.5
    return None


def descend(search: Search, step: Callable) -> OptimizerReport:
    """The gradient methods' projected-descent loop, from the equal weights.

    Each iteration calls step(x, f, g, free) with the `free_set` mask;
    it returns the next (x, f, g), the same x for a rejected trial, or None
    when it can make no progress.  The loop stops converged at a box-stationary
    point (projected-gradient infinity norm <= tolerance), and unconverged when
    `step` returns None or the iteration budget runs out.  Only a point that
    moved is offered to the incumbent.
    """
    max_iterations, tolerance = search.settings["max_iterations"], search.settings["tolerance"]
    x = search.best_x.copy()  # a copy: x must never alias the incumbent
    f = search.value(x)
    g = search.gradient(x)
    for it in range(1, max_iterations + 1):
        if projected_gradient_norm(x, g) <= tolerance:
            return search.report(it - 1, converged=True)
        taken = step(x, f, g, free_set(x, g))
        if taken is None:
            return search.report(it, converged=False)
        if taken[0] is not x:
            x, f, g = taken
            search.consider(x, it)
    return search.report(max_iterations, converged=False)


# The generation loop's settings, shared by the methods that use it; a stagnation window of 0 never stops early.
EVOLVE_SETTINGS = {"stagnation_window": Setting(int, 100, 0, 10**7)}


def evolve(search: Search, size: int, step: Callable) -> OptimizerReport:
    """The population methods' generation loop, from a seeded uniform population.

    Row 0 of the first population is the equal weights.  Each generation calls
    step(rng, population, values) and keeps the (population, values) it
    returns; their best point is offered to the incumbent when it beats it.  The
    loop stops converged after `stagnation_window` generations without a
    `tolerance` improvement (0: never), and unconverged after `max_iterations`.
    """
    p = search.settings
    generations, window, tolerance = p["max_iterations"], p["stagnation_window"], p["tolerance"]
    rng = np.random.default_rng(search.seed)
    population = rng.uniform(0.0, 1.0, size=(size, search.dimension))
    population[0] = search.best_x
    values = search.value_batch(population)
    search.consider(population[int(np.argmin(values))], 0)

    anchor = search.best_f
    since_improvement = 0
    for it in range(1, generations + 1):
        population, values = step(rng, population, values)
        b = int(np.argmin(values))
        if values[b] < search.best_f:
            search.consider(population[b], it)
        if anchor - search.best_f >= tolerance:
            anchor = search.best_f
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement == window:  # never, for a window of 0
                return search.report(it, converged=True)
    return search.report(generations, converged=False)
