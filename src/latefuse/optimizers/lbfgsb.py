"""Limited-memory BFGS with box projection and Armijo backtracking."""

from __future__ import annotations

from collections import deque

import numpy as np

from ..fusion import Objective
from .common import (
    LINE_SEARCH_SETTINGS,
    CountingObjective,
    Incumbent,
    OptimizerConfig,
    OptimizerReport,
    Setting,
    equal_start,
    make_report,
    projected_backtracking,
    projected_gradient_norm,
)

SETTINGS = {"history": Setting(int, 10, 1, 1000), **LINE_SEARCH_SETTINGS}


def _two_loop(g: np.ndarray, pairs: deque) -> np.ndarray:
    """Implicit product of the inverse-Hessian approximation with g."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s_last, y_last, _ = pairs[-1]
    q *= float(s_last @ y_last) / float(y_last @ y_last)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def optimize_lbfgsb(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    history = p["history"]
    c = float(p["armijo_c"])
    max_backtracks = p["max_backtracks"]
    lo, hi = config.lower_bound, config.upper_bound

    counting = CountingObjective(objective)
    incumbent = Incumbent(counting)
    x = equal_start(config)
    f = counting.value(x)
    g = counting.gradient(x)
    incumbent.consider(x, 0, value=f)
    pairs: deque = deque(maxlen=history)

    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        if projected_gradient_norm(x, g, lo, hi) <= config.tolerance:
            converged = True
            iterations = it - 1
            break

        if pairs:
            direction = -_two_loop(g, pairs)
            if float(g @ direction) >= 0.0:
                pairs.clear()
                direction = -g
        else:
            direction = -g

        result = projected_backtracking(
            counting, x, f, g, direction, lo, hi, c=c, max_backtracks=max_backtracks
        )
        if result is None and pairs:
            pairs.clear()
            result = projected_backtracking(
                counting, x, f, g, -g, lo, hi, c=c, max_backtracks=max_backtracks
            )
        if result is None:
            break

        trial, f_trial = result
        g_trial = counting.gradient(trial)
        s = trial - x
        y = g_trial - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y, 1.0 / sy))
        x, f, g = trial, f_trial, g_trial
        incumbent.consider(x, it, value=f)

    return make_report("lbfgsb", config, incumbent, counting, iterations, converged)
