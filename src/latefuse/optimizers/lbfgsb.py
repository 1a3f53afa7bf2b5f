"""Limited-memory BFGS on the free variables, with box projection and Armijo backtracking."""

from __future__ import annotations

from collections import deque

import numpy as np

from ..fusion import Objective
from .common import (
    LINE_SEARCH_SETTINGS,
    OptimizerConfig,
    OptimizerReport,
    Search,
    Setting,
    equal_start,
    free_set,
    projected_backtracking,
    projected_gradient_norm,
)

SETTINGS = {"history": Setting(int, 10, 1, 1000), **LINE_SEARCH_SETTINGS}


def _two_loop(g: np.ndarray, pairs: deque, free: np.ndarray) -> np.ndarray:
    """Implicit product of the inverse-Hessian approximation with g, on the free variables.

    The stored pairs are restricted to the free coordinates; a pair whose
    restricted curvature s_F.y_F is not positive is skipped.  Fixed
    coordinates get a zero entry.
    """
    q = g[free]
    used = []  # newest first
    for s, y in reversed(pairs):
        s_f, y_f = s[free], y[free]
        sy = float(s_f @ y_f)
        if sy > 0.0:
            used.append((s_f, y_f, sy))
    alphas = []
    for s_f, y_f, sy in used:
        a = float(s_f @ q) / sy
        q -= a * y_f
        alphas.append(a)
    if used:
        s_f, y_f, sy = used[0]
        q *= sy / float(y_f @ y_f)
    for (s_f, y_f, sy), a in zip(reversed(used), reversed(alphas)):
        b = float(y_f @ q) / sy
        q += (a - b) * s_f
    product = np.zeros_like(g)
    product[free] = q
    return product


def optimize_lbfgsb(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    history = p["history"]
    c = float(p["armijo_c"])
    max_backtracks = p["max_backtracks"]
    lo, hi = config.lower_bound, config.upper_bound

    search = Search(objective, config)
    x = equal_start(config)
    f = search.value(x)
    g = search.gradient(x)
    pairs: deque = deque(maxlen=history)

    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        if projected_gradient_norm(x, g, lo, hi) <= config.tolerance:
            converged = True
            iterations = it - 1
            break

        # Kim, Sra & Dhillon's projected quasi-Newton step: variables held on a
        # bound by the gradient do not move, the rest take the two-loop step.
        free = free_set(x, g, lo, hi)
        steepest = np.where(free, -g, 0.0)
        direction = -_two_loop(g, pairs, free)
        if float(g @ direction) >= 0.0:
            pairs.clear()
            direction = steepest

        result = projected_backtracking(
            search, x, f, g, direction, lo, hi, c=c, max_backtracks=max_backtracks
        )
        if result is None and pairs:
            pairs.clear()
            result = projected_backtracking(
                search, x, f, g, steepest, lo, hi, c=c, max_backtracks=max_backtracks
            )
        if result is None:
            break

        trial, f_trial = result
        g_trial = search.gradient(trial)
        s = trial - x
        y = g_trial - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y))
        x, f, g = trial, f_trial, g_trial
        search.consider(x, it)

    return search.report(iterations, converged)
