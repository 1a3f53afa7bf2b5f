"""Truncated Newton: conjugate-gradient inner solves with active-bound freezing.

Hessian-vector products come from a forward difference of the gradient, so
the method needs only first-order information from the objective.
"""

from __future__ import annotations

import math

import numpy as np

from ..fusion import Objective
from .common import (
    LINE_SEARCH_SETTINGS,
    OptimizerConfig,
    OptimizerReport,
    Search,
    equal_start,
    free_set,
    projected_backtracking,
    projected_gradient_norm,
)

SETTINGS = LINE_SEARCH_SETTINGS

_SQRT_EPS = math.sqrt(np.finfo(np.float64).eps)


def _truncated_cg(hessvec, b: np.ndarray, max_inner: int) -> np.ndarray:
    """Approximately solve H d = b; bail out on negative curvature."""
    d = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    b_norm = math.sqrt(rs)
    if b_norm == 0.0:
        return d
    threshold = min(0.5, math.sqrt(b_norm)) * b_norm
    direction = r.copy()
    for i in range(max_inner):
        h_dir = hessvec(direction)
        curvature = float(direction @ h_dir)
        if curvature <= 1e-16 * float(direction @ direction):
            return b.copy() if i == 0 else d
        alpha = rs / curvature
        d += alpha * direction
        r -= alpha * h_dir
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= threshold:
            break
        direction = r + (rs_new / rs) * direction
        rs = rs_new
    return d


def optimize_tnc(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    c = float(p["armijo_c"])
    max_backtracks = p["max_backtracks"]
    lo, hi, m = config.lower_bound, config.upper_bound, config.dimension
    max_inner = min(2 * m, 50)

    search = Search(objective, config)
    x = equal_start(config)
    f = search.value(x)
    g = search.gradient(x)

    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        if projected_gradient_norm(x, g, lo, hi) <= config.tolerance:
            converged = True
            iterations = it - 1
            break

        free = free_set(x, g, lo, hi)  # not empty: with no free variable the norm above is 0
        fd_step = _SQRT_EPS * (1.0 + float(np.linalg.norm(x)))

        def hessvec(v_free: np.ndarray) -> np.ndarray:
            full = np.zeros(m)
            full[free] = v_free
            norm = float(np.linalg.norm(full))
            if norm == 0.0:
                return np.zeros_like(v_free)
            g_shift = search.gradient(x + fd_step * (full / norm))
            return ((g_shift - g) * (norm / fd_step))[free]

        steepest = np.zeros(m)
        steepest[free] = -g[free]
        direction = np.zeros(m)
        direction[free] = _truncated_cg(hessvec, -g[free], max_inner)
        if float(g @ direction) >= 0.0:
            direction = steepest

        result = projected_backtracking(
            search, x, f, g, direction, lo, hi, c=c, max_backtracks=max_backtracks
        )
        if result is None and direction is not steepest:
            result = projected_backtracking(
                search, x, f, g, steepest, lo, hi, c=c, max_backtracks=max_backtracks
            )
        if result is None:
            break

        trial, f_trial = result
        x, f = trial, f_trial
        g = search.gradient(x)
        search.consider(x, it)

    return search.report(iterations, converged)
