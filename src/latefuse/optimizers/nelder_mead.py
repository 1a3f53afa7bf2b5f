"""Nelder-Mead simplex search with vertices clipped into the box."""

from __future__ import annotations

import numpy as np

from ..fusion import Objective
from .common import (
    CountingObjective,
    Incumbent,
    OptimizerConfig,
    OptimizerReport,
    Setting,
    equal_start,
    make_report,
)

SETTINGS = {
    "initial_step": Setting(float, 0.05, 0, 1, "(]"),  # a share of the box span
    "reflection": Setting(float, 1.0, 0, 10, "(]"),
    "expansion": Setting(float, 2.0, 1, 10, "(]"),
    "contraction": Setting(float, 0.5, 0, 1, "()"),
    "shrink": Setting(float, 0.5, 0, 1, "()"),
}


def _initial_simplex(x0: np.ndarray, step: float, lo: float, hi: float) -> np.ndarray:
    m = x0.size
    simplex = np.tile(x0, (m + 1, 1))
    for j in range(m):
        if x0[j] + step <= hi:
            simplex[j + 1, j] = x0[j] + step
        else:
            simplex[j + 1, j] = max(x0[j] - step, lo)
    return simplex


def optimize_nelder_mead(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    alpha = float(p["reflection"])
    gamma = float(p["expansion"])
    beta = float(p["contraction"])
    delta = float(p["shrink"])
    lo, hi = config.lower_bound, config.upper_bound
    counting = CountingObjective(objective)
    incumbent = Incumbent(counting)

    x0 = equal_start(config)
    step = float(p["initial_step"]) * config.span
    simplex = _initial_simplex(x0, step, lo, hi)
    values = np.array([counting.value(v) for v in simplex])
    b = int(np.argmin(values))
    incumbent.consider(simplex[b], 0, value=values[b])

    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]

        f_spread = float(np.max(np.abs(values[1:] - values[0])))
        x_spread = float(np.max(np.abs(simplex[1:] - simplex[0])))
        if f_spread <= config.tolerance and x_spread <= config.tolerance:
            converged = True
            iterations = it - 1
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = np.clip(centroid + alpha * (centroid - worst), lo, hi)
        f_reflected = counting.value(reflected)

        if f_reflected < values[0]:
            expanded = np.clip(centroid + gamma * (centroid - worst), lo, hi)
            f_expanded = counting.value(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                contracted = np.clip(centroid + beta * (centroid - worst), lo, hi)
            else:
                contracted = np.clip(centroid - beta * (centroid - worst), lo, hi)
            f_contracted = counting.value(contracted)
            if f_contracted < min(f_reflected, values[-1]):
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, simplex.shape[0]):
                    simplex[i] = np.clip(simplex[0] + delta * (simplex[i] - simplex[0]), lo, hi)
                    values[i] = counting.value(simplex[i])

        b = int(np.argmin(values))
        if values[b] < incumbent.best_f:
            incumbent.consider(simplex[b], it, value=values[b])

    return make_report("nelder-mead", config, incumbent, counting, iterations, converged)
