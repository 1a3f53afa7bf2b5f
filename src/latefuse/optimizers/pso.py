"""Global-best particle swarm search over the weight box."""

from __future__ import annotations

import numpy as np

from ..fusion import Objective
from .common import OptimizerConfig, OptimizerReport, Search, Setting, equal_start

SETTINGS = {
    "swarm_size": Setting(int, 300, 1, 10**5),
    "inertia": Setting(float, 0.729, 0, 10),
    "cognitive": Setting(float, 1.49445, 0, 10),
    "social": Setting(float, 1.49445, 0, 10),
    "stagnation_window": Setting(int, 100, 0, 10**7),  # 0: never stop early
}


def optimize_pso(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    swarm_size = p["swarm_size"]
    window = p["stagnation_window"]

    rng = np.random.default_rng(config.seed)
    lo, hi, m = config.lower_bound, config.upper_bound, config.dimension
    search = Search(objective, config)

    positions = rng.uniform(lo, hi, size=(swarm_size, m))
    positions[0] = equal_start(config)  # the uniform baseline always participates
    velocities = np.zeros((swarm_size, m))
    vmax = hi - lo

    values = search.value_batch(positions)
    pbest = positions.copy()
    pbest_values = values.copy()
    search.consider(pbest[int(np.argmin(pbest_values))], 0)

    anchor = search.best_f
    since_improvement = 0
    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        r1 = rng.random((swarm_size, m))
        r2 = rng.random((swarm_size, m))
        velocities = (
            p["inertia"] * velocities
            + p["cognitive"] * r1 * (pbest - positions)
            + p["social"] * r2 * (search.best_x - positions)
        )
        np.clip(velocities, -vmax, vmax, out=velocities)
        positions = np.clip(positions + velocities, lo, hi)

        values = search.value_batch(positions)
        better = values < pbest_values
        pbest[better] = positions[better]
        pbest_values[better] = values[better]

        b = int(np.argmin(pbest_values))
        if pbest_values[b] < search.best_f:
            search.consider(pbest[b], it)

        if anchor - search.best_f >= config.tolerance:
            anchor = search.best_f
            since_improvement = 0
        else:
            since_improvement += 1
            if window > 0 and since_improvement >= window:
                converged = True
                break

    return search.report(iterations, converged)
