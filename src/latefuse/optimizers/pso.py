"""Global-best particle swarm search over the weight box."""

from __future__ import annotations

import numpy as np

from ..fusion import Objective
from .common import OptimizerConfig, OptimizerReport, Setting, evolve

SETTINGS = {
    "swarm_size": Setting(int, 300, 1, 10**5),
    "inertia": Setting(float, 0.729, 0, 10),
    "cognitive": Setting(float, 1.49445, 0, 10),
    "social": Setting(float, 1.49445, 0, 10),
    "stagnation_window": Setting(int, 100, 0, 10**7),  # 0: never stop early
}


def optimize_pso(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    lo, hi = config.lower_bound, config.upper_bound
    vmax = hi - lo
    positions = velocities = None

    def step(search, rng, pbest, pbest_values):
        """Move the swarm once; the loop keeps the personal bests."""
        nonlocal positions, velocities
        if positions is None:  # the swarm starts at the first population, at rest
            positions, velocities = pbest.copy(), np.zeros_like(pbest)
        r1 = rng.random(pbest.shape)
        r2 = rng.random(pbest.shape)
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
        return pbest, pbest_values

    return evolve(
        objective, config, p["swarm_size"], config.max_iterations, p["stagnation_window"], step
    )
