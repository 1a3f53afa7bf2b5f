"""Global-best particle swarm search over the weight box."""

from __future__ import annotations

import numpy as np

from .common import EVOLVE_SETTINGS, OptimizerReport, Search, Setting, evolve

SETTINGS = {
    "swarm_size": Setting(int, 300, 1, 10**5),
    "inertia": Setting(float, 0.729, 0, 10),
    "cognitive": Setting(float, 1.49445, 0, 10),
    "social": Setting(float, 1.49445, 0, 10),
    **EVOLVE_SETTINGS,
}


def optimize_pso(search: Search) -> OptimizerReport:
    p = search.settings
    inertia, cognitive, social = p["inertia"], p["cognitive"], p["social"]
    value_batch = search.value_batch
    positions = velocities = None

    def step(rng, pbest, pbest_values):
        """Move the swarm once; the loop keeps the personal bests."""
        nonlocal positions, velocities
        if positions is None:  # the swarm starts at the first population, at rest
            positions, velocities = pbest.copy(), np.zeros_like(pbest)
        # in place, in the order of inertia*v + cognitive*r1*(pbest - x) + social*r2*(best - x)
        r1, r2 = rng.random((2, *pbest.shape))
        velocities *= inertia
        r1 *= cognitive
        r1 *= pbest - positions
        velocities += r1
        r2 *= social
        r2 *= search.best_x - positions
        velocities += r2
        velocities.clip(-1.0, 1.0, out=velocities)  # at most the box's width per step
        positions += velocities
        positions.clip(0.0, 1.0, out=positions)

        values = value_batch(positions)
        better = values < pbest_values
        pbest[better] = positions[better]
        pbest_values[better] = values[better]
        return pbest, pbest_values

    return evolve(search, p["swarm_size"], step)
