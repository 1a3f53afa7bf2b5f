"""Real-coded genetic algorithm with tournament selection and elitism."""

from __future__ import annotations

import numpy as np

from ..fusion import Objective
from .common import (
    CountingObjective,
    Incumbent,
    OptimizerConfig,
    OptimizerReport,
    ParameterError,
    equal_start,
    make_report,
    resolve_params,
)

DEFAULTS = {
    "population_size": 100,
    "tournament_size": 3,
    "crossover_rate": 0.9,
    "mutation_rate": None,  # defaults to 1/dimension
    "mutation_sigma": 0.1,
    "elite_count": 1,
    "max_generations": 1000,
    "stagnation_window": 100,
}


def optimize_ga(objective: Objective, config: OptimizerConfig) -> OptimizerReport:
    p = resolve_params(config, DEFAULTS)
    pop_size = int(p["population_size"])
    tournament = int(p["tournament_size"])
    elite = int(p["elite_count"])
    window = int(p["stagnation_window"])
    mutation_rate = p["mutation_rate"]
    if mutation_rate is None:
        mutation_rate = 1.0 / config.dimension
    if pop_size < 2:
        raise ParameterError("population_size must be >= 2")
    if not 1 <= tournament <= pop_size:
        raise ParameterError("tournament_size must be in [1, population_size]")
    if not 0 <= elite < pop_size:
        raise ParameterError("elite_count must be in [0, population_size)")

    rng = np.random.default_rng(config.seed)
    lo, hi, m = config.lower_bound, config.upper_bound, config.dimension
    sigma = float(p["mutation_sigma"]) * (hi - lo)
    counting = CountingObjective(objective)
    incumbent = Incumbent(counting)

    population = rng.uniform(lo, hi, size=(pop_size, m))
    population[0] = equal_start(config)
    fitness = counting.value_batch(population)
    # scalar-path score for the seeded baseline, then the population best
    incumbent.consider(population[0], 0)
    incumbent.consider(population[int(np.argmin(fitness))], 0)

    generations = min(int(p["max_generations"]), config.max_iterations)
    anchor = incumbent.best_f
    since_improvement = 0
    converged = False
    iterations = 0
    for gen in range(1, generations + 1):
        iterations = gen
        order = np.argsort(fitness, kind="stable")
        next_pop = np.empty_like(population)
        next_pop[:elite] = population[order[:elite]]

        n_children = pop_size - elite
        # tournament selection for both parent slates at once
        contenders = rng.integers(0, pop_size, size=(2, n_children, tournament))
        winners = contenders[
            np.arange(2)[:, None],
            np.arange(n_children)[None, :],
            np.argmin(fitness[contenders], axis=2),
        ]
        parents_a = population[winners[0]]
        parents_b = population[winners[1]]

        cross = rng.random(n_children) < p["crossover_rate"]
        take_b = rng.random((n_children, m)) < 0.5
        children = parents_a.copy()
        swap = cross[:, None] & take_b
        children[swap] = parents_b[swap]

        mutate = rng.random((n_children, m)) < mutation_rate
        noise = rng.normal(0.0, sigma, size=(n_children, m))
        children = np.clip(children + mutate * noise, lo, hi)
        next_pop[elite:] = children

        population = next_pop
        fitness = counting.value_batch(population)
        b = int(np.argmin(fitness))
        if fitness[b] < incumbent.best_f:
            incumbent.consider(population[b], gen)

        if anchor - incumbent.best_f >= config.tolerance:
            anchor = incumbent.best_f
            since_improvement = 0
        else:
            since_improvement += 1
            if window > 0 and since_improvement >= window:
                converged = True
                break

    return make_report("ga", config, incumbent, counting, iterations, converged)
