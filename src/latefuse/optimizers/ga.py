"""Real-coded genetic algorithm with tournament selection and elitism."""

from __future__ import annotations

import numpy as np

from ..fusion import Objective
from .common import OptimizerConfig, OptimizerReport, Search, Setting, equal_start

SETTINGS = {
    "population_size": Setting(int, 100, 2, 10**5),
    "tournament_size": Setting(int, 3, 1, "population_size"),
    "crossover_rate": Setting(float, 0.9, 0, 1),
    "mutation_rate": Setting(float, None, 0, 1),  # None: 1/dimension
    "mutation_sigma": Setting(float, 0.1, 0, 10),
    "elite_count": Setting(int, 1, 0, "population_size", "[)"),
    "max_generations": Setting(int, 1000, 1, 10**7),
    "stagnation_window": Setting(int, 100, 0, 10**7),  # 0: never stop early
}


def optimize_ga(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    pop_size = p["population_size"]
    tournament = p["tournament_size"]
    elite = p["elite_count"]
    window = p["stagnation_window"]
    mutation_rate = p["mutation_rate"]
    if mutation_rate is None:
        mutation_rate = 1.0 / config.dimension

    rng = np.random.default_rng(config.seed)
    lo, hi, m = config.lower_bound, config.upper_bound, config.dimension
    sigma = float(p["mutation_sigma"]) * (hi - lo)
    search = Search(objective, config)

    population = rng.uniform(lo, hi, size=(pop_size, m))
    population[0] = equal_start(config)
    fitness = search.value_batch(population)
    search.consider(population[int(np.argmin(fitness))], 0)

    generations = min(p["max_generations"], config.max_iterations)
    anchor = search.best_f
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
        fitness = search.value_batch(population)
        b = int(np.argmin(fitness))
        if fitness[b] < search.best_f:
            search.consider(population[b], gen)

        if anchor - search.best_f >= config.tolerance:
            anchor = search.best_f
            since_improvement = 0
        else:
            since_improvement += 1
            if window > 0 and since_improvement >= window:
                converged = True
                break

    return search.report(iterations, converged)
