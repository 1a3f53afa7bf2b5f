"""Real-coded genetic algorithm with tournament selection and elitism."""

from __future__ import annotations

import numpy as np

from .common import EVOLVE_SETTINGS, OptimizerReport, Search, Setting, evolve

SETTINGS = {
    "population_size": Setting(int, 100, 2, 10**5),
    "tournament_size": Setting(int, 3, 1, "population_size"),
    "crossover_rate": Setting(float, 0.9, 0, 1),
    "mutation_rate": Setting(float, None, 0, 1),  # None: 1/dimension
    "mutation_sigma": Setting(float, 0.1, 0, 10),
    "elite_count": Setting(int, 1, 0, "population_size", "[)"),
    "max_generations": Setting(int, 1000, 1, 10**7),
    **EVOLVE_SETTINGS,
}


def optimize_ga(search: Search) -> OptimizerReport:
    p = search.settings
    pop_size = p["population_size"]
    tournament = p["tournament_size"]
    elite = p["elite_count"]
    m = search.dimension
    mutation_rate = p["mutation_rate"]
    if mutation_rate is None:
        mutation_rate = 1.0 / m
    sigma = float(p["mutation_sigma"])
    crossover_rate = p["crossover_rate"]
    n_children = pop_size - elite
    n_genes = n_children * m
    slates = np.arange(2)[:, None], np.arange(n_children)[None, :]
    value_batch = search.value_batch

    def step(rng, population, fitness):
        """Breed the next generation: elites, then tournament-selected, crossed and mutated children."""
        order = np.argsort(fitness, kind="stable")
        next_pop = np.empty_like(population)
        next_pop[:elite] = population[order[:elite]]

        # tournament selection for both parent slates at once
        contenders = rng.integers(0, pop_size, size=(2, n_children, tournament))
        winners = contenders[(*slates, np.argmin(fitness[contenders], axis=2))]
        parents_a = population[winners[0]]
        parents_b = population[winners[1]]

        # one draw for the crossover, gene-swap and mutation coins, in that order
        coins = rng.random(n_children + 2 * n_genes)
        cross = coins[:n_children] < crossover_rate
        take_b = coins[n_children : n_children + n_genes].reshape(n_children, m) < 0.5
        mutate = coins[n_children + n_genes :].reshape(n_children, m) < mutation_rate
        children = np.where(cross[:, None] & take_b, parents_b, parents_a)

        mutation = rng.normal(0.0, sigma, size=(n_children, m))
        mutation *= mutate
        mutation += children
        mutation.clip(0.0, 1.0, out=next_pop[elite:])
        return next_pop, value_batch(next_pop)

    generations = min(p["max_generations"], p["max_iterations"])
    return evolve(search, pop_size, generations, p["stagnation_window"], step)
