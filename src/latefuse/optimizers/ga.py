"""Real-coded genetic algorithm with tournament selection and elitism."""

from __future__ import annotations

import numpy as np

from .common import EVOLVE_SETTINGS, OptimizerReport, Search, Setting, evolve

SETTINGS = {
    "population_size": Setting(int, 100, 2, 10**5),
    "max_iterations": Setting(int, 1000, 1, 10**7),  # generations; replaces CONFIG_SETTINGS' spec for ga
    **EVOLVE_SETTINGS,
}

# Contenders per tournament (drawn with replacement), the share of children crossed,
# the standard deviation of a gene's Gaussian mutation and the elites kept each generation;
# each gene mutates with probability 1/m.
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
MUTATION_SIGMA = 0.1
ELITE_COUNT = 1


def optimize_ga(search: Search) -> OptimizerReport:
    pop_size = search.settings["population_size"]
    m = search.dimension
    mutation_rate = 1.0 / m
    n_children = pop_size - ELITE_COUNT
    n_genes = n_children * m
    slates = np.arange(2)[:, None], np.arange(n_children)[None, :]
    value_batch = search.value_batch

    def step(rng, population, fitness):
        """Breed the next generation: elites, then tournament-selected, crossed and mutated children."""
        order = np.argsort(fitness, kind="stable")
        next_pop = np.empty_like(population)
        next_pop[:ELITE_COUNT] = population[order[:ELITE_COUNT]]

        # tournament selection for both parent slates at once
        contenders = rng.integers(0, pop_size, size=(2, n_children, TOURNAMENT_SIZE))
        winners = contenders[(*slates, np.argmin(fitness[contenders], axis=2))]
        parents_a = population[winners[0]]
        parents_b = population[winners[1]]

        # one draw for the crossover, gene-swap and mutation coins, in that order
        coins = rng.random(n_children + 2 * n_genes)
        cross = coins[:n_children] < CROSSOVER_RATE
        take_b = coins[n_children : n_children + n_genes].reshape(n_children, m) < 0.5
        mutate = coins[n_children + n_genes :].reshape(n_children, m) < mutation_rate
        children = np.where(cross[:, None] & take_b, parents_b, parents_a)

        mutation = rng.normal(0.0, MUTATION_SIGMA, size=(n_children, m))
        mutation *= mutate
        mutation += children
        mutation.clip(0.0, 1.0, out=next_pop[ELITE_COUNT:])
        return next_pop, value_batch(next_pop)

    return evolve(search, pop_size, step)
