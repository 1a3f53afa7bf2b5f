"""Real-coded genetic algorithm with tournament selection and elitism."""

from __future__ import annotations

import numpy as np

from .common import EVOLVE_SETTINGS, Search, Setting, evolve

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


def optimize_ga(search: Search) -> Search:
    pop_size = search.settings["population_size"]
    m = search.dimension
    mutation_rate = 1.0 / m
    n_children = pop_size - ELITE_COUNT
    n_genes = n_children * m
    value_batch = search.value_batch

    def step(rng, population, fitness):
        """Breed the next generation: elites, then tournament-selected, crossed and mutated children."""
        order = np.argsort(fitness, kind="stable")
        next_pop = np.empty_like(population)
        next_pop[:ELITE_COUNT] = population[order[:ELITE_COUNT]]

        # tournament selection for both parent slates at once: contenders are drawn as ranks in
        # `order`, so each winner is its best-ranked contender, a tie going to the lower index
        ranks = rng.integers(0, pop_size, size=(2, n_children, TOURNAMENT_SIZE))
        parents_a, parents_b = population[order[ranks.min(axis=2)]]

        # one draw for the crossover, gene-swap and mutation coins, in that order
        coins = rng.random(n_children + 2 * n_genes)
        cross = coins[:n_children] < CROSSOVER_RATE
        take_b = coins[n_children : n_children + n_genes].reshape(n_children, m) < 0.5
        mutate = coins[n_children + n_genes :].reshape(n_children, m) < mutation_rate
        children = np.where(cross[:, None] & take_b, parents_b, parents_a)
        # one normal per mutated gene, in row-major order
        children[mutate] += rng.normal(0.0, MUTATION_SIGMA, size=np.count_nonzero(mutate))
        children.clip(0.0, 1.0, out=next_pop[ELITE_COUNT:])
        return next_pop, value_batch(next_pop)

    return evolve(search, pop_size, step)
