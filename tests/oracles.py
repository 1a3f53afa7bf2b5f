"""Per-row reference versions of code that `src/` now runs column- or array-wise.

Each is the earlier implementation, its code unchanged but for names,
docstrings and comments, so tests can require that the faster code gives
the same results bit for bit:

- `read_rows`, `parse_inducer_file` and `parse_ground_truth`: the CSV parser
  that checked one line at a time;
- `optimize_ga` and `optimize_pso`: the generation steps before their draws
  were merged and their arithmetic was done in place.

The parser decodes bytes as before, so it names the wrong line for invalid
UTF-8 after a break other than ``\\n``; compare it on valid text only.
"""

from __future__ import annotations

import math
from typing import IO, Callable, TypeVar

import numpy as np

from latefuse.ingestion import (
    INDUCER_HEADER,
    TRUTH_HEADER,
    DuplicateKeyError,
    InducerTable,
    Key,
    ParseError,
)
from latefuse.optimizers.common import OptimizerReport, Search, evolve

T = TypeVar("T")


def read_rows(
    source: IO[bytes] | IO[str], header: str, where: str, parse: Callable[[int, list[str], int], T]
) -> dict[Key, T]:
    data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"{where}: not valid UTF-8 at line {lineno}") from None
    lines = data.removeprefix("\ufeff").splitlines()
    if not lines:
        raise ParseError(f"{where}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise ParseError(f"{where}: bad header at line 1: {lines[0]!r}")

    columns = header.split(",")
    rows: dict[Key, T] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ParseError(f"{where}: expected {len(columns)} fields, got {len(fields)} at line {lineno}")
        vid, iid, flag, *rest = (f.strip() for f in fields)
        if flag not in ("0", "1"):
            raise ParseError(f"{where}: {columns[2]} out of {{0,1}} at line {lineno}: {flag!r}")
        value = parse(int(flag), rest, lineno)
        key = (vid, iid)
        if key in rows:
            raise DuplicateKeyError(f"{where}: duplicate key {key} at line {lineno}")
        rows[key] = value
    return rows


def parse_inducer_file(source: IO[bytes] | IO[str], inducer_name: str, where: str | None = None) -> InducerTable:
    where = where or f"inducer {inducer_name!r}"

    def score(_: int, rest: list[str], lineno: int) -> float:
        try:
            value = float(rest[0])
        except ValueError:
            raise ParseError(f"{where}: non-numeric score at line {lineno}: {rest[0]!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: non-finite score at line {lineno}: {rest[0]!r}")
        return value

    rows = read_rows(source, INDUCER_HEADER, where, score)
    return InducerTable(inducer_name, list(rows), np.array(list(rows.values()), dtype=np.float64))


def parse_ground_truth(source: IO[bytes] | IO[str], name: str = "ground truth") -> dict[Key, int]:
    return read_rows(source, TRUTH_HEADER, name, lambda label, rest, lineno: label)


def optimize_ga(search: Search, p: dict) -> OptimizerReport:
    pop_size = p["population_size"]
    tournament = p["tournament_size"]
    elite = p["elite_count"]
    m = search.dimension
    mutation_rate = p["mutation_rate"]
    if mutation_rate is None:
        mutation_rate = 1.0 / m
    sigma = float(p["mutation_sigma"])
    n_children = pop_size - elite

    def step(rng, population, fitness):
        order = np.argsort(fitness, kind="stable")
        next_pop = np.empty_like(population)
        next_pop[:elite] = population[order[:elite]]

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
        next_pop[elite:] = np.clip(children + mutate * noise, 0.0, 1.0)
        return next_pop, search.value_batch(next_pop)

    generations = min(p["max_generations"], search.config.max_iterations)
    return evolve(search, pop_size, generations, p["stagnation_window"], step)


def optimize_pso(search: Search, p: dict) -> OptimizerReport:
    positions = velocities = None

    def step(rng, pbest, pbest_values):
        nonlocal positions, velocities
        if positions is None:
            positions, velocities = pbest.copy(), np.zeros_like(pbest)
        r1 = rng.random(pbest.shape)
        r2 = rng.random(pbest.shape)
        velocities = (
            p["inertia"] * velocities
            + p["cognitive"] * r1 * (pbest - positions)
            + p["social"] * r2 * (search.best_x - positions)
        )
        np.clip(velocities, -1.0, 1.0, out=velocities)
        positions = np.clip(positions + velocities, 0.0, 1.0)

        values = search.value_batch(positions)
        better = values < pbest_values
        pbest[better] = positions[better]
        pbest_values[better] = values[better]
        return pbest, pbest_values

    return evolve(search, p["swarm_size"], search.config.max_iterations, p["stagnation_window"], step)
