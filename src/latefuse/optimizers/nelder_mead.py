"""Nelder-Mead simplex search with vertices clipped into the box."""

from __future__ import annotations

import bisect

import numpy as np

from .common import OptimizerReport, Search, Setting

SETTINGS = {
    "initial_step": Setting(float, 0.05, 0, 1, "(]"),
    "reflection": Setting(float, 1.0, 0, 10, "(]"),
    "expansion": Setting(float, 2.0, 1, 10, "(]"),
    "contraction": Setting(float, 0.5, 0, 1, "()"),
    "shrink": Setting(float, 0.5, 0, 1, "()"),
}


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    m = x0.size
    simplex = np.tile(x0, (m + 1, 1))
    for j in range(m):
        if x0[j] + step <= 1.0:
            simplex[j + 1, j] = x0[j] + step
        else:
            simplex[j + 1, j] = max(x0[j] - step, 0.0)
    return simplex


def _sort(simplex: np.ndarray, values: list[float]) -> tuple[np.ndarray, list[float]]:
    order = np.argsort(values, kind="stable")
    return simplex[order], [values[i] for i in order]


def optimize_nelder_mead(search: Search, p: dict) -> OptimizerReport:
    alpha = float(p["reflection"])
    gamma = float(p["expansion"])
    beta = float(p["contraction"])
    delta = float(p["shrink"])
    m = search.dimension
    config = search.config

    # Rows stay sorted by value, ties in the order a stable sort would keep:
    # a new vertex goes after the vertices it ties with, and only a shrink
    # re-sorts the whole simplex.
    simplex = _initial_simplex(search.best_x, float(p["initial_step"]))
    simplex, values = _sort(simplex, [search.value(v) for v in simplex])
    search.consider(simplex[0], 0)
    offered = values[0]  # the search value of the last vertex offered to the incumbent

    converged = False
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        iterations = it
        if values[-1] - values[0] <= config.tolerance:
            if float(np.max(np.abs(simplex[1:] - simplex[0]))) <= config.tolerance:
                converged = True
                iterations = it - 1
                break

        centroid = np.add.reduce(simplex[:-1], axis=0) / m  # bit-equal to .mean(axis=0)
        toward = centroid - simplex[-1]
        reflected = np.clip(centroid + alpha * toward, 0.0, 1.0)
        f_reflected = search.value(reflected)

        if f_reflected < values[0]:
            expanded = np.clip(centroid + gamma * toward, 0.0, 1.0)
            f_expanded = search.value(expanded)
            if f_expanded < f_reflected:
                vertex, f_vertex = expanded, f_expanded
            else:
                vertex, f_vertex = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertex, f_vertex = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                vertex = np.clip(centroid + beta * toward, 0.0, 1.0)
            else:
                vertex = np.clip(centroid - beta * toward, 0.0, 1.0)
            f_vertex = search.value(vertex)
            if not f_vertex < min(f_reflected, values[-1]):
                vertex = None
                for i in range(1, m + 1):
                    simplex[i] = np.clip(simplex[0] + delta * (simplex[i] - simplex[0]), 0.0, 1.0)
                    values[i] = search.value(simplex[i])
                simplex, values = _sort(simplex, values)

        if vertex is not None:  # replace the worst vertex, keeping the rows sorted
            values.pop()
            k = bisect.bisect_right(values, f_vertex)
            values.insert(k, f_vertex)
            simplex[k + 1 :] = simplex[k:-1]
            simplex[k] = vertex
        if values[0] < offered:  # the best vertex is new: only a lower value displaces it
            offered = values[0]
            search.consider(simplex[0], it)

    return search.report(iterations, converged)
