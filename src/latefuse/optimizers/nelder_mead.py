"""Nelder-Mead simplex search with vertices clipped into the box."""

from __future__ import annotations

from bisect import bisect_right

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


def _sort(simplex: np.ndarray, values: list[float]) -> None:
    """Sort the rows by value in place, ties in their current order."""
    order = np.argsort(values, kind="stable")
    simplex[:] = simplex[order]
    values[:] = [values[i] for i in order]


def optimize_nelder_mead(search: Search) -> OptimizerReport:
    p = search.settings
    alpha = float(p["reflection"])
    gamma = float(p["expansion"])
    beta = float(p["contraction"])
    delta = float(p["shrink"])
    m = search.dimension
    max_iterations, tolerance = p["max_iterations"], p["tolerance"]
    value, reduce = search.value, np.add.reduce

    # Rows stay sorted by value, ties in the order a stable sort would keep:
    # a new vertex goes after the vertices it ties with, and only a shrink
    # re-sorts the whole simplex.  Rows move only in place, so the views
    # `best`, `head` (all but the worst) and `worst` stay valid.
    simplex = _initial_simplex(search.best_x, float(p["initial_step"]))
    values = [value(v) for v in simplex]
    _sort(simplex, values)
    best, head, worst = simplex[0], simplex[:-1], simplex[-1]
    search.consider(best, 0)
    offered = values[0]  # the search value of the last vertex offered to the incumbent

    converged = False
    iterations = 0
    for it in range(1, max_iterations + 1):
        iterations = it
        if values[-1] - values[0] <= tolerance:
            if float(np.max(np.abs(simplex[1:] - best))) <= tolerance:
                converged = True
                iterations = it - 1
                break

        centroid = reduce(head, axis=0)
        centroid /= m  # bit-equal to .mean(axis=0)
        toward = centroid - worst
        reflected = alpha * toward
        reflected += centroid
        reflected.clip(0.0, 1.0, out=reflected)
        f_reflected = value(reflected)

        if f_reflected < values[0]:
            expanded = gamma * toward
            expanded += centroid
            expanded.clip(0.0, 1.0, out=expanded)
            f_expanded = value(expanded)
            if f_expanded < f_reflected:
                vertex, f_vertex = expanded, f_expanded
            else:
                vertex, f_vertex = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertex, f_vertex = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                vertex = (centroid + beta * toward).clip(0.0, 1.0)
            else:
                vertex = (centroid - beta * toward).clip(0.0, 1.0)
            f_vertex = value(vertex)
            if not f_vertex < min(f_reflected, values[-1]):
                vertex = None
                for i in range(1, m + 1):
                    simplex[i] = (best + delta * (simplex[i] - best)).clip(0.0, 1.0)
                    values[i] = value(simplex[i])
                _sort(simplex, values)

        if vertex is not None:  # replace the worst vertex, keeping the rows sorted
            values.pop()
            k = bisect_right(values, f_vertex)
            values.insert(k, f_vertex)
            simplex[k + 1 :] = simplex[k:-1]
            simplex[k] = vertex
        if values[0] < offered:  # the best vertex is new: only a lower value displaces it
            offered = values[0]
            search.consider(best, it)

    return search.report(iterations, converged)
