"""Nelder-Mead simplex search with vertices clipped into the box."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .common import Search

# How far each initial vertex lies from the equal weights, and the standard
# reflection, expansion, contraction and shrink coefficients.
INITIAL_STEP = 0.05
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    simplex = np.tile(x0, (x0.size + 1, 1))
    np.fill_diagonal(simplex[1:], np.where(x0 + step <= 1.0, x0 + step, np.maximum(x0 - step, 0.0)))
    return simplex


def _sort(simplex: np.ndarray, values: list[float]) -> None:
    """Sort the rows by value in place, ties in their current order."""
    order = np.argsort(values, kind="stable")
    simplex[:] = simplex[order]
    values[:] = [values[i] for i in order]


def optimize_nelder_mead(search: Search) -> Search:
    m = search.dimension
    max_iterations, tolerance = search.settings["max_iterations"], search.settings["tolerance"]
    value, reduce = search.value, np.add.reduce

    # Rows stay sorted by value, ties in the order a stable sort would keep:
    # a new vertex goes after the vertices it ties with, and only a shrink
    # re-sorts the whole simplex.  Rows move only in place, so the views
    # `best`, `head` (all but the worst) and `worst` stay valid.
    simplex = _initial_simplex(search.best_weights, INITIAL_STEP)
    values = [value(v) for v in simplex]
    _sort(simplex, values)
    best, head, worst = simplex[0], simplex[:-1], simplex[-1]
    search.consider(best, 0)
    offered = values[0]  # the search value of the last vertex offered to the incumbent

    for it in range(1, max_iterations + 1):
        if values[-1] - values[0] <= tolerance and np.abs(simplex[1:] - best).max() <= tolerance:
            return search.report(it - 1, converged=True)

        centroid = reduce(head, axis=0) / m  # bit-equal to .mean(axis=0)
        toward = centroid - worst
        reflected = (centroid + REFLECTION * toward).clip(0.0, 1.0)
        f_reflected = value(reflected)

        if f_reflected < values[0]:
            expanded = (centroid + EXPANSION * toward).clip(0.0, 1.0)
            f_expanded = value(expanded)
            if f_expanded < f_reflected:
                vertex, f_vertex = expanded, f_expanded
            else:
                vertex, f_vertex = reflected, f_reflected
        elif f_reflected < values[-2]:
            vertex, f_vertex = reflected, f_reflected
        else:
            if f_reflected < values[-1]:
                vertex = (centroid + CONTRACTION * toward).clip(0.0, 1.0)
            else:
                vertex = (centroid - CONTRACTION * toward).clip(0.0, 1.0)
            f_vertex = value(vertex)
            if not f_vertex < min(f_reflected, values[-1]):
                vertex = None
                simplex[1:] = (best + SHRINK * (simplex[1:] - best)).clip(0.0, 1.0)
                values[1:] = [value(v) for v in simplex[1:]]
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

    return search.report(max_iterations, converged=False)
