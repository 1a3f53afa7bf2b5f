"""Limited-memory BFGS on the free variables, with box projection and Armijo backtracking."""

from __future__ import annotations

from collections import deque

import numpy as np

from .common import Search, descend, line_search

# The curvature pairs kept for the two-loop product.
HISTORY = 10


def _two_loop(g: np.ndarray, pairs: deque, free: np.ndarray) -> np.ndarray:
    """Implicit product of the inverse-Hessian approximation with g, on the free variables.

    The stored pairs are restricted to the free coordinates; a pair whose
    restricted curvature s_F.y_F is not positive is skipped.  Fixed
    coordinates get a zero entry.
    """
    q = g[free]
    used = []  # newest first
    for s, y in reversed(pairs):
        s_f, y_f = s[free], y[free]
        sy = float(s_f @ y_f)
        if sy > 0.0:
            used.append((s_f, y_f, sy))
    alphas = []
    for s_f, y_f, sy in used:
        a = float(s_f @ q) / sy
        q -= a * y_f
        alphas.append(a)
    if used:
        s_f, y_f, sy = used[0]
        q *= sy / float(y_f @ y_f)
    for (s_f, y_f, sy), a in zip(reversed(used), reversed(alphas)):
        b = float(y_f @ q) / sy
        q += (a - b) * s_f
    product = np.zeros_like(g)
    product[free] = q
    return product


def optimize_lbfgsb(search: Search) -> Search:
    pairs: deque = deque(maxlen=HISTORY)

    def step(x, f, g, free):
        # Kim, Sra & Dhillon's projected quasi-Newton step: variables held on a
        # bound by the gradient do not move, the rest take the two-loop step.
        steepest = np.where(free, -g, 0.0)
        direction = -_two_loop(g, pairs, free) if pairs else steepest
        found = line_search(search, x, f, g, direction, steepest)
        if found is None:
            return None
        trial, f_trial, fell_back = found
        if fell_back:
            pairs.clear()
        g_trial = search.gradient(trial)
        s = trial - x
        y = g_trial - g
        if float(s @ y) > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            pairs.append((s, y))
        return trial, f_trial, g_trial

    return descend(search, step)
