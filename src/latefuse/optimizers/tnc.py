"""Truncated Newton: conjugate-gradient inner solves with active-bound freezing.

Hessian-vector products come from a forward difference of the gradient, so
the method needs only first-order information from the objective.
"""

from __future__ import annotations

import math

import numpy as np

from .common import Search, descend, line_search

_SQRT_EPS = math.sqrt(np.finfo(np.float64).eps)


def _truncated_cg(hessvec, b: np.ndarray, max_inner: int) -> np.ndarray:
    """Approximately solve H d = b; bail out on negative curvature."""
    d = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    b_norm = math.sqrt(rs)
    if b_norm == 0.0:
        return d
    threshold = min(0.5, math.sqrt(b_norm)) * b_norm
    direction = r.copy()
    for i in range(max_inner):
        h_dir = hessvec(direction)
        curvature = float(direction @ h_dir)
        if curvature <= 1e-16 * float(direction @ direction):
            return b.copy() if i == 0 else d
        alpha = rs / curvature
        d += alpha * direction
        r -= alpha * h_dir
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= threshold:
            break
        direction = r + (rs_new / rs) * direction
        rs = rs_new
    return d


def optimize_tnc(search: Search) -> Search:
    m = search.dimension
    max_inner = min(2 * m, 50)

    def step(x, f, g, free):
        # free is not empty: with no free variable the projected gradient is 0
        fd_step = _SQRT_EPS * (1.0 + float(np.linalg.norm(x)))

        def hessvec(v_free: np.ndarray) -> np.ndarray:
            full = np.zeros(m)
            full[free] = v_free
            norm = float(np.linalg.norm(full))
            if norm == 0.0:
                return np.zeros_like(v_free)
            g_shift = search.gradient(x + fd_step * (full / norm))
            return ((g_shift - g) * (norm / fd_step))[free]

        direction = np.zeros(m)
        direction[free] = _truncated_cg(hessvec, -g[free], max_inner)
        found = line_search(search, x, f, g, direction, np.where(free, -g, 0.0))
        if found is None:
            return None
        trial, f_trial, _ = found
        return trial, f_trial, search.gradient(trial)

    return descend(search, step)
