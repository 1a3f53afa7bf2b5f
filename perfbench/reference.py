"""Independent references for checking the program's outputs.

* ``normalise``: min-max scaling of a raw split with dev-fitted ranges.
* ``residual_mse``: the MSE of a weight vector in residual form.
* ``bvls``: the exact optimum of min ||A x - y||^2 over the box [lo, hi]^m,
  an active-set method after Stark & Parker (1995), "Bounded-variable
  least-squares: an algorithm and applications", Comput. Stat. 10.

None of this imports the package under test.
"""

from __future__ import annotations

import numpy as np


def normalise(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Scale each column to [0, 1] by (lo, hi), clamping; a flat column maps to 0."""
    out = np.zeros_like(raw)
    live = hi > lo
    out[:, live] = np.clip((raw[:, live] - lo[live]) / (hi[live] - lo[live]), 0.0, 1.0)
    return out


def residual_mse(a: np.ndarray, y: np.ndarray, x: np.ndarray) -> float:
    r = a @ x - y
    return float(r @ r) / len(y)


def bvls(a: np.ndarray, y: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Minimiser of ||a x - y|| subject to lo <= x <= hi, exact up to rounding.

    Starts with every variable on its lower bound.  Each outer step frees the
    bound variable whose gradient most violates optimality; the inner loop
    solves least squares over the free set and, where that solution leaves the
    box, moves toward it as far as feasible and re-binds the variables it hits.
    """
    m = a.shape[1]
    x = np.full(m, lo)
    free = np.zeros(m, dtype=bool)
    scale = max(1.0, float(np.abs(a.T @ y).max()))
    tol = 1e-12 * scale
    blocked = np.zeros(m, dtype=bool)  # freed then immediately re-bound: skip once
    for _ in range(10 * m + 100):
        w = a.T @ (y - a @ x)  # minus half the gradient
        wants_up = (x <= lo) & (w > tol)
        wants_down = (x >= hi) & (w < -tol)
        candidates = ~free & ~blocked & (wants_up | wants_down)
        if not candidates.any():
            break
        j = int(np.argmax(np.where(candidates, np.abs(w), -1.0)))
        free[j] = True
        blocked[:] = False
        first = True
        while free.any():
            idx = np.flatnonzero(free)
            z = np.linalg.lstsq(a[:, idx], y - a[:, ~free] @ x[~free], rcond=None)[0]
            below, above = z <= lo, z >= hi
            if not (below.any() or above.any()):
                x[idx] = z
                break
            xf = x[idx]
            ratio = np.full(len(idx), np.inf)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio[below] = (xf[below] - lo) / (xf[below] - z[below])
                ratio[above] = (hi - xf[above]) / (z[above] - xf[above])
            ratio = np.nan_to_num(ratio, nan=0.0, posinf=np.inf)  # 0/0: already on that bound
            alpha = min(1.0, max(0.0, float(ratio.min())))
            x[idx] = np.clip(xf + alpha * (z - xf), lo, hi)
            hit = (below | above) & (ratio <= alpha)
            x[idx[hit & below]] = lo
            x[idx[hit & above]] = hi
            free[idx[hit]] = False
            if first and not free[j]:
                blocked[j] = True  # freeing j alone makes no progress; try another
            first = False
    return x


def scipy_bvls(a: np.ndarray, y: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray | None:
    """scipy's BVLS for a cross-check, or None when scipy does not import."""
    try:
        from scipy.optimize import lsq_linear
    except ImportError:
        return None
    return lsq_linear(a, y, bounds=(lo, hi), method="bvls", tol=1e-14).x
