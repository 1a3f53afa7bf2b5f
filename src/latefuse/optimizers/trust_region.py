"""Dogleg trust-region method on a BFGS quadratic model of the free variables, projected to the box."""

from __future__ import annotations

import math

import numpy as np

from .common import OptimizerReport, Search, descend

# The first radius; the radius never exceeds sqrt(m), the box's diagonal, which is at least 1.
INITIAL_RADIUS = 1.0
# The least actual-to-predicted reduction ratio at which a trial point is taken.
ACCEPTANCE_THRESHOLD = 1e-4
_MIN_RADIUS = 1e-14


def _dogleg(g: np.ndarray, hessian: np.ndarray, radius: float) -> np.ndarray:
    """Dogleg step for min g.s + 0.5 s.B.s subject to |s| <= radius."""
    try:
        newton = np.linalg.solve(hessian, -g)
    except np.linalg.LinAlgError:
        newton = None
    if newton is not None and np.all(np.isfinite(newton)):
        if float(np.linalg.norm(newton)) <= radius:
            return newton
    else:
        newton = None

    g_norm_sq = float(g @ g)
    curvature = float(g @ hessian @ g)
    if curvature <= 0 or not math.isfinite(curvature):
        return -(radius / math.sqrt(g_norm_sq)) * g
    cauchy = -(g_norm_sq / curvature) * g
    cauchy_norm = float(np.linalg.norm(cauchy))
    if cauchy_norm >= radius or newton is None:
        return -(radius / math.sqrt(g_norm_sq)) * g

    # walk from the Cauchy point toward the Newton point until the boundary
    leg = newton - cauchy
    a = float(leg @ leg)
    b = 2.0 * float(cauchy @ leg)
    c = cauchy_norm**2 - radius**2
    disc = max(b * b - 4 * a * c, 0.0)
    t = (-b + math.sqrt(disc)) / (2 * a)
    return cauchy + min(max(t, 0.0), 1.0) * leg


def optimize_trust_region(search: Search) -> OptimizerReport:
    m = search.dimension
    max_radius = math.sqrt(m)
    radius = INITIAL_RADIUS
    hessian = np.eye(m)

    def step(x, f, g, free):
        nonlocal radius, hessian
        # Coleman & Li's restriction: the dogleg runs on the free variables,
        # and variables held on a bound by the gradient take a zero step.
        s = np.zeros(m)
        s[free] = _dogleg(g[free], hessian[np.ix_(free, free)], radius)
        trial = np.clip(x + s, 0.0, 1.0)
        realized = trial - x
        if not np.any(realized):
            radius *= 0.25
            return None if radius < _MIN_RADIUS else (x, f, g)

        predicted = -(float(g @ realized) + 0.5 * float(realized @ hessian @ realized))
        f_trial = search.value(trial)
        actual = f - f_trial
        rho = actual / predicted if predicted > 0 else -math.inf

        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and float(np.linalg.norm(realized)) >= 0.99 * radius:
            radius = min(2.0 * radius, max_radius)

        if not (rho > ACCEPTANCE_THRESHOLD and actual > 0):
            return None if radius < _MIN_RADIUS else (x, f, g)
        g_trial = search.gradient(trial)
        y = g_trial - g
        sy = float(realized @ y)
        if sy > 1e-10 * float(np.linalg.norm(realized)) * float(np.linalg.norm(y)):
            hs = hessian @ realized
            hessian = hessian + np.outer(y, y) / sy - np.outer(hs, hs) / float(realized @ hs)
        return trial, f_trial, g_trial

    return descend(search, step)
