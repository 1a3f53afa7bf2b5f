"""Weighted-sum score fusion and the MSE objective used for weight search.

The combined score of a sample is the weighted sum of its m inducer scores;
the fitness of a weight vector is the mean squared error between the fused
scores and the ground-truth labels.  `mse` and `mse_gradient` are the
residual forms; `make_mse_objective` builds the `Objective` the optimizers
consume, a quadratic in the m x m sufficient statistics with `mse` as its
exact score.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ingestion import ScoreMatrix


@dataclass
class Objective:
    """A scalar objective over weight vectors.

    `value` must be pure; it is what a search compares.  `gradient` is
    optional and, when present, must be consistent with `value` under finite
    differences.  `value_batch` is an optional fast path evaluating a (p, m)
    stack of weight vectors at once; population methods fall back to
    row-by-row `value` calls without it.  `exact` is the reference form that
    scores a point for the report (`value` when absent): every reported
    objective comes from it.  `value`, `gradient` and `value_batch` may round
    differently from `exact`, so they only rank candidates.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    value_batch: Callable[[np.ndarray], np.ndarray] | None = None
    exact: Callable[[np.ndarray], float] | None = None


def _as_weights(weights: Sequence[float] | np.ndarray, m: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != m:
        raise ValueError(f"weight vector has shape {w.shape}, expected ({m},)")
    return w


def equal_weights(m: int) -> np.ndarray:
    """The naive-fusion baseline: every inducer weighted 1/m."""
    if m < 1:
        raise ValueError("need at least one inducer")
    return np.full(m, 1.0 / m, dtype=np.float64)


def fuse(weights: Sequence[float] | np.ndarray, matrix: ScoreMatrix) -> np.ndarray:
    """Combined score per sample: value_i = sum_j weights_j * scores_ij."""
    w = _as_weights(weights, matrix.n_inducers)
    return matrix.scores @ w


def mse(weights: Sequence[float] | np.ndarray, matrix: ScoreMatrix) -> float:
    """Mean squared error between fused scores and labels."""
    if matrix.n_samples == 0:
        raise ValueError("MSE undefined on an empty dataset")
    err = matrix.scores @ _as_weights(weights, matrix.n_inducers) - matrix.labels
    return float(err @ err) / matrix.n_samples


def mse_gradient(weights: Sequence[float] | np.ndarray, matrix: ScoreMatrix) -> np.ndarray:
    """Gradient of `mse`: component j is (2/n) sum_i (fused_i - label_i) * scores_ij."""
    if matrix.n_samples == 0:
        raise ValueError("MSE gradient undefined on an empty dataset")
    err = matrix.scores @ _as_weights(weights, matrix.n_inducers) - matrix.labels
    return (2.0 / matrix.n_samples) * (matrix.scores.T @ err)


def make_mse_objective(matrix: ScoreMatrix) -> Objective:
    """The MSE of one matrix as the quadratic f(w) = w'Gw - 2b'w + c.

    G = S'S/n, b = S'y/n and c = y'y/n are computed once here.  `value`
    (w.(Gw - 2b) + c), `gradient` (2(Gw - b)) and `value_batch` read only
    them, so a point costs O(m^2) instead of O(n*m).  Their rounding error is
    a few ulps of w'Gw, not of f: the last digits where f is far from 0, but
    more than f itself near an exact fit.  `exact` is `mse` bound to the
    matrix, the residual form, and the only callable that reads its rows.
    """
    if matrix.n_samples == 0:
        raise ValueError("MSE undefined on an empty dataset")
    scores = matrix.scores
    labels = matrix.labels
    n = matrix.n_samples
    gram = (scores.T @ scores) / n
    moment = (scores.T @ labels) / n
    twice_moment = 2.0 * moment
    offset = float(labels @ labels) / n

    def value(w: np.ndarray) -> float:
        return float(w @ (gram @ w - twice_moment)) + offset

    def gradient(w: np.ndarray) -> np.ndarray:
        return 2.0 * (gram @ w - moment)

    def value_batch(ws: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", ws @ gram, ws) - 2.0 * (ws @ moment) + offset

    return Objective(value=value, gradient=gradient, value_batch=value_batch, exact=partial(mse, matrix=matrix))

