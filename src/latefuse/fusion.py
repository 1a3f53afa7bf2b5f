"""Weighted-sum score fusion and the MSE objective used for weight search.

The combined score of a sample is the weighted sum of its m inducer scores;
the fitness of a weight vector is the mean squared error between the fused
scores and the ground-truth labels.  `mse` is the residual form;
`make_mse_objective` builds the `Objective` the optimizers consume: the
quadratic's data (G, b, c) with `mse` as its exact score.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ingestion import ScoreMatrix


class Objective:
    """The quadratic f(w) = w'Gw - 2b'w + c over m weights, with its exact form.

    `gram` (G, m x m), `moment` (b, length m) and `offset` (c) are its data,
    and `dimension` (m) is len(moment).  `value`, `gradient` (2(Gw - b)) and
    `value_batch` (a (p, m) stack of points at once) read only them: they are
    what a search evaluates and compares.  `exact` is the reference form that
    scores a point for the report: every reported objective comes from it.
    `value`, `gradient` and `value_batch` may round differently from `exact`,
    so they only rank candidates.

    Any of the four may be replaced on an instance (a test fake, a timing
    wrapper); a search reaches them only through the instance's attributes.
    """

    def __init__(self, gram: np.ndarray, moment: np.ndarray, offset: float, exact: Callable[[np.ndarray], float]):
        self.gram = gram
        self.moment = moment
        self.offset = offset
        self.exact = exact
        self._twice_moment = 2.0 * moment

    @property
    def dimension(self) -> int:
        return len(self.moment)

    def value(self, w: np.ndarray) -> float:
        return float(w @ (self.gram @ w - self._twice_moment)) + self.offset

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.gram @ w - self.moment)

    def value_batch(self, ws: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", ws @ self.gram, ws) - 2.0 * (ws @ self.moment) + self.offset


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


def make_mse_objective(matrix: ScoreMatrix) -> Objective:
    """The MSE of one matrix as the quadratic f(w) = w'Gw - 2b'w + c.

    G = S'S/n, b = S'y/n and c = y'y/n are computed once here, so a search
    evaluation costs O(m^2) instead of O(n*m).  Its rounding error is a few
    ulps of w'Gw, not of f: the last digits where f is far from 0, but more
    than f itself near an exact fit.  `exact` is `mse` bound to the matrix,
    the residual form, and the only callable that reads its rows.
    """
    if matrix.n_samples == 0:
        raise ValueError("MSE undefined on an empty dataset")
    scores = matrix.scores
    labels = matrix.labels
    n = matrix.n_samples
    return Objective(
        gram=(scores.T @ scores) / n,
        moment=(scores.T @ labels) / n,
        offset=float(labels @ labels) / n,
        exact=partial(mse, matrix=matrix),
    )
