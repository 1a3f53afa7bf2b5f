"""Weighted-sum score fusion and the MSE objective used for weight search.

The combined score of a sample is the weighted sum of its m inducer scores;
the fitness of a weight vector is the mean squared error between the fused
scores and the ground-truth labels.  Both the objective and its closed-form
gradient are exposed, plus an `Objective` bundle consumed by the optimizers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ingestion import ScoreMatrix


@dataclass
class Objective:
    """A scalar objective over weight vectors.

    `value` must be pure.  `gradient` is optional and, when present, must be
    consistent with `value` under finite differences.  `value_batch` is an
    optional fast path evaluating a (p, m) stack of weight vectors at once;
    population methods fall back to row-by-row `value` calls without it.
    It may round differently from `value`, so it only ranks candidates:
    a reported objective always comes from `value`.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    value_batch: Callable[[np.ndarray], np.ndarray] | None = None


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
    err = fuse(weights, matrix) - matrix.labels
    return float(err @ err) / matrix.n_samples


def mse_gradient(weights: Sequence[float] | np.ndarray, matrix: ScoreMatrix) -> np.ndarray:
    """Gradient of `mse`: component j is (2/n) sum_i (fused_i - label_i) * scores_ij."""
    if matrix.n_samples == 0:
        raise ValueError("MSE gradient undefined on an empty dataset")
    err = fuse(weights, matrix) - matrix.labels
    return (2.0 / matrix.n_samples) * (matrix.scores.T @ err)


def make_mse_objective(matrix: ScoreMatrix) -> Objective:
    """Bundle MSE value, gradient, and a batched evaluator for one matrix.

    `value` and `gradient` use the residual form.  `value_batch` uses the
    sufficient statistics of the quadratic f(w) = w'Gw - 2b'w + c, with
    G = S'S/n, b = S'y/n and c = y'y/n, computed once here, so a batch of
    p points costs O(p*m^2) instead of O(p*n*m).  Its rounding error is a
    few ulps of w'Gw, not of f: the last digits where f is far from 0,
    but more than f itself near an exact fit, where `value` stays exact.
    """
    if matrix.n_samples == 0:
        raise ValueError("MSE undefined on an empty dataset")
    scores = matrix.scores
    labels = matrix.labels
    n = matrix.n_samples

    def value(w: np.ndarray) -> float:
        err = scores @ w - labels
        return float(err @ err) / n

    def gradient(w: np.ndarray) -> np.ndarray:
        err = scores @ w - labels
        return (2.0 / n) * (scores.T @ err)

    gram = (scores.T @ scores) / n
    moment = (scores.T @ labels) / n
    offset = float(labels @ labels) / n

    def value_batch(ws: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", ws @ gram, ws) - 2.0 * (ws @ moment) + offset

    return Objective(value=value, gradient=gradient, value_batch=value_batch)


def save_weights(path: str | Path, inducer_names: Sequence[str], weights: Sequence[float] | np.ndarray) -> None:
    """Persist a weight vector next to the inducer names it applies to."""
    w = _as_weights(weights, len(inducer_names))
    doc = {"inducer_names": list(inducer_names), "weights": [float(x) for x in w]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_weights(path: str | Path) -> tuple[list[str], np.ndarray]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    names = list(doc["inducer_names"])
    return names, _as_weights(doc["weights"], len(names))
