"""Ranking of fused scores and mean average precision at a cutoff.

Samples are grouped per video, ranked by fused score within each group, and
scored with AP@k against binary relevance.  MAP@k is the arithmetic mean of
the per-video AP values over videos that contain at least one relevant item;
videos with no relevant item cannot score and are excluded from the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingestion import Key, ScoreMatrix


class UndefinedMetricError(ValueError):
    """Every group has zero relevant items, so the mean AP has no terms."""


@dataclass
class RankedList:
    """One video's items sorted by fused score desc, ties by image_id asc."""

    group_id: str
    items: list[tuple[str, float, int]]  # (image_id, fused_score, relevance)


@dataclass
class EvalReport:
    map_at_k: float
    k: int
    per_group: list[tuple[str, float, int]]  # (video_id, ap_at_k, num_relevant)

    def to_dict(self) -> dict:
        return {
            "map_at_k": self.map_at_k,
            "k": self.k,
            "per_group": [
                {"video_id": vid, "ap_at_k": ap, "num_relevant": rel}
                for vid, ap, rel in self.per_group
            ],
        }


def _codes(values: Sequence, distinct: Sequence) -> np.ndarray:
    """Each value's position in `distinct`, as one integer per value."""
    index = {value: code for code, value in enumerate(distinct)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _rank_rows(keys: Sequence[Key], fused: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The videos in first-appearance order, each row's video code, and the rows ordered by
    video, fused score desc, image_id asc.  A NaN score has no place in that order."""
    nan = np.flatnonzero(np.isnan(fused))
    if nan.size:
        raise ValueError(f"fused score is NaN at row {nan[0]} {keys[nan[0]]}; its rank would depend on row order")
    vids = [vid for vid, _ in keys]
    iids = [iid for _, iid in keys]
    videos = list(dict.fromkeys(vids))
    vcode = _codes(vids, videos)
    return videos, vcode, np.lexsort((_codes(iids, sorted(set(iids))), -fused, vcode))


def _ap_at_k(rel: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """AP@k and R along the last axis of ranked 0/1 integer relevances (at least one column).

    AP@k = (1/min(R, k)) * sum of P@r over the relevant ranks r <= k, with R counted over the whole
    row; 0.0 where R == 0.  `cumsum` adds in rank order, bit-equal to a scalar loop over hits / r.
    """
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")
    num_relevant = rel.sum(axis=-1)
    top = rel[..., :k]
    hits = np.cumsum(top, axis=-1)
    prec = np.where(top == 1, hits / np.arange(1, top.shape[-1] + 1), 0.0)
    acc = np.cumsum(prec, axis=-1)[..., -1]
    return acc / np.maximum(np.minimum(num_relevant, k), 1), num_relevant


def rank(group: Sequence[tuple[str, float, int]], group_id: str = "") -> RankedList:
    """Order one group's items deterministically for precision-at-cutoff."""
    if not group:
        raise ValueError("cannot rank an empty group")
    for image_id, _, rel in group:
        if rel not in (0, 1):
            raise ValueError(f"relevance must be binary, got {rel!r} for {image_id!r}")
    keys = [(group_id, image_id) for image_id, _, _ in group]
    _, _, order = _rank_rows(keys, np.array([score for _, score, _ in group], dtype=np.float64))
    return RankedList(group_id, [group[i] for i in order.tolist()])


def average_precision_at_k(ranked: RankedList, k: int) -> float:
    """AP@k of one ranked list; 0.0 when it holds no relevant item.

    Such groups are excluded from the MAP mean by the caller.
    """
    rel = np.array([[rel for _, _, rel in ranked.items] or [0]], dtype=np.intp)  # empty: one irrelevant item
    return float(_ap_at_k(rel, k)[0][0])


def map_at_k(fused: np.ndarray | Sequence[float], matrix: ScoreMatrix, k: int = 10) -> EvalReport:
    """Rank every video's rows with one sort, and average their AP@k."""
    fused = np.asarray(fused, dtype=np.float64)
    if fused.shape != (matrix.n_samples,):
        raise ValueError(f"fused scores have shape {fused.shape}, expected ({matrix.n_samples},)")
    labels = matrix.labels
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise ValueError(f"relevance must be binary, got {labels[bad[0]]!r} for {matrix.sample_keys[bad[0]]}")

    videos, vcode, order = _rank_rows(matrix.sample_keys, fused)
    counts = np.bincount(vcode, minlength=len(videos))
    starts = np.cumsum(counts) - counts
    rel = np.zeros((len(videos), counts.max(initial=1)), dtype=np.intp)  # row v: video v's relevances in rank order
    rel[vcode[order], np.arange(len(order)) - np.repeat(starts, counts)] = labels[order]
    ap, num_relevant = _ap_at_k(rel, k)

    per_group = list(zip(videos, ap.tolist(), num_relevant.tolist()))
    included = [value for _, value, relevant in per_group if relevant >= 1]
    if not included:
        raise UndefinedMetricError("no group has a relevant item; MAP@k is undefined")
    return EvalReport(sum(included) / len(included), k, per_group)
