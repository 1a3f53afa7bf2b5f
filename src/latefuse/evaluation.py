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

from .ingestion import ScoreMatrix


@dataclass
class EvalReport:
    map_at_k: float
    k: int
    per_group: list[tuple[str, float, int]]  # (video_id, ap_at_k, num_relevant)


def _codes(values: Sequence, distinct: Sequence) -> np.ndarray:
    """Each value's position in `distinct`, as one integer per value."""
    index = {value: code for code, value in enumerate(distinct)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _ap_at_k(rel: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """AP@k and R along the last axis of ranked 0/1 integer relevances (at least one column).

    AP@k = (1/min(R, k)) * sum of P@r over the relevant ranks r <= k, with R counted over the whole
    row; 0.0 where R == 0.  `cumsum` adds in rank order, bit-equal to a scalar loop over hits / r.
    """
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")
    k = min(k, rel.shape[-1])  # R <= row length, so min(R, k) is unchanged, and k fits a C long
    num_relevant = rel.sum(axis=-1)
    top = rel[..., :k]
    hits = np.cumsum(top, axis=-1)
    prec = np.where(top == 1, hits / np.arange(1, top.shape[-1] + 1), 0.0)
    acc = np.cumsum(prec, axis=-1)[..., -1]
    return acc / np.maximum(np.minimum(num_relevant, k), 1), num_relevant


def map_at_k(fused: np.ndarray | Sequence[float], matrix: ScoreMatrix, k: int = 10) -> EvalReport:
    """Rank every video's rows with one sort, and average their AP@k.

    Rows are ordered by video, fused score desc, image_id asc; a NaN score has
    no place in that order and is rejected.  `per_group` lists the videos in
    the order they first appear in the matrix's rows; `assemble` sorts rows
    by key, so a file-built matrix lists them by video_id.
    """
    fused = np.asarray(fused, dtype=np.float64)
    if fused.shape != (matrix.n_samples,):
        raise ValueError(f"fused scores have shape {fused.shape}, expected ({matrix.n_samples},)")
    keys, labels = matrix.sample_keys, matrix.labels
    bad = np.flatnonzero((labels != 0.0) & (labels != 1.0))
    if bad.size:
        raise ValueError(f"relevance must be binary, got {float(labels[bad[0]])} for {keys[bad[0]]}")

    nan = np.flatnonzero(np.isnan(fused))
    if nan.size:
        raise ValueError(f"fused score is NaN at row {nan[0]} {keys[nan[0]]}; its rank would depend on row order")
    vids = [vid for vid, _ in keys]
    iids = [iid for _, iid in keys]
    videos = list(dict.fromkeys(vids))
    vcode = _codes(vids, videos)
    order = np.lexsort((_codes(iids, sorted(set(iids))), -fused, vcode))
    counts = np.bincount(vcode, minlength=len(videos))
    starts = np.cumsum(counts) - counts
    rel = np.zeros((len(videos), counts.max(initial=1)), dtype=np.intp)  # row v: video v's relevances in rank order
    rel[vcode[order], np.arange(len(order)) - np.repeat(starts, counts)] = labels[order]
    ap, num_relevant = _ap_at_k(rel, k)

    per_group = list(zip(videos, ap.tolist(), num_relevant.tolist()))
    included = [value for _, value, relevant in per_group if relevant >= 1]
    if not included:
        raise ValueError("no group has a relevant item; MAP@k is undefined")
    return EvalReport(sum(included) / len(included), k, per_group)
