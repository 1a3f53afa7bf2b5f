"""Synthetic inducer datasets with known structure, plus brute-force oracles.

The real CLEF inducer files are not redistributable, so tests and the
acceptance gate run on generated data: either files in the exact ingestion
formats, or in-memory matrices planted from a known weight vector so the
optimal objective value is known a priori.  The grid and AP oracles are
deliberately naive re-computations used to cross-check the fast paths.

Every dataset starts as one raw ``ScoreMatrix``.  ``build_tables`` splits it
into the types ``assemble`` takes, and ``generate`` writes its keys, scores
and labels straight to the CSV formats, with ``asdict(spec)`` as the sidecar.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import fusion
from .ingestion import (
    INDUCER_HEADER,
    TRUTH_HEADER,
    InducerTable,
    Key,
    ScoreMatrix,
    apply_minmax,
    fit_minmax,
)

LABEL_RULES = ("threshold_on_planted_fusion", "random_balanced")


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset; fully determined by the seed."""

    n_samples: int
    m_inducers: int
    n_videos: int
    seed: int
    planted_weights: Sequence[float] | None = None
    noise_sigma: float = 0.0
    label_rule: str = "threshold_on_planted_fusion"
    # Per-inducer raw ranges; None means every column is uniform on [0, 1].
    # Wider ranges (e.g. (-2, 5)) exercise the min-max normalization path.
    score_ranges: list[tuple[float, float]] | None = None
    # Prepended to every video/image id; lets dev and test keys stay disjoint.
    key_prefix: str = ""

    def __post_init__(self) -> None:
        if not (self.n_samples >= self.n_videos >= 1):
            raise ValueError("need n_samples >= n_videos >= 1")
        if self.m_inducers < 1:
            raise ValueError("need at least one inducer")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.label_rule not in LABEL_RULES:
            raise ValueError(f"label_rule must be one of {LABEL_RULES}")
        if self.label_rule == "threshold_on_planted_fusion" and self.planted_weights is None:
            raise ValueError("threshold_on_planted_fusion requires planted_weights")
        if self.planted_weights is not None:
            w = np.asarray(self.planted_weights, dtype=np.float64)
            if w.shape != (self.m_inducers,):
                raise ValueError("planted_weights length must equal m_inducers")
            if np.any(w < 0) or np.any(w > 1):
                raise ValueError("planted_weights must lie in [0, 1]")
            self.planted_weights = w.tolist()  # plain floats, so asdict(spec) is the JSON sidecar
        if self.score_ranges is not None and len(self.score_ranges) != self.m_inducers:
            raise ValueError("score_ranges length must equal m_inducers")


@dataclass
class GeneratedDataset:
    inducer_paths: list[Path]
    truth_path: Path
    sidecar_path: Path
    inducer_names: list[str] = field(default_factory=list)


def sample_keys(n_samples: int, n_videos: int, prefix: str = "") -> list[tuple[str, str]]:
    """Zero-padded ids whose lexicographic order equals generation order."""
    vid_width = max(2, len(str(n_videos)))
    img_width = max(4, len(str(n_samples)))
    base, extra = divmod(n_samples, n_videos)
    keys: list[tuple[str, str]] = []
    image = 0
    for v in range(n_videos):
        size = base + (1 if v < extra else 0)
        for _ in range(size):
            keys.append((f"{prefix}v{v:0{vid_width}d}", f"{prefix}i{image:0{img_width}d}"))
            image += 1
    return keys


def _raw_scores(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    scores = rng.uniform(0.0, 1.0, size=(spec.n_samples, spec.m_inducers))
    if spec.score_ranges is not None:
        for j, (lo, hi) in enumerate(spec.score_ranges):
            scores[:, j] = lo + scores[:, j] * (hi - lo)
    return scores


def _labels(spec: SynthSpec, normalized: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if spec.label_rule == "random_balanced":
        labels = np.zeros(spec.n_samples)
        labels[: (spec.n_samples + 1) // 2] = 1.0
        return rng.permutation(labels)
    w = np.asarray(spec.planted_weights, dtype=np.float64)
    fused = normalized @ w
    if spec.noise_sigma > 0:
        fused = fused + rng.normal(0.0, spec.noise_sigma, size=spec.n_samples)
    return (fused >= np.median(fused)).astype(np.float64)


def _normalized(matrix: ScoreMatrix) -> ScoreMatrix:
    """Each column rescaled by its own min-max; a constant column maps to 0."""
    return apply_minmax(fit_minmax(matrix), matrix)


def _raw_matrix(spec: SynthSpec) -> ScoreMatrix:
    """The dataset as one raw (unnormalized) matrix, rows in key order."""
    rng = np.random.default_rng(spec.seed)
    keys = sample_keys(spec.n_samples, spec.n_videos, spec.key_prefix)
    width = len(str(spec.m_inducers))
    names = [f"inducer_{j + 1:0{width}d}" for j in range(spec.m_inducers)]
    matrix = ScoreMatrix(keys, np.zeros(spec.n_samples), names, _raw_scores(spec, rng))
    # Normalize a private copy only to derive labels; files keep raw scores.
    matrix.labels = _labels(spec, _normalized(matrix).scores, rng)
    return matrix


def build_tables(spec: SynthSpec) -> tuple[list[InducerTable], dict[Key, int]]:
    """Materialize the dataset in memory: the inducer tables and the truth labels `assemble` takes."""
    matrix = _raw_matrix(spec)
    keys = matrix.sample_keys
    tables = [InducerTable(name, keys, matrix.scores[:, j].copy()) for j, name in enumerate(matrix.inducer_names)]
    return tables, dict(zip(keys, matrix.labels.astype(int).tolist()))


def _write_dataset(matrix: ScoreMatrix, sidecar: dict, out_dir: str | Path) -> GeneratedDataset:
    """Write the raw matrix as inducer CSVs, one truth CSV, and a JSON sidecar.

    Rows follow the matrix's key order and scores keep full precision.  An
    inducer's own binary call (its ``class`` column) is whether its score
    lies in the top half of its own range.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, header: str, *columns: list) -> Path:
        rows = (",".join(map(str, row)) for row in zip(*columns))
        path = out / name
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8", newline="\n")
        return path

    videos, images = zip(*matrix.sample_keys)
    calls = (_normalized(matrix).scores >= 0.5).astype(int)
    inducer_paths = [
        write(f"{name}.csv", INDUCER_HEADER, videos, images, calls[:, j].tolist(), matrix.scores[:, j].tolist())
        for j, name in enumerate(matrix.inducer_names)
    ]
    truth_path = write("ground_truth.csv", TRUTH_HEADER, videos, images, matrix.labels.astype(int).tolist())
    sidecar_path = out / "synth_spec.json"
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    return GeneratedDataset(inducer_paths, truth_path, sidecar_path, list(matrix.inducer_names))


def generate(spec: SynthSpec, out_dir: str | Path) -> GeneratedDataset:
    """Emit m inducer CSVs, one truth CSV, and a JSON sidecar echoing the generation recipe."""
    return _write_dataset(_raw_matrix(spec), asdict(spec), out_dir)


def generate_perfect_inducer(
    n_samples: int,
    m_inducers: int,
    n_videos: int,
    seed: int,
    out_dir: str | Path,
    key_prefix: str = "",
) -> GeneratedDataset:
    """Dataset whose first inducer's scores equal the binary labels exactly.

    The basis vector on that inducer then fuses to the labels with zero MSE,
    giving a file-backed instance with known optimal objective value 0.
    """
    spec = SynthSpec(
        n_samples=n_samples,
        m_inducers=m_inducers,
        n_videos=n_videos,
        seed=seed,
        label_rule="random_balanced",
        key_prefix=key_prefix,
    )
    matrix = _raw_matrix(spec)
    matrix.scores[:, 0] = matrix.labels
    sidecar = {**asdict(spec), "perfect_inducer": matrix.inducer_names[0]}
    return _write_dataset(matrix, sidecar, out_dir)


def planted_score_matrix(
    n_samples: int,
    m_inducers: int,
    weights: Sequence[float],
    seed: int,
    n_videos: int = 1,
    noise_sigma: float = 0.0,
) -> ScoreMatrix:
    """Normalized matrix whose labels are the planted fusion itself.

    With zero noise the optimal MSE over the weight box is exactly 0, reached
    at the planted vector, which makes the instance a convergence oracle.
    """
    spec = SynthSpec(
        n_samples=n_samples,
        m_inducers=m_inducers,
        n_videos=n_videos,
        seed=seed,
        planted_weights=weights,
    )
    matrix = _normalized(_raw_matrix(spec))
    rng = np.random.default_rng(spec.seed + 1)
    labels = fusion.fuse(np.asarray(weights, dtype=np.float64), matrix)
    if noise_sigma > 0:
        labels = labels + rng.normal(0.0, noise_sigma, size=n_samples)
    matrix.labels = labels
    return matrix


def random_score_matrix(
    n_samples: int, m_inducers: int, seed: int, n_videos: int = 1
) -> ScoreMatrix:
    """Normalized matrix with balanced random binary labels."""
    spec = SynthSpec(
        n_samples=n_samples,
        m_inducers=m_inducers,
        n_videos=n_videos,
        seed=seed,
        label_rule="random_balanced",
    )
    return _normalized(_raw_matrix(spec))


class GridResult(NamedTuple):
    weights: np.ndarray
    objective: float
    evaluations: int


def grid_oracle(matrix: ScoreMatrix, step: float) -> GridResult:
    """Exhaustive MSE minimization over the lattice {0, step, ..., 1}^m.

    Refuses m > 4 (cost grows as (1/step + 1)^m).  Ties break lexicographically
    because the lattice is scanned in lexicographic order with strict improvement.
    """
    m = matrix.n_inducers
    if m > 4:
        raise ValueError(f"grid oracle refuses m={m} > 4 (exhaustive cost)")
    if step <= 0 or step > 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    q = round(1.0 / step)
    if abs(q * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide 1 evenly")
    values = np.linspace(0.0, 1.0, q + 1)

    best_w: np.ndarray | None = None
    best_f = math.inf
    evaluations = 0
    for point in itertools.product(values, repeat=m):
        w = np.array(point)
        f = fusion.mse(w, matrix)
        evaluations += 1
        if f < best_f:
            best_f = f
            best_w = w
    assert best_w is not None
    return GridResult(best_w, best_f, evaluations)


def ap_oracle(relevances: Sequence[int], k: int) -> float:
    """AP@k straight from the definition, with explicit loops.

    Kept free of any code shared with the evaluation module so it can serve
    as an independent check.
    """
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")
    total_relevant = 0
    for rel in relevances:
        if rel == 1:
            total_relevant += 1
    if total_relevant == 0:
        return 0.0
    hits = 0
    acc = 0.0
    depth = k if k < len(relevances) else len(relevances)
    for r in range(1, depth + 1):
        if relevances[r - 1] == 1:
            hits += 1
            acc += hits / r
    normalizer = total_relevant if total_relevant < k else k
    return acc / normalizer
