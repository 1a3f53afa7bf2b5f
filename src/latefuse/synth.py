"""Synthetic inducer datasets with known structure.

The real CLEF inducer files are not redistributable, so
``scripts/make_synth_data.py`` and the tests run on generated data.  A
`SynthSpec` fixes a dataset by its seed: raw scores uniform on [0, 1] and
binary labels thresholded from a planted weighted sum.

``raw_matrix`` builds the dataset as one raw ``ScoreMatrix``, rows in key
order.  ``write_dataset`` writes such a matrix in the exact ingestion
formats, and ``generate`` writes a spec's matrix with ``asdict(spec)`` as
the sidecar.  The tests' fixtures and oracles are in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingestion import INDUCER_HEADER, TRUTH_HEADER, ScoreMatrix, apply_minmax, fit_minmax


@dataclass
class SynthSpec:
    """Recipe for one synthetic dataset; fully determined by the seed."""

    n_samples: int
    m_inducers: int
    n_videos: int
    seed: int
    planted_weights: Sequence[float]
    noise_sigma: float = 0.0
    # Prepended to every video/image id; lets dev and test keys stay disjoint.
    key_prefix: str = ""

    def __post_init__(self) -> None:
        if not (self.n_samples >= self.n_videos >= 1):
            raise ValueError("need n_samples >= n_videos >= 1")
        if self.m_inducers < 1:
            raise ValueError("need at least one inducer")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        w = np.asarray(self.planted_weights, dtype=np.float64)
        if w.shape != (self.m_inducers,):
            raise ValueError("planted_weights length must equal m_inducers")
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("planted_weights must lie in [0, 1]")
        self.planted_weights = w.tolist()  # plain floats, so asdict(spec) is the JSON sidecar


@dataclass
class GeneratedDataset:
    inducer_paths: list[Path]
    truth_path: Path
    sidecar_path: Path


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


def _normalized(matrix: ScoreMatrix) -> ScoreMatrix:
    """Each column rescaled by its own min-max; a constant column maps to 0."""
    return apply_minmax(fit_minmax(matrix), matrix)


def raw_matrix(spec: SynthSpec) -> ScoreMatrix:
    """The dataset as one raw (unnormalized) matrix, rows in key order."""
    rng = np.random.default_rng(spec.seed)
    keys = sample_keys(spec.n_samples, spec.n_videos, spec.key_prefix)
    width = len(str(spec.m_inducers))
    names = [f"inducer_{j + 1:0{width}d}" for j in range(spec.m_inducers)]
    scores = rng.uniform(0.0, 1.0, size=(spec.n_samples, spec.m_inducers))
    matrix = ScoreMatrix(keys, np.zeros(spec.n_samples), names, scores)
    # Normalize a private copy only to derive labels; files keep raw scores.
    fused = _normalized(matrix).scores @ np.asarray(spec.planted_weights, dtype=np.float64)
    if spec.noise_sigma > 0:
        fused = fused + rng.normal(0.0, spec.noise_sigma, size=spec.n_samples)
    matrix.labels = (fused >= np.median(fused)).astype(np.float64)
    return matrix


def write_dataset(matrix: ScoreMatrix, sidecar: dict, out_dir: str | Path) -> GeneratedDataset:
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
    return GeneratedDataset(inducer_paths, truth_path, sidecar_path)


def generate(spec: SynthSpec, out_dir: str | Path) -> GeneratedDataset:
    """Emit m inducer CSVs, one truth CSV, and a JSON sidecar echoing the generation recipe."""
    return write_dataset(raw_matrix(spec), asdict(spec), out_dir)
