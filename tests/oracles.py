"""The tests' references and fixture builders, kept out of the package.

An oracle recomputes a result its own way and shares none of its
arithmetic with the package code it checks:

- `grid_oracle`: exhaustive MSE search over a lattice of the weight box;
- `ap_oracle`: AP@k straight from the definition, and `reference_map_at_k`,
  the per-row MAP@k that scores each video through it;
- `mse_gradient`: the gradient of the MSE in residual form;
- `optimize_ga`: ga's generation step with one draw per scalar it uses: a
  plain-Python tournament over each contender slate and one normal per
  mutated gene, drawn child by child and gene by gene.

Per-row versions of code that `src/` now runs column- or array-wise keep
the earlier implementation, its code unchanged but for names, docstrings
and comments, so tests can require the faster code to give the same
results bit for bit:

- `read_rows`, `parse_inducer_file` and `parse_ground_truth`: the CSV parser
  that checked one line at a time, which has since gained the one rule added
  to both parsers, that no id is empty;
- `optimize_pso`: the generation step before its draws were merged and its
  arithmetic was done in place, with the method's constants written as
  literals.

The parser decodes bytes as before, so it names the wrong line for invalid
UTF-8 after a break other than ``\\n``; compare it on valid text only.

A fixture builds test data and may call the package: `balanced_matrix`,
whose labels are balanced at random, and `random_score_matrix` from it, and
`planted_score_matrix` and `build_tables` from `synth.raw_matrix`, in
memory; `generate_perfect_inducer` and `small_disk_pair` on disk.
`golden_run` runs the compare whose artifacts `tests/golden/` holds.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import IO, Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from latefuse.cli import compare
from latefuse.evaluation import EvalReport
from latefuse.ingestion import (
    INDUCER_HEADER,
    TRUTH_HEADER,
    IngestionError,
    InducerTable,
    Key,
    ScoreMatrix,
    apply_minmax,
    fit_minmax,
)
from latefuse.optimizers import METHODS
from latefuse.optimizers.common import OptimizerReport, Search, evolve
from latefuse.synth import GeneratedDataset, SynthSpec, generate, raw_matrix, sample_keys, write_dataset

T = TypeVar("T")


def read_rows(
    source: IO[bytes] | IO[str], header: str, where: str, parse: Callable[[int, list[str], int], T]
) -> dict[Key, T]:
    data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise IngestionError(f"{where}: not valid UTF-8 at line {lineno}") from None
    lines = data.removeprefix("\ufeff").splitlines()
    if not lines:
        raise IngestionError(f"{where}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise IngestionError(f"{where}: bad header at line 1: {lines[0]!r}")

    columns = header.split(",")
    rows: dict[Key, T] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise IngestionError(f"{where}: expected {len(columns)} fields, got {len(fields)} at line {lineno}")
        vid, iid, flag, *rest = (f.strip() for f in fields)
        if flag not in ("0", "1"):
            raise IngestionError(f"{where}: {columns[2]} out of {{0,1}} at line {lineno}: {flag!r}")
        value = parse(int(flag), rest, lineno)
        for column, part in zip(columns, (vid, iid)):
            if not part:
                raise IngestionError(f"{where}: empty {column} at line {lineno}")
        key = (vid, iid)
        if key in rows:
            raise IngestionError(f"{where}: duplicate key {key} at line {lineno}")
        rows[key] = value
    return rows


def parse_inducer_file(source: IO[bytes] | IO[str], inducer_name: str, where: str | None = None) -> InducerTable:
    where = where or f"inducer {inducer_name!r}"

    def score(_: int, rest: list[str], lineno: int) -> float:
        try:
            value = float(rest[0])
        except ValueError:
            raise IngestionError(f"{where}: non-numeric score at line {lineno}: {rest[0]!r}") from None
        if not math.isfinite(value):
            raise IngestionError(f"{where}: non-finite score at line {lineno}: {rest[0]!r}")
        return value

    rows = read_rows(source, INDUCER_HEADER, where, score)
    return InducerTable(inducer_name, list(rows), np.array(list(rows.values()), dtype=np.float64))


def parse_ground_truth(source: IO[bytes] | IO[str], name: str = "ground truth") -> dict[Key, int]:
    return read_rows(source, TRUTH_HEADER, name, lambda label, rest, lineno: label)


def optimize_ga(search: Search) -> OptimizerReport:
    """ga's generation step one draw at a time: the contender draw names each contender by its
    rank in (fitness, population index) order, and a tournament goes to its lowest (fitness, index)."""
    pop_size = search.settings["population_size"]
    elite = 1
    m = search.dimension
    n_children = pop_size - elite

    def step(rng, population, fitness):
        ranked = sorted(range(pop_size), key=lambda i: (fitness[i], i))
        next_pop = np.empty_like(population)
        next_pop[:elite] = population[ranked[:elite]]

        contenders = rng.integers(0, pop_size, size=(2, n_children, 3))
        winners = [[0] * n_children for _ in range(2)]
        for slate in range(2):
            for child in range(n_children):
                drawn = [ranked[r] for r in contenders[slate, child]]
                winners[slate][child] = min(drawn, key=lambda i: (fitness[i], i))
        parents_a = population[winners[0]]
        parents_b = population[winners[1]]

        cross = rng.random(n_children) < 0.9
        take_b = rng.random((n_children, m)) < 0.5
        children = parents_a.copy()
        swap = cross[:, None] & take_b
        children[swap] = parents_b[swap]

        mutate = rng.random((n_children, m)) < 1.0 / m
        for child in range(n_children):
            for gene in range(m):
                if mutate[child, gene]:
                    children[child, gene] += rng.normal(0.0, 0.1)
        next_pop[elite:] = np.clip(children, 0.0, 1.0)
        return next_pop, search.value_batch(next_pop)

    return evolve(search, pop_size, step)


def optimize_pso(search: Search) -> OptimizerReport:
    positions = velocities = None

    def step(rng, pbest, pbest_values):
        nonlocal positions, velocities
        if positions is None:
            positions, velocities = pbest.copy(), np.zeros_like(pbest)
        r1 = rng.random(pbest.shape)
        r2 = rng.random(pbest.shape)
        velocities = (
            0.729 * velocities
            + 1.49445 * r1 * (pbest - positions)
            + 1.49445 * r2 * (search.best_x - positions)
        )
        np.clip(velocities, -1.0, 1.0, out=velocities)
        positions = np.clip(positions + velocities, 0.0, 1.0)

        values = search.value_batch(positions)
        better = values < pbest_values
        pbest[better] = positions[better]
        pbest_values[better] = values[better]
        return pbest, pbest_values

    return evolve(search, search.settings["swarm_size"], step)


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
        err = matrix.scores @ w - matrix.labels
        f = float(err @ err) / matrix.n_samples
        evaluations += 1
        if f < best_f:
            best_f = f
            best_w = w
    assert best_w is not None
    return GridResult(best_w, best_f, evaluations)


def ap_oracle(relevances: Sequence[int], k: int) -> float:
    """AP@k straight from the definition, with explicit loops."""
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


def reference_map_at_k(fused, matrix: ScoreMatrix, k: int = 10) -> EvalReport:
    """The per-row MAP@k that the array kernel replaced: a dict of tuples, a
    Python sort per video and `ap_oracle` per video.  Kept as the kernel's
    bit-exact reference."""
    fused = np.asarray(fused, dtype=np.float64)
    if fused.shape != (matrix.n_samples,):
        raise ValueError(f"fused scores have shape {fused.shape}, expected ({matrix.n_samples},)")
    if k < 1:
        raise ValueError(f"cutoff must be >= 1, got {k}")

    groups: dict[str, list[tuple[str, float, int]]] = {}
    order: list[str] = []
    for i, (vid, iid) in enumerate(matrix.sample_keys):
        label = matrix.labels[i]
        if label not in (0.0, 1.0):
            raise ValueError(f"relevance must be binary, got {label!r} for {(vid, iid)}")
        if vid not in groups:
            groups[vid] = []
            order.append(vid)
        groups[vid].append((iid, float(fused[i]), int(label)))

    per_group: list[tuple[str, float, int]] = []
    included: list[float] = []
    for vid in order:
        relevances = [r for _, _, r in sorted(groups[vid], key=lambda item: (-item[1], item[0]))]
        rel = sum(relevances)
        ap = ap_oracle(relevances, k)
        per_group.append((vid, ap, rel))
        if rel >= 1:
            included.append(ap)
    if not included:
        raise ValueError("no group has a relevant item; MAP@k is undefined")
    return EvalReport(sum(included) / len(included), k, per_group)


def mse_gradient(weights: Sequence[float] | np.ndarray, matrix: ScoreMatrix) -> np.ndarray:
    """Gradient of the MSE: component j is (2/n) sum_i (fused_i - label_i) * scores_ij."""
    err = matrix.scores @ np.asarray(weights, dtype=np.float64) - matrix.labels
    return (2.0 / matrix.n_samples) * (matrix.scores.T @ err)


def normalized(matrix: ScoreMatrix) -> ScoreMatrix:
    """Each column rescaled by its own min-max; a constant column maps to 0."""
    return apply_minmax(fit_minmax(matrix), matrix)


def balanced_matrix(n_samples: int, m_inducers: int, n_videos: int, seed: int, key_prefix: str = "") -> ScoreMatrix:
    """Raw matrix of uniform scores on [0, 1], labelled 1 at ceil(n/2) random rows; drawn in that order."""
    rng = np.random.default_rng(seed)
    width = len(str(m_inducers))
    names = [f"inducer_{j + 1:0{width}d}" for j in range(m_inducers)]
    scores = rng.uniform(0.0, 1.0, size=(n_samples, m_inducers))
    labels = np.zeros(n_samples)
    labels[: (n_samples + 1) // 2] = 1.0
    return ScoreMatrix(sample_keys(n_samples, n_videos, key_prefix), rng.permutation(labels), names, scores)


def random_score_matrix(n_samples: int, m_inducers: int, seed: int, n_videos: int = 1) -> ScoreMatrix:
    """Normalized matrix with balanced random binary labels."""
    return normalized(balanced_matrix(n_samples, m_inducers, n_videos, seed))


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
    matrix = normalized(raw_matrix(SynthSpec(n_samples, m_inducers, n_videos, seed, planted_weights=weights)))
    labels = matrix.scores @ np.asarray(weights, dtype=np.float64)
    if noise_sigma > 0:
        labels = labels + np.random.default_rng(seed + 1).normal(0.0, noise_sigma, size=n_samples)
    matrix.labels = labels
    return matrix


def build_tables(spec: SynthSpec) -> tuple[list[InducerTable], dict[Key, int]]:
    """A spec's dataset in memory: the inducer tables and the truth labels `assemble` takes."""
    matrix = raw_matrix(spec)
    keys = matrix.sample_keys
    tables = [InducerTable(name, keys, matrix.scores[:, j].copy()) for j, name in enumerate(matrix.inducer_names)]
    return tables, dict(zip(keys, matrix.labels.astype(int).tolist()))


def generate_perfect_inducer(
    n_samples: int, m_inducers: int, n_videos: int, seed: int, out_dir: str | Path, key_prefix: str = ""
) -> GeneratedDataset:
    """Dataset whose first inducer's scores equal the binary labels exactly.

    The basis vector on that inducer then fuses to the labels with zero MSE,
    giving a file-backed instance with known optimal objective value 0.
    """
    matrix = balanced_matrix(n_samples, m_inducers, n_videos, seed, key_prefix)
    matrix.scores[:, 0] = matrix.labels
    sidecar = {
        "n_samples": n_samples, "m_inducers": m_inducers, "n_videos": n_videos, "seed": seed,
        "key_prefix": key_prefix, "perfect_inducer": matrix.inducer_names[0],
    }
    return write_dataset(matrix, sidecar, out_dir)


def small_disk_pair(root: Path) -> tuple[GeneratedDataset, GeneratedDataset]:
    """The test suite's 150x5 dev and 60x5 test split under `root`, scored by one hidden weight vector."""
    w_star = np.random.default_rng(77).uniform(0.05, 1.0, size=5).tolist()
    dev = generate(SynthSpec(150, 5, 15, seed=11, planted_weights=w_star, key_prefix="d"), root / "dev")
    test = generate(SynthSpec(60, 5, 6, seed=12, planted_weights=w_star, key_prefix="t"), root / "test")
    return dev, test


# The artifacts of each method that `tests/golden/<method>/` keeps: the others hold paths or
# times, or repeat these.
GOLDEN_FILES = ("optimizer_report.json", "eval_report.json")


def golden_run(root: Path) -> Path:
    """`compare --methods all --seed 0` on `small_disk_pair` data under `root`; returns its output directory."""
    dev, test = small_disk_pair(root / "data")
    out = root / "out"
    compare(
        list(METHODS), [str(dev.inducer_paths[0].parent)], [str(test.inducer_paths[0].parent)],
        [str(dev.truth_path), str(test.truth_path)], out, seed=0,
    )
    return out
