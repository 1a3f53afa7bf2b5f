"""Parsing and alignment of inducer score files into a normalized score matrix.

Between the files and the matrix everything is plain data: an inducer file
parses into an ``InducerTable``, the truth files into one
``{(video_id, image_id): label}`` dict, and ``fit_minmax`` returns each
inducer's ``(min, max)`` by name, the dict that ``apply_minmax`` applies.
A file read by path is named by that path in its parse errors.

File formats
------------
Inducer file: UTF-8 CSV with header ``video_id,image_id,class,score``, one
record per line, LF line endings.  ``class`` is the inducer's own binary
prediction and is validated but not used downstream; ``score`` is the raw
(possibly out-of-range) interestingness prediction.

Ground-truth file: UTF-8 CSV with header ``video_id,image_id,label`` where
``label`` is the binary relevance judgment.

Either file may start with one UTF-8 byte-order mark, which is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Sequence, TypeVar

import numpy as np

INDUCER_HEADER = "video_id,image_id,class,score"
TRUTH_HEADER = "video_id,image_id,label"

Key = tuple[str, str]
T = TypeVar("T")


class IngestionError(Exception):
    """Base class for everything that can go wrong between files and matrix."""


class ParseError(IngestionError):
    """Malformed line; message carries the 1-based line number."""


class DuplicateKeyError(IngestionError):
    """A (video_id, image_id) pair appeared twice in one source."""


class AlignmentError(IngestionError):
    """Inducer tables do not cover an identical key set."""


class MissingLabelError(IngestionError):
    """A sample has scores but no ground-truth label."""


@dataclass
class InducerTable:
    """One inducer's scores in file order: ``scores[i]`` belongs to ``keys[i]``."""

    inducer_name: str
    keys: list[Key]
    scores: np.ndarray  # (n,) float64, raw

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class ScoreMatrix:
    """n samples x m inducers, rows in lexicographic (video_id, image_id) order."""

    sample_keys: list[Key]
    labels: np.ndarray  # (n,) float64; binary when built from files
    inducer_names: list[str]
    scores: np.ndarray  # (n, m) float64

    @property
    def n_samples(self) -> int:
        return len(self.sample_keys)

    @property
    def n_inducers(self) -> int:
        return len(self.inducer_names)


def _read_rows(
    source: IO[bytes] | IO[str], header: str, where: str, parse: Callable[[int, list[str], int], T]
) -> dict[Key, T]:
    """Each row's key and `parse(0/1 third column, later fields, lineno)`, in file order.

    One leading U+FEFF (a UTF-8 byte-order mark) is dropped, and blank lines
    are skipped.  Raises ParseError naming the offending line, or
    DuplicateKeyError when a (video_id, image_id) pair repeats.
    """
    data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"{where}: not valid UTF-8 at line {lineno}") from None
    lines = data.removeprefix("\ufeff").splitlines()
    if not lines:
        raise ParseError(f"{where}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise ParseError(f"{where}: bad header at line 1: {lines[0]!r}")

    columns = header.split(",")
    rows: dict[Key, T] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ParseError(f"{where}: expected {len(columns)} fields, got {len(fields)} at line {lineno}")
        vid, iid, flag, *rest = (f.strip() for f in fields)
        if flag not in ("0", "1"):
            raise ParseError(f"{where}: {columns[2]} out of {{0,1}} at line {lineno}: {flag!r}")
        value = parse(int(flag), rest, lineno)
        key = (vid, iid)
        if key in rows:
            raise DuplicateKeyError(f"{where}: duplicate key {key} at line {lineno}")
        rows[key] = value
    return rows


def parse_inducer_file(
    source: IO[bytes] | IO[str], inducer_name: str, where: str | None = None
) -> InducerTable:
    """Parse one inducer CSV into an InducerTable, in file order.

    The ``class`` column is validated, then dropped: nothing downstream
    reads it.  Raises ParseError (naming `where`, by default the inducer,
    and the offending line), or DuplicateKeyError when a (video_id,
    image_id) pair repeats.
    """
    where = where or f"inducer {inducer_name!r}"

    def score(_: int, rest: list[str], lineno: int) -> float:
        try:
            value = float(rest[0])
        except ValueError:
            raise ParseError(f"{where}: non-numeric score at line {lineno}: {rest[0]!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: non-finite score at line {lineno}: {rest[0]!r}")
        return value

    rows = _read_rows(source, INDUCER_HEADER, where, score)
    return InducerTable(inducer_name, list(rows), np.array(list(rows.values()), dtype=np.float64))


def parse_ground_truth(source: IO[bytes] | IO[str], name: str = "ground truth") -> dict[Key, int]:
    """Parse a ground-truth CSV into its labels by key; every key must be unique."""
    return _read_rows(source, TRUTH_HEADER, name, lambda label, rest, lineno: label)


def read_inducer_csv(path: str | Path) -> InducerTable:
    """Read an inducer file; the file stem becomes the inducer name, and errors name the path."""
    path = Path(path)
    with path.open("rb") as fh:
        return parse_inducer_file(fh, path.stem, where=str(path))


def load_ground_truth(paths: Sequence[str | Path]) -> dict[Key, int]:
    """Merge one or more truth files; a key repeated across files is an error naming both files."""
    merged: dict[Key, int] = {}
    loaded: list[tuple[Path, dict[Key, int]]] = []
    for path in paths:
        path = Path(path)
        with path.open("rb") as fh:
            labels = parse_ground_truth(fh, name=str(path))
        for key, label in labels.items():
            if key in merged:
                first = next(earlier for earlier, seen in loaded if key in seen)
                raise DuplicateKeyError(f"key {key} of truth file {path} already appears in {first}")
            merged[key] = label
        loaded.append((path, labels))
    return merged


def assemble(tables: Sequence[InducerTable], truth: dict[Key, int]) -> ScoreMatrix:
    """Align m inducer tables and the truth labels into one matrix.

    Rows are sorted by (video_id, image_id) so two ingestions of the same
    files are identical regardless of record order in the sources.
    """
    if not tables:
        raise AlignmentError("need at least one inducer table")

    reference = set(tables[0].keys)
    for table in tables[1:]:
        diff = reference.symmetric_difference(table.keys)
        if diff:
            offending = sorted(diff)[:10]
            raise AlignmentError(
                f"inducers {tables[0].inducer_name!r} and {table.inducer_name!r} "
                f"disagree on {len(diff)} keys, e.g. {offending}"
            )

    missing = reference.difference(truth)
    if missing:
        offending = sorted(missing)[:10]
        raise MissingLabelError(f"{len(missing)} keys missing from ground truth, e.g. {offending}")

    keys = sorted(reference)
    index = {key: row for row, key in enumerate(keys)}
    n, m = len(keys), len(tables)
    scores = np.empty((n, m), dtype=np.float64)
    for col, table in enumerate(tables):
        rows = np.fromiter(map(index.__getitem__, table.keys), dtype=np.intp, count=len(table))
        scores[rows, col] = table.scores
    labels = np.fromiter(map(truth.__getitem__, keys), dtype=np.float64, count=n)
    return ScoreMatrix(keys, labels, [t.inducer_name for t in tables], scores)


def fit_minmax(matrix: ScoreMatrix) -> dict[str, tuple[float, float]]:
    """Per-column (min, max) over all rows of the fitting split, by inducer name."""
    if matrix.n_samples < 1:
        raise ValueError("cannot fit normalization on an empty matrix")
    mins = matrix.scores.min(axis=0).tolist()
    maxs = matrix.scores.max(axis=0).tolist()
    return dict(zip(matrix.inducer_names, zip(mins, maxs)))


def apply_minmax(ranges: dict[str, tuple[float, float]], matrix: ScoreMatrix) -> ScoreMatrix:
    """Rescale each column to [0,1] with its inducer's fitted range, clamping overshoot.

    A degenerate column (min == max) maps to all zeros, neutralizing that
    inducer instead of dividing by zero.  Raises ValueError when an inducer
    has no range, or its range has min > max or a span max - min that is not
    finite (two finite ends can overflow it).
    """
    out = np.empty_like(matrix.scores)
    for j, name in enumerate(matrix.inducer_names):
        if name not in ranges:
            raise ValueError(f"no normalization range for inducer {name!r}")
        lo, hi = ranges[name]
        if lo > hi:
            raise ValueError(f"normalization range for {name!r} has min > max")
        if not math.isfinite(hi - lo):
            raise ValueError(
                f"normalization range for {name!r} is too wide: max - min overflows ({lo!r} to {hi!r})"
            )
        if hi == lo:
            out[:, j] = 0.0
        else:
            out[:, j] = np.clip((matrix.scores[:, j] - lo) / (hi - lo), 0.0, 1.0)
    return ScoreMatrix(
        list(matrix.sample_keys),
        matrix.labels.copy(),
        list(matrix.inducer_names),
        out,
    )
