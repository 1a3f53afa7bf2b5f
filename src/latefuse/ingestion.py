"""Parsing and alignment of inducer score files into a normalized score matrix.

Between the files and the matrix everything is plain data: an inducer file
parses into an ``InducerTable``, the truth files into one
``{(video_id, image_id): label}`` dict, and ``fit_minmax`` returns each
inducer's ``(min, max)`` by name, the dict that ``apply_minmax`` applies.
Every fault of the files raises ``IngestionError``, and a file read by
path is named by that path in its message.

An inducer file is a UTF-8 CSV headed ``video_id,image_id,class,score``, a
ground-truth file one headed ``video_id,image_id,label``; the README's "Data
format" section states exactly what the parser accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, Sequence

import numpy as np

INDUCER_HEADER = "video_id,image_id,class,score"
TRUTH_HEADER = "video_id,image_id,label"

Key = tuple[str, str]


class IngestionError(Exception):
    """Anything wrong between files and matrix: a bad line, a repeated key, a key set mismatch, a missing label."""


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
    source: IO[bytes] | IO[str], header: str, where: str
) -> tuple[list[Key], list[str], np.ndarray]:
    """Each row's key, third column ("0" or "1") and, under an inducer header, score, in file order.

    One columnar pass: one leading U+FEFF (a UTF-8 byte-order mark) is
    dropped, blank lines are skipped and each check reads a whole column.
    Raises IngestionError naming the first faulty line.
    An id that is empty after stripping is a fault of its line.
    """
    data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # the bad byte's line, by the splitlines rule
            lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise IngestionError(f"{where}: not valid UTF-8 at line {lineno}") from None
    lines = data.removeprefix("\ufeff").splitlines()
    if not lines:
        raise IngestionError(f"{where}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise IngestionError(f"{where}: bad header at line 1: {lines[0]!r}")

    # A fault is (row, what, detail).  Each check reads only the rows before the last fault
    # found (`flags` is cut there), so that fault is the first line's, and in a line the earlier check's.
    n = header.count(",") + 1
    rows = list(filter(None, map(str.strip, lines[1:])))
    fault = None
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(n - 1) != len(rows):
        i = next(i for i, c in enumerate(commas) if c != n - 1)
        fault, rows = (i, f"expected {n} fields, got {commas[i] + 1}", ""), rows[:i]
    cells = list(map(str.strip, ",".join(rows).split(","))) if rows else []
    flags = cells[2::n]
    if not {"0", "1"}.issuperset(flags):
        i = next(i for i, flag in enumerate(flags) if flag not in ("0", "1"))
        fault, flags = (i, header.split(",")[2] + " out of {0,1}", f": {flags[i]!r}"), flags[:i]
    tokens = cells[3 : n * len(flags) : n] if n == 4 else []
    numbers: list[float] = []
    try:
        numbers.extend(map(float, tokens))  # keeps the numbers before a token that is not one
    except ValueError:
        i = len(numbers)
        fault, flags = (i, "non-numeric score", f": {tokens[i]!r}"), flags[:i]
    scores = np.array(numbers, dtype=np.float64)
    if not (finite := np.isfinite(scores)).all():
        i = int(finite.argmin())
        fault, flags = (i, "non-finite score", f": {tokens[i]!r}"), flags[:i]
    end = n * len(flags)
    keys = list(zip(cells[0:end:n], cells[1:end:n]))
    if "" in cells[0:end:n] or "" in cells[1:end:n]:  # fresh slices: kept ones would raise the memory peak
        i = next(i for i, key in enumerate(keys) if "" in key)
        fault, keys = (i, "empty " + ("image_id" if keys[i][0] else "video_id"), ""), keys[:i]
    if len(set(keys)) != len(keys):
        first: dict[Key, int] = {}
        i = next(i for i, key in enumerate(keys) if first.setdefault(key, i) != i)
        fault = (i, f"duplicate key {keys[i]}", "")
    if fault is not None:
        i, what, detail = fault
        lineno = [no for no, line in enumerate(lines[1:], start=2) if line.strip()][i]
        raise IngestionError(f"{where}: {what} at line {lineno}{detail}")
    return keys, flags, scores


def parse_inducer_file(
    source: IO[bytes] | IO[str], inducer_name: str, where: str | None = None
) -> InducerTable:
    """Parse one inducer CSV into an InducerTable, in file order.

    The ``class`` column is validated, then dropped: nothing downstream
    reads it.  Errors name `where`, by default the inducer.
    """
    keys, _, scores = _read_rows(source, INDUCER_HEADER, where or f"inducer {inducer_name!r}")
    return InducerTable(inducer_name, keys, scores)


def parse_ground_truth(source: IO[bytes] | IO[str], name: str = "ground truth") -> dict[Key, int]:
    """Parse a ground-truth CSV into its labels by key; every key must be unique."""
    keys, labels, _ = _read_rows(source, TRUTH_HEADER, name)
    return dict(zip(keys, map(int, labels)))


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
                raise IngestionError(f"key {key} of truth file {path} already appears in {first}")
            merged[key] = label
        loaded.append((path, labels))
    return merged


def assemble(tables: Sequence[InducerTable], truth: dict[Key, int]) -> ScoreMatrix:
    """Align m inducer tables and the truth labels into one matrix.

    Rows are sorted by (video_id, image_id) so two ingestions of the same
    files are identical regardless of record order in the sources.
    """
    if not tables:
        raise IngestionError("need at least one inducer table")

    reference = set(tables[0].keys)
    for table in tables[1:]:
        diff = reference.symmetric_difference(table.keys)
        if diff:
            offending = sorted(diff)[:10]
            raise IngestionError(
                f"inducers {tables[0].inducer_name!r} and {table.inducer_name!r} "
                f"disagree on {len(diff)} keys, e.g. {offending}"
            )

    missing = reference.difference(truth)
    if missing:
        offending = sorted(missing)[:10]
        raise IngestionError(f"{len(missing)} keys missing from ground truth, e.g. {offending}")

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
