"""Metamorphic relations at the command line: input changes whose effect on the artifacts is known.

Each relation changes the test suite's 150x5 data on disk, runs `compare` over
every method in process, and compares the artifacts with those of one base
compare on the unchanged data.  `manifest.json` records the input paths and
the summaries' `wall_time` is a clock reading, so neither is compared; the
summaries' other fields are compared exactly, and every other artifact of
every method byte for byte.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from latefuse.cli import GROUND_TRUTH_BASENAME, compare
from latefuse.optimizers import METHODS
from oracles import small_disk_pair


def _compare(data: Path, out: Path, truth_paths: list[Path]) -> dict:
    """`compare` over every method on `data`'s dev/ and test/; returns what is compared of each artifact."""
    compare(list(METHODS), [str(data / "dev")], [str(data / "test")], [str(p) for p in truth_paths], out)
    paths = [p for p in sorted(out.rglob("*.*")) if p.name != "manifest.json"]
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in paths}
    csv, rows = files.pop("summary.csv").decode(), json.loads(files.pop("summary.json"))
    files["summary.csv"] = [line.rpartition(",")[0] for line in csv.splitlines()]  # wall_time is last
    files["summary.json"] = [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]
    return files


def _default_truth(data: Path) -> list[Path]:
    return [data / "dev" / GROUND_TRUTH_BASENAME, data / "test" / GROUND_TRUTH_BASENAME]


def _read(path: Path) -> tuple[str, list[str]]:
    header, *rows = path.read_text().splitlines()
    return header, rows


def _write(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The unchanged data's directory and the artifacts of one compare on it."""
    root = tmp_path_factory.mktemp("metamorphic")
    small_disk_pair(root / "data")
    return root / "data", _compare(root / "data", root / "out", _default_truth(root / "data"))


@pytest.fixture
def data(base, tmp_path):
    """A copy of the base data, for one relation to change."""
    shutil.copytree(base[0], tmp_path / "data")
    return tmp_path / "data"


def test_mr3_a_test_video_without_relevant_images_only_adds_its_eval_row(base, data, tmp_path):
    """MAP@k averages over the videos with a relevant image, so a video without one changes no score."""
    added = "tv99"
    for j, path in enumerate(sorted((data / "test").glob("*.csv"))):
        header, rows = _read(path)
        if path.name == GROUND_TRUTH_BASENAME:
            extra = [f"{added},ti99{i:02d},0" for i in range(4)]
        else:
            extra = [f"{added},ti99{i:02d},{i % 2},{(i + j) / 10!r}" for i in range(4)]
        _write(path, header, rows + extra)

    got = _compare(data, tmp_path / "out", _default_truth(data))
    assert got.keys() == base[1].keys()
    for name, expected in base[1].items():
        if name.endswith("eval_report.csv"):
            lines = got[name].splitlines(keepends=True)
            kept = [line for line in lines if not line.startswith(added.encode())]
            assert kept == expected.splitlines(keepends=True), name
            assert len(lines) == len(kept) + 1, name
        elif name.endswith("eval_report.json"):
            report = json.loads(got[name])
            rows = report["per_group"]
            report["per_group"] = [row for row in rows if row["video_id"] != added]
            assert report == json.loads(expected), name
            assert len(rows) == len(report["per_group"]) + 1, name
        else:
            assert got[name] == expected, name  # the summaries' MAP@k included


def test_mr5_splitting_the_truth_files_changes_no_byte(base, data, tmp_path):
    """Truth files are merged by key, so each one split at its middle reads as the whole."""
    (data / "truth").mkdir()
    truth_paths = []
    for split in ("dev", "test"):
        header, rows = _read(data / split / GROUND_TRUTH_BASENAME)
        (data / split / GROUND_TRUTH_BASENAME).unlink()
        half = len(rows) // 2
        for part, part_rows in (("a", rows[:half]), ("b", rows[half:])):
            truth_paths.append(data / "truth" / f"{split}_{part}.csv")
            _write(truth_paths[-1], header, part_rows)

    assert _compare(data, tmp_path / "out", truth_paths) == base[1]


def test_mr6_shuffling_the_rows_of_every_file_changes_no_byte(base, data, tmp_path):
    """Every file is read by key, so the order of its rows carries nothing."""
    rng = np.random.default_rng(6)
    for path in sorted(data.glob("*/*.csv")):
        header, rows = _read(path)
        order = rng.permutation(len(rows))
        assert (order != np.arange(len(rows))).any()
        _write(path, header, [rows[i] for i in order])

    assert _compare(data, tmp_path / "out", _default_truth(data)) == base[1]
