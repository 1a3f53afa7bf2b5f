"""The committed golden run: `compare --methods all --seed 0` on the test suite's 150x5 data.

`tests/golden/<method>/` holds each method's optimizer_report.json and
eval_report.json, as `scripts/make_golden.py` wrote them.  A fresh run must
match them field for field:

- exactly: the method, seed and config, the evaluation counts, iterations,
  `converged`, the trace's iterations (so its length) and the whole
  evaluation, per-video AP and MAP;
- within rounding: the floats that BLAS computes.  Across OpenBLAS CPU
  kernels, dev MSE was seen to move by at most 2.8e-16 relative and the
  weights by at most 8e-12, so `best_objective` and the trace values get
  1e-14 relative, and `best_weights` 1e-10 absolute.

A change that alters an artifact on purpose regenerates the files.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from latefuse.optimizers import METHODS
from oracles import GOLDEN_FILES, golden_run

GOLDEN = Path(__file__).resolve().parent / "golden"

ROUNDED = ("best_objective", "best_weights", "trace")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_run(tmp_path_factory.mktemp("golden"))


def load(root: Path, method: str, name: str) -> dict:
    return json.loads((root / method / name).read_text(encoding="utf-8"))


def test_golden_files_cover_every_method():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(METHODS)
    assert all(sorted(p.name for p in (GOLDEN / m).iterdir()) == sorted(GOLDEN_FILES) for m in METHODS)


@pytest.mark.parametrize("method", list(METHODS))
def test_fresh_report_matches_the_golden_one(fresh, method):
    want = load(GOLDEN, method, "optimizer_report.json")
    got = load(fresh, method, "optimizer_report.json")
    assert list(got) == list(want)
    assert {k: v for k, v in got.items() if k not in ROUNDED} == {k: v for k, v in want.items() if k not in ROUNDED}
    assert [it for it, _ in got["trace"]] == [it for it, _ in want["trace"]]
    np.testing.assert_allclose(got["best_objective"], want["best_objective"], rtol=1e-14, atol=0)
    np.testing.assert_allclose([f for _, f in got["trace"]], [f for _, f in want["trace"]], rtol=1e-14, atol=0)
    np.testing.assert_allclose(got["best_weights"], want["best_weights"], rtol=0, atol=1e-10)


@pytest.mark.parametrize("method", list(METHODS))
def test_fresh_evaluation_matches_the_golden_one(fresh, method):
    assert load(fresh, method, "eval_report.json") == load(GOLDEN, method, "eval_report.json")
