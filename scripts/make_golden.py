#!/usr/bin/env python
"""Regenerate tests/golden/ from `compare --methods all --seed 0` on the test suite's 150x5 data.

For each method, tests/golden/<method>/ gets the run's optimizer_report.json
and eval_report.json.  Run it from the repository root after a change that
alters an artifact on purpose, and name the change in CHANGES.md, since the
files are test data:

    PYTHONPATH=src python3 scripts/make_golden.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from oracles import GOLDEN_FILES, golden_run  # noqa: E402  (the tests' data builders)


def main() -> int:
    golden = ROOT / "tests" / "golden"
    with tempfile.TemporaryDirectory() as tmp:
        out = golden_run(Path(tmp))
        shutil.rmtree(golden, ignore_errors=True)
        for method in sorted(p.name for p in out.iterdir() if p.is_dir()):
            (golden / method).mkdir(parents=True)
            for name in GOLDEN_FILES:
                shutil.copyfile(out / method / name, golden / method / name)
    print(f"wrote {golden}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
