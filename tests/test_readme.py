"""The README's library examples run as written, so the docs cannot name a function that is gone."""

import re
from pathlib import Path

import numpy as np

from latefuse.synth import SynthSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    """The ```python blocks under "## Library use", in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_use_blocks_run_in_order(tmp_path, monkeypatch):
    # the blocks read data/dev and data/test, with files inducer_01 to inducer_29
    w_star = np.random.default_rng(29).uniform(0.05, 1.0, size=29).tolist()
    generate(SynthSpec(120, 29, 12, seed=1, planted_weights=w_star, key_prefix="d"), tmp_path / "data" / "dev")
    generate(SynthSpec(60, 29, 6, seed=2, planted_weights=w_star, key_prefix="t"), tmp_path / "data" / "test")
    monkeypatch.chdir(tmp_path)

    blocks = library_use_blocks()
    assert blocks, "no python block under '## Library use'"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, library block {i}", "exec"), namespace)
