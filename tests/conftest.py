import numpy as np
import pytest
from hypothesis import settings

from latefuse.fusion import Objective
from latefuse.synth import SynthSpec, generate

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def quadratic(gram, moment, offset):
    """The objective w'Gw - 2b'w + c of the given data, whose exact form is its own `value`.

    A test that needs the forms to disagree replaces an attribute on the
    instance, as the benchmark's timing wrappers do.
    """
    objective = Objective(np.asarray(gram, dtype=float), np.asarray(moment, dtype=float), float(offset), None)
    objective.exact = objective.value
    return objective


@pytest.fixture
def planted_500x5():
    """Noiseless planted instance; the optimum objective value is exactly 0."""
    from latefuse.synth import planted_score_matrix

    w_star = np.array([0.9, 0.1, 0.5, 0.7, 0.3])
    return planted_score_matrix(500, 5, w_star, seed=7)


@pytest.fixture
def dataset_pair(tmp_path):
    """On-disk dev/test dataset pair with a shared hidden weight vector."""
    w_star = np.random.default_rng(123).uniform(0.05, 1.0, size=4).tolist()
    dev = generate(
        SynthSpec(80, 4, 8, seed=1, planted_weights=w_star, key_prefix="d"),
        tmp_path / "dev",
    )
    test = generate(
        SynthSpec(40, 4, 4, seed=2, planted_weights=w_star, key_prefix="t"),
        tmp_path / "test",
    )
    return dev, test


@pytest.fixture
def run_on_pair(dataset_pair, tmp_path):
    """Run one method end to end on `dataset_pair`: returns its RunResult and output directory."""
    from latefuse.cli import RunManifest, run

    dev, test = dataset_pair

    def go(method, **fields):
        out = tmp_path / "run"
        manifest = RunManifest(
            method=method,
            dev_paths=[str(dev.inducer_paths[0].parent)],
            test_paths=[str(test.inducer_paths[0].parent)],
            truth_paths=[str(dev.truth_path), str(test.truth_path)],
            out_dir=str(out),
            **fields,
        )
        return run(manifest), out

    return go
