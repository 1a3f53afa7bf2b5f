import json
import math
import runpy
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from latefuse.fusion import fuse, mse
from latefuse.ingestion import InducerTable, assemble, load_ground_truth, read_inducer_csv
from latefuse.synth import SynthSpec, generate, raw_matrix, sample_keys, write_dataset
from oracles import (
    ap_oracle,
    balanced_matrix,
    build_tables,
    generate_perfect_inducer,
    grid_oracle,
    planted_score_matrix,
    random_score_matrix,
)


def read_back(dataset):
    tables = [read_inducer_csv(p) for p in dataset.inducer_paths]
    truth = load_ground_truth([dataset.truth_path])
    return assemble(tables, truth)


# ---------------------------------------------------------------- spec validation

def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError, match="n_samples >= n_videos"):
        SynthSpec(n_samples=3, m_inducers=2, n_videos=5, seed=0, planted_weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="at least one inducer"):
        SynthSpec(n_samples=5, m_inducers=0, n_videos=1, seed=0, planted_weights=[])


def test_spec_requires_weights_for_threshold_rule():
    with pytest.raises(TypeError, match="planted_weights"):
        SynthSpec(n_samples=5, m_inducers=2, n_videos=1, seed=0)
    with pytest.raises(ValueError, match="length"):
        SynthSpec(n_samples=5, m_inducers=2, n_videos=1, seed=0, planted_weights=[0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SynthSpec(n_samples=5, m_inducers=2, n_videos=1, seed=0, planted_weights=[0.5, 1.5])


# ---------------------------------------------------------------- key layout

def test_sample_keys_cover_videos_and_stay_sorted():
    keys = sample_keys(10, 3)
    assert len(keys) == 10
    assert keys == sorted(keys)
    assert len({v for v, _ in keys}) == 3
    assert len(set(keys)) == 10


def test_sample_keys_prefix_keeps_splits_disjoint():
    dev = set(sample_keys(20, 4, "d"))
    test = set(sample_keys(20, 4, "t"))
    assert not dev & test


# ---------------------------------------------------------------- generate

def test_generate_is_deterministic(tmp_path):
    spec = SynthSpec(n_samples=10, m_inducers=2, n_videos=2, seed=7, planted_weights=[0.3, 0.6])
    first = generate(spec, tmp_path / "one")
    second = generate(spec, tmp_path / "two")
    for a, b in zip(first.inducer_paths, second.inducer_paths):
        assert a.read_bytes() == b.read_bytes()
    assert first.truth_path.read_bytes() == second.truth_path.read_bytes()


def test_generate_planted_basis_vector_thresholds_single_column(tmp_path):
    spec = SynthSpec(
        n_samples=40, m_inducers=2, n_videos=4, seed=11, planted_weights=[1.0, 0.0]
    )
    matrix = read_back(generate(spec, tmp_path))
    col = matrix.scores[:, 0]
    normalized = (col - col.min()) / (col.max() - col.min())
    expected = (normalized >= np.median(normalized)).astype(float)
    assert np.array_equal(matrix.labels, expected)


def test_generate_sidecar_echoes_spec(tmp_path):
    spec = SynthSpec(n_samples=6, m_inducers=2, n_videos=2, seed=3, planted_weights=[0.3, 0.6])
    dataset = generate(spec, tmp_path)
    doc = json.loads(dataset.sidecar_path.read_text())
    assert doc == asdict(spec)


def test_generate_full_scale_shapes(tmp_path):
    w = np.random.default_rng(0).uniform(0, 1, 29).tolist()
    dev = generate(
        SynthSpec(1877, 29, 20, seed=1, planted_weights=w, key_prefix="d"), tmp_path / "dev"
    )
    test = generate(
        SynthSpec(558, 29, 8, seed=2, planted_weights=w, key_prefix="t"), tmp_path / "test"
    )
    dev_matrix = read_back(dev)
    test_matrix = read_back(test)
    assert (dev_matrix.n_samples, dev_matrix.n_inducers) == (1877, 29)
    assert (test_matrix.n_samples, test_matrix.n_inducers) == (558, 29)


def test_generate_balanced_labels(tmp_path):
    matrix = read_back(write_dataset(balanced_matrix(30, 2, 3, seed=5), {}, tmp_path))
    assert matrix.labels.sum() == 15


def test_perfect_inducer_dataset_has_zero_optimum(tmp_path):
    dataset = generate_perfect_inducer(60, 3, 6, seed=9, out_dir=tmp_path)
    matrix = read_back(dataset)
    from latefuse.ingestion import apply_minmax, fit_minmax

    normalized = apply_minmax(fit_minmax(matrix), matrix)
    basis = np.array([1.0, 0.0, 0.0])
    assert mse(basis, normalized) == 0.0


# ---------------------------------------------------------------- in-memory instances

def test_planted_matrix_optimum_is_exactly_zero():
    w_star = np.array([0.2, 0.8, 0.5])
    matrix = planted_score_matrix(100, 3, w_star, seed=13)
    assert mse(w_star, matrix) == 0.0
    assert np.all(matrix.scores >= 0.0) and np.all(matrix.scores <= 1.0)


def test_planted_matrix_noise_lifts_optimum():
    w_star = np.array([0.2, 0.8, 0.5])
    noisy = planted_score_matrix(100, 3, w_star, seed=13, noise_sigma=0.1)
    assert mse(w_star, noisy) > 0.0


def test_random_matrix_reproducible():
    a = random_score_matrix(50, 4, seed=21)
    b = random_score_matrix(50, 4, seed=21)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------- grid oracle

def test_grid_oracle_finds_perfect_single_column():
    matrix = random_score_matrix(30, 1, seed=2)
    matrix.labels = matrix.scores[:, 0].copy()
    result = grid_oracle(matrix, 0.05)
    assert result.weights.tolist() == [1.0]
    assert result.objective == 0.0


def test_grid_oracle_evaluation_count():
    matrix = random_score_matrix(10, 3, seed=3)
    assert grid_oracle(matrix, 0.05).evaluations == 21**3


def test_grid_oracle_refuses_large_m():
    with pytest.raises(ValueError, match="refuses"):
        grid_oracle(random_score_matrix(5, 5, seed=1), 0.5)


def test_grid_oracle_rejects_uneven_step():
    with pytest.raises(ValueError, match="divide"):
        grid_oracle(random_score_matrix(5, 2, seed=1), 0.3)


def test_grid_oracle_monotone_under_refinement():
    matrix = random_score_matrix(40, 2, seed=17)
    coarse = grid_oracle(matrix, 0.25).objective
    fine = grid_oracle(matrix, 0.05).objective
    assert fine <= coarse


def test_grid_oracle_tie_break_lexicographic():
    # all-zero scores make every lattice point equivalent; first point wins
    matrix = random_score_matrix(5, 2, seed=1)
    matrix.scores[:] = 0.0
    matrix.labels[:] = 0.0
    result = grid_oracle(matrix, 0.5)
    assert result.weights.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------- ap oracle

def test_ap_oracle_examples():
    assert ap_oracle([1, 0, 1], 10) == pytest.approx(0.5 * (1 + 2 / 3))
    assert ap_oracle([0, 0, 0], 10) == 0.0
    assert ap_oracle([1], 1) == 1.0


def test_ap_oracle_rejects_bad_k():
    with pytest.raises(ValueError):
        ap_oracle([1], 0)


def test_generate_class_column_is_binary(tmp_path):
    spec = SynthSpec(n_samples=25, m_inducers=3, n_videos=5, seed=31, planted_weights=[0.2, 0.5, 0.8])
    dataset = generate(spec, tmp_path)
    assert len(dataset.inducer_paths) == 3
    for path in dataset.inducer_paths:
        classes = {line.split(",")[2] for line in path.read_text().splitlines()[1:]}
        assert classes == {"0", "1"}
    _, truth = build_tables(spec)
    assert set(truth.values()) <= {0, 1}


def test_planted_fusion_reaches_zero_after_readback(tmp_path):
    # labels are thresholded, so the planted weights are NOT a zero-MSE point
    # for file-backed data; this guards against asserting the wrong invariant
    spec = SynthSpec(n_samples=50, m_inducers=3, n_videos=5, seed=41,
                     planted_weights=[0.5, 0.5, 0.5])
    matrix = read_back(generate(spec, tmp_path))
    assert mse(np.array([0.5, 0.5, 0.5]), matrix) > 0.0
    assert set(np.unique(matrix.labels)) == {0.0, 1.0}


# ---------------------------------------------------------------- dataset bytes

def reference_write_inducer_csv(path, table, classes):
    """The inducer writer that ``synth`` used before it wrote straight from the matrix."""
    if len(classes) != len(table):
        raise ValueError(f"{len(classes)} class values for {len(table)} rows")
    lines = ["video_id,image_id,class,score"]
    for (vid, iid), cls, score in zip(table.keys, classes, table.scores.tolist()):
        lines.append(f"{vid},{iid},{int(cls)},{score!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def reference_write_ground_truth_csv(path, labels, keys=None):
    """The truth writer that ``synth`` used before; rows follow `keys` when given, else sorted key order."""
    ordered = list(keys) if keys is not None else sorted(labels)
    lines = ["video_id,image_id,label"]
    for key in ordered:
        lines.append(f"{key[0]},{key[1]},{labels[key]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def reference_own_range(raw):
    mins, maxs = raw.min(axis=0), raw.max(axis=0)
    span = np.where(maxs > mins, maxs - mins, 1.0)
    return (raw - mins) / span


def reference_draw(n_samples, m_inducers, seed, planted_weights=None, noise_sigma=0.0):
    """Raw scores and labels drawn from the seed: uniform scores on [0, 1], then labels
    thresholded at the median of the planted fusion of the own-range scores, plus noise,
    or, with no planted weights, ceil(n/2) ones at random rows."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, size=(n_samples, m_inducers))
    if planted_weights is None:
        labels = np.zeros(n_samples)
        labels[: (n_samples + 1) // 2] = 1.0
        return raw, rng.permutation(labels)
    fused = reference_own_range(raw) @ np.asarray(planted_weights, dtype=np.float64)
    if noise_sigma > 0:
        fused = fused + rng.normal(0.0, noise_sigma, size=n_samples)
    return raw, (fused >= np.median(fused)).astype(np.float64)


def rescale(raw, ranges):
    """Each column j of the uniform raw scores stretched onto ranges[j]; a range of width 0 is constant."""
    for j, (lo, hi) in enumerate(ranges):
        raw[:, j] = lo + raw[:, j] * (hi - lo)


def reference_dataset(sidecar, out, ranges=None, perfect=False):
    """The dataset files of a sidecar's recipe as the previous generator wrote them, field by field."""
    out.mkdir(parents=True)
    keys = sample_keys(sidecar["n_samples"], sidecar["n_videos"], sidecar["key_prefix"])
    raw, labels = reference_draw(
        sidecar["n_samples"], sidecar["m_inducers"], sidecar["seed"],
        sidecar.get("planted_weights"), sidecar.get("noise_sigma", 0.0),
    )
    if ranges is not None:
        rescale(raw, ranges)
    if perfect:
        raw[:, 0] = labels
    calls = reference_own_range(raw) >= 0.5
    width = len(str(sidecar["m_inducers"]))
    names = [f"inducer_{j + 1:0{width}d}" for j in range(sidecar["m_inducers"])]
    for j, name in enumerate(names):
        reference_write_inducer_csv(out / f"{name}.csv", InducerTable(name, keys, raw[:, j].copy()), calls[:, j])
    reference_write_ground_truth_csv(
        out / "ground_truth.csv", {key: int(label) for key, label in zip(keys, labels)}, keys=keys
    )
    (out / "synth_spec.json").write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def spec_sidecar(spec):
    """The sidecar that `generate` writes for a spec, field by field."""
    return {
        "n_samples": spec.n_samples,
        "m_inducers": spec.m_inducers,
        "n_videos": spec.n_videos,
        "seed": spec.seed,
        "planted_weights": [float(x) for x in spec.planted_weights],
        "noise_sigma": spec.noise_sigma,
        "key_prefix": spec.key_prefix,
    }


def assert_same_files(got, expected):
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (expected / name).read_bytes(), name


# "constant-column" writes a planted matrix rescaled onto wide ranges and one constant column,
# so the `class` column of `write_dataset` is checked off [0, 1] and on a column of one value.
WIDE_RANGES = [(-2.0, 5.0), (3.0, 3.0), (0.0, 1.0), (10, 20)]
BYTE_SPECS = {
    "constant-column": SynthSpec(40, 4, 5, seed=3, planted_weights=[0.2, 0.5, 0.9, 0.1], noise_sigma=0.05),
    "prefix-m12-noise": SynthSpec(
        123, 12, 11, seed=7, planted_weights=np.linspace(0.05, 0.95, 12), noise_sigma=0.1, key_prefix="t"
    ),
    "balanced": {"n_samples": 30, "m_inducers": 3, "n_videos": 3, "seed": 5, "key_prefix": "d"},
}


@pytest.mark.parametrize("name", BYTE_SPECS)
def test_generate_writes_the_reference_bytes(tmp_path, name):
    spec, ranges = BYTE_SPECS[name], None
    if name == "balanced":
        sidecar = spec
        write_dataset(balanced_matrix(**spec), sidecar, tmp_path / "got")
    elif name == "constant-column":
        sidecar, ranges = spec_sidecar(spec), WIDE_RANGES
        matrix = raw_matrix(spec)
        rescale(matrix.scores, ranges)
        write_dataset(matrix, asdict(spec), tmp_path / "got")
    else:
        sidecar = spec_sidecar(spec)
        generate(spec, tmp_path / "got")
    reference_dataset(sidecar, tmp_path / "expected", ranges)
    assert_same_files(tmp_path / "got", tmp_path / "expected")


@pytest.mark.parametrize("m, prefix", [(3, "p"), (11, "")])
def test_generate_perfect_inducer_writes_the_reference_bytes(tmp_path, m, prefix):
    generate_perfect_inducer(60, m, 6, seed=9, out_dir=tmp_path / "got", key_prefix=prefix)
    sidecar = {"n_samples": 60, "m_inducers": m, "n_videos": 6, "seed": 9, "key_prefix": prefix,
               "perfect_inducer": f"inducer_{1:0{len(str(m))}d}"}
    reference_dataset(sidecar, tmp_path / "expected", perfect=True)
    assert_same_files(tmp_path / "got", tmp_path / "expected")


def test_make_synth_data_writes_the_reference_bytes(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synth_data.py"
    argv = ["--dev-samples", "90", "--test-samples", "40", "--inducers", "10", "--videos", "9", "--noise", "0.05"]
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path / "got"), *argv, "--seed", "4"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    # the script's two specs share one planted weight vector and differ in seed, size and prefix
    w_star = np.random.default_rng(4).uniform(0.05, 1.0, size=10).tolist()
    specs = {
        "dev": SynthSpec(90, 10, 9, seed=4, planted_weights=w_star, noise_sigma=0.05, key_prefix="d"),
        "test": SynthSpec(40, 10, 3, seed=5, planted_weights=w_star, noise_sigma=0.05, key_prefix="t"),
    }
    for split, spec in specs.items():
        reference_dataset(spec_sidecar(spec), tmp_path / "expected" / split)
        assert_same_files(tmp_path / "got" / split, tmp_path / "expected" / split)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--videos", "0"], "--videos must be >= 1, got 0"),
        (["--inducers", "0"], "--inducers must be >= 1, got 0"),
        (["--noise", "-1"], "noise_sigma must be finite and >= 0, got -1.0"),
        (
            ["--test-samples", "3", "--videos", "30"],
            "--test-samples (3) must be >= the test split's --videos // 3 = 10 videos",
        ),
    ],
    ids=["videos=0", "inducers=0", "noise=-1", "fewer-test-samples-than-videos"],
)
def test_make_synth_data_rejects_bad_values_with_a_usage_error(tmp_path, monkeypatch, capsys, argv, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synth_data.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path / "out"), *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--inducers", "-1"], "--inducers"),
        (["--test-samples", "3", "--videos", "30"], "--test-samples"),
        (["--dev-samples", "5", "--videos", "6"], "--dev-samples"),
        (["--noise", "nan"], "noise_sigma"),
        (["--noise", "inf"], "noise_sigma"),
    ],
    ids=["inducers=-1", "test-samples", "dev-samples", "noise=nan", "noise=inf"],
)
def test_make_synth_data_names_the_value_at_fault(tmp_path, argv, flag):
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synth_data.py"
    cmd = [sys.executable, str(script), "--out", str(tmp_path / "out"), "--dev-samples", "40",
           "--test-samples", "20", "--inducers", "3", "--videos", "4", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert flag in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5])
def test_spec_rejects_a_noise_sigma_that_is_not_finite_and_non_negative(sigma):
    with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
        SynthSpec(40, 3, 4, seed=0, planted_weights=[0.5, 0.5, 0.5], noise_sigma=sigma)
