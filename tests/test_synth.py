import json

import numpy as np
import pytest

from latefuse.fusion import fuse, mse
from latefuse.ingestion import assemble, load_ground_truth, read_inducer_csv
from latefuse.synth import (
    SynthSpec,
    ap_oracle,
    build_tables,
    generate,
    generate_perfect_inducer,
    grid_oracle,
    planted_score_matrix,
    random_score_matrix,
    sample_keys,
)


def read_back(dataset):
    tables = [read_inducer_csv(p) for p in dataset.inducer_paths]
    truth = load_ground_truth([dataset.truth_path])
    return assemble(tables, truth)


# ---------------------------------------------------------------- spec validation

def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SynthSpec(n_samples=3, m_inducers=2, n_videos=5, seed=0, label_rule="random_balanced")
    with pytest.raises(ValueError):
        SynthSpec(n_samples=5, m_inducers=0, n_videos=1, seed=0, label_rule="random_balanced")
    with pytest.raises(ValueError):
        SynthSpec(n_samples=5, m_inducers=2, n_videos=1, seed=0, label_rule="nope")


def test_spec_requires_weights_for_threshold_rule():
    with pytest.raises(ValueError, match="planted_weights"):
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
    spec = SynthSpec(n_samples=10, m_inducers=2, n_videos=2, seed=7, label_rule="random_balanced")
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
    spec = SynthSpec(n_samples=6, m_inducers=2, n_videos=2, seed=3, label_rule="random_balanced")
    dataset = generate(spec, tmp_path)
    doc = json.loads(dataset.sidecar_path.read_text())
    assert doc == spec.to_dict()


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
    spec = SynthSpec(n_samples=30, m_inducers=2, n_videos=3, seed=5, label_rule="random_balanced")
    matrix = read_back(generate(spec, tmp_path))
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
    spec = SynthSpec(n_samples=25, m_inducers=3, n_videos=5, seed=31, label_rule="random_balanced")
    dataset = generate(spec, tmp_path)
    assert len(dataset.inducer_paths) == 3
    for path in dataset.inducer_paths:
        classes = {line.split(",")[2] for line in path.read_text().splitlines()[1:]}
        assert classes == {"0", "1"}
    _, truth = build_tables(spec)
    assert set(truth.labels.values()) <= {0, 1}


def test_planted_fusion_reaches_zero_after_readback(tmp_path):
    # labels are thresholded, so the planted weights are NOT a zero-MSE point
    # for file-backed data; this guards against asserting the wrong invariant
    spec = SynthSpec(n_samples=50, m_inducers=3, n_videos=5, seed=41,
                     planted_weights=[0.5, 0.5, 0.5])
    matrix = read_back(generate(spec, tmp_path))
    assert mse(np.array([0.5, 0.5, 0.5]), matrix) > 0.0
    assert set(np.unique(matrix.labels)) == {0.0, 1.0}
