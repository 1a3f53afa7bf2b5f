import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latefuse.fusion import (
    equal_weights,
    fuse,
    make_mse_objective,
    mse,
    mse_gradient,
)
from latefuse.ingestion import ScoreMatrix
from latefuse.synth import planted_score_matrix, random_score_matrix


def small_matrix(scores, labels):
    scores = np.asarray(scores, dtype=float)
    n, m = scores.shape
    keys = [("v0", f"i{i}") for i in range(n)]
    return ScoreMatrix(keys, np.asarray(labels, dtype=float), [f"c{j}" for j in range(m)], scores)


def mse_by_definition(weights, matrix):
    """Straight re-computation: fused row by row, squared error summed in index order."""
    total = 0.0
    for i in range(matrix.n_samples):
        fused = 0.0
        for j in range(matrix.n_inducers):
            fused += weights[j] * matrix.scores[i, j]
        total += (fused - matrix.labels[i]) ** 2
    return total / matrix.n_samples


def central_differences(weights, matrix, step=1e-6):
    grad = np.empty_like(weights)
    for j in range(len(weights)):
        up = weights.copy()
        down = weights.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (mse(up, matrix) - mse(down, matrix)) / (2 * step)
    return grad


# ---------------------------------------------------------------- fuse

def test_fuse_basis_vector_selects_column():
    matrix = random_score_matrix(30, 4, seed=1)
    for k in range(4):
        e_k = np.zeros(4)
        e_k[k] = 1.0
        assert np.array_equal(fuse(e_k, matrix), matrix.scores[:, k])


def test_fuse_zero_weights():
    matrix = random_score_matrix(10, 3, seed=2)
    assert fuse(np.zeros(3), matrix).tolist() == [0.0] * 10


def test_fuse_hand_case():
    matrix = small_matrix([[0.2, 0.8]], [0])
    assert fuse([0.5, 0.5], matrix)[0] == 0.5


def test_fuse_dimension_mismatch():
    matrix = random_score_matrix(5, 3, seed=3)
    with pytest.raises(ValueError):
        fuse([0.1, 0.2], matrix)


def test_equal_weights_values():
    assert equal_weights(4).tolist() == [0.25] * 4
    assert equal_weights(1).tolist() == [1.0]


@given(st.integers(1, 8), st.integers(1, 40), st.integers(0, 10_000))
def test_fused_scores_bounded_by_m(m, n, seed):
    matrix = random_score_matrix(n, m, seed=seed)
    rng = np.random.default_rng(seed + 1)
    w = rng.uniform(0, 1, m)
    fused = fuse(w, matrix)
    assert np.all(fused >= 0.0)
    assert np.all(fused <= m)
    assert np.all(np.isfinite(fused))


# ---------------------------------------------------------------- mse

def test_mse_zero_at_exact_fit():
    matrix = random_score_matrix(20, 3, seed=4)
    w = np.array([0.3, 0.5, 0.2])
    matrix.labels = fuse(w, matrix)
    assert mse(w, matrix) == 0.0


def test_mse_hand_case():
    matrix = small_matrix([[1.0], [0.0]], [0, 0])
    assert mse([1.0], matrix) == 0.5


def test_mse_matches_definitional_oracle():
    matrix = random_score_matrix(50, 5, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(10):
        w = rng.uniform(0, 1, 5)
        assert mse(w, matrix) == pytest.approx(mse_by_definition(w, matrix), rel=1e-12)


def test_mse_empty_matrix():
    empty = ScoreMatrix([], np.zeros(0), ["c0"], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        mse([0.5], empty)


def test_mse_row_permutation_invariant():
    matrix = random_score_matrix(64, 4, seed=12)
    w = np.array([0.1, 0.9, 0.4, 0.2])
    perm = np.random.default_rng(13).permutation(64)
    shuffled = ScoreMatrix(
        [matrix.sample_keys[i] for i in perm],
        matrix.labels[perm],
        list(matrix.inducer_names),
        matrix.scores[perm],
    )
    assert mse(w, shuffled) == pytest.approx(mse(w, matrix), rel=1e-12)
    assert mse_gradient(w, shuffled) == pytest.approx(mse_gradient(w, matrix), rel=1e-12)


@given(st.integers(0, 10_000), st.floats(0, 1), st.floats(0, 1))
def test_mse_convexity_witness(seed, t, u):
    matrix = random_score_matrix(25, 3, seed=seed)
    rng = np.random.default_rng(seed + 17)
    w1 = rng.uniform(0, 1, 3)
    w2 = rng.uniform(0, 1, 3)
    blend = t * w1 + (1 - t) * w2
    assert mse(blend, matrix) <= t * mse(w1, matrix) + (1 - t) * mse(w2, matrix) + 1e-12


def test_fuse_linearity():
    matrix = random_score_matrix(40, 5, seed=21)
    rng = np.random.default_rng(22)
    for _ in range(20):
        w1, w2 = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
        a, b = rng.uniform(0, 2, 2)
        lhs = fuse(a * w1 + b * w2, matrix)
        rhs = a * fuse(w1, matrix) + b * fuse(w2, matrix)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------- gradient

def test_gradient_zero_at_exact_fit():
    matrix = random_score_matrix(20, 3, seed=30)
    w = np.array([0.3, 0.5, 0.2])
    matrix.labels = fuse(w, matrix)
    assert mse_gradient(w, matrix).tolist() == [0.0, 0.0, 0.0]


def test_gradient_hand_case():
    matrix = small_matrix([[1.0, 0.0]], [0])
    assert mse_gradient([0.5, 0.5], matrix).tolist() == [1.0, 0.0]


def test_gradient_matches_central_differences():
    matrix = random_score_matrix(40, 7, seed=33)
    rng = np.random.default_rng(34)
    for _ in range(5):
        w = rng.uniform(0, 1, 7)
        err = np.abs(mse_gradient(w, matrix) - central_differences(w, matrix))
        assert err.max() <= 1e-6


# ---------------------------------------------------------------- objective and persistence

def test_objective_data_and_methods_agree_with_functions():
    matrix = random_score_matrix(30, 4, seed=40)
    obj = make_mse_objective(matrix)
    n, s, y = matrix.n_samples, matrix.scores, matrix.labels
    assert np.array_equal(obj.gram, (s.T @ s) / n)
    assert np.array_equal(obj.moment, (s.T @ y) / n)
    assert obj.offset == float(y @ y) / n
    assert obj.dimension == 4
    w = np.array([0.2, 0.4, 0.6, 0.8])
    assert obj.exact(w) == mse(w, matrix)
    assert obj.value(w) == pytest.approx(mse(w, matrix), rel=1e-12)
    np.testing.assert_allclose(obj.gradient(w), mse_gradient(w, matrix), rtol=1e-12, atol=0)
    batch = np.vstack([w, equal_weights(4)])
    vals = obj.value_batch(batch)
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(mse(w, matrix), rel=1e-12)


def test_search_methods_do_not_read_the_matrix():
    matrix = random_score_matrix(40, 3, seed=2)
    obj = make_mse_objective(matrix)
    w = np.array([0.3, 0.1, 0.7])
    ws = np.vstack([w, equal_weights(3)])
    before = obj.value(w), obj.gradient(w), obj.value_batch(ws)
    matrix.scores[:] = np.nan
    matrix.labels[:] = np.nan
    after = obj.value(w), obj.gradient(w), obj.value_batch(ws)
    assert all(np.all(np.isfinite(x)) for x in after)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert math.isnan(obj.exact(w))  # the residual form is the one reader of the rows


@st.composite
def noisy_planted_shapes(draw):
    """(n, m, seed) with n >= m + 10, so the least-squares residual keeps ten
    degrees of freedom of label noise and the MSE stays away from 0, where
    no relative bound can hold (with n <= m the fit is exact)."""
    m = draw(st.integers(1, 29))
    return draw(st.integers(m + 10, 300)), m, draw(st.integers(0, 10_000))


@given(noisy_planted_shapes())
def test_value_batch_agrees_with_residual_form(shape):
    n, m, seed = shape
    rng = np.random.default_rng(seed)
    planted = rng.uniform(0.05, 1.0, m) / m
    matrix = planted_score_matrix(n, m, planted, seed=seed, noise_sigma=0.1)
    optimum = np.linalg.lstsq(matrix.scores, matrix.labels, rcond=None)[0]
    points = np.vstack(
        [
            rng.uniform(0, 1, (8, m)),
            planted,
            optimum,
            optimum + rng.uniform(-1e-9, 1e-9, (8, m)),
        ]
    )
    obj = make_mse_objective(matrix)
    residual = np.array([obj.exact(w) for w in points])
    np.testing.assert_allclose(obj.value_batch(points), residual, rtol=1e-12, atol=0)
    np.testing.assert_allclose([obj.value(w) for w in points], residual, rtol=1e-12, atol=0)
    # The gradient is 0 at the optimum, so no relative bound holds there; bound
    # each component by the magnitude of the terms the residual form sums.
    abs_scores = np.abs(matrix.scores)
    for w in points:
        scale = (2.0 / n) * (abs_scores.T @ (abs_scores @ np.abs(w) + np.abs(matrix.labels)))
        error = np.abs(obj.gradient(w) - mse_gradient(w, matrix))
        assert np.all(error <= 1e-12 * scale)


OBJECTIVE_BYTES_SCRIPT = """
import hashlib, sys
import numpy as np
from latefuse.fusion import make_mse_objective
from latefuse.synth import random_score_matrix
obj = make_mse_objective(random_score_matrix(1877, 29, seed=3))
points = np.random.default_rng(4).uniform(0, 1, (300, 29))
if sys.argv[1] == "batch":
    out = obj.value_batch(points)
else:
    out = np.array([[obj.value(w), obj.exact(w), *obj.gradient(w)] for w in points])
sys.stdout.write(hashlib.sha256(out.tobytes()).hexdigest())
"""


def objective_digest(path, threads):
    env = os.environ | {
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
    }
    proc = subprocess.run(
        [sys.executable, "-c", OBJECTIVE_BYTES_SCRIPT, path],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_value_batch_bytes_do_not_depend_on_blas_threads():
    assert objective_digest("batch", "1") == objective_digest("batch", "4")


def test_scalar_value_and_gradient_bytes_do_not_depend_on_blas_threads():
    assert objective_digest("scalar", "1") == objective_digest("scalar", "4")


def test_weights_json_round_trip(run_on_pair):
    result, out = run_on_pair("trust-region")
    names, w = result.inducer_names, result.report.best_weights
    doc = json.loads((out / "weights.json").read_text())
    loaded_names, loaded = doc["inducer_names"], np.array(doc["weights"])
    assert loaded_names == names
    assert np.array_equal(loaded, w)
    assert set(doc) == {"inducer_names", "weights"}
