import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse.evaluation import map_at_k
from latefuse.ingestion import ScoreMatrix
from oracles import ap_oracle, reference_map_at_k


def matrix_with(groups):
    """groups: {video_id: [(image_id, label), ...]} -> minimal ScoreMatrix."""
    keys, labels = [], []
    for vid, items in groups.items():
        for iid, label in items:
            keys.append((vid, iid))
            labels.append(float(label))
    n = len(keys)
    return ScoreMatrix(keys, np.array(labels), ["c0"], np.zeros((n, 1)))


def ranked_ids(items):
    """The image ids of one video's (image_id, score) items in map_at_k's rank order.

    Each item in turn is the video's one relevant item, whose AP@n is then 1/rank.
    """
    fused = np.array([score for _, score in items])
    ranks = {}
    for iid, _ in items:
        matrix = matrix_with({"v": [(other, int(other == iid)) for other, _ in items]})
        ranks[iid] = round(1 / map_at_k(fused, matrix, k=len(items)).per_group[0][1])
    return sorted(ranks, key=ranks.get)


def ap_at_k(relevances, k):
    """AP@k, through map_at_k, of one video whose items rank in the order given.

    A pattern without a relevant item gets a second video that has one, so
    that MAP@k is defined; the first video's row is read either way.
    """
    n = len(relevances)
    groups = {"g": [(f"i{i}", rel) for i, rel in enumerate(relevances)]}
    fused = [float(n - i) for i in range(n)]
    if not any(relevances):
        groups["h"] = [("i0", 1)]
        fused.append(1.0)
    return map_at_k(np.array(fused), matrix_with(groups), k).per_group[0][1]


# ---------------------------------------------------------------- rank

def test_rank_orders_by_score_descending():
    assert ranked_ids([("a", 0.9), ("b", 0.1), ("c", 0.5)]) == ["a", "c", "b"]


def test_rank_breaks_ties_by_image_id():
    assert ranked_ids([("b", 0.5), ("a", 0.5)]) == ["a", "b"]


def test_rank_single_item():
    report = map_at_k(np.array([0.3]), matrix_with({"v": [("only", 1)]}), k=10)
    assert report.per_group == [("v", 1.0, 1)]


def test_rank_rejects_nonbinary_relevance():
    matrix = matrix_with({"v": [("b", 0), ("a", 2.0)]})
    with pytest.raises(ValueError, match=r"^relevance must be binary, got 2\.0 for \('v', 'a'\)$"):
        map_at_k(np.array([0.5, 0.5]), matrix, k=10)


# ---------------------------------------------------------------- AP@k

def test_ap_textbook_case():
    value = ap_at_k([1, 0, 1], 10)
    assert value == pytest.approx(0.5 * (1 + 2 / 3))
    assert value == ap_oracle([1, 0, 1], 10)


def test_ap_all_relevant_is_one():
    for k in (1, 3, 10):
        assert ap_at_k([1, 1, 1], k) == 1.0


def test_ap_no_relevant_is_zero():
    assert ap_at_k([0, 0, 0], 10) == 0.0


def test_ap_cutoff_shorter_than_list():
    # only rank 2 hits within the cutoff; R counts the whole group, so the
    # normalizer is min(R=2, k=2) = 2 and AP@2 = (1/2) * (1/2)
    assert ap_at_k([0, 1, 1], 2) == pytest.approx(0.25)
    assert ap_at_k([0, 1, 1], 2) == ap_oracle([0, 1, 1], 2)


def test_ap_k_past_group_size_equals_full_ap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rel = rng.integers(0, 2, size=int(rng.integers(1, 9))).tolist()
        base = ap_at_k(rel, len(rel))
        for k in [*range(len(rel), 13), 2**63 - 1, 10**23]:  # the last is past any C long
            assert ap_at_k(rel, k) == base


def test_ap_requires_positive_k():
    with pytest.raises(ValueError):
        ap_at_k([1], -1)
    with pytest.raises(ValueError):
        map_at_k(np.array([0.5]), matrix_with({"v1": [("i0", 1)]}), k=0)


def test_ap_agrees_with_oracle_on_random_patterns():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rel = rng.integers(0, 2, size=int(rng.integers(1, 9))).tolist()
        k = int(rng.integers(1, 13))
        assert ap_at_k(rel, k) == ap_oracle(rel, k)


# ---------------------------------------------------------------- MAP@k

def test_map_single_group_matches_ap():
    matrix = matrix_with({"v1": [("i0", 1), ("i1", 0), ("i2", 1)]})
    fused = np.array([0.9, 0.5, 0.1])
    report = map_at_k(fused, matrix, k=10)
    assert report.map_at_k == pytest.approx(0.5 * (1 + 2 / 3))
    assert report.k == 10


def test_map_averages_over_groups():
    matrix = matrix_with(
        {
            "v1": [("i0", 1), ("i1", 0)],  # perfect ranking: AP 1.0
            "v2": [("i2", 0), ("i3", 1)],  # relevant item last: AP 0.5
        }
    )
    fused = np.array([0.9, 0.1, 0.8, 0.2])
    report = map_at_k(fused, matrix, k=10)
    assert report.map_at_k == pytest.approx(0.75)
    assert [g[0] for g in report.per_group] == ["v1", "v2"]


def test_map_excludes_groups_without_relevant_items():
    matrix = matrix_with(
        {
            "v1": [("i0", 1), ("i1", 0)],
            "v2": [("i2", 0), ("i3", 0)],
        }
    )
    fused = np.array([0.9, 0.1, 0.8, 0.2])
    report = map_at_k(fused, matrix, k=10)
    assert report.map_at_k == 1.0
    excluded = dict((g[0], g[2]) for g in report.per_group)
    assert excluded["v2"] == 0


def test_map_undefined_when_all_groups_empty_of_relevance():
    matrix = matrix_with({"v1": [("i0", 0)], "v2": [("i1", 0)]})
    with pytest.raises(ValueError, match="no group has a relevant item; MAP@k is undefined"):
        map_at_k(np.array([0.5, 0.5]), matrix, k=10)


def test_map_perfect_separation_is_one():
    rng = np.random.default_rng(21)
    groups = {}
    fused = []
    for v in range(5):
        items = []
        n_rel = int(rng.integers(1, 4))
        n_irr = int(rng.integers(1, 4))
        for i in range(n_rel):
            items.append((f"r{i}", 1))
            fused.append(1.0 + rng.random())
        for i in range(n_irr):
            items.append((f"x{i}", 0))
            fused.append(rng.random() - 1.0)
        groups[f"v{v}"] = items
    report = map_at_k(np.array(fused), matrix_with(groups), k=10)
    assert report.map_at_k == 1.0


def test_map_report_mean_recomputable_from_per_group():
    rng = np.random.default_rng(31)
    matrix = matrix_with(
        {f"v{v}": [(f"i{v}_{i}", int(rng.integers(0, 2))) for i in range(6)] for v in range(8)}
    )
    if not matrix.labels.any():
        matrix.labels[0] = 1.0
    fused = rng.random(matrix.n_samples)
    report = map_at_k(fused, matrix, k=4)
    included = [ap for _, ap, num_rel in report.per_group if num_rel > 0]
    assert report.map_at_k == sum(included) / len(included)
    assert 0.0 <= report.map_at_k <= 1.0


def test_map_length_mismatch():
    matrix = matrix_with({"v1": [("i0", 1)]})
    with pytest.raises(ValueError):
        map_at_k(np.array([0.5, 0.5]), matrix, k=10)


@given(st.integers(0, 10_000), st.integers(1, 12))
def test_map_rank_invariance_under_increasing_transforms(seed, k):
    rng = np.random.default_rng(seed)
    n_videos = int(rng.integers(1, 5))
    groups = {}
    for v in range(n_videos):
        size = int(rng.integers(1, 7))
        groups[f"v{v}"] = [(f"i{v}_{i}", int(rng.integers(0, 2))) for i in range(size)]
    matrix = matrix_with(groups)
    if not matrix.labels.any():
        matrix.labels[0] = 1.0
    fused = rng.random(matrix.n_samples)
    a = float(rng.uniform(0.5, 3.0))
    b = float(rng.uniform(-1.0, 1.0))
    before = map_at_k(fused, matrix, k=k)
    after = map_at_k(a * fused + b, matrix, k=k)
    assert after.map_at_k == before.map_at_k
    assert after.per_group == before.per_group


@st.composite
def shuffled_matrices(draw):
    """Rows in any order, tied scores, ids like i2/i10 that sort differently as
    strings and numbers, and videos that may hold no relevant item."""
    rows = []
    for v in range(draw(st.integers(1, 5))):
        ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=9, unique=True))
        rows += [((f"v{v}", f"i{i}"), draw(st.integers(0, 1))) for i in ids]
    rows = draw(st.permutations(rows))
    tied = st.integers(-10, 10).map(lambda x: x / 10)
    fused = draw(st.lists(tied | st.floats(-1.0, 1.0), min_size=len(rows), max_size=len(rows)))
    labels = np.array([label for _, label in rows], dtype=np.float64)
    matrix = ScoreMatrix([key for key, _ in rows], labels, ["c0"], np.zeros((len(rows), 1)))
    return np.array(fused), matrix


@settings(max_examples=400)
@given(shuffled_matrices(), st.integers(1, 14))
def test_map_kernel_is_bit_equal_to_per_row_reference(case, k):
    fused, matrix = case
    try:
        expected = reference_map_at_k(fused, matrix, k)
    except ValueError:
        with pytest.raises(ValueError, match="no group has a relevant item; MAP@k is undefined"):
            map_at_k(fused, matrix, k)
        return
    got = map_at_k(fused, matrix, k)
    assert got == expected
    assert repr(got) == repr(expected)  # the same values and Python types, so the same bytes


@pytest.mark.parametrize("rows", [("a", "b", "c"), ("b", "a", "c")])
def test_map_rejects_nan_scores_in_any_row_order(rows):
    # with NaN ranked by position, MAP@1 read 1.0 for rows (a, b, c) and 0.0 for (b, a, c)
    score = {"a": math.nan, "b": 0.5, "c": 0.9}
    matrix = ScoreMatrix(
        [("v", iid) for iid in rows], np.array([float(iid == "a") for iid in rows]), ["c0"], np.zeros((3, 1))
    )
    with pytest.raises(ValueError, match=r"NaN at row %d \('v', 'a'\)" % rows.index("a")):
        map_at_k(np.array([score[iid] for iid in rows]), matrix, k=1)


# ---------------------------------------------------------------- serialization

def test_eval_report_json_and_csv(run_on_pair):
    result, out = run_on_pair("equal")
    report = result.eval_report
    doc = json.loads((out / "eval_report.json").read_text())
    assert doc["map_at_k"] == report.map_at_k
    assert doc["k"] == 10
    lines = (out / "eval_report.csv").read_text().splitlines()
    assert lines[0] == "video_id,ap_at_10,num_relevant"
    assert len(lines) == 5  # the header and the test split's 4 videos


def test_exhaustive_small_patterns_match_oracle():
    for n in range(1, 8):
        for bits in itertools.product((0, 1), repeat=n):
            for k in (1, 3, 10):
                assert ap_at_k(list(bits), k) == ap_oracle(list(bits), k)
