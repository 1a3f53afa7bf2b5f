import io
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latefuse.ingestion import (
    AlignmentError,
    DuplicateKeyError,
    GroundTruth,
    InducerTable,
    MissingLabelError,
    NormalizationParams,
    ParseError,
    ScoreMatrix,
    apply_minmax,
    assemble,
    fit_minmax,
    load_ground_truth,
    parse_ground_truth,
    parse_inducer_file,
    read_inducer_csv,
    write_ground_truth_csv,
    write_inducer_csv,
)


def inducer_source(*rows):
    return io.StringIO("video_id,image_id,class,score\n" + "\n".join(rows) + "\n")


def truth_source(*rows):
    return io.StringIO("video_id,image_id,label\n" + "\n".join(rows) + "\n")


def table(name, keys, scores):
    return InducerTable(name, list(keys), np.asarray(scores, dtype=float))


def matrix_from(columns, labels=None):
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = len(cols[0])
    keys = [("v1", f"i{i}") for i in range(n)]
    y = np.zeros(n) if labels is None else np.asarray(labels, dtype=float)
    names = [f"c{j}" for j in range(len(cols))]
    return ScoreMatrix(keys, y, names, np.column_stack(cols))


# ---------------------------------------------------------------- parsing

def test_parse_single_line():
    parsed = parse_inducer_file(inducer_source("v1,i1,1,0.73"), "a")
    assert len(parsed) == 1
    assert parsed.inducer_name == "a"
    assert parsed.keys == [("v1", "i1")]
    assert parsed.scores.dtype == np.float64
    assert parsed.scores.tolist() == [0.73]


def test_parse_keeps_file_order():
    parsed = parse_inducer_file(inducer_source("v2,i9,0,0.5", "v1,i1,1,0.1"), "a")
    assert parsed.keys == [("v2", "i9"), ("v1", "i1")]
    assert parsed.scores.tolist() == [0.5, 0.1]


def test_parse_class_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_inducer_file(inducer_source("v1,i1,2,0.5"), "a")


def test_parse_duplicate_key():
    with pytest.raises(DuplicateKeyError):
        parse_inducer_file(inducer_source("v1,i1,0,0.2", "v1,i1,0,0.2"), "a")


def test_parse_wrong_field_count():
    with pytest.raises(ParseError, match="4 fields"):
        parse_inducer_file(inducer_source("v1,i1,0"), "a")


def test_parse_non_numeric_score():
    with pytest.raises(ParseError, match="non-numeric"):
        parse_inducer_file(inducer_source("v1,i1,0,abc"), "a")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_rejects_non_finite_scores(token):
    with pytest.raises(ParseError, match="non-finite"):
        parse_inducer_file(inducer_source(f"v1,i1,0,{token}"), "a")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="header"):
        parse_inducer_file(io.StringIO("vid,img,class,score\nv1,i1,0,0.5\n"), "a")


def test_parse_empty_file():
    with pytest.raises(ParseError, match="empty"):
        parse_inducer_file(io.StringIO(""), "a")


def test_parse_accepts_bytes():
    parsed = parse_inducer_file(io.BytesIO(b"video_id,image_id,class,score\nv1,i1,0,1e-3\n"), "a")
    assert parsed.scores[0] == 1e-3


def test_parse_ground_truth_basics():
    truth = parse_ground_truth(truth_source("v1,i1,1", "v1,i2,0"))
    assert truth.labels == {("v1", "i1"): 1, ("v1", "i2"): 0}


def test_parse_ground_truth_bad_label():
    with pytest.raises(ParseError, match="label"):
        parse_ground_truth(truth_source("v1,i1,7"))


def test_parse_ground_truth_duplicate():
    with pytest.raises(DuplicateKeyError):
        parse_ground_truth(truth_source("v1,i1,1", "v1,i1,0"))


INDUCER_H = "video_id,image_id,class,score"
TRUTH_H = "video_id,image_id,label"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", ParseError, f"inducer 'c': empty file, expected header {INDUCER_H!r}"),
        ("a,b\n", ParseError, "inducer 'c': bad header at line 1: 'a,b'"),
        (f"{INDUCER_H}\nv,i,1\n", ParseError, "inducer 'c': expected 4 fields, got 3 at line 2"),
        (f"{INDUCER_H}\n\nv,i, 2 ,0.5\n", ParseError, "inducer 'c': class out of {0,1} at line 3: '2'"),
        (f"{INDUCER_H}\nv,i,1,x\n", ParseError, "inducer 'c': non-numeric score at line 2: 'x'"),
        (f"{INDUCER_H}\nv,i,1,nan\n", ParseError, "inducer 'c': non-finite score at line 2: 'nan'"),
        (f"{INDUCER_H}\nv,i,1,0.5\n v , i ,0,0.1\n", DuplicateKeyError, "inducer 'c': duplicate key ('v', 'i') at line 3"),
        # a repeated key with a bad value reports the value
        (f"{INDUCER_H}\nv,i,1,0.5\nv,i,0,x\n", ParseError, "inducer 'c': non-numeric score at line 3: 'x'"),
        ("", ParseError, f"ground truth: empty file, expected header {TRUTH_H!r}"),
        (f"{TRUTH_H}\nv,i,1,0\n", ParseError, "ground truth: expected 3 fields, got 4 at line 2"),
        (f"{TRUTH_H}\nv,i,5\n", ParseError, "ground truth: label out of {0,1} at line 2: '5'"),
        (f"{TRUTH_H}\nv,i,1\n\nv,i,0\n", DuplicateKeyError, "ground truth: duplicate key ('v', 'i') at line 4"),
    ],
)
def test_parse_errors_name_the_file_and_line(text, error, message):
    parse = parse_ground_truth if message.startswith("ground truth") else lambda s: parse_inducer_file(s, "c")
    with pytest.raises(error) as raised:
        parse(io.BytesIO(text.encode()))
    assert str(raised.value) == message


def test_load_ground_truth_merges_and_rejects_cross_file_duplicates(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("video_id,image_id,label\nv1,i1,1\n")
    b.write_text("video_id,image_id,label\nv2,i2,0\n")
    merged = load_ground_truth([a, b])
    assert len(merged) == 2
    b.write_text("video_id,image_id,label\nv1,i1,0\n")
    with pytest.raises(DuplicateKeyError):
        load_ground_truth([a, b])


# ---------------------------------------------------------------- assemble

def two_tables():
    t1 = parse_inducer_file(inducer_source("v1,i2,0,0.4", "v1,i1,1,0.1"), "a")
    t2 = parse_inducer_file(inducer_source("v1,i1,1,0.9", "v1,i2,0,0.6"), "b")
    truth = GroundTruth({("v1", "i1"): 1, ("v1", "i2"): 0})
    return t1, t2, truth


def test_assemble_sorts_rows_and_maps_columns():
    t1, t2, truth = two_tables()
    matrix = assemble([t1, t2], truth)
    assert matrix.sample_keys == [("v1", "i1"), ("v1", "i2")]
    assert matrix.inducer_names == ["a", "b"]
    assert matrix.scores.tolist() == [[0.1, 0.9], [0.4, 0.6]]
    assert matrix.labels.tolist() == [1.0, 0.0]


def test_assemble_disjoint_keys():
    t1 = table("a", [("v1", "i1")], [0.1])
    t2 = table("b", [("v2", "i2")], [0.2])
    with pytest.raises(AlignmentError):
        assemble([t1, t2], GroundTruth({("v1", "i1"): 0, ("v2", "i2"): 0}))


def test_assemble_missing_label():
    t1 = table("a", [("v1", "i1")], [0.1])
    with pytest.raises(MissingLabelError):
        assemble([t1], GroundTruth({}))


def test_assemble_tolerates_extra_truth_keys():
    t1 = table("a", [("v1", "i1")], [0.1])
    matrix = assemble([t1], GroundTruth({("v1", "i1"): 1, ("zz", "zz"): 0}))
    assert matrix.n_samples == 1


def test_assemble_empty_table_list():
    with pytest.raises(AlignmentError):
        assemble([], GroundTruth({}))


def test_assemble_order_independent_of_record_order():
    t1, t2, truth = two_tables()
    shuffled = []
    for t in (t1, t2):
        order = random.Random(3).sample(range(len(t)), len(t))
        shuffled.append(table(t.inducer_name, [t.keys[i] for i in order], t.scores[order]))
    a = assemble([t1, t2], truth)
    b = assemble(shuffled, truth)
    assert a.sample_keys == b.sample_keys
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------- normalization

def test_fit_minmax_examples():
    params = fit_minmax(matrix_from([[2, 4, 6], [0.5, 0.5, 0.5], [-1, 0, 3]]))
    assert params.ranges["c0"] == (2.0, 6.0)
    assert params.ranges["c1"] == (0.5, 0.5)
    assert params.ranges["c2"] == (-1.0, 3.0)


def test_apply_minmax_scales_and_clamps():
    fit_on = matrix_from([[2, 4, 6]])
    params = fit_minmax(fit_on)
    assert apply_minmax(params, fit_on).scores[:, 0].tolist() == [0.0, 0.5, 1.0]
    out_of_range = matrix_from([[8]])
    assert apply_minmax(params, out_of_range).scores[0, 0] == 1.0


def test_apply_minmax_degenerate_column_is_zero():
    fit_on = matrix_from([[0.5, 0.5]])
    params = fit_minmax(fit_on)
    assert apply_minmax(params, fit_on).scores[:, 0].tolist() == [0.0, 0.0]


def test_apply_minmax_requires_every_column():
    params = NormalizationParams({"other": (0.0, 1.0)})
    with pytest.raises(ValueError, match="no normalization range"):
        apply_minmax(params, matrix_from([[1, 2]]))


def test_fit_minmax_empty():
    empty = ScoreMatrix([], np.zeros(0), ["c0"], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        fit_minmax(empty)


def test_normalization_params_validate():
    with pytest.raises(ValueError, match="min > max"):
        NormalizationParams({"a": (2.0, 1.0)})


@given(
    st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=12),
        min_size=1,
        max_size=4,
    ).filter(lambda cols: len({len(c) for c in cols}) == 1)
)
def test_round_trip_lands_in_unit_interval(columns):
    matrix = matrix_from(columns)
    normalized = apply_minmax(fit_minmax(matrix), matrix)
    assert np.all(normalized.scores >= 0.0)
    assert np.all(normalized.scores <= 1.0)
    for j, col in enumerate(columns):
        if max(col) > min(col):
            assert 0.0 in normalized.scores[:, j]
            assert 1.0 in normalized.scores[:, j]


def test_identity_on_already_unit_data():
    col = [0.0, 0.25, 0.7, 1.0]
    matrix = matrix_from([col])
    normalized = apply_minmax(fit_minmax(matrix), matrix)
    assert normalized.scores[:, 0].tolist() == col


def test_normalization_json_round_trip(run_on_pair):
    result, out = run_on_pair("equal")
    params = result.norm_params
    doc = json.loads((out / "norm_params.json").read_text())
    loaded = NormalizationParams({name: (entry["min"], entry["max"]) for name, entry in doc.items()})
    assert loaded.ranges == params.ranges
    name, (lo, hi) = next(iter(params.ranges.items()))
    assert doc[name] == {"min": lo, "max": hi}


# ---------------------------------------------------------------- file round trips

def test_inducer_csv_round_trip_preserves_scores_exactly(tmp_path):
    rng = np.random.default_rng(5)
    original = table("roundtrip", [(f"v{i % 3}", f"i{i}") for i in range(20)], rng.normal(size=20))
    classes = rng.integers(0, 2, size=20)
    path = tmp_path / "roundtrip.csv"
    write_inducer_csv(path, original, classes)
    loaded = read_inducer_csv(path)
    assert loaded.inducer_name == "roundtrip"
    assert loaded.keys == original.keys
    assert loaded.scores.tolist() == original.scores.tolist()
    lines = path.read_text().splitlines()
    assert lines[0] == "video_id,image_id,class,score"
    assert [int(line.split(",")[2]) for line in lines[1:]] == classes.tolist()


def test_write_inducer_csv_needs_one_class_per_row(tmp_path):
    with pytest.raises(ValueError, match="class values"):
        write_inducer_csv(tmp_path / "a.csv", table("a", [("v1", "i1")], [0.5]), [0, 1])


def test_truth_csv_round_trip(tmp_path):
    truth = GroundTruth({("v1", "i1"): 1, ("v0", "i9"): 0})
    path = tmp_path / "truth.csv"
    write_ground_truth_csv(path, truth)
    loaded = load_ground_truth([path])
    assert loaded.labels == truth.labels
    assert path.read_text().splitlines()[1] == "v0,i9,0"


@given(
    st.sets(
        st.tuples(
            st.text("abcv", min_size=1, max_size=3),
            st.text("xyzi", min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=15,
    ),
    st.integers(1, 3),
)
def test_assemble_rows_always_sorted(keys, m):
    keys = sorted(keys)
    rng = random.Random(11)
    tables = []
    for j in range(m):
        shuffled = rng.sample(keys, len(keys))
        tables.append(table(f"t{j}", shuffled, [rng.random() for _ in shuffled]))
    truth = GroundTruth({k: 1 for k in keys})
    matrix = assemble(tables, truth)
    assert matrix.sample_keys == keys
    assert math.isfinite(matrix.scores.sum())
