import io
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latefuse.cli import load_split
from latefuse.ingestion import (
    IngestionError,
    InducerTable,
    ScoreMatrix,
    apply_minmax,
    assemble,
    fit_minmax,
    load_ground_truth,
    parse_ground_truth,
    parse_inducer_file,
    read_inducer_csv,
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
    with pytest.raises(IngestionError, match="line 2"):
        parse_inducer_file(inducer_source("v1,i1,2,0.5"), "a")


def test_parse_duplicate_key():
    with pytest.raises(IngestionError, match="duplicate key"):
        parse_inducer_file(inducer_source("v1,i1,0,0.2", "v1,i1,0,0.2"), "a")


def test_parse_wrong_field_count():
    with pytest.raises(IngestionError, match="4 fields"):
        parse_inducer_file(inducer_source("v1,i1,0"), "a")


def test_parse_non_numeric_score():
    with pytest.raises(IngestionError, match="non-numeric"):
        parse_inducer_file(inducer_source("v1,i1,0,abc"), "a")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_rejects_non_finite_scores(token):
    with pytest.raises(IngestionError, match="non-finite"):
        parse_inducer_file(inducer_source(f"v1,i1,0,{token}"), "a")


def test_parse_bad_header():
    with pytest.raises(IngestionError, match="header"):
        parse_inducer_file(io.StringIO("vid,img,class,score\nv1,i1,0,0.5\n"), "a")


def test_parse_empty_file():
    with pytest.raises(IngestionError, match="empty"):
        parse_inducer_file(io.StringIO(""), "a")


def test_parse_accepts_bytes():
    parsed = parse_inducer_file(io.BytesIO(b"video_id,image_id,class,score\nv1,i1,0,1e-3\n"), "a")
    assert parsed.scores[0] == 1e-3


def test_parse_ground_truth_basics():
    truth = parse_ground_truth(truth_source("v1,i1,1", "v1,i2,0"))
    assert truth == {("v1", "i1"): 1, ("v1", "i2"): 0}


def test_parse_ground_truth_bad_label():
    with pytest.raises(IngestionError, match="label"):
        parse_ground_truth(truth_source("v1,i1,7"))


def test_parse_ground_truth_duplicate():
    with pytest.raises(IngestionError, match="duplicate key"):
        parse_ground_truth(truth_source("v1,i1,1", "v1,i1,0"))


INDUCER_H = "video_id,image_id,class,score"
TRUTH_H = "video_id,image_id,label"


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", IngestionError, f"inducer 'c': empty file, expected header {INDUCER_H!r}"),
        ("a,b\n", IngestionError, "inducer 'c': bad header at line 1: 'a,b'"),
        (f"{INDUCER_H}\nv,i,1\n", IngestionError, "inducer 'c': expected 4 fields, got 3 at line 2"),
        (f"{INDUCER_H}\n\nv,i, 2 ,0.5\n", IngestionError, "inducer 'c': class out of {0,1} at line 3: '2'"),
        (f"{INDUCER_H}\nv,i,1,x\n", IngestionError, "inducer 'c': non-numeric score at line 2: 'x'"),
        (f"{INDUCER_H}\nv,i,1,nan\n", IngestionError, "inducer 'c': non-finite score at line 2: 'nan'"),
        (f"{INDUCER_H}\nv,i,1,0.5\n v , i ,0,0.1\n", IngestionError, "inducer 'c': duplicate key ('v', 'i') at line 3"),
        (f"{INDUCER_H}\nv,i1,1,0.5\n,i2,0,0.1\n", IngestionError, "inducer 'c': empty video_id at line 3"),
        # a repeated key with a bad value reports the value
        (f"{INDUCER_H}\nv,i,1,0.5\nv,i,0,x\n", IngestionError, "inducer 'c': non-numeric score at line 3: 'x'"),
        ("", IngestionError, f"ground truth: empty file, expected header {TRUTH_H!r}"),
        (f"{TRUTH_H}\nv,i,1,0\n", IngestionError, "ground truth: expected 3 fields, got 4 at line 2"),
        (f"{TRUTH_H}\nv,i,5\n", IngestionError, "ground truth: label out of {0,1} at line 2: '5'"),
        (f"{TRUTH_H}\nv,i,1\n\nv,i,0\n", IngestionError, "ground truth: duplicate key ('v', 'i') at line 4"),
        (f"{TRUTH_H}\nv, \t,1\n", IngestionError, "ground truth: empty image_id at line 2"),
        # invalid UTF-8 is reported at its line, whichever splitlines break ends the lines before it
        *(
            (f"{INDUCER_H}{brk}v1,i1,0,0.5{brk}v1,i2,0,0.".encode() + b"\xff5" + brk.encode(), IngestionError,
             "inducer 'c': not valid UTF-8 at line 3")
            for brk in ("\n", "\r\n", "\r", "\u2028")
        ),
        (b"\xef\xbb\xbf" + f"{TRUTH_H}\r\rv,i,1\r".encode() + b"\x80", IngestionError, "ground truth: not valid UTF-8 at line 4"),
    ],
)
def test_parse_errors_name_the_file_and_line(text, error, message):
    parse = parse_ground_truth if message.startswith("ground truth") else lambda s: parse_inducer_file(s, "c")
    with pytest.raises(error) as raised:
        parse(io.BytesIO(text if isinstance(text, bytes) else text.encode()))
    assert str(raised.value) == message


# ---------------------------------------------------------------- what the README says the parser accepts

def parse_outcome(text, parse=parse_inducer_file):
    """What an inducer parser makes of `text` (str or bytes), down to the bits: its keys and scores,
    or its error's type and message."""
    source = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    try:
        table = parse(source, "c", where="f.csv")
    except IngestionError as exc:
        return type(exc), str(exc)
    return table.keys, table.scores.dtype.str, table.scores.tobytes()


def truth_outcome(text, parse=parse_ground_truth):
    """What a truth parser makes of `text` (str or bytes): its labels in file order, or its error."""
    source = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    try:
        return list(parse(source).items())
    except IngestionError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "rows, result",
    [
        # blank and whitespace-only lines are skipped; fields are stripped
        (["", "  v1 ,\ti1 , 1 , 0.5 ", " \t "], ([("v1", "i1")], [0.5])),
        # score is Python float syntax: underscores between digits, padding, exponents
        (
            ["v1,i1,0,1_0", "v1,i2,1, 1e3 ", "v1,i3,0,-0.0"],
            ([("v1", "i1"), ("v1", "i2"), ("v1", "i3")], [10.0, 1000.0, -0.0]),
        ),
        (["v1,i1,0,0x1p3"], (IngestionError, "f.csv: non-numeric score at line 2: '0x1p3'")),
        (["v1,i1,0,+2", "v1,i2,0,nan"], (IngestionError, "f.csv: non-finite score at line 3: 'nan'")),
        (["v1,i1,0,inf"], (IngestionError, "f.csv: non-finite score at line 2: 'inf'")),
        (["v1,i1,01,0.5"], (IngestionError, "f.csv: class out of {0,1} at line 2: '01'")),
        (["v1,i1,0,1e999"], (IngestionError, "f.csv: non-finite score at line 2: '1e999'")),
        # several faults: the first faulty line is reported, whatever the kind of fault
        (["v1,i1,2,0.5", "v1,i2,0"], (IngestionError, "f.csv: class out of {0,1} at line 2: '2'")),
        (["v1,i1,0,0.5", "v1,i2,0", "v1,i1,0,0.5"], (IngestionError, "f.csv: expected 4 fields, got 3 at line 3")),
        (["v1,i1,0,0.5", "v1,i1,0,x", "v1,i2,5,0.5"], (IngestionError, "f.csv: non-numeric score at line 3: 'x'")),
        (
            ["v1,i1,0,0.5", "", "v1,i1,0,0.5", "v1,i2,0,nan"],
            (IngestionError, "f.csv: duplicate key ('v1', 'i1') at line 4"),
        ),
        # within one line: flag before score before key
        (["v1,i1,0,0.5", "v1,i1,7,x"], (IngestionError, "f.csv: class out of {0,1} at line 3: '7'")),
        # one leading byte-order mark is dropped, from text or bytes, and line numbers stay the same
        (f"\ufeff{INDUCER_H}\nv1,i1,1,0.5\n", ([("v1", "i1")], [0.5])),
        (f"\ufeff{INDUCER_H}\nv1,i1,1,0.5\n".encode(), ([("v1", "i1")], [0.5])),
        (
            f"\ufeff{INDUCER_H}\nv1,i1,0,0.5\nv1,i2,0\n".encode(),
            (IngestionError, "f.csv: expected 4 fields, got 3 at line 3"),
        ),
        # any other U+FEFF is data: a second mark spoils the header, and one in a field is kept
        (f"\ufeff\ufeff{INDUCER_H}\n", (IngestionError, f"f.csv: bad header at line 1: {chr(0xFEFF) + INDUCER_H!r}")),
        (["\ufeffv1,i1,0,0.5"], ([("\ufeffv1", "i1")], [0.5])),
        # an id empty after stripping is a key fault, found after the score and before a repeated key
        (["v1,,0,x"], (IngestionError, "f.csv: non-numeric score at line 2: 'x'")),
        ([",i1,1,0.5"], (IngestionError, "f.csv: empty video_id at line 2")),
        ([" , ,1,0.5"], (IngestionError, "f.csv: empty video_id at line 2")),
        (["v1,i1,0,0.5", "v1,\t,0,0.5"], (IngestionError, "f.csv: empty image_id at line 3")),
        ([",i1,0,0.5", ",i1,0,0.5"], (IngestionError, "f.csv: empty video_id at line 2")),
        (["v1,i1,0,0.5", "v1,i1,0,0.5", "v1,,0,0.5"], (IngestionError, "f.csv: duplicate key ('v1', 'i1') at line 3")),
    ],
)
def test_parser_accepts_what_the_readme_states(rows, result):
    # rows: the lines under the inducer header, or a whole file as str or bytes
    text = rows if isinstance(rows, (str, bytes)) else INDUCER_H + "\n" + "\n".join(rows) + "\n"
    if not isinstance(result[0], type):
        keys, scores = result
        result = (keys, np.dtype(np.float64).str, np.array(scores, dtype=np.float64).tobytes())
    assert parse_outcome(text) == result


@pytest.mark.parametrize("encode", [False, True])
def test_truth_files_drop_one_leading_byte_order_mark(encode):
    def outcome(text):
        try:
            return parse_ground_truth(io.BytesIO(text.encode()) if encode else io.StringIO(text))
        except IngestionError as exc:
            return type(exc), str(exc)

    plain = f"{TRUTH_H}\nv1,i1,1\nv1,i2,0\n"
    assert outcome("\ufeff" + plain) == outcome(plain) == {("v1", "i1"): 1, ("v1", "i2"): 0}
    assert outcome(f"\ufeff{TRUTH_H}\nv1,i1,1\nv1,i2,5\n") == (
        IngestionError, "ground truth: label out of {0,1} at line 3: '5'"
    )


BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", BREAKS)
def test_any_splitlines_break_ends_a_line(brk):
    text = brk.join([INDUCER_H, "v1,i1,0,0.5", "v1,i2,1,0.25"]) + brk
    table = parse_inducer_file(io.StringIO(text), "c")
    assert table.keys == [("v1", "i1"), ("v1", "i2")]
    assert table.scores.tolist() == [0.5, 0.25]


# ---------------------------------------------------------------- the columnar parser against the per-line one

# good values repeat, so that many files parse; each bad one is a fault the parser must name
_VIDEOS = st.sampled_from(["v1", "v2", " v1 ", "\ufeffv1", "é"] * 4 + ["", " "])
_IMAGES = st.sampled_from(["i1", "i2", "\ti2", "i3", "i4", "i5"] * 4 + ["", " "])
_FLAGS = st.sampled_from(["0", "1"] * 8 + [" 1 ", "01", "2", "", "1.0"])
_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.5"] * 16 + ["1_0", "-0.0", " 1e3 ", "+2", "x", "nan", "1e999", "-inf", "", "0x1p3", "1__0"]),
)


@st.composite
def _csv_text(draw, header, fields):
    """A file under `header` with good and bad rows, blank lines and any line breaks, as str or bytes."""
    rows = {
        "good": st.tuples(_VIDEOS, _IMAGES, _FLAGS, *fields).map(",".join),
        "any count": st.lists(st.sampled_from(["v1", "i1", "0", "0.5"]), max_size=6).map(",".join),
        "blank": st.sampled_from(["", " ", "\t \t"]),
    }
    kinds = draw(st.lists(st.sampled_from(["good"] * 8 + ["any count", "blank"]), max_size=12))
    lines = [draw(st.sampled_from([header, f" {header}\t"]))] + [draw(rows[kind]) for kind in kinds]
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, breaks))
    return text.encode() if draw(st.booleans()) else text


@settings(max_examples=400)
@given(text=_csv_text(INDUCER_H, [_SCORES]))
def test_columnar_inducer_parser_matches_the_per_line_parser(text):
    assert parse_outcome(text) == parse_outcome(text, oracles.parse_inducer_file)


@settings(max_examples=200)
@given(text=_csv_text(TRUTH_H, []))
def test_columnar_truth_parser_matches_the_per_line_parser(text):
    assert truth_outcome(text) == truth_outcome(text, oracles.parse_ground_truth)


def test_load_ground_truth_merges_and_rejects_cross_file_duplicates(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("video_id,image_id,label\nv1,i1,1\n")
    b.write_text("video_id,image_id,label\nv2,i2,0\n")
    merged = load_ground_truth([a, b])
    assert len(merged) == 2
    b.write_text("video_id,image_id,label\nv1,i1,0\n")
    with pytest.raises(IngestionError, match="already appears in"):
        load_ground_truth([a, b])
    # with three files, the message names the file that first held the key and the one that repeats it
    b.write_text("video_id,image_id,label\nv2,i2,0\n")
    c = tmp_path / "c.csv"
    c.write_text("video_id,image_id,label\nv3,i3,1\nv1,i1,1\n")
    with pytest.raises(IngestionError) as raised:
        load_ground_truth([a, b, c])
    assert str(raised.value) == f"key ('v1', 'i1') of truth file {c} already appears in {a}"


# ---------------------------------------------------------------- assemble

def two_tables():
    t1 = parse_inducer_file(inducer_source("v1,i2,0,0.4", "v1,i1,1,0.1"), "a")
    t2 = parse_inducer_file(inducer_source("v1,i1,1,0.9", "v1,i2,0,0.6"), "b")
    truth = {("v1", "i1"): 1, ("v1", "i2"): 0}
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
    with pytest.raises(IngestionError, match="disagree on 2 keys"):
        assemble([t1, t2], {("v1", "i1"): 0, ("v2", "i2"): 0})


def test_assemble_missing_label():
    t1 = table("a", [("v1", "i1")], [0.1])
    with pytest.raises(IngestionError, match="1 keys missing from ground truth"):
        assemble([t1], {})


def test_assemble_tolerates_extra_truth_keys():
    t1 = table("a", [("v1", "i1")], [0.1])
    matrix = assemble([t1], {("v1", "i1"): 1, ("zz", "zz"): 0})
    assert matrix.n_samples == 1


def test_assemble_empty_table_list():
    with pytest.raises(IngestionError, match="need at least one inducer table"):
        assemble([], {})


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


# ---------------------------------------------------------------- one key column per split

SPLIT_KEYS = random.Random(2).sample([(f"v{r // 4}", f"i{r:02d}") for r in range(12)], 12)  # not sorted


def write_inducer(path, keys, scores):
    rows = (f"{v},{i},{c % 2},{x!r}" for c, ((v, i), x) in enumerate(zip(keys, np.asarray(scores).tolist())))
    path.write_text("\n".join([INDUCER_H, *rows]) + "\n")


def test_a_split_interns_its_keys_whatever_the_row_order(tmp_path):
    rng = np.random.default_rng(1)
    columns = {name: rng.random(len(SPLIT_KEYS)) for name in ("a", "b", "c", "d")}
    forward, mixed = tmp_path / "forward", tmp_path / "mixed"
    forward.mkdir()
    mixed.mkdir()
    for name, scores in columns.items():
        write_inducer(forward / f"{name}.csv", SPLIT_KEYS, scores)
    # the first file reversed, the second as written, the third shuffled and the fourth in the
    # first file's order: the same scores by key
    order = random.Random(4).sample(range(len(SPLIT_KEYS)), len(SPLIT_KEYS))
    write_inducer(mixed / "a.csv", SPLIT_KEYS[::-1], columns["a"][::-1])
    write_inducer(mixed / "b.csv", SPLIT_KEYS, columns["b"])
    write_inducer(mixed / "c.csv", [SPLIT_KEYS[i] for i in order], columns["c"][order])
    write_inducer(mixed / "d.csv", SPLIT_KEYS[::-1], columns["d"][::-1])
    tables = load_split([str(mixed)])
    assert [t.keys for t in tables] == [
        SPLIT_KEYS[::-1], SPLIT_KEYS, [SPLIT_KEYS[i] for i in order], SPLIT_KEYS[::-1]
    ]
    assert len({id(key) for t in tables for key in t.keys}) == len(SPLIT_KEYS)  # one tuple per key
    # one key list per row order: the fourth table shares the first's, and no other list is shared
    assert tables[3].keys is tables[0].keys
    assert len({id(t.keys) for t in tables}) == 3
    truth = dict.fromkeys(SPLIT_KEYS, 1)
    interned = assemble(tables, truth)
    unshared = assemble([read_inducer_csv(mixed / f"{name}.csv") for name in columns], truth)
    expected = assemble(load_split([str(forward)]), truth)
    for matrix in (unshared, expected):
        assert interned.sample_keys == matrix.sample_keys == sorted(SPLIT_KEYS)
        assert interned.scores.tobytes() == matrix.scores.tobytes()
        assert interned.labels.tobytes() == matrix.labels.tobytes()


@pytest.mark.parametrize("keys", [SPLIT_KEYS[:-1], SPLIT_KEYS + [("v9", "i99")]], ids=["missing", "extra"])
def test_a_key_set_mismatch_names_both_inducers(tmp_path, keys):
    write_inducer(tmp_path / "a.csv", SPLIT_KEYS, np.zeros(len(SPLIT_KEYS)))
    write_inducer(tmp_path / "b.csv", keys, np.zeros(len(keys)))
    write_inducer(tmp_path / "c.csv", SPLIT_KEYS, np.zeros(len(SPLIT_KEYS)))
    tables = load_split([str(tmp_path)])
    with pytest.raises(IngestionError, match="inducers 'a' and 'b' disagree on 1 keys"):
        assemble(tables, dict.fromkeys(keys + SPLIT_KEYS, 1))


@pytest.mark.parametrize("shuffled", [False, True], ids=["one-order", "every-file-shuffled"])
def test_a_split_keeps_one_key_column_in_memory(tmp_path, shuffled):
    # the paper's dev split: 29 inducers scoring the same 1877 images of 78 videos
    keys = [(f"dv{r * 78 // 1877:02d}", f"di{r:04d}") for r in range(1877)]
    rng = np.random.default_rng(2)
    for j in range(29):
        order = rng.permutation(len(keys)) if shuffled else range(len(keys))
        write_inducer(tmp_path / f"inducer_{j:02d}.csv", [keys[i] for i in order], rng.random(len(keys)))
    tracemalloc.start()
    try:
        tables = load_split([str(tmp_path)])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 29 copies of the keys alone would hold about 9 MB; 29 key lists of 1877 pointers, 0.4 MB
    assert kept < (2 if shuffled else 1) * 2**20, f"{kept / 2**20:.2f} MB kept"
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB peak"
    assert len(tables) == 29 and len({id(key) for t in tables for key in t.keys}) == len(keys)
    # one key list per row order: all tables share one list, or each shuffled file keeps its own
    assert len({id(t.keys) for t in tables}) == (29 if shuffled else 1)


# ---------------------------------------------------------------- normalization

def test_fit_minmax_examples():
    ranges = fit_minmax(matrix_from([[2, 4, 6], [0.5, 0.5, 0.5], [-1, 0, 3]]))
    assert ranges == {"c0": (2.0, 6.0), "c1": (0.5, 0.5), "c2": (-1.0, 3.0)}


def test_apply_minmax_scales_and_clamps():
    fit_on = matrix_from([[2, 4, 6]])
    ranges = fit_minmax(fit_on)
    assert apply_minmax(ranges, fit_on).scores[:, 0].tolist() == [0.0, 0.5, 1.0]
    out_of_range = matrix_from([[8]])
    assert apply_minmax(ranges, out_of_range).scores[0, 0] == 1.0


def test_apply_minmax_degenerate_column_is_zero():
    fit_on = matrix_from([[0.5, 0.5]])
    ranges = fit_minmax(fit_on)
    assert apply_minmax(ranges, fit_on).scores[:, 0].tolist() == [0.0, 0.0]


def test_apply_minmax_requires_every_column():
    with pytest.raises(ValueError, match="no normalization range"):
        apply_minmax({"other": (0.0, 1.0)}, matrix_from([[1, 2]]))


def test_fit_minmax_empty():
    empty = ScoreMatrix([], np.zeros(0), ["c0"], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        fit_minmax(empty)


def test_normalization_params_validate():
    with pytest.raises(ValueError, match="min > max"):
        apply_minmax({"c0": (2.0, 1.0)}, matrix_from([[1, 2]]))


def test_apply_minmax_rejects_a_span_that_overflows():
    # both ends are finite, but max - min is not: scaling would give NaN columns
    matrix = matrix_from([[0.5, 0.25], [1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="range for 'c1' is too wide"):
            apply_minmax(fit_minmax(matrix), matrix)


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
    ranges = result.norm_params
    doc = json.loads((out / "norm_params.json").read_text())
    assert {name: (entry["min"], entry["max"]) for name, entry in doc.items()} == ranges
    name, (lo, hi) = next(iter(ranges.items()))
    assert doc[name] == {"min": lo, "max": hi}


# ---------------------------------------------------------------- file round trips

def test_inducer_csv_round_trip_preserves_scores_exactly(tmp_path):
    rng = np.random.default_rng(5)
    keys = [(f"v{i % 3}", f"i{i}") for i in range(20)]
    scores = rng.normal(size=20).tolist()
    classes = rng.integers(0, 2, size=20).tolist()
    path = tmp_path / "roundtrip.csv"
    rows = [f"{v},{i},{c},{x!r}" for (v, i), c, x in zip(keys, classes, scores)]
    path.write_text("\n".join(["video_id,image_id,class,score", *rows]) + "\n")
    loaded = read_inducer_csv(path)
    assert loaded.inducer_name == "roundtrip"
    assert loaded.keys == keys
    assert loaded.scores.tolist() == scores


def test_truth_csv_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("video_id,image_id,label\nv1,i1,1\nv0,i9,0\n")
    assert load_ground_truth([path]) == {("v1", "i1"): 1, ("v0", "i9"): 0}


def test_read_inducer_csv_errors_name_the_path(tmp_path):
    path = tmp_path / "test" / "inducer_3.csv"
    path.parent.mkdir()
    path.write_text("video_id,image_id,class,score\nv,i,1,x\n")
    with pytest.raises(IngestionError) as raised:
        read_inducer_csv(path)
    assert str(raised.value) == f"{path}: non-numeric score at line 2: 'x'"


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
    truth = {k: 1 for k in keys}
    matrix = assemble(tables, truth)
    assert matrix.sample_keys == keys
    assert math.isfinite(matrix.scores.sum())
