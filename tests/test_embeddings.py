"""EmbeddingSet validation, EMB1 byte layout, CSV ingestion, model ids."""
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import EmbeddingSet, load_csv, load_emb1, save_emb1
from terank.embeddings import csv_text, emb1_writer, model_id, os_text, read_csv
from terank.errors import DataError
from class_gaussians import gen_class_gaussians


def emb1_bytes(n, d, c, features, labels, magic=b"EMB1", reserved=0):
    head = magic + struct.pack("<4I", n, d, c, reserved)
    body = np.asarray(features, dtype="<f4").tobytes()
    body += np.asarray(labels, dtype="<u4").tobytes()
    return head + body


def small_set():
    return EmbeddingSet(
        features=np.array([[0.0], [1.0]], dtype=np.float32),
        labels=np.array([0, 1]),
        model_id="tiny",
    )


# --- EMB1 ------------------------------------------------------------------

def test_block_writer_writes_the_bytes_of_save_emb1(tmp_path):
    # the rows may come in blocks of any size, float64 ones included; rows
    # short of the header's N x D are refused before the labels are written
    ds = gen_class_gaussians(3, 5, 4, rho=2.0, noise=1.0, seed=1)
    save_emb1(ds, tmp_path / "whole.emb1")
    with emb1_writer(tmp_path / "blocks.emb1", ds.labels, 4) as append:
        append(ds.features[:7])
        append(ds.features[7:].astype(np.float64))
    assert (tmp_path / "blocks.emb1").read_bytes() == (tmp_path / "whole.emb1").read_bytes()
    with pytest.raises(DataError, match=re.escape(
            "wrote 56 feature values, the header promises 15 x 4")):
        with emb1_writer(tmp_path / "short.emb1", ds.labels, 4) as append:
            append(ds.features[:14])


def test_a_count_the_u32_header_cannot_hold_is_refused_before_the_file_opens(tmp_path):
    # the header is packed before any row is drawn, so no large array is made
    path = tmp_path / "wide.emb1"
    with pytest.raises(DataError, match=re.escape(
            "EMB1 dimension 4294967296 does not fit the header's u32 field "
            "(0 to 4294967295)")):
        with emb1_writer(path, np.array([0, 1, 0, 1]), 2**32):
            pytest.fail("the writer opened")
    assert not path.exists()


def test_load_smallest_valid_file(tmp_path):
    path = tmp_path / "t.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2, [[0.0], [1.0]], [0, 1]))
    ds = load_emb1(path)
    assert ds.sample_count == 2 and ds.feature_dim == 1 and ds.class_count == 2
    assert ds.features.tolist() == [[0.0], [1.0]]
    assert ds.labels.tolist() == [0, 1]
    assert ds.model_id == "t"


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2, [[0.0], [1.0]], [0, 1], magic=b"XXXX"))
    with pytest.raises(DataError, match="expected magic"):
        load_emb1(path)


def test_truncated_payload(tmp_path):
    full = emb1_bytes(2, 1, 2, [[0.0], [1.0]], [0, 1])
    path = tmp_path / "cut.emb1"
    path.write_bytes(full[:-3])
    with pytest.raises(DataError, match="header promises"):
        load_emb1(path)
    path.write_bytes(full + b"\x00")
    with pytest.raises(DataError, match="trailing bytes after payload"):
        load_emb1(path)


def test_label_out_of_range(tmp_path):
    path = tmp_path / "lab.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2, [[0.0], [1.0]], [0, 5]))
    with pytest.raises(DataError, match=re.escape("labels must lie in [0, 2), "
                                                  "got range [0, 5]")):
        load_emb1(path)


def test_non_finite_feature(tmp_path):
    path = tmp_path / "nan.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2, [[np.nan], [1.0]], [0, 1]))
    with pytest.raises(DataError, match="non-finite feature value"):
        load_emb1(path)


def test_reserved_field_must_be_zero(tmp_path):
    path = tmp_path / "res.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2, [[0.0], [1.0]], [0, 1], reserved=7))
    with pytest.raises(DataError, match="reserved header field is 7"):
        load_emb1(path)


def test_header_is_16_bytes_after_magic(tmp_path):
    ds = gen_class_gaussians(3, 4, 4, rho=1.0, noise=0.5, seed=0)
    assert (ds.sample_count, ds.feature_dim, ds.class_count) == (12, 4, 3)
    path = tmp_path / "h.emb1"
    save_emb1(ds, path)
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    assert struct.unpack("<4I", raw[4:20]) == (12, 4, 3, 0)
    assert len(raw) == 20 + 12 * 4 * 4 + 12 * 4


def test_round_trip_bit_identical(tmp_path):
    ds = gen_class_gaussians(4, 25, 6, rho=3.0, noise=1.0, seed=99)
    path = tmp_path / "r.emb1"
    save_emb1(ds, path)
    back = load_emb1(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.class_count == ds.class_count


def test_load_shares_the_file_buffer_and_peaks_under_one_and_a_half_files(tmp_path):
    # zoobench's model shape, 2000 x 128: the features are a read-only view
    # of the file's bytes; copying them out of the buffer peaked at 2.2 files
    path = tmp_path / "z.emb1"
    save_emb1(gen_class_gaussians(10, 200, 128, rho=1.0, noise=1.0, seed=3), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        ds = load_emb1(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * size
    assert not ds.features.flags.owndata and not ds.features.flags.writeable
    assert ds.features.tobytes() == path.read_bytes()[20:20 + 2000 * 128 * 4]


def test_two_saves_byte_identical(tmp_path):
    ds = gen_class_gaussians(2, 10, 3, rho=1.0, noise=1.0, seed=5)
    p1, p2 = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_emb1(ds, p1)
    save_emb1(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- model ids ---------------------------------------------------------------

def test_model_id_is_the_stem_as_utf8_text_whatever_the_locale_decoded():
    # the locale's decoding of the UTF-8 name "modèle-00.emb1": an ASCII
    # locale gives two surrogate escapes for its two bytes of "è"
    name = os.fsdecode("modèle-00.emb1".encode())
    assert model_id(Path("pool") / name) == "modèle-00"
    assert model_id(Path("pool") / "mod\udcc3\udca8le-00.emb1") == "modèle-00"
    assert model_id("pool/model-00.csv") == "model-00"


# a file name as the OS hands it over: bytes without NUL or "/", UTF-8
# text or not
NAME_BYTES = st.one_of(st.binary(min_size=1, max_size=12),
                       st.text(min_size=1, max_size=6).map(str.encode)).map(
    lambda name: name.replace(b"\0", b"").replace(b"/", b"")).filter(bool)


@given(NAME_BYTES)
def test_os_text_reads_a_name_as_utf8_whatever_the_locale(name):
    # os.fsdecode is the locale's decoding of a name the OS hands over;
    # os_text reads its bytes as UTF-8, and model_id takes exactly the
    # names that are UTF-8. Run under an ASCII and a UTF-8 locale, this
    # checks the rule in both
    assert os_text(os.fsdecode(name)) == name.decode("utf-8", "surrogateescape")
    path = Path("pool") / os.fsdecode(name + b".emb1")
    try:
        text = name.decode("utf-8")
    except UnicodeDecodeError:
        with pytest.raises(DataError, match="file name is not UTF-8"):
            model_id(path)
    else:
        assert model_id(path) == text


@given(st.text())
def test_os_text_keeps_text_that_came_from_python(text):
    # a string with no surrogate escape, such as a flag given to the CLI
    # in-process, is its own text whatever the locale
    assert os_text(text) == os_text(text, "strict") == text


@pytest.mark.parametrize("suffix", [".emb1", ".csv"])
def test_a_file_name_that_is_not_utf8_is_a_data_error(tmp_path, suffix):
    # the byte 0xE8 alone ("è" in Latin-1) does not decode as UTF-8
    path = tmp_path / os.fsdecode(b"mod\xe8le" + suffix.encode())
    try:
        if suffix == ".emb1":
            save_emb1(small_set(), path)
        else:
            path.write_text("f0,label\n0.0,0\n1.0,1\n")
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    load = load_emb1 if suffix == ".emb1" else load_csv
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}: file name is not UTF-8"


# --- CSV -------------------------------------------------------------------

def test_csv_dense_remap(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("f0,f1,label\n1.0,2.0,5\n3.0,4.0,9\n5.0,6.0,5\n")
    ds = load_csv(path)
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.class_count == 2
    assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_csv_single_row_rejected(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("f0,label\n1.0,0\n")
    with pytest.raises(DataError, match="need at least 2 samples, got 1"):
        load_csv(path)


def test_csv_matches_emb1_within_tolerance(tmp_path):
    ds = gen_class_gaussians(3, 20, 5, rho=2.0, noise=1.0, seed=21)
    emb_path = tmp_path / "x.emb1"
    save_emb1(ds, emb_path)
    lines = ["f0,f1,f2,f3,f4,label"]
    for row, lab in zip(ds.features, ds.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{lab}")
    csv_path = tmp_path / "x.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    a = load_emb1(emb_path)
    b = load_csv(csv_path)
    assert a.labels.tolist() == b.labels.tolist()
    assert np.allclose(a.features, b.features, atol=1e-6)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("f0,f1\n1,2\n3,4\n")
    with pytest.raises(DataError, match="no column named 'label'"):
        load_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text("f0,label\n1.0,0\nfoo,1\n")
    with pytest.raises(DataError, match="is not numeric") as err:
        load_csv(path)
    assert "foo" in str(err.value)


def test_csv_single_class(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("f0,label\n1.0,3\n2.0,3\n")
    with pytest.raises(DataError, match="need 2 to 2 classes for 2 samples, got 1"):
        load_csv(path)


@pytest.mark.parametrize("text, message", [
    ("f0,label\n", "need at least 2 samples, got 0"),
    ("label\n0\n1\n", "need at least 1 feature dimension"),
], ids=["header-only", "label-only"])
def test_csv_shapes_are_checked_by_the_set(tmp_path, text, message):
    # the features keep their (rows, columns) shape, so an empty CSV is
    # refused for its sample count and a label-only CSV for its width
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(message)):
        load_csv(path)


def test_csv_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("f0,label\n\n1.0,0\r\n\r\n2.0,1\n\n")
    ds = load_csv(path)
    assert ds.features.tolist() == [[1.0], [2.0]]
    assert ds.labels.tolist() == [0, 1]


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\n\r\n", "empty file"),
    ("f0,label\n1.0,0\n2.0\n", "line 3: 1 cells, expected 2"),
    # the header's quoted cell spans lines 1 and 2, so `foo,1` is line 4
    ('"f\n0",label\n1.0,0\nfoo,1\n', "line 4: column 'f\\n0' cell 'foo' is not numeric"),
    ("f0,label\n\n1.0,x\n", "line 3: label 'x' is not an integer"),
], ids=["empty", "blank-lines", "short-row", "after-two-line-cell", "after-blank-line"])
def test_a_refused_csv_row_is_named_by_the_line_it_starts_on(tmp_path, text, message):
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError) as err:
        load_csv(path)
    assert str(err.value) == message


# cells the writer must quote: separators, quotes, every kind of line break
# and non-ASCII text. A BOM is left out: a leading one is the file's, and
# the reader drops it
csv_cells = st.lists(
    st.one_of(st.sampled_from([",", '"', "\r", "\n", "\r\n", " ", "a", "é", "✓"]),
              st.characters(blacklist_categories=("Cs",), blacklist_characters="\ufeff")),
    max_size=6).map("".join)


def line_breaks(text):
    return len(re.findall(r"\r\n|\r|\n", text))


@given(data=st.data(), width=st.integers(1, 4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_csv_reads_back_what_csv_text_writes(data, width):
    # each row comes back with the file line it starts on: one past the
    # line breaks of the rows before it
    rows = data.draw(st.lists(st.lists(csv_cells, min_size=width, max_size=width),
                              min_size=1, max_size=5))
    starts = [1 + line_breaks(csv_text(rows[:i])) for i in range(len(rows))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(csv_text(rows).encode("utf-8"))
        header, body = read_csv(path)
    assert [header, *(row for _, row in body)] == rows
    assert [line for line, _ in body] == starts[1:]


# --- validation ------------------------------------------------------------

def test_every_class_must_occur():
    with pytest.raises(DataError, match="class 1 has no samples"):
        EmbeddingSet(
            features=np.zeros((3, 2), dtype=np.float32),
            labels=np.array([0, 0, 2]),
        )


@pytest.mark.parametrize("features, labels, message", [
    (np.zeros(4), [0, 1, 0, 1], "features must be 2-D, got shape (4,)"),
    (np.zeros((3, 1)), [0, 1], "labels shape (2,) does not match 3 rows"),
    ([[0.0], [1.0, 2.0]], [0, 1],
     "features must be an array of real numbers (setting an array element"),
    (np.zeros((2, 1)), [[0, 1], [1]],
     "labels must be an array of integers (setting an array element"),
    ([["a", "b"], ["c", "d"]], [0, 1],
     "features must be an array of real numbers (could not convert string"),
    (np.array([[0j], [1 + 1j]]), [0, 1],
     "features must be an array of real numbers (got complex128)"),
], ids=["features-1d", "labels-short", "ragged-features", "ragged-labels",
        "text-features", "complex-features"])
def test_input_that_is_no_set_is_a_data_error(features, labels, message):
    # numpy's own errors for ragged or text input, and its complex-to-real
    # cast that drops the imaginary part, become the set's DataError
    with pytest.raises(DataError, match=re.escape(message)):
        EmbeddingSet(features, labels)


def test_a_derived_set_refused_for_finite_features_is_a_data_error():
    # only a non-finite derived matrix is an overflow (NumericError)
    message = "labels shape (2,) does not match 3 rows"
    with pytest.raises(DataError, match=re.escape(message)):
        small_set().with_features(np.zeros((3, 1)))


def test_more_classes_than_samples_rejected(tmp_path):
    # an EMB1 header's class count is a check on the file and sizes
    # nothing: 2^32 - 1 classes named for 2 rows allocate no per-class slot
    path = tmp_path / "wide.emb1"
    path.write_bytes(emb1_bytes(2, 1, 2**32 - 1, [[0.0], [1.0]], [0, 1]))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=re.escape(
                "header names 4294967295 classes, the labels name 2")):
            load_emb1(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_header_classes_must_be_the_classes_the_labels_name(tmp_path):
    path = tmp_path / "short.emb1"
    path.write_bytes(emb1_bytes(4, 1, 3, [[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1]))
    with pytest.raises(DataError, match=re.escape("header names 3 classes, the labels name 2")):
        load_emb1(path)
    path.write_bytes(emb1_bytes(4, 1, 2, [[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 2]))
    with pytest.raises(DataError, match=re.escape("labels must lie in [0, 2), got range [0, 2]")):
        load_emb1(path)


def test_the_class_count_is_read_from_the_labels():
    ds = EmbeddingSet(np.zeros((5, 1)), [2, 0, 1, 0, 2], model_id="m", dataset_id="d")
    assert ds.class_count == 3 and ds.class_counts.tolist() == [2, 1, 2]
    # a label past the rows is refused before the per-class count is formed
    with pytest.raises(DataError, match=re.escape(
            "labels must lie in [0, 2) for 2 samples, got range [0, 2147483647]")):
        EmbeddingSet(np.zeros((2, 1)), [0, 2**31 - 1])
    # the identity is keyword-only, so a stale count is no model id
    with pytest.raises(TypeError):
        EmbeddingSet(np.zeros((2, 1)), [0, 1], 2)


@pytest.mark.parametrize("labels, shown", [
    ([0.7, 1.9, 0.2, 1.5], "0.7 at index 0"),
    ([0.0, 1.0, float("nan"), 1.0], "nan at index 2"),
    ([0, 1, 0, 2**70], "1180591620717411303424 at index 3"),
    ([0.0, 1.0, 0.0, 2.0**70], "1.1805916207174113e+21 at index 3"),
    (np.array([0, 1, 0, 2**63], dtype=np.uint64), "9223372036854775808 at index 3"),
], ids=["fraction", "nan", "int-past-int64", "float-past-int64", "uint64-past-int64"])
def test_labels_the_int64_cast_would_change_are_refused(labels, shown):
    with pytest.raises(DataError, match=re.escape(f"labels must be integers, got {shown}")):
        EmbeddingSet(features=np.arange(8.0).reshape(4, 2), labels=labels)


@pytest.mark.parametrize("labels, shown", [
    ([0, None], "None at index 1"),
    (["a", "b"], "'a' at index 0"),
    ([2**70, None], "1180591620717411303424 at index 0"),
], ids=["none", "text", "int-past-int64-before-none"])
def test_labels_the_int64_cast_refuses_are_data_errors(labels, shown):
    # the cast raises a bare TypeError, ValueError or OverflowError here
    with pytest.raises(DataError, match=re.escape(f"labels must be integers, got {shown}")):
        EmbeddingSet(np.zeros((2, 1)), labels)


def test_integral_float_and_bool_labels_pass():
    x = np.arange(8.0).reshape(4, 2)
    assert EmbeddingSet(x, [0.0, 1.0, 2.0, 1.0]).labels.tolist() == [0, 1, 2, 1]
    assert EmbeddingSet(x, [False, True, True, False]).labels.tolist() == [0, 1, 1, 0]


def test_features_are_read_only():
    ds = small_set()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_the_callers_arrays_stay_writable(dtype):
    x = np.zeros((4, 2), dtype=dtype)
    y = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = EmbeddingSet(features=x, labels=y)
    assert x.flags.writeable and y.flags.writeable
    for array in (ds.features, ds.labels, ds.class_counts):
        assert not array.flags.writeable
    # the set's arrays share the caller's memory wherever no cast was needed
    assert np.shares_memory(ds.labels, y)
    assert np.shares_memory(ds.features, x) == (dtype != np.int64)
    x[0, 0] = 1
    y[0] = 1
    assert x[0, 0] == 1 and y[0] == 1


def test_a_set_of_read_only_arrays_works():
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    y = np.array([0, 1, 0, 1])
    for array in (x, y):
        array.setflags(write=False)
    ds = EmbeddingSet(features=x, labels=y)
    derived = ds.with_features(ds.features * 2.0)
    assert derived.labels.tolist() == [0, 1, 0, 1]
    assert derived.class_counts.tolist() == [2, 2]
    assert [rows.tolist() for rows in ds.class_rows()] == [[[0.0, 1.0], [4.0, 5.0]],
                                                           [[2.0, 3.0], [6.0, 7.0]]]
    with pytest.raises(ValueError):
        ds.labels[0] = 1


@given(
    n=st.integers(min_value=2, max_value=20),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_save_load_identity(tmp_path_factory, n, d, seed):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[rng.integers(0, n)] = 1  # guarantee both classes occur
    labels[0] = 0
    if (labels == 1).sum() == 0:
        labels[-1] = 1
    ds = EmbeddingSet(
        features=rng.normal(size=(n, d)).astype(np.float32),
        labels=labels,
    )
    path = tmp_path_factory.mktemp("rt") / "f.emb1"
    save_emb1(ds, path)
    back = load_emb1(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
