"""EmbeddingSet validation, EMB1 byte layout, CSV ingestion."""
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import EmbeddingSet, load_csv, load_emb1, save_emb1
from terank.errors import DataError
from terank.synth import gen_class_gaussians


def emb1_bytes(n, d, c, features, labels, magic=b"EMB1", reserved=0):
    head = magic + struct.pack("<4I", n, d, c, reserved)
    body = np.asarray(features, dtype="<f4").tobytes()
    body += np.asarray(labels, dtype="<u4").tobytes()
    return head + body


def small_set():
    return EmbeddingSet(
        features=np.array([[0.0], [1.0]], dtype=np.float32),
        labels=np.array([0, 1]),
        class_count=2,
        model_id="tiny",
    )


# --- EMB1 ------------------------------------------------------------------

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


def test_two_saves_byte_identical(tmp_path):
    ds = gen_class_gaussians(2, 10, 3, rho=1.0, noise=1.0, seed=5)
    p1, p2 = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_emb1(ds, p1)
    save_emb1(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


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


# --- validation ------------------------------------------------------------

def test_every_class_must_occur():
    with pytest.raises(DataError, match="class 1 has no samples"):
        EmbeddingSet(
            features=np.zeros((3, 2), dtype=np.float32),
            labels=np.array([0, 0, 0]),
            class_count=2,
        )


def test_more_classes_than_samples_rejected():
    # checked before the per-class count, which would allocate one slot
    # per class named in an EMB1 header
    with pytest.raises(DataError, match="need 2 to 2 classes"):
        EmbeddingSet(
            features=np.zeros((2, 1), dtype=np.float32),
            labels=np.array([0, 1]),
            class_count=2**32 - 1,
        )


def test_features_are_read_only():
    ds = small_set()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_the_callers_arrays_stay_writable(dtype):
    x = np.zeros((4, 2), dtype=dtype)
    y = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = EmbeddingSet(features=x, labels=y, class_count=2)
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
    ds = EmbeddingSet(features=x, labels=y, class_count=2)
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
        class_count=2,
    )
    path = tmp_path_factory.mktemp("rt") / "f.emb1"
    save_emb1(ds, path)
    back = load_emb1(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
