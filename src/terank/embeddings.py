"""Labeled embedding sets: data model, validation, EMB1 and CSV I/O.

EMB1 is the package's binary interchange format (little-endian):

    magic "EMB1" | u32 N | u32 D | u32 C | u32 reserved(=0)
    | N*D float32 row-major features | N u32 labels naming C classes
"""
from __future__ import annotations

import csv
import io
import os
import struct
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4I")  # N, D, C, reserved


def _int64_labels(values) -> np.ndarray:
    """`values` as int64 labels. A label that the cast would change or
    refuse, such as 0.7, NaN, 2**70, None or 'a', is a DataError naming
    the first one; integral floats such as 2.0, and bools, pass."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # ragged
        raise DataError(f"labels must be an array of integers ({exc})") from None
    if np.can_cast(raw.dtype, np.int64):  # bools and integers that int64 holds
        return raw.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        try:
            labels = raw.astype(np.int64)
            changed = np.flatnonzero(labels != raw)
        except (TypeError, ValueError, OverflowError):  # None, 'a', 2**70
            changed = [i for i, value in enumerate(raw.ravel()) if _cast_changes(value)]
    if len(changed):
        i = changed[0]
        raise DataError(
            f"labels must be integers, got {raw.ravel()[i:i + 1].tolist()[0]!r} "
            f"at index {i}"
        )
    return labels


def _cast_changes(value) -> bool:
    """Whether the int64 cast of one label refuses or changes it."""
    try:
        return bool(np.asarray(value).astype(np.int64) != value)
    except (TypeError, ValueError, OverflowError):
        return True


@dataclass(frozen=True)
class EmbeddingSet:
    """N feature rows with integer class labels in [0, class_count), each
    class with rows, so the labels fix the count and N rows name at most N.

    Immutable after construction: the set holds read-only views, so it
    can be shared across worker threads. The views share the caller's
    memory whenever its arrays already have the set's dtype and layout;
    the caller's own arrays stay writable, and writing them changes the
    set. `class_counts` holds each class's row count.
    """

    features: np.ndarray
    labels: np.ndarray
    _: KW_ONLY
    model_id: str = "unknown"
    dataset_id: str = "unknown"
    class_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            feats = np.asarray(self.features)
            if feats.dtype.kind == "c":
                raise TypeError(f"got {feats.dtype}")
            if feats.dtype not in (np.float32, np.float64):
                feats = feats.astype(np.float32)
        except (TypeError, ValueError) as exc:  # ragged rows, text, complex
            raise DataError(
                f"features must be an array of real numbers ({exc})") from None
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        labels = _int64_labels(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
            )
        n, d = feats.shape
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise DataError("need at least 1 feature dimension")
        if not np.isfinite(feats).all():
            bad = int(np.flatnonzero(~np.isfinite(feats).ravel())[0])
            raise DataError(f"non-finite feature value at flat index {bad}")
        if labels.min() < 0 or labels.max() >= n:
            raise DataError(
                f"labels must lie in [0, {n}) for {n} samples, "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        present = np.bincount(labels)
        if len(present) < 2:
            raise DataError(f"need 2 to {n} classes for {n} samples, got {len(present)}")
        if present.min() == 0:
            raise DataError(f"class {present.argmin()} has no samples")
        # views, so the caller's arrays keep their own flags
        feats = np.ascontiguousarray(feats).view()
        labels = labels.view()
        for array in (feats, labels, present):
            array.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_counts", present)

    @property
    def class_count(self) -> int:
        return self.class_counts.shape[0]

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def class_rows(self, x: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Each class's rows of `x` (default: the features), class 0 first
        and one class per step: the rows a boolean mask per class gives, in
        input row order, taken by index from one stable argsort of the labels."""
        x = self.features if x is None else x
        order = np.argsort(self.labels, kind="stable")
        return (x[rows] for rows in np.split(order, np.cumsum(self.class_counts[:-1])))

    def with_features(self, features: np.ndarray) -> "EmbeddingSet":
        """Same labels and identity, new feature matrix. The matrix is
        derived from finite features, so a non-finite value means the
        computation overflowed: it raises NumericError, not DataError."""
        try:
            return EmbeddingSet(
                features=features,
                labels=self.labels,
                model_id=self.model_id,
                dataset_id=self.dataset_id,
            )
        except DataError as exc:
            if np.isfinite(features).all():
                raise
            raise NumericError(f"derived set: {exc}") from None


@contextmanager
def emb1_writer(path: str | Path, labels: np.ndarray,
                dim: int) -> Iterator[Callable[[np.ndarray], None]]:
    """Open the EMB1 file `path` for len(labels) rows of `dim` features
    in max(labels) + 1 classes, and yield a function that appends a block
    of rows (stored as float32), in row order. When the block ends, the
    labels are written after the rows; rows that do not fill the header's
    N x D are a DataError. The one EMB1 writer: a caller that draws its
    rows block by block never holds them all."""
    with Path(path).open("wb") as f:
        f.write(MAGIC + _HEADER.pack(len(labels), dim, int(labels.max()) + 1, 0))
        written = 0

        def append(rows: np.ndarray) -> None:
            nonlocal written
            rows = np.ascontiguousarray(rows, dtype="<f4")
            f.write(rows)
            written += rows.size

        yield append
        if written != len(labels) * dim:
            raise DataError(f"wrote {written} feature values, the header "
                            f"promises {len(labels)} x {dim}")
        f.write(labels.astype("<u4"))


def save_emb1(ds: EmbeddingSet, path: str | Path) -> None:
    """Write the canonical EMB1 layout (features stored as float32)."""
    with emb1_writer(path, ds.labels, ds.feature_dim) as append:
        append(ds.features)


def model_id(path: str | Path) -> str:
    """The model id of the input file `path`: its name's stem as UTF-8 text,
    whatever encoding the locale decoded the name with; the one place a
    stem is read. A name that is not UTF-8 is a DataError naming the file."""
    try:
        return os.fsencode(Path(path).stem).decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: file name is not UTF-8") from None


def load_emb1(path: str | Path) -> EmbeddingSet:
    """Parse an EMB1 file; the model id is `model_id(path)`. The features
    are a read-only view of the file's bytes, which stay alive with the
    set: nothing is copied out of them."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise DataError(f"expected magic {MAGIC!r}, got {raw[:4]!r}")
    if len(raw) < 4 + _HEADER.size:
        raise DataError(f"header truncated at {len(raw)} bytes")
    n, d, c, reserved = _HEADER.unpack_from(raw, 4)
    if reserved != 0:
        raise DataError(f"reserved header field is {reserved}, not 0")
    expected = 4 + _HEADER.size + n * d * 4 + n * 4
    if len(raw) < expected:
        raise DataError(f"payload is {len(raw)} bytes, header promises {expected}")
    if len(raw) > expected:
        raise DataError(f"{len(raw) - expected} trailing bytes after payload")
    offset = 4 + _HEADER.size
    feats = np.frombuffer(raw, dtype="<f4", count=n * d, offset=offset)
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=offset + n * d * 4)
    if n and labels.max() >= c:
        raise DataError(f"labels must lie in [0, {c}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    ds = EmbeddingSet(feats.reshape(n, d), labels, model_id=model_id(path))
    if ds.class_count != c:
        raise DataError(f"header names {c} classes, the labels name {ds.class_count}")
    return ds


def read_csv(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The one CSV reader: a UTF-8 file, BOM or none, as its header and its
    rows, each with the file line it starts on; blank lines are skipped. A
    file that does not decode or parse, is empty, or has a row of other
    than the header's cell count is a DataError."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
        reader = csv.reader(io.StringIO(text, newline=""))
        rows, start = [], 1
        for row in reader:
            if row:
                rows.append((start, row))
            start = reader.line_num + 1
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"not a readable UTF-8 CSV file ({exc})") from None
    if not rows:
        raise DataError("empty file")
    (_, header), *rows = rows
    for line, row in rows:
        if len(row) != len(header):
            raise DataError(f"line {line}: {len(row)} cells, expected {len(header)}")
    return header, rows


def csv_text(rows) -> str:
    """The one CSV writer: `rows` as CSV text, each row ended by CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def load_csv(path: str | Path, label_column: str = "label") -> EmbeddingSet:
    """Load a header CSV through read_csv; the model id is `model_id(path)`.
    Feature column order is preserved; labels are remapped to a dense
    [0, C) range. A bad cell is a DataError `line N: ...`."""
    header, lines = read_csv(path)
    if label_column not in header:
        raise DataError(f"no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    rows, raw_labels = [], []
    for line, row in lines:
        label = row[label_idx]
        try:
            raw_labels.append(int(label))
        except ValueError:
            raise DataError(f"line {line}: label {label!r} is not an integer") from None
        vals = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(f"line {line}: column {header[i]!r} cell {cell!r} "
                                "is not numeric") from None
        rows.append(vals)
    return EmbeddingSet(
        features=np.asarray(rows, dtype=np.float32).reshape(len(rows), len(header) - 1),
        labels=np.unique(raw_labels, return_inverse=True)[1],
        model_id=model_id(path),
    )
