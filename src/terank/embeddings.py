"""Labeled embedding sets: data model, validation, EMB1 and CSV I/O.

EMB1 is the package's binary interchange format (little-endian):

    magic "EMB1" | u32 N | u32 D | u32 C | u32 reserved(=0)
    | N*D float32 row-major features | N u32 labels
"""
from __future__ import annotations

import csv
import io
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError

MAGIC = b"EMB1"
_HEADER = struct.Struct("<4I")  # N, D, C, reserved


@dataclass(frozen=True)
class EmbeddingSet:
    """N feature rows with integer class labels in [0, class_count).

    Immutable after construction: the set holds read-only views, so it
    can be shared across worker threads. The views share the caller's
    memory whenever its arrays already have the set's dtype and layout;
    the caller's own arrays stay writable, and writing them changes the
    set. `class_counts` holds each class's row count.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    model_id: str = "unknown"
    dataset_id: str = "unknown"
    class_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float32)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
            )
        n, d = feats.shape
        if n < 2:
            raise DataError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise DataError("need at least 1 feature dimension")
        if not 2 <= self.class_count <= n:
            raise DataError(
                f"need 2 to {n} classes for {n} samples, got {self.class_count}"
            )
        if not np.isfinite(feats).all():
            bad = int(np.flatnonzero(~np.isfinite(feats).ravel())[0])
            raise DataError(f"non-finite feature value at flat index {bad}")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise DataError(
                f"labels must lie in [0, {self.class_count}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        present = np.bincount(labels, minlength=self.class_count)
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
                class_count=self.class_count,
                model_id=self.model_id,
                dataset_id=self.dataset_id,
            )
        except DataError as exc:
            if np.isfinite(features).all():
                raise
            raise NumericError(f"derived set: {exc}") from None


def save_emb1(ds: EmbeddingSet, path: str | Path) -> None:
    """Write the canonical EMB1 layout (features stored as float32)."""
    # the parts are written one after another: no joined copy of the file
    with Path(path).open("wb") as f:
        f.write(MAGIC + _HEADER.pack(ds.sample_count, ds.feature_dim, ds.class_count, 0))
        f.write(np.ascontiguousarray(ds.features, dtype="<f4"))
        f.write(ds.labels.astype("<u4"))


def load_emb1(path: str | Path) -> EmbeddingSet:
    """Parse an EMB1 file; the model id is the file stem."""
    path = Path(path)
    raw = path.read_bytes()
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
    return EmbeddingSet(
        features=feats.reshape(n, d).copy(),
        labels=labels.astype(np.int64),
        class_count=c,
        model_id=path.stem,
    )


def load_csv(path: str | Path, label_column: str = "label") -> EmbeddingSet:
    """Load a header CSV; the model id is the file stem. Feature column
    order is preserved; labels are remapped to a dense [0, C) range."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
        lines = list(csv.reader(io.StringIO(text, newline="")))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"not a readable UTF-8 CSV file ({exc})") from None
    if not lines:
        raise DataError("empty file")
    header = lines[0]
    if label_column not in header:
        raise DataError(f"no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    rows: list[list[float]] = []
    raw_labels: list[int] = []
    for lineno, row in enumerate(lines[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"line {lineno}: {len(row)} cells, expected {len(header)}")
        try:
            raw_labels.append(int(row[label_idx]))
        except ValueError:
            raise DataError(
                f"line {lineno}: label {row[label_idx]!r} is not an integer"
            ) from None
        vals = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataError(
                    f"line {lineno}: column {header[i]!r} cell {cell!r} is not numeric"
                ) from None
        rows.append(vals)
    uniq = sorted(set(raw_labels))
    remap = {orig: dense for dense, orig in enumerate(uniq)}
    return EmbeddingSet(
        features=np.asarray(rows, dtype=np.float32).reshape(len(rows), len(header) - 1),
        labels=np.asarray([remap[v] for v in raw_labels], dtype=np.int64),
        class_count=len(uniq),
        model_id=path.stem,
    )
