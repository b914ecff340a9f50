"""Dataset generation, ingestion, and train/retain/forget/test split management."""

from __future__ import annotations

import csv
import io
import json
import struct
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ConfigurationError, DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# The largest class label a dataset can hold: labels are stored as int64.
LABEL_MAX = np.iinfo(np.int64).max


class AccessLog:
    """Counts row reads; attach to a dataset to audit which samples a routine touched."""

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()

    def record(self, ids: np.ndarray) -> None:
        self.counts.update(int(i) for i in ids)

    def count(self, sample_id: int) -> int:
        return self.counts.get(int(sample_id), 0)


@dataclass
class LabeledDataset:
    """Feature matrix with integer class labels and stable sample ids."""

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    n_classes: int
    access_log: AccessLog | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise DataError(f"features must be a non-empty 2-D matrix, got shape "
                            f"{self.features.shape}")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or self.ids.shape != (n,):
            raise DataError("features, labels, and ids must have matching length")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or Inf")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise DataError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]


def gather(ds: LabeledDataset, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows for the given sample ids, recording the access when a log is attached."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ArgumentError(f"ids must be a 1-D sequence, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= ds.n):
        raise ArgumentError(f"sample ids out of range [0, {ds.n})")
    if ds.access_log is not None:
        ds.access_log.record(ids)
    return ds.features[ids], ds.labels[ids]


def make_blobs(
    n_per_class: int,
    centers: np.ndarray,
    std: float,
    seed: int,
) -> LabeledDataset:
    """Isotropic Gaussian clusters, one per center, deterministic per seed."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2:
        raise ConfigurationError("need at least 2 centers of consistent dimension")
    if not np.all(np.isfinite(centers)):
        raise ConfigurationError("centers contain non-finite entries")
    if std <= 0:
        raise ConfigurationError(f"std must be positive, got {std}")
    if n_per_class < 1:
        raise ConfigurationError(f"n_per_class must be >= 1, got {n_per_class}")
    n_classes, dim = centers.shape
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), n_per_class)
    noise = rng.standard_normal((n_classes * n_per_class, dim))
    features = centers[labels] + std * noise
    return LabeledDataset(features, labels, np.arange(labels.size), n_classes)


def load_csv(path: str | Path, label_column: str) -> LabeledDataset:
    """Load a headed numeric CSV; ids are assigned by data-row index."""
    path = Path(path)
    try:
        # utf-8-sig also reads a file that starts with a byte-order mark
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset (no header)") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DataError(
                f"{path}: missing label column {label_column!r}; columns are {header}"
            )
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        if not feature_names:
            raise DataError(f"{path}: no feature columns besides {label_column!r}")

        rows: list[list[float]] = []
        labels: list[int] = []
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_idx} has {len(row)} cells, expected {len(header)}"
                )
            feats = []
            for col_idx, cell in enumerate(row):
                name = header[col_idx]
                if col_idx == label_idx:
                    try:
                        label = int(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {row_idx}, column {name!r}: "
                            f"label {cell!r} is not an integer"
                        ) from None
                    if not 0 <= label <= LABEL_MAX:
                        raise DataError(
                            f"{path}: row {row_idx}, column {name!r}: "
                            f"label {cell!r} is not in [0, {LABEL_MAX}]"
                        )
                    labels.append(label)
                else:
                    try:
                        feats.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {row_idx}, column {name!r}: "
                            f"could not parse {cell!r} as a number"
                        ) from None
            rows.append(feats)

    if not rows:
        raise DataError(f"{path}: empty dataset (header only)")
    features = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(features)):
        bad = np.argwhere(~np.isfinite(features))[0]
        raise DataError(
            f"{path}: row {bad[0]}, column {feature_names[bad[1]]!r}: non-finite value"
        )
    return LabeledDataset(features, labels, np.arange(len(rows)), max(labels) + 1)


def write_csv(path: str | Path, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write a CSV artifact: UTF-8, "\\n" line ends and the csv module's quoting.

    Cells must be Python scalars: csv writes a float as str(float), its
    shortest repr, which float() reads back bit for bit. Rows are written as
    they are drawn, so an iterator of rows is never held whole.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json_lines(path: str | Path, objects: Iterable[dict]) -> None:
    """Write a JSON-lines artifact: UTF-8, one sorted-key object per "\\n"-ended line."""
    with Path(path).open("w", newline="\n", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_exact(path: Path, blob: bytes, offset: int, count: int) -> bytes:
    if offset + count > len(blob):
        raise DataError(
            f"{path}: truncated file, wanted {offset + count} bytes but has {len(blob)}"
        )
    return blob[offset : offset + count]


def load_idx(images_path: str | Path, labels_path: str | Path) -> LabeledDataset:
    """Load the big-endian IDX image/label container pair; pixels scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    img_blob = images_path.read_bytes()
    lab_blob = labels_path.read_bytes()

    (img_magic,) = struct.unpack(">I", _read_exact(images_path, img_blob, 0, 4))
    if img_magic != IDX_IMAGES_MAGIC:
        raise DataError(
            f"{images_path}: bad magic 0x{img_magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
        )
    n_img, rows, cols = struct.unpack(">III", _read_exact(images_path, img_blob, 4, 12))
    if n_img == 0:
        raise DataError(f"{images_path}: empty dataset (no images)")
    if rows * cols == 0:
        raise DataError(f"{images_path}: images of {rows}x{cols} have no pixels")
    pixels = _read_exact(images_path, img_blob, 16, n_img * rows * cols)

    (lab_magic,) = struct.unpack(">I", _read_exact(labels_path, lab_blob, 0, 4))
    if lab_magic != IDX_LABELS_MAGIC:
        raise DataError(
            f"{labels_path}: bad magic 0x{lab_magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
        )
    (n_lab,) = struct.unpack(">I", _read_exact(labels_path, lab_blob, 4, 4))
    if n_lab != n_img:
        raise DataError(
            f"image/label count mismatch: {n_img} images but {n_lab} labels"
        )
    raw_labels = _read_exact(labels_path, lab_blob, 8, n_lab)

    features = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    features = features.reshape(n_img, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return LabeledDataset(features, labels, np.arange(n_img), int(labels.max()) + 1)


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint retain/forget/test id sets, each without repeats; retain and
    forget partition training."""

    retain_ids: np.ndarray
    forget_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self) -> None:
        for name in ("retain_ids", "forget_ids", "test_ids"):
            arr = np.sort(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, arr)
        ids = np.sort(np.concatenate([self.retain_ids, self.forget_ids, self.test_ids]))
        if np.any(ids[1:] == ids[:-1]):
            raise DataError("retain/forget/test ids must be distinct: an id repeats")

    @property
    def train_ids(self) -> np.ndarray:
        return np.sort(np.concatenate([self.retain_ids, self.forget_ids]))

    def with_forget(self, forget_ids: np.ndarray) -> "SplitPlan":
        """Move the given training ids into the forget set."""
        forget = np.unique(np.asarray(forget_ids, dtype=np.int64))
        train = self.train_ids
        missing = forget[~np.isin(forget, train)]
        if missing.size:
            raise ArgumentError(
                f"forget ids {missing.tolist()} are not training samples"
            )
        retain = np.setdiff1d(train, forget)
        return SplitPlan(retain, forget, self.test_ids)


def split(ds: LabeledDataset, test_fraction: float, seed: int) -> SplitPlan:
    """Seeded shuffle-then-cut into train and test; forget starts empty."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError(
            f"test_fraction must lie in (0, 1), got {test_fraction}"
        )
    n_test = int(round(ds.n * test_fraction))
    if n_test < 1 or n_test >= ds.n:
        raise ConfigurationError(
            f"test_fraction {test_fraction} leaves {n_test} test samples for n={ds.n}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.ids)
    return SplitPlan(
        retain_ids=perm[n_test:], forget_ids=np.empty(0, dtype=np.int64),
        test_ids=perm[:n_test],
    )


def standardize_features(ds: LabeledDataset) -> LabeledDataset:
    """Per-feature z-scoring; off by default everywhere, offered for sensitivity runs."""
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    if np.any(std == 0):
        raise DataError("cannot standardize a constant feature column")
    return LabeledDataset(
        (ds.features - mean) / std, ds.labels, ds.ids, ds.n_classes
    )
