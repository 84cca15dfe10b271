"""Dataset ingestion, scaling, batching and missing-feature masks.

Supported on-disk formats:

* IDX (big-endian): image files with magic 2051 and label files with magic
  2049; pixels are flattened row-major into one feature vector per sample.
* CSV: rectangular numeric tables, optional header row, labels in a chosen
  column. Label values are read as 0-based class ids and shifted to 1..C.

Scaling statistics always come from the dataset they were fitted on and are
carried along so test data can be transformed without refitting.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidInput, check_floats, check_int, check_real

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

SCALE_NONE, SCALE_DIVMAX, SCALE_ZSCORE = "none", "divmax", "zscore"


@dataclass
class Scaling:
    mode: str
    max_value: float | None = None          # divmax
    means: np.ndarray | None = None         # zscore
    stds: np.ndarray | None = None

    def to_dict(self):
        out = {"mode": self.mode}
        if self.max_value is not None:
            out["max_value"] = float(self.max_value)
        if self.means is not None:
            out["means"] = [float(v) for v in self.means]
            out["stds"] = [float(v) for v in self.stds]
        return out

    @classmethod
    def from_dict(cls, d):
        """A stored scaling; DataFormatError unless it can be applied as it is."""
        mode = d.get("mode") if isinstance(d, dict) else None
        if mode not in (SCALE_NONE, SCALE_DIVMAX, SCALE_ZSCORE):
            raise DataFormatError(f"scaling: unknown mode {mode!r}")
        scaling = cls(mode)
        if mode == SCALE_DIVMAX and d.get("max_value") is not None:
            scaling.max_value = float(_stored_numbers(d, "max_value", 0))
        if mode == SCALE_ZSCORE:
            scaling.means = _stored_numbers(d, "means", 1)
            scaling.stds = _stored_numbers(d, "stds", 1)
            if scaling.stds.shape != scaling.means.shape or not (scaling.stds > 0).all():
                raise DataFormatError("scaling: stds must be positive, one per mean")
        return scaling


def _stored_numbers(d, key, ndim) -> np.ndarray:
    """``d[key]`` as a float array of ``ndim`` axes; DataFormatError unless finite."""
    try:
        array = np.array(d.get(key), dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != ndim or not np.isfinite(array).all():
        wanted = "a list of finite numbers" if ndim else "a finite number"
        raise DataFormatError(f"scaling: {key} must be {wanted}")
    return array


def check_labels(labels, num_classes: int) -> np.ndarray:
    """``labels`` as an int64 vector; InvalidInput unless it holds integers in 1..num_classes."""
    labels = np.asarray(labels)
    # checked before the cast, which would truncate 1.5 to class 1; NaN fails too
    if labels.ndim != 1 or labels.dtype.kind not in "iuf" or not (
        (labels >= 1) & (labels <= num_classes) & (labels == np.rint(labels))
    ).all():
        raise InvalidInput(f"labels must be integers in 1..{num_classes}")
    return labels.astype(np.int64)


@dataclass
class Dataset:
    features: np.ndarray               # (N, num_features) float64
    labels: np.ndarray | None = None   # (N,) ints in 1..C, or None
    scaling: Scaling | None = None

    def __post_init__(self):
        self.features = check_floats("features", self.features)
        if self.features.ndim != 2:
            raise InvalidInput("features must be a 2-D matrix")
        if self.features.shape[1] == 0:
            raise DataFormatError("the dataset has no feature columns")
        bad = ~np.isfinite(self.features)
        if bad.any():
            row, column = np.argwhere(bad)[0]
            raise DataFormatError(
                f"sample {row}, feature {column}: non-finite value {self.features[row, column]}"
            )
        if self.labels is not None:
            labels = check_floats("labels", self.labels)
            if labels.shape != (len(self.features),):
                raise DataFormatError(f"{len(self.features)} samples, labels of shape {labels.shape}")
            # checked before the cast, which would truncate 1.5 to 1 and wrap
            # 1e19; float64 holds every integer below 2**53 exactly
            whole = (labels == np.rint(labels)) & (np.abs(labels) < 2.0**53)  # NaN fails
            if not whole.all():
                raise DataFormatError(
                    f"sample {np.argmin(whole)}: label is not an integer below 2**53 in size"
                )
            self.labels = labels.astype(np.int64)
            if len(self.labels) and self.labels.min() < 1:
                raise DataFormatError("labels must be >= 1 after ingestion")

    def __len__(self):
        return len(self.features)

    @property
    def num_features(self):
        return self.features.shape[1]

    def feature_stats(self):
        """Per-feature (means, stds) for data-aware parameter initialization.

        A std whose squares overflow is inf, without a warning; training
        from it then fails with NumericFailure.
        """
        with np.errstate(over="ignore"):
            return self.features.mean(axis=0), self.features.std(axis=0)


def _read_be_u32(data: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(data):
        raise DataFormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack(">I", data[offset : offset + 4])[0]


def _load_idx_array(path, expected_magic, kind):
    with open(path, "rb") as handle:
        raw = handle.read()
    magic = _read_be_u32(raw, 0, path)
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad {kind} magic {magic} at byte 0 (expected {expected_magic})"
        )
    num_dims = 1 if expected_magic == IDX_LABEL_MAGIC else 3
    dims = [_read_be_u32(raw, 4 + 4 * i, path) for i in range(num_dims)]
    payload_start = 4 + 4 * num_dims
    expected_len = int(np.prod(dims))
    payload = raw[payload_start:]
    if len(payload) != expected_len:
        raise DataFormatError(
            f"{path}: payload has {len(payload)} bytes from byte {payload_start}, "
            f"expected {expected_len} for dims {dims}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims), dims


def load_idx(image_path, label_path=None) -> Dataset:
    """Load an IDX image file (and optional matching label file)."""
    images, dims = _load_idx_array(image_path, IDX_IMAGE_MAGIC, "image")
    count = dims[0]
    features = images.reshape(count, dims[1] * dims[2]).astype(float)
    labels = None
    if label_path is not None:
        raw_labels, label_dims = _load_idx_array(label_path, IDX_LABEL_MAGIC, "label")
        if label_dims[0] != count:
            raise DataFormatError(
                f"{image_path} has {count} images but {label_path} has "
                f"{label_dims[0]} labels"
            )
        labels = raw_labels.astype(int) + 1
    return Dataset(features=features, labels=labels)


def save_idx(features, image_path, label_path=None, labels=None, rows=None, cols=None):
    """Write features (integer values 0..255) and labels (1..256) back to IDX files.

    Images are ``rows`` x ``cols``: ``rows`` defaults to the square root of
    the feature count, and ``cols`` to the features per row. Raises
    InvalidInput, before writing anything, for features that are not a
    (samples, features) matrix of numbers, sides that are not integers in
    0..2**32 - 1 or do not hold the features, a pixel that does not round
    into 0..255, or labels that are not one integer per sample in 1..256.
    """
    features = check_floats("features", features)
    if features.ndim != 2:
        raise InvalidInput(
            f"features must be a (samples, features) matrix, got shape {features.shape}"
        )
    count, num_feat = features.shape
    # each side is a 32-bit header field
    rows = int(np.sqrt(num_feat)) if rows is None else check_int("rows", rows, 0, 2**32 - 1)
    cols = num_feat // max(rows, 1) if cols is None else check_int("cols", cols, 0, 2**32 - 1)
    if rows * cols != num_feat:
        raise InvalidInput(f"cannot shape {num_feat} features as {rows}x{cols}")
    pixels = np.rint(features)
    if not ((pixels >= 0) & (pixels <= 255)).all():  # NaN fails too
        raise InvalidInput("pixel values must round to integers in 0..255")
    if label_path is not None:
        labels = check_labels(labels, 256)
        if len(labels) != count:
            raise InvalidInput(f"labels must be one per sample ({count})")
    with open(image_path, "wb") as handle:
        handle.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols))
        handle.write(pixels.astype(np.uint8).tobytes())
    if label_path is not None:
        with open(label_path, "wb") as handle:
            handle.write(struct.pack(">II", IDX_LABEL_MAGIC, count))
            handle.write((labels - 1).astype(np.uint8).tobytes())


def load_csv(path, label_column: int | str | None = "last", has_header=False) -> Dataset:
    """Load a rectangular numeric CSV; ``label_column`` may be None, 'last' or an index."""
    rows = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            for line_no, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                rows.append((line_no, row))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    if has_header and rows:
        rows = rows[1:]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")

    width = len(rows[0][1])
    table = np.empty((len(rows), width))
    for i, (line_no, row) in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{path}: row at line {line_no} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                table[i, j] = float(cell)
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric cell {cell!r} at line {line_no}, column {j}"
                ) from None
    bad = ~np.isfinite(table)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataFormatError(
            f"{path}: non-finite cell {rows[i][1][j]!r} at line {rows[i][0]}, column {j}"
        )

    if label_column is None:
        return Dataset(features=table)
    col = width - 1 if label_column == "last" else int(label_column)
    if not 0 <= col < width:
        raise DataFormatError(f"{path}: label column {col} out of range")
    features = np.delete(table, col, axis=1)
    return Dataset(features=features, labels=table[:, col] + 1)  # Dataset checks the ids


def scale_features(dataset: Dataset, mode: str) -> Dataset:
    """Fit a scaling on this dataset and apply it, recording the statistics.

    Z-scoring raises DataFormatError, without a warning, for a column whose
    mean or standard deviation overflows (finite values near 1e154 or
    beyond): its statistics could not be stored or applied.
    """
    if mode == SCALE_NONE:
        scaling = Scaling(mode=SCALE_NONE)
    elif mode == SCALE_DIVMAX:
        scaling = Scaling(mode=SCALE_DIVMAX, max_value=float(dataset.features.max()))
    elif mode == SCALE_ZSCORE:
        with np.errstate(over="ignore"):
            means = dataset.features.mean(axis=0)
            stds = np.maximum(dataset.features.std(axis=0), 1e-6)
        bad = ~(np.isfinite(means) & np.isfinite(stds))
        if bad.any():
            raise DataFormatError(
                f"feature {int(np.argmax(bad))}: values too large to z-score "
                "(their mean or standard deviation overflows)"
            )
        scaling = Scaling(mode=SCALE_ZSCORE, means=means, stds=stds)
    else:
        raise InvalidInput(f"unknown scaling mode {mode!r}")
    return apply_scaling(dataset, scaling)


def apply_scaling(dataset: Dataset, scaling: Scaling) -> Dataset:
    """Apply previously-fitted statistics; never recomputes them.

    Raises DataFormatError unless zscore statistics hold one mean per feature.
    """
    if scaling.mode == SCALE_NONE:
        features = dataset.features.copy()
    elif scaling.mode == SCALE_DIVMAX:
        divisor = scaling.max_value if scaling.max_value else 1.0
        features = dataset.features / divisor
    elif scaling.mode == SCALE_ZSCORE:
        if np.shape(scaling.means) != (dataset.num_features,):
            raise DataFormatError(
                f"zscore scaling holds {np.size(scaling.means)} means, "
                f"data has {dataset.num_features} features"
            )
        features = (dataset.features - scaling.means) / scaling.stds
    else:
        raise InvalidInput(f"unknown scaling mode {scaling.mode!r}")
    return Dataset(features=features, labels=dataset.labels, scaling=scaling)


def _rng(seed):
    """``np.random.default_rng(seed)``; InvalidInput for a seed numpy rejects."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidInput(f"seed must be None or an integer >= 0, got {seed!r:.80}") from None


def batch_iterator(dataset: Dataset, batch_size: int, shuffle_seed=None):
    """Yield (features, labels) batches covering the dataset exactly once.

    The order is a seeded shuffle; the final partial batch is included.
    """
    batch_size = check_int("batch_size", batch_size, 1)
    order = np.arange(len(dataset))
    if shuffle_seed is not None:
        order = _rng(shuffle_seed).permutation(order)
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        labels = None if dataset.labels is None else dataset.labels[idx]
        yield dataset.features[idx], labels


def random_missing_mask(dataset_or_shape, fraction_missing: float, seed=None) -> np.ndarray:
    """Boolean (N, num_features) mask, each entry missing with the given probability."""
    check_real("missing fraction", fraction_missing, 0, 1)
    if isinstance(dataset_or_shape, Dataset):
        shape = dataset_or_shape.features.shape
    elif isinstance(dataset_or_shape, (tuple, list)):
        shape = tuple(check_int("shape entry", size, 0) for size in dataset_or_shape)
    else:
        raise InvalidInput(f"expected a Dataset or a shape, got {dataset_or_shape!r:.80}")
    return _rng(seed).random(shape) < fraction_missing


def split_dataset(dataset: Dataset, valid_fraction: float, seed=None):
    """Carve a validation split off a dataset. Returns (train, valid), neither empty."""
    check_real("valid_fraction", valid_fraction, 0, 1, "()")
    n = len(dataset)
    n_valid = int(round(n * valid_fraction))
    if not 0 < n_valid < n:
        raise InvalidInput(
            f"{valid_fraction} of {n} rows leaves {n_valid} for validation and "
            f"{n - n_valid} for training; each side needs at least one"
        )
    order = _rng(seed).permutation(n)
    valid_idx, train_idx = order[:n_valid], order[n_valid:]

    def take(idx):
        labels = None if dataset.labels is None else dataset.labels[idx]
        return Dataset(
            features=dataset.features[idx], labels=labels, scaling=dataset.scaling
        )

    return take(train_idx), take(valid_idx)
