import struct

import numpy as np
import pytest

import randspn as rs
from randspn.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, check_labels
from randspn.errors import DataFormatError, InvalidInput


def write_idx_images(path, array):
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *array.shape))
        handle.write(array.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as handle:
        handle.write(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)))
        handle.write(labels.tobytes())


def test_idx_roundtrip_and_shapes(tmp_path):
    images = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
    write_idx_images(tmp_path / "img", images)
    write_idx_labels(tmp_path / "lbl", [0, 1, 2])

    data = rs.load_idx(tmp_path / "img", tmp_path / "lbl")
    assert data.features.shape == (3, 4)  # 3 samples x (2*2) features
    np.testing.assert_array_equal(data.labels, [1, 2, 3])
    np.testing.assert_array_equal(data.features[1], [4, 5, 6, 7])

    # lossless: re-serializing the parsed tensor reproduces the payload bytes
    rs.save_idx(data.features, tmp_path / "img2", tmp_path / "lbl2",
                labels=data.labels, rows=2, cols=2)
    assert (tmp_path / "img2").read_bytes() == (tmp_path / "img").read_bytes()
    assert (tmp_path / "lbl2").read_bytes() == (tmp_path / "lbl").read_bytes()


@pytest.mark.parametrize("pixel, labels", [
    (300, [1, 1]), (-1, [1, 1]), (np.nan, [1, 1]), (0, [1, 301]), (0, [1, 0]), (0, [1]),
])
def test_save_idx_rejects_values_a_byte_cannot_hold(tmp_path, pixel, labels):
    # uint8 would wrap them: 300 -> 44, -1 -> 255, label 300 -> 45; and
    # a label count that is not the image count would mismatch the headers
    features = np.zeros((2, 4))
    features[1, 2] = pixel
    with pytest.raises(InvalidInput):
        rs.save_idx(features, tmp_path / "img", tmp_path / "lbl", labels=labels)
    assert not list(tmp_path.iterdir())  # nothing written


# one rule for class labels wherever they are read: an integer vector in 1..C
@pytest.mark.parametrize("labels", [
    [1.5, 2], [np.nan, 1], [True, False], ["1", "2"], [[1], [2]], 1,
])
def test_labels_that_are_not_an_integer_vector_are_rejected_alike(tmp_path, labels):
    roots = np.zeros((2, 2))
    calls = {
        "check_labels": lambda: check_labels(labels, 2),
        "empirical_log_prior": lambda: rs.empirical_log_prior(labels, 2),
        "cross_entropy": lambda: rs.cross_entropy(roots, labels),
        "save_idx": lambda: rs.save_idx(np.zeros((2, 4)), tmp_path / "img",
                                        tmp_path / "lbl", labels=labels),
    }
    for call in calls.values():
        with pytest.raises(InvalidInput, match="labels must be"):
            call()
    assert not list(tmp_path.iterdir())  # save_idx wrote nothing


def test_labels_must_lie_in_1_to_c_and_whole_floats_count_as_integers():
    for labels in ([0, 1], [1, 3]):
        with pytest.raises(InvalidInput, match=r"labels must be integers in 1\.\.2"):
            rs.empirical_log_prior(labels, 2)
    got = check_labels(np.array([1.0, 2.0, 2.0]), 2)
    assert got.dtype == np.int64 and got.tolist() == [1, 2, 2]
    np.testing.assert_array_equal(
        rs.empirical_log_prior([1.0, 2.0, 2.0], 2), np.log([1 / 3, 2 / 3])
    )


@pytest.mark.parametrize("shape", [(2, 2, 2), (4,), ()])
def test_save_idx_rejects_features_that_are_not_a_matrix(tmp_path, shape):
    # an (N, 8, 8) image stack is flattened by the caller, not unpacked here
    with pytest.raises(InvalidInput, match="matrix"):
        rs.save_idx(np.zeros(shape), tmp_path / "img", tmp_path / "lbl", labels=[1, 1])
    assert not list(tmp_path.iterdir())  # nothing written


def test_save_idx_derives_cols_from_rows(tmp_path):
    features = np.arange(12).reshape(2, 6)
    rs.save_idx(features, tmp_path / "img", rows=2)
    assert rs.load_idx(tmp_path / "img").features.tolist() == features.tolist()
    assert struct.unpack(">IIII", (tmp_path / "img").read_bytes()[:16])[2:] == (2, 3)
    for rows, cols in ((4, None), (0, None)):
        with pytest.raises(InvalidInput, match="cannot shape 6 features"):
            rs.save_idx(features, tmp_path / "bad", rows=rows, cols=cols)
    # a negative, fractional or wider-than-32-bit side fails before the shape
    for rows, cols, name in ((-2, -3, "rows"), (2, 3.0, "cols"), (2**32, 0, "rows")):
        with pytest.raises(InvalidInput, match=f"^{name} must be"):
            rs.save_idx(features, tmp_path / "bad", rows=rows, cols=cols)
    assert not (tmp_path / "bad").exists()


def test_idx_error_cases(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    write_idx_images(tmp_path / "img", images)

    with open(tmp_path / "badmagic", "wb") as handle:
        handle.write(struct.pack(">IIII", 1234, 2, 2, 2))
        handle.write(bytes(8))
    with pytest.raises(DataFormatError, match="magic"):
        rs.load_idx(tmp_path / "badmagic")

    with open(tmp_path / "short", "wb") as handle:
        handle.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2))
        handle.write(bytes(5))
    with pytest.raises(DataFormatError, match="byte"):
        rs.load_idx(tmp_path / "short")

    write_idx_labels(tmp_path / "lbl2", [0, 1, 0])
    with pytest.raises(DataFormatError, match="2 images"):
        rs.load_idx(tmp_path / "img", tmp_path / "lbl2")


def test_csv_parsing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2,0\n3,4,1\n")
    data = rs.load_csv(path, label_column="last")
    np.testing.assert_array_equal(data.features, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(data.labels, [1, 2])

    with_header = tmp_path / "h.csv"
    with_header.write_text("a,b,y\n1,2,0\n3,4,1\n")
    data2 = rs.load_csv(with_header, label_column="last", has_header=True)
    np.testing.assert_array_equal(data2.features, data.features)

    unlabeled = rs.load_csv(path, label_column=None)
    assert unlabeled.labels is None
    assert unlabeled.features.shape == (2, 3)


def test_csv_error_cases(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataFormatError, match="no data rows"):
        rs.load_csv(empty)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,0\n3,4\n")
    with pytest.raises(DataFormatError, match="line 2"):
        rs.load_csv(ragged)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,x,0\n")
    with pytest.raises(DataFormatError, match="column 1"):
        rs.load_csv(alpha)


def test_a_dataset_without_feature_columns_is_a_data_error(tmp_path):
    with pytest.raises(DataFormatError, match="no feature columns"):
        rs.Dataset(features=np.zeros((3, 0)), labels=[1, 2, 1])
    only_labels = tmp_path / "labels.csv"
    only_labels.write_text("0\n1\n0\n")
    with pytest.raises(DataFormatError, match="no feature columns"):
        rs.load_csv(only_labels)


@pytest.mark.parametrize("label", [1.5, 1e19, -1e19, 10**20, 2**53 + 1, float("nan")])
def test_labels_that_are_not_exact_integers_are_data_errors(label):
    # the cast would truncate 1.5 to 1 and overflow, or warn and wrap, on the rest
    with pytest.raises(DataFormatError, match="sample 1: label is not an integer"):
        rs.Dataset(features=np.zeros((2, 1)), labels=[2, label])


@pytest.mark.parametrize("label", ["1.5", "1e19"])
def test_csv_labels_that_are_not_exact_integers_are_data_errors(tmp_path, label):
    path = tmp_path / "t.csv"
    path.write_text(f"0.5,1\n0.25,{label}\n")
    with pytest.raises(DataFormatError, match="sample 1: label is not an integer"):
        rs.load_csv(path)


def test_scaling_modes():
    data = rs.Dataset(features=np.array([[0.0, 100.0], [255.0, 50.0]]),
                      labels=np.array([1, 2]))
    divmax = rs.scale_features(data, "divmax")
    assert divmax.features.max() == 1.0
    assert divmax.features[1, 0] == pytest.approx(1.0)
    assert divmax.scaling.max_value == 255.0

    zscore = rs.scale_features(data, "zscore")
    np.testing.assert_allclose(zscore.features.mean(axis=0), 0.0, atol=1e-9)

    ident = rs.scale_features(data, "none")
    np.testing.assert_array_equal(ident.features, data.features)

    with pytest.raises(InvalidInput):
        rs.scale_features(data, "minmax")


@pytest.mark.filterwarnings("error")
def test_zscore_of_an_overflowing_column_is_a_data_error():
    # 1e160 is finite, but its square is not: the column cannot be z-scored
    features = np.ones((4, 6))
    features[:, 2] = [0.0, 1.0, 2.0, 3.0]
    features[1, 3] = 1e160
    with pytest.raises(DataFormatError, match="feature 3"):
        rs.scale_features(rs.Dataset(features=features), "zscore")
    features[1, 3] = 1e150  # squares still finite: a normal fit
    scaled = rs.scale_features(rs.Dataset(features=features), "zscore")
    assert np.isfinite(scaled.scaling.stds).all()


def test_scaling_statistics_transfer_without_refit():
    train = rs.Dataset(features=np.array([[0.0], [10.0]]))
    fitted = rs.scale_features(train, "divmax")
    test = rs.Dataset(features=np.array([[20.0]]))
    scaled = rs.apply_scaling(test, fitted.scaling)
    assert scaled.features[0, 0] == pytest.approx(2.0)  # stats from train only
    assert scaled.scaling.max_value == 10.0


def test_zscore_statistics_of_another_width_are_a_data_error():
    fitted = rs.scale_features(rs.Dataset(np.arange(12.0).reshape(2, 6)), "zscore")
    for width in (4, 1):  # 1 column would broadcast over the 6 means
        with pytest.raises(DataFormatError, match=f"6 means, data has {width} features"):
            rs.apply_scaling(rs.Dataset(np.ones((3, width))), fitted.scaling)


def test_batch_iterator_partition_property():
    data = rs.Dataset(features=np.arange(250)[:, None].astype(float),
                      labels=np.ones(250, dtype=int))
    batches = list(rs.batch_iterator(data, 100, shuffle_seed=4))
    assert [len(x) for x, _ in batches] == [100, 100, 50]

    seen = np.concatenate([x[:, 0] for x, _ in batches])
    np.testing.assert_array_equal(np.sort(seen), np.arange(250))

    again = list(rs.batch_iterator(data, 100, shuffle_seed=4))
    for (x1, _), (x2, _) in zip(batches, again):
        np.testing.assert_array_equal(x1, x2)


def test_random_missing_mask_rates():
    mask0 = rs.random_missing_mask((5, 8), 0.0, seed=0)
    assert not mask0.any()
    mask1 = rs.random_missing_mask((5, 8), 1.0, seed=0)
    assert mask1.all()

    big = rs.random_missing_mask((1000, 1000), 0.99, seed=3)
    assert abs(big.mean() - 0.99) < 0.005


def test_split_dataset_partitions_and_preserves_scaling():
    data = rs.scale_features(
        rs.Dataset(features=np.arange(40.0)[:, None], labels=np.ones(40, int)),
        "divmax",
    )
    train, valid = rs.split_dataset(data, 0.25, seed=1)
    assert len(train) == 30 and len(valid) == 10
    assert train.scaling is data.scaling
    merged = np.sort(np.concatenate([train.features[:, 0], valid.features[:, 0]]))
    np.testing.assert_array_equal(merged, data.features[:, 0])


def test_nan_features_rejected():
    with pytest.raises(DataFormatError):
        rs.Dataset(features=np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_features_name_their_sample_and_feature(value):
    features = np.zeros((3, 4))
    features[2, 1] = value
    features[2, 3] = value
    with pytest.raises(DataFormatError, match="sample 2, feature 1: non-finite"):
        rs.Dataset(features=features)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", [0, 2])  # a feature, the label
def test_csv_non_finite_cells_name_their_line_and_column(tmp_path, cell, column):
    path = tmp_path / "bad.csv"
    rows = [["0.5", "0.25", "1"], ["0.5", "0.25", "0"], ["0.5", "0.25", "1"]]
    rows[1][column] = cell
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    message = f"non-finite cell '{cell}' at line 2, column {column}"
    with pytest.raises(DataFormatError, match=message):
        rs.load_csv(path)
