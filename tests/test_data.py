import struct

import numpy as np
import pytest

from ascl.data import (DATASET_MAGIC, Dataset, load_dataset, make_blobs, make_two_moons,
                       save_dataset)
from ascl.errors import ContractError, FormatError

HEADER = 8 + struct.calcsize("<IIIB")


@pytest.fixture()
def blob(tmp_path):
    ds = make_blobs(3, 4, 5, 0.1, seed=3, split="test")
    path = tmp_path / "blobs.ds"
    save_dataset(ds, path)
    return ds, path, path.read_bytes()


def _load(tmp_path, data):
    path = tmp_path / "edited.ds"
    path.write_bytes(data)
    return load_dataset(path)


def test_round_trip_is_bitwise(blob, tmp_path):
    ds, path, data = blob
    back = load_dataset(path)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert (back.num_classes, back.split) == (3, "test")
    save_dataset(back, tmp_path / "again.ds")
    assert (tmp_path / "again.ds").read_bytes() == data
    assert len(data) == HEADER + 12 * (8 * 5 + 4)


def test_records_are_packed_features_then_label(blob):
    # the on-disk layout, written one record at a time as the reference
    ds, _, data = blob
    records = b"".join(struct.pack("<5dI", *row, label)
                       for row, label in zip(ds.features, ds.labels))
    assert data[HEADER:] == records


def test_bad_magic(blob, tmp_path):
    _, _, data = blob
    with pytest.raises(FormatError, match="bad dataset magic at byte 0"):
        _load(tmp_path, b"XSCLDS1\x00" + data[8:])


def test_truncated_header(tmp_path):
    with pytest.raises(FormatError, match="truncated header at byte 14"):
        _load(tmp_path, DATASET_MAGIC + bytes(6))


def test_split_code_two(blob, tmp_path):
    _, _, data = blob
    edited = data[:HEADER - 1] + bytes([2]) + data[HEADER:]
    with pytest.raises(FormatError, match="bad split code 2 at byte 20"):
        _load(tmp_path, edited)


def test_truncated_payload_names_the_first_missing_byte(blob, tmp_path):
    _, _, data = blob
    cut = len(data) - 7
    with pytest.raises(FormatError, match=f"first missing byte at {cut}\\)"):
        _load(tmp_path, data[:cut])


def test_label_out_of_range(blob, tmp_path):
    _, _, data = blob
    # the first record's label follows its 5 features
    at = HEADER + 8 * 5
    edited = data[:at] + struct.pack("<I", 3) + data[at + 4:]
    with pytest.raises(FormatError, match="labels must lie in"):
        _load(tmp_path, edited)


def test_fractional_labels_are_a_contract_error():
    # the intp cast read [0.9, 0.2, 1.7, 1.2] as [0, 0, 1, 1]
    with pytest.raises(ContractError, match="labels must be integers"):
        Dataset(np.full((4, 2), 0.5), [0.9, 0.2, 1.7, 1.2], 2)
    assert Dataset(np.full((2, 2), 0.5), [1.0, 0.0], 2).labels.tolist() == [1, 0]


@pytest.mark.parametrize("num_classes", [2.5, "3", True, 0, np.float64(2)])
def test_class_count_must_be_a_positive_integer(num_classes):
    # 2.5 was kept and broke save_dataset with a bare struct.error; "3" raised UFuncTypeError
    with pytest.raises(ContractError, match="num_classes must be positive integers"):
        Dataset(np.full((2, 2), 0.5), [0, 1], num_classes)
    assert type(Dataset(np.full((2, 2), 0.5), [0, 1], np.int64(2)).num_classes) is int


@pytest.mark.parametrize("make", [
    lambda: make_blobs(2.5, 3, 4, 0.1, 0), lambda: make_blobs(2, 3.0, 4, 0.1, 0),
    lambda: make_blobs(2, 3, "4", 0.1, 0), lambda: make_two_moons(10.5, 0.1, 0),
    lambda: make_two_moons(True, 0.1, 0),
], ids=["classes", "per_class", "dims", "size", "bool-size"])
def test_generator_sizes_must_be_integers(make):
    # the first four raised bare TypeErrors
    with pytest.raises(ContractError, match="must be positive integers"):
        make()


def test_nan_feature_is_a_contract_error():
    # NaN compares false both ways, so it must fail a check written as "all in range"
    with pytest.raises(ContractError, match=r"features must lie in \[0, 1\]"):
        Dataset(np.array([[0.5, np.nan], [0.2, 0.3]]), [0, 1], 2)


def test_nan_feature_in_a_file_is_a_format_error(blob, tmp_path):
    _, _, data = blob
    edited = data[:HEADER] + struct.pack("<d", np.nan) + data[HEADER + 8:]
    with pytest.raises(FormatError, match=r"features must lie in \[0, 1\]"):
        _load(tmp_path, edited)
