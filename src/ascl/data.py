"""Desk-scale datasets: seeded synthetic generators and an on-disk
format. A dataset is its features, labels, class count and split, and the
file stores exactly these. Features always live in [0, 1], so none is NaN."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FormatError, check_integer, check_labels, check_real

__all__ = [
    "Dataset",
    "Batch",
    "make_blobs",
    "make_two_moons",
    "save_dataset",
    "load_dataset",
    "iter_batches",
]

DATASET_MAGIC = b"ASCLDS1\x00"
_SPLITS = ("train", "test")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str = "train"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ContractError("features must be a nonempty (M, D) array")
        self.num_classes = check_integer(self.num_classes, "num_classes")
        self.labels = check_labels(self.labels, self.num_classes, self.features.shape[0])
        if not np.all((self.features >= 0.0) & (self.features <= 1.0)):
            raise ContractError("features must lie in [0, 1]")
        if self.split not in _SPLITS:
            raise ContractError(f"split must be one of {_SPLITS}")

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Batch:
    """Paired benign samples, labels, and adversarial counterparts."""

    x: np.ndarray
    y: np.ndarray
    x_adv: np.ndarray = None


def _squash_unit(x):
    lo = x.min(axis=0, keepdims=True)
    hi = x.max(axis=0, keepdims=True)
    span = hi - lo
    flat = span < 1e-12
    span = np.where(flat, 1.0, span)
    out = (x - lo) / span
    return np.where(flat, 0.5, out)


# written so that NaN fails them; an infinite spread or noise squashes to NaN features
def check_blobs(num_classes, per_class, dims, spread):
    for v in (num_classes, per_class, dims):
        check_integer(v, "blob sizes")
    if not 0 <= check_real(spread, "blob spread") < np.inf:
        raise ContractError("blob spread must be finite and nonnegative")


def check_moons(size, noise):
    if not (check_integer(size, "size") >= 2 and 0 <= check_real(noise, "noise") < np.inf):
        raise ContractError("size must be >= 2 and noise finite and nonnegative")


def make_blobs(num_classes, per_class, dims, spread, seed, split="train") -> Dataset:
    """Gaussian clusters around mutually equidistant seeded centers,
    squashed into the unit cube. Deterministic per seed."""
    check_blobs(num_classes, per_class, dims, spread)
    rng = np.random.default_rng(seed)
    if num_classes <= dims:
        # random rotation of unit basis vectors: pairwise distance sqrt(2)
        q, r = np.linalg.qr(rng.standard_normal((dims, dims)))
        q *= np.sign(np.diag(r))
        centers = q[:num_classes]
    else:
        centers = rng.standard_normal((num_classes, dims))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    feats = np.concatenate([
        centers[c] + spread * rng.standard_normal((per_class, dims))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(_squash_unit(feats), labels, num_classes, split=split)


def make_two_moons(size, noise, seed, split="train") -> Dataset:
    """Two interleaved half-circles in the unit square; labels split
    ceil(size/2) / floor(size/2)."""
    check_moons(size, noise)
    rng = np.random.default_rng(seed)
    n_out = (size + 1) // 2
    n_in = size // 2
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    outer = np.stack([np.cos(t_out), np.sin(t_out)], axis=1)
    inner = np.stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)], axis=1)
    feats = np.concatenate([outer, inner]) + noise * rng.standard_normal((size, 2))
    labels = np.concatenate([np.zeros(n_out, dtype=np.intp), np.ones(n_in, dtype=np.intp)])
    return Dataset(_squash_unit(feats), labels, 2, split=split)


# -- on-disk format --------------------------------------------------------
#
# Little-endian: magic "ASCLDS1\0", u32 M, u32 D, u32 C, u8 split
# (0=train, 1=test), then M records of D f64 features plus a u32 label.


def _record_dtype(d):
    return np.dtype([("x", "<f8", (d,)), ("y", "<u4")])


def save_dataset(ds: Dataset, path):
    m, d = ds.features.shape
    records = np.empty(m, dtype=_record_dtype(d))
    records["x"] = ds.features
    records["y"] = ds.labels
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIB", m, d, ds.num_classes, _SPLITS.index(ds.split)))
        fh.write(records.tobytes())


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != DATASET_MAGIC:
        raise FormatError(f"bad dataset magic at byte 0: {blob[:8]!r}")
    header_end = 8 + struct.calcsize("<IIIB")
    if len(blob) < header_end:
        raise FormatError(f"truncated header at byte {len(blob)}")
    m, d, c, split_code = struct.unpack_from("<IIIB", blob, 8)
    if split_code >= len(_SPLITS):
        raise FormatError(f"bad split code {split_code} at byte {8 + 12}")
    record = _record_dtype(d)
    expected = header_end + m * record.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"payload size mismatch: have {len(blob)} bytes, header implies {expected}"
            f" (first missing byte at {min(len(blob), expected)})")
    records = np.frombuffer(blob, dtype=record, count=m, offset=header_end)
    try:
        return Dataset(records["x"].copy(), records["y"], c, split=_SPLITS[split_code])
    except ContractError as e:
        raise FormatError(f"invalid payload after byte {header_end}: {e}") from e


def iter_batches(ds: Dataset, batch_size, rng):
    """Yield (x, y) batches in an order shuffled by ``rng``."""
    order = rng.permutation(len(ds))
    for lo in range(0, len(ds), batch_size):
        idx = order[lo:lo + batch_size]
        yield ds.features[idx], ds.labels[idx]
