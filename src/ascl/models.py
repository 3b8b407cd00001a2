"""Small MLP classifiers with an exposed penultimate latent and optional
projection heads for the contrastive loss."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from .tensor import Tensor, affine

__all__ = [
    "ModelSpec",
    "MLPClassifier",
    "save_model",
    "load_model",
]

PROJECTION_KINDS = ("identity", "linear", "two_layer")

CHECKPOINT_MAGIC = b"ASCLMZ1\x00"


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: relu MLP encoder, affine classifier head,
    and an optional bias-free projection used only by the contrastive loss."""

    input_dim: int
    hidden_layers: tuple = (32, 32)
    num_classes: int = 2
    activation: str = "relu"
    projection: str = "identity"
    projection_dim: int = 128
    projection_mid: int = 200

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1 or self.num_classes < 1:
            raise ConfigError("input_dim and num_classes must be positive")
        if not self.hidden_layers or any(w < 1 for w in self.hidden_layers):
            raise ConfigError("at least one hidden layer of positive width is required")
        if self.activation != "relu":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.projection not in PROJECTION_KINDS:
            raise ConfigError(f"projection must be one of {PROJECTION_KINDS}")
        if self.projection_dim < 1 or self.projection_mid < 1:
            raise ConfigError("projection widths must be positive")

    @property
    def latent_dim(self) -> int:
        return self.hidden_layers[-1]


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class MLPClassifier:
    """h(x) = classify(encode(x)); encode exposes the penultimate latent z."""

    def __init__(self, spec: ModelSpec, seed=0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self._params = []

        self.hidden = []
        fan_in = spec.input_dim
        for width in spec.hidden_layers:
            w = self._add(_glorot(rng, fan_in, width))
            b = self._add(np.zeros((1, width)))
            self.hidden.append((w, b))
            fan_in = width

        self.cls_w = self._add(_glorot(rng, fan_in, spec.num_classes))
        self.cls_b = self._add(np.zeros((1, spec.num_classes)))

        # projection heads carry no bias
        self.proj = []
        if spec.projection == "linear":
            self.proj.append(self._add(_glorot(rng, spec.latent_dim, spec.projection_dim)))
        elif spec.projection == "two_layer":
            self.proj.append(self._add(_glorot(rng, spec.latent_dim, spec.projection_mid)))
            self.proj.append(self._add(_glorot(rng, spec.projection_mid, spec.projection_dim)))

    def _add(self, arr):
        t = Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)
        self._params.append(t)
        return t

    @property
    def parameters(self):
        return list(self._params)

    def _as_batch(self, x, width, what):
        t = x if isinstance(x, Tensor) else Tensor(x)
        if t.data.ndim != 2 or t.shape[1] != width:
            raise DimensionError(f"{what} expects shape (N, {width}), got {t.shape}")
        return t

    def encode(self, x) -> Tensor:
        """Forward through the hidden stack; returns the penultimate activation."""
        h = self._as_batch(x, self.spec.input_dim, "encode")
        for w, b in self.hidden:
            h = affine(h, w, b).relu()
        return h

    def classify(self, z) -> Tensor:
        z = self._as_batch(z, self.spec.latent_dim, "classify")
        return affine(z, self.cls_w, self.cls_b)

    def forward(self, x) -> Tensor:
        return self.classify(self.encode(x))

    def project(self, z) -> Tensor:
        """Map the latent into the contrastive space per the configured head."""
        z = self._as_batch(z, self.spec.latent_dim, "project")
        if self.spec.projection == "identity":
            return z
        if self.spec.projection == "linear":
            return z @ self.proj[0]
        return (z @ self.proj[0]).relu() @ self.proj[1]

    def zero_grad(self):
        for p in self._params:
            p.grad = None


# -- checkpoint io -------------------------------------------------------------
#
# Layout (little-endian): 8-byte magic, u32 spec-JSON length, spec JSON
# (utf-8), then each weight array in declaration order as raw f64 bytes.


def save_model(model: MLPClassifier, path):
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    spec_json = json.dumps(asdict(model.spec), sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(spec_json))
    blob += spec_json
    for p in model._params:
        blob += np.ascontiguousarray(p.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path) -> MLPClassifier:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic at byte 0: {blob[:8]!r}")
    off = 8
    if len(blob) < off + 4:
        raise FormatError(f"truncated checkpoint at byte {len(blob)}")
    (spec_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    if len(blob) < off + spec_len:
        raise FormatError(f"truncated checkpoint at byte {len(blob)}")
    try:
        spec = ModelSpec(**json.loads(blob[off:off + spec_len].decode("utf-8")))
    except (ValueError, TypeError) as e:
        raise FormatError(f"bad spec record at byte {off}: {e}") from e
    off += spec_len

    model = MLPClassifier(spec, seed=0)
    for p in model._params:
        nbytes = p.data.size * 8
        if len(blob) < off + nbytes:
            raise FormatError(f"truncated checkpoint at byte {len(blob)} (expected weights at {off})")
        arr = np.frombuffer(blob, dtype="<f8", count=p.data.size, offset=off)
        p.data = arr.reshape(p.data.shape).astype(np.float64)
        off += nbytes
    if off != len(blob):
        raise FormatError(f"trailing bytes after weights at byte {off}")
    return model
