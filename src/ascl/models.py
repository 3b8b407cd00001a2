"""Small MLP classifiers with an exposed penultimate latent and optional projection
heads for the contrastive loss. Only training builds engine nodes: ``encode``,
``classify`` and a ``linear`` or ``two_layer`` ``project``, one each, whose one VJP
returns its parents' shares. Inference builds none: ``_predict`` and ``_input_gradient``,
which every PGD step calls, run the same float ops in numpy."""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (ConfigError, ContractError, FormatError, check_batch, check_integer,
                     check_labels)
from .tensor import Tensor

__all__ = ["ModelSpec", "MLPClassifier", "save_model", "load_model"]

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
        try:
            for name in ("input_dim", "num_classes", "projection_dim", "projection_mid"):
                object.__setattr__(self, name, check_integer(getattr(self, name), "model sizes"))
            object.__setattr__(self, "hidden_layers", tuple(
                check_integer(w, "model sizes") for w in self.hidden_layers))
        except ContractError as e:
            raise ConfigError(str(e)) from None
        if not self.hidden_layers:
            raise ConfigError("at least one hidden layer is required")
        if self.activation != "relu":
            raise ConfigError(f"unsupported activation {self.activation!r}")
        if self.projection not in PROJECTION_KINDS:
            raise ConfigError(f"projection must be one of {PROJECTION_KINDS}")

    @property
    def latent_dim(self) -> int:
        return self.hidden_layers[-1]


def _batch_sum(g):
    """A (1, k) bias's gradient from the (N, k) one of its output: the sum over
    the batch, and for one row that row itself, which keeps the sign of a zero."""
    return g if len(g) == 1 else g.sum(axis=0, keepdims=True)


def _affine(h, w, b):
    """``h @ w + b``, the bias added in place: every layer's map, classifier head included."""
    out = h @ w
    out += b
    return out


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
        t = Tensor(arr)
        self._params.append(t)
        return t

    @property
    def parameters(self):
        return list(self._params)

    def _as_batch(self, x, width, what):
        t = x if isinstance(x, Tensor) else Tensor(x)
        check_batch(t.data, width, what)
        return t

    def encode(self, x) -> Tensor:
        """The penultimate activation: one node whose parents are every hidden
        weight and bias, in ``parameters`` order, after ``x`` when it is a Tensor."""
        t = self._as_batch(x, self.spec.input_dim, "encode's input")
        acts = self._hidden_forward(t.data)
        params = tuple(p for layer in self.hidden for p in layer)
        const = t is not x

        def vjp(g):
            gx, grads = self._hidden_backprop(g.copy(), acts, params=True)
            return tuple(grads) if const else (gx @ params[0].data.T, *grads)

        return Tensor._make(acts[-1], params if const else (t, *params), vjp)

    def classify(self, z) -> Tensor:
        """Logits of latents ``z``, ``z @ cls_w + cls_b``, as one node."""
        z = self._as_batch(z, self.spec.latent_dim, "classify's input")
        h, w = z.data, self.cls_w.data
        return Tensor._make(_affine(h, w, self.cls_b.data), (z, self.cls_w, self.cls_b),
                            lambda g: (g @ w.T, h.T @ g, _batch_sum(g)))

    def forward(self, x) -> Tensor:
        return self.classify(self.encode(x))

    def _hidden_forward(self, h):
        """Each hidden layer's input, the latent last; a relu output is its own mask."""
        acts = [h]
        for w, b in self.hidden:
            a = _affine(h, w.data, b.data)
            h = np.maximum(a, 0.0, out=a)
            acts.append(h)
        return acts

    def _predict(self, x):
        """Latents and logits of an unchecked batch, as ``classify(encode(x))`` computes them."""
        z = self._hidden_forward(x)[-1]
        return z, _affine(z, self.cls_w.data, self.cls_b.data)

    def _hidden_backprop(self, g, acts, params=False):
        """``g`` carried down the relu stack of layer inputs ``acts`` in the VJPs' float ops,
        overwriting it: d/d(first pre-activation) and, if ``params``, each weight's and bias's."""
        grads = []
        for i in reversed(range(len(self.hidden))):
            g *= acts[i + 1] > 0.0
            if params:
                grads[:0] = (acts[i].T @ g, _batch_sum(g))
            if i:
                g = g @ self.hidden[i][0].data.T
        return g, grads

    def input_gradient(self, x, labels) -> np.ndarray:
        """d/dx of the summed cross-entropy of ``forward(x)`` against ``labels``,
        bit for bit a backward walk through the ``forward`` nodes."""
        x = check_batch(x, self.spec.input_dim, "input_gradient's input")
        return self._input_gradient(x, check_labels(labels, self.spec.num_classes, x.shape[0]))

    def _input_gradient(self, x, labels):
        """``input_gradient`` of a checked batch and labels; builds no Tensor."""
        acts = self._hidden_forward(x)
        z = _affine(acts[-1], self.cls_w.data, self.cls_b.data)
        # softmax as in tensor._lse_softmax, minus the one-hot of the labels
        z -= np.maximum.reduce(z, axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= np.add.reduce(z, axis=1, keepdims=True)
        z[np.arange(z.shape[0]), labels] -= 1.0
        return self._hidden_backprop(z @ self.cls_w.data.T, acts)[0] @ self.hidden[0][0].data.T

    def project(self, z) -> Tensor:
        """Map the latent into the contrastive space per the configured head:
        ``z`` itself, ``z @ P`` or ``relu(z @ P0) @ P1``, the last two as one
        node whose parents are ``z`` and the head's weights."""
        z = self._as_batch(z, self.spec.latent_dim, "project's input")
        if self.spec.projection == "identity":
            return z
        h, w = z.data, self.proj[0].data
        if self.spec.projection == "linear":
            return Tensor._make(h @ w, (z, self.proj[0]), lambda g: (g @ w.T, h.T @ g))
        a = h @ w
        mask = a > 0.0
        r, w1 = np.maximum(a, 0.0), self.proj[1].data

        def vjp(g):
            d = (g @ w1.T) * mask
            return d @ w.T, h.T @ d, r.T @ g

        return Tensor._make(r @ w1, (z, *self.proj), vjp)


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
        if bad := np.flatnonzero(~np.isfinite(arr)).tolist():
            raise FormatError(f"non-finite weight at byte {off + 8 * bad[0]}")
        p.data = arr.reshape(p.data.shape).astype(np.float64)
        off += nbytes
    if off != len(blob):
        raise FormatError(f"trailing bytes after weights at byte {off}")
    return model
