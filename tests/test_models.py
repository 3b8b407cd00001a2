import json
import struct

import numpy as np
import pytest

import ascl.losses
from ascl.data import Batch
from ascl.errors import ConfigError, DimensionError, FormatError
from ascl.losses import LossWeights, total_loss
from ascl.models import MLPClassifier, ModelSpec, load_model, save_model
from ascl.tensor import Tensor
from mlp_graph import log_softmax, mul, sum_


def small_spec(**kw):
    defaults = dict(input_dim=3, hidden_layers=(5, 4), num_classes=3)
    defaults.update(kw)
    return ModelSpec(**defaults)


class TestModelSpec:
    def test_latent_dim_is_last_hidden(self):
        assert small_spec(hidden_layers=(8, 6)).latent_dim == 6

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec(input_dim=3, hidden_layers=(), num_classes=2)

    def test_identity_activation_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(activation="identity")

    def test_unknown_projection_rejected(self):
        with pytest.raises(ConfigError):
            small_spec(projection="mlp")

    @pytest.mark.parametrize("edit", [dict(input_dim=2.5), dict(num_classes=2.0),
                                      dict(hidden_layers=(2.7,)), dict(hidden_layers=(True, 2)),
                                      dict(input_dim=True), dict(projection_dim=np.float64(3)),
                                      dict(projection_mid=np.bool_(True)), dict(num_classes=0),
                                      dict(hidden_layers=(4, -1)), dict(input_dim="3")])
    def test_sizes_must_be_positive_integers(self, edit):
        with pytest.raises(ConfigError, match="model sizes must be positive integers"):
            small_spec(**edit)

    def test_numpy_integer_sizes_become_ints(self, tmp_path):
        spec = small_spec(input_dim=np.int64(3), hidden_layers=np.array([5, 4]),
                          num_classes=np.int32(3), projection_dim=np.uint8(6))
        assert spec == small_spec(projection_dim=6)
        assert all(type(v) is int for v in (spec.input_dim, *spec.hidden_layers,
                                             spec.num_classes, spec.projection_dim))
        # the spec record is JSON, which takes only Python ints
        save_model(MLPClassifier(spec, seed=0), tmp_path / "m.ckpt")
        assert load_model(tmp_path / "m.ckpt").spec == spec


class TestForward:
    def test_zero_weights_constant_map(self):
        m = MLPClassifier(small_spec(), seed=0)
        for p in m.parameters:
            p.data = np.zeros_like(p.data)
        z = m.encode(np.random.default_rng(0).uniform(size=(4, 3))).data
        assert np.array_equal(z, np.zeros((4, 4)))
        probs = np.exp(log_softmax(m.classify(Tensor(z))).data)
        assert np.allclose(probs, 1.0 / 3.0)

    def test_composition_equals_full_forward(self):
        m = MLPClassifier(small_spec(), seed=1)
        x = np.random.default_rng(1).uniform(size=(6, 3))
        two_step = m.classify(m.encode(x)).data
        assert np.array_equal(two_step, m.forward(x).data)

    def test_forward_is_pure(self):
        m = MLPClassifier(small_spec(), seed=2)
        x = np.random.default_rng(2).uniform(size=(5, 3))
        assert np.array_equal(m.forward(x).data, m.forward(x).data)

    def test_width_mismatch(self):
        m = MLPClassifier(small_spec(), seed=0)
        with pytest.raises(DimensionError):
            m.encode(np.ones((2, 7)))
        with pytest.raises(DimensionError):
            m.classify(Tensor(np.ones((2, 7))))

    def test_init_is_seeded_glorot(self):
        m1 = MLPClassifier(small_spec(), seed=3)
        m2 = MLPClassifier(small_spec(), seed=3)
        for a, b in zip(m1.parameters, m2.parameters):
            assert np.array_equal(a.data, b.data)
        w = m1.parameters[0].data
        limit = np.sqrt(6.0 / (3 + 5))
        assert np.abs(w).max() <= limit


class TestProjection:
    def test_identity_is_bitwise(self):
        m = MLPClassifier(small_spec(), seed=0)
        z = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        assert m.project(z) is z

    def test_linear_default_width_128(self):
        spec = ModelSpec(input_dim=3, hidden_layers=(64,), num_classes=2,
                         projection="linear")
        m = MLPClassifier(spec, seed=0)
        out = m.project(Tensor(np.zeros((2, 64))))
        assert out.shape == (2, 128)

    def test_two_layer_default_shapes(self):
        spec = ModelSpec(input_dim=3, hidden_layers=(10,), num_classes=2,
                         projection="two_layer")
        m = MLPClassifier(spec, seed=0)
        assert m.proj[0].shape == (10, 200)
        assert m.proj[1].shape == (200, 128)
        assert m.project(Tensor(np.ones((3, 10)))).shape == (3, 128)

    def test_projection_has_no_bias(self):
        spec = ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=2,
                         projection="two_layer", projection_mid=5, projection_dim=3)
        m = MLPClassifier(spec, seed=0)
        assert m.project(Tensor(np.zeros((2, 4)))).data.sum() == 0.0

    def test_gradients_reach_encoder_through_head(self):
        spec = ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=2,
                         projection="linear", projection_dim=5)
        m = MLPClassifier(spec, seed=4)
        x = np.random.default_rng(4).uniform(size=(3, 3))
        p = m.project(m.encode(x))
        (g,) = sum_(mul(p, p)).backward(m.parameters[:1])
        assert g is not None
        assert np.abs(g).sum() > 0


class TestSnapshot:
    """The natural/adversarial argmax predictions that feed the slot masks
    are taken inside total_loss, from its one pair of forwards."""

    def test_identical_inputs_identical_preds(self, monkeypatch):
        m = MLPClassifier(small_spec(), seed=5)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(6, 3))
        y = rng.integers(0, 3, size=6)
        seen = []
        real = ascl.losses.selection_masks

        def recording(strategy, labels, preds=None):
            seen.append(preds)
            return real(strategy, labels, preds)

        monkeypatch.setattr(ascl.losses, "selection_masks", recording)
        total_loss(Batch(x, y, x.copy()), m, "hard", LossWeights())
        (preds,) = seen
        assert np.array_equal(preds[:6], preds[6:])
        assert np.array_equal(preds[:6], np.argmax(m.forward(x).data, axis=1))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = ModelSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3,
                         projection="two_layer", projection_mid=6, projection_dim=4)
        m = MLPClassifier(spec, seed=8)
        path = tmp_path / "m.ckpt"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.spec == spec
        for a, b in zip(m.parameters, loaded.parameters):
            assert a.data.tobytes() == b.data.tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        m = MLPClassifier(small_spec(), seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(m, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated(self, tmp_path):
        m = MLPClassifier(small_spec(), seed=0)
        path = tmp_path / "m.ckpt"
        save_model(m, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(FormatError, match="byte"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_model(MLPClassifier(small_spec(), seed=0), path)
        blob = bytearray(path.read_bytes())
        # the classifier bias (1, 3) is the last array; edit its second entry
        at = len(blob) - 16
        blob[at:at + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"non-finite weight at byte {at}$"):
            load_model(path)

    @pytest.mark.parametrize("edit", [{"extra": 1}, {"input_dim": "3"}, {"hidden_layers": ["a"]},
                                      {"input_dim": 2.5}, {"num_classes": 2.0},
                                      {"hidden_layers": [2.7]}, {"hidden_layers": [True, 2]},
                                      {"hidden_layers": 4}])
    def test_bad_spec_record(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        save_model(MLPClassifier(small_spec(), seed=0), path)
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 8)
        spec = json.dumps({**json.loads(blob[12:12 + n]), **edit}).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(spec)) + spec + blob[12 + n:])
        with pytest.raises(FormatError, match="bad spec record at byte 12"):
            load_model(path)
