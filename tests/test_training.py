import csv
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import pytest

import ascl.attacks
import ascl.divergence
import ascl.training
from adam_loop import AdamLoop
from ascl.cli import cli
from ascl.config import RunConfig
from ascl.data import Dataset, make_blobs, save_dataset
from ascl.models import MLPClassifier, ModelSpec, load_model, save_model
from ascl.tensor import Tensor
from ascl.training import Adam, train, train_step
from test_golden import _COMMON, CONFIGS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_default_cli_train_runs_to_the_end(tmp_path):
    # the default moons test labels are sorted; the per-epoch divergence
    # report must still be defined
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "run"
    proc = subprocess.run([sys.executable, "-m", "ascl", "train", "--epochs", "1",
                           "--output-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "model.ckpt").exists()


def test_zero_latent_rows_do_not_stop_training(tmp_path):
    # with 4-unit ReLU layers some latent rows are all zero
    cfg = RunConfig(dataset="blobs", data_per_class=10, hidden_layers=(4, 4), epochs=3,
                    eval_every=0, batch_size=64, output_dir=str(tmp_path))
    result = train(cfg)
    with open(result.metrics_path) as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    assert len(rows) == 3
    for row in rows:
        for key in ("loss_at", "loss_scl", "loss_vat", "loss_total"):
            assert math.isfinite(float(row[key]))


def test_seeded_contrastive_runs_write_identical_checkpoints(tmp_path):
    blobs = []
    for run in ("a", "b"):
        cfg = RunConfig(dataset="blobs", data_classes=3, data_per_class=8, data_dims=4,
                        hidden_layers=(8, 8), strategy="leaked", lambda_scl=1.0,
                        epochs=2, batch_size=12, train_steps=3, eval_steps=3, eval_every=0,
                        seed=4, output_dir=str(tmp_path / run))
        blobs.append(Path(train(cfg).checkpoint_path).read_bytes())
    assert blobs[0] == blobs[1]


def test_zero_test_latents_do_not_stop_the_epoch_evaluation(tmp_path):
    # one ReLU unit: many test latents are exactly zero at the per-epoch report
    cfg = RunConfig(dataset="blobs", data_per_class=10, hidden_layers=(1,), epochs=3,
                    batch_size=64, eval_steps=5, output_dir=str(tmp_path))
    result = train(cfg)
    with open(result.metrics_path) as fh:
        rows = [r for r in csv.DictReader(fh.readlines()[1:]) if r["split"] == "test"]
    assert len(rows) == 3
    for row in rows:
        for key in ("d_a_plus", "d_a_minus"):
            assert math.isfinite(float(row[key]))


def test_lr_sets_epoch_0_and_the_schedule_the_later_epochs(tmp_path, monkeypatch):
    rates = []
    real = ascl.training.Adam.step

    def recording(self, grads):
        rates.append(self.lr)
        real(self, grads)

    monkeypatch.setattr(ascl.training.Adam, "step", recording)
    cfg = RunConfig(dataset="moons", data_size=20, hidden_layers=(4,), epochs=4, batch_size=10,
                    train_steps=1, eval_steps=1, eval_every=0, lr=0.5,
                    schedule=((2, 1e-3), (3, 1e-4)), output_dir=str(tmp_path))
    train(cfg)
    assert rates == [0.5] * 4 + [1e-3] * 2 + [1e-4] * 2


def test_a_projection_outside_the_objective_gets_no_gradient_and_no_update(monkeypatch):
    # at lambda_scl=0 the loss never reads the projection head
    cfg = RunConfig(dataset="moons", data_size=20, hidden_layers=(4,), lambda_scl=0.0,
                    projection="linear", projection_dim=3, batch_size=10, train_steps=2)
    train_ds, _ = cfg.build_datasets()
    model = MLPClassifier(cfg.model_spec(train_ds.dim, train_ds.num_classes), seed=3)
    opt = Adam(model.parameters, lr=0.1)
    assert opt.params[-1] is model.proj[0]
    before = [p.data.copy() for p in opt.params]
    seen = []
    real = Adam.step

    def recording(self, grads):
        seen.append(grads)
        real(self, grads)

    monkeypatch.setattr(Adam, "step", recording)
    train_step(model, opt, train_ds.features[:10], train_ds.labels[:10], cfg, step_seed=(3,))
    [grads] = seen
    assert grads[-1] is None and all(g is not None for g in grads[:-1])
    assert opt.params[-1].data.tobytes() == before[-1].tobytes()
    assert not opt.m[-1].any() and not opt.v[-1].any()
    assert all(not np.array_equal(p.data, b) for p, b in zip(opt.params[:-1], before))


def _test_rows(metrics_path):
    with open(metrics_path) as fh:
        return [r for r in csv.DictReader(fh.readlines()[1:]) if r["split"] == "test"]


def test_each_evaluated_epoch_attacks_every_test_sample_once(tmp_path, monkeypatch):
    attacked = Counter()
    real = ascl.attacks.pgd_attack

    def counting(model, x, y, cfg, seed=0, index_base=0, **kwargs):
        attacked.update((tuple(seed), index_base + i) for i in range(len(x)))
        return real(model, x, y, cfg, seed=seed, index_base=index_base, **kwargs)

    # the evaluation attacks; training steps call ascl.training.pgd_attack
    monkeypatch.setattr(ascl.attacks, "pgd_attack", counting)
    monkeypatch.setattr(ascl.divergence, "pgd_attack", counting)
    cfg = RunConfig(dataset="moons", data_size=40, hidden_layers=(8,), epochs=3,
                    batch_size=20, train_steps=2, eval_steps=2, eval_every=1, seed=5,
                    output_dir=str(tmp_path))
    train(cfg)
    n = cfg.data_size
    # stream tags: 3 per-epoch evaluation, 4 final evaluation
    expected = Counter((5, 3, epoch, i) for epoch in range(3) for i in range(n))
    expected.update((5, 4, i) for i in range(n))
    assert Counter({seed + (i,): k for (seed, i), k in attacked.items()}) == expected


def test_one_class_test_split_leaves_the_divergences_empty(tmp_path):
    ds = make_blobs(3, 10, 4, 0.1, seed=1)
    train_path, test_path = tmp_path / "train.ds", tmp_path / "test.ds"
    save_dataset(ds, train_path)
    keep = ds.labels == 0
    save_dataset(Dataset(ds.features[keep], ds.labels[keep], 3, split="test"), test_path)
    out = tmp_path / "run"
    assert cli(["train", "--dataset", str(train_path), "--dataset-test", str(test_path),
                "--epochs", "2", "--eval-steps", "3", "--output-dir", str(out)]) == 0
    rows = _test_rows(out / "metrics.csv")
    assert len(rows) == 2
    for row in rows:
        assert row["d_a_minus"] == "" and row["r_div"] == ""
        assert math.isfinite(float(row["d_a_plus"]))
        assert 0.0 <= float(row["rob_acc"]) <= 1.0


def _two_models(spec, seed):
    return MLPClassifier(spec, seed=seed), MLPClassifier(spec, seed=seed)


def _random_grads(rng, params, missing=()):
    grads = [rng.normal(scale=10.0 ** rng.integers(-6, 2), size=p.data.shape) for p in params]
    # both zeros, a tiny and a huge entry
    grads[0].flat[:4] = [0.0, -0.0, 1e-200, 1e150]
    for k in missing:
        grads[k] = None
    return grads


@pytest.mark.parametrize("missing", [(), (0,), (2, 3), (5,), (1, 4)])
def test_flat_adam_equals_the_per_array_loop_bitwise(missing):
    spec = ModelSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3, projection="linear",
                     projection_dim=2)
    a, b = _two_models(spec, seed=6)
    flat, loop = Adam(a.parameters, lr=0.1), AdamLoop(b.parameters, lr=0.1)
    rng = np.random.default_rng(len(missing))
    for step in range(5):
        grads = _random_grads(rng, a.parameters, missing if step % 2 else ())
        if step == 3:
            flat.lr = loop.lr = 0.003
        flat.step(grads)
        loop.step(grads)
        for p, q, m, n, v, w in zip(a.parameters, b.parameters, flat.m, loop.m, flat.v, loop.v):
            assert p.data.tobytes() == q.data.tobytes()
            assert m.tobytes() == n.tobytes() and v.tobytes() == w.tobytes()


def test_a_parameter_without_gradient_keeps_its_values_and_moments():
    model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3), seed=7)
    opt = Adam(model.parameters, lr=0.1)
    rng = np.random.default_rng(7)
    opt.step(_random_grads(rng, model.parameters))
    before = [(p.data.copy(), m.copy(), v.copy()) for p, m, v in zip(opt.params, opt.m, opt.v)]
    opt.step(_random_grads(rng, model.parameters, missing=(1, 2)))
    for k, (p, m, v) in enumerate(zip(opt.params, opt.m, opt.v)):
        same = [a.tobytes() == b.tobytes() for a, b in zip((p.data, m, v), before[k])]
        assert same == [k in (1, 2)] * 3


def test_seeded_runs_under_the_per_array_adam_write_the_same_checkpoint(tmp_path, monkeypatch):
    cfg = {**_COMMON, **CONFIGS["leaked_cosine"], "epochs": 2, "eval_every": 0}
    flat = train(RunConfig(output_dir=str(tmp_path / "flat"), **cfg)).checkpoint_path
    monkeypatch.setattr(ascl.training, "Adam", AdamLoop)
    loop = train(RunConfig(output_dir=str(tmp_path / "loop"), **cfg)).checkpoint_path
    assert Path(flat).read_bytes() == Path(loop).read_bytes()


def test_loading_then_taking_an_optimizer_keeps_the_checkpoint_bytes(tmp_path):
    spec = ModelSpec(input_dim=3, hidden_layers=(5, 4), num_classes=3, projection="two_layer",
                     projection_mid=6, projection_dim=4)
    save_model(MLPClassifier(spec, seed=8), tmp_path / "a.ckpt")
    model = load_model(tmp_path / "a.ckpt")
    Adam(model.parameters, lr=0.1)
    save_model(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


# tensors one train_step builds: the stacked input, the encode and classify
# nodes and the AT node, then one node per weighted term and one weighted
# sum over the terms (an identity head adds no projection node)
@pytest.mark.parametrize("name,edit,tensors", [
    ("at_moons", {}, 4),
    ("at_moons", dict(lambda_vat=2.0), 6),
    ("leaked_cosine", {}, 7),
])
def test_train_step_builds_few_tensors(name, edit, tensors, monkeypatch):
    cfg = RunConfig(**{**_COMMON, **CONFIGS[name], **edit})
    train_ds, _ = cfg.build_datasets()
    model = MLPClassifier(cfg.model_spec(train_ds.dim, train_ds.num_classes), seed=1)
    opt = Adam(model.parameters, lr=cfg.lr)
    built = []
    real = Tensor.__init__

    def counting(self, data):
        built.append(self)
        real(self, data)

    monkeypatch.setattr(Tensor, "__init__", counting)
    x, y = train_ds.features[:cfg.batch_size], train_ds.labels[:cfg.batch_size]
    train_step(model, opt, x, y, cfg, step_seed=(1,))
    assert len(built) == tensors
