import csv
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ascl.attacks
import ascl.divergence
from ascl.cli import cli
from ascl.config import RunConfig
from ascl.data import Dataset, make_blobs, save_dataset
from ascl.training import SWEEP_COLUMNS, sweep, train

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


@pytest.mark.parametrize("sim", ["cosine", "lp:2"])
def test_seeded_contrastive_runs_write_identical_checkpoints(tmp_path, sim):
    blobs = []
    for run in ("a", "b"):
        cfg = RunConfig(dataset="blobs", data_classes=3, data_per_class=8, data_dims=4,
                        hidden_layers=(8, 8), strategy="leaked", lambda_scl=1.0,
                        similarity=sim, epochs=2, batch_size=12, train_steps=3,
                        eval_steps=3, eval_every=0, seed=4,
                        output_dir=str(tmp_path / run))
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


def test_sweep_records_the_failure_and_continues(tmp_path):
    base = RunConfig(dataset="moons", data_size=20, hidden_layers=(4,), epochs=1,
                     batch_size=10, train_steps=1, eval_steps=1, eval_every=0,
                     output_dir=str(tmp_path))
    rows = sweep(base, ["global"], [1.0, -1.0], [2.0])
    assert [(r["lambda_scl"], r["status"]) for r in rows] == [
        (-1.0, "failed: ConfigError: loss weights must be nonnegative"),
        (1.0, "ok"),
    ]
    assert rows[0]["nat_acc"] is None and rows[0]["rob_acc"] is None
    assert rows[1]["nat_acc"] is not None and rows[1]["rob_acc"] is not None
    assert all(set(r) == set(SWEEP_COLUMNS) for r in rows)
