import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ascl.config import RunConfig
from ascl.training import train

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
