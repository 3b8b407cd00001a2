"""Training loop, the Adam optimizer, metrics logging and evaluation."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .attacks import AttackConfig, pgd_attack, robust_accuracy
from .config import RunConfig
from .data import Batch, Dataset, iter_batches
from .divergence import divergence_report
from .errors import TrainingAborted
from .losses import total_loss
from .models import MLPClassifier, save_model

__all__ = [
    "Adam",
    "lr_at",
    "MetricsRow",
    "MetricsWriter",
    "METRICS_SCHEMA",
    "METRICS_COLUMNS",
    "train_step",
    "train",
    "TrainResult",
    "evaluate",
    "write_csv",
]

# rng stream tags, combined with the run seed as (seed, tag, ...)
_S_INIT, _S_SHUFFLE, _S_ATTACK, _S_EPOCH_EVAL, _S_FINAL_EVAL = range(5)

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over ``params``, moved into one flat float64 buffer that each ``p.data``
    views and a step updates in place, so a graph walked after a step reads the new
    weights. ``m`` and ``v`` hold the moments' per-parameter views."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = list(params), lr, 0
        ends = np.cumsum([p.data.size for p in self.params])
        self._spans = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
        self._flat = np.concatenate([p.data.ravel() for p in self.params])
        self._m, self._v = np.zeros_like(self._flat), np.zeros_like(self._flat)
        self.m, self.v = self._views(self._m), self._views(self._v)
        for p, view in zip(self.params, self._views(self._flat)):
            p.data = view

    def _views(self, flat):
        return [flat[s].reshape(p.data.shape) for p, s in zip(self.params, self._spans)]

    def step(self, grads):
        """One update from ``grads`` in ``params`` order, in one pass unless a gradient
        is ``None``; such a parameter keeps its values and both moments."""
        self.t += 1
        if all(g is not None for g in grads):
            runs = [(slice(None), np.concatenate([g.ravel() for g in grads]))]
        else:
            runs = [(span, g.ravel()) for span, g in zip(self._spans, grads) if g is not None]
        for span, g in runs:
            m, v = self._m[span], self._v[span]
            m *= _BETA1
            m += (1 - _BETA1) * g
            v *= _BETA2
            v += (1 - _BETA2) * g ** 2
            mhat = m / (1 - _BETA1 ** self.t)
            vhat = v / (1 - _BETA2 ** self.t)
            self._flat[span] -= self.lr * mhat / (np.sqrt(vhat) + _EPS)


def lr_at(lr, schedule, epoch):
    """Last scheduled rate at or before this epoch; ``lr`` until the first."""
    for e, v in schedule:
        if e <= epoch:
            lr = v
    return lr


METRICS_SCHEMA = "schema=asclmetrics.v1"


@dataclass
class MetricsRow:
    epoch: int
    split: str
    nat_acc: float = None
    rob_acc: float = None
    loss_at: float = None
    loss_scl: float = None
    loss_vat: float = None
    loss_total: float = None
    d_a_plus: float = None
    d_a_minus: float = None
    r_div: float = None
    mean_pos: float = None
    mean_neg: float = None
    wall_time_s: float = None


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


class MetricsWriter:
    """CSV writer with a schema line; flushes after every row so aborted
    runs leave their partial metrics behind."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write(METRICS_SCHEMA + "\n")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(METRICS_COLUMNS)
        self._fh.flush()

    def write(self, row: MetricsRow):
        self._writer.writerow([_fmt(getattr(row, c)) for c in METRICS_COLUMNS])
        self._fh.flush()

    def close(self):
        self._fh.close()


def train_step(model, optimizer, x, y, cfg: RunConfig, step_seed):
    """One update: PGD from the current weights, one forward of both views stacked,
    the combined loss, one backward walk and one flat Adam pass."""
    x_adv = pgd_attack(model, x, y, cfg.train_attack(), seed=step_seed)
    bd = total_loss(Batch(x, y, x_adv), model, cfg.strategy, cfg.loss_weights(),
                    nat_ce=cfg.nat_ce, use_vat=cfg.use_vat)
    total_val = bd.total.item()
    if not math.isfinite(total_val):
        raise TrainingAborted(
            f"non-finite loss (at={bd.at}, scl={bd.scl}, vat={bd.vat})")
    optimizer.step(bd.total.backward(optimizer.params))
    return {
        "loss_at": bd.at, "loss_scl": bd.scl, "loss_vat": bd.vat,
        "loss_total": total_val, "mean_pos": bd.mean_pos, "mean_neg": bd.mean_neg,
    }


@dataclass
class TrainResult:
    model: MLPClassifier
    metrics_path: str
    checkpoint_path: str
    summary: dict


def train(cfg: RunConfig, quiet=True) -> TrainResult:
    """Full run: epoch loop with the lr schedule, per-epoch cheap
    evaluation, metrics CSV, final checkpoint and summary JSON."""
    train_ds, test_ds = cfg.build_datasets()
    spec = cfg.model_spec(train_ds.dim, train_ds.num_classes)
    model = MLPClassifier(spec, seed=(cfg.seed, _S_INIT))
    opt = Adam(model.parameters, lr=cfg.lr)

    os.makedirs(cfg.output_dir, exist_ok=True)
    metrics_path = os.path.join(cfg.output_dir, "metrics.csv")
    checkpoint_path = os.path.join(cfg.output_dir, "model.ckpt")
    writer = MetricsWriter(metrics_path)
    started = time.monotonic()

    try:
        for epoch in range(cfg.epochs):
            opt.lr = lr_at(cfg.lr, cfg.schedule, epoch)
            shuffle_rng = np.random.default_rng((cfg.seed, _S_SHUFFLE, epoch))
            sums, steps = {}, 0
            for step, (x, y) in enumerate(iter_batches(train_ds, cfg.batch_size,
                                                       shuffle_rng)):
                try:
                    frag = train_step(model, opt, x, y, cfg,
                                      step_seed=(cfg.seed, _S_ATTACK, epoch, step))
                except TrainingAborted:
                    writer.write(MetricsRow(epoch=epoch, split="train",
                                            loss_total=float("nan"),
                                            wall_time_s=time.monotonic() - started))
                    raise
                for k, v in frag.items():
                    sums[k] = sums.get(k, 0.0) + v
                steps += 1
            writer.write(MetricsRow(
                epoch=epoch, split="train",
                **{k: v / steps for k, v in sums.items()},
                wall_time_s=time.monotonic() - started))

            if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
                writer.write(_eval_row(model, test_ds, cfg, epoch, started))
            if not quiet:
                print(f"epoch {epoch}: loss_total={sums['loss_total'] / steps:.4f}")
    finally:
        writer.close()

    save_model(model, checkpoint_path)

    eval_cfg = cfg.eval_attack()
    final = {
        "nat_acc": robust_accuracy(model, test_ds.features, test_ds.labels, "none", eval_cfg),
        "rob_acc": robust_accuracy(model, test_ds.features, test_ds.labels, "pgd",
                                   eval_cfg, seed=(cfg.seed, _S_FINAL_EVAL))
        if cfg.epochs > 0 else None,
    }
    summary = {
        "config": cfg.to_dict(),
        "final": final,
        "checkpoint": checkpoint_path,
        "metrics": metrics_path,
        "build_id": f"ascl-{__version__}",
    }
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return TrainResult(model=model, metrics_path=metrics_path,
                       checkpoint_path=checkpoint_path, summary=summary)


def _eval_row(model, test_ds, cfg: RunConfig, epoch, started) -> MetricsRow:
    """Test row of one epoch: one ``divergence_report`` gives ``nat_acc``,
    ``rob_acc`` (under the training attack) and d+/d-."""
    report = divergence_report(model, test_ds.features, test_ds.labels,
                               cfg.train_attack(), seed=(cfg.seed, _S_EPOCH_EVAL, epoch))
    return MetricsRow(epoch=epoch, split="test", nat_acc=report.nat_acc,
                      rob_acc=report.rob_acc,
                      d_a_plus=report.d_a_plus, d_a_minus=report.d_a_minus,
                      r_div=report.r_div,
                      wall_time_s=time.monotonic() - started)


def evaluate(model, dataset: Dataset, eval_cfg: AttackConfig,
             attacks=("none", "pgd", "mpgd"), seed=0):
    """One metrics row per attack; robust accuracy under each. Each distinct
    attack, "none" included, scores the dataset once."""
    accs = {name: robust_accuracy(model, dataset.features, dataset.labels, name, eval_cfg,
                                  seed=seed)
            for name in dict.fromkeys(("none", *attacks))}
    return [(name, MetricsRow(epoch=0, split=dataset.split, nat_acc=accs["none"],
                              rob_acc=accs[name])) for name in attacks]


def write_csv(rows, columns, fh):
    """Header plus one line per row dict, each value formatted by ``_fmt``."""
    writer = csv.writer(fh)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
