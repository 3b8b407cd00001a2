"""The three workloads: how each builds its inputs from the workload seed,
what one timed unit is, and which output checks it runs.

A workload calls the program only through the public functions the CLI
uses: ``ascl.train``, ``ascl.evaluate``, ``ascl.divergence_sweep``,
``ascl.load_model`` and ``ascl.data.load_dataset``. The output checks,
which run outside the timed units, may call further public functions
(``total_loss``, the attacks, ``divergence_report``) to get the values
they compare against the numpy recomputations in ``checks``.
"""

from __future__ import annotations

import os

import numpy as np

import ascl
import ascl.data
from ascl.data import Batch
from ascl.divergence import divergence_report
from ascl.losses import total_loss

import checks

# the eval workload's checkpoint: AT on 10-class, 16-dim blobs
PREP_CONFIG = dict(dataset="blobs", data_classes=10, data_per_class=25, data_dims=16,
                   batch_size=64, lambda_scl=0.0, epochs=20, lr=1e-2, eval_every=0,
                   eval_steps=10)
# the CLI's `evaluate` and `divergence` defaults
EVAL_ATTACK = dict(epsilon=0.05, eta=0.0125, steps=50)
SWEEP_ATTACK = dict(epsilon=0.1, eta=0.0125, steps=10)
# one step from the random start: the outcome turns on the per-sample
# streams, so the batch-size check can see a stream that moved
START_ATTACK = dict(epsilon=0.1, eta=0.0125, steps=1)
EPS_GRID = (0.0, 0.025, 0.05, 0.1)
CHECK_BATCH = 256
OTHER_BATCH_SIZE = 100


def run_config(seed, output_dir, **fields):
    return ascl.RunConfig(seed=seed, data_seed=seed, output_dir=output_dir, **fields)


def prepared_paths(prep_dir):
    return os.path.join(prep_dir, "model.ckpt"), os.path.join(prep_dir, "test.ds")


class TrainWorkload:
    """One unit is one whole ``ascl.train`` call on the workload's config."""

    def __init__(self, fields):
        self.fields = fields

    def setup(self, seed, run_dir, prep_dir):
        self.seed = seed
        self.cfg = run_config(seed, os.path.join(run_dir, "unit"), **self.fields)
        self.train_ds, _ = self.cfg.build_datasets()
        self.samples = self.cfg.epochs * len(self.train_ds)
        self.checkpoints = []

    def unit(self):
        return ascl.train(self.cfg)

    def keep(self, result):
        with open(result.checkpoint_path, "rb") as fh:
            self.checkpoints.append(fh.read())

    def check(self):
        errors = checks.check_identical(self.checkpoints, "checkpoints")
        cfg = self.cfg
        x = self.train_ds.features[:CHECK_BATCH]
        y = self.train_ds.labels[:CHECK_BATCH]
        rng = np.random.default_rng((self.seed, 99))
        x_adv = np.clip(x + rng.uniform(-cfg.train_eps, cfg.train_eps, size=x.shape), 0.0, 1.0)
        model = ascl.load_model(os.path.join(cfg.output_dir, "model.ckpt"))
        weights = checks.read_checkpoint(self.checkpoints[-1])
        # the paper's leaked selection is checked even where the timed units
        # use global selection
        for strategy in sorted({cfg.strategy, "leaked"}):
            got = total_loss(Batch(x, y, x_adv), model, strategy, cfg.loss_weights(),
                             nat_ce=cfg.nat_ce, use_vat=cfg.use_vat).total.item()
            expected = checks.objective(weights, x, y, x_adv, strategy, cfg.lambda_scl,
                                        cfg.lambda_vat if cfg.use_vat else 0.0, cfg.tau)
            errors += checks.check_objective(got, expected)
        return errors


class EvalWorkload:
    """One unit is one full evaluation pass: ``evaluate`` under none, PGD-50
    and MT-PGD-50, then ``divergence_sweep`` over EPS_GRID."""

    def setup(self, seed, run_dir, prep_dir):
        self.seed = seed
        ckpt_path, data_path = prepared_paths(prep_dir)
        self.test = ascl.data.load_dataset(data_path)
        self.model = ascl.load_model(ckpt_path)
        with open(ckpt_path, "rb") as fh:
            self.weights = checks.read_checkpoint(fh.read())
        self.eval_cfg = ascl.AttackConfig(**EVAL_ATTACK)
        self.sweep_cfg = ascl.AttackConfig(**SWEEP_ATTACK)
        self.samples = len(self.test)
        self.outputs = []

    def unit(self):
        rows = ascl.evaluate(self.model, self.test, self.eval_cfg,
                             attacks=("none", "pgd", "mpgd"), seed=self.seed)
        sweep = ascl.divergence_sweep(self.model, self.test, EPS_GRID, self.sweep_cfg,
                                      seed=self.seed)
        return ({name: row.rob_acc for name, row in rows},
                [tuple(sorted(r.items())) for r in sweep])

    def keep(self, output):
        self.outputs.append(output)

    def check(self):
        model, x, y, seed = self.model, self.test.features, self.test.labels, self.seed
        errors = checks.check_identical([repr(o) for o in self.outputs], "evaluation results")
        accs = self.outputs[-1][0]
        errors += checks.check_natural_accuracy(accs["none"], self.weights, x, y)
        for cfg in (self.eval_cfg, self.sweep_cfg):
            for name, fn in (("pgd", ascl.pgd_attack), ("mpgd", ascl.multi_targeted_pgd)):
                x_adv = fn(model, x, y, cfg, seed=seed)
                errors += checks.check_in_ball(x, x_adv, cfg.epsilon, cfg.clip_range,
                                               f"{name} at eps {cfg.epsilon}")
        for name in ("pgd", "mpgd"):
            other = ascl.robust_accuracy(model, x, y, name, self.eval_cfg, seed=seed,
                                         batch_size=OTHER_BATCH_SIZE)
            errors += checks.check_batch_invariant(accs[name], other, name)
        start_cfg = ascl.AttackConfig(**START_ATTACK)
        errors += checks.check_batch_invariant(
            *(ascl.robust_accuracy(model, x, y, "pgd", start_cfg, seed=seed, batch_size=b)
              for b in (len(y), OTHER_BATCH_SIZE)), "pgd-1")
        report = divergence_report(model, x, y, self.sweep_cfg, seed=seed, batch_size=len(y))
        x_adv = ascl.pgd_attack(model, x, y, self.sweep_cfg, seed=seed)
        z, _ = checks.forward(self.weights, x)
        z_adv, _ = checks.forward(self.weights, x_adv)
        errors += checks.check_divergences(report.d_a_plus, report.d_a_minus,
                                           checks.divergences(z, z_adv, y))
        return errors


def prepare(seed, prep_dir):
    """Train the eval workload's checkpoint and write its test split."""
    cfg = run_config(seed, prep_dir, **PREP_CONFIG)
    ascl.train(cfg)
    _, test = cfg.build_datasets()
    ascl.data.save_dataset(test, prepared_paths(prep_dir)[1])


WORKLOADS = {
    "train-ascl-blobs": lambda: TrainWorkload(dict(
        dataset="blobs", data_classes=10, data_per_class=25, data_dims=16, batch_size=256,
        strategy="global", lambda_scl=1.0, lambda_vat=2.0, similarity="cosine", tau=0.07,
        train_steps=10, epochs=1, eval_every=1)),
    "train-at-moons": lambda: TrainWorkload(dict(
        dataset="moons", data_size=512, batch_size=64, lambda_scl=0.0, lambda_vat=2.0,
        train_steps=10, epochs=15, eval_every=0)),
    "eval-blobs": EvalWorkload,
}
