"""Command-line entry point.

Subcommands: train, evaluate, attack, divergence, selection-stats, sweep,
make-data. Exit codes: 0 ok, 1 usage error, 2 runtime failure. A bad flag
value is a usage error: each subcommand builds what its flags describe
before it reads or writes a file. A malformed file, or a failure once the
run is under way, is a runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import sys

import numpy as np

from .attacks import AttackConfig, attack_by_name, robust_accuracy
from .config import RunConfig, _parse_value, config_from_dict, parse_config_file
from .data import Dataset, load_dataset, make_blobs, make_two_moons, save_dataset
from .divergence import SWEEP_COLUMNS as DIVERGENCE_COLUMNS
from .divergence import divergence_sweep
from .errors import ConfigError
from .losses import STRATEGIES, selection_stats
from .models import load_model
from .training import SWEEP_COLUMNS, evaluate, sweep, train, write_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_run_overrides(p):
    # every RunConfig key doubles as a --key flag (dashes for underscores)
    for f in dataclasses.fields(RunConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, default=None)


def _add_attack_args(p, steps, eps=True):
    """Flags shared by the subcommands that attack a saved checkpoint."""
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset file")
    if eps:
        p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.0125)
    p.add_argument("--steps", type=int, default=steps)
    p.add_argument("--no-random-init", action="store_true")
    p.add_argument("--seed", type=int, default=0)


def _run_config(args) -> RunConfig:
    base = parse_config_file(args.config) if args.config else RunConfig()
    overrides = {}
    for f in dataclasses.fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = _parse_value(f.name, v)
    return config_from_dict(overrides, base=base)


def _attack_cfg(args, epsilon) -> AttackConfig:
    if not 0 <= args.seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")
    return AttackConfig(epsilon=epsilon, eta=args.eta, steps=args.steps,
                        random_init=not args.no_random_init)


@contextlib.contextmanager
def _flag_values():
    """A ValueError (ContractError too) while building from flags is a usage error."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from e


def build_parser():
    parser = _Parser(prog="ascl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config and/or flags")
    p.add_argument("--config", default=None)
    _add_run_overrides(p)

    p = sub.add_parser("evaluate", help="robust accuracy of a checkpoint under attacks")
    _add_attack_args(p, steps=50)
    p.add_argument("--attack", default="pgd", help="comma list from none,pgd,mpgd")

    p = sub.add_parser("attack", help="attack a dataset, report accuracy, optionally save it")
    _add_attack_args(p, steps=50)
    p.add_argument("--attack", default="pgd", choices=("pgd", "mpgd"))
    p.add_argument("--out", default=None, help="write attacked features as a dataset file")

    p = sub.add_parser("divergence", help="divergence/accuracy table over an epsilon grid")
    _add_attack_args(p, steps=10, eps=False)
    p.add_argument("--eps-grid", required=True, help="comma list, e.g. 0,0.02,0.05")
    p.add_argument("--out", default=None, help="csv path (default stdout)")

    p = sub.add_parser("selection-stats", help="mean positive/negative counts per strategy")
    p.add_argument("--strategy", default="global", choices=STRATEGIES)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sweep", help="grid of runs over strategy and loss weights")
    p.add_argument("--config", default=None)
    p.add_argument("--strategies", default="global")
    p.add_argument("--lambda-scl-grid", default="1")
    p.add_argument("--lambda-vat-grid", default="2")
    p.add_argument("--sweep-epochs", type=int, default=None)
    p.add_argument("--out", default=None, help="summary csv path (default stdout)")
    _add_run_overrides(p)

    p = sub.add_parser("make-data", help="generate and save a synthetic dataset")
    p.add_argument("--kind", required=True, choices=("blobs", "moons"))
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train", choices=("train", "test"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--spread", type=float, default=0.08)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.1)
    return parser


def _emit_csv(rows, columns, out):
    """Write the rows to the ``--out`` path, or to stdout without one."""
    if out:
        with open(out, "w", newline="") as fh:
            write_csv(rows, columns, fh)
        print(f"wrote {out}")
    else:
        write_csv(rows, columns, sys.stdout)


def _cmd_train(args):
    result = train(_run_config(args), quiet=False)
    final = result.summary["final"]
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"metrics: {result.metrics_path}")
    print(f"nat_acc={final['nat_acc']:.4f}"
          + (f" rob_acc={final['rob_acc']:.4f}" if final["rob_acc"] is not None else ""))
    return 0


def _cmd_evaluate(args):
    with _flag_values():
        cfg = _attack_cfg(args, args.eps)
        attacks = tuple(a.strip() for a in args.attack.split(","))
        for name in attacks:
            attack_by_name(name)
    model = load_model(args.checkpoint)
    ds = load_dataset(args.data)
    rows = evaluate(model, ds, cfg, attacks=attacks, seed=args.seed)
    for name, row in rows:
        print(f"attack={name} nat_acc={row.nat_acc:.4f} rob_acc={row.rob_acc:.4f}")
    return 0


def _cmd_attack(args):
    with _flag_values():
        cfg = _attack_cfg(args, args.eps)
        fn = attack_by_name(args.attack)
    model = load_model(args.checkpoint)
    ds = load_dataset(args.data)
    x_adv = fn(model, ds.features, ds.labels, cfg, seed=args.seed)
    acc = robust_accuracy(model, x_adv, ds.labels, "none", cfg)
    print(f"attack={args.attack} eps={cfg.epsilon:g} rob_acc={acc:.4f}")
    if args.out:
        save_dataset(Dataset(x_adv, ds.labels, ds.num_classes,
                             name=ds.name + "_adv", split=ds.split), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_divergence(args):
    with _flag_values():
        grid = [float(v) for v in args.eps_grid.split(",")]
        # divergence_sweep replaces base's epsilon per row; check every grid value
        for eps in grid:
            base = _attack_cfg(args, eps)
    model = load_model(args.checkpoint)
    ds = load_dataset(args.data)
    rows = divergence_sweep(model, ds, grid, base, seed=args.seed)
    _emit_csv(rows, DIVERGENCE_COLUMNS, args.out)
    return 0


def _cmd_selection_stats(args):
    if args.trials < 1 or args.batch_size < 2 or args.classes < 1 or args.seed < 0:
        raise ConfigError("selection-stats needs --trials >= 1, --batch-size >= 2, "
                          "--classes >= 1 and --seed >= 0")
    rng = np.random.default_rng(args.seed)
    pos, neg = [], []
    for _ in range(args.trials):
        labels = rng.integers(0, args.classes, size=args.batch_size)
        preds = None
        if args.strategy != "global":
            preds = rng.integers(0, args.classes, size=2 * args.batch_size)
        p, n = selection_stats(args.strategy, labels, preds)
        pos.append(p)
        neg.append(n)
    print(f"strategy={args.strategy} trials={args.trials} "
          f"mean_pos={np.mean(pos):.2f} mean_neg={np.mean(neg):.2f}")
    return 0


def _cmd_sweep(args):
    cfg = _run_config(args)
    with _flag_values():
        strategies = [s.strip() for s in args.strategies.split(",")]
        scl_grid = [float(v) for v in args.lambda_scl_grid.split(",")]
        vat_grid = [float(v) for v in args.lambda_vat_grid.split(",")]
        for s, a, b in itertools.product(strategies, scl_grid, vat_grid):
            dataclasses.replace(cfg, strategy=s, lambda_scl=a, lambda_vat=b)
    rows = sweep(cfg, strategies, scl_grid, vat_grid, epochs=args.sweep_epochs)
    _emit_csv(rows, SWEEP_COLUMNS, args.out)
    return 0


def _cmd_make_data(args):
    with _flag_values():
        if args.kind == "blobs":
            ds = make_blobs(args.classes, args.per_class, args.dims, args.spread,
                            args.seed, split=args.split)
        else:
            ds = make_two_moons(args.size, args.noise, args.seed, split=args.split)
    save_dataset(ds, args.out)
    print(f"wrote {args.out} ({len(ds)} samples, {ds.dim} dims, {ds.num_classes} classes)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "attack": _cmd_attack,
    "divergence": _cmd_divergence,
    "selection-stats": _cmd_selection_stats,
    "sweep": _cmd_sweep,
    "make-data": _cmd_make_data,
}


def cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
