"""Command-line entry point.

Subcommands: train, evaluate, attack, divergence, make-data. Exit codes:
0 ok, 1 usage error, 2 runtime failure. A bad flag value is a usage
error: each subcommand builds what its flags describe before it reads or
writes a file. A malformed file, or a failure once the run is under way,
is a runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from .attacks import AttackConfig, attack_by_name, robust_accuracy
from .config import RunConfig, _parse_value, config_from_dict, parse_config_file
from .data import Dataset, load_dataset, save_dataset
from .divergence import SWEEP_COLUMNS, divergence_sweep
from .errors import ConfigError, check_seed
from .models import load_model
from .training import evaluate, train, write_csv


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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


_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))
# the fields that say which data a run draws: make-data takes exactly these
_DATA_FIELDS = tuple(n for n in _FIELDS if n == "dataset" or n.startswith("data_"))


def _add_field_args(p, names):
    """Each RunConfig field named doubles as a --key flag (dashes for underscores)."""
    for name in names:
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None)


def _run_config(args) -> RunConfig:
    base = parse_config_file(args.config) if getattr(args, "config", None) else RunConfig()
    return config_from_dict({n: _parse_value(n, getattr(args, n)) for n in _FIELDS
                             if getattr(args, n, None) is not None}, base=base)


def _attack_cfg(args, epsilon) -> AttackConfig:
    check_seed(args.seed, "seed")
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
    _add_field_args(p, _FIELDS)

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

    p = sub.add_parser("make-data", help="write the train and test splits a run draws")
    _add_field_args(p, _DATA_FIELDS)
    p.add_argument("--out", required=True, help="directory for train.ds and test.ds")
    return parser


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
        save_dataset(Dataset(x_adv, ds.labels, ds.num_classes, split=ds.split), args.out)
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
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_csv(rows, SWEEP_COLUMNS, fh)
        print(f"wrote {args.out}")
    else:
        write_csv(rows, SWEEP_COLUMNS, sys.stdout)
    return 0


def _cmd_make_data(args):
    if args.dataset not in (None, "moons", "blobs"):
        raise ConfigError(f"make-data draws moons or blobs, not {args.dataset!r}")
    cfg = _run_config(args)
    os.makedirs(args.out, exist_ok=True)
    for ds in cfg.build_datasets():
        path = os.path.join(args.out, f"{ds.split}.ds")
        save_dataset(ds, path)
        print(f"wrote {path} ({len(ds)} samples, {ds.dim} dims, {ds.num_classes} classes)")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "attack": _cmd_attack,
    "divergence": _cmd_divergence,
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
