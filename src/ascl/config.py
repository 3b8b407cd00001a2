"""Run configuration: one flat dataclass whose field names double as the
config-file keys, plus the ``key = value`` file parser."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .attacks import AttackConfig
from .data import check_blobs, check_moons, load_dataset, make_blobs, make_two_moons
from .errors import ConfigError, ContractError
from .losses import STRATEGIES, LossWeights
from .models import ModelSpec

__all__ = ["RunConfig", "parse_config_file", "config_from_dict"]


@dataclass
class RunConfig:
    # dataset: "moons", "blobs", or a dataset file path
    dataset: str = "moons"
    dataset_test: str = ""
    data_size: int = 200
    data_noise: float = 0.10
    data_classes: int = 10
    data_per_class: int = 20
    data_dims: int = 16
    data_spread: float = 0.08
    data_seed: int = 1

    hidden_layers: tuple = (32, 32)
    projection: str = "identity"
    projection_dim: int = 128
    projection_mid: int = 200

    strategy: str = "global"
    lambda_scl: float = 1.0
    lambda_vat: float = 2.0
    tau: float = 0.07
    similarity: str = "cosine"
    nat_ce: bool = True
    use_vat: bool = True

    train_eps: float = 0.05
    train_eta: float = 0.0125
    train_steps: int = 10
    eval_eps: float = 0.05
    eval_eta: float = 0.0125
    eval_steps: int = 250

    # lr is the epoch-0 rate; schedule lists later (epoch, rate) changes
    lr: float = 1e-3
    schedule: tuple = ()

    epochs: int = 30
    batch_size: int = 64
    seed: int = 0
    output_dir: str = "runs/run0"
    eval_every: int = 1

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2 (selection needs other samples)")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be nonnegative")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        self.schedule = tuple((int(e), float(v)) for e, v in self.schedule)
        epochs = [e for e, _ in self.schedule]
        if epochs and epochs[0] < 1:
            raise ConfigError("schedule lists changes from epoch 1 on; set the epoch-0 "
                              "rate with lr (--lr)")
        if any(a >= b for a, b in zip(epochs, epochs[1:])):
            raise ConfigError("schedule epochs must strictly increase")
        rates = (self.lr, *(v for _, v in self.schedule))
        if not all(math.isfinite(v) and v > 0 for v in rates):
            raise ConfigError("lr and schedule rates must be finite and positive")
        if not (0 <= self.seed < 2**64 and 0 <= self.data_seed < 2**64):
            raise ConfigError("seed and data_seed must lie in [0, 2**64)")
        self.hidden_layers = tuple(int(w) for w in self.hidden_layers)
        # LossWeights, AttackConfig and the generators own these checks;
        # running them here rejects a bad value before a run writes anything
        try:
            self.loss_weights()
            self.train_attack()
            self.eval_attack()
            if self.dataset == "moons":
                check_moons(self.data_size, self.data_noise)
            elif self.dataset == "blobs":
                check_blobs(self.data_classes, self.data_per_class, self.data_dims,
                            self.data_spread)
        except ContractError as e:
            raise ConfigError(str(e)) from e

    # -- derived objects ---------------------------------------------------

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda_scl=self.lambda_scl, lambda_vat=self.lambda_vat,
                           tau=self.tau, similarity=self.similarity)

    def train_attack(self) -> AttackConfig:
        return AttackConfig(epsilon=self.train_eps, eta=self.train_eta, steps=self.train_steps)

    def eval_attack(self) -> AttackConfig:
        return AttackConfig(epsilon=self.eval_eps, eta=self.eval_eta, steps=self.eval_steps)

    def model_spec(self, input_dim, num_classes) -> ModelSpec:
        return ModelSpec(input_dim=input_dim, hidden_layers=self.hidden_layers,
                         num_classes=num_classes, projection=self.projection,
                         projection_dim=self.projection_dim,
                         projection_mid=self.projection_mid)

    def build_datasets(self):
        if self.dataset == "moons":
            train = make_two_moons(self.data_size, self.data_noise, self.data_seed,
                                   split="train")
            test = make_two_moons(self.data_size, self.data_noise, self.data_seed + 1,
                                  split="test")
        elif self.dataset == "blobs":
            train = make_blobs(self.data_classes, self.data_per_class, self.data_dims,
                               self.data_spread, self.data_seed, split="train")
            test = make_blobs(self.data_classes, self.data_per_class, self.data_dims,
                              self.data_spread, self.data_seed + 1, split="test")
        else:
            train = load_dataset(self.dataset)
            test = load_dataset(self.dataset_test) if self.dataset_test else train
        return train, test

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_layers"] = list(self.hidden_layers)
        d["schedule"] = [list(s) for s in self.schedule]
        return d


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _parse_bool(v, key):
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} expects true/false, got {v!r}")


def _parse_value(key, raw):
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    try:
        if key == "schedule":
            if not raw:
                return ()
            pairs = []
            for part in raw.split(","):
                epoch, _, lr = part.partition(":")
                if not lr:
                    raise ConfigError(f"schedule entries are epoch:lr, got {part!r}")
                pairs.append((int(epoch), float(lr)))
            return tuple(pairs)
        if key == "hidden_layers":
            return tuple(int(v) for v in raw.split(",")) if raw else ()
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _parse_bool(raw, key)
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e
    return raw


def config_from_dict(values: dict, base: RunConfig | None = None) -> RunConfig:
    unknown = set(values) - set(_FIELD_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return dataclasses.replace(base or RunConfig(), **values)


def parse_config_file(path, base: RunConfig | None = None) -> RunConfig:
    """Read UTF-8 ``key = value`` lines; ``#`` starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, raw = line.partition("=")
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    return config_from_dict(values, base=base)
