import dataclasses

import pytest

from ascl.cli import cli
from ascl.config import RunConfig, parse_config_file
from ascl.errors import ConfigError

NON_DEFAULT = RunConfig(dataset="blobs", data_classes=4, data_dims=6, hidden_layers=(16, 8, 4),
                        projection="two_layer", strategy="leaked", lambda_scl=0.5, tau=0.1,
                        similarity="lp:2", nat_ce=False, use_vat=False, train_eps=0.03,
                        eval_steps=20, lr=0.1, schedule=((5, 0.01), (8, 0.001)),
                        epochs=9, batch_size=32, seed=7, output_dir="runs/other",
                        eval_every=3)
REMOVED = {"augment_flip": "true", "augment_shift": "0.1", "image_shape": "4,4",
           "epoch_eval_steps": "3", "optimizer": "sgd", "momentum": "0.9",
           "weight_decay": "5e-4", "train_random_init": "false", "eval_random_init": "false"}


def _format(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(":".join(map(repr, v)) if isinstance(v, tuple) else repr(v)
                        for v in value)
    return str(value)


def test_config_file_parses_back_equal(tmp_path):
    lines = ["# a run written out key by key", ""]
    for f in dataclasses.fields(RunConfig):
        lines += [f"{f.name} = {_format(getattr(NON_DEFAULT, f.name))}  # {f.name}", ""]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    parsed = parse_config_file(path)
    assert parsed == NON_DEFAULT
    assert (parsed.lr, parsed.schedule) == (0.1, ((5, 0.01), (8, 0.001)))
    assert parsed.hidden_layers == (16, 8, 4)


def test_bad_bool_is_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("nat_ce = maybe\n")
    with pytest.raises(ConfigError, match="nat_ce expects true/false"):
        parse_config_file(path)
    assert cli(["train", "--config", str(path), "--epochs", "0",
                "--output-dir", str(tmp_path / "run")]) == 1
    assert cli(["train", "--use-vat", "maybe", "--epochs", "0",
                "--output-dir", str(tmp_path / "run")]) == 1


@pytest.mark.parametrize("schedule,match", [
    (((0, 1e-3),), "--lr"), (((-1, 1e-3),), "--lr"),
    (((3, 1e-3), (3, 1e-4)), "strictly increase"), (((3, 1e-3), (2, 1e-4)), "strictly increase"),
])
def test_schedule_lists_only_later_strictly_increasing_epochs(schedule, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(schedule=schedule)


@pytest.mark.parametrize("key", sorted(REMOVED))
def test_removed_keys_are_usage_errors(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"epochs = 0\n{key} = {REMOVED[key]}\n")
    out = ["--output-dir", str(tmp_path / "run")]
    assert cli(["train", "--config", str(path)] + out) == 1
    flag = "--" + key.replace("_", "-")
    assert cli(["train", "--epochs", "0", flag, REMOVED[key]] + out) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag,value", [
    ("--hidden-layers", "8,x"), ("--schedule", "0:abc"), ("--eval-eps", "-1"), ("--tau", "0"),
    ("--similarity", "foo"), ("--similarity", "lp:x"), ("--lambda-scl", "-1"),
    ("--train-eps", "-1"), ("--eval-every", "-1"),
])
def test_malformed_values_are_usage_errors(tmp_path, flag, value):
    out = ["--output-dir", str(tmp_path / "run")]
    assert cli(["train", flag, value, "--epochs", "0"] + out) == 1
    path = tmp_path / "run.cfg"
    path.write_text(f"epochs = 0\n{flag[2:].replace('-', '_')} = {value}\n")
    assert cli(["train", "--config", str(path)] + out) == 1
    assert not (tmp_path / "run").exists()
