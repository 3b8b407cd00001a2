import dataclasses
import json

import numpy as np
import pytest

from ascl.cli import cli
from ascl.config import RunConfig, parse_config_file
from ascl.data import save_dataset
from ascl.errors import ConfigError

NON_DEFAULT = RunConfig(dataset="blobs", data_classes=4, data_dims=6, hidden_layers=(16, 8, 4),
                        projection="two_layer", strategy="leaked", lambda_scl=0.5, tau=0.1,
                        similarity="cosine", nat_ce=False, use_vat=False, train_eps=0.03,
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
    (((1.5, 1e-2),), "schedule epochs must be positive integers, got 1.5"),
    (((True, 1e-2),), "schedule epochs must be positive integers, got True"),
    ((("2", 1e-2),), "schedule epochs must be positive integers, got '2'"),
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
    ("--similarity", "foo"), ("--similarity", "lp:x"), ("--similarity", "lp:2"),
    ("--lambda-scl", "-1"), ("--lambda-scl", "inf"), ("--lambda-vat", "inf"), ("--tau", "inf"),
    ("--train-eps", "-1"), ("--eval-every", "-1"),
])
def test_malformed_values_are_usage_errors(tmp_path, flag, value):
    out = ["--output-dir", str(tmp_path / "run")]
    assert cli(["train", flag, value, "--epochs", "0"] + out) == 1
    path = tmp_path / "run.cfg"
    path.write_text(f"epochs = 0\n{flag[2:].replace('-', '_')} = {value}\n")
    assert cli(["train", "--config", str(path)] + out) == 1
    assert not (tmp_path / "run").exists()


def test_similarity_is_cosine_only():
    RunConfig(similarity="cosine")
    with pytest.raises(ConfigError, match="similarity must be 'cosine'"):
        RunConfig(similarity="dot")


def test_dataset_file_needs_a_test_file():
    with pytest.raises(ConfigError, match="dataset_test"):
        RunConfig(dataset="train.ds")


def test_training_file_must_hold_a_train_split(tmp_path):
    def save(name, split, classes=3, dims=2):
        train, test = RunConfig(dataset="blobs", data_classes=classes, data_per_class=4,
                                data_dims=dims).build_datasets()
        save_dataset(train if split == "train" else test, tmp_path / name)
        return str(tmp_path / name)

    train, test = save("train.ds", "train"), save("test.ds", "test")
    ok = RunConfig(dataset=train, dataset_test=test)
    assert [ds.split for ds in ok.build_datasets()] == ["train", "test"]
    # the test file must hold a test split of the training file's width and classes;
    # each mismatch is caught before training, so the run writes nothing
    run = tmp_path / "run"
    for data, data_test, match in [
            (test, train, "not a train split"), (train, train, "not a test split"),
            (save("wide.ds", "train", dims=4), test, "4 features and 3 classes"),
            (train, save("five.ds", "test", classes=5), "2 features and 3 classes")]:
        with pytest.raises(ConfigError, match=match):
            RunConfig(dataset=data, dataset_test=data_test).build_datasets()
        assert cli(["train", "--dataset", data, "--dataset-test", data_test, "--epochs", "1",
                    "--output-dir", str(run)]) == 1
        assert not run.exists()


# counts may be zero; sizes may not
COUNTS = ("epochs", "train_steps", "eval_steps", "seed", "data_seed", "eval_every")


@pytest.mark.parametrize("edit", [
    dict(hidden_layers=(2.7, True)), dict(hidden_layers=(8, np.float64(8))),
    dict(hidden_layers=("8",)), dict(dataset="blobs", data_dims=2.5),
    dict(data_size=200.0), dict(data_classes=np.bool_(True)), dict(data_per_class=0),
    dict(projection_dim=3.5), dict(projection_mid=-1), dict(batch_size=64.0),
    dict(epochs=1.5), dict(epochs=-1), dict(train_steps=2.5), dict(eval_steps=2.5),
    dict(eval_steps="3"), dict(seed=1.5), dict(seed=np.float64(3)), dict(data_seed=1.5),
    dict(eval_every=True), dict(eval_every=-1),
])
def test_sizes_and_counts_must_be_integers(edit):
    name = next(iter(edit.keys() - {"dataset"}))
    kind = "nonnegative" if name in COUNTS else "positive"
    with pytest.raises(ConfigError, match=f"{name} must be {kind} integers"):
        RunConfig(**edit)


@pytest.mark.parametrize("edit,match", [
    (dict(nat_ce="no"), "nat_ce must be True or False, got 'no'"),
    (dict(use_vat=0), "use_vat must be True or False, got 0"),
    (dict(use_vat=np.bool_(True)), "use_vat must be True or False"),
    (dict(lr=True), "lr must be a real number, got True"),
    (dict(lr="0.1"), "lr must be a real number, got '0.1'"),
    (dict(schedule=((2, True),)), "schedule rates must be a real number, got True"),
    (dict(schedule=((2, "0.5"),)), "schedule rates must be a real number, got '0.5'"),
    (dict(train_eps=True), "epsilon must be a real number"),
    (dict(eval_eta="0.01"), "eta must be a real number"),
    (dict(tau=True), "temperature must be a real number"),
    (dict(lambda_scl=True), "loss weights must be a real number"),
    (dict(data_noise=True), "noise must be a real number"),
    (dict(dataset="blobs", data_spread="0.1"), "blob spread must be a real number"),
])
def test_bool_and_real_fields_take_only_their_kind(edit, match):
    with pytest.raises(ConfigError, match=match):
        RunConfig(**edit)


@pytest.mark.parametrize("edit,match", [
    (dict(dataset="blobs", data_noise="x"), "data_noise must be a real number, got 'x'"),
    (dict(dataset="blobs", data_noise=float("nan")), "data_noise must be finite and nonneg"),
    (dict(dataset="moons", data_spread=True), "data_spread must be a real number, got True"),
    (dict(dataset="moons", data_spread=-1.0), "data_spread must be finite and nonnegative"),
])
def test_dataset_fields_are_checked_for_every_dataset(edit, match):
    # both fields are written to the run config, used or not
    with pytest.raises(ConfigError, match=match):
        RunConfig(**edit)


def test_numpy_integer_sizes_become_ints():
    cfg = RunConfig(hidden_layers=np.array([16, 8]), data_dims=np.int64(6),
                    batch_size=np.int32(32), epochs=np.int64(0), seed=np.uint64(2**64 - 1))
    assert cfg.hidden_layers == (16, 8) and (cfg.data_dims, cfg.batch_size) == (6, 32)
    assert all(type(v) is int for v in (*cfg.hidden_layers, cfg.data_dims, cfg.batch_size,
                                        cfg.epochs, cfg.seed))
    assert json.loads(json.dumps(cfg.to_dict()))["hidden_layers"] == [16, 8]
