from pathlib import Path

import numpy as np
import pytest

import ascl.attacks
from ascl.cli import build_parser, cli
from ascl.data import load_dataset, make_blobs, save_dataset
from ascl.models import MLPClassifier, ModelSpec, save_model


@pytest.fixture()
def files(tmp_path):
    ds = make_blobs(3, 20, 4, 0.1, seed=2, split="test")
    model = MLPClassifier(ModelSpec(input_dim=4, hidden_layers=(8, 6), num_classes=3), seed=2)
    data, ckpt = tmp_path / "test.ds", tmp_path / "model.ckpt"
    save_dataset(ds, data)
    save_model(model, ckpt)
    return model, ds, str(data), str(ckpt)


def test_unknown_flag_is_a_usage_error():
    assert cli(["train", "--no-such-flag", "1"]) == 1


def test_unknown_config_key_is_a_usage_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 1\nno_such_key = 3\n")
    assert cli(["train", "--config", str(path)]) == 1


def test_missing_checkpoint_is_a_runtime_failure(files, tmp_path):
    _, _, data, _ = files
    assert cli(["evaluate", "--checkpoint", str(tmp_path / "missing.ckpt"),
                "--data", data]) == 2


# the files named here do not exist: a flag value is checked before any
# file is read or written, so each command is a usage error, not exit 2
@pytest.mark.parametrize("argv", [
    ["evaluate", "--attack", "foo"],
    ["evaluate", "--eps", "-1"],
    ["evaluate", "--steps", "3", "--eta", "0"],
    ["attack", "--eps", "-1"],
    ["divergence", "--eps-grid", "0,x"],
    ["divergence", "--eps-grid", "0,-0.1"],
    ["selection-stats", "--batch-size", "1"],
    ["selection-stats", "--classes", "0"],
    ["selection-stats", "--trials", "0"],
    ["selection-stats", "--seed", "-1"],
    ["make-data", "--kind", "moons", "--size", "1"],
    ["make-data", "--kind", "blobs", "--classes", "0"],
    # sweep is not a subcommand: its former flag cases are usage errors too
    ["sweep", "--lambda-scl-grid", "x"],
    ["sweep", "--lambda-vat-grid=-1"],
    ["sweep", "--strategies", "foo"],
    # NaN fails every range check, and a negative count or seed is rejected
    ["train", "--lambda-scl", "nan"],
    ["train", "--lambda-vat", "nan"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "-1"],
    ["train", "--lr", "0"],
    ["train", "--schedule", "0:-0.5"],
    # the epoch-0 rate is --lr; a schedule lists later changes only
    ["train", "--schedule", "0:0.001"],
    ["train", "--train-steps", "-2"],
    ["train", "--train-eps", "nan"],
    ["train", "--eval-eps", "nan"],
    ["train", "--seed", "-1"],
    ["train", "--data-seed", "-1"],
    ["train", "--data-size", "1"],
    ["train", "--data-noise", "-1"],
    ["train", "--dataset", "blobs", "--data-classes", "0"],
    ["train", "--dataset", "blobs", "--data-spread", "-1"],
    ["evaluate", "--steps", "-3"],
    ["evaluate", "--eps", "nan"],
    ["evaluate", "--seed", "-1"],
    ["attack", "--eps", "nan"],
    ["divergence", "--eps-grid", "0,nan"],
    # an attack seed part must fit the random start's 64-bit key
    ["train", "--seed", str(2**64)],
    ["train", "--data-seed", str(2**64)],
    ["evaluate", "--seed", str(2**64)],
    ["attack", "--seed", str(2**64)],
    ["divergence", "--eps-grid", "0,0.1", "--seed", str(2**64)],
], ids=" ".join)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv):
    missing = ["--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(tmp_path / "d.ds")]
    extra = {"evaluate": missing, "attack": missing, "divergence": missing,
             "make-data": ["--out", str(tmp_path / "out.ds")],
             "train": ["--output-dir", str(tmp_path / "runs"), "--epochs", "1"]}
    assert cli(argv + extra.get(argv[0], [])) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_malformed_dataset_file_is_a_runtime_failure(files, tmp_path, command):
    _, _, _, ckpt = files
    bad = tmp_path / "bad.ds"
    bad.write_bytes(b"not a dataset")
    run = tmp_path / "run"
    argv = {"train": ["train", "--dataset", str(bad), "--epochs", "1", "--output-dir", str(run)],
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--data", str(bad)]}[command]
    assert cli(argv) == 2
    assert not run.exists()


def test_nan_feature_in_a_dataset_file_is_a_runtime_failure(files, tmp_path, capsys):
    _, _, data, ckpt = files
    blob = bytearray(Path(data).read_bytes())
    # the first feature of the first record follows the 21-byte header
    blob[21:29] = np.float64(np.nan).tobytes()
    bad = tmp_path / "nan.ds"
    bad.write_bytes(bytes(blob))
    assert cli(["evaluate", "--checkpoint", ckpt, "--data", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: FormatError: ")


@pytest.mark.parametrize("command,extra,eps,steps", [
    ("evaluate", [], 0.05, 50),
    ("attack", [], 0.05, 50),
    ("divergence", ["--eps-grid", "0,0.05"], None, 10),
])
def test_attack_flag_defaults(command, extra, eps, steps):
    args = build_parser().parse_args([command, "--checkpoint", "m", "--data", "d"] + extra)
    assert getattr(args, "eps", None) == eps
    assert (args.eta, args.steps, args.seed, args.no_random_init) == (0.0125, steps, 0, False)


@pytest.mark.parametrize("attack,fn", [("pgd", "pgd_attack"), ("mpgd", "multi_targeted_pgd")])
def test_attack_scores_each_sample_once(files, tmp_path, monkeypatch, capsys, attack, fn):
    model, ds, data, ckpt = files
    attacked = []
    real = getattr(ascl.attacks, fn)

    def counting(model, x, *args, **kwargs):
        attacked.append(len(x))
        return real(model, x, *args, **kwargs)

    monkeypatch.setattr(ascl.attacks, fn, counting)
    out = tmp_path / "adv.ds"
    assert cli(["attack", "--checkpoint", ckpt, "--data", data, "--attack", attack,
                "--steps", "5", "--out", str(out)]) == 0
    assert sum(attacked) == len(ds)
    printed = capsys.readouterr().out.split("rob_acc=")[1].split()[0]
    adv = load_dataset(out)
    preds = np.argmax(model.forward(adv.features).data, axis=1)
    assert printed == f"{(preds == adv.labels).mean():.4f}"


@pytest.mark.parametrize("strategy,pos,neg", [
    ("global", "26.24", "100.76"), ("hard", "26.24", "20.13"),
    ("soft", "26.24", "20.11"), ("leaked", "6.06", "20.11"),
])
def test_selection_stats_output_is_pinned(capsys, strategy, pos, neg):
    assert cli(["selection-stats", "--strategy", strategy, "--trials", "200",
                "--batch-size", "64", "--classes", "5", "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        f"strategy={strategy} trials=200 mean_pos={pos} mean_neg={neg}\n")
