import csv
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
    ["make-data", "--data-size", "1"],
    ["make-data", "--dataset", "blobs", "--data-classes", "0"],
    # make-data draws a generator's splits; a dataset file is not one
    ["make-data", "--dataset", "d.ds"],
    # sweep and selection-stats are not subcommands: their former flag
    # cases are usage errors too
    ["sweep", "--lambda-scl-grid", "x"],
    ["sweep", "--lambda-vat-grid=-1"],
    ["sweep", "--strategies", "foo"],
    ["selection-stats", "--batch-size", "1"],
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
    # an infinite step turns a zero gradient entry into NaN
    ["train", "--train-eta", "inf"],
    ["train", "--eval-eta", "inf"],
    ["train", "--seed", "-1"],
    ["train", "--data-seed", "-1"],
    ["train", "--data-size", "1"],
    ["train", "--data-noise", "-1"],
    ["train", "--dataset", "blobs", "--data-classes", "0"],
    ["train", "--dataset", "blobs", "--data-spread", "-1"],
    # an infinite noise or spread squashes to NaN features
    ["train", "--data-noise", "inf"],
    ["train", "--data-noise", "nan"],
    ["train", "--dataset", "blobs", "--data-spread", "inf"],
    ["train", "--dataset", "blobs", "--data-spread", "nan"],
    ["make-data", "--data-noise", "inf"],
    ["make-data", "--dataset", "blobs", "--data-spread", "inf"],
    ["evaluate", "--steps", "-3"],
    ["evaluate", "--eps", "nan"],
    ["evaluate", "--steps", "3", "--eta", "inf"],
    ["evaluate", "--seed", "-1"],
    ["attack", "--eps", "nan"],
    ["divergence", "--eps-grid", "0,nan"],
    # an attack seed part must fit the random start's 64-bit key
    ["train", "--seed", str(2**64)],
    ["train", "--data-seed", str(2**64)],
    # a dataset file with no test file would be evaluated on itself
    ["train", "--dataset", "d.ds"],
    ["evaluate", "--seed", str(2**64)],
    ["attack", "--seed", str(2**64)],
    ["divergence", "--eps-grid", "0,0.1", "--seed", str(2**64)],
], ids=" ".join)
def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv):
    missing = ["--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(tmp_path / "d.ds")]
    extra = {"evaluate": missing, "attack": missing, "divergence": missing,
             "make-data": ["--out", str(tmp_path / "data")],
             "train": ["--output-dir", str(tmp_path / "runs"), "--epochs", "1"]}
    assert cli(argv + extra.get(argv[0], [])) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_malformed_dataset_file_is_a_runtime_failure(files, tmp_path, command):
    _, _, data, ckpt = files
    bad = tmp_path / "bad.ds"
    bad.write_bytes(b"not a dataset")
    run = tmp_path / "run"
    argv = {"train": ["train", "--dataset", str(bad), "--dataset-test", data, "--epochs", "1",
                      "--output-dir", str(run)],
            "evaluate": ["evaluate", "--checkpoint", ckpt, "--data", str(bad)]}[command]
    assert cli(argv) == 2
    assert not run.exists()


def test_training_on_a_test_split_file_is_a_usage_error(files, tmp_path, capsys):
    _, _, data, _ = files
    run = tmp_path / "run"
    assert cli(["train", "--dataset", data, "--dataset-test", data, "--epochs", "1",
                "--output-dir", str(run)]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
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


def test_nan_weight_in_a_checkpoint_is_a_runtime_failure(files, tmp_path, capsys):
    _, _, data, ckpt = files
    blob = bytearray(Path(ckpt).read_bytes())
    # the classifier bias is the last array of the file
    blob[-8:] = np.float64(np.nan).tobytes()
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(bytes(blob))
    assert cli(["evaluate", "--checkpoint", str(bad), "--data", data, "--attack", "none,pgd"]) == 2
    assert capsys.readouterr().err.startswith("error: FormatError: non-finite weight at byte ")


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


def _flags(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {s for a in sub.choices[command]._actions for s in a.option_strings} - {"-h", "--help"}


def test_make_data_takes_exactly_the_data_flags_of_train():
    data = {f for f in _flags("train") if f == "--dataset" or f.startswith("--data-")}
    assert "--data-seed" in data and "--dataset-test" not in data
    assert _flags("make-data") == data | {"--out"}


def _metrics_rows(run):
    lines = (run / "metrics.csv").read_text().splitlines()[1:]  # after the schema line
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in csv.DictReader(lines)]


@pytest.mark.parametrize("data", [
    ["--dataset", "moons", "--data-size", "40", "--data-noise", "0.2", "--data-seed", "5"],
    ["--dataset", "blobs", "--data-classes", "3", "--data-per-class", "12", "--data-dims", "4",
     "--data-spread", "0.3", "--data-seed", "5"],
], ids=lambda argv: argv[1])
def test_make_data_writes_the_splits_train_draws(tmp_path, data):
    out = tmp_path / "data"
    assert cli(["make-data", *data, "--out", str(out)]) == 0
    run = ["train", "--epochs", "2", "--batch-size", "16", "--hidden-layers", "8",
           "--train-steps", "2", "--eval-steps", "3", "--seed", "3"]
    assert cli([*run, *data, "--output-dir", str(tmp_path / "drawn")]) == 0
    assert cli([*run, "--dataset", str(out / "train.ds"), "--dataset-test", str(out / "test.ds"),
                "--output-dir", str(tmp_path / "read")]) == 0
    drawn, read = tmp_path / "drawn", tmp_path / "read"
    assert (drawn / "model.ckpt").read_bytes() == (read / "model.ckpt").read_bytes()
    rows = _metrics_rows(read)
    assert len(rows) == 4 and _metrics_rows(drawn) == rows
    assert [load_dataset(out / f"{s}.ds").split for s in ("train", "test")] == ["train", "test"]


def _train_rows(tmp_path, strategy):
    run = tmp_path / strategy
    assert cli(["train", "--strategy", strategy, "--dataset", "blobs", "--data-classes", "3",
                "--data-per-class", "12", "--data-dims", "4", "--data-spread", "0.2",
                "--epochs", "2", "--lr", "0.02", "--batch-size", "12", "--hidden-layers", "8",
                "--train-steps", "2", "--eval-steps", "3", "--output-dir", str(run)]) == 0
    rows = _metrics_rows(run)
    assert [r["split"] for r in rows] == ["train", "test"] * 2
    assert all(r["mean_pos"] == r["mean_neg"] == "" for r in rows[1::2])
    return [(float(r["mean_pos"]), float(r["mean_neg"])) for r in rows[::2]]


# the counts `ascl selection-stats` printed for random labels are a run's
# own in every train row: 3 batches of 12 per epoch, so 2 * 12 - 1 slots
@pytest.mark.parametrize("strategy", ["global", "hard", "soft", "leaked"])
def test_train_rows_report_the_selection_counts(tmp_path, strategy):
    counts = _train_rows(tmp_path, strategy)
    full = counts if strategy == "global" else _train_rows(tmp_path, "global")
    for (pos, neg), (full_pos, full_neg) in zip(counts, full):
        assert 1.0 <= pos <= full_pos and 0.0 <= neg <= full_neg
        assert full_pos + full_neg == pytest.approx(23.0)
        if strategy in ("hard", "soft"):  # these keep every positive
            assert pos == full_pos
    if strategy != "global":  # each filtered strategy drops negatives, leaked positives too
        assert sum(neg for _, neg in counts) < sum(neg for _, neg in full)
        fewer_pos = sum(pos for pos, _ in counts) < sum(pos for pos, _ in full)
        assert fewer_pos == (strategy == "leaked")
