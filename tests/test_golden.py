"""Golden outputs of three seeded runs, pinned by sha256.

A change that keeps behaviour must keep every hash below: the checkpoint,
the metrics CSV without its wall-time column, the ``final`` block of
``summary.json``, the ``evaluate`` rows, the ``ascl divergence`` CSV
over a grid that includes epsilon 0, and the attacked test inputs that
PGD and multi-targeted PGD return. The ``evaluate`` rows hold
accuracies only, so the ``attacks`` pin is what sees a change in the
attacks that flips no prediction.

The hashes belong to the numpy and BLAS build they were recorded with
(numpy 2.4.6, scipy-openblas 0.3.31, x86-64). Another build may sum in
another order and change the last bits, and with them every hash; there,
record the hashes again from a commit known to be good before comparing.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

import ascl
from ascl.attacks import multi_targeted_pgd, pgd_attack
from ascl.cli import cli
from ascl.data import save_dataset

_COMMON = dict(hidden_layers=(8, 8), epochs=4, lr=1e-2, train_steps=3, eval_steps=5,
               eval_every=1, seed=3)
CONFIGS = {
    "at_moons": dict(dataset="moons", data_size=100, batch_size=25, lambda_scl=0.0,
                     lambda_vat=0.0),
    "leaked_cosine": dict(dataset="blobs", data_classes=3, data_per_class=15, data_dims=4,
                          batch_size=15, strategy="leaked", similarity="cosine"),
    "hard_cosine_linear": dict(dataset="blobs", data_classes=3, data_per_class=15, data_dims=4,
                               batch_size=15, strategy="hard", projection="linear",
                               projection_dim=6),
}
EVAL_ATTACK = dict(epsilon=0.08, eta=0.02, steps=5)

GOLDEN = {
    "at_moons": {
        "checkpoint": "898d9d12d1f189838c16ac47456073cf7a0306b3c3a060e747e17817b208aaa7",
        "metrics": "e68fe67a93928357f94046f96b369c50489bde483f3251945d3241cb97c42a7d",
        "final": "c72911addf71136fd5b85f91685e4101226d8f8c44978e1b228abe20d78c305d",
        "evaluate": "339a8831ad6bd215887515ac9753c9dd50c5f70ec1ff17dcd141d952365d6052",
        "divergence": "da33f9cb1f8f1744173966d3b164d7aed704986aaa998332c19d1dba08cd12fe",
        "attacks": "2b61fd2cfc157c996f94a60664559dab6a503cceb88bfbeae0c3a54dccabc544",
    },
    "hard_cosine_linear": {
        "checkpoint": "99f41c6fa512b13d408c7e786411e45e18ae2275ac2ad1027f1a794d133c875c",
        "metrics": "68aa771664afa6c22e94ca1849f6775053e63dd8c1439f6ec76cc8c2b33d164f",
        "final": "74879caf42fe7a37e46654d62c1d575d4f6892c5670c9cb94919b6c85aec3cec",
        "evaluate": "b1466577916363ca4ab5f999cceec441f7f3b8e45fa2369e770dd45926e9d24c",
        "divergence": "4c2d83ffe3771fa669225428896d82fe7885890741392fb22d77a0aa8f692b6f",
        "attacks": "bf132b8bac503793314272a941761818165b34da0388242cf858f934a5000bd9",
    },
    "leaked_cosine": {
        "checkpoint": "34c5d2af4c1990570aba955237fedf5767942b6328cb60045fd9a334d66ed178",
        "metrics": "7c1dcd1bb9b951b267b42ae82cfc8413d43e98ee33ef7912639cd6cfcd4b3a08",
        "final": "74879caf42fe7a37e46654d62c1d575d4f6892c5670c9cb94919b6c85aec3cec",
        "evaluate": "ff9ab01c67db72a2ed44edd0df2e30a8a69f5990f6fe553f694ec7d52f0627df",
        "divergence": "28628f971205e0918847c6ee7efa016ebc68def507331a09e861c4e69327a3aa",
        "attacks": "f23f1f7a470f74d700741f56aaa3ed85a2a12e5a5e8e6898e524186475ed4410",
    },
}


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _metrics_without_wall_time(path) -> str:
    schema, body = Path(path).read_text().split("\n", 1)
    rows = list(csv.reader(io.StringIO(body)))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_time_s"]
    return "\n".join([schema] + [",".join(row[i] for i in keep) for row in rows])


def _golden_hashes(name, tmp_path):
    cfg = ascl.RunConfig(output_dir=str(tmp_path / "run"), **_COMMON, **CONFIGS[name])
    result = ascl.train(cfg)
    _, test = cfg.build_datasets()
    eval_cfg = ascl.AttackConfig(**EVAL_ATTACK)
    rows = ascl.evaluate(result.model, test, eval_cfg, attacks=("none", "pgd", "mpgd"), seed=3)
    attacked = b"".join(fn(result.model, test.features, test.labels, eval_cfg, seed=3).tobytes()
                        for fn in (pgd_attack, multi_targeted_pgd))
    data_path = tmp_path / "test.ds"
    save_dataset(test, data_path)
    csv_path = tmp_path / "divergence.csv"
    assert cli(["divergence", "--checkpoint", result.checkpoint_path,
                "--data", str(data_path), "--eps-grid", "0,0.03,0.06",
                "--steps", "3", "--seed", "3", "--out", str(csv_path)]) == 0
    return {
        "checkpoint": _sha(Path(result.checkpoint_path).read_bytes()),
        "metrics": _sha(_metrics_without_wall_time(result.metrics_path)),
        "final": _sha(json.dumps(result.summary["final"], sort_keys=True)),
        "evaluate": _sha(repr([(a, r.nat_acc, r.rob_acc) for a, r in rows])),
        "divergence": _sha(csv_path.read_bytes()),
        "attacks": _sha(attacked),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_hashes(name, tmp_path):
    assert _golden_hashes(name, tmp_path) == GOLDEN[name]
