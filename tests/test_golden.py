"""Golden outputs of three seeded runs, pinned by sha256.

A change that keeps behaviour must keep every hash below: the checkpoint,
the metrics CSV without its wall-time column, the ``final`` block of
``summary.json``, the ``evaluate`` rows and the ``ascl divergence`` CSV
over a grid that includes epsilon 0.

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
from ascl.cli import cli
from ascl.data import save_dataset

_COMMON = dict(hidden_layers=(8, 8), epochs=4, lr=1e-2, train_steps=3, eval_steps=5,
               eval_every=1, seed=3)
CONFIGS = {
    "at_moons": dict(dataset="moons", data_size=100, batch_size=25, lambda_scl=0.0,
                     lambda_vat=0.0),
    "leaked_cosine": dict(dataset="blobs", data_classes=3, data_per_class=15, data_dims=4,
                          batch_size=15, strategy="leaked", similarity="cosine"),
    "hard_lp2_linear": dict(dataset="blobs", data_classes=3, data_per_class=15, data_dims=4,
                            batch_size=15, strategy="hard", similarity="lp:2",
                            projection="linear", projection_dim=6),
}
EVAL_ATTACK = dict(epsilon=0.08, eta=0.02, steps=5)

GOLDEN = {
    "at_moons": {
        "checkpoint": "5ae7d6b5379ec36b59fe1a05b82cd0c8baa5c6fa2ecbe5a2738c1bdb8b9e4512",
        "metrics": "620106df1c9f611e137cfa6a8f696b0d01fa1eeb1b8f6f416c35a0c0b931dce3",
        "final": "bb3c4ecb21824c46a1026638ef77316355993dcdd274af66ed08fe85577c4136",
        "evaluate": "339a8831ad6bd215887515ac9753c9dd50c5f70ec1ff17dcd141d952365d6052",
        "divergence": "26e4b5163fa012199624b10d897fcf7bc072bd66a76b1e7263ecd2962b7782f1",
    },
    "hard_lp2_linear": {
        "checkpoint": "6b9fae02ee16360c109977c3539cd18cdba06f77ade9ee966204a5ec37d70c70",
        "metrics": "9c6a00c1ea57d9121d0b636b29a50431582d1db0d45105f5c190410f5cd1cc59",
        "final": "3148def108b21a01b65ab3c1d1bbd48843a1215ebf633f8954921495147df2e3",
        "evaluate": "0bdb1213ef809ee5b53beb88b917397d807cc236c54d828f202e4a8386290d7f",
        "divergence": "21de835f538fdabbca90af906b5027ecb11822f98fc59c589ccd465343665615",
    },
    "leaked_cosine": {
        "checkpoint": "51d77b981ee29aa62a1cabb951481825f25c01d607adeaa48edc88d28dd75a5d",
        "metrics": "927caff98163353a40bc006c7db0dd4f3fa1011e8ac1a1b8050cdcd10273f804",
        "final": "c92b3d627d5b357946b5ab401fa6764c604f8df341c0b07d9561bb18da61c149",
        "evaluate": "78a39f060fcc309aeaf476fbbf7230c24fe75dfbb24fb19acb0b90b36da7b39c",
        "divergence": "7a0e0203c0c8c6a966d6ec4edd10306a179713c730b805730df217e44257fbac",
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
    rows = ascl.evaluate(result.model, test, ascl.AttackConfig(**EVAL_ATTACK),
                         attacks=("none", "pgd", "mpgd"), seed=3)
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
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_hashes(name, tmp_path):
    assert _golden_hashes(name, tmp_path) == GOLDEN[name]
