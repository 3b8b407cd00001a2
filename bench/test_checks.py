"""Each output check accepts the program's answer and rejects a wrong one.

    PYTHONPATH=src:bench python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent)]

import ascl  # noqa: E402
from ascl.data import Batch  # noqa: E402
from ascl.divergence import divergence_report  # noqa: E402
from ascl.losses import LossWeights, total_loss  # noqa: E402

import checks  # noqa: E402

N, D, C = 24, 5, 3
EPS = 0.05


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    spec = ascl.ModelSpec(input_dim=D, hidden_layers=(8, 6), num_classes=C)
    model = ascl.MLPClassifier(spec, seed=3)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    ascl.save_model(model, path)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, size=(N, D))
    y = rng.permutation(np.arange(N) % C)
    x_adv = np.clip(x + rng.uniform(-EPS, EPS, size=x.shape), 0.0, 1.0)
    return model, checks.read_checkpoint(path.read_bytes()), x, y, x_adv


def test_read_checkpoint_matches_the_model(setup):
    model, weights, x, _, _ = setup
    z, logits = checks.forward(weights, x)
    assert np.array_equal(logits, model.forward(x).data)
    assert np.array_equal(z, model.encode(x).data)


@pytest.mark.parametrize("strategy", ["global", "leaked"])
def test_objective_accepts_total_loss_and_rejects_wrong_values(setup, strategy):
    model, weights, x, y, x_adv = setup
    got = total_loss(Batch(x, y, x_adv), model, strategy,
                     LossWeights(lambda_scl=1.0, lambda_vat=2.0, tau=0.07)).total.item()
    expected = checks.objective(weights, x, y, x_adv, strategy, 1.0, 2.0, 0.07)
    assert checks.check_objective(got, expected) == []
    assert checks.check_objective(got * (1 + 1e-7), expected)
    # a wrong selection, weight or temperature gives a different objective
    other = "global" if strategy == "leaked" else "leaked"
    for wrong in (checks.objective(weights, x, y, x_adv, other, 1.0, 2.0, 0.07),
                  checks.objective(weights, x, y, x_adv, strategy, 1.0, 1.0, 0.07),
                  checks.objective(weights, x, y, x_adv, strategy, 1.0, 2.0, 0.1)):
        assert checks.check_objective(got, wrong)


def test_leaked_masks_follow_predictions():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 1, 1, 0])
    pos, neg = checks.selection_masks("leaked", labels, preds, preds)
    # anchor 0 (predicted 0): its same-label partner 1 is predicted 1, so no
    # positive; sample 3 has another label but is predicted 0, so a negative
    assert not pos[0].any()
    assert np.flatnonzero(neg[0]).tolist() == [3, 7]
    gpos, gneg = checks.selection_masks("global", labels, preds, preds)
    assert np.flatnonzero(gpos[0]).tolist() == [1, 5]
    assert np.flatnonzero(gneg[0]).tolist() == [2, 3, 6, 7]


def test_identical_rejects_a_changed_checkpoint():
    assert checks.check_identical([b"ab", b"ab", b"ab"], "checkpoints") == []
    assert checks.check_identical([b"ab", b"ab", b"ac"], "checkpoints")


def test_in_ball_rejects_outputs_outside_epsilon_or_clip(setup):
    model, _, x, y, _ = setup
    cfg = ascl.AttackConfig(epsilon=EPS, eta=0.02, steps=5)
    for fn in (ascl.pgd_attack, ascl.multi_targeted_pgd):
        x_adv = fn(model, x, y, cfg, seed=1)
        assert checks.check_in_ball(x, x_adv, EPS, (0.0, 1.0), "attack") == []
    too_far = x.copy()
    too_far[3, 2] += 1.01 * EPS
    assert checks.check_in_ball(x, too_far, EPS, (0.0, 1.0), "attack")
    outside = x.copy()
    outside[0, 0] = -1e-9
    assert checks.check_in_ball(x, outside, 1.0, (0.0, 1.0), "attack")


def test_natural_accuracy_rejects_a_wrong_count(setup):
    model, weights, x, y, _ = setup
    got = ascl.robust_accuracy(model, x, y, "none", ascl.AttackConfig())
    assert checks.check_natural_accuracy(got, weights, x, y) == []
    assert checks.check_natural_accuracy(got + 1 / N, weights, x, y)


def test_batch_invariance_rejects_differing_accuracies(setup):
    model, _, x, y, _ = setup
    cfg = ascl.AttackConfig(epsilon=EPS, eta=0.02, steps=5)
    a = ascl.robust_accuracy(model, x, y, "pgd", cfg, seed=2, batch_size=N)
    b = ascl.robust_accuracy(model, x, y, "pgd", cfg, seed=2, batch_size=7)
    assert checks.check_batch_invariant(a, b, "pgd") == []
    assert checks.check_batch_invariant(a, a + 1 / N, "pgd")


def test_divergences_reject_the_batch_averaged_report(setup):
    model, weights, x, y, _ = setup
    cfg = ascl.AttackConfig(epsilon=EPS, eta=0.02, steps=5)
    x_adv = ascl.pgd_attack(model, x, y, cfg, seed=4)
    expected = checks.divergences(checks.forward(weights, x)[0],
                                  checks.forward(weights, x_adv)[0], y)
    whole = divergence_report(model, x, y, cfg, seed=4, batch_size=N)
    assert checks.check_divergences(whole.d_a_plus, whole.d_a_minus, expected) == []
    halves = divergence_report(model, x, y, cfg, seed=4, batch_size=N // 2)
    assert checks.check_divergences(halves.d_a_plus, halves.d_a_minus, expected)
