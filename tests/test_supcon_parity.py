"""The vectorised ``supcon_batch`` against the per-anchor loop in
``supcon_loop``: the loss and every gradient agree to 1e-12 relative."""

import numpy as np
import pytest

import ascl.losses
from ascl.data import Batch
from ascl.losses import STRATEGIES, LossWeights, selection_masks, supcon_batch, total_loss
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from supcon_loop import supcon_batch_loop

# the default temperature and values either side of it: 1/tau scales every
# logit of the masked log-sum-exp
TAUS = (0.07, 0.2, 1.0, 5.0)
REL = 1e-12


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want)) if want.size else 0.0
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale


def pool_value_and_grad(fn, pool, masks, weights):
    t = Tensor(pool)
    loss = fn(t, *masks, weights)
    return loss.item(), loss.backward((t,))[0]


def check_pool_case(pool, labels, preds, strategy, tau):
    w = LossWeights(tau=tau)
    masks = selection_masks(strategy, labels, preds)
    got, got_grad = pool_value_and_grad(supcon_batch, pool, masks, w)
    want, want_grad = pool_value_and_grad(supcon_batch_loop, pool, masks, w)
    assert abs(got - want) <= REL * abs(want)
    assert_close(got_grad, want_grad)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_random_pools(strategy, tau):
    rng = np.random.default_rng((STRATEGIES.index(strategy), TAUS.index(tau)))
    for _ in range(4):
        n, c = int(rng.integers(2, 10)), int(rng.integers(2, 4))
        labels = rng.integers(0, c, size=n)
        preds = rng.integers(0, c, size=2 * n)
        check_pool_case(rng.normal(size=(2 * n, 5)), labels, preds, strategy, tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_degenerate_batches(strategy, tau):
    rng = np.random.default_rng(7)
    # one sample: both sets empty, so the loss is identically zero; the
    # loop's gradient is zero up to rounding, the vectorised one exactly
    pool = rng.normal(size=(2, 3))
    masks = selection_masks(strategy, [1], [1, 0])
    w = LossWeights(tau=tau)
    got, got_grad = pool_value_and_grad(supcon_batch, pool, masks, w)
    want, want_grad = pool_value_and_grad(supcon_batch_loop, pool, masks, w)
    assert got == want == 0.0
    assert np.all(got_grad == 0.0) and np.max(np.abs(want_grad)) <= 1e-12
    # one class: no negatives under any strategy
    labels = np.zeros(5, dtype=np.intp)
    preds = rng.integers(0, 2, size=10)
    check_pool_case(rng.normal(size=(10, 3)), labels, preds, strategy, tau)
    # predictions equal to the labels: hard, soft and leaked keep no negatives
    labels = np.array([0, 1, 2, 0, 1, 2])
    check_pool_case(rng.normal(size=(12, 3)), labels, np.tile(labels, 2), strategy, tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_total_loss_parameter_gradients(strategy, tau, monkeypatch):
    rng = np.random.default_rng(11)
    spec = ModelSpec(input_dim=3, hidden_layers=(6, 5), num_classes=3,
                     projection="two_layer", projection_dim=4, projection_mid=7)
    x = rng.uniform(0.1, 0.9, size=(9, 3))
    batch = Batch(x, rng.integers(0, 3, size=9),
                  np.clip(x + rng.uniform(-0.05, 0.05, size=x.shape), 0, 1))

    def run():
        model = MLPClassifier(spec, seed=11)
        bd = total_loss(batch, model, strategy, LossWeights(tau=tau))
        return bd.total.item(), bd.total.backward(model.parameters)

    got, got_grads = run()
    monkeypatch.setattr(ascl.losses, "supcon_batch", supcon_batch_loop)
    want, want_grads = run()
    assert abs(got - want) <= REL * abs(want)
    for g, h in zip(got_grads, want_grads):
        assert_close(g, h)


def test_zero_latent_row_is_defined():
    # slot 0 is all zero: its cosine similarity to every slot is 0
    pool = np.array([[0.0, 0.0], [1.0, 2.0], [0.5, -1.0], [2.0, 0.1]])
    t = Tensor(pool)
    w = LossWeights()
    loss = supcon_batch(t, *selection_masks("global", [0, 1]), w)
    assert np.all(np.isfinite(loss.backward((t,))[0]))
    norms = np.linalg.norm(pool, axis=1)
    s = np.zeros((4, 4))
    s[1:, 1:] = pool[1:] @ pool[1:].T / np.outer(norms[1:], norms[1:]) / w.tau
    # (anchor, partner, denominator); labels differ, so no positives
    rows = [(0, 2, [2, 1, 3]), (2, 0, [0, 1, 3]), (1, 3, [3, 0, 2]), (3, 1, [1, 0, 2])]
    expected = sum(np.log(np.exp(s[a, den]).sum()) - s[a, p] for a, p, den in rows) / 2
    assert loss.item() == pytest.approx(expected, rel=1e-12)
