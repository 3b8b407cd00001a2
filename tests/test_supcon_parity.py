"""The ``supcon_batch`` node against two oracles, the per-anchor loop in
``supcon_loop`` and the op-by-op composition in ``supcon_graph``: the loss
and every gradient agree to 1e-12 relative."""

import numpy as np
import pytest

import ascl.losses
from ascl.data import Batch
from ascl.losses import STRATEGIES, LossWeights, selection_masks, supcon_batch, total_loss
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from supcon_graph import supcon_batch_composed
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


def check_composition_case(pool, labels, preds, strategy, tau):
    w = LossWeights(tau=tau)
    masks = selection_masks(strategy, labels, preds)
    got, got_grad = pool_value_and_grad(supcon_batch, pool, masks, w)
    want, want_grad = pool_value_and_grad(supcon_batch_composed, pool, masks, w)
    assert abs(got - want) <= REL * abs(want)
    assert_close(got_grad, want_grad)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_node_matches_composition(strategy, tau):
    rng = np.random.default_rng((4, STRATEGIES.index(strategy), TAUS.index(tau)))
    for trial in range(6):
        n, c, h = int(rng.integers(2, 12)), int(rng.integers(2, 4)), int(rng.integers(2, 9))
        pool = rng.normal(size=(2 * n, h))
        # every other trial zeroes some rows, as dead ReLU latents would
        if trial % 2:
            pool[rng.random(2 * n) < 0.3] = 0.0
        check_composition_case(pool, rng.integers(0, c, size=n), rng.integers(0, c, size=2 * n),
                               strategy, tau)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_node_matches_composition_on_degenerate_batches(strategy, tau):
    rng = np.random.default_rng(9)
    # one class: no negatives under any strategy
    labels = np.zeros(6, dtype=np.intp)
    preds = rng.integers(0, 2, size=12)
    check_composition_case(rng.normal(size=(12, 3)), labels, preds, strategy, tau)
    # one class and an all-zero pool: every similarity is 0
    check_composition_case(np.zeros((12, 3)), labels, preds, strategy, tau)
    # an all-zero natural half beside a nonzero adversarial half
    pool = rng.normal(size=(12, 4))
    pool[:6] = 0.0
    check_composition_case(pool, rng.integers(0, 3, size=6), preds, strategy, tau)
    # width 1: every similarity is +-1, so the gradient is zero; the node's
    # exactly, the composition's up to rounding
    pool = rng.normal(size=(12, 1))
    masks = selection_masks(strategy, rng.integers(0, 3, size=6), preds)
    w = LossWeights(tau=tau)
    got, got_grad = pool_value_and_grad(supcon_batch, pool, masks, w)
    want, want_grad = pool_value_and_grad(supcon_batch_composed, pool, masks, w)
    assert abs(got - want) <= REL * abs(want)
    assert np.all(got_grad == 0.0) and np.max(np.abs(want_grad)) <= 1e-12


def test_node_builds_one_tensor(monkeypatch):
    rng = np.random.default_rng(13)
    pool = Tensor(rng.normal(size=(16, 5)))
    masks = selection_masks("leaked", rng.integers(0, 3, size=8), rng.integers(0, 3, size=16))
    built = []
    init = Tensor.__init__
    monkeypatch.setattr(Tensor, "__init__", lambda self, data: built.append(self) or init(self, data))
    loss = supcon_batch(pool, *masks, LossWeights())
    assert built == [loss]
    assert loss._parents == (pool,)
