"""The training step's coarse nodes against their op-by-op compositions in
``mlp_graph``: ``encode``, ``classify`` and ``project`` bit for bit on one
batch, toward the input, the latent and every parameter; the ``at_loss`` and
``vat_loss`` nodes and the stacked objective's parameter gradients within
``REL`` relative to the largest gradient entry, since one stacked matmul over
both views sums in another order than two matmuls and an add; every VJP under
the objective handing each parent exactly the parent's shape, and every leaf
under it a parameter; and the AT and KL VJPs against central differences of
their own values."""

import numpy as np
import pytest

import mlp_graph
from ascl.data import Batch
from ascl.errors import ContractError
from ascl.losses import STRATEGIES, LossWeights, at_loss, total_loss, vat_loss
from ascl.models import PROJECTION_KINDS, MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from mlp_graph import add, mul, sum_
from test_tensor import fd_gradient
from vjp_spy import nodes_under

# float64 rounding over sums of a few hundred terms, with margin; the
# largest gap measured over 720 random cases was 6.2e-14
REL = 1e-12
# which terms of the objective are in the graph: ``total_loss`` flags, and
# loss weights that differ from (lambda_scl, lambda_vat) = (1, 2)
TERMS = {"all": dict(), "adv_scl": dict(nat_ce=False, use_vat=False),
         "no_nat": dict(nat_ce=False), "no_scl": dict(lambda_scl=0.0),
         "at_only": dict(lambda_scl=0.0, lambda_vat=0.0)}


def _terms(name, tau):
    """The loss weights and the ``total_loss`` flags of a ``TERMS`` entry."""
    flags = dict(TERMS[name])
    weights = LossWeights(lambda_scl=flags.pop("lambda_scl", 1.0),
                          lambda_vat=flags.pop("lambda_vat", 2.0), tau=tau)
    return weights, flags


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_close(got, want, scale):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale


def _one_view(encode, classify, project, model, x, weights, proj_weights):
    """Logits and projections, then the gradients of
    ``sum_(logits * weights) + sum_(project(z) * proj_weights)`` toward the
    input, the latent and every parameter."""
    xt = Tensor(x)
    z = encode(xt)
    logits, proj = classify(z), project(z)
    root = add(sum_(mul(logits, Tensor(weights))), sum_(mul(proj, Tensor(proj_weights))))
    return [logits.data, proj.data] + root.backward([xt, z, *model.parameters])


@pytest.mark.parametrize("projection", PROJECTION_KINDS)
@pytest.mark.parametrize("hidden,classes", [((7, 6), 3), ((8,), 2), ((5, 4, 3), 4)])
@pytest.mark.parametrize("n", [9, 1])
def test_encode_classify_and_project_equal_the_composition_bitwise(hidden, classes, n,
                                                                    projection):
    model = MLPClassifier(ModelSpec(input_dim=5, hidden_layers=hidden, num_classes=classes,
                                    projection=projection, projection_dim=4,
                                    projection_mid=6), seed=len(hidden))
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, 5))
    # a zero row has pre-activation exactly 0 in every layer (biases start at 0),
    # and in the two-layer head's first product
    x[0] = 0.0
    # mixed signs, including both zeros, reach every branch of the relu VJPs
    weights = rng.normal(size=(n, classes))
    weights.flat[:2] = [0.0, -0.0]
    proj_weights = rng.normal(size=(n, hidden[-1] if projection == "identity" else 4))
    proj_weights.flat[:2] = [-0.0, 0.0]
    got = _one_view(model.encode, model.classify, model.project, model, x, weights,
                    proj_weights)
    want = _one_view(lambda v: mlp_graph.encode(model, v), lambda z: mlp_graph.classify(model, z),
                     lambda z: mlp_graph.project(model, z), model, x, weights, proj_weights)
    assert all(g is not None for g in want)
    assert all(_bitwise_equal(a, b) for a, b in zip(got, want))


def _model_and_batch(seed, projection="identity"):
    rng = np.random.default_rng(seed)
    n, c, d = int(rng.integers(2, 30)), int(rng.integers(2, 6)), int(rng.integers(1, 8))
    model = MLPClassifier(ModelSpec(input_dim=d, hidden_layers=(9, 7), num_classes=c,
                                    projection=projection, projection_dim=4, projection_mid=5),
                          seed=seed)
    x = rng.uniform(size=(n, d))
    x_adv = np.clip(x + rng.uniform(-0.1, 0.1, size=x.shape), 0.0, 1.0)
    return model, Batch(x, rng.integers(0, c, size=n), x_adv)


@pytest.mark.parametrize("terms", sorted(TERMS))
@pytest.mark.parametrize("projection", PROJECTION_KINDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stacked_objective_matches_the_two_view_composition(strategy, projection, terms):
    for seed in range(3):
        model, batch = _model_and_batch(seed, projection)
        w, flags = _terms(terms, (0.07, 0.5, 1.0)[seed])
        got = total_loss(batch, model, strategy, w, **flags)
        want = mlp_graph.total_loss(batch, model, strategy, w, **flags)
        # every VJP hands each parent exactly the parent's shape
        for node in nodes_under(got.total):
            if node._parents:
                shares = node._vjp(np.ones(node.shape))
                assert isinstance(shares, tuple) and len(shares) == len(node._parents)
                assert [np.shape(d) for d in shares] == [p.shape for p in node._parents]
        for field in ("at", "scl", "vat", "mean_pos", "mean_neg"):
            a, b = getattr(got, field), getattr(want, field)
            assert abs(a - b) <= REL * abs(b)
        got_grads = got.total.backward(model.parameters)
        want_grads = want.total.backward(model.parameters)
        scale = max(np.abs(g).max() for g in want_grads if g is not None)
        for a, b in zip(got_grads, want_grads):
            assert (a is None) == (b is None)
            if a is not None:
                _assert_close(a, b, scale)


@pytest.mark.parametrize("terms", sorted(TERMS))
@pytest.mark.parametrize("projection", PROJECTION_KINDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_objective_leaves_are_parameters(strategy, projection, terms):
    # from array inputs, every leaf is a parameter, so a backward toward the
    # parameters computes no share that it then drops
    model, batch = _model_and_batch(0, projection)
    w, flags = _terms(terms, 0.5)
    total = total_loss(batch, model, strategy, w, **flags).total
    params = {id(p) for p in model.parameters}
    assert all(id(p) in params for node in nodes_under(total) for p in node._parents
               if not p._parents)


def _logits(rng, n, c):
    """Stacked (2n, c) logits; one natural and one adversarial row underflow
    softmax entries to exactly 0."""
    z = rng.normal(scale=3.0, size=(2 * n, c))
    z[n - 1, 0], z[-1, -1] = 800.0, -800.0
    return z


def _case(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 12)), int(rng.integers(2, 6))
    return _logits(rng, n, c), rng.integers(0, c, size=n), rng.uniform(0.1, 3.0)


def _value_and_grad(build, z, lam):
    """Value of ``build`` on stacked logits ``z`` and the gradient of ``lam`` times it."""
    t = Tensor(z)
    loss = build(t)
    return loss.item(), mul(loss, lam).backward((t,))[0]


def _composed_value_and_grad(build, z, lam):
    """The same for a composition over the natural and adversarial halves."""
    n = z.shape[0] // 2
    nat, adv = Tensor(z[:n]), Tensor(z[n:])
    loss = build(nat, adv)
    grads = mul(loss, lam).backward((nat, adv))
    return loss.item(), np.concatenate([np.zeros((n, z.shape[1])) if g is None else g
                                        for g in grads])


@pytest.mark.parametrize("nat_ce", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_at_node_matches_its_composition(seed, nat_ce):
    z, y, lam = _case(seed)
    got, got_g = _value_and_grad(lambda t: at_loss(t, y, nat_ce=nat_ce), z, lam)
    want, want_g = _composed_value_and_grad(
        lambda a, b: mlp_graph.at_loss(a, b, y, nat_ce=nat_ce), z, lam)
    assert abs(got - want) <= REL * abs(want)
    _assert_close(got_g, want_g, np.abs(want_g).max())
    if not nat_ce:
        assert not got_g[:len(y)].any()


@pytest.mark.parametrize("seed", range(8))
def test_kl_node_matches_its_composition(seed):
    z, _, lam = _case(seed)
    got, got_g = _value_and_grad(vat_loss, z, lam)
    want, want_g = _composed_value_and_grad(mlp_graph.vat_loss, z, lam)
    assert abs(got - want) <= REL * abs(want)
    _assert_close(got_g, want_g, np.abs(want_g).max())


def _fd_case(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 6)), int(rng.integers(2, 5))
    return rng.normal(size=(2 * n, c)), rng.integers(0, c, size=n), rng.uniform(0.1, 3.0)


@pytest.mark.parametrize("nat_ce", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_at_vjp_vs_central_differences(seed, nat_ce):
    z, y, lam = _fd_case(seed)
    _, g = _value_and_grad(lambda t: at_loss(t, y, nat_ce=nat_ce), z, lam)
    fd = fd_gradient(lambda v: lam * at_loss(Tensor(v), y, nat_ce=nat_ce).item(), z)
    assert np.abs(g - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("seed", range(4))
def test_kl_vjp_vs_central_differences(seed):
    z, _, lam = _fd_case(seed)
    _, g = _value_and_grad(vat_loss, z, lam)
    fd = fd_gradient(lambda v: lam * vat_loss(Tensor(v)).item(), z)
    assert np.abs(g - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("labels,rows,match", [
    ([0, 2], 4, "labels must lie"), ([0, -1], 4, "labels must lie"),
    ([0, 0.5], 4, "labels must be integers"),
    ([0, 1, 1], 4, r"labels of shape \(3,\) do not match 2 samples"),
    ([0, 1], 5, r"stacked \(2N, C\)"),
])
def test_at_loss_contracts(labels, rows, match):
    with pytest.raises(ContractError, match=match):
        at_loss(Tensor(np.zeros((rows, 2))), labels)


def test_vat_loss_needs_stacked_logits():
    with pytest.raises(ContractError, match=r"stacked \(2N, C\)"):
        vat_loss(Tensor(np.zeros((3, 2))))


def test_one_backprop_pass_per_gradient(monkeypatch):
    # every parameter of the encoder gets its gradient from one walk down the stack
    calls = []
    real = MLPClassifier._hidden_backprop

    def counting(self, g, acts, params=False):
        calls.append(params)
        return real(self, g, acts, params)

    monkeypatch.setattr(MLPClassifier, "_hidden_backprop", counting)
    model, batch = _model_and_batch(0)
    root = total_loss(batch, model, "leaked", LossWeights()).total
    root.backward(model.parameters)
    assert calls == [True]
    root.backward(model.parameters)
    assert calls == [True, True]
    model.input_gradient(batch.x, batch.y)
    assert calls == [True, True, False]
