"""``Tensor.backward`` against the reference walk in ``backward_walk.py``:
bitwise-equal gradients and no more VJP calls, counted per node, on the
training step's graphs and on a cross-entropy graph through the ``encode``
and ``classify`` nodes."""

from collections import Counter

import numpy as np
import pytest

from ascl.data import Batch
from ascl.losses import STRATEGIES, LossWeights, total_loss
from ascl.models import PROJECTION_KINDS, MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from backward_walk import backward_walk
from mlp_graph import cross_entropy, sum_
from vjp_spy import spy_on_vjps

# which terms of the objective are in the graph, as the run config's nat_ce
# and use_vat flags select them; "adv_scl" leaves the natural logits out
TERMS = {"all": dict(), "adv_scl": dict(nat_ce=False, use_vat=False)}
GRAPHS = ["input_gradient"] + [f"total_loss-{strategy}-{terms}-{projection}"
                               for strategy in STRATEGIES for terms in TERMS
                               for projection in PROJECTION_KINDS]
REQUESTS = ["x", "params", "both", "latent"]


def _graph(name):
    """Root, model, the encoder's input tensor and its output: for
    ``total_loss``, the natural and adversarial views stacked."""
    kind, *rest = name.split("-")
    strategy, terms, projection = rest or (None, None, "identity")
    model = MLPClassifier(ModelSpec(input_dim=5, hidden_layers=(7, 6), num_classes=3,
                                    projection=projection, projection_dim=4,
                                    projection_mid=5), seed=4)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 0.9, size=(8, 5))
    y = rng.integers(0, 3, size=8)
    x_adv = x + rng.uniform(-0.05, 0.05, size=x.shape)
    seen = []
    encode = model.encode
    model.encode = lambda v: seen.append(Tensor(v)) or seen.append(encode(seen[-1])) or seen[-1]
    if kind == "input_gradient":
        root = sum_(cross_entropy(model.forward(x), y))
    else:
        weights = LossWeights(lambda_scl=1.0, lambda_vat=2.0, tau=0.5)
        root = total_loss(Batch(x, y, x_adv), model, strategy, weights, **TERMS[terms]).total
    return root, model, *seen


def _requested(name, request):
    root, model, xt, latent = _graph(name)
    inputs = {"x": [xt], "params": model.parameters, "both": [xt, *model.parameters],
              "latent": [latent]}[request]
    return root, inputs


def _leading(root, inputs):
    """The ids of the requested inputs and of every node under ``root`` that leads to one."""
    ids, done = {id(t) for t in inputs}, set()

    def visit(t):
        if id(t) not in done:
            done.add(id(t))
            for p in t._parents:
                visit(p)
            if any(id(p) in ids for p in t._parents):
                ids.add(id(t))

    visit(root)
    return ids


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("request_", REQUESTS)
@pytest.mark.parametrize("name", GRAPHS)
def test_equals_the_reference_walk_bitwise(name, request_):
    root, inputs = _requested(name, request_)
    want = backward_walk(root, inputs)
    got = root.backward(inputs)
    assert all(g is not None for g in want)
    assert len(got) == len(want)
    assert all(_bitwise_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("request_", REQUESTS)
@pytest.mark.parametrize("name", GRAPHS)
def test_makes_no_more_vjp_calls_than_the_reference_walk(name, request_):
    root, inputs = _requested(name, request_)
    calls = spy_on_vjps(root, [])
    backward_walk(root, inputs)
    want = Counter(map(id, calls))
    calls.clear()
    root.backward(inputs)
    got = Counter(map(id, calls))
    assert got <= want
    # each node once, and none that leads to no requested input
    assert set(got.values()) == {1}
    leads = _leading(root, inputs)
    assert all(any(id(p) in leads for p in node._parents) for node in calls)
