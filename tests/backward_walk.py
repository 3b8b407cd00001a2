"""Reference implementation of ``Tensor.backward``.

One depth-first walk over every node under the root, leaves included,
gives a post-order (the last parent of a node first) and marks each node
that leads to a requested input. A second loop visits that order in
reverse, skips leaves, calls the VJP of each node that has a gradient, and
accumulates the shares of its marked parents. It is the plain form of the
walk, so the tests use it as the oracle that ``Tensor.backward`` must equal
bit for bit, and make no more VJP calls than.
"""

import numpy as np

from ascl.errors import ContractError


def backward_walk(root, inputs):
    """d(root)/d(t) for each ``t`` in ``inputs``, as a list; ``None`` for one
    the root does not reach."""
    if root.data.ndim != 0:
        raise ContractError(f"backward() root must be scalar, got shape {root.shape}")
    requested = {id(t) for t in inputs}
    wanted = set(requested)

    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            # parents come first in ``order``, so their marks are final
            if any(id(p) in wanted for p in node._parents):
                wanted.add(id(node))
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(root): np.ones((), dtype=np.float64)}
    for node in reversed(order):
        # a node's gradient is complete here; keep only the requested ones
        g = grads.get(id(node)) if id(node) in requested else grads.pop(id(node), None)
        if g is None or node._vjp is None:
            continue
        for parent, d in zip(node._parents, node._vjp(g)):
            if id(parent) in wanted:
                grads[id(parent)] = grads[id(parent)] + d if id(parent) in grads else d
    return [grads.get(id(t)) for t in inputs]
