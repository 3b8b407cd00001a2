"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a leaf, ``Tensor(data)``, a node, ``Tensor._make(data,
parents, vjp)``, and one walk, ``root.backward(inputs)``. A node holds its
forward value and one vector-Jacobian product (VJP): a map from the node's
gradient to a tuple of shares, one per parent, each of exactly that
parent's shape. ``backward`` on a scalar root walks the graph once in
reverse topological order, calls once the VJP of each node that leads to a
requested input, sums the shares a tensor gets, and returns d(root)/d(input)
for each of ``inputs``; the request alone says what is differentiated. No
tensor keeps gradient state, so a graph can be walked again.

The nodes are the training step's: ``MLPClassifier.encode``, ``classify``
and ``project``, which round like their affine-and-relu compositions on one
batch; ``losses.at_loss``, ``vat_loss`` and ``supcon_batch``, which do not,
so the tests hold them to theirs by a tolerance; and the weighted sum of
those terms in ``losses.total_loss``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["Tensor"]


class Tensor:
    """A float64 array plus graph linkage."""

    __slots__ = ("data", "_parents", "_vjp")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    @staticmethod
    def _make(data, parents, vjp):
        """A node whose ``vjp`` maps its gradient to a tuple of ``parents``' shares."""
        out = Tensor(data)
        out._parents = parents
        out._vjp = vjp
        return out

    def backward(self, inputs):
        """d(root)/d(t) for each ``t`` in ``inputs``, as a list; ``None`` for
        one the root does not reach. One walk over the interior nodes; only the
        VJPs of nodes that lead to an input run, once each. The root must be a scalar; any
        tensor may be an input. Returned arrays may alias one another: do not write to them.
        """
        if self.data.ndim != 0:
            raise ContractError(f"backward() root must be scalar, got shape {self.shape}")
        # a Tensor hashes and compares by identity, so it is its own key
        requested = set(inputs)
        wanted = set(requested)

        # post-order, the last parent first: it fixes how shared nodes sum
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                # parents come first in ``order``, so their marks are final
                if not wanted.isdisjoint(node._parents):
                    wanted.add(node)
                    order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._parents and p not in seen:
                    stack.append((p, False))

        grads = {self: np.ones((), dtype=np.float64)}
        for node in reversed(order):
            # a node's gradient is complete here; keep only the requested ones
            g = grads[node] if node in requested else grads.pop(node)
            for parent, d in zip(node._parents, node._vjp(g)):
                if parent in wanted:
                    grads[parent] = grads[parent] + d if parent in grads else d
        return [grads.get(t) for t in inputs]


def _lse_softmax(a, axis):
    """log(sum(exp(a))) with the reduced axis kept, and softmax(a)."""
    m = np.maximum.reduce(a, axis=axis, keepdims=True) if a.size else a
    # in place, so that a (2N, 2N) SupCon forward holds one array fewer at its peak
    shifted = a - m
    np.exp(shifted, out=shifted)
    total = np.add.reduce(shifted, axis=axis, keepdims=True)
    shifted /= total
    return m + np.log(total), shifted

