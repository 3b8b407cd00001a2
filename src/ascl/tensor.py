"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops record a computation graph as they run, whatever their operands.
``root.backward(inputs)`` on a scalar root walks it once in reverse
topological order and returns d(root)/d(input) for each of ``inputs``, so
the request alone says what is differentiated. No tensor keeps gradient
state, so a graph can be walked again; to sum two walks, add their results.

Each op states its forward value and one vector-Jacobian product (VJP)
per input: a map from the output's gradient to that input's share.
``backward`` alone routes: it walks the interior nodes and calls only the
VJPs toward a requested input or a node that leads to one, in input order.
One broadcasting rule reduces what a VJP returns: sum the axes where the
input has size 1 and the gradient does not, give a 0-d input the total,
and leave the rest to ``+``. The training step's coarse nodes are made
elsewhere: ``MLPClassifier.encode`` and ``classify`` round like their
affine-and-relu compositions on one batch; ``losses.at_loss``, ``vat_loss``
and ``supcon_batch`` do not, and the tests hold them to theirs by a tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError

__all__ = ["Tensor"]


class Tensor:
    """A float64 array plus graph linkage."""

    __slots__ = ("data", "_parents", "_vjps")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents = ()
        self._vjps = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _make(data, parents, vjps):
        """A node whose ``vjps[k]`` maps its gradient to ``parents[k]``'s."""
        out = Tensor(data)
        out._parents = parents
        out._vjps = vjps
        return out

    def backward(self, inputs):
        """d(root)/d(t) for each ``t`` in ``inputs``, as a list; ``None`` for
        one the root does not reach. One walk over the interior nodes; only VJPs
        toward nodes that lead to an input run. The root must be a scalar; any
        tensor may be an input. Returned arrays may share memory: do not write to them.
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
            for parent, vjp in zip(node._parents, node._vjps):
                if parent in wanted:
                    d = vjp(g)
                    shape = parent.data.shape
                    if d.shape != shape:
                        if shape == ():
                            d = d.sum()
                        elif axes := tuple(i for i, (ds, dg) in enumerate(zip(shape, d.shape))
                                           if ds == 1 and dg != 1):
                            d = d.sum(axis=axes, keepdims=True)
                    if parent in grads:
                        grads[parent] = grads[parent] + d
                    else:
                        # zeros + d only where d still broadcasts
                        grads[parent] = d if d.shape == shape else d + np.zeros(shape)
        return [grads.get(t) for t in inputs]

    # -- ops -----------------------------------------------------------------

    def _operand(self, other):
        """The right operand as a Tensor whose shape broadcasts with ours:
        scalars promote freely; otherwise ranks agree and each dim matches
        or is 1."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        sa, sb = self.data.shape, other.data.shape
        if sa == sb or sa == () or sb == ():
            return other
        if len(sa) != len(sb):
            raise DimensionError(f"rank mismatch: {sa} vs {sb}")
        for da, db in zip(sa, sb):
            if da != db and 1 not in (da, db):
                raise DimensionError(f"shapes not broadcastable: {sa} vs {sb}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return Tensor._make(self.data + other.data, (self, other), (lambda g: g, lambda g: g))

    def __mul__(self, other):
        other = self._operand(other)
        a, b = self.data, other.data
        return Tensor._make(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def relu(self):
        a = self.data
        mask = a > 0.0
        return Tensor._make(np.maximum(a, 0.0), (self,), (lambda g: g * mask,))

    def matmul(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise DimensionError("matmul expects 2-D operands")
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"inner dimensions disagree: {self.shape} @ {other.shape}")
        a, b = self.data, other.data
        return Tensor._make(a @ b, (self, other), (lambda g: g @ b.T, lambda g: a.T @ g))

    __matmul__ = matmul

    # -- reductions -------------------------------------------------------------

    def _check_axis(self, axis):
        if axis is not None and not (-self.data.ndim <= axis < self.data.ndim):
            raise DimensionError(f"axis {axis} invalid for shape {self.shape}")

    def sum(self, axis=None, keepdims: bool = False):
        self._check_axis(axis)
        vjp = (lambda g: g) if axis is None or keepdims else (lambda g: np.expand_dims(g, axis))
        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), (vjp,))


def _lse_softmax(a, axis):
    """log(sum(exp(a))) with the reduced axis kept, and softmax(a)."""
    m = np.maximum.reduce(a, axis=axis, keepdims=True) if a.size else a
    shifted = np.exp(a - m)
    total = np.add.reduce(shifted, axis=axis, keepdims=True)
    return m + np.log(total), shifted / total


def check_labels(labels, num_classes):
    """``labels`` as an intp array; ContractError unless each lies in [0, num_classes)."""
    labels = np.asarray(labels, dtype=np.intp)
    # viewed as unsigned, a negative label lies above every class index
    if np.count_nonzero(labels.view(np.uintp) >= num_classes):
        raise ContractError("labels must lie in [0, number of classes)")
    return labels
