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
and leave the rest to ``+``. The coarse nodes ``affine`` and
``cross_entropy`` round like their compositions; ``losses.supcon_batch``
does not, and its composition is a tolerance oracle in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError

__all__ = ["Tensor", "affine", "concat", "log_softmax", "cross_entropy"]


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
        requested = {id(t) for t in inputs}
        wanted = set(requested)

        # post-order, the last parent first: it fixes how shared nodes sum
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                # parents come first in ``order``, so their marks are final
                if not wanted.isdisjoint(map(id, node._parents)):
                    wanted.add(id(node))
                    order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._parents and id(p) not in seen:
                    stack.append((p, False))

        grads = {id(self): np.ones((), dtype=np.float64)}
        for node in reversed(order):
            # a node's gradient is complete here; keep only the requested ones
            g = grads[id(node)] if id(node) in requested else grads.pop(id(node))
            for parent, vjp in zip(node._parents, node._vjps):
                if id(parent) in wanted:
                    d = vjp(g)
                    shape = parent.data.shape
                    if d.shape != shape:
                        if shape == ():
                            d = d.sum()
                        elif axes := tuple(i for i, (ds, dg) in enumerate(zip(shape, d.shape))
                                           if ds == 1 and dg != 1):
                            d = d.sum(axis=axes, keepdims=True)
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + d
                    else:
                        # zeros + d only where d still broadcasts
                        grads[id(parent)] = d if d.shape == shape else d + np.zeros(shape)
        return [grads.get(id(t)) for t in inputs]

    # -- elementwise binary ops ---------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def _operand(self, other):
        """The right operand as a Tensor whose shape broadcasts with ours:
        scalars promote freely; otherwise ranks agree and each dim matches
        or is 1."""
        other = self._coerce(other)
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

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return Tensor._make(self.data - other.data, (self, other), (lambda g: g, lambda g: -g))

    def __mul__(self, other):
        other = self._operand(other)
        a, b = self.data, other.data
        return Tensor._make(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._operand(other)
        if np.any(other.data == 0.0):
            raise DomainError("division by zero")
        a, b = self.data, other.data
        return Tensor._make(a / b, (self, other),
                            (lambda g: g / b, lambda g: -g * a / (b * b)))

    # -- elementwise unary ops ----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), (lambda g: g * out_data,))

    def relu(self):
        a = self.data
        return Tensor._make(np.maximum(a, 0.0), (self,), (lambda g: g * (a > 0.0),))

    # -- matrix ops -----------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
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

    def mean(self, axis=None, keepdims: bool = False):
        self._check_axis(axis)
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def log_sum_exp(self, axis=None, keepdims: bool = False):
        """log(sum(exp(x))) computed with a max shift, overflow-free."""
        self._check_axis(axis)
        out_full, soft = _lse_softmax(self.data, axis)
        out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)
        return Tensor._make(out_data, (self,), (lambda g: soft * g.reshape(out_full.shape),))


def _lse_softmax(a, axis):
    """log(sum(exp(a))) with the reduced axis kept, and softmax(a)."""
    m = np.maximum.reduce(a, axis=axis, keepdims=True) if a.size else a
    shifted = np.exp(a - m)
    total = np.add.reduce(shifted, axis=axis, keepdims=True)
    return m + np.log(total), shifted / total


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities of a 2-D logit tensor."""
    return logits - logits.log_sum_exp(axis=1, keepdims=True)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, for ``x`` (N, d), ``w`` (d, k) and a bias
    ``b`` (1, k), broadcast over rows."""
    a, m = x.data, w.data
    if a.ndim != 2 or m.ndim != 2 or a.shape[1] != m.shape[0] or b.shape != (1, m.shape[1]):
        raise DimensionError(f"affine expects (N, d) @ (d, k) + (1, k), got "
                             f"{a.shape} @ {m.shape} + {b.shape}")
    out = a @ m
    out += b.data
    return Tensor._make(out, (x, w, b), (lambda g: g @ m.T, lambda g: a.T @ g, lambda g: g))


def check_labels(labels, num_classes):
    """``labels`` as an intp array; ContractError unless each lies in [0, num_classes)."""
    labels = np.asarray(labels, dtype=np.intp)
    # viewed as unsigned, a negative label lies above every class index
    if np.count_nonzero(labels.view(np.uintp) >= num_classes):
        raise ContractError("labels must lie in [0, number of classes)")
    return labels


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy of a 2-D logit tensor against integer labels, (N,).

    One node for ``log_sum_exp - (z * onehot).sum(1)``, which equals
    ``-log_softmax(logits)[y]`` bit for bit; for finite z that row sum is
    ``z[y]`` exactly, so the forward gathers it. The VJP keeps the two products
    apart: ``(soft - onehot) * g``, or ``-g`` at the labels alone, would differ.
    """
    logits._check_axis(1)
    labels = check_labels(labels, logits.shape[1])
    lse, soft = _lse_softmax(logits.data, 1)
    rows = np.arange(logits.shape[0])
    onehot = np.zeros(logits.shape)
    onehot[rows, labels] = 1.0
    return Tensor._make(lse[:, 0] - logits.data[rows, labels], (logits,),
                        (lambda g: soft * g[:, None] - onehot * g[:, None],))


def concat(tensors):
    """Stack 2-D tensors row-wise; backward hands each its rows of the gradient."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    for t in tensors:
        if t.data.ndim != 2:
            raise DimensionError("concat expects 2-D tensors")
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    vjps = tuple((lambda g, lo=lo, hi=hi: g[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:]))
    return Tensor._make(np.concatenate([t.data for t in tensors]), tuple(tensors), vjps)
