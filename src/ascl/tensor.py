"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops record a computation graph as they run; calling ``backward()`` on a
scalar root walks the graph once in reverse topological order and leaves
the total derivative on every ``requires_grad`` leaf. Graphs are
single-use: a second backward through any interior node raises.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError, GraphStateError

__all__ = ["Tensor", "concat", "log_softmax", "cross_entropy", "pairwise_lp"]


def _check_broadcast(sa, sb):
    # scalars promote freely; otherwise ranks must agree and each dim
    # must match or be 1
    if sa == () or sb == ():
        return
    if len(sa) != len(sb):
        raise DimensionError(f"rank mismatch: {sa} vs {sb}")
    for da, db in zip(sa, sb):
        if da != db and 1 not in (da, db):
            raise DimensionError(f"shapes not broadcastable: {sa} vs {sb}")


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back to the shape of its source."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    axes = tuple(i for i, (ds, dg) in enumerate(zip(shape, g.shape)) if ds == 1 and dg != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """A float64 array plus an optional gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, g):
        # g may be any shape that broadcasts to this tensor's
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=np.float64)
        self.grad += g

    def backward(self):
        """Propagate d(root)/d(leaf) to every requires_grad leaf.

        The root must be a scalar. Every interior node visited is marked
        consumed; reusing one in a later backward raises GraphStateError.
        """
        if self.data.ndim != 0:
            raise ContractError(f"backward() root must be scalar, got shape {self.shape}")

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        for node in order:
            if node._parents and node._consumed:
                raise GraphStateError("backward on a consumed graph; rebuild the graph per step")
        for node in order:
            if node._parents:
                node._consumed = True

        self._accumulate(np.ones((), dtype=np.float64))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- elementwise binary ops ---------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(self.data + other.data, (self, other), back)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.shape))

        return Tensor._make(self.data - other.data, (self, other), back)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape)
        a, b = self.data, other.data

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * b, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * a, other.shape))

        return Tensor._make(a * b, (self, other), back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        _check_broadcast(self.shape, other.shape)
        if np.any(other.data == 0.0):
            raise DomainError("division by zero")
        a, b = self.data, other.data

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / b, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g * a / (b * b), other.shape))

        return Tensor._make(a / b, (self, other), back)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        def back(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), back)

    def __pow__(self, exponent):
        e = float(exponent)
        if e != int(e) and np.any(self.data < 0.0):
            raise DomainError("fractional power of negative base")
        a = self.data
        out_data = a ** e

        def back(g):
            if self.requires_grad:
                with np.errstate(divide="ignore", invalid="ignore"):
                    d = e * a ** (e - 1.0)
                # kink convention at 0 for e < 1, mirroring sign(0) = 0
                d = np.where(np.isfinite(d), d, 0.0)
                self._accumulate(g * d)

        return Tensor._make(out_data, (self,), back)

    # -- elementwise unary ops ----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def back(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), back)

    def relu(self):
        a = self.data

        def back(g):
            if self.requires_grad:
                self._accumulate(g * (a > 0.0))

        return Tensor._make(np.maximum(a, 0.0), (self,), back)

    def abs(self):
        a = self.data

        def back(g):
            if self.requires_grad:
                self._accumulate(g * np.sign(a))

        return Tensor._make(np.abs(a), (self,), back)

    def sqrt(self):
        return self.__pow__(0.5)

    # -- matrix ops -----------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise DimensionError("matmul expects 2-D operands")
        if self.shape[1] != other.shape[0]:
            raise DimensionError(f"inner dimensions disagree: {self.shape} @ {other.shape}")
        a, b = self.data, other.data

        def back(g):
            if self.requires_grad:
                self._accumulate(g @ b.T)
            if other.requires_grad:
                other._accumulate(a.T @ g)

        return Tensor._make(a @ b, (self, other), back)

    __matmul__ = matmul

    def transpose(self):
        if self.data.ndim != 2:
            raise DimensionError("transpose expects a 2-D tensor")

        def back(g):
            if self.requires_grad:
                self._accumulate(g.T)

        return Tensor._make(self.data.T, (self,), back)

    # -- reductions -------------------------------------------------------------

    def _check_axis(self, axis):
        if axis is not None and not (-self.data.ndim <= axis < self.data.ndim):
            raise DimensionError(f"axis {axis} invalid for shape {self.shape}")

    def sum(self, axis=None, keepdims: bool = False):
        self._check_axis(axis)

        def back(g):
            if self.requires_grad:
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(g)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def mean(self, axis=None, keepdims: bool = False):
        self._check_axis(axis)
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(n)

    def log_sum_exp(self, axis=None, keepdims: bool = False):
        """log(sum(exp(x))) computed with a max shift, overflow-free."""
        self._check_axis(axis)
        a = self.data
        m = a.max(axis=axis, keepdims=True) if a.size else a
        shifted = np.exp(a - m)
        total = shifted.sum(axis=axis, keepdims=True)
        out_full = m + np.log(total)
        out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)
        soft = shifted / total

        def back(g):
            if self.requires_grad:
                self._accumulate(soft * g.reshape(total.shape))

        return Tensor._make(out_data, (self,), back)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities of a 2-D logit tensor."""
    return logits - logits.log_sum_exp(axis=1, keepdims=True)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy of a 2-D logit tensor against integer labels, (N,).

    ``lse - z_y`` equals ``-log_softmax(logits)[y]`` bit for bit, since
    float subtraction is antisymmetric, and records fewer graph nodes.
    """
    onehot = np.eye(logits.shape[1])[np.asarray(labels, dtype=np.intp)]
    return logits.log_sum_exp(axis=1) - (logits * Tensor(onehot)).sum(axis=1)


def concat(tensors, axis: int = 0):
    """Concatenate 2-D tensors along an axis; backward splits the gradient."""
    tensors = [Tensor._coerce(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    for t in tensors:
        if t.data.ndim != 2:
            raise DimensionError("concat expects 2-D tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = (slice(lo, hi), slice(None)) if axis == 0 else (slice(None), slice(lo, hi))
                t._accumulate(g[sl])

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back)


def pairwise_lp(x, p: float):
    """``sum_k |x[a, k] - x[b, k]|**p`` for every pair of rows of a 2-D
    tensor, (M, h) -> (M, M): the p-th power of the Lp distance.

    Forward and backward take one feature column at a time, so memory is
    O(M^2) whatever h is. The derivative follows ``abs`` and ``**``: zero
    at a zero difference.
    """
    x = Tensor._coerce(x)
    if x.data.ndim != 2:
        raise DimensionError("pairwise_lp expects a 2-D tensor")
    if not p >= 1:
        raise ContractError("pairwise_lp requires p >= 1")
    a = x.data
    out = np.zeros((a.shape[0], a.shape[0]))
    for col in a.T:
        out += np.abs(col[:, None] - col[None, :]) ** p

    def back(g):
        if x.requires_grad:
            gs = g + g.T
            grad = np.empty_like(a)
            for k, col in enumerate(a.T):
                d = col[:, None] - col[None, :]
                grad[:, k] = p * (gs * np.sign(d) * np.abs(d) ** (p - 1)).sum(axis=1)
            x._accumulate(grad)

    return Tensor._make(out, (x,), back)
