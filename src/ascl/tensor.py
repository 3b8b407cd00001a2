"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops record a computation graph as they run; calling ``backward()`` on a
scalar root walks the graph once in reverse topological order and leaves
the total derivative on every ``requires_grad`` leaf. Graphs are
single-use: a second backward through any interior node raises.

Each op states its forward value and one vector-Jacobian product (VJP)
per input: a map from the output's gradient to that input's share.
``backward`` alone routes: it calls the VJPs of the inputs that require
grad, in input order, and accumulates. One broadcasting rule reduces
what a VJP returns: sum the axes where the input has size 1 and the
gradient does not, give a 0-d input the total, and leave the rest to ``+=``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, DomainError, GraphStateError

__all__ = ["Tensor", "concat", "log_softmax", "cross_entropy", "pairwise_lp"]


class Tensor:
    """A float64 array plus an optional gradient and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjps = ()
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
    def _make(data, parents, vjps):
        """A node whose ``vjps[k]`` maps its gradient to ``parents[k]``'s."""
        out = Tensor(data)
        # a plain loop: any() over a generator adds a frame per op
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._vjps = vjps
                break
        return out

    def _accumulate(self, g):
        """Add ``g`` to the gradient, reduced by the one broadcasting rule."""
        shape = self.data.shape
        if g.shape != shape:
            if shape == ():
                g = g.sum()
            elif axes := tuple(i for i, (ds, dg) in enumerate(zip(shape, g.shape))
                               if ds == 1 and dg != 1):
                g = g.sum(axis=axes, keepdims=True)
        if self.grad is None:
            self.grad = np.zeros(shape, dtype=np.float64)
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
            # a node with parents is reached from the root, so it holds a grad
            for parent, vjp in zip(node._parents, node._vjps):
                if parent.requires_grad:
                    parent._accumulate(vjp(node.grad))

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

    def __neg__(self):
        return Tensor._make(-self.data, (self,), (lambda g: -g,))

    def __pow__(self, exponent):
        e = float(exponent)
        if e != int(e) and np.any(self.data < 0.0):
            raise DomainError("fractional power of negative base")
        a = self.data

        def vjp(g):
            with np.errstate(divide="ignore", invalid="ignore"):
                d = e * a ** (e - 1.0)
            # kink convention at 0 for e < 1, mirroring sign(0) = 0
            return g * np.where(np.isfinite(d), d, 0.0)

        return Tensor._make(a ** e, (self,), (vjp,))

    # -- elementwise unary ops ----------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), (lambda g: g * out_data,))

    def relu(self):
        a = self.data
        return Tensor._make(np.maximum(a, 0.0), (self,), (lambda g: g * (a > 0.0),))

    def abs(self):
        a = self.data
        return Tensor._make(np.abs(a), (self,), (lambda g: g * np.sign(a),))

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
        return Tensor._make(a @ b, (self, other), (lambda g: g @ b.T, lambda g: a.T @ g))

    __matmul__ = matmul

    def transpose(self):
        if self.data.ndim != 2:
            raise DimensionError("transpose expects a 2-D tensor")
        return Tensor._make(self.data.T, (self,), (lambda g: g.T,))

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
        a = self.data
        m = a.max(axis=axis, keepdims=True) if a.size else a
        shifted = np.exp(a - m)
        total = shifted.sum(axis=axis, keepdims=True)
        out_full = m + np.log(total)
        out_data = out_full if keepdims else np.squeeze(out_full, axis=axis)
        soft = shifted / total
        return Tensor._make(out_data, (self,), (lambda g: soft * g.reshape(total.shape),))


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

    def vjp(g):
        gs = g + g.T
        grad = np.empty_like(a)
        for k, col in enumerate(a.T):
            d = col[:, None] - col[None, :]
            grad[:, k] = p * (gs * np.sign(d) * np.abs(d) ** (p - 1)).sum(axis=1)
        return grad

    return Tensor._make(out, (x,), (vjp,))
