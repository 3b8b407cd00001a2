"""The network and the training objective as compositions of engine ops,
the form they had before ``MLPClassifier.encode``/``classify``/``project``,
``losses.at_loss``/``vat_loss`` and the weighted objective became one node
each and ``total_loss`` stacked the two views.

The ops here, ``add``, ``sub``, ``mul``, ``div``, ``exp``, ``relu``,
``matmul``, ``sum_``, ``mean``, ``log_sum_exp``, ``log_softmax``,
``cross_entropy`` and ``concat``, keep the VJPs the engine once had, as one
VJP per node that returns every parent's share, and each hands its parent
exactly the parent's shape: the elementwise ops sum a
broadcast gradient back down, and ``sum_`` broadcasts its gradient up by
adding zeros, as the engine's walk once did for them. ``encode``, ``classify``
and ``project`` build each layer from ``matmul``, ``add`` and ``relu`` on the
model's own parameter tensors, which rounds like the nodes. The tests hold
the nodes to these compositions: ``encode``/``classify``/``project`` and
``input_gradient`` bit for bit on one batch, the loss nodes and the stacked
objective within a tolerance. None of this calls the nodes it is the oracle
for.
"""

import numpy as np

from ascl.errors import ContractError, DimensionError, DomainError, check_labels
from ascl.losses import LossBreakdown, _mean_counts, selection_masks, supcon_batch
from ascl.tensor import Tensor, _lse_softmax


def _operand(a: Tensor, b) -> Tensor:
    """``b`` as a Tensor whose shape broadcasts with ``a``'s: scalars promote
    freely; otherwise ranks agree and each dim matches or is 1."""
    b = b if isinstance(b, Tensor) else Tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or sa == () or sb == ():
        return b
    if len(sa) != len(sb):
        raise DimensionError(f"rank mismatch: {sa} vs {sb}")
    for da, db in zip(sa, sb):
        if da != db and 1 not in (da, db):
            raise DimensionError(f"shapes not broadcastable: {sa} vs {sb}")
    return b


def _unbroadcast(g, t: Tensor):
    """``g`` summed down to ``t``'s shape: over the axes where ``t`` has size 1
    and ``g`` does not, or in total for a 0-d ``t``."""
    shape = t.data.shape
    if g.shape != shape:
        if shape == ():
            return g.sum()
        if axes := tuple(i for i, (ds, dg) in enumerate(zip(shape, g.shape))
                         if ds == 1 and dg != 1):
            return g.sum(axis=axes, keepdims=True)
    return g


def _check_axis(t: Tensor, axis):
    if axis is not None and not (-t.data.ndim <= axis < t.data.ndim):
        raise DimensionError(f"axis {axis} invalid for shape {t.shape}")


def _binary(value, a: Tensor, b: Tensor, vjp_a, vjp_b) -> Tensor:
    return Tensor._make(value, (a, b),
                        lambda g: (_unbroadcast(vjp_a(g), a), _unbroadcast(vjp_b(g), b)))


def add(a: Tensor, b) -> Tensor:
    b = _operand(a, b)
    return _binary(a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b) -> Tensor:
    b = _operand(a, b)
    return _binary(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b) -> Tensor:
    b = _operand(a, b)
    x, y = a.data, b.data
    return _binary(x * y, a, b, lambda g: g * y, lambda g: g * x)


def div(a: Tensor, b) -> Tensor:
    b = _operand(a, b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    x, y = a.data, b.data
    return _binary(x / y, a, b, lambda g: g / y, lambda g: -g * x / (y * y))


def relu(t: Tensor) -> Tensor:
    a = t.data
    mask = a > 0.0
    return Tensor._make(np.maximum(a, 0.0), (t,), lambda g: (g * mask,))


def matmul(a: Tensor, b) -> Tensor:
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    x, y = a.data, b.data
    return Tensor._make(x @ y, (a, b), lambda g: (g @ y.T, x.T @ g))


def sum_(t: Tensor, axis=None, keepdims=False) -> Tensor:
    _check_axis(t, axis)
    shape = t.shape

    def vjp(g):
        g = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (g if g.shape == shape else g + np.zeros(shape),)

    return Tensor._make(t.data.sum(axis=axis, keepdims=keepdims), (t,), vjp)


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return Tensor._make(out, (t,), lambda g: (g * out,))


def log_sum_exp(t: Tensor, axis=None, keepdims=False) -> Tensor:
    """log(sum(exp(x))) computed with a max shift, overflow-free."""
    _check_axis(t, axis)
    out_full, soft = _lse_softmax(t.data, axis)
    out = out_full if keepdims else np.squeeze(out_full, axis=axis)
    return Tensor._make(out, (t,), lambda g: (soft * g.reshape(out_full.shape),))


def mean(t: Tensor, axis=None, keepdims=False) -> Tensor:
    _check_axis(t, axis)
    n = t.data.size if axis is None else t.data.shape[axis]
    return div(sum_(t, axis=axis, keepdims=keepdims), float(n))


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities of a 2-D logit tensor."""
    return sub(logits, log_sum_exp(logits, axis=1, keepdims=True))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy, (N,): one node for ``log_sum_exp - sum_(z * onehot, 1)``,
    bit for bit; the VJP keeps the two products apart."""
    _check_axis(logits, 1)
    labels = check_labels(labels, logits.shape[1], logits.shape[0])
    lse, soft = _lse_softmax(logits.data, 1)
    rows = np.arange(logits.shape[0])
    onehot = np.zeros(logits.shape)
    onehot[rows, labels] = 1.0
    return Tensor._make(lse[:, 0] - logits.data[rows, labels], (logits,),
                        lambda g: (soft * g[:, None] - onehot * g[:, None],))


def concat(tensors) -> Tensor:
    """Stack 2-D tensors row-wise; backward hands each its rows of the gradient."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    if any(t.data.ndim != 2 for t in tensors):
        raise DimensionError("concat expects 2-D tensors")
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    bounds = list(zip(offsets[:-1], offsets[1:]))
    return Tensor._make(np.concatenate([t.data for t in tensors]), tuple(tensors),
                        lambda g: tuple(g[lo:hi] for lo, hi in bounds))


def encode(model, x) -> Tensor:
    """``model.encode`` op by op: ``relu(h @ W + b)`` per hidden layer."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    for w, b in model.hidden:
        h = relu(add(matmul(h, w), b))
    return h


def classify(model, z) -> Tensor:
    return add(matmul(z, model.cls_w), model.cls_b)


def project(model, z) -> Tensor:
    """``model.project`` op by op: ``z``, ``z @ P`` or ``relu(z @ P0) @ P1``."""
    if not model.proj:
        return z
    h = matmul(z, model.proj[0])
    return matmul(relu(h), model.proj[1]) if len(model.proj) == 2 else h


def forward(model, x) -> Tensor:
    return classify(model, encode(model, x))


def at_loss(logits_nat, logits_adv, labels, nat_ce=True) -> Tensor:
    adv = mean(cross_entropy(logits_adv, labels))
    if not nat_ce:
        return adv
    return add(mean(cross_entropy(logits_nat, labels)), adv)


def vat_loss(logits_nat, logits_adv) -> Tensor:
    logp = log_softmax(logits_nat)
    logq = log_softmax(logits_adv)
    return mean(sum_(mul(exp(logp), sub(logp, logq)), axis=1))


def total_loss(batch, model, strategy, weights, nat_ce=True, use_vat=True) -> LossBreakdown:
    """``losses.total_loss``'s contract with one forward per view, op by op;
    the SupCon term is the ``supcon_batch`` node on the concatenated pool."""
    z_nat = encode(model, batch.x)
    logits_nat = classify(model, z_nat)
    z_adv = encode(model, batch.x_adv)
    logits_adv = classify(model, z_adv)
    preds = np.argmax(np.concatenate([logits_nat.data, logits_adv.data]), axis=1)
    pos, neg = selection_masks(strategy, batch.y, preds)
    mean_pos, mean_neg = _mean_counts(pos, neg)

    total = at_loss(logits_nat, logits_adv, batch.y, nat_ce=nat_ce)
    at_val = total.item()

    scl_val = 0.0
    if weights.lambda_scl > 0:
        pool = concat([project(model, z_nat), project(model, z_adv)])
        scl = supcon_batch(pool, pos, neg, weights)
        scl_val = scl.item()
        total = add(total, mul(scl, weights.lambda_scl))

    vat_val = 0.0
    if use_vat and weights.lambda_vat > 0:
        vat = vat_loss(logits_nat, logits_adv)
        vat_val = vat.item()
        total = add(total, mul(vat, weights.lambda_vat))

    return LossBreakdown(total=total, at=at_val, scl=scl_val, vat=vat_val,
                         mean_pos=mean_pos, mean_neg=mean_neg)
