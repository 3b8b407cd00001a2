"""The network and the training objective as compositions of engine ops,
the form they had before ``MLPClassifier.encode``/``classify`` and
``losses.at_loss``/``vat_loss`` became one node each and ``total_loss``
stacked the two views.

``sub``, ``div``, ``exp``, ``mean``, ``log_sum_exp``, ``log_softmax``,
``cross_entropy`` and ``concat`` keep the VJPs the engine once had; the
engine's ``_operand`` checks the broadcasting of ``sub`` and ``div``.
``encode`` and ``classify`` build each layer from ``@``, ``+`` and ``relu``
on the model's own parameter tensors, which rounds like the old ``affine``
node. The tests hold the nodes to these compositions: ``encode``/``classify``
and ``input_gradient`` bit for bit on one batch, the loss nodes and the
stacked objective within a tolerance. None of this calls the nodes it is
the oracle for.
"""

import numpy as np

from ascl.errors import ContractError, DimensionError, DomainError
from ascl.losses import LossBreakdown, _mean_counts, selection_masks, supcon_batch
from ascl.tensor import Tensor, _lse_softmax, check_labels


def sub(a: Tensor, b) -> Tensor:
    b = a._operand(b)
    return Tensor._make(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def div(a: Tensor, b) -> Tensor:
    b = a._operand(b)
    if np.any(b.data == 0.0):
        raise DomainError("division by zero")
    x, y = a.data, b.data
    return Tensor._make(x / y, (a, b), (lambda g: g / y, lambda g: -g * x / (y * y)))


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return Tensor._make(out, (t,), (lambda g: g * out,))


def log_sum_exp(t: Tensor, axis=None, keepdims=False) -> Tensor:
    """log(sum(exp(x))) computed with a max shift, overflow-free."""
    t._check_axis(axis)
    out_full, soft = _lse_softmax(t.data, axis)
    out = out_full if keepdims else np.squeeze(out_full, axis=axis)
    return Tensor._make(out, (t,), (lambda g: soft * g.reshape(out_full.shape),))


def mean(t: Tensor, axis=None, keepdims=False) -> Tensor:
    t._check_axis(axis)
    n = t.data.size if axis is None else t.data.shape[axis]
    return div(t.sum(axis=axis, keepdims=keepdims), float(n))


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-probabilities of a 2-D logit tensor."""
    return sub(logits, log_sum_exp(logits, axis=1, keepdims=True))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-row cross-entropy, (N,): one node for ``log_sum_exp - (z * onehot).sum(1)``,
    bit for bit; the VJP keeps the two products apart."""
    logits._check_axis(1)
    labels = check_labels(labels, logits.shape[1])
    lse, soft = _lse_softmax(logits.data, 1)
    rows = np.arange(logits.shape[0])
    onehot = np.zeros(logits.shape)
    onehot[rows, labels] = 1.0
    return Tensor._make(lse[:, 0] - logits.data[rows, labels], (logits,),
                        (lambda g: soft * g[:, None] - onehot * g[:, None],))


def concat(tensors) -> Tensor:
    """Stack 2-D tensors row-wise; backward hands each its rows of the gradient."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of empty list")
    if any(t.data.ndim != 2 for t in tensors):
        raise DimensionError("concat expects 2-D tensors")
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    vjps = tuple((lambda g, lo=lo, hi=hi: g[lo:hi]) for lo, hi in zip(offsets[:-1], offsets[1:]))
    return Tensor._make(np.concatenate([t.data for t in tensors]), tuple(tensors), vjps)


def encode(model, x) -> Tensor:
    """``model.encode`` op by op: ``(h @ W + b).relu()`` per hidden layer."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    for w, b in model.hidden:
        h = (h @ w + b).relu()
    return h


def classify(model, z) -> Tensor:
    return z @ model.cls_w + model.cls_b


def forward(model, x) -> Tensor:
    return classify(model, encode(model, x))


def at_loss(logits_nat, logits_adv, labels, nat_ce=True) -> Tensor:
    adv = mean(cross_entropy(logits_adv, labels))
    if not nat_ce:
        return adv
    return mean(cross_entropy(logits_nat, labels)) + adv


def vat_loss(logits_nat, logits_adv) -> Tensor:
    logp = log_softmax(logits_nat)
    logq = log_softmax(logits_adv)
    return mean((exp(logp) * sub(logp, logq)).sum(axis=1))


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
        pool = concat([model.project(z_nat), model.project(z_adv)])
        scl = supcon_batch(pool, pos, neg, weights)
        scl_val = scl.item()
        total = total + weights.lambda_scl * scl

    vat_val = 0.0
    if use_vat and weights.lambda_vat > 0:
        vat = vat_loss(logits_nat, logits_adv)
        vat_val = vat.item()
        total = total + weights.lambda_vat * vat

    return LossBreakdown(total=total, at=at_val, scl=scl_val, vat=vat_val,
                         mean_pos=mean_pos, mean_neg=mean_neg)
