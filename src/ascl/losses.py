"""Training objective: positive/negative selection strategies, the
supervised contrastive loss over a pooled natural+adversarial batch, the
adversarial cross-entropy term, the KL smoothness term, and their
weighted combination.

``total_loss`` runs both views through the network as one stacked batch,
so its logits, latents and pool ``project(z)`` share one layout: slots
``0..N-1`` hold the natural views, ``N..2N-1`` the adversarial ones; slot
``j + N`` is sample ``j``'s adversarial view.

Every strategy is a pair of boolean (N, 2N) masks from
``selection_masks``: row ``i`` marks sample ``i``'s positive and negative
slots, and both anchor views of sample ``i`` share that row. Neither
mask ever holds slot ``i`` or ``i + N``. ``global`` keeps every other
sample, split by true label. ``hard`` and ``soft`` keep the global
positives but only those negatives predicted as the anchor's true label
(hard) or as the anchor's natural prediction (soft). ``leaked`` is
``soft`` with the positives filtered the same way. The filters read the
2N slot predictions in pool order, the argmax of each slot's logits: a
natural slot is judged by its natural prediction, an adversarial slot by
its adversarial one.

The contrastive loss works on one 2N x 2N cosine similarity matrix
S = U U^T / tau of the pool's unit rows U; an all-zero row counts as norm
1, so its similarity to every slot is 0. Anchor row ``a`` has a partner,
its other view: slot ``i + N`` for anchor ``i`` and slot ``i`` for anchor
``i + N``. The numerator set is the positives plus the partner, the
denominator set adds the negatives; the anchor itself is in neither.
Because the partner is always there, every row's masked log-sum-exp is
finite. ``supcon_batch`` is one node whose gradient toward S is Khosla et
al.'s softmax-minus-target form (arXiv:2004.11362): the softmax over the
denominator set minus the numerator weights, 1/|set| on the numerator set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, check_labels
from .models import MLPClassifier
from .tensor import Tensor, _lse_softmax

__all__ = [
    "STRATEGIES",
    "LossWeights",
    "SelectionResult",
    "selection_masks",
    "select",
    "selection_stats",
    "supcon_batch",
    "at_loss",
    "vat_loss",
    "total_loss",
    "LossBreakdown",
]

STRATEGIES = ("global", "hard", "soft", "leaked")


@dataclass(frozen=True)
class LossWeights:
    """Weights and temperature of the combined objective."""

    lambda_scl: float = 1.0
    lambda_vat: float = 2.0
    tau: float = 0.07

    def __post_init__(self):
        # written so that NaN fails them; an infinite tau flattens the SupCon term to a constant
        if not (0 <= self.lambda_scl < np.inf and 0 <= self.lambda_vat < np.inf):
            raise ContractError("loss weights must be finite and nonnegative")
        if not 0 < self.tau < np.inf:
            raise ContractError("temperature must be finite and positive")


@dataclass
class SelectionResult:
    """Per-anchor positive and negative slot sets in the 2N latent pool."""

    anchor: int
    positives: np.ndarray
    negatives: np.ndarray
    anchor_adv_slot: int


def selection_masks(strategy, labels, preds=None):
    """Boolean (N, 2N) positive and negative masks over the latent pool;
    row ``i`` serves both anchor views of sample ``i``. ``preds`` holds the
    2N slot predictions, natural then adversarial; ``global`` ignores them."""
    if strategy not in STRATEGIES:
        raise ContractError(f"unknown strategy {strategy!r}")
    labels = check_labels(labels, None, np.size(labels))
    n = labels.shape[0]
    if preds is not None:
        preds = check_labels(preds, None, 2 * n)
    elif strategy != "global":
        raise ContractError("prediction-filtered strategies need slot predictions")
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    pos = np.tile(same, 2)
    neg = np.tile(labels[:, None] != labels[None, :], 2)
    if strategy == "global":
        return pos, neg
    p = preds[:n]
    ref = labels if strategy == "hard" else p
    neg &= preds == ref[:, None]
    if strategy == "leaked":
        pos &= preds == p[:, None]
    return pos, neg


def select(strategy, labels, preds, i: int) -> SelectionResult:
    """Positive/negative slots for anchor ``i``: row ``i`` of ``selection_masks``."""
    n = len(labels)
    if not 0 <= i < n:
        raise ContractError(f"anchor {i} out of range for batch of {n}")
    pos, neg = selection_masks(strategy, labels, preds)
    return SelectionResult(anchor=i, positives=np.flatnonzero(pos[i]),
                           negatives=np.flatnonzero(neg[i]), anchor_adv_slot=i + n)


def _mean_counts(pos, neg):
    # the + n counts each anchor's own adversarial view as a positive
    n = pos.shape[0]
    return (np.count_nonzero(pos) + n) / n, np.count_nonzero(neg) / n


def selection_stats(strategy, labels, preds=None):
    """Batch means of (|positives| + 1, |negatives|); the +1 counts the
    anchor's own adversarial view as a positive."""
    if len(labels) < 2:
        raise ContractError("selection stats need a batch of at least 2")
    return _mean_counts(*selection_masks(strategy, labels, preds))


def _unit_rows(a):
    """Rows of ``a`` over their L2 norms, and the norm column; a zero row counts as norm 1."""
    norms = np.sqrt((a * a).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return a / norms, norms


def supcon_batch(pool: Tensor, pos, neg, weights: LossWeights) -> Tensor:
    """Batch mean of the natural- plus adversarial-anchor losses over the
    (N, 2N) ``selection_masks``.

    Each anchor's loss is the mean over its numerator set of
    ``-log softmax(sim/tau)`` against its denominator set. It is
    nonnegative, and exactly zero when the positives and negatives are
    both empty.

    One node; its VJP is dS = (softmax - w) g / (N tau), dU = (dS + dS^T) U,
    d pool = (dU - U rowsum(dU U)) / norm, so a zero row (norm 1) gets dU.
    """
    n = pos.shape[0]
    if pool.shape[0] != 2 * n:
        raise ContractError(f"pool of {pool.shape[0]} slots does not match {n} samples")
    partner = np.roll(np.eye(2 * n, dtype=bool), n, axis=1)
    num = np.tile(pos, (2, 1)) | partner
    den = num | np.tile(neg, (2, 1))
    unit, norms = _unit_rows(pool.data)
    sims = unit @ unit.T
    sims /= weights.tau
    lse, soft = _lse_softmax(np.where(den, sims, -np.inf), 1)
    w = num / num.sum(axis=1, keepdims=True)
    soft -= w
    sims *= w
    loss = (lse[:, 0] - sims.sum(axis=1)).sum() / n

    def vjp(g):
        du = (soft + soft.T) @ unit
        du *= g / (n * weights.tau)
        du -= unit * (du * unit).sum(axis=1, keepdims=True)
        du /= norms
        return (du,)

    return Tensor._make(loss, (pool,), vjp)


def _stacked(logits: Tensor):
    """N, then the row log-sum-exps and the softmax of stacked (2N, C) logits."""
    n, odd = divmod(logits.shape[0], 2)
    if logits.data.ndim != 2 or odd:
        raise ContractError(f"expected stacked (2N, C) logits, got shape {logits.shape}")
    return (n, *_lse_softmax(logits.data, 1))


def at_loss(logits: Tensor, labels, nat_ce: bool = True) -> Tensor:
    """Cross-entropy of stacked (2N, C) logits against the N ``labels``, averaged
    over the adversarial rows plus, unless disabled, over the natural rows.
    One node; its VJP is (softmax - onehot) g / N on the rows it counts."""
    n, lse, soft = _stacked(logits)
    label_at = (np.arange(2 * n), np.tile(check_labels(labels, soft.shape[1], n), 2))
    ce = lse[:, 0] - logits.data[label_at]
    loss = ce[n:].sum() / n
    if nat_ce:
        loss = ce[:n].sum() / n + loss

    def vjp(g):
        d = soft * (g / n)
        d[label_at] -= g / n
        if not nat_ce:
            d[:n] = 0.0
        return (d,)

    return Tensor._make(loss, (logits,), vjp)


def vat_loss(logits: Tensor) -> Tensor:
    """Mean KL(natural || adversarial predictions) over stacked (2N, C) logits;
    keeps the classifier smooth across the perturbation. One node; with p and
    q the natural and adversarial softmax rows, its VJP is
    p ((log p - log q) - KL_row) g / N toward the natural rows and
    (q - p) g / N toward the adversarial rows."""
    n, lse, soft = _stacked(logits)
    logp = logits.data - lse
    p, q, diff = soft[:n], soft[n:], logp[:n] - logp[n:]
    kl = (p * diff).sum(axis=1, keepdims=True)

    def vjp(g):
        d = np.concatenate([p * (diff - kl), q - p])
        d *= g / n
        return (d,)

    return Tensor._make(kl.sum() / n, (logits,), vjp)


@dataclass
class LossBreakdown:
    total: Tensor
    at: float
    scl: float
    vat: float
    mean_pos: float
    mean_neg: float


def total_loss(batch, model: MLPClassifier, strategy, weights: LossWeights,
               nat_ce: bool = True, use_vat: bool = True) -> LossBreakdown:
    """Combined objective on a paired batch: adversarial cross-entropy plus
    weighted contrastive and KL terms, all fed from one forward of the
    natural and adversarial views stacked as 2N rows.

    ``batch`` carries (x, y, x_adv). Terms with zero weight are skipped, so
    at lambda_scl = lambda_vat = 0 the total is the AT node itself; otherwise
    it is one node over the term nodes, ``at + lambda * term`` summed in term
    order, whose VJP gives ``g`` to AT and ``g * lambda`` to each other term.
    """
    z = model.encode(np.concatenate([batch.x, batch.x_adv]))
    logits = model.classify(z)
    pos, neg = selection_masks(strategy, batch.y, np.argmax(logits.data, axis=1))
    at = at_loss(logits, batch.y, nat_ce=nat_ce)
    scl = supcon_batch(model.project(z), pos, neg, weights) if weights.lambda_scl > 0 else None
    vat = vat_loss(logits) if use_vat and weights.lambda_vat > 0 else None

    total = at
    terms = [(t, lam) for t, lam in ((scl, weights.lambda_scl), (vat, weights.lambda_vat))
             if t is not None]
    if terms:
        value = at.data
        for t, lam in terms:
            value = value + t.data * lam
        total = Tensor._make(value, (at, *(t for t, _ in terms)),
                             lambda g: (g, *(g * lam for _, lam in terms)))

    mean_pos, mean_neg = _mean_counts(pos, neg)
    return LossBreakdown(total=total, at=at.item(), scl=0.0 if scl is None else scl.item(),
                         vat=0.0 if vat is None else vat.item(),
                         mean_pos=mean_pos, mean_neg=mean_neg)
