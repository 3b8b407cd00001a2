"""Training objective: positive/negative selection strategies, the
supervised contrastive loss over a pooled natural+adversarial batch, the
adversarial cross-entropy term, the KL smoothness term, and their
weighted combination.

Latent pool layout: slots ``0..N-1`` hold natural latents, ``N..2N-1``
the adversarial counterparts; slot ``j + N`` is sample ``j``'s
adversarial view.

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

The contrastive loss works on one 2N x 2N similarity matrix. Anchor row
``a`` has a partner, its other view: slot ``i + N`` for anchor ``i`` and
slot ``i`` for anchor ``i + N``. The numerator set is the positives plus
the partner, the denominator set adds the negatives; the anchor itself is
in neither. Because the partner is always there, every row's masked
log-sum-exp is finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .models import MLPClassifier
from .tensor import Tensor, concat, cross_entropy, log_softmax, pairwise_lp

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
    """Weights and similarity settings of the combined objective."""

    lambda_scl: float = 1.0
    lambda_vat: float = 2.0
    tau: float = 0.07
    similarity: str = "cosine"

    def __post_init__(self):
        if not (self.lambda_scl >= 0 and self.lambda_vat >= 0):
            raise ContractError("loss weights must be nonnegative")
        if not self.tau > 0:
            raise ContractError("temperature must be positive")
        _parse_similarity(self.similarity)


def _parse_similarity(name):
    if name == "cosine":
        return ("cosine", None)
    if name.startswith("lp:"):
        try:
            p = float(name[3:])
        except ValueError as e:
            raise ContractError(f"lp similarity needs a number p, got {name!r}") from e
        if not p >= 1:
            raise ContractError("lp similarity requires p >= 1")
        return ("lp", p)
    raise ContractError(f"similarity must be 'cosine' or 'lp:<p>', got {name!r}")


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
    labels = np.asarray(labels, dtype=np.intp)
    n = labels.shape[0]
    if preds is not None:
        preds = np.asarray(preds, dtype=np.intp)
        if preds.shape != (2 * n,):
            raise ContractError(f"expected {2 * n} slot predictions, got shape {preds.shape}")
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
    # the +1 counts the anchor's own adversarial view as a positive
    return float(np.mean(pos.sum(axis=1) + 1)), float(np.mean(neg.sum(axis=1)))


def selection_stats(strategy, labels, preds=None):
    """Batch means of (|positives| + 1, |negatives|); the +1 counts the
    anchor's own adversarial view as a positive."""
    if len(labels) < 2:
        raise ContractError("selection stats need a batch of at least 2")
    return _mean_counts(*selection_masks(strategy, labels, preds))


def _similarity_matrix(pool: Tensor, weights) -> Tensor:
    """Pairwise similarities of the pool's rows, (2N, h) -> (2N, 2N)."""
    kind, p = _parse_similarity(weights.similarity)
    if kind == "cosine":
        norms = (pool * pool).sum(axis=1, keepdims=True).sqrt()
        # an all-zero row stays zero: similarity 0 to every slot
        unit = pool / (norms + Tensor(norms.data == 0.0))
        return unit @ unit.transpose()
    return -(pairwise_lp(pool, p) ** (1.0 / p))


def supcon_batch(pool: Tensor, pos, neg, weights: LossWeights) -> Tensor:
    """Batch mean of the natural- plus adversarial-anchor losses over the
    (N, 2N) ``selection_masks``.

    Each anchor's loss is the mean over its numerator set of
    ``-log softmax(sim/tau)`` against its denominator set. It is
    nonnegative, and exactly zero when the positives and negatives are
    both empty.
    """
    n = pos.shape[0]
    if pool.shape[0] != 2 * n:
        raise ContractError(f"pool of {pool.shape[0]} slots does not match {n} samples")
    partner = np.roll(np.eye(2 * n, dtype=bool), n, axis=1)
    num = np.tile(pos, (2, 1)) | partner
    den = num | np.tile(neg, (2, 1))
    sims = _similarity_matrix(pool, weights) / weights.tau
    lse = (sims + Tensor(np.where(den, 0.0, -np.inf))).log_sum_exp(axis=1)
    num_mean = (sims * Tensor(num / num.sum(axis=1, keepdims=True))).sum(axis=1)
    return (lse - num_mean).sum() / float(n)


def at_loss(logits_nat: Tensor, logits_adv: Tensor, labels, nat_ce: bool = True) -> Tensor:
    """Cross-entropy on the adversarial batch plus, unless disabled, the
    natural batch; per-sample terms are averaged over the batch."""
    adv = cross_entropy(logits_adv, labels).mean()
    if not nat_ce:
        return adv
    return cross_entropy(logits_nat, labels).mean() + adv


def vat_loss(logits_nat: Tensor, logits_adv: Tensor) -> Tensor:
    """Mean KL(natural predictions || adversarial predictions); keeps the
    classifier smooth across the perturbation."""
    logp = log_softmax(logits_nat)
    logq = log_softmax(logits_adv)
    p = logp.exp()
    return (p * (logp - logq)).sum(axis=1).mean()


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
    weighted contrastive and KL terms, all fed from one pair of forwards.

    ``batch`` carries (x, y, x_adv). Terms with zero weight are skipped, so
    at lambda_scl = lambda_vat = 0 the result is exactly the AT loss.
    """
    z_nat = model.encode(batch.x)
    logits_nat = model.classify(z_nat)
    z_adv = model.encode(batch.x_adv)
    logits_adv = model.classify(z_adv)
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
