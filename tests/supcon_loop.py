"""Per-anchor reference implementation of the supervised contrastive loss.

One small graph per anchor: gather the anchor row, its numerator rows and
its denominator rows from the pool by one-hot matmul, then ``log_sum_exp``
minus a mean. It is slow, and it shares no loss arithmetic with the
vectorised ``supcon_batch``, so the tests use it as a second oracle for
that function, gradients included.
"""

import numpy as np

from ascl.errors import ContractError, DomainError
from ascl.losses import LossWeights, SelectionResult
from ascl.tensor import Tensor
from mlp_graph import add, div, log_sum_exp, matmul, mean, mul, sub, sum_
from supcon_graph import sqrt, transpose


def similarity_rows(rows: Tensor, anchor: Tensor) -> Tensor:
    """Cosine similarity of each row of ``rows`` (K, h) to ``anchor`` (1, h) -> (K, 1)."""
    norms = np.linalg.norm(rows.data, axis=1)
    if not np.linalg.norm(anchor.data) > 0 or not np.all(norms > 0):
        raise DomainError("cosine similarity of a zero vector")
    dots = matmul(rows, transpose(anchor))
    rn = sqrt(sum_(mul(rows, rows), axis=1, keepdims=True))
    an = sqrt(sum_(mul(anchor, anchor), axis=1, keepdims=True))
    return div(dots, mul(rn, an))


def gather_rows(t: Tensor, idx) -> Tensor:
    """Rows ``idx`` of a 2-D tensor as a one-hot matmul: each output entry
    is one product by 1.0 plus zeros, so values are exact."""
    return matmul(Tensor(np.eye(t.shape[0])[np.asarray(idx, dtype=np.intp)]), t)


def anchor_loss(anchor_slot, partner_slot, pool, sel, weights):
    # numerator terms: positives plus the anchor's other view; denominator
    # adds the negatives; the anchor itself appears in neither
    num_idx = np.concatenate([sel.positives, [partner_slot]])
    den_idx = np.concatenate([sel.positives, sel.negatives, [partner_slot]])
    anchor_vec = gather_rows(pool, [anchor_slot])
    num_sims = div(similarity_rows(gather_rows(pool, num_idx), anchor_vec), weights.tau)
    den_sims = div(similarity_rows(gather_rows(pool, den_idx), anchor_vec), weights.tau)
    return sub(log_sum_exp(den_sims), mean(num_sims))


def supcon_anchor_nat(i, pool: Tensor, sel: SelectionResult, weights: LossWeights) -> Tensor:
    """Contrastive loss with the natural view of sample ``i`` as anchor.

    Mean over the positives plus the anchor's adversarial view of
    ``-log softmax(sim/tau)`` against positives+negatives+that view.
    Nonnegative; exactly zero when both sets are empty.
    """
    return anchor_loss(i, sel.anchor_adv_slot, pool, sel, weights)


def supcon_anchor_adv(i, pool: Tensor, sel: SelectionResult, weights: LossWeights) -> Tensor:
    """Same loss with the adversarial view as anchor and the natural view
    taking the special slot."""
    return anchor_loss(sel.anchor_adv_slot, i, pool, sel, weights)


def supcon_batch_loop(pool: Tensor, pos, neg, weights: LossWeights) -> Tensor:
    """Batch mean of the natural- plus adversarial-anchor losses, one
    anchor at a time; same contract as ``ascl.losses.supcon_batch``."""
    n = pos.shape[0]
    if pool.shape[0] != 2 * n:
        raise ContractError(f"pool of {pool.shape[0]} slots does not match {n} samples")
    total = None
    for i in range(n):
        sel = SelectionResult(anchor=i, positives=np.flatnonzero(pos[i]),
                              negatives=np.flatnonzero(neg[i]), anchor_adv_slot=i + n)
        term = add(supcon_anchor_nat(i, pool, sel, weights),
                   supcon_anchor_adv(i, pool, sel, weights))
        total = term if total is None else add(total, term)
    return div(total, float(n))
