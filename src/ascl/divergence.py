"""Latent-space diagnostics: mean cosine distance from each anchor to its
same-class pool (intra) and different-class pool (inter), and their
ratio, computed over pooled natural+adversarial latents. Slots follow
the ``global`` masks of ``losses.selection_masks``; ``divergence_report``
keeps the latents of ``robust_accuracy``'s passes, one numpy pass per input."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackConfig, pgd_attack, robust_accuracy
from .errors import ContractError, check_integer, check_labels
from .losses import _unit_rows, selection_masks

__all__ = [
    "DivergenceReport",
    "absolute_divergences",
    "relative_divergence",
    "divergence_report",
    "divergence_sweep",
]

RDIV_DENOM_TOL = 1e-12

SWEEP_COLUMNS = ("epsilon", "d_a_plus", "d_a_minus", "r_div", "robust_acc",
                 "n_samples", "layer_name")


@dataclass
class DivergenceReport:
    d_a_plus: float | None
    d_a_minus: float | None
    r_div: float | None
    nat_acc: float
    rob_acc: float
    layer_name: str = "penultimate"
    n_samples: int = 0


def _pooled(z, labels, z_adv):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ContractError("latents must be (N, h) with matching labels")
    labels = check_labels(labels, None, z.shape[0])
    if z_adv is None:
        return z, labels
    z_adv = np.asarray(z_adv, dtype=np.float64)
    if z_adv.shape != z.shape:
        raise ContractError("adversarial latents must match natural latents")
    return np.concatenate([z, z_adv]), labels


def absolute_divergences(z, labels, z_adv=None, block_rows=None):
    """Mean anchor-to-positive and anchor-to-negative cosine distances.

    Every pooled slot ``a`` serves as anchor; its positives and negatives
    are row ``a % N`` of the ``global`` selection masks: slots of *other*
    samples with the same label, and those with a different label.
    Anchors with an empty set are skipped on that side; a side with no
    anchor left (one class only, say) is None.
    An all-zero latent is at distance 1 from every slot, as it has
    similarity 0 in the contrastive loss.
    Anchors are taken ``block_rows`` at a time (a positive integer; default: all at once), so
    no temporary outgrows a (block_rows, pool) block; the result does not
    depend on the block size.
    """
    pool, labels = _pooled(z, labels, z_adv)
    m, n = pool.shape[0], labels.shape[0]
    masks = [mask[:, :m] for mask in selection_masks("global", labels)]
    unit = _unit_rows(pool)[0]
    step = max(m, 1) if block_rows is None else check_integer(block_rows, "block_rows")

    # per-anchor distance sums and counts; side 0 positives, side 1 negatives
    sums = np.zeros((2, m))
    counts = np.zeros((2, m), dtype=np.intp)
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        dist = unit[rows] @ unit.T
        np.subtract(1.0, dist, out=dist)
        src = np.arange(lo, min(lo + step, m)) % n
        for side, mask in enumerate(masks):
            block = mask[src]
            sums[side, rows] = dist.sum(axis=1, where=block)
            counts[side, rows] = block.sum(axis=1)

    means = []
    for side in range(2):
        keep = counts[side] > 0
        # clip float fuzz: self-similarity rounding can give -1e-16 distances
        means.append(max(float((sums[side, keep] / counts[side, keep]).mean()), 0.0)
                     if np.any(keep) else None)
    return tuple(means)


def relative_divergence(d_a_plus, d_a_minus):
    """Ratio intra/inter, or None when either side is undefined or the
    denominator is at tolerance."""
    if d_a_plus is not None and d_a_minus is not None and d_a_minus > RDIV_DENOM_TOL:
        return d_a_plus / d_a_minus
    return None


def divergence_report(model, features, labels, attack_cfg: AttackConfig | None,
                      seed=0, batch_size=128) -> DivergenceReport:
    """Divergences of the model's penultimate latents over a dataset.

    One ``robust_accuracy`` pass without attack gives the natural latents
    and ``nat_acc``. With an attack config at epsilon > 0, one PGD pass
    gives the adversarial latents, pooled with the natural ones, and
    ``rob_acc``, the accuracy on exactly those inputs; otherwise the pool
    is benign-only and ``rob_acc`` is ``nat_acc``. Inputs are attacked and
    scored in mini-batches, each sample on its own attack stream; no
    result depends on ``batch_size``.
    """
    attacked = attack_cfg is not None and attack_cfg.epsilon > 0
    z, z_adv = [], []
    nat_acc = robust_accuracy(model, features, labels, "none", attack_cfg,
                              batch_size=batch_size, latents=z)
    rob_acc = robust_accuracy(model, features, labels, pgd_attack, attack_cfg, seed=seed,
                              batch_size=batch_size, latents=z_adv) if attacked else nat_acc
    d_plus, d_minus = absolute_divergences(
        np.concatenate(z), labels, np.concatenate(z_adv) if attacked else None,
        block_rows=batch_size)
    return DivergenceReport(
        d_a_plus=d_plus,
        d_a_minus=d_minus,
        r_div=relative_divergence(d_plus, d_minus),
        nat_acc=nat_acc,
        rob_acc=rob_acc,
        n_samples=len(labels),
    )


def divergence_sweep(model, dataset, eps_grid, base_cfg: AttackConfig, seed=0,
                     batch_size=128):
    """Rows of (epsilon, divergences, robust accuracy), ascending in epsilon.

    Each row attacks the dataset once, with ``base_cfg`` at that epsilon.
    At epsilon 0 the attack is the identity, so that row holds benign-only
    latents and natural accuracy.
    """
    rows = []
    for eps in sorted(float(e) for e in eps_grid):
        report = divergence_report(model, dataset.features, dataset.labels,
                                   replace(base_cfg, epsilon=eps), seed=seed,
                                   batch_size=batch_size)
        rows.append({
            "epsilon": eps,
            "d_a_plus": report.d_a_plus,
            "d_a_minus": report.d_a_minus,
            "r_div": report.r_div,
            "robust_acc": report.rob_acc,
            "n_samples": report.n_samples,
            "layer_name": report.layer_name,
        })
    return rows
