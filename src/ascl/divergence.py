"""Latent-space diagnostics: mean cosine distance from each anchor to its
same-class pool (intra) and different-class pool (inter), and their
ratio, over pooled natural+adversarial latents. ``divergence_report``
keeps the latents of ``robust_accuracy``'s passes, one numpy pass per input.

A sum of cosine distances over a set of slots is the set's size less the
anchor's unit row dotted with the set's unit-row sum, which follows from
per-class sums and the anchor sample's own views: O(m·h + k·h) for m
slots of width h and k classes, with no (m, m) block. Rounding differs
from summing the distances one by one by a few ulps; the ``.12g``
figures in the CSVs do not move."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackConfig, pgd_attack, robust_accuracy
from .errors import ContractError, check_labels
from .losses import _unit_rows

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
    """The (views, N, h) pool and the checked labels."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ContractError("latents must be (N, h) with matching labels")
    labels = check_labels(labels, None, z.shape[0])
    if z_adv is None:
        return z[None], labels
    z_adv = np.asarray(z_adv, dtype=np.float64)
    if z_adv.shape != z.shape:
        raise ContractError("adversarial latents must match natural latents")
    return np.stack([z, z_adv]), labels


def absolute_divergences(z, labels, z_adv=None):
    """Mean anchor-to-positive and anchor-to-negative cosine distances.

    Every pooled slot ``a`` of sample ``i``, label ``c``, is an anchor. With
    unit rows ``u``, ``C[c]`` the sum over class ``c``'s slots and ``V_i``
    over sample ``i``'s views, its positives (other samples' slots of class
    ``c``) sum to ``cnt+ - u_a . (C[c] - V_i)`` and its negatives (slots of
    other classes) to ``cnt- - u_a . (sum(C) - C[c])``, ``cnt`` the set sizes.
    Anchors with an empty set are skipped on that side; a side with no
    anchor left (one class only, or an empty pool) is None. An all-zero
    latent is at distance 1 from every slot, as it has similarity 0 in the
    contrastive loss.
    """
    pool, labels = _pooled(z, labels, z_adv)
    views, n = pool.shape[:2]
    unit = _unit_rows(pool)[0]
    _, cls, count = np.unique(labels, return_inverse=True, return_counts=True)
    own = unit.sum(axis=0)
    # a one-hot (k, N) matmul: np.add.at takes about 8x as long
    class_sums = (np.arange(count.size)[:, None] == cls).astype(np.float64) @ own
    same = class_sums[cls]
    dots = np.einsum("vnh,snh->svn", unit,
                     np.stack([same - own, class_sums.sum(axis=0) - same]))
    # set sizes per sample; side 0 positives, side 1 negatives
    sizes = views * np.stack([count[cls] - 1, n - count[cls]])

    means = []
    for size, dot in zip(sizes, dots):
        keep = size > 0
        # clip float fuzz: near-parallel slots can sum to -1e-16 distances
        means.append(max(float(((size[keep] - dot[:, keep]) / size[keep]).mean()), 0.0)
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
        np.concatenate(z), labels, np.concatenate(z_adv) if attacked else None)
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
