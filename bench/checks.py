"""Output checks, computed apart from the program.

Everything here is plain numpy written from the paper's definitions and
the documented file formats; nothing imports ``ascl``. Each ``check_*``
returns a list of failure messages, empty when the output is right.
"""

from __future__ import annotations

import json
import struct

import numpy as np

REL_TOL = 1e-9
BALL_TOL = 1e-12


# -- checkpoint and forward pass ----------------------------------------------
#
# Checkpoint layout (little-endian): 8-byte magic "ASCLMZ1\0", u32 length of
# the spec JSON, the spec JSON, then each weight array as raw f64 in
# declaration order: hidden{i}.w, hidden{i}.b, classifier.w, classifier.b.


def read_checkpoint(blob):
    """(spec dict, [(w, b) per hidden layer], (w, b) of the classifier)."""
    if blob[:8] != b"ASCLMZ1\x00":
        raise ValueError("not an ascl checkpoint")
    (spec_len,) = struct.unpack_from("<I", blob, 8)
    spec = json.loads(blob[12:12 + spec_len].decode("utf-8"))
    if spec["projection"] != "identity":
        raise ValueError("only identity projection heads are recomputed")
    off = 12 + spec_len
    arrays = []
    fan_in = spec["input_dim"]
    for width in list(spec["hidden_layers"]) + [spec["num_classes"]]:
        for shape in ((fan_in, width), (1, width)):
            count = shape[0] * shape[1]
            arrays.append(np.frombuffer(blob, "<f8", count, off).reshape(shape))
            off += 8 * count
        fan_in = width
    if off != len(blob):
        raise ValueError("checkpoint length does not match its spec")
    pairs = list(zip(arrays[0::2], arrays[1::2]))
    return spec, pairs[:-1], pairs[-1]


def forward(weights, x):
    """(penultimate latents, logits) of the relu MLP."""
    _, hidden, (cw, cb) = weights
    h = np.asarray(x, dtype=np.float64)
    for w, b in hidden:
        h = np.maximum(h @ w + b, 0.0)
    return h, h @ cw + cb


def _log_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def _logsumexp(values, mask):
    # row-wise log(sum(exp)) over the masked entries
    m = np.where(mask, values, -np.inf).max(axis=1, keepdims=True)
    return (m[:, 0] + np.log(np.where(mask, np.exp(values - m), 0.0).sum(axis=1)))


# -- the training objective ----------------------------------------------------


def selection_masks(strategy, labels, preds_nat, preds_adv):
    """Positive and negative masks over the 2N pool, one row per anchor.

    Slots 0..N-1 are natural views, N..2N-1 adversarial views. Both views
    of sample i share sample i's selection. ``global`` keeps every other
    sample by true label. ``leaked`` keeps only the slots predicted like
    the anchor's natural prediction, on both sides; a natural slot is
    judged by its natural prediction, an adversarial slot by its
    adversarial one.
    """
    n = len(labels)
    src = np.concatenate([np.arange(n)] * 2)
    lab = np.concatenate([labels, labels])
    other = src[:, None] != src[None, :]
    same = other & (lab[:, None] == lab[None, :])
    diff = other & (lab[:, None] != lab[None, :])
    if strategy == "global":
        return same, diff
    if strategy == "leaked":
        slot_pred = np.concatenate([preds_nat, preds_adv])
        anchor_pred = np.concatenate([preds_nat, preds_nat])
        like_anchor = slot_pred[None, :] == anchor_pred[:, None]
        return same & like_anchor, diff & like_anchor
    raise ValueError(f"no reference for strategy {strategy!r}")


def supcon(z_nat, z_adv, labels, preds_nat, preds_adv, strategy, tau):
    """Batch mean over samples of the natural- plus adversarial-anchor
    SupCon losses with cosine similarity (Khosla et al. 2020, as used by
    ASCL): each anchor's other view always counts as a positive."""
    n = len(labels)
    pool = np.concatenate([z_nat, z_adv])
    unit = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    sims = unit @ unit.T / tau
    pos, neg = selection_masks(strategy, labels, preds_nat, preds_adv)
    partner = np.zeros((2 * n, 2 * n), dtype=bool)
    partner[np.arange(n), np.arange(n) + n] = True
    partner[np.arange(n) + n, np.arange(n)] = True
    num = pos | partner
    den = num | neg
    per_anchor = _logsumexp(sims, den) - (sims * num).sum(axis=1) / num.sum(axis=1)
    return per_anchor.sum() / n


def objective(weights, x, y, x_adv, strategy, lambda_scl, lambda_vat, tau):
    """AT cross-entropy (natural + adversarial) + lambda_scl * SupCon +
    lambda_vat * KL(natural || adversarial), all batch means."""
    z_nat, logits_nat = forward(weights, x)
    z_adv, logits_adv = forward(weights, x_adv)
    rows = np.arange(len(y))
    logp, logq = _log_softmax(logits_nat), _log_softmax(logits_adv)
    total = -logp[rows, y].mean() - logq[rows, y].mean()
    if lambda_scl > 0:
        total += lambda_scl * supcon(z_nat, z_adv, y, logits_nat.argmax(axis=1),
                                     logits_adv.argmax(axis=1), strategy, tau)
    if lambda_vat > 0:
        total += lambda_vat * (np.exp(logp) * (logp - logq)).sum(axis=1).mean()
    return float(total)


def check_objective(got, expected):
    if abs(got - expected) <= REL_TOL * abs(expected):
        return []
    return [f"total_loss {got!r} differs from the numpy objective {expected!r}"]


def check_identical(blobs, what):
    if all(b == blobs[0] for b in blobs[1:]):
        return []
    return [f"repeated seeded units gave different {what}"]


# -- evaluation ----------------------------------------------------------------


def check_in_ball(x, x_adv, epsilon, clip_range, what):
    x_adv = np.asarray(x_adv)
    errors = []
    if x_adv.shape != np.shape(x):
        return [f"{what}: output shape {x_adv.shape} differs from input {np.shape(x)}"]
    excess = float(np.max(np.abs(x_adv - x))) - epsilon
    if not excess <= BALL_TOL:
        errors.append(f"{what}: perturbation exceeds epsilon by {excess:.3g}")
    lo, hi = clip_range
    if not (np.all(x_adv >= lo) and np.all(x_adv <= hi)):
        errors.append(f"{what}: output leaves the clip range {clip_range}")
    return errors


def check_natural_accuracy(got, weights, x, y):
    _, logits = forward(weights, x)
    expected = float((logits.argmax(axis=1) == y).mean())
    if got == expected:
        return []
    return [f"accuracy under 'none' is {got!r}, numpy natural accuracy {expected!r}"]


def check_batch_invariant(acc_a, acc_b, what):
    if acc_a == acc_b:
        return []
    return [f"{what}: robust accuracy {acc_a!r} and {acc_b!r} differ across batch sizes"]


def divergences(z, z_adv, labels):
    """Mean anchor-to-positive and anchor-to-negative cosine distances over
    the pooled natural+adversarial latents; positives and negatives come
    from other source samples, anchors with an empty side are skipped."""
    n = len(labels)
    pool = np.concatenate([z, z_adv])
    src = np.concatenate([np.arange(n)] * 2)
    lab = np.concatenate([labels, labels])
    unit = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    dist = 1.0 - unit @ unit.T
    other = src[:, None] != src[None, :]
    out = []
    for mask in (other & (lab[:, None] == lab[None, :]),
                 other & (lab[:, None] != lab[None, :])):
        counts = mask.sum(axis=1)
        keep = counts > 0
        out.append(max(float(((dist * mask).sum(axis=1)[keep] / counts[keep]).mean()), 0.0))
    return tuple(out)


def check_divergences(got_plus, got_minus, expected):
    errors = []
    for name, got, exp in (("d_a_plus", got_plus, expected[0]),
                           ("d_a_minus", got_minus, expected[1])):
        if not abs(got - exp) <= REL_TOL * abs(exp):
            errors.append(f"{name} {got!r} differs from the numpy value {exp!r}")
    return errors
