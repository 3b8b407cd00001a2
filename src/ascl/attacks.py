"""L-infinity attacks: PGD with random start, multi-targeted PGD, and
robust-accuracy evaluation.

PGD ascends the cross-entropy of the true labels, or, when ``targets``
are given, descends the cross-entropy of the targets; nothing else
selects the targeted mode. At epsilon 0 every attack returns its input.

Determinism contract: the random start of sample ``i`` is a
counter-based hash of ``(*seed, i)`` and the feature index (SplitMix64,
in the counter-based style of Salmon et al., SC 2011), computed for the
whole batch at once. A row's stream depends only on its dataset index,
and every op on the input-gradient path works row by row, so attacking
a subset of rows gives exactly those rows of the whole batch's attack:
any batching, serial or per-sample-parallel evaluation agree bitwise.
Targeted runs reuse the same start.

Settled rows: a PGD step is therefore a function of the row's own bits, its
goal label and its ball bounds alone. So once a row's new iterate ``s[t]`` has
the bits of an earlier one ``s[a]``, the row repeats with period ``p = t - a``
from step ``a`` on, and its last iterate after ``T = cfg.steps`` steps is
``s[t + (T - t) mod p]``. Two comparisons find such rows. A row whose new
iterate has the bits of the iterate two steps back (on the first step, the
start) has period 1 or 2: it is not stepped again, and ends on whichever of its
last two iterates the parity of the steps left selects (one state at a fixed
point). Longer periods are found as in Brent's cycle search (Brent, BIT 1980):
each row keeps an anchor, its iterate at the last power-of-two step ``a`` from 8
on, and a new iterate is compared with it only where that can save a step,
``2 < p <= T - t``. A row that matches is stepped ``(T - t) mod p`` more times,
ends on that iterate, and is left. The two-back comparison still catches periods
1 and 2 as early as they can be caught. Anchors start at step 8 so that a PGD-10
saves and checks none: anchors at steps 1 and 2 are replaced before a check with
``p > 2`` could use them, and one at step 4 would cost every PGD-10 a save and a
check for the rare row in a 3- or 4-cycle by then. A cycle of period at most 8
entered by step 8 is still caught by step 16. This returns bit for bit what all
``cfg.steps`` steps return, with fewer gradient rows; states are compared as bit
patterns, so -0.0 and +0.0 are never taken for one state.

A model provides ``spec``, which ``check_batch`` and ``check_labels`` check a batch and
its labels against once, and two unchecked numpy passes: ``_input_gradient(x, labels)``,
d/dx of the summed cross-entropy, per PGD step, and ``_predict(x)``, latents and logits, to score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, check_batch, check_integer, check_labels, check_real,
                     check_seed)
from .tensor import _lse_softmax

__all__ = [
    "AttackConfig",
    "pgd_attack",
    "multi_targeted_pgd",
    "robust_accuracy",
]


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float = 8.0 / 255.0
    eta: float = 2.0 / 255.0
    steps: int = 10
    random_init: bool = True
    clip_range: tuple = (0.0, 1.0)

    def __post_init__(self):
        # written so that NaN fails them; an infinite eta times sign(0) is NaN
        if not check_real(self.epsilon, "epsilon") >= 0:
            raise ContractError("epsilon must be nonnegative")
        check_integer(self.steps, "steps", low=0)
        eta = check_real(self.eta, "eta")
        if self.steps > 0 and not 0 < eta < np.inf:
            raise ContractError("eta must be positive and finite when steps > 0")
        if not isinstance(self.random_init, bool):
            raise ContractError(f"random_init must be True or False, got {self.random_init!r}")
        low, high = self.clip_range
        if not check_real(low, "clip_range") < check_real(high, "clip_range"):
            raise ContractError("clip_range lower bound must be below upper bound")


def _seed_parts(seed):
    """``seed``, an integer or a tuple or list of them, as ints each in [0, 2**64)."""
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(check_seed(p, "attack seed parts") for p in parts)


_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z):
    """SplitMix64 finaliser (Steele, Lea & Flood, OOPSLA 2014): a bijection
    of uint64 values that scatters every input bit over the output. An
    array argument is overwritten."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _random_start(seed, indices, shape, epsilon):
    """Uniform noise in [-epsilon, epsilon) of ``shape``, counter-based.

    Row ``i`` is a pure function of ``(*seed, indices[i])`` and the column
    index: the seed parts and their count fold into a 64-bit key, the key
    mixed with the row's dataset index starts a SplitMix64 sequence, and
    the top 53 bits of its ``j``-th output give column ``j``.
    """
    parts = _seed_parts(seed)
    d = int(np.prod(shape[1:]))
    # uint64 arithmetic wraps by design; numpy warns on scalar wraparound
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(len(parts)))
        for p in parts:
            key = _mix64(key ^ np.uint64(p))
        rows = _mix64(key ^ np.asarray(indices, dtype=np.uint64))
        cols = np.arange(1, d + 1, dtype=np.uint64) * _GAMMA
        bits = _mix64(rows[:, None] + cols) >> np.uint64(11)
    u = bits * 2.0**-53
    return (epsilon * (2.0 * u - 1.0)).reshape(shape)


def _ball(x, epsilon, clip_range):
    """Bounds ``lo``, ``hi`` of the epsilon ball around ``x`` cut to ``clip_range``."""
    return np.maximum(clip_range[0], x - epsilon), np.minimum(clip_range[1], x + epsilon)


def _clamp(v, lo, hi):
    """In-place clamp of ``v`` into ``[lo, hi]``, for ``lo``, ``hi`` from ``_ball`` of an x
    in ``clip_range``. Where ``v`` equals a bound, ``v`` is kept, so a -0.0 stays -0.0."""
    return np.minimum(hi, np.maximum(lo, v, out=v), out=v)


def _same_rows(a, b):
    """Per row, whether ``a`` and ``b`` hold the same bits, so that -0.0 and +0.0, or
    two NaN payloads, are never taken for one state."""
    return (a.view(np.uint64) == b.view(np.uint64)).all(axis=1)


def _checked(model, x, cfg):
    x = check_batch(np.array(x, dtype=np.float64), model.spec.input_dim, "attack input")
    if not np.all((x >= cfg.clip_range[0]) & (x <= cfg.clip_range[1])):
        raise ContractError("input batch lies outside clip_range")
    return x


def pgd_attack(model, x, y, cfg: AttackConfig, seed=0, targets=None, index_base=0):
    """Iterated signed-gradient attack inside the epsilon ball.

    Untargeted: ascend cross-entropy against the true labels ``y``.
    Targeted, exactly when ``targets`` is given: descend cross-entropy
    toward ``targets``. At epsilon 0 the input comes back unchanged, with
    no gradient pass. Model weights and the input batch are never mutated.
    The random start of row ``i`` hashes ``(*seed, index_base + i)``
    (``_random_start``), so splitting a dataset into batches does not
    change any sample's start. Each seed part must lie in [0, 2**64).
    Each iterate is clamped into the epsilon ball around ``x``, then into
    ``cfg.clip_range``; where it equals a bound, it is kept (``_clamp``).
    """
    seed = _seed_parts(seed)
    x = _checked(model, x, cfg)
    targeted = targets is not None
    goal = check_labels(targets if targeted else y, model.spec.num_classes, x.shape[0])
    if cfg.epsilon == 0:
        return x
    indices = np.arange(index_base, index_base + x.shape[0], dtype=np.uint64)
    return _pgd(model, x, goal, targeted, cfg, seed, indices)


def _pgd(model, x, goal, targeted, cfg, seed, indices):
    """``pgd_attack``'s loop at epsilon > 0 on a checked batch and ``goal``, row ``i``
    from index ``indices[i]``. ``rows``, ``cur``, ``prev``, ``goal``, ``lo`` and ``hi``
    hold the rows still stepped, cut only on a step where some row leaves: its new
    iterate at step ``t`` of ``T`` has the bits of ``prev``, or it matched its anchor
    ``(T - t) mod p`` steps before (module docstring). ``anchor`` and ``stop``, the
    step a looped row leaves on, are indexed by output row, so no cut touches them;
    both are made at the first anchor, and ``stops`` holds the pending stop steps. An
    anchor is saved only where a later check can use it, ``a + 6 <= T``, as a check
    needs ``3 <= p <= T - t``."""
    lo, hi = _ball(x, cfg.epsilon, cfg.clip_range)
    if cfg.random_init:
        out = _clamp(x + _random_start(seed, indices, x.shape, cfg.epsilon), lo, hi)
    else:
        out = x.copy()
    # x - eta * s and x + (-eta) * s are the same IEEE result
    eta = -cfg.eta if targeted else cfg.eta
    steps = cfg.steps
    rows, cur, prev = np.arange(x.shape[0]), out, out
    # no anchor yet: t - inf fails every check
    anchor, stop, anchor_step, stops = None, None, math.inf, set()

    for t in range(1, steps + 1):
        left = steps - t
        new = np.sign(model._input_gradient(cur, goal))
        new *= eta
        new = _clamp(np.add(cur, new, out=new), lo, hi)
        if 2 < t - anchor_step <= left:
            looped = _same_rows(new, anchor.take(rows, axis=0))
            if looped.any():
                stop[rows[looped]] = end = t + left % (t - anchor_step)
                stops.add(end)
        done = settled = _same_rows(new, prev)
        if t in stops:
            ending = stop[rows] == t
            out[rows[ending]] = new[ending]
            done = settled | ending
        if done.any():
            # a 2-cycle ends on new after an even number of further steps and
            # on cur after an odd one; at a fixed point new and cur are one state
            out[rows[settled]] = (cur if left % 2 else new)[settled]
            keep = np.flatnonzero(~done)
            if keep.size == 0:
                return out
            rows, cur, new, goal, lo, hi = (a.take(keep, axis=0)
                                            for a in (rows, cur, new, goal, lo, hi))
        if t & (t - 1) == 0 and 8 <= t <= steps - 6:
            if anchor is None:
                anchor, stop = np.empty_like(out), np.zeros(x.shape[0], dtype=np.intp)
            anchor[rows] = new
            anchor_step = t
        prev, cur = cur, new
    out[rows] = cur
    return out


def multi_targeted_pgd(model, x, y, cfg: AttackConfig, seed=0, index_base=0):
    """Best-of targeted PGD over every wrong class.

    Per sample, returns the first candidate (in class order) that flips the
    prediction; otherwise the candidate with the largest untargeted
    cross-entropy loss. Every targeted run reuses the same per-sample
    random start, so with two classes this equals one targeted attack. A
    decided row is not attacked again, nor is a row toward its own label.
    """
    seed = _seed_parts(seed)
    c = model.spec.num_classes
    if c < 2:
        raise ContractError("multi-targeted attack requires at least 2 classes")
    x = _checked(model, x, cfg)
    y = check_labels(y, c, x.shape[0])
    if cfg.epsilon == 0:
        return x

    best = x.copy()
    decided = np.zeros(x.shape[0], dtype=bool)
    best_loss = np.full(x.shape[0], -np.inf)

    for t in range(c):
        rows = np.flatnonzero((y != t) & ~decided)
        if rows.size == 0:
            continue
        cand = _pgd(model, x[rows], np.full(rows.size, t, dtype=np.intp), True, cfg, seed,
                    index_base + rows)
        logits_c = model._predict(cand)[1]
        ce = _lse_softmax(logits_c, 1)[0][:, 0] - logits_c[np.arange(rows.size), y[rows]]

        flipped = np.argmax(logits_c, axis=1) != y[rows]
        decided[rows[flipped]] = True
        improved = ~flipped & (ce > best_loss[rows])
        best_loss[rows[improved]] = ce[improved]
        best[rows[flipped | improved]] = cand[flipped | improved]
    return best


def attack_by_name(name):
    if name == "none":
        return lambda model, x, y, cfg, seed=0, index_base=0: np.array(x, dtype=np.float64)
    if name == "pgd":
        return pgd_attack
    if name == "mpgd":
        return multi_targeted_pgd
    raise ContractError(f"unknown attack {name!r}")


def robust_accuracy(model, features, labels, attack, cfg: AttackConfig,
                    seed=0, batch_size=256, latents=None):
    """Fraction of samples still predicted correctly after the attack.

    ``attack`` is "none", "pgd", "mpgd" or a callable with pgd_attack's signature. Attacks
    run per batch, each sample on its own stream, so batch_size changes no result. One
    ``_predict`` scores each attacked batch; its latents join ``latents`` if that is a list.
    """
    features = check_batch(features, model.spec.input_dim, "features")
    if features.shape[0] == 0 or not np.all(np.isfinite(features)):
        raise ContractError("robust_accuracy needs a non-empty dataset of finite features")
    labels = check_labels(labels, model.spec.num_classes, features.shape[0])
    batch_size = check_integer(batch_size, "batch_size")
    fn = attack_by_name(attack) if isinstance(attack, str) else attack

    correct = 0
    for lo in range(0, features.shape[0], batch_size):
        xb = features[lo:lo + batch_size]
        yb = labels[lo:lo + batch_size]
        z, logits = model._predict(fn(model, xb, yb, cfg, seed=seed, index_base=lo))
        if latents is not None:
            latents.append(z)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return correct / features.shape[0]
