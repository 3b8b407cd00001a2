"""L-infinity attacks: PGD with random start, multi-targeted PGD, ball
projection, and robust-accuracy evaluation.

PGD ascends the cross-entropy of the true labels, or, when ``targets``
are given, descends the cross-entropy of the targets; nothing else
selects the targeted mode. At epsilon 0 every attack returns its input.

Determinism contract: the random start of sample ``i`` is a
counter-based hash of ``(*seed, i)`` and the feature index (SplitMix64,
in the counter-based style of Salmon et al., SC 2011), computed for the
whole batch at once. No sample's start depends on the others in its
batch, so any batching, serial or per-sample-parallel evaluation agree
bitwise. Targeted runs reuse the same start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import Tensor, cross_entropy

__all__ = [
    "AttackConfig",
    "project_linf",
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
        # written so that NaN fails them
        if not self.epsilon >= 0:
            raise ContractError("epsilon must be nonnegative")
        if self.steps < 0:
            raise ContractError("steps must be nonnegative")
        if self.steps > 0 and not self.eta > 0:
            raise ContractError("eta must be positive when steps > 0")
        if not self.clip_range[0] < self.clip_range[1]:
            raise ContractError("clip_range lower bound must be below upper bound")


def _seed_parts(seed):
    parts = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    if not all(0 <= p < 2**64 for p in parts):
        raise ContractError("attack seed parts must lie in [0, 2**64)")
    return parts


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


def _random_start(seed, index_base, shape, epsilon):
    """Uniform noise in [-epsilon, epsilon) of ``shape``, counter-based.

    Row ``i`` is a pure function of ``(*seed, index_base + i)`` and the
    column index: the seed parts and their count fold into a 64-bit key,
    the key mixed with the row index starts a SplitMix64 sequence, and the
    top 53 bits of its ``j``-th output give column ``j``.
    """
    parts = _seed_parts(seed)
    n, d = shape[0], int(np.prod(shape[1:]))
    # uint64 arithmetic wraps by design; numpy warns on scalar wraparound
    with np.errstate(over="ignore"):
        key = _mix64(np.uint64(len(parts)))
        for p in parts:
            key = _mix64(key ^ np.uint64(p))
        rows = _mix64(key ^ np.arange(index_base, index_base + n, dtype=np.uint64))
        cols = np.arange(1, d + 1, dtype=np.uint64) * _GAMMA
        bits = _mix64(rows[:, None] + cols) >> np.uint64(11)
    u = bits * 2.0**-53
    return (epsilon * (2.0 * u - 1.0)).reshape(shape)


def project_linf(x_adv, x_orig, epsilon, clip_range=(0.0, 1.0)):
    """Clamp x_adv into the epsilon ball around x_orig, then into clip_range."""
    if epsilon < 0:
        raise ContractError("epsilon must be nonnegative")
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x_orig = np.asarray(x_orig, dtype=np.float64)
    lo, hi = clip_range
    out = np.minimum(np.maximum(x_adv, x_orig - epsilon), x_orig + epsilon)
    return np.clip(out, lo, hi)


def _ball_clamp(x, epsilon, clip_range):
    """``v -> project_linf(v, x, epsilon, clip_range)`` for x in ``clip_range``,
    bounds computed once. Ties go to ``v``, so it is equal bit for bit, save
    that project_linf gives +0.0 for a v of -0.0 on a +0.0 ball bound (or
    x of -0.0 at epsilon 0); no PGD iterate is such a v."""
    lo = np.maximum(clip_range[0], x - epsilon)
    hi = np.minimum(clip_range[1], x + epsilon)
    return lambda v: np.minimum(hi, np.maximum(lo, v))


def _input_gradient(model, x_adv, labels):
    """Gradient of summed cross-entropy against ``labels`` at x_adv, from a
    backward toward the input alone; fresh graph per call."""
    xt = Tensor(x_adv, requires_grad=True)
    cross_entropy(model.forward(xt), labels).sum().backward(inputs=(xt,))
    return xt.grad


def pgd_attack(model, x, y, cfg: AttackConfig, seed=0, targets=None, index_base=0):
    """Iterated signed-gradient attack inside the epsilon ball.

    Untargeted: ascend cross-entropy against the true labels ``y``.
    Targeted, exactly when ``targets`` is given: descend cross-entropy
    toward ``targets``. At epsilon 0 the input comes back unchanged, with
    no gradient pass. Model weights and the input batch are never mutated.
    The random start of row ``i`` hashes ``(*seed, index_base + i)``
    (``_random_start``), so splitting a dataset into batches does not
    change any sample's start. Each seed part must lie in [0, 2**64).
    Iterates are projected by ``_ball_clamp``, which equals ``project_linf``.
    """
    x = np.array(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    lo, hi = cfg.clip_range
    if not np.all((x >= lo) & (x <= hi)):
        raise ContractError("input batch lies outside clip_range")
    if cfg.epsilon == 0:
        return x
    targeted = targets is not None
    goal = np.asarray(targets, dtype=np.intp) if targeted else y

    project = _ball_clamp(x, cfg.epsilon, cfg.clip_range)
    if cfg.random_init:
        x_adv = project(x + _random_start(seed, index_base, x.shape, cfg.epsilon))
    else:
        x_adv = x.copy()

    for _ in range(cfg.steps):
        grad = _input_gradient(model, x_adv, goal)
        if grad is None:
            break
        step = cfg.eta * np.sign(grad)
        x_adv = x_adv - step if targeted else x_adv + step
        x_adv = project(x_adv)
    return x_adv


def multi_targeted_pgd(model, x, y, cfg: AttackConfig, seed=0, index_base=0):
    """Best-of targeted PGD over every wrong class.

    Per sample, returns the first candidate (in class order) that flips the
    prediction; otherwise the candidate with the largest untargeted
    cross-entropy loss. Every targeted run reuses the same per-sample
    random start, so with two classes this equals one targeted attack.
    """
    x = np.array(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    c = model.spec.num_classes
    if c < 2:
        raise ContractError("multi-targeted attack requires at least 2 classes")

    n = x.shape[0]
    best = x.copy()
    decided = np.zeros(n, dtype=bool)
    best_loss = np.full(n, -np.inf)

    for t in range(c):
        targets = np.full(n, t, dtype=np.intp)
        active = targets != y
        if not np.any(active):
            continue
        cand = pgd_attack(model, x, y, cfg, seed=seed, targets=targets, index_base=index_base)
        # keep values only: the candidate's graph is freed before the next attack
        logits_c = model.forward(cand).data
        preds_c = np.argmax(logits_c, axis=1)
        ce = cross_entropy(Tensor(logits_c), y).data

        flipped = active & ~decided & (preds_c != y)
        best[flipped] = cand[flipped]
        decided |= flipped

        improved = active & ~decided & (ce > best_loss)
        best[improved] = cand[improved]
        best_loss[improved] = ce[improved]
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

    ``attack`` is one of "none"/"pgd"/"mpgd" or a callable with the
    pgd_attack signature. Attacks run per batch; per-sample seeding keeps
    the result independent of batch_size. Each batch is encoded once; when
    ``latents`` is a list, each batch's latent array is appended to it.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if features.shape[0] == 0:
        raise ContractError("robust_accuracy on an empty dataset")
    fn = attack_by_name(attack) if isinstance(attack, str) else attack

    correct = 0
    for lo in range(0, features.shape[0], batch_size):
        xb = features[lo:lo + batch_size]
        yb = labels[lo:lo + batch_size]
        z = model.encode(fn(model, xb, yb, cfg, seed=seed, index_base=lo))
        if latents is not None:
            latents.append(z.data)
        preds = np.argmax(model.classify(z).data, axis=1)
        correct += int((preds == yb).sum())
        # free the batch's graph before the next batch's attack: held across
        # it, glibc trimmed and re-faulted the attack's heap pages every step
        del z
    return correct / features.shape[0]
