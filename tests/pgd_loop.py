"""Full-length reference loop of PGD.

Every row takes all ``cfg.steps`` steps, and every projection is the plain
``project_linf``, so the tests use ``pgd_loop`` as the oracle that
``attacks._pgd``, which stops stepping settled rows, must equal bit for
bit. It takes ``_pgd``'s arguments, so a test can also put it in
``_pgd``'s place for a whole run.
"""

import numpy as np

from ascl.attacks import _random_start
from ascl.errors import ContractError


def project_linf(x_adv, x_orig, epsilon, clip_range=(0.0, 1.0)):
    """Clamp x_adv into the epsilon ball around x_orig, then into clip_range:
    the oracle for the attack's clamp and, through ``pgd_loop``, for PGD."""
    if epsilon < 0:
        raise ContractError("epsilon must be nonnegative")
    x_adv = np.asarray(x_adv, dtype=np.float64)
    x_orig = np.asarray(x_orig, dtype=np.float64)
    lo, hi = clip_range
    out = np.minimum(np.maximum(x_adv, x_orig - epsilon), x_orig + epsilon)
    return np.clip(out, lo, hi)


def pgd_loop(model, x, goal, targeted, cfg, seed, indices, iterates=None):
    """``cfg.steps`` signed-gradient steps on every row of ``x`` toward ``goal``
    (descending its cross-entropy when ``targeted``), from the random start of
    ``(*seed, indices[i])`` if ``cfg.random_init``. Each iterate, the start
    included, is appended to ``iterates`` if that is a list."""
    x = np.array(x, dtype=np.float64)
    x_adv = x.copy()
    if cfg.random_init:
        noise = _random_start(seed, indices, x.shape, cfg.epsilon)
        x_adv = project_linf(x + noise, x, cfg.epsilon, cfg.clip_range)
    if iterates is not None:
        iterates.append(x_adv)
    for _ in range(cfg.steps):
        step = cfg.eta * np.sign(model._input_gradient(x_adv, goal))
        x_adv = project_linf(x_adv - step if targeted else x_adv + step,
                             x, cfg.epsilon, cfg.clip_range)
        if iterates is not None:
            iterates.append(x_adv)
    return x_adv


def pgd_attack_loop(model, x, y, cfg, seed=0, targets=None, index_base=0, iterates=None):
    """``pgd_attack``'s contract on ``pgd_loop``: targeted exactly when ``targets``
    are given, row ``i`` on the stream of ``index_base + i``, and ``x`` itself at
    epsilon 0."""
    x = np.array(x, dtype=np.float64)
    if cfg.epsilon == 0:
        return x
    goal = np.asarray(y if targets is None else targets, dtype=np.intp)
    indices = np.arange(index_base, index_base + x.shape[0], dtype=np.uint64)
    return pgd_loop(model, x, goal, targets is not None, cfg, seed, indices, iterates)


def row_steps(iterates):
    """Per row, the gradient rows ``attacks._pgd`` spends on the trajectory
    ``iterates`` (from ``pgd_loop``): the steps up to the one after which the row
    is not stepped again. A row stops at the first step ``t`` of ``T`` whose new
    iterate has the bits of the iterate two steps back (the start, on the first
    step), or ``(T - t) mod p`` steps after the first step ``t`` whose new iterate
    has the bits of its anchor from step ``a``, ``p = t - a``, checked only where
    ``2 < p <= T - t``. The anchor is the iterate of each power-of-two step ``a``
    from 8 on with ``a + 6 <= T``; before step 8 there is none."""
    bits = [a.view(np.uint64) for a in iterates]
    steps = len(iterates) - 1
    spent = []
    for r in range(iterates[0].shape[0]):
        stop, anchor = steps, None
        for t in range(1, steps + 1):
            if np.array_equal(bits[t][r], bits[max(t - 2, 0)][r]):
                stop = t
                break
            if (anchor is not None and 2 < t - anchor <= steps - t
                    and np.array_equal(bits[t][r], bits[anchor][r])):
                stop = t + (steps - t) % (t - anchor)
                break
            if t & (t - 1) == 0 and 8 <= t <= steps - 6:
                anchor = t
        spent.append(stop)
    return spent


def settled_row_steps(iterates):
    """Gradient rows ``attacks._pgd`` spends on the trajectory ``iterates`` in
    all (``row_steps``)."""
    return sum(row_steps(iterates))
