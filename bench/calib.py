"""Reference loop that calibrates every reported time against the speed
the vCPU happens to run at.

The loop never calls ``ascl``. It is a fixed mix of small numpy ops and
interpreter work shaped like the engine's: a tape of closures built over
a tiny MLP forward, walked in reverse for the backward, plus a few
per-sample generator constructions like the attack's random start.

A timed unit is bracketed by two reference measurements. Its calibrated
time is ``raw * R_NOMINAL / mean(R_before, R_after)``, so the unit of a
calibrated time stays seconds.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of one reference chunk, in seconds: about the median chunk
# time of this loop on the 2-vCPU VM the benchmark was tuned on, in its
# slower state (about 4 ms fast, 6 ms slow).
R_NOMINAL = 0.006
CHUNKS = 9


class _Node:
    __slots__ = ("value", "grad", "back")

    def __init__(self, value, back):
        self.value = value
        self.grad = None
        self.back = back


def _chunk(x, w1, w2, onehot, pool):
    tape = []

    def record(value, back):
        node = _Node(value, back)
        tape.append(node)
        return node

    for _ in range(30):
        a = record(x @ w1.value, lambda g: g @ w1.value.T)
        h = record(np.maximum(a.value, 0.0), lambda g, a=a: g * (a.value > 0.0))
        logits = record(h.value @ w2.value, lambda g: g @ w2.value.T)
        m = logits.value.max(axis=1, keepdims=True)
        e = np.exp(logits.value - m)
        soft = e / e.sum(axis=1, keepdims=True)
        loss = -(np.log(soft) * onehot).sum()
        g = (soft - onehot) / x.shape[0]
        for node in reversed(tape):
            node.grad = g
            g = node.back(g)
        tape.clear()
        w2.value = w2.value - 1e-3 * (h.value.T @ (soft - onehot))
    for i in range(100):
        rng = np.random.default_rng((7, i))
        rng.uniform(-0.1, 0.1, size=2)
    # batch-256 cosine similarities, like the contrastive term and the
    # divergence report
    unit = pool / np.sqrt((pool * pool).sum(axis=1, keepdims=True))
    for _ in range(4):
        sims = unit @ unit[:128].T / 0.07
        e = np.exp(sims - sims.max(axis=1, keepdims=True))
        loss += np.log(e.sum(axis=1)).mean()
        unit = unit - 1e-6 * (e @ unit[:128])
    return float(loss)


def _inputs():
    rng = np.random.default_rng(20210125)
    x = rng.uniform(size=(64, 16))
    w1 = _Node(rng.standard_normal((16, 32)) * 0.3, None)
    w2 = _Node(rng.standard_normal((32, 10)) * 0.3, None)
    onehot = np.eye(10)[rng.integers(0, 10, size=64)]
    pool = rng.standard_normal((256, 32))
    return x, w1, w2, onehot, pool


def reference(chunks=CHUNKS):
    """Median seconds per reference chunk, measured now."""
    inputs = _inputs()
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _chunk(*inputs)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def calibrated(raw_s, r_before, r_after):
    """Raw seconds rescaled to the nominal reference speed."""
    return raw_s * R_NOMINAL / ((r_before + r_after) / 2.0)
