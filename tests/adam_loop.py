"""Reference Adam: one pass per parameter array, a new array per update.

It is the per-array loop ``ascl.training.Adam`` had before it moved the
parameters into one flat buffer. The arithmetic is elementwise the same, so
the tests require the two to agree bit for bit.
"""

import numpy as np

from ascl.training import _BETA1, _BETA2, _EPS


class AdamLoop:
    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self, grads):
        """One update from ``grads`` in ``params`` order, skipping a ``None``."""
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if g is None:
                continue
            m *= _BETA1
            m += (1 - _BETA1) * g
            v *= _BETA2
            v += (1 - _BETA2) * g ** 2
            mhat = m / (1 - _BETA1 ** self.t)
            vhat = v / (1 - _BETA2 ** self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + _EPS)
