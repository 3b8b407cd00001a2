"""Full-batch reference implementation of multi-targeted PGD.

Every targeted run attacks the whole batch, rows already decided by an
earlier target and rows labelled with the target included, and takes every
PGD step on every row (``pgd_loop``); the selection masks run over all rows.
It is the plain form of the loop, so the tests use it as the oracle that
``multi_targeted_pgd`` must equal bit for bit.
"""

import numpy as np

from ascl.errors import ContractError
from ascl.tensor import Tensor
from mlp_graph import cross_entropy
from pgd_loop import pgd_attack_loop


def multi_targeted_pgd_loop(model, x, y, cfg, seed=0, index_base=0):
    """Per sample, the first candidate (in class order) that flips the
    prediction; otherwise the candidate with the largest untargeted
    cross-entropy loss."""
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
        cand = pgd_attack_loop(model, x, y, cfg, seed=seed, targets=targets,
                               index_base=index_base)
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
