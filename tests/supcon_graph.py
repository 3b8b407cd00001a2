"""The SupCon term as a composition of engine ops, the form
``ascl.losses.supcon_batch`` had before it became one node.

Cosine similarities come from the test-local ``power``, ``sqrt`` and
``transpose`` nodes below, which keep the VJPs the engine once had, kink
convention included; then a masked ``log_sum_exp`` and the numerator mean.
The node does not round like this composition, so the tests hold it to the
composition within a tolerance. ``supcon_loop`` builds its similarities from
the same helpers.
"""

import numpy as np

from ascl.errors import ContractError, DimensionError
from ascl.tensor import Tensor
from mlp_graph import add, div, log_sum_exp, matmul, mul, sub, sum_


def power(t: Tensor, exponent) -> Tensor:
    """Elementwise ``t ** exponent``."""
    e = float(exponent)
    a = t.data

    def vjp(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            d = e * a ** (e - 1.0)
        # kink convention at 0 for e < 1, mirroring sign(0) = 0
        return (g * np.where(np.isfinite(d), d, 0.0),)

    return Tensor._make(a ** e, (t,), vjp)


def sqrt(t: Tensor) -> Tensor:
    return power(t, 0.5)


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise DimensionError("transpose expects a 2-D tensor")
    return Tensor._make(t.data.T, (t,), lambda g: (g.T,))


def similarity_matrix(pool: Tensor) -> Tensor:
    """Pairwise cosine similarities of the pool's rows, (2N, h) -> (2N, 2N)."""
    norms = sqrt(sum_(mul(pool, pool), axis=1, keepdims=True))
    # an all-zero row stays zero: similarity 0 to every slot
    unit = div(pool, add(norms, Tensor(norms.data == 0.0)))
    return matmul(unit, transpose(unit))


def supcon_batch_composed(pool: Tensor, pos, neg, weights) -> Tensor:
    """Same contract as ``ascl.losses.supcon_batch``, op by op."""
    n = pos.shape[0]
    if pool.shape[0] != 2 * n:
        raise ContractError(f"pool of {pool.shape[0]} slots does not match {n} samples")
    partner = np.roll(np.eye(2 * n, dtype=bool), n, axis=1)
    num = np.tile(pos, (2, 1)) | partner
    den = num | np.tile(neg, (2, 1))
    sims = div(similarity_matrix(pool), weights.tau)
    lse = log_sum_exp(add(sims, Tensor(np.where(den, 0.0, -np.inf))), axis=1)
    num_mean = sum_(mul(sims, Tensor(num / num.sum(axis=1, keepdims=True))), axis=1)
    return div(sum_(sub(lse, num_mean)), float(n))
