import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascl.errors import ContractError, DimensionError, DomainError, GraphStateError
from ascl.tensor import Tensor, concat, cross_entropy, log_softmax, pairwise_lp
from supcon_loop import gather_rows


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return g


def assert_grad_close(analytic, fd, tol=1e-4):
    rel = np.abs(analytic - fd) / (np.abs(analytic) + 1e-8)
    assert rel.max() < tol, f"max rel err {rel.max()}"


class TestElementwise:
    def test_add(self):
        assert np.array_equal((Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_relu(self):
        assert np.array_equal(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            Tensor([1.0]) / Tensor([0.0])

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) + Tensor(np.ones(3))

    def test_incompatible_dims(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) * Tensor(np.ones((2, 4)))

    def test_scalar_broadcast(self):
        out = Tensor(np.ones((2, 2))) * 3.0
        assert np.array_equal(out.data, np.full((2, 2), 3.0))

    def test_broadcast_gradient_sums(self):
        b = Tensor(np.ones((1, 3)), requires_grad=True)
        out = (Tensor(np.ones((4, 3))) + b).sum()
        out.backward()
        assert np.array_equal(b.grad, np.full((1, 3), 4.0))

    def test_no_nan_after_finite_ops(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 5)))
        y = Tensor(rng.uniform(0.5, 2.0, size=(5, 5)))
        for out in [x + y, x - y, x * y, x / y, x.relu(), x.abs(), x.exp(),
                    x @ y, x.sum(), x.mean(axis=0), x.log_sum_exp(axis=1),
                    log_softmax(x)]:
            assert not np.any(np.isnan(out.data))


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(1).normal(size=(3, 3))
        assert np.array_equal((Tensor(a) @ Tensor(np.eye(3))).data, a)

    def test_hand_product(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        a = Tensor(a0, requires_grad=True)
        (a @ Tensor(b0)).sum().backward()
        fd = fd_gradient(lambda v: (v @ b0).sum(), a0, h=1e-6)
        rel = np.abs(a.grad - fd) / (np.abs(a.grad) + 1e-8)
        assert rel.max() < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            c = rng.normal(size=(5, 2))
            left = ((Tensor(a) @ Tensor(b)) @ Tensor(c)).data
            right = (Tensor(a) @ (Tensor(b) @ Tensor(c))).data
            assert np.abs(left - right).max() / (np.abs(left).max() + 1e-30) < 1e-10


class TestReductions:
    def test_mean_of_ones(self):
        assert Tensor(np.ones(4)).mean().item() == 1.0

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 2))).sum(axis=5)


class TestLogSumExp:
    def test_symmetric(self):
        assert Tensor([0.0, 0.0]).log_sum_exp().item() == pytest.approx(np.log(2), abs=1e-15)

    def test_shift_stability(self):
        assert Tensor([1000.0, 1000.0]).log_sum_exp().item() == pytest.approx(
            1000 + np.log(2), abs=1e-12)

    def test_keepdims_without_axis_matches_numpy(self):
        x = np.arange(6.0).reshape(2, 3)
        out = Tensor(x).log_sum_exp(keepdims=True)
        assert out.shape == np.exp(x).sum(keepdims=True).shape == (1, 1)
        assert out.item() == pytest.approx(np.log(np.exp(x).sum()), rel=1e-15)

    def test_overflow_free_large_inputs(self):
        out = Tensor([1e6, 1e6 - 1.0]).log_sum_exp().item()
        assert np.isfinite(out) and out > 1e6

    def test_high_precision_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=8)
            got = Tensor(x).log_sum_exp().item()
            with mpmath.workdps(50):
                want = float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in x)))
            assert abs(got - want) / abs(want) < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = np.array(xs)
        a = Tensor(x).log_sum_exp().item()
        b = Tensor(x + c).log_sum_exp().item() - c
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestLogSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(6).normal(size=(8, 3)))
        assert np.abs(np.exp(log_softmax(logits).data).sum(axis=1) - 1).max() < 1e-9

    def test_stable_for_large_logits(self):
        logp = log_softmax(Tensor([[1e3, -1e3, 0.0]])).data
        assert np.isfinite(logp).all()
        assert abs(np.exp(logp).sum() - 1) < 1e-9

    def test_cross_entropy_is_negated_log_softmax_bitwise(self):
        rng = np.random.default_rng(7)
        logits = Tensor(np.concatenate([rng.normal(size=(20, 4)), [[1e3, -1e3, 0.0, 5.0]]]))
        y = rng.integers(0, 4, size=21)
        want = -log_softmax(logits).data[np.arange(21), y]
        assert cross_entropy(logits, y).data.tobytes() == want.tobytes()


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_constant_function(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 0.0).sum().backward()
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_non_scalar_root(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            (x * x).backward()

    def test_consumed_graph(self):
        x = Tensor(2.0, requires_grad=True)
        out = x * x
        out.backward()
        with pytest.raises(GraphStateError):
            out.backward()

    def test_consumed_interior_node(self):
        x = Tensor(2.0, requires_grad=True)
        mid = x * x
        (mid * 1.0).backward()
        with pytest.raises(GraphStateError):
            (mid * 2.0).backward()

    def test_leaves_survive_consumption(self):
        x = Tensor(2.0, requires_grad=True)
        (x * x).backward()
        x.grad = None
        (x * 3.0).backward()
        assert x.grad == 3.0

    def test_independent_subgraph_linearity(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=4)
        b0 = rng.normal(size=4)

        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        ((a * a).sum() + (b.exp()).sum()).backward()
        joint_a, joint_b = a.grad.copy(), b.grad.copy()

        a2 = Tensor(a0, requires_grad=True)
        (a2 * a2).sum().backward()
        b2 = Tensor(b0, requires_grad=True)
        b2.exp().sum().backward()
        assert np.array_equal(joint_a, a2.grad)
        assert np.array_equal(joint_b, b2.grad)

    def test_diamond_accumulation(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        (y + y).backward()
        assert x.grad == pytest.approx(12.0)


def _random_ops(rng):
    """(name, tensor fn, numpy fn, data strategy) for the FD sweep."""
    return [
        ("add", lambda t, c: (t + Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("mul", lambda t, c: (t * Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("div", lambda t, c: (t / Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4)))),
        ("exp", lambda t, c: t.exp().sum(), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("relu", lambda t, c: t.relu().sum(), None,
         lambda: (rng.normal(size=(3, 4)) + 0.5, None)),
        ("abs", lambda t, c: t.abs().sum(), None,
         lambda: (rng.normal(size=(3, 4)) + 0.5, None)),
        ("pow", lambda t, c: (t ** 1.7).sum(), None,
         lambda: (rng.uniform(0.5, 2.0, size=(3, 4)), None)),
        ("matmul", lambda t, c: (t @ Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))),
        ("sum0", lambda t, c: (t.sum(axis=0) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("mean1", lambda t, c: (t.mean(axis=1) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("lse", lambda t, c: t.log_sum_exp(axis=1).sum(), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("log_softmax", lambda t, c: (log_softmax(t) * Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("cross_entropy", lambda t, c: cross_entropy(t, c).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.integers(0, 4, size=3))),
        ("transpose", lambda t, c: (t.transpose() @ Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 2)))),
        ("concat", lambda t, c: (concat([t, Tensor(c)]) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))),
        ("sqrt", lambda t, c: t.sqrt().sum(), None,
         lambda: (rng.uniform(0.5, 2.0, size=(3, 4)), None)),
        # the differentiated tensor is the broadcast side: backward sums
        # its gradient over the axes it was broadcast along
        ("sub_bcast", lambda t, c: ((Tensor(c) - t) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(1, 4)), rng.normal(size=(3, 4)))),
        ("mul_bcast", lambda t, c: ((t * Tensor(c)) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(1, 4)), rng.normal(size=(3, 4)))),
        ("div_bcast", lambda t, c: ((Tensor(c) / t) ** 2.0).sum(), None,
         lambda: (rng.uniform(0.5, 2.0, size=(1, 4)), rng.normal(size=(3, 4)))),
        ("mul_0d", lambda t, c: ((Tensor(c) * t) ** 2.0).sum(), None,
         lambda: (np.array(rng.normal()), rng.normal(size=(3, 4)))),
        ("neg", lambda t, c: ((-t) * Tensor(c)).sum(), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("sum1_keepdims", lambda t, c: (t.sum(axis=1, keepdims=True) ** 2.0).sum(), None,
         lambda: (rng.normal(size=(3, 4)), None)),
    ]


def test_fd_sweep_every_differentiable_op():
    """Per-op analytic gradients vs central differences on >= 100 random inputs."""
    rng = np.random.default_rng(6)
    ops = _random_ops(rng)
    trials_per_op = max(1, int(np.ceil(120 / len(ops))))
    total = 0
    for name, build, _, sample in ops:
        for _ in range(trials_per_op):
            x0, const = sample()
            t = Tensor(x0, requires_grad=True)
            build(t, const).backward()
            fd = fd_gradient(lambda v: build(Tensor(v), const).item(), x0)
            assert_grad_close(t.grad, fd)
            total += x0.size
    assert total >= 100


class TestGatherConcat:
    # the per-anchor oracle gathers rows with a one-hot matmul
    def test_gather_rows_values(self):
        t = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        assert np.array_equal(gather_rows(t, [2, 0]).data, t.data[[2, 0]])

    def test_gather_duplicate_accumulates(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        gather_rows(t, [1, 1]).sum().backward()
        assert np.array_equal(t.grad, [[0, 0], [2, 2], [0, 0]])

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 2)), requires_grad=True)
        (concat([a, b]) * Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).sum().backward()
        assert np.array_equal(a.grad, [[1, 2], [3, 4]])
        assert np.array_equal(b.grad, [[5, 6]])


class TestPairwiseLp:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_values_and_fd_gradient(self, p):
        rng = np.random.default_rng(int(p * 10))
        x0 = rng.normal(size=(5, 3))
        w = rng.normal(size=(5, 5))
        t = Tensor(x0, requires_grad=True)
        out = pairwise_lp(t, p)
        want = (np.abs(x0[:, None, :] - x0[None, :, :]) ** p).sum(axis=2)
        assert np.allclose(out.data, want, rtol=1e-14, atol=0.0)
        (out * Tensor(w)).sum().backward()
        fd = fd_gradient(lambda v: float((pairwise_lp(Tensor(v), p).data * w).sum()), x0)
        assert_grad_close(t.grad, fd)

    def test_zero_difference_has_zero_derivative(self):
        t = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]), requires_grad=True)
        pairwise_lp(t, 1.0).sum().backward()
        assert np.array_equal(t.grad, np.zeros((2, 2)))

    def test_contracts(self):
        with pytest.raises(DimensionError):
            pairwise_lp(Tensor(np.ones(3)), 2.0)
        with pytest.raises(ContractError):
            pairwise_lp(Tensor(np.ones((2, 2))), 0.5)
