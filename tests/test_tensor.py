import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascl.errors import ContractError, DimensionError, DomainError
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from mlp_graph import (add, concat, cross_entropy, div, exp, log_softmax, log_sum_exp, matmul,
                       mean, mul, relu, sub, sum_)
from supcon_loop import gather_rows
from vjp_spy import count_vjp_calls


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
        assert np.array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])

    def test_relu(self):
        assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            div(Tensor([1.0]), Tensor([0.0]))

    def test_rank_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))

    def test_incompatible_dims(self):
        with pytest.raises(DimensionError):
            mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_scalar_broadcast(self):
        out = mul(Tensor(np.ones((2, 2))), 3.0)
        assert np.array_equal(out.data, np.full((2, 2), 3.0))

    def test_broadcast_gradient_sums(self):
        b = Tensor(np.ones((1, 3)))
        out = sum_(add(Tensor(np.ones((4, 3))), b))
        assert np.array_equal(out.backward((b,))[0], np.full((1, 3), 4.0))

    def test_no_nan_after_finite_ops(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 5)))
        y = Tensor(rng.uniform(0.5, 2.0, size=(5, 5)))
        for out in [add(x, y), sub(x, y), mul(x, y), div(x, y), relu(x), exp(x),
                    matmul(x, y), sum_(x), mean(x, axis=0), log_sum_exp(x, axis=1),
                    log_softmax(x)]:
            assert not np.any(np.isnan(out.data))


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(1).normal(size=(3, 3))
        assert np.array_equal(matmul(Tensor(a), Tensor(np.eye(3))).data, a)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(3, 3))
        b0 = rng.normal(size=(3, 3))

        a = Tensor(a0)
        (g,) = sum_(matmul(a, Tensor(b0))).backward((a,))
        fd = fd_gradient(lambda v: (v @ b0).sum(), a0, h=1e-6)
        rel = np.abs(g - fd) / (np.abs(g) + 1e-8)
        assert rel.max() < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.normal(size=(4, 3))
            b = rng.normal(size=(3, 5))
            c = rng.normal(size=(5, 2))
            left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
            assert np.abs(left - right).max() / (np.abs(left).max() + 1e-30) < 1e-10


class TestReductions:
    def test_mean_of_ones(self):
        assert mean(Tensor(np.ones(4))).item() == 1.0

    def test_invalid_axis(self):
        with pytest.raises(DimensionError):
            sum_(Tensor(np.ones((2, 2))), axis=5)


class TestLogSumExp:
    def test_symmetric(self):
        assert log_sum_exp(Tensor([0.0, 0.0])).item() == pytest.approx(np.log(2), abs=1e-15)

    def test_shift_stability(self):
        assert log_sum_exp(Tensor([1000.0, 1000.0])).item() == pytest.approx(
            1000 + np.log(2), abs=1e-12)

    def test_keepdims_without_axis_matches_numpy(self):
        x = np.arange(6.0).reshape(2, 3)
        out = log_sum_exp(Tensor(x), keepdims=True)
        assert out.shape == np.exp(x).sum(keepdims=True).shape == (1, 1)
        assert out.item() == pytest.approx(np.log(np.exp(x).sum()), rel=1e-15)

    def test_overflow_free_large_inputs(self):
        out = log_sum_exp(Tensor([1e6, 1e6 - 1.0])).item()
        assert np.isfinite(out) and out > 1e6

    def test_high_precision_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=8)
            got = log_sum_exp(Tensor(x)).item()
            with mpmath.workdps(50):
                want = float(mpmath.log(mpmath.fsum(mpmath.exp(v) for v in x)))
            assert abs(got - want) / abs(want) < 1e-12

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(-1000, 1000))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = np.array(xs)
        a = log_sum_exp(Tensor(x)).item()
        b = log_sum_exp(Tensor(x + c)).item() - c
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

    @pytest.mark.parametrize("bad", [4, -1])
    def test_cross_entropy_label_outside_the_classes_is_a_contract_error(self, bad):
        # a label of -1 would otherwise take the last class's one-hot row
        y = np.array([0, 3, bad, 1])
        with pytest.raises(ContractError, match="labels"):
            cross_entropy(Tensor(np.zeros((4, 4))), y)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0])
        assert np.array_equal(sum_(mul(x, x)).backward((x,))[0], [2.0, 4.0])

    def test_constant_function(self):
        x = Tensor([1.0, 2.0])
        assert np.array_equal(sum_(mul(x, 0.0)).backward((x,))[0], [0.0, 0.0])

    def test_non_scalar_root(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ContractError):
            mul(x, x).backward((x,))

    def test_walking_one_graph_twice_gives_equal_gradients(self):
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(5,), num_classes=3), seed=1)
        rng = np.random.default_rng(1)
        xt = Tensor(rng.uniform(size=(6, 3)))
        inputs = (xt, *model.parameters)
        root = sum_(cross_entropy(model.forward(xt), rng.integers(0, 3, size=6)))
        first = root.backward(inputs)
        second = root.backward(inputs)
        assert all(_bitwise_equal(a, b) for a, b in zip(first, second))

    def test_two_roots_over_a_shared_interior_node(self):
        x = Tensor([1.5, -2.0, 0.25])
        mid = mul(x, x)
        r1 = sum_(mul(mid, 3.0))
        r2 = sum_(mul(mid, -0.5))
        for root, want in [(r1, 6.0 * x.data), (r2, -x.data), (r1, 6.0 * x.data)]:
            assert np.array_equal(root.backward((x,))[0], want)

    def test_leaves_survive_consumption(self):
        x = Tensor(2.0)
        mul(x, x).backward((x,))
        assert mul(x, 3.0).backward((x,))[0] == 3.0

    def test_independent_subgraph_linearity(self):
        rng = np.random.default_rng(5)
        a0 = rng.normal(size=4)
        b0 = rng.normal(size=4)

        a = Tensor(a0)
        b = Tensor(b0)
        joint_a, joint_b = add(sum_(mul(a, a)), sum_(exp(b))).backward((a, b))

        a2 = Tensor(a0)
        b2 = Tensor(b0)
        assert np.array_equal(joint_a, sum_(mul(a2, a2)).backward((a2,))[0])
        assert np.array_equal(joint_b, sum_(exp(b2)).backward((b2,))[0])

    def test_diamond_accumulation(self):
        x = Tensor(3.0)
        y = mul(x, x)
        assert add(y, y).backward((x,))[0] == pytest.approx(12.0)

    def test_parents_sharing_one_vjp_array_get_their_own_grads(self):
        # add's VJP hands the same array to both parents; x then gets a
        # second contribution, which must not reach y's gradient
        x = Tensor(np.ones(3))
        y = Tensor(np.ones(3))
        c = np.array([1.0, 2.0, 3.0])
        gx, gy = add(sum_(mul(add(x, y), Tensor(c))), sum_(mul(x, 3.0))).backward((x, y))
        assert np.array_equal(gx, c + 3.0)
        assert np.array_equal(gy, c)

    def test_input_the_root_does_not_reach_gets_none(self):
        x = Tensor(2.0)
        other = Tensor(1.0)
        assert mul(x, x).backward((other, x))[0] is None


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _chain(root, k):
    """``root`` and its first-parent ancestors, ``k`` nodes in all."""
    nodes = [root]
    while len(nodes) < k:
        nodes.append(nodes[-1]._parents[0])
    return nodes


def _grads(build, arrays, weights):
    """Forward value and the gradient of every input from a backward through
    ``sum_(build(*inputs) * weights)``."""
    inputs = [Tensor(a) for a in arrays]
    out = build(*inputs)
    return [out.data] + sum_(mul(out, Tensor(weights))).backward(inputs)


class TestBackwardInputs:
    @pytest.fixture()
    def model_and_batch(self):
        model = MLPClassifier(ModelSpec(input_dim=5, hidden_layers=(7, 6), num_classes=4), seed=2)
        rng = np.random.default_rng(2)
        return model, rng.normal(size=(9, 5)), rng.integers(0, 4, size=9)

    def test_requested_leaf_matches_full_backward_and_others_stay_none(self, model_and_batch,
                                                                       monkeypatch):
        model, x, y = model_and_batch
        calls = count_vjp_calls(monkeypatch)
        full = Tensor(x)
        root = sum_(cross_entropy(model.forward(full), y))
        want = root.backward((full, *model.parameters))
        assert all(g is not None for g in want)
        # the four nodes from the root down to encode, each once
        assert calls == _chain(root, 4)

        calls.clear()
        only = Tensor(x)
        root = sum_(cross_entropy(model.forward(only), y))
        got = root.backward((only,))
        assert len(got) == 1 and _bitwise_equal(got[0], want[0])
        assert calls == _chain(root, 4)

    @pytest.mark.parametrize("which,nodes", [("hidden", 4), ("cls_w", 3)])
    def test_requested_parameter_only(self, model_and_batch, monkeypatch, which, nodes):
        # a classifier weight's gradient runs no encode VJP
        model, x, y = model_and_batch
        want = sum_(cross_entropy(model.forward(Tensor(x)), y)).backward(model.parameters)

        w = model.hidden[0][0] if which == "hidden" else model.cls_w
        calls = count_vjp_calls(monkeypatch)
        root = sum_(cross_entropy(model.forward(Tensor(x)), y))
        (got,) = root.backward((w,))
        assert _bitwise_equal(got, want[model.parameters.index(w)])
        assert calls == _chain(root, nodes)

    def test_requested_interior_node_gets_its_gradient(self, model_and_batch):
        model, x, y = model_and_batch
        xt = Tensor(x)
        z = model.encode(xt)
        gz, gx = sum_(cross_entropy(model.classify(z), y)).backward((z, xt))

        zt = Tensor(z.data)
        assert _bitwise_equal(gz, sum_(cross_entropy(model.classify(zt), y)).backward((zt,))[0])
        xt2 = Tensor(x)
        assert _bitwise_equal(gx, sum_(cross_entropy(model.forward(xt2), y)).backward((xt2,))[0])

    def test_any_tensor_may_be_requested(self):
        # no flag marks what is differentiated: a plain Tensor is an input,
        # and one the root does not reach gets None
        x = Tensor(2.0)
        gx, gc = mul(x, x).backward((x, Tensor(1.0)))
        assert gx == 4.0 and gc is None

    def test_constants_get_no_vjp(self, monkeypatch):
        # c, d and their sum are recorded like any operand; only the request
        # keeps the walk from running the VJP of their sum
        rng = np.random.default_rng(3)
        w, c, d = (Tensor(rng.normal(size=(2, 3))) for _ in range(3))
        s = add(c, d)
        calls = count_vjp_calls(monkeypatch)
        root = sum_(mul(w, s))
        (g,) = root.backward((w,))
        assert _bitwise_equal(g, s.data)
        assert calls == _chain(root, 2)


class TestCoarseNodes:
    @pytest.mark.parametrize("seed", range(4))
    def test_cross_entropy_equals_its_composition_bitwise(self, seed):
        for c in (2, 5):
            rng = np.random.default_rng(seed)
            # the last rows underflow softmax entries to exactly 0
            logits = np.concatenate([rng.normal(scale=3.0, size=(8, c)),
                                     [[800.0, 0.0, -5.0, 1.0, 2.0][:c],
                                      [-800.0, 0.0, 3.0, 1.0, 2.0][:c]]])
            y = rng.integers(0, c, size=10)
            # labels in the first and the last column, on both underflow rows too
            y[[0, 8]] = 0
            y[[1, 9]] = c - 1
            onehot = np.eye(c)[y]
            # mixed signs, including both zeros, reach every branch of the VJP
            weights = np.concatenate([rng.normal(size=6), [0.0, -0.0, -1.0, 1.0]])
            got = _grads(lambda z: cross_entropy(z, y), [logits], weights)
            want = _grads(lambda z: sub(log_sum_exp(z, axis=1),
                                        sum_(mul(z, Tensor(onehot)), axis=1)),
                          [logits], weights)
            assert all(_bitwise_equal(a, b) for a, b in zip(got, want))


def _square(t):
    return mul(t, t)


def _random_ops(rng):
    """(name, tensor fn, numpy fn, data strategy) for the FD sweep."""
    return [
        ("add", lambda t, c: sum_(add(t, Tensor(c))), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("mul", lambda t, c: sum_(mul(t, Tensor(c))), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("div", lambda t, c: sum_(div(t, Tensor(c))), None,
         lambda: (rng.normal(size=(3, 4)), rng.uniform(0.5, 2.0, size=(3, 4)))),
        ("exp", lambda t, c: sum_(exp(t)), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("relu", lambda t, c: sum_(relu(t)), None,
         lambda: (rng.normal(size=(3, 4)) + 0.5, None)),
        ("matmul", lambda t, c: sum_(matmul(t, Tensor(c))), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))),
        ("sum0", lambda t, c: sum_(_square(sum_(t, axis=0))), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("mean1", lambda t, c: sum_(_square(mean(t, axis=1))), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("lse", lambda t, c: sum_(log_sum_exp(t, axis=1)), None,
         lambda: (rng.normal(size=(3, 4)), None)),
        ("log_softmax", lambda t, c: sum_(mul(log_softmax(t), Tensor(c))), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))),
        ("cross_entropy", lambda t, c: sum_(cross_entropy(t, c)), None,
         lambda: (rng.normal(size=(3, 4)), rng.integers(0, 4, size=3))),
        ("concat", lambda t, c: sum_(_square(concat([t, Tensor(c)]))), None,
         lambda: (rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))),
        # the differentiated tensor is the broadcast side: its op sums
        # the gradient over the axes it was broadcast along
        ("sub_bcast", lambda t, c: sum_(_square(sub(Tensor(c), t))), None,
         lambda: (rng.normal(size=(1, 4)), rng.normal(size=(3, 4)))),
        ("mul_bcast", lambda t, c: sum_(_square(mul(t, Tensor(c)))), None,
         lambda: (rng.normal(size=(1, 4)), rng.normal(size=(3, 4)))),
        ("div_bcast", lambda t, c: sum_(_square(div(Tensor(c), t))), None,
         lambda: (rng.uniform(0.5, 2.0, size=(1, 4)), rng.normal(size=(3, 4)))),
        ("mul_0d", lambda t, c: sum_(_square(mul(Tensor(c), t))), None,
         lambda: (np.array(rng.normal()), rng.normal(size=(3, 4)))),
        ("sum1_keepdims", lambda t, c: sum_(_square(sum_(t, axis=1, keepdims=True))), None,
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
            t = Tensor(x0)
            (g,) = build(t, const).backward((t,))
            fd = fd_gradient(lambda v: build(Tensor(v), const).item(), x0)
            assert_grad_close(g, fd)
            total += x0.size
    assert total >= 100


class TestGatherConcat:
    # the per-anchor oracle gathers rows with a one-hot matmul
    def test_gather_rows_values(self):
        t = Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        assert np.array_equal(gather_rows(t, [2, 0]).data, t.data[[2, 0]])

    def test_gather_duplicate_accumulates(self):
        t = Tensor(np.ones((3, 2)))
        (g,) = sum_(gather_rows(t, [1, 1])).backward((t,))
        assert np.array_equal(g, [[0, 0], [2, 2], [0, 0]])

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.ones((1, 2)))
        ga, gb = sum_(mul(concat([a, b]), Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))).backward(
            (a, b))
        assert np.array_equal(ga, [[1, 2], [3, 4]])
        assert np.array_equal(gb, [[5, 6]])
