import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from ascl.attacks import (AttackConfig, _ball_clamp, _input_gradient, _random_start,
                          attack_by_name, multi_targeted_pgd, pgd_attack, project_linf,
                          robust_accuracy)
from ascl.config import RunConfig
from ascl.errors import ContractError
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from ascl.training import train


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class LinearLogistic:
    """Duck-typed linear model: logits = x @ w + b."""

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    def encode(self, x):
        return x if isinstance(x, Tensor) else Tensor(x)

    def classify(self, z):
        return z @ Tensor(self.w) + Tensor(self.b.reshape(1, -1))

    def forward(self, x):
        return self.classify(self.encode(x))


@pytest.fixture(scope="module")
def toy_model():
    return MLPClassifier(ModelSpec(input_dim=4, hidden_layers=(8, 6), num_classes=3),
                         seed=11)


@pytest.fixture(scope="module")
def toy_batch():
    rng = np.random.default_rng(11)
    return rng.uniform(0.05, 0.95, size=(16, 4)), rng.integers(0, 3, size=16)


@pytest.fixture(scope="module")
def trained_moons(tmp_path_factory):
    cfg = RunConfig(dataset="moons", data_size=120, data_noise=0.12, epochs=8,
                    batch_size=40, hidden_layers=(16, 16), lambda_scl=0.0,
                    lambda_vat=0.0, train_eps=0.08, train_eta=0.02, train_steps=5,
                    eval_eps=0.08, eval_eta=0.02, eval_steps=10, eval_every=0,
                    seed=5, output_dir=str(tmp_path_factory.mktemp("attacks_run")))
    result = train(cfg)
    _, test = cfg.build_datasets()
    return result.model, test


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            AttackConfig(epsilon=-0.1)
        with pytest.raises(ContractError):
            AttackConfig(eta=0.0, steps=3)
        with pytest.raises(ContractError):
            AttackConfig(clip_range=(1.0, 0.0))

    def test_training_defaults(self):
        cfg = AttackConfig()
        assert cfg.epsilon == pytest.approx(8 / 255)
        assert cfg.eta == pytest.approx(2 / 255)
        assert cfg.steps == 10
        assert cfg.random_init


class TestProjectLinf:
    def test_interior_unchanged(self):
        x = np.array([0.5, 0.6])
        adv = np.array([0.52, 0.58])
        assert np.array_equal(project_linf(adv, x, 0.05), adv)

    def test_ball_clamp(self):
        assert project_linf(np.array([0.9]), np.array([0.5]), 0.1)[0] == pytest.approx(0.6)

    def test_clip_range_dominates(self):
        assert project_linf(np.array([1.2]), np.array([0.99]), 0.05)[0] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=20)
        adv = x + rng.normal(scale=0.2, size=20)
        once = project_linf(adv, x, 0.05)
        assert np.array_equal(project_linf(once, x, 0.05), once)

    def test_negative_epsilon(self):
        with pytest.raises(ContractError):
            project_linf(np.zeros(2), np.zeros(2), -1.0)


class TestPGD:
    def test_epsilon_zero_is_bitwise_identity(self, toy_model, toy_batch):
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.0, eta=0.01, steps=5)
        x_adv = pgd_attack(toy_model, x, y, cfg, seed=0)
        assert x_adv.tobytes() == x.tobytes()
        # and without a single gradient pass
        no_model = LinearLogistic(np.full((4, 3), np.nan), np.zeros(3))
        assert pgd_attack(no_model, x, y, cfg).tobytes() == x.tobytes()

    def test_single_step_matches_logistic_closed_form(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 2))
        b = rng.normal(size=2)
        model = LinearLogistic(w, b)
        x = rng.uniform(0.2, 0.8, size=(5, 3))
        y = rng.integers(0, 2, size=5)
        cfg = AttackConfig(epsilon=0.1, eta=0.03, steps=1, random_init=False)
        x_adv = pgd_attack(model, x, y, cfg, seed=0)

        # input gradient of cross-entropy for a linear softmax model:
        # (softmax(logits) - onehot(y)) @ w.T
        probs = _softmax(x @ w + b)
        grad = (probs - np.eye(2)[y]) @ w.T
        expected = project_linf(x + cfg.eta * np.sign(grad), x, cfg.epsilon)
        assert np.array_equal(x_adv, expected)

    def test_matches_manual_step_loop_bitwise(self, toy_model, toy_batch):
        """k attack steps == k manual one-step-updates with independent graphs."""
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.06, eta=0.015, steps=4, random_init=False)
        got = pgd_attack(toy_model, x, y, cfg, seed=0)

        cur = x.copy()
        onehot = np.eye(3)[y]
        for _ in range(cfg.steps):
            xt = Tensor(cur, requires_grad=True)
            logits = toy_model.forward(xt)
            loss = -((logits - logits.log_sum_exp(axis=1, keepdims=True))
                     * Tensor(onehot)).sum()
            loss.backward()
            cur = project_linf(cur + cfg.eta * np.sign(xt.grad), x, cfg.epsilon)
        toy_model.zero_grad()
        assert got.tobytes() == cur.tobytes()

    def test_ball_and_clip_constraints(self, toy_model, toy_batch):
        x, y = toy_batch
        for eps in (0.02, 0.05, 0.1):
            cfg = AttackConfig(epsilon=eps, eta=eps / 3, steps=6)
            x_adv = pgd_attack(toy_model, x, y, cfg, seed=3)
            assert np.abs(x_adv - x).max() <= eps + 1e-12
            assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan])
    def test_input_outside_clip_range_is_a_contract_error(self, toy_model, toy_batch, bad):
        x, y = toy_batch
        x = x.copy()
        x[3, 1] = bad
        with pytest.raises(ContractError, match="outside clip_range"):
            pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=3), seed=1)

    def test_purity(self, toy_model, toy_batch):
        x, y = toy_batch
        x_before = x.copy()
        weights_before = [p.data.copy() for p in toy_model.parameters]
        pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=3), seed=1)
        assert np.array_equal(x, x_before)
        for p, w in zip(toy_model.parameters, weights_before):
            assert np.array_equal(p.data, w)

    def test_seed_determinism(self, toy_model, toy_batch):
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=3)
        a = pgd_attack(toy_model, x, y, cfg, seed=42)
        b = pgd_attack(toy_model, x, y, cfg, seed=42)
        c = pgd_attack(toy_model, x, y, cfg, seed=43)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_batching_does_not_change_samples(self, toy_model, toy_batch):
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=3)
        whole = pgd_attack(toy_model, x, y, cfg, seed=9)
        first = pgd_attack(toy_model, x[:7], y[:7], cfg, seed=9, index_base=0)
        rest = pgd_attack(toy_model, x[7:], y[7:], cfg, seed=9, index_base=7)
        assert whole.tobytes() == np.concatenate([first, rest]).tobytes()

    def test_builds_no_random_generator(self, toy_model, toy_batch, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pgd_attack constructed a numpy generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        x, y = toy_batch
        x_adv = pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=2), seed=4)
        assert not np.array_equal(x_adv, x)

    @pytest.mark.parametrize("seed", [-1, 2**64, (3, -1), (3, 2**64)])
    def test_seed_part_outside_64_bits_is_a_contract_error(self, toy_model, toy_batch, seed):
        x, y = toy_batch
        with pytest.raises(ContractError, match="seed"):
            pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=1),
                       seed=seed)

    def test_targets_contract(self):
        # targeted exactly when targets are given: one step descends the
        # cross-entropy of the targets, whatever the true labels are
        rng = np.random.default_rng(15)
        w = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        x = rng.uniform(0.2, 0.8, size=(6, 3))
        y = rng.integers(0, 3, size=6)
        t = (y + 1) % 3
        cfg = AttackConfig(epsilon=0.1, eta=0.03, steps=1, random_init=False)
        x_adv = pgd_attack(LinearLogistic(w, b), x, y, cfg, targets=t)
        grad = (_softmax(x @ w + b) - np.eye(3)[t]) @ w.T
        assert np.array_equal(x_adv, project_linf(x - cfg.eta * np.sign(grad), x, cfg.epsilon))


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _numpy_input_gradient(model, x, labels):
    """Input gradient of summed cross-entropy through the MLP, forward and
    backward written out in numpy with the engine's float ops: the floor
    that ``_input_gradient`` is measured against."""
    h, pre = x, []
    for w, b in model.hidden:
        a = h @ w.data + b.data
        pre.append(a)
        h = np.maximum(a, 0.0)
    z = h @ model.cls_w.data + model.cls_b.data
    shifted = np.exp(z - z.max(axis=1, keepdims=True))
    g = shifted / shifted.sum(axis=1, keepdims=True)
    g[np.arange(len(labels)), labels] -= 1.0
    g = g @ model.cls_w.data.T
    for (w, _), a in zip(reversed(model.hidden), reversed(pre)):
        g = (g * (a > 0.0)) @ w.data.T
    return g


class TestInputGradient:
    @pytest.mark.parametrize("hidden,classes", [((32, 32), 10), ((8,), 2), ((8, 6, 5), 3)])
    def test_equals_numpy_oracle_bitwise(self, hidden, classes):
        model = MLPClassifier(ModelSpec(input_dim=16, hidden_layers=hidden, num_classes=classes),
                              seed=len(hidden))
        rng = np.random.default_rng(classes)
        x = rng.uniform(size=(50, 16))
        y = rng.integers(0, classes, size=50)
        assert _bitwise_equal(_input_gradient(model, x, y), _numpy_input_gradient(model, x, y))
        assert all(p.grad is None for p in model.parameters)


def _reference_pgd(model, x, y, cfg, seed=0, targets=None):
    """``pgd_attack`` written with ``project_linf`` at every projection."""
    x = np.array(x, dtype=np.float64)
    x_adv = x.copy()
    if cfg.random_init:
        noise = _random_start(seed, 0, x.shape, cfg.epsilon)
        x_adv = project_linf(x + noise, x, cfg.epsilon, cfg.clip_range)
    for _ in range(cfg.steps):
        grad = _input_gradient(model, x_adv, y if targets is None else targets)
        step = cfg.eta * np.sign(grad)
        x_adv = project_linf(x_adv + step if targets is None else x_adv - step,
                             x, cfg.epsilon, cfg.clip_range)
    return x_adv


_CLIPS = [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-0.5, 0.5)]


@st.composite
def _in_clip(draw, shape_max=12):
    """A clip range, epsilon and x inside it, with entries on its bounds
    and at both zeros when the range holds them."""
    lo, hi = draw(st.sampled_from(_CLIPS))
    eps = draw(st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                         st.floats(1e-6, 5.0)))
    on = st.sampled_from([v for v in (lo, hi, 0.0, -0.0, eps, -eps) if lo <= v <= hi])
    inside = st.floats(lo, hi)
    x = draw(st.lists(st.one_of(on, inside), min_size=1, max_size=shape_max))
    return lo, hi, eps, np.array(x)


class TestBallClamp:
    @settings(max_examples=300, deadline=None)
    @given(_in_clip(), st.data())
    def test_equals_project_linf(self, case, data):
        lo, hi, eps, x = case
        offset = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, eps, -eps]))
        v = x + np.array(data.draw(st.lists(offset, min_size=len(x), max_size=len(x))))
        v = np.where(np.array(data.draw(st.lists(st.booleans(), min_size=len(x),
                                                 max_size=len(x)))), -0.0, v)
        want = project_linf(v, x, eps, (lo, hi))
        got = _ball_clamp(x, eps, (lo, hi))(v)
        assert np.array_equal(got, want)
        # signs of zero agree too, except where a v of -0.0 meets a ball
        # bound of +0.0, or x is -0.0 at epsilon 0: project_linf gives +0.0
        neg_zero = (got == 0) & np.signbit(got)
        excused = neg_zero & ~np.signbit(want) & (np.signbit(v) & (v == 0)
                                                  | (eps == 0) & np.signbit(x))
        assert np.array_equal(np.signbit(got) & ~excused, np.signbit(want) & ~excused)

    @settings(max_examples=150, deadline=None)
    @given(_in_clip(shape_max=6), st.integers(0, 4), st.booleans(), st.booleans(),
           st.sampled_from([0.25, 1.0, 4.0]), st.integers(0, 3))
    def test_pgd_equals_the_project_linf_loop(self, case, steps, random_init, targeted,
                                              eta_scale, zero_rows):
        # zero weight rows give exact zero gradients, and with them steps of
        # either zero and iterates of -0.0 where x holds one
        lo, hi, eps, x = case
        assume(eps > 0)  # at epsilon 0 pgd_attack returns x without a step
        rng = np.random.default_rng(len(x) + steps)
        d = len(x)
        w = rng.normal(size=(d, 3))
        w[:min(zero_rows, d)] = 0.0
        model = LinearLogistic(w, rng.normal(size=3))
        xb = np.stack([x, x[::-1]])
        y = np.array([0, 2])
        targets = np.array([1, 0]) if targeted else None
        cfg = AttackConfig(epsilon=eps, eta=eps / eta_scale, steps=steps,
                           random_init=random_init, clip_range=(lo, hi))
        got = pgd_attack(model, xb, y, cfg, seed=5, targets=targets)
        assert _bitwise_equal(got, _reference_pgd(model, xb, y, cfg, seed=5, targets=targets))


_M64 = 2**64 - 1


def _mix64_reference(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _random_start_reference(seed, index_base, n, d, epsilon):
    """The random start one entry at a time, in Python integers."""
    parts = (seed,) if isinstance(seed, int) else tuple(seed)
    key = _mix64_reference(len(parts))
    for p in parts:
        key = _mix64_reference(key ^ p)
    out = np.empty((n, d))
    for i in range(n):
        row = _mix64_reference(key ^ (index_base + i))
        for j in range(d):
            u = (_mix64_reference((row + (j + 1) * 0x9E3779B97F4A7C15) & _M64) >> 11) * 2.0**-53
            out[i, j] = epsilon * (2.0 * u - 1.0)
    return out


class TestRandomStart:
    """The counter-based PGD random start: one hash per entry, keyed by
    ``(*seed, index_base + i)`` and the column."""

    def test_known_answer(self):
        # integer-only hash: these values do not depend on the BLAS build
        got = _random_start((3, 7), 5, (2, 3), 1.0)
        assert got.ravel().tolist() == [
            -0.9316861660744953, -0.34097699213492083, 0.27925633008870365,
            -0.1431691729188227, 0.1596467652678717, -0.5280414552580692]

    @pytest.mark.parametrize("seed,index_base", [((3, 7), 5), (0, 0), ((2**64 - 1, 1), 1000)])
    def test_matches_per_entry_reference(self, seed, index_base):
        got = _random_start(seed, index_base, (5, 3), 0.07)
        assert got.tobytes() == _random_start_reference(seed, index_base, 5, 3, 0.07).tobytes()

    def test_values_lie_in_the_ball_and_are_uniform(self):
        eps = 0.05
        noise = _random_start(11, 0, (1000, 8), eps)
        assert noise.shape == (1000, 8)
        assert np.abs(noise).max() <= eps
        assert kstest(noise.ravel(), "uniform", args=(-eps, 2 * eps)).pvalue > 0.01

    def test_uneven_split_equals_whole_batch(self):
        whole = _random_start((4, 2), 10, (64, 3), 0.1)
        parts = [_random_start((4, 2), 10 + lo, (hi - lo, 3), 0.1)
                 for lo, hi in ((0, 1), (1, 63), (63, 64))]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_int_seed_equals_one_part_tuple(self):
        assert (_random_start(3, 0, (8, 2), 0.1).tobytes()
                == _random_start((3,), 0, (8, 2), 0.1).tobytes()
                == _random_start(np.int64(3), 0, (8, 2), 0.1).tobytes())

    def test_distinct_seeds_give_distinct_streams(self):
        seeds = [1, 2, (1, 2), (2, 1), (1, 0), (0, 1), (1, 0, 0), (0,)]
        streams = {_random_start(s, 0, (16, 2), 0.1).tobytes() for s in seeds}
        assert len(streams) == len(seeds)

    def test_epsilon_only_scales(self):
        a = _random_start(5, 3, (32, 4), 0.03) / 0.03
        b = _random_start(5, 3, (32, 4), 0.5) / 0.5
        # one rounding in each product and each quotient
        np.testing.assert_allclose(a, b, rtol=2**-50, atol=0)


class TestMultiTargeted:
    def test_two_classes_equal_single_targeted(self):
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(6,), num_classes=2),
                              seed=13)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.1, 0.9, size=(10, 3))
        y = rng.integers(0, 2, size=10)
        cfg = AttackConfig(epsilon=0.05, eta=0.015, steps=4)
        got = multi_targeted_pgd(model, x, y, cfg, seed=21)
        want = pgd_attack(model, x, y, cfg, seed=21, targets=1 - y)
        assert got.tobytes() == want.tobytes()

    def test_epsilon_zero_returns_input(self, toy_model, toy_batch):
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.0, eta=0.01, steps=3)
        assert multi_targeted_pgd(toy_model, x, y, cfg, seed=0).tobytes() == x.tobytes()

    def test_constraints(self, toy_model, toy_batch):
        x, y = toy_batch
        cfg = AttackConfig(epsilon=0.07, eta=0.02, steps=4)
        x_adv = multi_targeted_pgd(toy_model, x, y, cfg, seed=2)
        assert np.abs(x_adv - x).max() <= 0.07 + 1e-12
        assert x_adv.min() >= 0.0 and x_adv.max() <= 1.0

    def test_dominates_pgd_on_trained_model(self, trained_moons):
        model, test = trained_moons
        cfg = AttackConfig(epsilon=0.08, eta=0.02, steps=10)
        acc_pgd = robust_accuracy(model, test.features, test.labels, "pgd", cfg, seed=3)
        acc_mpgd = robust_accuracy(model, test.features, test.labels, "mpgd", cfg, seed=3)
        assert acc_mpgd <= acc_pgd


class TestRobustAccuracy:
    def test_epsilon_zero_equals_natural(self, trained_moons):
        model, test = trained_moons
        cfg = AttackConfig(epsilon=0.0, eta=0.01, steps=2)
        attacked = robust_accuracy(model, test.features, test.labels, "pgd", cfg)
        natural = robust_accuracy(model, test.features, test.labels, "none", cfg)
        assert attacked == natural

    def test_constant_model_prior(self):
        model = LinearLogistic(np.zeros((3, 2)), np.array([1.0, 0.0]))
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        cfg = AttackConfig(epsilon=0.1, eta=0.03, steps=3)
        acc = robust_accuracy(model, x, y, "pgd", cfg, seed=0)
        assert acc == (y == 0).mean()

    def test_empty_dataset(self, toy_model):
        with pytest.raises(ContractError):
            robust_accuracy(toy_model, np.zeros((0, 4)), np.zeros(0, dtype=int),
                            "pgd", AttackConfig())

    def test_monotone_in_epsilon(self, trained_moons):
        model, test = trained_moons
        accs = []
        for eps in (0.0, 2 / 255, 4 / 255, 8 / 255):
            cfg = AttackConfig(epsilon=eps, eta=max(eps / 4, 1e-3), steps=10)
            accs.append(robust_accuracy(model, test.features, test.labels,
                                        "pgd", cfg, seed=1))
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_unknown_attack_name(self):
        with pytest.raises(ContractError):
            attack_by_name("fgsm")
