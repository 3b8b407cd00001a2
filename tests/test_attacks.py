import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import ascl.attacks
import ascl.models
from ascl.attacks import (AttackConfig, _ball, _clamp, _random_start, attack_by_name,
                          multi_targeted_pgd, pgd_attack, robust_accuracy)
from ascl.config import RunConfig
from ascl.data import Dataset
from ascl.divergence import divergence_report, divergence_sweep
from ascl.errors import ContractError, DimensionError
from ascl.losses import at_loss
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from ascl.training import evaluate, train
from mlp_graph import add, cross_entropy, forward, log_sum_exp, matmul, mul, sub, sum_
from mtpgd_loop import multi_targeted_pgd_loop
from pgd_loop import pgd_attack_loop, pgd_loop, project_linf, settled_row_steps


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def engine_input_gradient(model, x, labels):
    """Gradient of summed cross-entropy against ``labels`` at x, from the
    engine's backward toward the input alone through the op-by-op forward
    of ``mlp_graph`` (a model's own ``forward`` if it has no hidden stack):
    the oracle for ``MLPClassifier.input_gradient``."""
    xt = Tensor(x)
    logits = forward(model, xt) if isinstance(model, MLPClassifier) else model.forward(xt)
    return sum_(cross_entropy(logits, labels)).backward((xt,))[0]


class LinearLogistic:
    """Duck-typed linear model: logits = x @ w + b."""

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.spec = SimpleNamespace(input_dim=self.w.shape[0], num_classes=self.w.shape[1])

    def forward(self, x):
        return add(matmul(x, Tensor(self.w)), Tensor(self.b.reshape(1, -1)))

    def _predict(self, x):
        return x, x @ self.w + self.b

    def _input_gradient(self, x, labels):
        return engine_input_gradient(self, x, labels)


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


_CFG = AttackConfig(epsilon=0.05, eta=0.01, steps=2)
# each entry point that takes a batch's labels, called with ``labels``
LABEL_TAKERS = {
    "pgd_attack": lambda m, x, labels: pgd_attack(m, x, labels, _CFG),
    "multi_targeted_pgd": lambda m, x, labels: multi_targeted_pgd(m, x, labels, _CFG),
    "input_gradient": lambda m, x, labels: m.input_gradient(x, labels),
    "robust_accuracy": lambda m, x, labels: robust_accuracy(m, x, labels, "none", _CFG),
    "at_loss": lambda m, x, labels: at_loss(m.forward(np.concatenate([x, x])), labels),
}


@pytest.mark.parametrize("length", [1, 15])
@pytest.mark.parametrize("entry", sorted(LABEL_TAKERS))
def test_labels_must_match_the_batch_length(toy_model, toy_batch, entry, length):
    # one label broadcast over all 16 rows: PGD attacked every row toward it
    x, y = toy_batch
    with pytest.raises(ContractError, match=rf"labels of shape \({length},\) do not match 16"):
        LABEL_TAKERS[entry](toy_model, x, y[:length])


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ContractError):
            AttackConfig(epsilon=-0.1)
        with pytest.raises(ContractError):
            AttackConfig(eta=0.0, steps=3)
        for eta in (np.nan, np.inf):
            with pytest.raises(ContractError, match="eta"):
                AttackConfig(epsilon=0.05, eta=eta, steps=2)
        with pytest.raises(ContractError):
            AttackConfig(clip_range=(1.0, 0.0))

    @pytest.mark.parametrize("steps", [2.5, np.float64(3), True, np.bool_(False), "3", -1])
    def test_steps_must_be_a_nonnegative_integer(self, steps):
        with pytest.raises(ContractError, match="steps must be nonnegative integers"):
            AttackConfig(epsilon=0.05, eta=0.01, steps=steps)

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
            xt = Tensor(cur)
            logits = forward(toy_model, xt)
            loss = sum_(mul(sub(log_sum_exp(logits, axis=1, keepdims=True), logits),
                            Tensor(onehot)))
            grad = loss.backward((xt, *toy_model.parameters))[0]
            cur = project_linf(cur + cfg.eta * np.sign(grad), x, cfg.epsilon)
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
        targets = (y + 1) % 3
        before = [a.tobytes() for a in (x, y, targets, *(p.data for p in toy_model.parameters))]
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=3)
        fixed = AttackConfig(epsilon=0.05, eta=0.01, steps=3, random_init=False)
        for attack in (lambda: pgd_attack(toy_model, x, y, cfg, seed=1),
                       lambda: pgd_attack(toy_model, x, y, fixed, seed=1),
                       lambda: pgd_attack(toy_model, x, y, cfg, seed=1, targets=targets),
                       lambda: pgd_attack(toy_model, x, y, fixed, seed=1, targets=targets),
                       lambda: multi_targeted_pgd(toy_model, x, y, cfg, seed=1),
                       lambda: multi_targeted_pgd(toy_model, x, y, fixed, seed=1)):
            x_adv = attack()
            assert not np.shares_memory(x_adv, x)
            after = [a.tobytes() for a in (x, y, targets,
                                           *(p.data for p in toy_model.parameters))]
            assert after == before

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

    @pytest.mark.parametrize("seed", [-1, 2**64, (3, -1), (3, 2**64), (1.7, 2), "12", True,
                                      (True, 2), 2.5, np.float64(3), [3, 2**64], "x"])
    @pytest.mark.parametrize("attack", [
        lambda m, x, y, seed: pgd_attack(m, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=1),
                                         seed=seed),
        # no random start, or epsilon 0: these returned without checking the seed
        lambda m, x, y, seed: pgd_attack(m, x, y, AttackConfig(epsilon=0.1, eta=0.01, steps=2,
                                                               random_init=False), seed=seed),
        lambda m, x, y, seed: pgd_attack(m, x, y, AttackConfig(epsilon=0.0), seed=seed),
        lambda m, x, y, seed: multi_targeted_pgd(m, x, y, AttackConfig(epsilon=0.0), seed=seed),
    ], ids=["pgd", "pgd_no_start", "pgd_eps0", "mtpgd_eps0"])
    def test_seed_part_outside_64_bits_is_a_contract_error(self, toy_model, toy_batch, attack,
                                                           seed):
        # (1.7, 2) read as (1, 2), "12" as its characters (1, 2) and True as 1;
        # 2.5 raised a bare TypeError
        x, y = toy_batch
        with pytest.raises(ContractError, match="seed"):
            attack(toy_model, x, y, seed)

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


def _count_tensors(monkeypatch):
    """Patch ``Tensor.__init__`` to record, per Tensor built, the names of the
    functions on the stack."""
    calls = []
    real = Tensor.__init__

    def counting(self, *args, **kwargs):
        calls.append({frame.name for frame in traceback.extract_stack()})
        real(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return calls


class TestInputGradient:
    @pytest.mark.parametrize("hidden,classes", [((32, 32), 10), ((8,), 2), ((8, 6, 5), 3)])
    @pytest.mark.parametrize("n", [50, 1])
    def test_equals_engine_bitwise(self, hidden, classes, n):
        model = MLPClassifier(ModelSpec(input_dim=16, hidden_layers=hidden, num_classes=classes),
                              seed=len(hidden))
        rng = np.random.default_rng(classes)
        x = rng.uniform(size=(n, 16))
        y = rng.integers(0, classes, size=n)
        assert _bitwise_equal(model.input_gradient(x, y), engine_input_gradient(model, x, y))

    @pytest.mark.parametrize("hidden,classes", [((32, 32), 10), ((8,), 2), ((8, 6, 5), 3)])
    def test_zero_pre_activation_equals_engine_bitwise(self, hidden, classes):
        # biases start at zero, so a zero row has pre-activation exactly 0 in
        # every layer, where the relu mask must hold False
        model = MLPClassifier(ModelSpec(input_dim=16, hidden_layers=hidden, num_classes=classes),
                              seed=len(hidden))
        rng = np.random.default_rng(classes)
        x = rng.uniform(size=(6, 16))
        x[[0, 3]] = 0.0
        y = rng.integers(0, classes, size=6)
        got = model.input_gradient(x, y)
        assert _bitwise_equal(got, engine_input_gradient(model, x, y))
        assert np.all(got[[0, 3]] == 0.0)
        assert _bitwise_equal(model.input_gradient(x[:1], y[:1]),
                              engine_input_gradient(model, x[:1], y[:1]))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_outside_the_classes_is_a_contract_error(self, toy_model, toy_batch, bad):
        x, y = toy_batch
        y = y.copy()
        y[4] = bad
        with pytest.raises(ContractError, match="labels must lie"):
            toy_model.input_gradient(x, y)
        with pytest.raises(ContractError, match="labels must lie"):
            pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=2))

    def test_fractional_label_is_a_contract_error(self, toy_model, toy_batch):
        # the intp cast read 0.5 as 0; a float label with an integer value still works
        x, labels = toy_batch
        y = labels.astype(np.float64)
        assert np.array_equal(toy_model.input_gradient(x, y), toy_model.input_gradient(x, labels))
        y[4] = 0.5
        with pytest.raises(ContractError, match="labels must be integers"):
            toy_model.input_gradient(x, y)
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=2)
        for attack in (pgd_attack, multi_targeted_pgd):
            with pytest.raises(ContractError, match="labels must be integers"):
                attack(toy_model, x, y, cfg)
        with pytest.raises(ContractError, match="labels must be integers"):
            pgd_attack(toy_model, x, y.astype(np.intp), cfg, targets=y)

    @pytest.mark.parametrize("shape", [(16, 3), (4,), (2, 4, 1)])
    def test_wrong_shape_is_a_dimension_error(self, toy_model, shape):
        with pytest.raises(DimensionError):
            toy_model.input_gradient(np.zeros(shape), np.zeros(shape[0], dtype=int))

    @pytest.mark.parametrize("attack", [pgd_attack, multi_targeted_pgd])
    def test_an_attack_checks_its_labels_once(self, toy_model, toy_batch, attack, monkeypatch):
        calls = []
        for module in (ascl.attacks, ascl.models):
            real = module.check_labels
            monkeypatch.setattr(module, "check_labels", lambda labels, c, n, real=real:
                                calls.append(c) or real(labels, c, n))
        x, y = toy_batch
        attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=10), seed=3)
        assert calls == [3]

    def test_pgd_builds_no_tensor(self, toy_model, toy_batch, monkeypatch):
        x, y = toy_batch
        calls = _count_tensors(monkeypatch)
        pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=10), seed=3)
        pgd_attack(toy_model, x, y, AttackConfig(epsilon=0.05, eta=0.01, steps=10), seed=3,
                   targets=(y + 1) % 3)
        assert calls == []

    def test_inference_builds_no_tensor(self, toy_model, toy_batch, monkeypatch):
        # attacks, evaluation and divergence score every batch with one numpy forward
        x, y = toy_batch
        test = Dataset(x, y, 3, split="test")
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=3)
        calls = _count_tensors(monkeypatch)
        multi_targeted_pgd(toy_model, x, y, cfg, seed=3)
        for attack in ("none", "pgd", "mpgd"):
            robust_accuracy(toy_model, x, y, attack, cfg, seed=3, batch_size=5)
        evaluate(toy_model, test, cfg)
        divergence_report(toy_model, x, y, cfg, seed=3)
        divergence_sweep(toy_model, test, [0.0, 0.05], cfg)
        assert calls == []


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
        got = _clamp(v.copy(), *_ball(x, eps, (lo, hi)))
        assert np.array_equal(got, want)
        # signs of zero agree too, except where a v of -0.0 meets a ball
        # bound of +0.0, or x is -0.0 at epsilon 0: project_linf gives +0.0
        neg_zero = (got == 0) & np.signbit(got)
        excused = neg_zero & ~np.signbit(want) & (np.signbit(v) & (v == 0)
                                                  | (eps == 0) & np.signbit(x))
        assert np.array_equal(np.signbit(got) & ~excused, np.signbit(want) & ~excused)

    @settings(max_examples=150, deadline=None)
    @given(_in_clip(shape_max=6), st.integers(0, 12), st.booleans(), st.booleans(),
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
        iterates = []
        want = pgd_attack_loop(model, xb, y, cfg, seed=5, targets=targets, iterates=iterates)
        rows = _count_gradient_rows(model)
        got = pgd_attack(model, xb, y, cfg, seed=5, targets=targets)
        assert _bitwise_equal(got, want)
        assert sum(rows) == settled_row_steps(iterates)


def _count_gradient_rows(model):
    """Make this ``model`` instance's ``_input_gradient`` record the rows of each call."""
    rows, real = [], model._input_gradient
    model._input_gradient = lambda x, labels: rows.append(len(x)) or real(x, labels)
    return rows


class TestSettledRows:
    """PGD stops stepping a row once its new iterate has the bits of the one two
    steps back (the start, on the first step), which catches fixed points and
    2-cycles, and still returns, bit for bit, what ``pgd_loop`` returns after
    every step."""

    @pytest.mark.parametrize("x0,epsilon,k,spent", [
        ([0.5, 0.6], 0.1, 4, 6), ([0.5, 0.6], 0.05, 2, 4), ([0.0, 0.0], 0.1, 0, 1)],
        ids=["k4", "k2", "k0"])
    def test_a_corner_reached_in_k_steps_takes_k_plus_two_rows(self, x0, epsilon, k, spent):
        # the gradient's sign is -1 everywhere, so the row walks down by eta until
        # the ball's lower corner stops it; it is seen there one step after it
        # first repeats, unless the start already is the corner
        model = LinearLogistic([[1.0, -1.0], [1.0, -1.0]], [0.0, 0.0])
        x = np.array([x0])
        cfg = AttackConfig(epsilon=epsilon, eta=0.03, steps=10, random_init=False)
        iterates = []
        want = pgd_attack_loop(model, x, [0], cfg, iterates=iterates)
        lo = np.maximum(0.0, x - epsilon)
        assert all(np.array_equal(it, lo) == (s >= k) for s, it in enumerate(iterates))
        rows = _count_gradient_rows(model)
        assert _bitwise_equal(pgd_attack(model, x, [0], cfg), want)
        assert sum(rows) == settled_row_steps(iterates) == spent

    @pytest.mark.parametrize("steps", [7, 8, 25, 26])
    def test_two_cycles_end_on_the_full_loops_iterate(self, steps):
        # the loss ascends toward x = 0.5 from both sides, where both relus are
        # off and the gradient is 0: 0.5 is a fixed point, and the other rows
        # end up stepping across it and back
        model = MLPClassifier(ModelSpec(input_dim=1, hidden_layers=(2,), num_classes=2))
        (w, b), = model.hidden
        w.data[...] = [[1.0, -1.0]]
        b.data[...] = [[-0.5, 0.5]]
        model.cls_w.data[...] = [[-1.0, 0.0], [-1.0, 0.0]]
        model.cls_b.data[...] = 0.0
        x = np.array([[0.52], [0.4], [0.5], [0.61]])
        y = np.ones(4, dtype=np.intp)
        cfg = AttackConfig(epsilon=0.15, eta=0.03, steps=steps, random_init=False)
        iterates = []
        want = pgd_attack_loop(model, x, y, cfg, iterates=iterates)
        assert not np.array_equal(iterates[-1], iterates[-2])  # a 2-cycle is still live
        rows = _count_gradient_rows(model)
        assert _bitwise_equal(pgd_attack(model, x, y, cfg), want)
        assert sum(rows) == settled_row_steps(iterates) == 13

    @pytest.mark.parametrize("targeted", [False, True])
    @pytest.mark.parametrize("random_init", [True, False])
    def test_equals_the_full_loop_on_uneven_batches(self, targeted, random_init):
        model = MLPClassifier(ModelSpec(input_dim=4, hidden_layers=(8, 6), num_classes=3),
                              seed=11)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.05, 0.95, size=(16, 4))
        y = rng.integers(0, 3, size=16)
        goal = (y + 1) % 3 if targeted else None
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=30, random_init=random_init)
        iterates = []
        want = pgd_attack_loop(model, x, y, cfg, seed=(6, 1), targets=goal, index_base=3,
                               iterates=iterates)
        rows = _count_gradient_rows(model)
        got = np.concatenate([
            pgd_attack(model, x[lo:hi], y[lo:hi], cfg, seed=(6, 1), index_base=3 + lo,
                       targets=None if goal is None else goal[lo:hi])
            for lo, hi in ((0, 1), (1, 10), (10, 16))])
        assert _bitwise_equal(got, want)
        assert sum(rows) == settled_row_steps(iterates) < cfg.steps * len(x)

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_signed_zeros_are_two_states(self, steps):
        # a zero gradient steps x = -0.0 to +0.0, which float == takes for no move
        model = LinearLogistic(np.zeros((2, 2)), np.zeros(2))
        x = np.array([[-0.0, 0.5]])
        cfg = AttackConfig(epsilon=0.1, eta=0.01, steps=steps, random_init=False,
                           clip_range=(-1.0, 1.0))
        got = pgd_attack(model, x, [0], cfg)
        assert _bitwise_equal(got, pgd_attack_loop(model, x, [0], cfg))
        assert not np.signbit(got[0, 0])

    def test_a_run_and_its_evaluation_keep_every_byte(self, tmp_path, monkeypatch):
        # a shortened train-ascl-blobs run, then evaluate under none, PGD-50 and
        # MT-PGD-50, once as it is and once with every PGD row stepped to the end
        gradient_rows = []
        real = MLPClassifier._input_gradient
        monkeypatch.setattr(MLPClassifier, "_input_gradient", lambda model, x, labels:
                            gradient_rows.append(len(x)) or real(model, x, labels))

        def run(name):
            gradient_rows.clear()
            cfg = RunConfig(dataset="blobs", data_classes=10, data_per_class=25, data_dims=16,
                            batch_size=256, strategy="global", lambda_scl=1.0, lambda_vat=2.0,
                            tau=0.07, train_steps=10, epochs=1, eval_every=1, eval_steps=50,
                            seed=61, data_seed=61, output_dir=str(tmp_path / name))
            result = train(cfg)
            _, test = cfg.build_datasets()
            rows = evaluate(result.model, test, AttackConfig(epsilon=0.05, eta=0.0125, steps=50),
                            seed=61)
            with open(result.metrics_path) as fh:
                # every column but the last, wall_time_s
                metrics = [line.rsplit(",", 1)[0] for line in fh]
            return (Path(result.checkpoint_path).read_bytes(), repr(result.summary["final"]),
                    repr(rows), metrics), sum(gradient_rows)

        settled, settled_rows = run("settled")
        monkeypatch.setattr(ascl.attacks, "_pgd", pgd_loop)
        full, full_rows = run("full")
        assert full == settled
        assert settled_rows < full_rows


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
    ``(*seed, indices[i])`` and the column."""

    def test_known_answer(self):
        # integer-only hash: these values do not depend on the BLAS build
        got = _random_start((3, 7), np.arange(5, 7), (2, 3), 1.0)
        assert got.ravel().tolist() == [
            -0.9316861660744953, -0.34097699213492083, 0.27925633008870365,
            -0.1431691729188227, 0.1596467652678717, -0.5280414552580692]

    @pytest.mark.parametrize("seed,index_base", [((3, 7), 5), (0, 0), ((2**64 - 1, 1), 1000)])
    def test_matches_per_entry_reference(self, seed, index_base):
        got = _random_start(seed, np.arange(index_base, index_base + 5), (5, 3), 0.07)
        assert got.tobytes() == _random_start_reference(seed, index_base, 5, 3, 0.07).tobytes()

    def test_values_lie_in_the_ball_and_are_uniform(self):
        eps = 0.05
        noise = _random_start(11, np.arange(1000), (1000, 8), eps)
        assert noise.shape == (1000, 8)
        assert np.abs(noise).max() <= eps
        assert kstest(noise.ravel(), "uniform", args=(-eps, 2 * eps)).pvalue > 0.01

    def test_uneven_split_equals_whole_batch(self):
        whole = _random_start((4, 2), np.arange(10, 74), (64, 3), 0.1)
        parts = [_random_start((4, 2), np.arange(10 + lo, 10 + hi), (hi - lo, 3), 0.1)
                 for lo, hi in ((0, 1), (1, 63), (63, 64))]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_any_indices_give_the_matching_rows_of_the_contiguous_draw(self):
        whole = _random_start((4, 2), np.arange(10, 74), (64, 3), 0.1)
        picked = np.array([63, 0, 17, 17, 5, 0, 62])
        got = _random_start((4, 2), 10 + picked, (len(picked), 3), 0.1)
        assert got.tobytes() == whole[picked].tobytes()

    def test_int_seed_equals_one_part_tuple(self):
        rows = np.arange(8)
        assert (_random_start(3, rows, (8, 2), 0.1).tobytes()
                == _random_start((3,), rows, (8, 2), 0.1).tobytes()
                == _random_start([3], rows, (8, 2), 0.1).tobytes()
                == _random_start(np.int64(3), rows, (8, 2), 0.1).tobytes())

    def test_distinct_seeds_give_distinct_streams(self):
        seeds = [1, 2, (1, 2), (2, 1), (1, 0), (0, 1), (1, 0, 0), (0,)]
        streams = {_random_start(s, np.arange(16), (16, 2), 0.1).tobytes() for s in seeds}
        assert len(streams) == len(seeds)

    def test_epsilon_only_scales(self):
        rows = np.arange(3, 35)
        a = _random_start(5, rows, (32, 4), 0.03) / 0.03
        b = _random_start(5, rows, (32, 4), 0.5) / 0.5
        # one rounding in each product and each quotient
        np.testing.assert_allclose(a, b, rtol=2**-50, atol=0)


def _mtpgd_case(classes, n=23):
    """An untrained model and a batch on which, at epsilon 0.08, rows are
    decided by the first and by later targets and some by none."""
    model = MLPClassifier(ModelSpec(input_dim=5, hidden_layers=(8, 6), num_classes=classes),
                          seed=classes)
    rng = np.random.default_rng(classes)
    x = rng.uniform(0.05, 0.95, size=(n, 5))
    pred = np.argmax(model.forward(x).data, axis=1)
    y = np.where(np.arange(n) % 3 == 0, rng.integers(0, classes, size=n), pred)
    return model, x, y


def _batched(attack, model, x, y, cfg, seed, index_base, batch):
    batch = batch or len(x)
    return np.concatenate([attack(model, x[lo:lo + batch], y[lo:lo + batch], cfg, seed=seed,
                                  index_base=index_base + lo)
                           for lo in range(0, len(x), batch)])


class TestMultiTargeted:
    @pytest.mark.parametrize("batch", [None, 7, 1])
    @pytest.mark.parametrize("random_init", [True, False])
    @pytest.mark.parametrize("seed", [7, (7, 2)])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_equals_full_batch_loop_bitwise(self, classes, seed, random_init, batch):
        model, x, y = _mtpgd_case(classes)
        cfg = AttackConfig(epsilon=0.08, eta=0.02, steps=4, random_init=random_init)
        got = _batched(multi_targeted_pgd, model, x, y, cfg, seed, 5, batch)
        want = _batched(multi_targeted_pgd_loop, model, x, y, cfg, seed, 5, batch)
        assert _bitwise_equal(got, want)

    @pytest.mark.parametrize("batch", [None, 7, 1])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_epsilon_zero_equals_full_batch_loop(self, classes, batch):
        model, x, y = _mtpgd_case(classes)
        cfg = AttackConfig(epsilon=0.0, eta=0.02, steps=4)
        got = _batched(multi_targeted_pgd, model, x, y, cfg, 3, 5, batch)
        assert _bitwise_equal(got, _batched(multi_targeted_pgd_loop, model, x, y, cfg, 3, 5,
                                            batch))
        assert got.tobytes() == x.tobytes()

    def test_attacks_only_rows_no_earlier_target_has_decided(self, monkeypatch):
        # zero classifier weights: every row is predicted 0 and has a zero
        # input gradient, so target 0 decides every row labelled 1 or 2, and
        # only the rows labelled 0 stay open for targets 1 and 2
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=3), seed=1)
        model.cls_w.data[...] = 0.0
        model.cls_b.data[...] = [1.0, 0.0, 0.0]
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, size=(12, 3))
        y = np.array([0, 1, 2, 0, 2, 2, 1, 0, 0, 1, 2, 2])
        calls = []

        real = MLPClassifier._input_gradient

        def spy(model, x_adv, labels):
            # the iterates stay at x: no random start and zero steps
            rows = [int(np.flatnonzero((x == r).all(axis=1))[0]) for r in x_adv]
            calls.append((rows, np.unique(labels).tolist()))
            return real(model, x_adv, labels)

        monkeypatch.setattr(MLPClassifier, "_input_gradient", spy)
        cfg = AttackConfig(epsilon=0.05, eta=0.01, steps=3, random_init=False)
        got = multi_targeted_pgd(model, x, y, cfg, seed=4)
        assert got.tobytes() == x.tobytes()
        # the first step returns every row to x, a fixed point: one call per pass
        assert sum(len(rows) for rows, _ in calls) == (y != 0).sum() + 2 * (y == 0).sum()
        for rows, (t,) in calls:
            assert not np.any(y[rows] == t)
        assert [rows for rows, t in calls if t == [1]] == [np.flatnonzero(y == 0).tolist()]

    @pytest.mark.parametrize("eps", [0.05, 0.0])
    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan])
    def test_validates_input_before_any_pass(self, toy_model, toy_batch, monkeypatch, eps,
                                             bad):
        def refuse(*args):
            raise AssertionError("an attack pass ran on an invalid batch")

        monkeypatch.setattr(MLPClassifier, "_input_gradient", refuse)
        x, y = toy_batch
        x = x.copy()
        x[5, 2] = bad
        with pytest.raises(ContractError, match="outside clip_range"):
            multi_targeted_pgd(toy_model, x, y, AttackConfig(epsilon=eps, eta=0.01, steps=3))

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

    @pytest.mark.parametrize("attack", ["none", "pgd", "mpgd"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_are_a_contract_error(self, attack, bad):
        # argmax of NaN logits is class 0, so rows labelled 0 would count as correct
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=2), seed=0)
        x = np.full((4, 3), 0.5)
        x[:, 1] = bad
        with pytest.raises(ContractError, match="finite"):
            robust_accuracy(model, x, np.zeros(4, dtype=int), attack,
                            AttackConfig(epsilon=0.05, eta=0.01, steps=2))

    @pytest.mark.parametrize("attack", ["none", "pgd", "mpgd"])
    @pytest.mark.parametrize("bad", [3, -1])
    def test_label_outside_the_classes_is_a_contract_error(self, toy_model, toy_batch,
                                                          attack, bad):
        # the last batch holds the bad label
        x, y = toy_batch
        y = y.copy()
        y[-1] = bad
        with pytest.raises(ContractError, match="labels"):
            robust_accuracy(toy_model, x, y, attack, AttackConfig(epsilon=0.05, eta=0.01, steps=2),
                            batch_size=5)

    @pytest.mark.parametrize("attack", ["none", "pgd", "mpgd"])
    def test_fractional_labels_are_a_contract_error(self, toy_model, toy_batch, attack):
        # the intp cast read [0.5, 1.5, 2.5] as [0, 1, 2] and scored against those
        x, y = toy_batch
        with pytest.raises(ContractError, match="labels must be integers"):
            robust_accuracy(toy_model, x, y + 0.5, attack,
                            AttackConfig(epsilon=0.05, eta=0.01, steps=2))

    @pytest.mark.parametrize("shape", [(16, 3), (16,), (16, 4, 1)])
    def test_wrong_feature_shape_is_a_dimension_error(self, toy_model, toy_batch, shape):
        _, y = toy_batch
        with pytest.raises(DimensionError, match=r"features must be \(N, 4\)"):
            robust_accuracy(toy_model, np.full(shape, 0.5), y, "none", AttackConfig())

    def test_empty_dataset(self, toy_model):
        with pytest.raises(ContractError):
            robust_accuracy(toy_model, np.zeros((0, 4)), np.zeros(0, dtype=int),
                            "pgd", AttackConfig())

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_below_one_is_a_contract_error(self, toy_model, toy_batch, batch_size):
        # -1 read 0.0, 0 and 2.5 raised from range() and True read as 1
        x, y = toy_batch
        with pytest.raises(ContractError, match="batch_size"):
            robust_accuracy(toy_model, x, y, "none", AttackConfig(), batch_size=batch_size)

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
