import io
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ascl.attacks
import ascl.divergence
from ascl.attacks import AttackConfig, pgd_attack, robust_accuracy
from ascl.config import RunConfig
from ascl.divergence import (SWEEP_COLUMNS, absolute_divergences, divergence_report,
                             divergence_sweep, relative_divergence)
from ascl.errors import ContractError, DomainError
from ascl.models import MLPClassifier, ModelSpec
from ascl.training import _eval_row, evaluate, train, write_csv


def cosine_distance(z_a, z_b) -> float:
    """1 - cosine similarity of two vectors; lies in [0, 2]."""
    a = np.asarray(z_a, dtype=np.float64)
    b = np.asarray(z_b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if not (na > 0 and nb > 0):
        raise DomainError("cosine distance of a zero vector")
    return float(1.0 - np.dot(a, b) / (na * nb))


def brute_force_divergences(pool, slot_labels, src):
    """Double loop over anchor/other slot pairs; the independent oracle. A zero
    row is at distance 1 from every slot; a side with no anchor is None."""
    m = pool.shape[0]
    plus_terms, minus_terms = [], []
    for i in range(m):
        pos, neg = [], []
        for j in range(m):
            if src[j] == src[i]:
                continue
            zero = not (pool[i].any() and pool[j].any())
            d = 1.0 if zero else cosine_distance(pool[i], pool[j])
            (pos if slot_labels[j] == slot_labels[i] else neg).append(d)
        if pos:
            plus_terms.append(np.mean(pos))
        if neg:
            minus_terms.append(np.mean(neg))
    return tuple(float(np.mean(t)) if t else None for t in (plus_terms, minus_terms))


def oracle_pool(rng, kind):
    """A random pool of one kind, as (z, labels, z_adv); z_adv is None when benign-only."""
    n = int(rng.integers(20, 41)) if kind == "large" else int(rng.integers(2, 17))
    z, z_adv, labels = random_pool(rng, n, int(rng.integers(1, 4)))
    if kind == "zero latents":
        z[rng.random(n) < 0.3] = 0.0
        z_adv[rng.random(n) < 0.3] = 0.0
    elif kind == "one-sample class":
        labels[int(rng.integers(n))] = 3
    elif kind == "sparse labels":
        labels = np.where(labels % 2, 2**40, 0)
    elif kind == "negative labels":
        labels = np.array([-7, -1, 5])[labels]
    return z, labels, None if kind == "benign-only" else z_adv


def random_pool(rng, n, c, dims=4):
    z = rng.normal(size=(n, dims))
    z_adv = z + 0.3 * rng.normal(size=(n, dims))
    labels = rng.integers(0, c, size=n)
    return z, z_adv, labels


class TestCosineDistance:
    def test_self_distance_zero(self):
        assert cosine_distance([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_unit(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)

    def test_zero_vector(self):
        with pytest.raises(DomainError):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = cosine_distance(rng.normal(size=5), rng.normal(size=5))
            assert 0.0 <= d <= 2.0


class TestAbsoluteDivergences:
    def test_identical_latents(self):
        z = np.tile([1.0, 1.0], (4, 1))
        dp, dm = absolute_divergences(z, [0, 0, 1, 1], z.copy())
        assert dp == pytest.approx(0.0, abs=1e-12)
        assert dm == pytest.approx(0.0, abs=1e-12)
        assert relative_divergence(dp, dm) is None

    def test_orthogonal_clusters(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        dp, dm = absolute_divergences(z, [0, 0, 1, 1], z.copy())
        assert dp == pytest.approx(0.0, abs=1e-12)
        assert dm == pytest.approx(1.0)
        assert relative_divergence(dp, dm) == pytest.approx(0.0, abs=1e-12)

    def test_zero_latent_is_at_distance_one(self):
        # slot 0 is all zero: distance 1 to both others; slots 1 and 2 coincide
        z = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        dp, dm = absolute_divergences(z, [0, 0, 1])
        assert dp == 1.0
        assert dm == pytest.approx(0.5)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for kind in ("plain", "zero latents", "one-sample class", "sparse labels",
                     "negative labels", "benign-only", "large"):
            for _ in range(30 if kind == "plain" else 6):
                z, labels, z_adv = oracle_pool(rng, kind)
                views = 1 if z_adv is None else 2
                pool = z if z_adv is None else np.concatenate([z, z_adv])
                expected = brute_force_divergences(pool, np.tile(labels, views),
                                                   np.tile(np.arange(len(z)), views))
                for got, want in zip(absolute_divergences(z, labels, z_adv), expected):
                    assert (got is None) == (want is None), kind
                    if want is not None:
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), kind

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_empty_pool_has_no_divergences(self, adversarial):
        z = np.zeros((0, 3))
        assert absolute_divergences(z, [], z.copy() if adversarial else None) == (None, None)

    def test_memory_grows_with_the_pool_not_its_square(self):
        # 400 samples pool 800 slots; one (800, 800) float64 block alone is 5.12 MB
        z, z_adv, labels = random_pool(np.random.default_rng(10), 400, 10, dims=16)
        m = 2 * len(z)
        tracemalloc.start()
        try:
            absolute_divergences(z, labels, z_adv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8 / 4

    def test_benign_only_pool(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(8, 3))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        dp, dm = absolute_divergences(z, labels)
        odp, odm = brute_force_divergences(z, labels, np.arange(8))
        assert dp == pytest.approx(odp, rel=1e-12)
        assert dm == pytest.approx(odm, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        z, z_adv, labels = random_pool(rng, 10, 3)
        labels[:5] = 0
        labels[5:] = 1
        a = absolute_divergences(z, labels, z_adv)
        b = absolute_divergences(z * 123.4, labels, z_adv * 123.4)
        assert abs(a[0] - b[0]) < 1e-10 and abs(a[1] - b[1]) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z, z_adv, labels = random_pool(rng, 9, 3)
        labels[0], labels[1] = 0, 1
        base = absolute_divergences(z, labels, z_adv)
        perm = rng.permutation(9)
        shuffled = absolute_divergences(z[perm], labels[perm], z_adv[perm])
        assert base[0] == pytest.approx(shuffled[0], rel=1e-12)
        assert base[1] == pytest.approx(shuffled[1], rel=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        z, z_adv, labels = random_pool(rng, 8, 3)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        a = absolute_divergences(z, labels, z_adv)
        remap = np.array([2, 0, 1])
        b = absolute_divergences(z, remap[labels], z_adv)
        assert a == pytest.approx(b, rel=1e-12)

    def test_single_class_is_degenerate(self):
        # no anchor has a negative: d- is undefined, d+ still exact
        z = np.random.default_rng(6).normal(size=(4, 3))
        labels = np.ones(4, dtype=np.intp)
        dp, dm = absolute_divergences(z, labels, z.copy())
        pool = np.concatenate([z, z])
        src = np.concatenate([np.arange(4)] * 2)
        expected = np.mean([np.mean([cosine_distance(pool[i], pool[j])
                                     for j in range(8) if src[j] != src[i]])
                            for i in range(8)])
        assert dp == pytest.approx(expected, rel=1e-12)
        assert dm is None
        assert relative_divergence(dp, dm) is None

    @pytest.mark.parametrize("adversarial", [False, True])
    def test_fractional_labels_are_a_contract_error(self, adversarial):
        # the intp cast read [0.9, 0.2, 1.7, 1.2] as [0, 0, 1, 1]
        z = np.random.default_rng(9).normal(size=(4, 3))
        with pytest.raises(ContractError, match="labels must be integers"):
            absolute_divergences(z, [0.9, 0.2, 1.7, 1.2], z.copy() if adversarial else None)

    def test_skips_empty_positive_anchors(self):
        # one isolated sample of class 2: its slots have no positives but
        # still count as negatives' anchors
        z = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        dp, dm = absolute_divergences(z, [0, 0, 2])
        # the class-2 anchor contributes nothing to dp
        expected_dp = cosine_distance(z[0], z[1])
        assert dp == pytest.approx(expected_dp, rel=1e-12)


class TestRelativeDivergence:
    def test_zero_intra(self):
        assert relative_divergence(0.0, 0.5) == 0.0

    def test_equal_divergences(self):
        assert relative_divergence(0.3, 0.3) == pytest.approx(1.0)

    def test_undefined_at_tolerance(self):
        assert relative_divergence(0.1, 1e-13) is None


@pytest.fixture(scope="module")
def trained_for_sweep(tmp_path_factory):
    cfg = RunConfig(dataset="moons", data_size=100, data_noise=0.12, epochs=6,
                    batch_size=50, hidden_layers=(16, 16), lambda_scl=0.0,
                    lambda_vat=0.0, train_eps=0.08, train_eta=0.02, train_steps=5,
                    eval_eps=0.08, eval_eta=0.02, eval_steps=10, eval_every=0,
                    seed=6, output_dir=str(tmp_path_factory.mktemp("div_run")))
    result = train(cfg)
    _, test = cfg.build_datasets()
    return result.model, test


class TestSweep:
    def test_rows_sorted_and_eps0_semantics(self, trained_for_sweep):
        model, test = trained_for_sweep
        base = AttackConfig(epsilon=0.08, eta=0.02, steps=5)
        rows = divergence_sweep(model, test, [0.05, 0.0, 0.02], base, seed=0)
        assert [r["epsilon"] for r in rows] == [0.0, 0.02, 0.05]
        zero = rows[0]
        nat_preds = np.argmax(model.forward(test.features).data, axis=1)
        assert zero["robust_acc"] == (nat_preds == test.labels).mean()
        benign = divergence_report(model, test.features, test.labels, None)
        assert zero["d_a_plus"] == benign.d_a_plus

    def test_each_attacked_row_attacks_every_sample_once(self, trained_for_sweep,
                                                          monkeypatch):
        model, test = trained_for_sweep
        attacked = Counter()

        def counting(model, x, y, cfg, seed=0, index_base=0, **kwargs):
            attacked.update((cfg.epsilon, index_base + i) for i in range(len(x)))
            return pgd_attack(model, x, y, cfg, seed=seed, index_base=index_base, **kwargs)

        # every name under which the sweep could reach the attack
        monkeypatch.setattr(ascl.attacks, "pgd_attack", counting)
        monkeypatch.setattr(ascl.divergence, "pgd_attack", counting)
        grid = [0.0, 0.02, 0.05]
        rows = divergence_sweep(model, test, grid, AttackConfig(eta=0.02, steps=3),
                                seed=0, batch_size=64)
        assert len(rows) == 3
        assert attacked == Counter((eps, i) for eps in grid[1:] for i in range(len(test)))

    def test_csv_schema(self, trained_for_sweep):
        model, test = trained_for_sweep
        rows = divergence_sweep(model, test, [0.0, 0.02],
                                AttackConfig(epsilon=0.02, eta=0.01, steps=3), seed=0)
        buf = io.StringIO()
        write_csv(rows, SWEEP_COLUMNS, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3

    def test_batched_equals_single_when_small(self, trained_for_sweep):
        model, test = trained_for_sweep
        r1 = divergence_report(model, test.features, test.labels, None, batch_size=128)
        r2 = divergence_report(model, test.features, test.labels, None, batch_size=1000)
        assert r1.d_a_plus == r2.d_a_plus

    def test_report_does_not_depend_on_batch_size(self, trained_for_sweep):
        # the moons test labels are sorted, so small batches hold one class
        model, test = trained_for_sweep
        x, y = test.features, test.labels
        n = len(y)
        cfg = AttackConfig(epsilon=0.08, eta=0.02, steps=3)
        z_adv = model.encode(pgd_attack(model, x, y, cfg, seed=3)).data
        exact = absolute_divergences(model.encode(x).data, y, z_adv)
        for batch_size in (n, n // 2, 7):
            r = divergence_report(model, x, y, cfg, seed=3, batch_size=batch_size)
            assert (r.d_a_plus, r.d_a_minus) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("attack_cfg", [None, AttackConfig(epsilon=0.05, eta=0.01, steps=2)])
    def test_nan_features_are_a_contract_error(self, attack_cfg):
        # unchecked, the benign-only report would read nat_acc 1.0 (NaN logits argmax to 0)
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=2), seed=0)
        with pytest.raises(ContractError, match="finite"):
            divergence_report(model, np.full((4, 3), np.nan), np.zeros(4, dtype=int), attack_cfg)

    @pytest.mark.parametrize("batch_size", [0, -3, 2.5, True])
    def test_batch_size_below_one_is_a_contract_error(self, batch_size):
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(4,), num_classes=2), seed=0)
        with pytest.raises(ContractError, match="batch_size"):
            divergence_report(model, np.full((4, 3), 0.5), np.array([0, 1, 0, 1]), None,
                              batch_size=batch_size)


class TestOneEncodePerInput:
    def test_evaluations_encode_each_input_once_per_view(self, trained_for_sweep,
                                                         monkeypatch):
        model, test = trained_for_sweep
        n = len(test)
        encoded = []
        real_predict = MLPClassifier._predict

        def counting_predict(self, x):
            encoded.append(x.shape[0])
            return real_predict(self, x)

        def no_forward_attack(model, x, y, cfg, seed=0, index_base=0):
            return np.clip(np.asarray(x) + cfg.epsilon / 2, 0.0, 1.0)

        monkeypatch.setattr(MLPClassifier, "_predict", counting_predict)
        monkeypatch.setattr(ascl.divergence, "pgd_attack", no_forward_attack)
        monkeypatch.setattr(ascl.attacks, "pgd_attack", no_forward_attack)
        cfg = RunConfig(train_eps=0.08, train_eta=0.02, train_steps=3)
        divergence_report(model, test.features, test.labels, cfg.train_attack(), seed=1)
        assert sum(encoded) == 2 * n
        encoded.clear()
        _eval_row(model, test, cfg, 0, time.monotonic())
        assert sum(encoded) == 2 * n
        encoded.clear()
        evaluate(model, test, cfg.train_attack(), attacks=("none", "pgd"))
        assert sum(encoded) == 2 * n

    def test_natural_accuracy_agrees_across_callers(self, trained_for_sweep):
        model, test = trained_for_sweep
        x, y = test.features, test.labels
        cfg = AttackConfig(epsilon=0.08, eta=0.02, steps=3)
        nat = robust_accuracy(model, x, y, "none", cfg)
        report = divergence_report(model, x, y, cfg, seed=1)
        [(_, none_row)] = evaluate(model, test, cfg, attacks=("none",))
        [zero_row] = divergence_sweep(model, test, [0.0], cfg)
        assert report.nat_acc == nat
        assert none_row.nat_acc == none_row.rob_acc == nat
        assert zero_row["robust_acc"] == nat

    def test_latents_are_the_attacked_inputs_encodings(self, trained_for_sweep):
        model, test = trained_for_sweep
        x, y = test.features, test.labels
        cfg = AttackConfig(epsilon=0.08, eta=0.02, steps=3)
        latents = []
        acc = robust_accuracy(model, x, y, "pgd", cfg, seed=2, latents=latents)
        assert acc == robust_accuracy(model, x, y, "pgd", cfg, seed=2)
        x_adv = pgd_attack(model, x, y, cfg, seed=2)
        assert np.array_equal(np.concatenate(latents), model.encode(x_adv).data)
