import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ascl.losses
from ascl.data import Batch
from ascl.errors import ContractError
from ascl.losses import (STRATEGIES, LossWeights, at_loss, select, selection_masks,
                         selection_stats, supcon_batch, total_loss, vat_loss)
from ascl.models import MLPClassifier, ModelSpec
from ascl.tensor import Tensor
from mlp_graph import mul, sum_
from supcon_graph import similarity_matrix
from supcon_loop import supcon_anchor_adv, supcon_anchor_nat


def np_similarity(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def oracle_anchor_loss(anchor_vec, partner_idx, pool, sel, weights, dps=50):
    """Direct summation of the anchor loss at high precision (no lse)."""
    num_idx = list(sel.positives) + [partner_idx]
    den_idx = list(sel.positives) + list(sel.negatives) + [partner_idx]
    with mpmath.workdps(dps):
        den = mpmath.fsum(
            mpmath.exp(np_similarity(pool[k], anchor_vec) / weights.tau)
            for k in den_idx)
        terms = [
            mpmath.log(mpmath.exp(np_similarity(pool[j], anchor_vec) / weights.tau) / den)
            for j in num_idx
        ]
        return float(-mpmath.fsum(terms) / len(num_idx))


def oracle_batch_loss(pool, labels, preds, strategy, weights):
    n = len(labels)
    total = 0.0
    for i in range(n):
        sel = select(strategy, labels, preds, i)
        total += oracle_anchor_loss(pool[i], i + n, pool, sel, weights)
        total += oracle_anchor_loss(pool[i + n], i, pool, sel, weights)
    return total / n


def random_preds(rng, n, c):
    """2N slot predictions: natural then adversarial."""
    return rng.integers(0, c, size=2 * n)


def supcon(pool, labels, preds, strategy, weights):
    return supcon_batch(Tensor(pool), *selection_masks(strategy, labels, preds), weights)


class TestSelect:
    def test_global_single_class(self):
        labels = [1, 1, 1, 1]
        sel = select("global", labels, None, 0)
        assert sorted(sel.positives) == [1, 2, 3, 5, 6, 7]
        assert len(sel.negatives) == 0

    def test_hard_manual_enumeration(self):
        sel = select("hard", [0, 0, 1], [0, 1, 1, 1, 0, 1], 0)
        assert sorted(sel.positives) == [1, 4]
        assert len(sel.negatives) == 0

    def test_leaked_manual_enumeration(self):
        sel = select("leaked", [0, 0, 1], [0, 1, 1, 1, 0, 1], 0)
        assert list(sel.positives) == [4]

    @pytest.mark.parametrize("preds", [None, [0, 1, 1], [0, 1, 1, 1, 0, 1, 0],
                                       [[0, 1, 1], [1, 0, 1]]])
    def test_predictions_must_cover_every_slot(self, preds):
        with pytest.raises(ContractError):
            selection_masks("hard", [0, 0, 1], preds)

    @pytest.mark.parametrize("strategy,labels,preds", [
        ("global", [0.9, 0.2, 1.7, 1.2], None), ("hard", [0.5, 0, 1], [0, 1, 1, 0, 1, 1]),
        ("soft", [0, 1, 1], [0.5, 1, 1, 0, 1, 1]), ("leaked", [0, 1, 1], [0, 1, 1, 0, 1, 1.5]),
    ])
    def test_fractional_labels_and_predictions_are_a_contract_error(self, strategy, labels,
                                                                    preds):
        # the intp cast built the masks of the truncated labels and predictions
        with pytest.raises(ContractError, match="labels must be integers"):
            selection_masks(strategy, labels, preds)

    def test_anchor_out_of_range(self):
        with pytest.raises(ContractError):
            select("global", [0, 1], None, 2)

    def test_anchor_slots_never_included(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=8)
        preds = random_preds(rng, 8, 3)
        for strategy in STRATEGIES:
            for i in range(8):
                sel = select(strategy, labels, preds, i)
                slots = set(sel.positives) | set(sel.negatives)
                assert i not in slots and sel.anchor_adv_slot not in slots
                assert not (set(sel.positives) & set(sel.negatives))

    @given(st.integers(2, 10), st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_global_partition_covers_all_slots(self, n, c, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=n)
        for i in range(n):
            sel = select("global", labels, None, i)
            covered = set(sel.positives) | set(sel.negatives) | {i, sel.anchor_adv_slot}
            assert covered == set(range(2 * n))
            assert len(sel.positives) + len(sel.negatives) + 2 == 2 * n

    @given(st.integers(3, 12), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_strategy_subset_invariants(self, n, c, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, c, size=n)
        preds = random_preds(rng, n, c)
        for i in range(n):
            g = select("global", labels, preds, i)
            h = select("hard", labels, preds, i)
            s = select("soft", labels, preds, i)
            l = select("leaked", labels, preds, i)
            assert set(h.negatives) <= set(g.negatives)
            assert set(s.negatives) <= set(g.negatives)
            assert set(l.positives) <= set(g.positives)
            assert set(l.negatives) == set(s.negatives)
            assert np.array_equal(h.positives, g.positives)
            assert np.array_equal(s.positives, g.positives)


class TestSelectionStats:
    def test_balanced_closed_form(self):
        for c, m in [(2, 3), (4, 2), (5, 4)]:
            labels = np.repeat(np.arange(c), m)
            pos, neg = selection_stats("global", labels)
            assert pos == 2 * (m - 1) + 1
            assert neg == 2 * (c * m - m)

    def test_matches_per_anchor_select(self):
        rng = np.random.default_rng(1)
        for strategy in STRATEGIES:
            labels = rng.integers(0, 3, size=10)
            preds = random_preds(rng, 10, 3)
            pos, neg = selection_stats(strategy, labels, preds)
            sels = [select(strategy, labels, preds, i) for i in range(10)]
            assert pos == pytest.approx(np.mean([len(s.positives) + 1 for s in sels]))
            assert neg == pytest.approx(np.mean([len(s.negatives) for s in sels]))

    def test_batch_too_small(self):
        with pytest.raises(ContractError):
            selection_stats("global", [0])


class TestSimilarity:
    # the pairwise similarity matrix of the composition that is the oracle
    # for supcon_batch
    def test_cosine_self(self):
        z = Tensor([[1.0, 2.0, -1.0]])
        assert similarity_matrix(z).item() == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        sims = similarity_matrix(Tensor([[1.0, 0.0], [0.0, 1.0]])).data
        assert sims[0, 1] == sims[1, 0] == 0.0

    def test_cosine_zero_vector(self):
        # an all-zero latent has similarity 0 to every slot, itself included
        sims = similarity_matrix(Tensor([[0.0, 0.0], [1.0, 0.0]])).data
        assert np.array_equal(sims[0], [0.0, 0.0]) and np.array_equal(sims[:, 0], [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(5, 3), (4, 1), (6, 8)])
    def test_cosine_values_and_fd_gradient(self, shape):
        rng = np.random.default_rng(shape)
        x0 = rng.normal(size=shape)
        w = rng.normal(size=(shape[0], shape[0]))
        t = Tensor(x0)
        out = similarity_matrix(t)
        unit = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
        assert np.allclose(out.data, unit @ unit.T, rtol=1e-14, atol=1e-15)
        (g,) = sum_(mul(out, Tensor(w))).backward((t,))
        h = 1e-6
        for idx in np.ndindex(*shape):
            up, down = x0.copy(), x0.copy()
            up[idx] += h
            down[idx] -= h
            fd = float(((similarity_matrix(Tensor(up)).data
                         - similarity_matrix(Tensor(down)).data) * w).sum()) / (2 * h)
            assert abs(g[idx] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_weights_validation(self):
        for bad in [dict(tau=0.0), dict(tau=np.inf), dict(tau=np.nan), dict(lambda_scl=-1.0),
                    dict(lambda_scl=np.inf), dict(lambda_scl=np.nan), dict(lambda_vat=np.inf),
                    dict(lambda_vat=np.nan)]:
            with pytest.raises(ContractError):
                LossWeights(**bad)

    @pytest.mark.parametrize("bad,match", [
        (dict(tau=True), "temperature must be a real number, got True"),
        (dict(tau="0.07"), "temperature must be a real number"),
        (dict(lambda_scl=True), "loss weights must be a real number"),
        (dict(lambda_vat="2"), "loss weights must be a real number, got '2'")])
    def test_weights_must_be_real_numbers(self, bad, match):
        with pytest.raises(ContractError, match=match):
            LossWeights(**bad)


class TestSupConLoss:
    def test_degenerate_sets_give_exact_zero(self):
        # single sample: positives and negatives are empty
        pool = Tensor(np.array([[1.0, 0.5], [0.3, 2.0]]))
        sel = select("global", [0], None, 0)
        w = LossWeights()
        assert supcon_anchor_nat(0, pool, sel, w).item() == 0.0
        assert supcon_anchor_adv(0, pool, sel, w).item() == 0.0

    def test_symmetric_pool_makes_anchor_losses_equal(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(5, 3))
        pool = Tensor(np.concatenate([z, z]))
        labels = rng.integers(0, 2, size=5)
        w = LossWeights()
        for i in range(5):
            sel = select("global", labels, None, i)
            nat = supcon_anchor_nat(i, pool, sel, w).item()
            adv = supcon_anchor_adv(i, pool, sel, w).item()
            assert nat == pytest.approx(adv, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    def test_oracle_equivalence_small_batches(self, tau):
        rng = np.random.default_rng(3)
        w = LossWeights(tau=tau)
        for trial in range(25):
            n = int(rng.integers(2, 9))
            c = int(rng.integers(2, 4))
            pool = rng.normal(size=(2 * n, 4))
            labels = rng.integers(0, c, size=n)
            preds = random_preds(rng, n, c)
            strategy = STRATEGIES[trial % 4]
            got = supcon(pool, labels, preds, strategy, w).item()
            want = oracle_batch_loss(pool, labels, preds, strategy, w)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 6
            pool = rng.normal(size=(2 * n, 3))
            labels = rng.integers(0, 3, size=n)
            preds = random_preds(rng, n, 3)
            val = supcon(pool, labels, preds, "global", LossWeights()).item()
            assert val >= 0.0

    def test_single_sample_batch_is_zero(self):
        pool = np.array([[1.0, 0.2], [0.4, 1.0]])
        assert supcon(pool, [0], [0, 0], "global", LossWeights()).item() == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        n = 6
        z = rng.normal(size=(n, 4))
        za = rng.normal(size=(n, 4))
        labels = rng.integers(0, 2, size=n)
        preds = random_preds(rng, n, 2)
        w = LossWeights()
        base = supcon(np.concatenate([z, za]), labels, preds, "soft", w).item()
        perm = rng.permutation(n)
        permuted = supcon(np.concatenate([z[perm], za[perm]]), labels[perm],
                          preds[np.concatenate([perm, perm + n])], "soft", w).item()
        assert abs(base - permuted) < 1e-10

    def test_identical_rows_closed_form(self):
        # all similarities are 1, so each log term is -log(|den|) and the
        # loss depends on counts alone
        n, c = 6, 2
        labels = np.array([0, 0, 0, 1, 1, 1])
        pool = np.tile([1.0, 2.0], (2 * n, 1))
        w = LossWeights()
        got = supcon(pool, labels, None, "global", w).item()
        per_anchor = np.log(2 * n - 2 + 1)  # |pos| + |neg| + 1 terms in den
        assert got == pytest.approx(2 * per_anchor, rel=1e-12)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pool_gradient_vs_central_differences(self, strategy):
        # the node's hand-written VJP against the loss it computes
        rng = np.random.default_rng(STRATEGIES.index(strategy))
        n = 5
        labels, preds = rng.integers(0, 2, size=n), random_preds(rng, n, 2)
        masks = selection_masks(strategy, labels, preds)
        x0 = rng.normal(size=(2 * n, 3))
        w = LossWeights(tau=0.5)
        t = Tensor(x0)
        (g,) = supcon_batch(t, *masks, w).backward((t,))
        h = 1e-6
        for idx in np.ndindex(*x0.shape):
            up, down = x0.copy(), x0.copy()
            up[idx] += h
            down[idx] -= h
            fd = (supcon_batch(Tensor(up), *masks, w).item()
                  - supcon_batch(Tensor(down), *masks, w).item()) / (2 * h)
            assert abs(g[idx] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_cosine_scale_invariance(self):
        rng = np.random.default_rng(6)
        n = 5
        pool = rng.normal(size=(2 * n, 4))
        labels = rng.integers(0, 2, size=n)
        w = LossWeights()
        a = supcon(pool, labels, None, "global", w).item()
        b = supcon(pool * 37.5, labels, None, "global", w).item()
        assert abs(a - b) < 1e-10


class TestATLoss:
    def test_uniform_predictions(self):
        c = 4
        at = at_loss(Tensor(np.zeros((10, c))), [0, 1, 2, 3, 0])
        assert at.item() == pytest.approx(2 * np.log(c))

    def test_perfect_predictions(self):
        y = np.array([0, 1])
        logits = Tensor(np.tile(np.eye(2)[y] * 500.0, (2, 1)))
        assert at_loss(logits, y).item() == pytest.approx(0.0, abs=1e-12)

    def test_nat_ce_flag_drops_first_term(self):
        c = 3
        at = at_loss(Tensor(np.zeros((8, c))), [0, 1, 2, 0], nat_ce=False)
        assert at.item() == pytest.approx(np.log(c))


class TestVATLoss:
    def test_identical_predictions_exact_zero(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 3))
        assert vat_loss(Tensor(np.concatenate([logits, logits]))).item() == 0.0

    def test_point_mass_vs_uniform(self):
        logits = Tensor(np.array([[60.0, -60.0], [0.0, 0.0]]))
        assert vat_loss(logits).item() == pytest.approx(np.log(2), abs=1e-9)

    def test_gibbs_nonnegativity(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            val = vat_loss(Tensor(rng.normal(size=(50, 4)))).item()
            assert val >= 0.0


class TestTotalLoss:
    def _setup(self, seed=9, projection="identity"):
        rng = np.random.default_rng(seed)
        model = MLPClassifier(ModelSpec(input_dim=3, hidden_layers=(6, 5),
                                        num_classes=3, projection=projection,
                                        projection_dim=4, projection_mid=7), seed=seed)
        x = rng.uniform(0.1, 0.9, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        x_adv = np.clip(x + rng.uniform(-0.05, 0.05, size=x.shape), 0, 1)
        return model, Batch(x, y, x_adv)

    def test_zero_weights_reduce_to_at(self):
        model, batch = self._setup()
        w = LossWeights(lambda_scl=0.0, lambda_vat=0.0)
        bd = total_loss(batch, model, "global", w)
        logits = model.forward(np.concatenate([batch.x, batch.x_adv]))
        assert bd.total.item() == at_loss(logits, batch.y).item()
        assert bd.scl == 0.0 and bd.vat == 0.0

    def _record_masks(self, monkeypatch):
        calls = []
        real = ascl.losses.selection_masks

        def recording(strategy, labels, preds=None):
            calls.append(preds)
            return real(strategy, labels, preds)

        monkeypatch.setattr(ascl.losses, "selection_masks", recording)
        return calls

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_masks_built_once_from_argmax_slot_predictions(self, monkeypatch, strategy):
        model, batch = self._setup()
        calls = self._record_masks(monkeypatch)
        bd = total_loss(batch, model, strategy, LossWeights())
        assert len(calls) == 1
        logits = np.concatenate([model.forward(batch.x).data, model.forward(batch.x_adv).data])
        assert np.array_equal(calls[0], np.argmax(logits, axis=1))
        assert (bd.mean_pos, bd.mean_neg) == selection_stats(strategy, batch.y, calls[0])

    def test_uniform_logits_tie_to_class_zero(self, monkeypatch):
        model, batch = self._setup()
        model.cls_w.data = np.zeros_like(model.cls_w.data)
        calls = self._record_masks(monkeypatch)
        total_loss(batch, model, "hard", LossWeights())
        assert np.array_equal(calls[0], np.zeros(8))

    def test_batch_size_mismatch(self):
        model, batch = self._setup()
        with pytest.raises(ContractError):
            total_loss(Batch(batch.x, batch.y, batch.x_adv[:3]), model, "global", LossWeights())

    def test_default_weights(self):
        w = LossWeights()
        assert w.lambda_scl == 1.0 and w.lambda_vat == 2.0 and w.tau == 0.07

    def test_affine_in_lambdas(self):
        model, batch = self._setup()
        vals = []
        for lam_scl, lam_vat in [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)]:
            w = LossWeights(lambda_scl=lam_scl, lambda_vat=lam_vat)
            vals.append(total_loss(batch, model, "global", w).total.item())
        # collinear weight points: midpoint interpolates
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, rel=1e-12)

    def test_components_recombine(self):
        model, batch = self._setup()
        w = LossWeights(lambda_scl=0.7, lambda_vat=1.3)
        bd = total_loss(batch, model, "leaked", w)
        assert bd.total.item() == pytest.approx(
            bd.at + 0.7 * bd.scl + 1.3 * bd.vat, abs=1e-10)

    def test_all_losses_finite(self):
        for strategy in STRATEGIES:
            model, batch = self._setup(seed=10)
            bd = total_loss(batch, model, strategy, LossWeights())
            assert np.isfinite(bd.total.item())
            assert bd.at >= 0 and bd.scl >= 0 and bd.vat >= 0

    @pytest.mark.parametrize("projection", ["identity", "linear", "two_layer"])
    @pytest.mark.parametrize("terms", [dict(), dict(nat_ce=False, use_vat=False)],
                             ids=["all", "adv_scl"])
    def test_full_objective_gradient_vs_fd(self, projection, terms):
        model, batch = self._setup(seed=11, projection=projection)
        w = LossWeights()

        def value():
            return total_loss(batch, model, "global", w, **terms).total.item()

        bd = total_loss(batch, model, "global", w, **terms)
        h = 1e-5
        checked = 0
        for p, g in zip(model.parameters, bd.total.backward(model.parameters)):
            g = g if g is not None else np.zeros_like(p.data)
            flat = list(np.ndindex(*p.data.shape))
            for idx in flat[:: max(1, len(flat) // 6)]:
                orig = p.data[idx]
                p.data = p.data.copy()
                p.data[idx] = orig + h
                up = value()
                p.data = p.data.copy()
                p.data[idx] = orig - h
                down = value()
                p.data = p.data.copy()
                p.data[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(g[idx] - fd) / (abs(g[idx]) + 1e-8) < 1e-4
                checked += 1
        assert checked >= 10
