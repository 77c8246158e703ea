import json

import numpy as np
import pytest

from fairkit import cli, data, files, nn, training
from fairkit.errors import IOErrorWithStage, LabelDomainError, TrainingDivergedError
from test_nn import finite_diff_grad, rel_err, scl_brute_force, zero_grads


def biased_bundle(seed=0, group_shift=2.5, n=150):
    spec = data.SyntheticSpec(
        n_per_cell={(0, 0): n, (0, 1): n // 3, (1, 0): n // 3, (1, 1): n},
        d=6, class_separation=1.5, group_shift=group_shift, noise_sigma=1.0, seed=seed)
    return data.generate_synthetic(spec)


def random_batch(rng, n=8, d=5, num_classes=2, num_groups=2):
    y = rng.integers(0, num_classes, n)
    g = rng.integers(0, num_groups, n)
    # make sure both classes and groups appear
    y[0], y[1] = 0, 1
    g[0], g[1] = 0, 1
    return data.Batch(X=rng.normal(size=(n, d)), y=y, g=g, weights=np.ones(n))


def make_model(cfg, d=5, num_classes=2, num_groups=2, seed=0):
    spec = nn.MlpSpec(input_dim=d, hidden_dims=cfg.hidden_dims,
                      output_dim=num_classes, activation=cfg.activation, seed=seed)
    if cfg.method == "Gate":
        return training.init_gate_model(spec, num_groups, head_seed=seed + 1)
    return nn.init_network(spec)


def check_gradients(cfg, seed, discs=None):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng)
    model = make_model(cfg, seed=seed)
    loss, grads, _, _ = training.main_loss_and_grads(model, batch, cfg, discs=discs)
    theta0 = nn.flatten(model.params)

    def loss_of(theta):
        nn.unflatten_into(model.params, theta)
        return training.main_loss_and_grads(model, batch, cfg, discs=discs)[0]

    numeric = finite_diff_grad(loss_of, theta0)
    nn.unflatten_into(model.params, theta0)
    return rel_err(nn.flatten(grads), numeric)


class TestGradientCompositions:
    @pytest.mark.parametrize("seed", range(4))
    def test_standard_ce(self, seed):
        cfg = training.MethodConfig(method="Standard", hidden_dims=(6,), activation="tanh")
        assert check_gradients(cfg, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_ce_plus_adversarial(self, seed):
        cfg = training.MethodConfig(method="Adv", adv_lambda=0.8, hidden_dims=(6,),
                                    activation="tanh", disc_hidden_dims=(4,))
        discs = training.init_discriminators(cfg, hidden_dim=6, num_classes=2, num_groups=2)
        assert check_gradients(cfg, seed, discs=discs) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_ce_plus_fairscl(self, seed):
        cfg = training.MethodConfig(method="FairSCL", fcl_lambda_y=0.5, fcl_lambda_g=0.3,
                                    hidden_dims=(6,), activation="tanh", temperature=0.3)
        assert check_gradients(cfg, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_ce_plus_eo_cla(self, seed):
        cfg = training.MethodConfig(method="EO_CLA", eo_cla_lambda=0.7,
                                    hidden_dims=(6,), activation="tanh")
        assert check_gradients(cfg, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_gate_augmented_ce(self, seed):
        cfg = training.MethodConfig(method="Gate", hidden_dims=(6,), activation="tanh")
        assert check_gradients(cfg, seed) < 1e-4


class TestAdversarial:
    def test_lambda_zero_update_equals_standard(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        cfg_std = training.MethodConfig(method="Standard", hidden_dims=(6,))
        cfg_adv = training.MethodConfig(method="Adv", adv_lambda=0.0, hidden_dims=(6,))
        discs = training.init_discriminators(cfg_adv, 6, 2, 2)
        m1 = make_model(cfg_std, seed=3)
        m2 = make_model(cfg_adv, seed=3)
        _, g1, _, _ = training.main_loss_and_grads(m1, batch, cfg_std)
        _, g2, _, _ = training.main_loss_and_grads(m2, batch, cfg_adv, discs=discs)
        np.testing.assert_array_equal(nn.flatten(g1), nn.flatten(g2))

    def test_constant_hidden_reversed_gradient(self):
        # constant hidden rows -> identical per-row discriminator input gradient,
        # and the main model receives -lambda times the mean of it
        cfg = training.MethodConfig(method="Adv", adv_lambda=2.0, disc_hidden_dims=(4,))
        discs = training.init_discriminators(cfg, hidden_dim=3, num_classes=2, num_groups=2)
        hidden = np.tile([[0.3, -0.2, 0.9]], (5, 1))
        batch = data.Batch(X=np.zeros((5, 1)), y=np.zeros(5, dtype=int),
                           g=np.zeros(5, dtype=int), weights=np.ones(5))
        _, rev = training.adversarial_hidden_grad(discs, hidden, batch, 2.0)
        inputs = hidden
        trace = nn.forward(discs[0], inputs)
        _, d_logits, _ = nn.cross_entropy(trace.logits, batch.g, batch.weights)
        raw = nn.backward(discs[0], trace, d_logits).d_X
        np.testing.assert_allclose(raw[0], raw[1], atol=1e-12)
        np.testing.assert_allclose(rev, -2.0 * raw, atol=1e-12)

    def test_reversed_gradient_scales_linearly_in_lambda(self):
        cfg = training.MethodConfig(method="Adv", adv_lambda=1.0, disc_hidden_dims=(4,))
        discs = training.init_discriminators(cfg, 4, 2, 2)
        rng = np.random.default_rng(1)
        hidden = rng.normal(size=(6, 4))
        batch = random_batch(rng, n=6, d=4)
        grads = {}
        for lam in (0.5, 1.0, 2.0):
            _, rev = training.adversarial_hidden_grad(discs, hidden, batch, lam)
            grads[lam] = rev
        np.testing.assert_allclose(grads[1.0], 2.0 * grads[0.5], atol=1e-12)
        np.testing.assert_allclose(grads[2.0], 2.0 * grads[1.0], atol=1e-12)

    def test_diff_penalty_frobenius_identity(self):
        # identical first-layer outputs give penalty ||H^T H||_F^2 > 0;
        # orthogonal columns give 0
        H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        M = H.T @ H
        assert np.sum(M * M) > 0
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        B = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.sum((A.T @ B) ** 2) == 0.0

    def test_discriminator_step_with_orthogonality_matches_fd(self):
        cfg = training.MethodConfig(method="DAdv", adv_lambda=1.0, n_discriminators=2,
                                    diff_lambda=0.4, disc_hidden_dims=(3,),
                                    activation="tanh")
        discs = training.init_discriminators(cfg, hidden_dim=4, num_classes=2, num_groups=2)
        rng = np.random.default_rng(2)
        hidden = rng.normal(size=(6, 4))
        batch = random_batch(rng, n=6, d=4)

        def objective(thetas):
            for d_, th in zip(discs, thetas):
                d_.set_flat_params(th)
            total = 0.0
            firsts = []
            for d_ in discs:
                trace = nn.forward(d_, hidden)
                total += nn.cross_entropy(trace.logits, batch.g, batch.weights)[0]
                firsts.append(trace.post[0])
            total += cfg.diff_lambda * np.sum((firsts[0].T @ firsts[1]) ** 2)
            return total

        thetas0 = [d_.flat_params() for d_ in discs]
        # analytic grads: replicate discriminator_step's gradient computation
        traces = [nn.forward(d_, hidden) for d_ in discs]
        firsts = [t.post[0] for t in traces]
        M = firsts[0].T @ firsts[1]
        pgrads = [2 * cfg.diff_lambda * firsts[1] @ M.T,
                  2 * cfg.diff_lambda * firsts[0] @ M]
        analytic = []
        for d_, t, pg in zip(discs, traces, pgrads):
            _, dl, _ = nn.cross_entropy(t.logits, batch.g, batch.weights)
            analytic.append(nn.backward(d_, t, dl, extra_post_grads={0: pg}).flat())

        for k in range(2):
            def f(th, k=k):
                ts = [t.copy() for t in thetas0]
                ts[k] = th
                return objective(ts)
            numeric = finite_diff_grad(f, thetas0[k])
            assert rel_err(analytic[k], numeric) < 1e-4
        for d_, th in zip(discs, thetas0):
            d_.set_flat_params(th)

    def test_discriminator_descends_own_loss(self):
        cfg = training.MethodConfig(method="Adv", adv_lambda=1.0, lr=0.05,
                                    optimizer="sgd", disc_hidden_dims=(6,))
        discs = training.init_discriminators(cfg, hidden_dim=4, num_classes=2, num_groups=2)
        opts = [nn.make_optimizer(d_, kind="sgd", lr=0.05) for d_ in discs]
        rng = np.random.default_rng(3)
        hidden = rng.normal(size=(40, 4))
        g = (hidden[:, 0] > 0).astype(int)
        batch = data.Batch(X=hidden, y=np.zeros(40, dtype=int), g=g, weights=np.ones(40))

        def disc_ce():
            trace = nn.forward(discs[0], hidden)
            return nn.cross_entropy(trace.logits, batch.g, batch.weights)[0]

        before = disc_ce()
        for _ in range(20):
            training.discriminator_step(discs, opts, hidden, batch, 0.0)
        assert disc_ce() < before


class TestFairBatch:
    def make_state(self):
        return training.FairBatchState(
            probs={(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}, alpha=0.01)

    def test_equal_losses_unchanged(self):
        state = self.make_state()
        losses = {cell: 0.5 for cell in state.probs}
        new = training.fairbatch_epoch_update(state, losses)
        assert new.probs == state.probs

    def test_signed_step(self):
        state = self.make_state()
        losses = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        new = training.fairbatch_epoch_update(state, losses)
        assert new.probs[(0, 0)] == pytest.approx(0.26)
        assert new.probs[(0, 1)] == pytest.approx(0.24)
        assert new.probs[(1, 0)] == pytest.approx(0.25)
        assert new.probs[(1, 1)] == pytest.approx(0.25)

    def test_monotone_until_clipping(self):
        state = self.make_state()
        losses = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        prev = state.probs[(0, 0)]
        for _ in range(100):
            state = training.fairbatch_epoch_update(state, losses)
            assert state.probs[(0, 0)] >= prev - 1e-12
            prev = state.probs[(0, 0)]
            total = sum(state.probs.values())
            assert total == pytest.approx(1.0, abs=1e-9)
        assert state.probs[(0, 0)] == pytest.approx(0.5)  # class marginal preserved
        assert state.probs[(0, 1)] == pytest.approx(0.0)

    def test_class_marginals_preserved(self):
        state = training.FairBatchState(
            probs={(0, 0): 0.4, (0, 1): 0.2, (1, 0): 0.1, (1, 1): 0.3}, alpha=0.05)
        losses = {(0, 0): 2.0, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 3.0}
        new = training.fairbatch_epoch_update(state, losses)
        assert new.probs[(0, 0)] + new.probs[(0, 1)] == pytest.approx(0.6)
        assert new.probs[(1, 0)] + new.probs[(1, 1)] == pytest.approx(0.4)

    def test_unobserved_cell_carries_over(self):
        state = self.make_state()
        state = training.fairbatch_epoch_update(state, {cell: 0.5 for cell in state.probs})
        new = training.fairbatch_epoch_update(state, {(0, 0): 1.5})
        # cell (0,1) keeps its old 0.5 loss; gap appears in class 0 only
        assert new.probs[(0, 0)] > 0.25
        assert new.probs[(1, 0)] == pytest.approx(0.25)

    def test_random_updates_stay_valid_distribution(self):
        rng = np.random.default_rng(7)
        state = self.make_state()
        for _ in range(50):
            losses = {cell: float(rng.uniform(0.0, 3.0)) for cell in state.probs}
            state = training.fairbatch_epoch_update(state, losses)
            vals = np.array(list(state.probs.values()))
            assert np.all(vals >= 0.0)
            assert vals.sum() == pytest.approx(1.0, abs=1e-9)


class TestFairScl:
    def test_zero_lambdas_zero_contribution(self):
        rng = np.random.default_rng(0)
        R = rng.normal(size=(6, 4))
        loss, grad = training.fairscl_loss(R, rng.integers(0, 2, 6),
                                           rng.integers(0, 2, 6), 0.0, 0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(R))

    def test_same_y_same_g_fair_term_degenerates(self):
        rng = np.random.default_rng(1)
        R = rng.normal(size=(4, 3))
        y = np.zeros(4, dtype=int)
        g = np.zeros(4, dtype=int)
        loss_both, _ = training.fairscl_loss(R, y, g, 0.0, 1.0)
        assert loss_both == 0.0  # fair term has no cross-group positives

    def test_matches_brute_force_oracles(self):
        rng = np.random.default_rng(2)
        R = rng.normal(size=(4, 3))
        y = np.array([0, 0, 1, 1])
        g = np.array([0, 1, 0, 1])
        ly, lg, tau = 0.7, 1.3, 0.2
        loss, _ = training.fairscl_loss(R, y, g, ly, lg, tau)
        term_y = scl_brute_force(R, y, tau)
        mask = (y[:, None] == y[None, :]) & (g[:, None] != g[None, :])
        term_g = scl_brute_force(R, y, tau, positive_mask=mask)
        assert loss == pytest.approx(ly * term_y + lg * term_g, abs=1e-8)


class TestEoCla:
    def test_equal_losses_zero_addition(self):
        per = np.full(6, 0.8)
        y = np.array([0, 0, 0, 1, 1, 1])
        g = np.array([0, 1, 0, 1, 0, 1])
        addition, scale = training.eo_cla_adjusted_loss(per, y, g, 2.0)
        assert addition == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(scale, np.zeros(6))

    def test_hand_arithmetic(self):
        # one class, two groups with mean losses 1.0 and 0.5:
        # class mean 0.75, addition = lambda * (0.25 + 0.25)
        per = np.array([1.0, 1.0, 0.5, 0.5])
        y = np.zeros(4, dtype=int)
        g = np.array([0, 0, 1, 1])
        lam = 3.0
        addition, _ = training.eo_cla_adjusted_loss(per, y, g, lam)
        assert addition == pytest.approx(lam * 0.5)

    def test_scale_matches_fd_on_addition(self):
        rng = np.random.default_rng(4)
        per = rng.uniform(0.1, 2.0, 8)
        y = rng.integers(0, 2, 8)
        g = rng.integers(0, 2, 8)
        y[:2], g[:2] = [0, 1], [0, 1]
        lam = 1.7
        _, scale = training.eo_cla_adjusted_loss(per, y, g, lam)
        numeric = finite_diff_grad(
            lambda p: training.eo_cla_adjusted_loss(p, y, g, lam)[0], per)
        assert rel_err(scale, numeric) < 1e-6


class TestGate:
    def test_zero_heads_equal_shared(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(4, 3))
        shared = rng.normal(size=(4, 2))
        heads_w = [np.zeros((2, 3)), np.zeros((2, 3))]
        heads_b = [np.zeros(2), np.zeros(2)]
        out = training.gate_forward(h, np.array([0, 1, 0, 1]), shared, heads_w, heads_b)
        np.testing.assert_array_equal(out, shared)

    def test_group_difference_is_head_difference(self):
        rng = np.random.default_rng(1)
        h = np.tile(rng.normal(size=(1, 3)), (2, 1))
        shared = np.tile(rng.normal(size=(1, 2)), (2, 1))
        heads_w = [rng.normal(size=(2, 3)) for _ in range(2)]
        heads_b = [rng.normal(size=2) for _ in range(2)]
        out = training.gate_forward(h, np.array([0, 1]), shared, heads_w, heads_b)
        expected_diff = (h[0] @ heads_w[1].T + heads_b[1]) - (h[0] @ heads_w[0].T + heads_b[0])
        np.testing.assert_allclose(out[1] - out[0], expected_diff, atol=1e-12)

    def test_group_out_of_range(self):
        with pytest.raises(LabelDomainError):
            training.gate_forward(np.ones((1, 2)), np.array([5]), np.ones((1, 2)),
                                  [np.zeros((2, 2))], [np.zeros(2)])


class TestTrainLoop:
    def test_standard_fits_separable_data(self):
        # separability oracle: a perceptron converges on this data
        rng = np.random.default_rng(0)
        n = 100
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] > 0).astype(int)
        X[:, 0] += np.where(y == 1, 1.0, -1.0)  # margin
        w, converged = np.zeros(5), False
        Xb = np.hstack([X, np.ones((n, 1))])
        sgn = 2 * y - 1
        for _ in range(200):
            errs = sgn * (Xb @ w) <= 0
            if not errs.any():
                converged = True
                break
            w += (sgn[errs][:, None] * Xb[errs]).sum(axis=0)
        assert converged  # oracle: linearly separable

        g = rng.integers(0, 2, n)
        ds = data.dataset_from_arrays(X, y, g)
        cfg = training.MethodConfig(method="Standard", epochs=50, batch_size=32,
                                    lr=0.01, hidden_dims=(8,), seed=0)
        record = training.train(ds, ds, ds, cfg)
        preds = training.predict(record.model, ds.X, ds.g)
        assert np.mean(preds == y) >= 0.99

    def test_epochs_zero_initialization_only(self):
        train_ds, dev_ds, test_ds = biased_bundle()
        cfg = training.MethodConfig(method="Standard", epochs=0, seed=1)
        record = training.train(train_ds, dev_ds, test_ds, cfg)
        assert len(record.rows) == 1
        assert record.rows[0]["epoch"] == 0

    def test_rows_contiguous_from_zero(self):
        train_ds, dev_ds, test_ds = biased_bundle()
        cfg = training.MethodConfig(method="Standard", epochs=3, seed=1)
        record = training.train(train_ds, dev_ds, test_ds, cfg)
        assert [r["epoch"] for r in record.rows] == [0, 1, 2, 3]

    @pytest.mark.parametrize("method,zeroed", [
        ("Adv", {"adv_lambda": 0.0}),
        ("EAdv", {"adv_lambda": 0.0, "n_discriminators": 2}),
        ("DAdv", {"adv_lambda": 0.0, "n_discriminators": 2, "diff_lambda": 0.5}),
        ("AAdv", {"adv_lambda": 0.0}),
        ("ADAdv", {"adv_lambda": 0.0, "n_discriminators": 2, "diff_lambda": 0.5}),
        ("FairSCL", {"fcl_lambda_y": 0.0, "fcl_lambda_g": 0.0}),
        ("EO_CLA", {"eo_cla_lambda": 0.0}),
        # Standard carrying every other method's weights: none of them is its own
        ("Standard", {"adv_lambda": 0.5, "n_discriminators": 3, "diff_lambda": 0.5,
                      "fairbatch_alpha": 0.1, "fcl_lambda_y": 0.5, "fcl_lambda_g": 0.5,
                      "eo_cla_lambda": 0.5}),
    ])
    def test_zero_tradeoff_reproduces_standard_trajectory(self, method, zeroed):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        base = dict(epochs=3, batch_size=32, seed=7, hidden_dims=(8,))
        std = training.train(train_ds, dev_ds, test_ds,
                             training.MethodConfig(method="Standard", **base))
        other = training.train(train_ds, dev_ds, test_ds,
                               training.MethodConfig(method=method, **zeroed, **base))
        np.testing.assert_array_equal(std.model.flat_params(), other.model.flat_params())

    @pytest.mark.parametrize("method", ["Adv", "AAdv"])
    def test_single_discriminator_methods_ignore_n_discriminators(self, method):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        base = dict(method=method, adv_lambda=0.5, epochs=2, batch_size=32, seed=7)
        one, three = (training.train(train_ds, dev_ds, test_ds,
                                     training.MethodConfig(n_discriminators=k, **base))
                      for k in (1, 3))
        np.testing.assert_array_equal(one.model.flat_params(), three.model.flat_params())

    def test_fairbatch_alpha_zero_keeps_initial_distribution(self):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method="FairBatch", fairbatch_alpha=0.0,
                                    epochs=2, seed=3)
        record = training.train(train_ds, dev_ds, test_ds, cfg)
        init = training.init_fairbatch_state(train_ds, 0.0)
        assert record.fairbatch_state.probs == init.probs

    def test_determinism_same_seed_identical_trajectory(self):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method="Adv", adv_lambda=0.5, epochs=3, seed=11)
        a = training.train(train_ds, dev_ds, test_ds, cfg)
        b = training.train(train_ds, dev_ds, test_ds, cfg)
        np.testing.assert_array_equal(a.model.flat_params(), b.model.flat_params())
        strip = lambda row: {k: v for k, v in row.items() if k != "seconds"}
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]

    def test_checkpoints_written_and_roundtrip(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=40)
        cfg = training.MethodConfig(method="Standard", epochs=2, seed=5)
        record = training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        assert (tmp_path / "epochs.jsonl").exists()
        ckpt = record.rows[-1]["checkpoint"]
        model, opt, epoch = training.load_checkpoint(ckpt)
        assert epoch == 2
        np.testing.assert_array_equal(model.flat_params(), record.model.flat_params())
        X = dev_ds.X
        np.testing.assert_array_equal(nn.forward(model, X).logits,
                                      nn.forward(record.model, X).logits)

    def test_wrong_magic_is_io_error(self, tmp_path):
        path = tmp_path / "epoch_1.npz"
        np.savez(path, magic=np.array("not-a-checkpoint"))
        with pytest.raises(IOErrorWithStage) as info:
            training.load_checkpoint(path)
        assert not isinstance(info.value, TrainingDivergedError)

    def test_gate_checkpoint_roundtrip(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=40)
        cfg = training.MethodConfig(method="Gate", epochs=1, seed=5)
        record = training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        model, _, _ = training.load_checkpoint(record.rows[-1]["checkpoint"])
        assert isinstance(model, training.GateModel)
        np.testing.assert_array_equal(
            training.predict(model, dev_ds.X, dev_ds.g),
            training.predict(record.model, dev_ds.X, dev_ds.g))


def gate_model_and_optimizer(kind="adam", steps=3):
    """A small Gate model after a few optimizer steps on random gradients."""
    cfg = training.MethodConfig(method="Gate", hidden_dims=(5,))
    model = make_model(cfg, d=4, num_groups=3, seed=2)
    opt = nn.make_optimizer(model, kind=kind, lr=0.01)
    rng = np.random.default_rng(9)
    for _ in range(steps):
        nn.optimizer_step(model, [rng.normal(size=p.shape) for p in model.params], opt)
    return model, opt


class TestMethodConfig:
    @pytest.mark.parametrize("name", ["adv_lambda", "diff_lambda", "fairbatch_alpha",
                                      "fcl_lambda_y", "fcl_lambda_g", "eo_cla_lambda"])
    def test_negative_tradeoff_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            training.MethodConfig(**{name: -0.1})

    @pytest.mark.parametrize("name,value", [
        ("epochs", -1), ("batch_size", 0), ("seed", -1), ("lr", 0.0), ("lr", -1.0),
        ("temperature", 0.0), ("n_discriminators", 0), ("hidden_dims", (4, 0)),
        ("method", "Fair"),
    ])
    def test_invalid_value_rejected(self, name, value):
        with pytest.raises(ValueError):
            training.MethodConfig(**{name: value})

    def test_diff_lambda_only_for_orthogonal_adversaries(self):
        on = {m for m in training.METHODS
              if training.MethodConfig(method=m, diff_lambda=0.5).diff_lambda}
        assert on == {"DAdv", "ADAdv"}


class TestOneOptimizer:
    def test_nan_head_gradient_names_the_head(self):
        model, opt = gate_model_and_optimizer(steps=0)
        before = nn.flatten(model.params)
        grads = zero_grads(model)
        grads[len(model.base.params) + 1][0, 0] = np.nan  # group 1 head weight
        with pytest.raises(TrainingDivergedError, match="group 1 head weight"):
            nn.optimizer_step(model, grads, opt)
        np.testing.assert_array_equal(nn.flatten(model.params), before)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_gate_checkpoint_restores_head_moments(self, tmp_path, kind):
        model, opt = gate_model_and_optimizer(kind)
        training.save_checkpoint(tmp_path / "c.npz", model, opt, epoch=3)
        loaded, opt2, epoch = training.load_checkpoint(tmp_path / "c.npz")
        assert epoch == 3 and (opt2.kind, opt2.lr, opt2.t) == (kind, opt.lr, opt.t)
        np.testing.assert_array_equal(nn.flatten(loaded.params), nn.flatten(model.params))
        for saved, restored in ((opt.m, opt2.m), (opt.v, opt2.v)):
            assert len(restored) == len(model.params)
            np.testing.assert_array_equal(nn.flatten(restored), nn.flatten(saved))


def per_parameter_adam(params, grads, m, v, t, lr):
    """Adam as one loop over the parameters, each array on its own."""
    bc1 = 1.0 - nn.ADAM_BETA1 ** t
    bc2 = 1.0 - nn.ADAM_BETA2 ** t
    for p, g, m_p, v_p in zip(params, grads, m, v):
        m_p *= nn.ADAM_BETA1
        m_p += (1.0 - nn.ADAM_BETA1) * g
        v_p *= nn.ADAM_BETA2
        v_p += (1.0 - nn.ADAM_BETA2) * g * g
        p -= lr * (m_p / bc1) / (np.sqrt(v_p / bc2) + nn.ADAM_EPS)


class TestFlatAdam:
    @pytest.mark.parametrize("method", ["Standard", "Gate"])
    def test_equals_per_parameter_loop(self, method):
        cfg = training.MethodConfig(method=method, hidden_dims=(6, 5))
        model = make_model(cfg, d=4, num_groups=3, seed=3)
        reference = make_model(cfg, d=4, num_groups=3, seed=3)
        opt = nn.make_optimizer(model, kind="adam", lr=0.01)
        m = [np.zeros_like(p) for p in reference.params]
        v = [np.zeros_like(p) for p in reference.params]
        rng = np.random.default_rng(4)
        for t in range(1, 51):
            grads = [rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape)
                     for p in model.params]
            nn.optimizer_step(model, grads, opt)
            per_parameter_adam(reference.params, grads, m, v, t, 0.01)
        assert opt.t == 50
        for got, want in ((model.params, reference.params), (opt.m, m), (opt.v, v)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(nn.flatten(opt.m), opt.flat_m)
        assert all(np.shares_memory(part, opt.flat_v) for part in opt.v)


class HalfWrite:
    """A file whose first write stores half the data, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(bytes(data)[: len(data) // 2])
        raise OSError("no space left on device")


class TestCrashSafeWrites:
    def test_failed_checkpoint_write_keeps_previous_file(self, tmp_path, monkeypatch):
        model, opt = gate_model_and_optimizer()
        path = tmp_path / "epoch_1.npz"
        training.save_checkpoint(path, model, opt, epoch=1)
        before = path.read_bytes()
        nn.optimizer_step(model, zero_grads(model), opt)
        monkeypatch.setattr(files, "open", lambda p, mode: HalfWrite(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            training.save_checkpoint(path, model, opt, epoch=2)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        assert training.load_checkpoint(path)[2] == 1

    def test_failed_final_manifest_write_leaves_run_unfinalized(self, tmp_path, monkeypatch):
        real_open = open
        manifest_writes = []

        def open_failing_second_manifest(p, mode):
            if p.name == "manifest.json.tmp":
                manifest_writes.append(p)
                if len(manifest_writes) == 2:
                    return HalfWrite(real_open(p, mode))
            return real_open(p, mode)

        monkeypatch.setattr(files, "open", open_failing_second_manifest, raising=False)
        results = tmp_path / "results"
        argv = ["--epochs", "1", "--results_dir", str(results)]
        assert cli.main(argv) == 3
        (run_dir,) = results.iterdir()
        assert json.loads((run_dir / "manifest.json").read_text())["finalized"] is False
        assert not list(run_dir.rglob("*.tmp"))


# Damage to a valid Gate checkpoint's arrays z; n_base is the base network's size
DAMAGE = {
    "missing key": lambda z, n_base: z.pop("params"),
    "short params": lambda z, n_base: z.update(params=z["params"][:-1]),
    "long head_params": lambda z, n_base: z.update(head_params=np.append(z["head_params"], 0.0)),
    "short moments": lambda z, n_base: z.update(opt_v=z["opt_v"][:-2]),
    # the earlier Gate format, whose moments cover the base network only
    "base-only moments": lambda z, n_base: z.update(opt_m=z["opt_m"][:n_base],
                                                    opt_v=z["opt_v"][:n_base]),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("content", [b"", b"not a checkpoint", b"PK\x03\x04truncated"])
    def test_not_a_zip(self, tmp_path, content):
        path = tmp_path / "epoch_1.npz"
        path.write_bytes(content)
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path)

    def test_npy_file(self, tmp_path):
        path = tmp_path / "epoch_1.npy"
        np.save(path, np.arange(3))
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_arrays(self, tmp_path, damage):
        model, opt = gate_model_and_optimizer()
        training.save_checkpoint(tmp_path / "good.npz", model, opt, epoch=1)
        with np.load(tmp_path / "good.npz") as z:
            arrays = dict(z)
        DAMAGE[damage](arrays, nn.flatten(model.base.params).size)
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(tmp_path / "bad.npz")
