import dataclasses
import json
import sys
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairkit import cli, data, files, nn, training
from fairkit.errors import (
    FairbatchCollapseError,
    IOErrorWithStage,
    LabelDomainError,
    TrainingDivergedError,
)
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
    return data.Batch(features=rng.normal(size=(n, d)), y=y, g=g, weights=np.ones(n))


def make_model(cfg, d=5, num_classes=2, num_groups=2, seed=0):
    heads = num_groups if training.METHODS[cfg.method].group_heads else 0
    return nn.init_network(nn.MlpSpec(input_dim=d, hidden_dims=cfg.hidden_dims,
                                      output_dim=num_classes, activation=cfg.activation,
                                      seed=seed, group_heads=heads))


def param_arrays(net, flat):
    """The weight and bias arrays of flat, a vector in net.flat's layout:
    W0, ..., then b0, ...; views of flat."""
    view = nn.Network(net.spec, flat)
    return view.weights + view.biases


def flatten(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def stack_blocks(params, k, num_groups):
    """For each discriminator i of a stack of k, block i of each array of
    params (the stack's parameter arrays or their gradients', W0, W1, b0, b1)."""
    H, G = training.DISC_HIDDEN, num_groups
    W0, W1, b0, b1 = params
    return [[W0[i * H:(i + 1) * H], W1[i * G:(i + 1) * G, i * H:(i + 1) * H],
             b0[i * H:(i + 1) * H], b1[i * G:(i + 1) * G]] for i in range(k)]


def off_block_mask(k, num_groups):
    """True at the entries of a stack's [k*G, k*16] output layer outside its
    diagonal blocks."""
    mask = np.ones((k * num_groups, k * training.DISC_HIDDEN), dtype=bool)
    for block in stack_blocks([mask, mask, mask[0], mask[0]], k, num_groups):
        block[1][...] = False
    return mask


def separate_discriminators(stack, k, num_groups):
    """The k discriminators of a stack as networks of their own, holding
    copies of their blocks."""
    spec = nn.MlpSpec(input_dim=stack.spec.input_dim, hidden_dims=(training.DISC_HIDDEN,),
                      output_dim=num_groups, activation=stack.spec.activation)
    return [nn.Network(spec, flatten(block))
            for block in stack_blocks(stack.weights + stack.biases, k, num_groups)]


def loop_adversarial_pass(discs, hidden, batch, diff_lambda):
    """Reference for training.adversarial_pass over separate discriminators:
    one forward and one backward each, the orthogonality penalty's gradient
    from a loop over the pairs, and a second backward that adds it."""
    inputs = training._disc_inputs(discs[0], hidden, batch.y)
    traces = [nn.forward(disc, inputs) for disc in discs]
    first_layer = [t.post[0] for t in traces]
    penalty_grads = [np.zeros_like(H) for H in first_layer]
    if diff_lambda > 0 and len(discs) > 1:
        for i in range(len(discs)):
            for j in range(i + 1, len(discs)):
                M = first_layer[i].T @ first_layer[j]
                penalty_grads[i] += 2.0 * diff_lambda * first_layer[j] @ M.T
                penalty_grads[j] += 2.0 * diff_lambda * first_layer[i] @ M
    mean_loss = 0.0
    mean_grad = np.zeros_like(hidden)
    disc_grads = []
    for disc, trace, pgrad in zip(discs, traces, penalty_grads):
        loss, d_logits, _ = nn.cross_entropy(trace.logits, batch.g, batch.weights)
        grads = nn.backward(disc, trace, d_logits)
        mean_loss += loss / len(discs)
        mean_grad += grads.d_X[:, :hidden.shape[1]] / len(discs)
        if np.any(pgrad):
            grads = nn.backward(disc, trace, d_logits, extra_post_grads={0: pgrad})
        disc_grads.append(grads.d_weights + grads.d_biases)
    return mean_loss, mean_grad, disc_grads


def check_gradients(cfg, seed, discs=None):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng)
    model = make_model(cfg, seed=seed)
    loss, grads, _, _ = training.main_loss_and_grads(model, batch, cfg, discs=discs)
    theta0 = model.flat.copy()

    def loss_of(theta):
        model.flat[...] = theta
        return training.main_loss_and_grads(model, batch, cfg, discs=discs)[0]

    numeric = finite_diff_grad(loss_of, theta0)
    model.flat[...] = theta0
    return rel_err(grads, numeric)


class TestGradientCompositions:
    @pytest.mark.parametrize("seed", range(4))
    def test_standard_ce(self, seed):
        cfg = training.MethodConfig(method="Standard", hidden_dims=(6,), activation="tanh")
        assert check_gradients(cfg, seed) < 1e-4

    @pytest.mark.parametrize("seed", range(4))
    def test_ce_plus_adversarial(self, seed):
        cfg = training.MethodConfig(method="Adv", adv_lambda=0.8, hidden_dims=(6,),
                                    activation="tanh")
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
        np.testing.assert_array_equal(g1, g2)

    def test_constant_hidden_reversed_gradient(self):
        # constant hidden rows -> identical per-row discriminator input gradient,
        # and the pass returns the mean of it over the discriminators
        cfg = training.MethodConfig(method="EAdv", adv_lambda=2.0, n_discriminators=3)
        stack = training.init_discriminators(cfg, hidden_dim=3, num_classes=2, num_groups=2)
        hidden = np.tile([[0.3, -0.2, 0.9]], (5, 1))
        batch = data.Batch(features=np.zeros((5, 1)), y=np.zeros(5, dtype=int),
                           g=np.zeros(5, dtype=int), weights=np.ones(5))
        _, grad, _ = training.adversarial_pass(stack, hidden, batch, cfg.diff_lambda)
        raws = []
        for disc in separate_discriminators(stack, 3, 2):
            trace = nn.forward(disc, hidden)
            _, d_logits, _ = nn.cross_entropy(trace.logits, batch.g, batch.weights)
            raws.append(nn.backward(disc, trace, d_logits).d_X)
            np.testing.assert_allclose(raws[-1][0], raws[-1][1], atol=1e-12)
        np.testing.assert_allclose(grad, np.mean(raws, axis=0), atol=1e-12)

    def test_reversed_gradient_scales_linearly_in_lambda(self):
        # the main model's gradient is the CE gradient plus lambda times a
        # fixed reversed term
        rng = np.random.default_rng(1)
        batch = random_batch(rng, n=6, d=4)
        std = training.MethodConfig(method="Standard", hidden_dims=(4,))
        model = make_model(std, d=4, seed=1)
        discs = training.init_discriminators(training.MethodConfig(method="Adv"), 4, 2, 2)
        base = training.main_loss_and_grads(model, batch, std)[1]
        grads = {}
        for lam in (0.5, 1.0, 2.0):
            cfg = training.MethodConfig(method="Adv", adv_lambda=lam, hidden_dims=(4,))
            _, rev, _, _ = training.main_loss_and_grads(model, batch, cfg, discs=discs)
            grads[lam] = rev - base
        assert np.any(grads[1.0])
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

    def test_adversarial_pass_with_orthogonality_matches_fd(self):
        for activation in ("tanh", "relu"):
            self._check_orthogonality_pass(activation)

    def _check_orthogonality_pass(self, activation):
        cfg = training.MethodConfig(method="DAdv", adv_lambda=1.0, n_discriminators=3,
                                    diff_lambda=0.4, activation=activation)
        stack = training.init_discriminators(cfg, hidden_dim=4, num_classes=2, num_groups=2)
        rng = np.random.default_rng(2)
        hidden = rng.normal(size=(6, 4))
        batch = random_batch(rng, n=6, d=4)
        theta0 = stack.flat.copy()

        def objective(theta, hidden=hidden):
            # sum of the discriminators' own CEs plus the pairwise penalty, and the mean CE
            stack.flat[...] = theta
            discs = separate_discriminators(stack, 3, 2)
            stack.flat[...] = theta0
            traces = [nn.forward(d_, hidden) for d_ in discs]
            ces = [nn.cross_entropy(t.logits, batch.g, batch.weights)[0] for t in traces]
            penalty = sum(np.sum((traces[i].post[0].T @ traces[j].post[0]) ** 2)
                          for i in range(3) for j in range(i + 1, 3))
            return sum(ces) + cfg.diff_lambda * penalty, np.mean(ces)

        mean_ce, hidden_grad, stack_grads = training.adversarial_pass(
            stack, hidden, batch, cfg.diff_lambda)
        assert mean_ce == pytest.approx(objective(theta0)[1], abs=1e-12)
        numeric = finite_diff_grad(lambda th: objective(th)[0], theta0)
        # each block's gradient matches on its own; the off-block ones are 0
        stack_grads = param_arrays(stack, stack_grads)
        blocks = stack_blocks(stack_grads, 3, 2)
        for got, want in zip(blocks, stack_blocks(param_arrays(stack, numeric), 3, 2)):
            assert rel_err(flatten(got), flatten(want)) < 1e-4
        assert not stack_grads[1][off_block_mask(3, 2)].any()
        # the hidden gradient is that of the mean CE alone, without the penalty
        numeric = finite_diff_grad(
            lambda h: objective(theta0, h.reshape(hidden.shape))[1], hidden.ravel())
        assert rel_err(hidden_grad.ravel(), numeric) < 1e-4

    def test_discriminator_descends_own_loss(self):
        cfg = training.MethodConfig(method="EAdv", adv_lambda=1.0, n_discriminators=3,
                                    lr=0.05, optimizer="sgd")
        stack = training.init_discriminators(cfg, hidden_dim=4, num_classes=2, num_groups=2)
        opt = nn.make_optimizer(stack, kind="sgd", lr=0.05)
        rng = np.random.default_rng(3)
        hidden = rng.normal(size=(40, 4))
        g = (hidden[:, 0] > 0).astype(int)
        batch = data.Batch(features=hidden, y=np.zeros(40, dtype=int), g=g, weights=np.ones(40))

        def disc_ces():
            return np.array([nn.cross_entropy(nn.forward(d_, hidden).logits, g, batch.weights)[0]
                             for d_ in separate_discriminators(stack, 3, 2)])

        before = disc_ces()
        for _ in range(20):
            _, _, stack_grads = training.adversarial_pass(stack, hidden, batch, 0.0)
            nn.optimizer_step(stack, stack_grads, opt)
        assert np.all(disc_ces() < before)

    @pytest.mark.parametrize("method", ["EAdv", "ADAdv"])
    def test_blocks_start_as_lone_discriminators(self, method):
        cfg = training.MethodConfig(method=method, n_discriminators=3, seed=5)
        stack = training.init_discriminators(cfg, hidden_dim=4, num_classes=3, num_groups=2)
        in_dim = 4 + (3 if method == "ADAdv" else 0)
        assert stack.spec.input_dim == in_dim
        for i, block in enumerate(stack_blocks(stack.weights + stack.biases, 3, 2)):
            lone = nn.init_network(nn.MlpSpec(input_dim=in_dim, hidden_dims=(16,), output_dim=2,
                                              seed=nn.derive_seed(5, 11 + i)))
            for got, want in zip(block, lone.weights + lone.biases):
                np.testing.assert_array_equal(got, want)
        assert not stack.weights[1][off_block_mask(3, 2)].any()

    @pytest.mark.parametrize("method,diff_lambda", [("EAdv", 0.0), ("DAdv", 0.3),
                                                    ("ADAdv", 0.3)])
    def test_stack_equals_separate_discriminators(self, method, diff_lambda):
        cfg = training.MethodConfig(method=method, n_discriminators=3, diff_lambda=diff_lambda)
        stack = training.init_discriminators(cfg, hidden_dim=5, num_classes=2, num_groups=3)
        discs = separate_discriminators(stack, 3, 3)
        rng = np.random.default_rng(7)
        hidden = rng.normal(size=(9, 5))
        batch = random_batch(rng, n=9, d=5, num_groups=3)
        batch = dataclasses.replace(batch, weights=rng.uniform(0.5, 2.0, 9))
        loss, d_hidden, grads = training.adversarial_pass(stack, hidden, batch, cfg.diff_lambda)
        grads = param_arrays(stack, grads)
        want_loss, want_hidden, want_grads = loop_adversarial_pass(discs, hidden, batch,
                                                                   cfg.diff_lambda)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(d_hidden, want_hidden, rtol=1e-10, atol=1e-14)
        for got, want in zip(stack_blocks(grads, 3, 3), want_grads):
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)
        assert not grads[1][off_block_mask(3, 3)].any()

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_off_block_weights_stay_zero(self, kind):
        cfg = training.MethodConfig(method="ADAdv", n_discriminators=3, diff_lambda=0.5,
                                    hidden_dims=(6,), optimizer=kind, lr=0.01)
        model = make_model(cfg)
        stack = training.init_discriminators(cfg, hidden_dim=6, num_classes=2, num_groups=2)
        off_block = off_block_mask(3, 2)
        main_opt = nn.make_optimizer(model, kind=kind, lr=cfg.lr)
        stack_opt = nn.make_optimizer(stack, kind=kind, lr=cfg.lr)
        rng = np.random.default_rng(11)
        before = stack.flat.copy()
        for _ in range(20):
            training.adv_joint_step(model, main_opt, stack, stack_opt, random_batch(rng), cfg)
        assert np.all(stack.weights[1][off_block] == 0.0)
        assert not np.array_equal(stack.flat, before)

    @pytest.mark.parametrize("method,flags,scores", [
        # dev/test (performance, fairness) of epochs 1 and 2, at seed 0 on the
        # CLI's default data, as the two-pass adversarial step produced them
        ("AAdv", [], [(0.58125, 0.8750778019903765, 0.615, 0.872939209649694),
                      (0.62875, 0.8004867033113945, 0.67375, 0.8137355523873532)]),
        ("DAdv", ["--n_discriminators", "3", "--diff_lambda", "0.1"],
         [(0.585, 0.8681330637009834, 0.62, 0.8731580160637303),
          (0.63125, 0.8049928776229499, 0.67875, 0.8188769601747046)]),
    ])
    def test_epoch_scores_pinned(self, tmp_path, method, flags, scores):
        results = tmp_path / "results"
        argv = ["--method", method, *flags, "--epochs", "2", "--seed", "0",
                "--results_dir", str(results)]
        assert cli.main(argv) == 0
        (run_dir,) = results.iterdir()
        rows = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        keys = ("dev_performance", "dev_fairness", "test_performance", "test_fairness")
        assert [tuple(r[k] for k in keys) for r in rows[1:]] == scores


def cell_table(values, shape=(2, 2)):
    """A [C, G] table from a {(class, group): value} dict; NaN elsewhere."""
    table = np.full(shape, np.nan)
    for cell, v in values.items():
        table[cell] = v
    return table


class TestFairBatch:
    def make_state(self):
        return cell_table({(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}), 0.01

    def test_equal_losses_unchanged(self):
        probs, alpha = self.make_state()
        losses = np.full(probs.shape, 0.5)
        new = training.fairbatch_epoch_update(probs, losses, alpha)
        assert (new == probs).all()

    def test_signed_step(self):
        probs, alpha = self.make_state()
        losses = cell_table({(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
        new = training.fairbatch_epoch_update(probs, losses, alpha)
        assert new[0, 0] == pytest.approx(0.26)
        assert new[0, 1] == pytest.approx(0.24)
        assert new[1, 0] == pytest.approx(0.25)
        assert new[1, 1] == pytest.approx(0.25)

    def test_monotone_until_clipping(self):
        probs, alpha = self.make_state()
        losses = cell_table({(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
        prev = probs[0, 0]
        for _ in range(100):
            probs = training.fairbatch_epoch_update(probs, losses, alpha)
            assert probs[0, 0] >= prev - 1e-12
            prev = probs[0, 0]
            total = probs.sum()
            assert total == pytest.approx(1.0, abs=1e-9)
        assert probs[0, 0] == pytest.approx(0.5)  # class marginal preserved
        assert probs[0, 1] == pytest.approx(0.0)

    def test_class_marginals_preserved(self):
        probs = cell_table({(0, 0): 0.4, (0, 1): 0.2, (1, 0): 0.1, (1, 1): 0.3})
        losses = cell_table({(0, 0): 2.0, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 3.0})
        new = training.fairbatch_epoch_update(probs, losses, 0.05)
        assert new[0, 0] + new[0, 1] == pytest.approx(0.6)
        assert new[1, 0] + new[1, 1] == pytest.approx(0.4)

    def test_unobserved_cell_carries_over(self):
        probs, alpha = self.make_state()
        losses = np.full(probs.shape, 0.5)
        probs = training.fairbatch_epoch_update(probs, losses, alpha)
        losses[0, 0] = 1.5
        new = training.fairbatch_epoch_update(probs, losses, alpha)
        # cell (0,1) keeps its old 0.5 loss; gap appears in class 0 only
        assert new[0, 0] > 0.25
        assert new[1, 0] == pytest.approx(0.25)

    def test_random_updates_stay_valid_distribution(self):
        rng = np.random.default_rng(7)
        probs, alpha = self.make_state()
        for _ in range(50):
            losses = rng.uniform(0.0, 3.0, size=probs.shape)
            probs = training.fairbatch_epoch_update(probs, losses, alpha)
            vals = probs.ravel()
            assert np.all(vals >= 0.0)
            assert vals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_class_without_rows_is_skipped(self):
        probs = cell_table({(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.0, (1, 1): 0.0})
        new = training.fairbatch_epoch_update(probs, np.full((2, 2), np.nan), 0.1)
        assert new.tolist() == probs.tolist()


def reference_update(state, epoch_cell_losses):
    """The reference FairBatch update the [C, G] one must equal exactly, cell
    by cell over dicts. state is (probs, alpha, losses), each cell's
    probability and latest loss keyed by (class, group); probs holds the
    cells with rows."""
    probs, alpha, losses = state
    losses = {**losses, **epoch_cell_losses}  # unobserved cells carry over
    new_probs = {}
    for c in sorted({c for c, _ in probs}):
        cells = sorted(cell for cell in probs if cell[0] == c)
        marginal = sum(probs[cell] for cell in cells)
        known = [losses[cell] for cell in cells if cell in losses]
        mean_loss = sum(known) / len(known) if known else 0.0
        raw = {}
        for cell in cells:
            step = 0.0
            if cell in losses:
                step = alpha * float(np.sign(losses[cell] - mean_loss))
            raw[cell] = max(0.0, probs[cell] + step)
        total = sum(raw.values())
        if total <= 0.0:
            raise FairbatchCollapseError(f"all sampling probs for class {c} clipped to zero")
        for cell in cells:
            new_probs[cell] = raw[cell] * marginal / total
    return new_probs, alpha, losses


@st.composite
def fairbatch_histories(draw):
    """Cell counts with empty cells and maybe a class without rows, a step
    size, and per-epoch losses of a random subset of the cells with rows;
    sizes are drawn uniformly from a seed, as sums show their order only
    over many groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C, G = int(rng.integers(2, 7)), int(rng.integers(1, 11))
    counts = rng.integers(0, 6, size=(C, G)) * (rng.random((C, G)) < 0.8)
    if draw(st.booleans()):
        counts[rng.integers(C)] = 0
    if counts.sum() == 0:
        counts[0, 0] = 1
    alpha = draw(st.sampled_from([0.0, 0.003, 0.02, 0.1, 0.3]))
    epochs = [np.where((counts > 0) & (rng.random((C, G)) < 0.7),
                       rng.uniform(0.0, 3.0, (C, G)), np.nan)
              for _ in range(draw(st.integers(1, 8)))]
    return counts, alpha, epochs


@given(fairbatch_histories())
@settings(max_examples=300, deadline=None)
def test_fairbatch_update_equals_dict_reference(history):
    counts, alpha, epochs = history
    probs = counts / counts.sum()
    state = ({cell: p for cell, p in np.ndenumerate(probs) if counts[cell]}, alpha, {})
    losses = np.full(counts.shape, np.nan)
    for epoch_losses in epochs:
        observed = ~np.isnan(epoch_losses)
        losses[observed] = epoch_losses[observed]
        try:
            state = reference_update(state, {cell: float(epoch_losses[cell])
                                             for cell in zip(*np.nonzero(observed))})
        except FairbatchCollapseError:
            with pytest.raises(FairbatchCollapseError):
                training.fairbatch_epoch_update(probs, losses, alpha)
            return
        probs = training.fairbatch_epoch_update(probs, losses, alpha)
        expected = np.zeros(counts.shape)
        for cell, p in state[0].items():
            expected[cell] = p
        assert probs.tolist() == expected.tolist()


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

    @pytest.mark.parametrize("seed", range(3))
    def test_merged_terms_equal_sum_of_single_terms(self, seed):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(10, 4))
        y, g = rng.integers(0, 2, 10), rng.integers(0, 3, 10)
        same_y = np.equal.outer(y, y)
        terms = [(0.7, same_y), (1.3, same_y & ~np.equal.outer(g, g))]
        loss, grad = nn.supervised_contrastive_loss(R, terms, 0.2)
        singles = [nn.supervised_contrastive_loss(R, [(1.0, mask)], 0.2) for _, mask in terms]
        assert loss == pytest.approx(sum(w * l for (w, _), (l, _) in zip(terms, singles)),
                                     rel=1e-12)
        np.testing.assert_allclose(grad, sum(w * d for (w, _), (_, d) in zip(terms, singles)),
                                   rtol=1e-10, atol=1e-13)
        assert training.fairscl_loss(R, y, g, 0.7, 1.3, 0.2)[0] == loss

    def test_degenerate_term_contributes_zero(self):
        rng = np.random.default_rng(3)
        R = rng.normal(size=(6, 3))
        y = np.array([0, 0, 0, 1, 1, 1])
        no_positive = np.eye(6, dtype=bool)  # a row is never its own positive
        alone = nn.supervised_contrastive_loss(R, [(0.5, np.equal.outer(y, y))], 0.1)
        both = nn.supervised_contrastive_loss(R, [(0.5, np.equal.outer(y, y)),
                                                  (2.0, no_positive)], 0.1)
        assert both[0] == alone[0]
        np.testing.assert_array_equal(both[1], alone[1])


def loop_eo_cla(per_example_losses, y, g, eo_cla_lambda):
    """Reference for training.eo_cla_adjusted_loss: a loop over the classes
    and the groups present in each."""
    ce = np.asarray(per_example_losses, dtype=float)
    scale = np.zeros(ce.shape[0])
    addition = 0.0
    if eo_cla_lambda == 0.0:
        return 0.0, scale
    for c in np.unique(y):
        in_c = y == c
        n_c = int(in_c.sum())
        m_c = ce[in_c].mean()
        sign_sum = 0.0
        for gr in np.unique(g[in_c]):
            in_cell = in_c & (g == gr)
            diff = ce[in_cell].mean() - m_c
            s = 0.0 if abs(diff) <= 1e-12 * max(1.0, abs(m_c)) else float(np.sign(diff))
            addition += eo_cla_lambda * abs(diff)
            scale[in_cell] += eo_cla_lambda * s / in_cell.sum()
            sign_sum += s
        scale[in_c] -= eo_cla_lambda * sign_sum / n_c
    return addition, scale


@st.composite
def eo_cla_batches(draw):
    """(losses, y, g, lambda) of a batch on up to 4 x 4 cells: some cells
    empty or holding one row, and losses drawn from a few values, so that
    cells often tie exactly."""
    n = draw(st.integers(1, 24))
    C, G = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.integers(0, G - 1), min_size=n, max_size=n)))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
    ce = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    return ce, y, g, draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))


class TestEoCla:
    @settings(max_examples=300, deadline=None)
    @given(eo_cla_batches())
    def test_equals_loop_reference(self, batch):
        ce, y, g, lam = batch
        addition, scale = training.eo_cla_adjusted_loss(ce, y, g, lam)
        want_addition, want_scale = loop_eo_cla(ce, y, g, lam)
        assert addition == pytest.approx(want_addition, abs=1e-12)
        np.testing.assert_allclose(scale, want_scale, rtol=0, atol=1e-12)

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


def group_onehot(g, num_groups):
    """The [n, num_groups] one-hot of each row's group label."""
    return (np.asarray(g)[:, None] == np.arange(num_groups)).astype(float)


def hard_gated_logits(model, X, g):
    """The logits of each row through the shared head and its group's head."""
    logits = nn.forward(model, X).logits
    heads = np.split(logits, 1 + model.spec.group_heads, axis=1)
    return training.gate_logits(heads, group_onehot(g, model.spec.group_heads))


class TestGate:
    def test_zero_heads_equal_shared(self):
        cfg = training.MethodConfig(method="Gate", hidden_dims=(3,))
        model = make_model(cfg, d=4, seed=0)
        model.weights[-1][2:] = 0.0
        model.biases[-1][2:] = 0.0
        X = np.random.default_rng(0).normal(size=(4, 4))
        out = hard_gated_logits(model, X, np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(out, nn.forward(model, X).logits[:, :2])

    def test_group_difference_is_head_difference(self):
        # rows 2-3 of the output layer are group 0's head, rows 4-5 group 1's
        cfg = training.MethodConfig(method="Gate", hidden_dims=(3,))
        model = make_model(cfg, d=4, seed=1)
        model.biases[-1][...] = np.random.default_rng(1).normal(size=6)
        X = np.tile(np.random.default_rng(2).normal(size=(1, 4)), (2, 1))
        out = hard_gated_logits(model, X, np.array([0, 1]))
        h = nn.forward(model, X).hidden[0]
        W, b = model.weights[-1], model.biases[-1]
        expected_diff = (h @ W[4:6].T + b[4:6]) - (h @ W[2:4].T + b[2:4])
        np.testing.assert_allclose(out[1] - out[0], expected_diff, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_own_head_equals_one_hot_mix(self, seed):
        # the one-hot mix and its gradient, the loop reference of the own-head
        # gather and scatter: logits and parameter gradients equal under ==
        rng = np.random.default_rng(seed)
        G, C, n = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 30))
        cfg = training.MethodConfig(method="Gate", hidden_dims=(4,))
        model = make_model(cfg, d=3, num_classes=C, num_groups=G, seed=seed)
        model.biases[-1][...] = rng.normal(size=model.biases[-1].shape)
        batch = data.Batch(features=rng.normal(size=(n, 3)), y=rng.integers(0, C, n),
                           g=rng.integers(0, G, n), weights=np.ones(n))
        mix = group_onehot(batch.g, G)
        logits = hard_gated_logits(model, batch.X, batch.g)
        assert np.array_equal(training.predict(model, [batch.X], [batch.g])[0],
                              logits.argmax(axis=1))
        trace = nn.forward(model, batch.X)
        _, d_logits, _ = nn.cross_entropy(logits, batch.y, batch.weights)
        d_all = np.concatenate([d_logits, *(mix[:, g, None] * d_logits for g in range(G))],
                               axis=1)
        want = nn.backward(model, trace, d_all).flat
        got = training.main_loss_and_grads(model, batch, cfg)[1]
        assert np.array_equal(got, want)

    def test_group_out_of_range(self):
        cfg = training.MethodConfig(method="Gate", hidden_dims=(3,))
        model = make_model(cfg, d=4, num_groups=1, seed=0)
        X = np.zeros((1, 4))
        for g in (5, -1):
            with pytest.raises(LabelDomainError):
                training.predict(model, [X], [np.array([g])])

    def test_initial_heads_from_their_own_stream(self):
        # the shared rows are the plain network's; each head is a draw of the
        # head stream with the shared head's Glorot bound
        cfg = training.MethodConfig(method="Gate", hidden_dims=(5,))
        gate = make_model(cfg, d=4, num_classes=3, num_groups=2, seed=7)
        plain = make_model(training.MethodConfig(hidden_dims=(5,)), d=4, num_classes=3, seed=7)
        for got, want in zip(gate.weights[:-1] + gate.biases[:-1],
                             plain.weights[:-1] + plain.biases[:-1]):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(gate.weights[-1][:3], plain.weights[-1])
        rng = np.random.default_rng(np.random.SeedSequence((nn.derive_seed(7, 21), 3)))
        bound = np.sqrt(6.0 / (5 + 3))
        for g in range(2):
            np.testing.assert_array_equal(gate.weights[-1][3 * (g + 1):3 * (g + 2)],
                                          rng.uniform(-bound, bound, size=(3, 5)))
        np.testing.assert_array_equal(gate.biases[-1], np.zeros(9))


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
        ds = data.Dataset(X, y, g)
        cfg = training.MethodConfig(method="Standard", epochs=50, batch_size=32,
                                    lr=0.01, hidden_dims=(8,), seed=0)
        record = training.train(ds, ds, ds, cfg)
        (preds,) = training.predict(record.model, [ds.X], [ds.g])
        assert np.mean(preds == y) >= 0.99

    @pytest.mark.parametrize("method", ["Standard", "FairBatch"])
    def test_a_step_holds_one_batch_of_features_not_an_epochs(self, method):
        rng = np.random.default_rng(0)
        n, d, batch_size = 4000, 256, 100
        train_ds = data.Dataset(rng.normal(size=(n, d)), rng.integers(0, 2, n),
                                rng.integers(0, 2, n))
        scored = data.Dataset(train_ds.X[:20], train_ds.y[:20], train_ds.g[:20],
                              num_classes=2, num_groups=2)
        cfg = training.MethodConfig(method=method, fairbatch_alpha=0.1, epochs=1,
                                    batch_size=batch_size, hidden_dims=(4,))
        tracemalloc.start()
        try:
            training.train(train_ds, scored, scored, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an epoch's rows of X are n * d * 8 bytes (8.2 MB); one batch's, 1/40 of that
        assert peak < n * d * 8 / 8, peak

    @pytest.mark.parametrize("method", ["Standard", "FairBatch"])
    def test_a_steps_gradient_is_freed_before_the_next_backward(self, method, monkeypatch):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method=method, fairbatch_alpha=0.1, epochs=2,
                                    batch_size=32, seed=1)
        backward, last = nn.backward, []

        def spy(*args, **kwargs):
            assert not last or last[-1]() is None, "step k's gradient lives into step k + 1"
            grads = backward(*args, **kwargs)
            last.append(weakref.ref(grads.flat))
            return grads

        monkeypatch.setattr(nn, "backward", spy)
        training.train(train_ds, dev_ds, test_ds, cfg)
        assert len(last) > 2

    @pytest.mark.parametrize("method", ["Adv", "FairSCL"])
    def test_the_hidden_gradient_is_freed_once_added(self, method, monkeypatch):
        """The hidden gradient main_loss_and_grads injects is held by nothing
        once backward has added it: the slope that follows is taken with
        the gradient already freed."""
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method=method, fcl_lambda_y=0.5, epochs=1,
                                    batch_size=32, seed=1)
        backward, act_grad, refs, freed = nn.backward, nn._act_grad, [], []

        def spy(net, trace, d_logits, extra_post_grads=None, input_grad=True):
            refs[:] = [weakref.ref(a) for a in (extra_post_grads or {}).values()]
            return backward(net, trace, d_logits, extra_post_grads, input_grad)

        def slope(name, a):
            freed.extend(ref() is None for ref in refs)
            return act_grad(name, a)

        monkeypatch.setattr(nn, "backward", spy)
        monkeypatch.setattr(nn, "_act_grad", slope)
        training.train(train_ds, dev_ds, test_ds, cfg)
        assert freed and all(freed)

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
        np.testing.assert_array_equal(std.model.flat, other.model.flat)

    @pytest.mark.parametrize("method", ["Adv", "AAdv"])
    def test_single_discriminator_methods_ignore_n_discriminators(self, method):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        base = dict(method=method, adv_lambda=0.5, epochs=2, batch_size=32, seed=7)
        one, three = (training.train(train_ds, dev_ds, test_ds,
                                     training.MethodConfig(n_discriminators=k, **base))
                      for k in (1, 3))
        np.testing.assert_array_equal(one.model.flat, three.model.flat)

    def test_fairbatch_alpha_zero_keeps_initial_distribution(self):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method="FairBatch", fairbatch_alpha=0.0,
                                    epochs=2, seed=3)
        record = training.train(train_ds, dev_ds, test_ds, cfg)
        counts = np.bincount(train_ds.y * 2 + train_ds.g).reshape(2, 2)
        assert (record.fairbatch_probs == counts / train_ds.n).all()

    def test_determinism_same_seed_identical_trajectory(self):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method="Adv", adv_lambda=0.5, epochs=3, seed=11)
        a = training.train(train_ds, dev_ds, test_ds, cfg)
        b = training.train(train_ds, dev_ds, test_ds, cfg)
        np.testing.assert_array_equal(a.model.flat, b.model.flat)
        strip = lambda row: {k: v for k, v in row.items() if k != "seconds"}
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]

    def test_checkpoints_written_and_roundtrip(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=40)
        cfg = training.MethodConfig(method="Standard", epochs=2, seed=5)
        record = training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        assert (tmp_path / "epochs.jsonl").exists()
        row = record.rows[-1]
        assert row["epoch"] == 2 and row["checkpoint"] == str(tmp_path / "checkpoints.bin")
        model = training.load_checkpoint(row["checkpoint"], row["epoch"])
        np.testing.assert_array_equal(model.flat, record.model.flat)
        X = dev_ds.X
        np.testing.assert_array_equal(nn.forward(model, X).logits,
                                      nn.forward(record.model, X).logits)

    def test_wrong_magic_is_io_error(self, tmp_path):
        path = tmp_path / "epoch_1.npz"
        np.savez(path, magic=np.array("not-a-checkpoint"))
        with pytest.raises(IOErrorWithStage) as info:
            training.load_checkpoint(path, 1)
        assert not isinstance(info.value, TrainingDivergedError)

    def test_gate_checkpoint_roundtrip(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=40)
        cfg = training.MethodConfig(method="Gate", epochs=1, seed=5)
        record = training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        row = record.rows[-1]
        model = training.load_checkpoint(row["checkpoint"], row["epoch"])
        assert model.spec.group_heads == 2
        np.testing.assert_array_equal(model.flat, record.model.flat)
        np.testing.assert_array_equal(
            training.predict(model, [dev_ds.X], [dev_ds.g]),
            training.predict(record.model, [dev_ds.X], [dev_ds.g]))

    def test_rerun_starts_the_store_afresh(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=40)
        for epochs in (3, 1):
            cfg = training.MethodConfig(method="Standard", epochs=epochs, seed=5)
            record = training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        spec = record.model.spec
        assert (tmp_path / "checkpoints.bin").stat().st_size == (
            len(training._checkpoint_header(spec)) + 2 * spec.n_params * 8)
        np.testing.assert_array_equal(
            training.load_checkpoint(tmp_path / "checkpoints.bin", 1).flat,
            record.model.flat)

    def test_nan_score_row_raises_unwritten(self, tmp_path):
        _, dev_ds, test_ds = biased_bundle(n=40)
        epochs_file = tmp_path / "epochs.jsonl"
        epochs_file.write_text("")
        with pytest.raises(TrainingDivergedError, match="non-finite dev_dto in the Gate-soft row"):
            training._append_row(epochs_file, {"post": "Gate-soft"}, [dev_ds.y, test_ds.y],
                                 dev_ds, test_ds, tail={"dev_dto": float("nan")})
        assert epochs_file.read_text() == ""


# Each at-training method, BT + Adv + INLP and Gate + Gate-soft, at the CLI
# default scale
OVERLAP_PIPELINES = {
    "Standard": [],
    "Adv": ["--method", "Adv"],
    "EAdv": ["--method", "EAdv", "--n_discriminators", "2"],
    "DAdv": ["--method", "DAdv", "--diff_lambda", "0.1", "--n_discriminators", "2"],
    "AAdv": ["--method", "AAdv"],
    "ADAdv": ["--method", "ADAdv", "--diff_lambda", "0.1", "--n_discriminators", "2"],
    "FairBatch": ["--method", "FairBatch", "--fairbatch_alpha", "0.05"],
    "FairSCL": ["--method", "FairSCL", "--fcl_lambda_y", "0.1", "--fcl_lambda_g", "0.1"],
    "EO_CLA": ["--method", "EO_CLA", "--eo_cla_lambda", "0.5"],
    "BT + Adv + INLP": ["--BT", "Resampling", "--BTObj", "EO", "--adv_debiasing", "--INLP",
                        "--inlp_iterations", "1"],
    "Gate + Gate-soft": ["--method", "Gate", "--gate_soft"],
}


class Stop(BaseException):
    """A stop that nothing in fairkit catches."""


def overlap_job_spy(jobs: list):
    """A stand-in for nn._Job that appends to jobs the thread each job
    started by nn.LogitsOnWorker.start (an overlapped one) runs on."""
    make_job, start = nn._Job, nn.LogitsOnWorker.start.__code__

    def job(fn, *args):
        if sys._getframe(1).f_code is not start:
            return make_job(fn, *args)

        def overlapped(*args):
            jobs.append(threading.current_thread())
            return fn(*args)
        return make_job(overlapped, *args)
    return job


class TestScoringOverlap:
    """Epoch k is scored on a second thread while epoch k + 1 trains when
    nn.infer_many would run dev and test in parallel. PARALLEL_MIN_WORK 0
    takes that path at every epoch but the last (on two CPUs), 10**12 never."""

    def run(self, results, flags, min_work, epochs=3):
        """(exit code, the run directory's files) of one CLI run, and the
        threads that ran an overlapped job."""
        jobs = []
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", min_work), \
                mock.patch.object(nn, "_Job", overlap_job_spy(jobs)):
            try:
                code = cli.main(["--epochs", str(epochs), "--results_dir", str(results), *flags])
            except Stop:
                code = "stopped"
        (run_dir,) = results.iterdir()
        rows = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        for row in rows:
            row.pop("checkpoint", None)
        ckpt = run_dir / "checkpoints.bin"
        names = sorted(p.name for p in run_dir.iterdir())
        return (code, names, rows, ckpt.read_bytes() if ckpt.exists() else None), jobs

    @pytest.mark.parametrize("name", list(OVERLAP_PIPELINES))
    def test_overlapped_and_serial_runs_write_the_same_bytes(self, tmp_path, name):
        serial, none = self.run(tmp_path / "serial", OVERLAP_PIPELINES[name], 10**12)
        overlapped, jobs = self.run(tmp_path / "overlapped", OVERLAP_PIPELINES[name], 0)
        assert none == [] and serial[0] == 0
        assert overlapped == serial
        if nn._cpus() > 1:  # epochs 0, 1 and 2 were scored on the worker
            assert len(jobs) == 3 and threading.main_thread() not in jobs

    @pytest.mark.parametrize("stop", ["diverge", "score", "score, then diverge", "interrupt"])
    @pytest.mark.parametrize("flags", [[], ["--method", "Gate"]])
    def test_a_stop_leaves_the_serial_runs_files(self, tmp_path, monkeypatch, stop, flags):
        """Epoch 2 diverges or is interrupted, or scoring epoch 1 raises."""
        make_batches, classes = training.make_batches, training._classes
        calls = {"batches": 0, "classes": 0}

        def batches(*args, **kwargs):
            calls["batches"] += 1
            out = make_batches(*args, **kwargs)
            if calls["batches"] == 2 and "diverge" in stop:
                return [dataclasses.replace(b, weights=b.weights * np.nan) for b in out]
            if calls["batches"] == 2 and stop == "interrupt":
                raise Stop()
            return out

        def scored(*args):
            calls["classes"] += 1
            if calls["classes"] == 2 and "score" in stop:
                raise LabelDomainError("scoring epoch 1 failed")
            return classes(*args)

        monkeypatch.setattr(training, "make_batches", batches)
        monkeypatch.setattr(training, "_classes", scored)
        outcomes = []
        for min_work in (10**12, 0):
            calls.update(batches=0, classes=0)
            outcomes.append(self.run(tmp_path / str(min_work), flags, min_work))
        (serial, _), (overlapped, jobs) = outcomes
        assert overlapped == serial
        if nn._cpus() > 1:  # epochs 0 and 1 were scored on the worker
            assert len(jobs) == 2
        code, _, rows, ckpt = serial
        assert code == {"diverge": 4, "interrupt": "stopped"}.get(stop, 1)
        # rows 0 and 1 with records 0 and 1, or row 0 with records 0 and 1
        assert [row["epoch"] for row in rows] == ([0] if "score" in stop else [0, 1])
        header = ckpt[:ckpt.index(b"\n") + 1]
        assert len(ckpt) == len(header) + 2 * json.loads(header)["n_params"] * 8

    def test_below_the_gate_no_snapshot_is_made(self, tmp_path):
        train_ds, dev_ds, test_ds = biased_bundle(n=60)
        cfg = training.MethodConfig(method="Standard", epochs=3, seed=1)
        spec = make_model(cfg, d=6).spec
        assert dev_ds.n * spec.n_params < nn.PARALLEL_MIN_WORK
        with mock.patch.object(nn, "_outputs", side_effect=AssertionError), \
                mock.patch.object(nn, "_Job", side_effect=AssertionError):
            training.train(train_ds, dev_ds, test_ds, cfg, run_dir=tmp_path)
        ckpt = (tmp_path / "checkpoints.bin").read_bytes()
        header = ckpt[:ckpt.index(b"\n") + 1]
        assert len(ckpt) == len(header) + 4 * spec.n_params * 8  # one record per epoch


def gate_model_and_optimizer(kind="adam", steps=3):
    """A small Gate model after a few optimizer steps on random gradients."""
    cfg = training.MethodConfig(method="Gate", hidden_dims=(5,))
    model = make_model(cfg, d=4, num_groups=3, seed=2)
    opt = nn.make_optimizer(model, kind=kind, lr=0.01)
    rng = np.random.default_rng(9)
    for _ in range(steps):
        nn.optimizer_step(model, rng.normal(size=model.spec.n_params), opt)
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
        ("method", "Fair"), ("adv_lambda", float("nan")), ("lr", float("inf")),
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
        before = model.flat.copy()
        grads = zero_grads(model)
        grads.weights[1][4, 0] = np.nan  # output layer, first row of group 1's head
        with pytest.raises(TrainingDivergedError, match="layer 1 weight"):
            nn.optimizer_step(model, grads.flat, opt)
        np.testing.assert_array_equal(model.flat, before)


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
        params = reference.weights + reference.biases
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        rng = np.random.default_rng(4)
        for t in range(1, 51):
            grads = [rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape)
                     for p in params]
            nn.optimizer_step(model, flatten(grads), opt)
            per_parameter_adam(params, grads, m, v, t, 0.01)
        assert opt.t == 50
        for a, b in zip(model.weights + model.biases, params):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(opt.flat_m, flatten(m))
        np.testing.assert_array_equal(opt.flat_v, flatten(v))


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
        path = tmp_path / "checkpoints.bin"
        saved = write_store(path, GATE_SPEC, 3, seed=0)
        monkeypatch.setattr(training, "open", lambda p, mode: HalfWrite(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            training.save_checkpoint(path, nn.init_network(GATE_SPEC), 3)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [path]
        size = GATE_SPEC.n_params * 8  # the store holds half of record 3
        assert path.stat().st_size == (
            len(training._checkpoint_header(GATE_SPEC)) + 3 * size + size // 2)
        for epoch, params in enumerate(saved):
            assert training.load_checkpoint(path, epoch).flat.tobytes() == params
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path, 3)  # the torn record

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


GATE_SPEC = nn.MlpSpec(input_dim=4, hidden_dims=(5,), output_dim=2, seed=2, group_heads=3)


def write_store(path, spec, epochs, seed) -> list[bytes]:
    """Save `epochs` records of a network of spec, perturbed between records
    by a generator of seed, to path; returns each record's parameters as
    bytes."""
    model = nn.init_network(spec)
    rng = np.random.default_rng(seed)
    saved = []
    for epoch in range(epochs):
        training.save_checkpoint(path, model, epoch)
        saved.append(model.flat.tobytes())
        for p in model.weights + model.biases:
            p += rng.normal(scale=10.0 ** rng.integers(-3, 4), size=p.shape)
    return saved


def store(header: dict, records: bytes) -> bytes:
    return (json.dumps(header) + "\n").encode() + records


def with_heads(h: dict, heads: int) -> dict:
    """Header h naming `heads` group heads and the parameter count they make."""
    spec = nn.MlpSpec(h["input_dim"], h["hidden_dims"], h["output_dim"], h["activation"],
                      h["seed"], heads)
    return {**h, "group_heads": heads, "n_params": spec.n_params}


# Damage to a valid store of three records of a Gate model with 3 group
# heads, given its header h (a dict) and its records r; the last record,
# epoch 2, is loaded from the damaged bytes
DAMAGE = {
    "header not JSON": lambda h, r: b"fairkit-ckpt-v3\n" + r,
    "deeply nested header": lambda h, r: b"[" * 10_000 + b"\n" + r,
    "header without newline": lambda h, r: store(h, b"")[:-1],
    "no newline within the bound": lambda h, r: (
        b" " * training.CHECKPOINT_HEADER_LIMIT + store(h, r)),
    "missing key": lambda h, r: store({k: v for k, v in h.items() if k != "n_params"}, r),
    "v1 magic": lambda h, r: store({**h, "magic": "fairkit-ckpt-v1"}, r),
    "v2 magic": lambda h, r: store({**h, "magic": "fairkit-ckpt-v2"}, r),
    "short params": lambda h, r: store({**h, "n_params": h["n_params"] - 1}, r),
    "long params": lambda h, r: store({**h, "n_params": h["n_params"] + 1}, r),
    # the parameter count of the same network without its group heads
    "base-only params": lambda h, r: store({**h, "n_params": with_heads(h, 0)["n_params"]}, r),
    "group_heads not matching params": lambda h, r: store({**h, "group_heads": 2}, r),
    "negative group_heads": lambda h, r: store({**h, "group_heads": -1}, r),
    "infinite input_dim": lambda h, r: store({**h, "input_dim": float("inf")}, r),
    # a JSON true where the one group head its n_params counts is named
    "boolean group_heads": lambda h, r: store({**with_heads(h, 1), "group_heads": True}, r),
    # a consistent header, refused by the size check before the network of
    # 10**15 heads is allocated
    "huge group_heads": lambda h, r: store(with_heads(h, 10**15), r),
    "torn last record": lambda h, r: store(h, r[:-8]),
}


@pytest.mark.parametrize("spec", [GATE_SPEC, nn.MlpSpec(3, (4, 6), 2, "tanh", seed=5)])
def test_reload_is_bit_exact_and_draws_no_init(tmp_path, spec):
    saved = write_store(tmp_path / "checkpoints.bin", spec, 3, seed=1)
    with mock.patch.object(nn, "init_network") as init:
        loaded = [training.load_checkpoint(tmp_path / "checkpoints.bin", e) for e in range(3)]
    init.assert_not_called()
    for model, params in zip(loaded, saved, strict=True):
        assert model.spec == spec
        assert model.flat.tobytes() == params


@pytest.mark.parametrize("kind", nn.OPTIMIZERS)
def test_reloaded_network_is_writable_and_owns_its_buffer(tmp_path, kind):
    path = tmp_path / "checkpoints.bin"
    saved = write_store(path, GATE_SPEC, 2, seed=3)
    stored = path.read_bytes()
    model = training.load_checkpoint(path, 1)
    nn.optimizer_step(model, np.ones(GATE_SPEC.n_params), nn.make_optimizer(model, kind, 0.1))
    assert model.flat.tobytes() != saved[1]
    assert path.read_bytes() == stored


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("content", [b"", b"not a checkpoint", b"PK\x03\x04truncated"])
    def test_not_a_zip(self, tmp_path, content):
        path = tmp_path / "checkpoints.bin"
        path.write_bytes(content)
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path, 0)

    def test_npy_file(self, tmp_path):
        path = tmp_path / "epoch_1.npy"
        np.save(path, np.arange(3))
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path, 0)

    @pytest.mark.parametrize("magic", ["fairkit-ckpt-v1", "fairkit-ckpt-v2"])
    def test_earlier_npz_format(self, tmp_path, magic):
        model, opt = gate_model_and_optimizer()
        path = tmp_path / "epoch_1.npz"
        np.savez(path, magic=np.array(magic), epoch=np.array(1),
                 params=model.flat, opt_m=opt.flat_m, opt_v=opt.flat_v)
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(path, 1)

    @pytest.mark.parametrize("damage", list(DAMAGE))
    def test_damaged_arrays(self, tmp_path, damage):
        good = tmp_path / "good.bin"
        saved = write_store(good, GATE_SPEC, 3, seed=0)
        header, records = good.read_bytes().split(b"\n", 1)
        assert training.load_checkpoint(good, 2).flat.tobytes() == saved[2]
        (tmp_path / "bad.bin").write_bytes(DAMAGE[damage](json.loads(header), records))
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(tmp_path / "bad.bin", 2)

    @pytest.mark.parametrize("epoch", [-1, 3, 10**15])
    def test_epoch_outside_the_store(self, tmp_path, epoch):
        write_store(tmp_path / "checkpoints.bin", GATE_SPEC, 3, seed=0)
        with pytest.raises(training.ParseErrorForCheckpoint):
            training.load_checkpoint(tmp_path / "checkpoints.bin", epoch)


@st.composite
def saved_stores(draw):
    """A small network spec, 1-6 epochs of parameters, and the seed of the
    generator that perturbs them between epochs."""
    spec = nn.MlpSpec(input_dim=draw(st.integers(1, 4)),
                      hidden_dims=tuple(draw(st.lists(st.integers(1, 4), max_size=3))),
                      output_dim=draw(st.integers(1, 3)),
                      activation=draw(st.sampled_from(nn.ACTIVATIONS)),
                      seed=draw(st.integers(0, 2**32)), group_heads=draw(st.integers(0, 3)))
    return spec, draw(st.integers(1, 6)), draw(st.integers(0, 2**32))


@st.composite
def damages(draw):
    """("truncate", length), ("flip", [(offset, xor mask), ...]) with 1-3
    flips, or ("append", bytes); offsets and lengths are taken modulo the
    store's size."""
    kind = draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        return kind, draw(st.integers(0, 2**20))
    if kind == "flip":
        return kind, draw(st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)),
                                   min_size=1, max_size=3))
    return kind, draw(st.binary(min_size=1, max_size=64))


SEED_7 = nn.MlpSpec(input_dim=2, hidden_dims=(3,), output_dim=2, seed=7)


class TestCheckpointStore:
    @settings(max_examples=100, deadline=None)
    @given(saved_stores())
    def test_every_epoch_round_trips(self, case):
        spec, epochs, seed = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoints.bin"
            saved = write_store(path, spec, epochs, seed)
            loaded = [training.load_checkpoint(path, epoch) for epoch in range(epochs)]
            size = path.stat().st_size
        assert size == len(training._checkpoint_header(spec)) + epochs * spec.n_params * 8
        for model, params in zip(loaded, saved):
            assert model.spec == spec
            assert np.array_equal(model.flat, np.frombuffer(params))
            assert model.flat.tobytes() == params

    # A flipped byte inside a record is read back as stored: records carry no
    # checksum. Every other damage is refused or leaves the record intact. A
    # damaged header that is still the header of some spec names where that
    # spec's records lie, so the record read is the damaged file's bytes there.
    @settings(max_examples=200, deadline=None)
    @given(saved_stores(), damages())
    # "seed": 7 made "seed": 8, and one bit of record 0 flipped
    @example((SEED_7, 1, 0), ("flip", [(training._checkpoint_header(SEED_7).index(b"7,"), 0x0F),
                                       (len(training._checkpoint_header(SEED_7)), 1)]))
    def test_damaged_store_loads_saved_record_or_is_refused(self, case, damage):
        spec, epochs, seed = case
        kind, how = damage
        with tempfile.TemporaryDirectory() as tmp:
            saved = write_store(Path(tmp) / "checkpoints.bin", spec, epochs, seed)
            original = (Path(tmp) / "checkpoints.bin").read_bytes()
            if kind == "truncate":
                damaged = original[:how % len(original)]
            elif kind == "flip":
                damaged = bytearray(original)
                for at, mask in how:
                    damaged[at % len(original)] ^= mask
                damaged = bytes(damaged)
            else:
                damaged = original + how
            path = Path(tmp) / "damaged.bin"
            path.write_bytes(damaged)
            header, size = len(training._checkpoint_header(spec)), spec.n_params * 8
            for epoch in range(epochs + 2):
                record = damaged[header + epoch * size:header + (epoch + 1) * size]
                try:
                    model = training.load_checkpoint(path, epoch)
                except training.ParseErrorForCheckpoint:
                    model = None
                if damaged[:header] == original[:header]:
                    loaded = None if model is None else model.flat.tobytes()
                    assert loaded == (record if len(record) == size else None)
                elif model is not None:
                    line = training._checkpoint_header(model.spec)
                    named = model.spec.n_params * 8  # the record size of the spec it names
                    assert damaged.startswith(line)
                    at = len(line) + epoch * named
                    assert model.flat.tobytes() == damaged[at:at + named]
