import numpy as np
import pytest

from fairkit import data, nn, postproc, training
from fairkit.errors import DegenerateProbeError, MethodInapplicableError, ShapeError


def leaky_hidden(n_per_group=60, h=6, shift=3.0, seed=0):
    """Representations where group is linearly recoverable along axis 0."""
    rng = np.random.default_rng(seed)
    H0 = rng.normal(size=(n_per_group, h))
    H1 = rng.normal(size=(n_per_group, h))
    H0[:, 0] -= shift / 2
    H1[:, 0] += shift / 2
    H = np.vstack([H0, H1])
    g = np.array([0] * n_per_group + [1] * n_per_group)
    return H, g


class TestProbes:
    def test_separable_reaches_full_accuracy(self):
        H, g = leaky_hidden(shift=6.0)
        _, acc = postproc.fit_linear_probe(H, g)
        assert acc == 1.0

    def test_zero_representations_give_majority(self):
        H = np.zeros((30, 4))
        g = np.array([0] * 20 + [1] * 10)
        _, acc = postproc.fit_linear_probe(H, g)
        assert acc == postproc.majority_baseline(g) == pytest.approx(2 / 3)

    def test_shuffled_labels_near_baseline(self):
        rng = np.random.default_rng(1)
        H = rng.normal(size=(400, 6))
        g = rng.integers(0, 2, 400)
        _, acc = postproc.fit_linear_probe(H, g)
        assert abs(acc - postproc.majority_baseline(g)) <= 0.06

    def test_single_group_raises(self):
        with pytest.raises(DegenerateProbeError):
            postproc.fit_linear_probe(np.ones((5, 3)), np.zeros(5, dtype=int))

    def test_softmax_head_rows_sum_to_zero(self):
        # zero init + softmax gradient keeps sum over class rows at zero
        H, g = leaky_hidden()
        W, b = postproc.fit_softmax_head(H, g, 2)
        np.testing.assert_allclose(W.sum(axis=0), np.zeros(H.shape[1]), atol=1e-12)
        assert b.sum() == pytest.approx(0.0, abs=1e-12)

    def test_majority_baseline(self):
        assert postproc.majority_baseline([0, 0, 1]) == pytest.approx(2 / 3)
        assert postproc.majority_baseline([1, 1, 1]) == 1.0


class TestNullspaceProjection:
    def test_axis_aligned_example(self):
        P = postproc.nullspace_projection(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)

    def test_full_rank_gives_zero(self):
        P = postproc.nullspace_projection(np.eye(3))
        np.testing.assert_allclose(P, np.zeros((3, 3)), atol=1e-12)

    def test_zero_matrix_warns_identity(self):
        with pytest.warns(UserWarning):
            P = postproc.nullspace_projection(np.zeros((2, 4)))
        np.testing.assert_array_equal(P, np.eye(4))

    def test_duplicate_rows_counted_once(self):
        W = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        P = postproc.nullspace_projection(W)
        assert np.trace(P) == pytest.approx(2.0)  # rank-1 removal only

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(2, 6))
        P = postproc.nullspace_projection(W)
        # independent oracle via SVD basis of the row space
        _, _, vt = np.linalg.svd(W, full_matrices=False)
        P_oracle = np.eye(6) - vt.T @ vt
        np.testing.assert_allclose(P, P_oracle, atol=1e-10)
        # projection axioms
        np.testing.assert_allclose(P, P.T, atol=1e-12)
        np.testing.assert_allclose(P @ P, P, atol=1e-12)
        np.testing.assert_allclose(W @ P, np.zeros((2, 6)), atol=1e-10)


class TestInlp:
    def test_zero_iterations_identity(self):
        H, g = leaky_hidden()
        proj = postproc.inlp(H, g, max_iterations=0)
        np.testing.assert_array_equal(proj.P, np.eye(H.shape[1]))
        assert proj.iterations_applied == 0

    def test_single_direction_leak_shrinks_then_reaches_baseline(self):
        H, g = leaky_hidden(shift=6.0)
        one = postproc.inlp(H, g, max_iterations=1)
        assert one.probe_accuracies[0] == 1.0
        _, acc_after_one = postproc.fit_linear_probe(H @ one.P.T, g)
        assert acc_after_one <= 0.8  # dominant direction gone, residue possible
        few = postproc.inlp(H, g, max_iterations=3)
        _, acc_after_few = postproc.fit_linear_probe(H @ few.P.T, g)
        assert acc_after_few <= postproc.majority_baseline(g) + 0.02

    def test_full_leak_driven_to_baseline(self):
        rng = np.random.default_rng(2)
        h = 4
        H = rng.normal(size=(200, h))
        g = (H @ rng.normal(size=h) > 0).astype(int)
        proj = postproc.inlp(H, g, max_iterations=h)
        _, acc_after = postproc.fit_linear_probe(H @ proj.P.T, g)
        assert abs(acc_after - postproc.majority_baseline(g)) <= 0.01

    def test_projection_symmetric_idempotent(self):
        H, g = leaky_hidden(h=8, seed=3)
        proj = postproc.inlp(H, g, max_iterations=3)
        P = proj.P
        assert np.max(np.abs(P - P.T)) <= 1e-6
        assert np.max(np.abs(P @ P - P)) <= 1e-6

    def test_rank_drops_by_at_most_groups_minus_one_per_iteration(self):
        H, g = leaky_hidden(h=6, seed=4)
        proj = postproc.inlp(H, g, max_iterations=3)
        rank = int(round(np.trace(proj.P)))
        assert rank >= 6 - 3  # binary probes remove one direction each

    def test_deterministic(self):
        H, g = leaky_hidden(seed=5)
        a = postproc.inlp(H, g, max_iterations=2)
        b = postproc.inlp(H, g, max_iterations=2)
        np.testing.assert_array_equal(a.P, b.P)
        assert a.probe_accuracies == b.probe_accuracies

    def test_save_load_roundtrip(self, tmp_path):
        H, g = leaky_hidden()
        proj = postproc.inlp(H, g, max_iterations=2)
        path = tmp_path / "inlp_projection.bin"
        postproc.save_projection(path, proj)
        with np.load(path) as z:
            loaded = postproc.Projection(P=z["P"], iterations_applied=int(z["iterations"]),
                                         probe_accuracies=list(z["probe_accuracies"]))
        np.testing.assert_array_equal(loaded.P, proj.P)
        assert loaded.iterations_applied == proj.iterations_applied
        assert loaded.probe_accuracies == pytest.approx(proj.probe_accuracies)


def trained_standard(seed=0):
    spec = data.SyntheticSpec(
        n_per_cell={(0, 0): 120, (0, 1): 40, (1, 0): 40, (1, 1): 120},
        d=6, class_separation=1.5, group_shift=2.5, noise_sigma=1.0, seed=seed)
    train_ds, dev_ds, test_ds = data.generate_synthetic(spec)
    cfg = training.MethodConfig(method="Standard", epochs=10, batch_size=64,
                                lr=0.01, hidden_dims=(16,), seed=seed)
    record = training.train(train_ds, dev_ds, test_ds, cfg)
    return record.model, train_ds, dev_ds


class TestApplyInlpAndRefit:
    def test_identity_projection_close_to_original(self):
        model, train_ds, dev_ds = trained_standard()
        h = model.hidden_dim
        clf = postproc.apply_inlp_and_refit(model, np.eye(h), train_ds, 2)
        orig = np.mean(training.predict(model, dev_ds.X) == dev_ds.y)
        refit = np.mean(clf.predict(dev_ds.X) == dev_ds.y)
        assert abs(refit - orig) <= 0.02

    def test_zero_projection_collapses_to_majority(self):
        model, train_ds, dev_ds = trained_standard()
        h = model.hidden_dim
        clf = postproc.apply_inlp_and_refit(model, np.zeros((h, h)), train_ds, 2)
        preds = clf.predict(dev_ds.X)
        assert len(np.unique(preds)) == 1  # constant classifier
        acc = np.mean(preds == dev_ds.y)
        assert acc == pytest.approx(postproc.majority_baseline(train_ds.y), abs=0.1)

    def test_shape_mismatch(self):
        model, train_ds, _ = trained_standard()
        with pytest.raises(ShapeError):
            postproc.apply_inlp_and_refit(model, np.eye(3), train_ds, 2)

    def test_original_model_untouched(self):
        model, train_ds, _ = trained_standard()
        before = model.flat_params()
        P = postproc.inlp(postproc.hidden_representations(model, train_ds.X),
                          train_ds.g, max_iterations=2).P
        postproc.apply_inlp_and_refit(model, P, train_ds, 2)
        np.testing.assert_array_equal(model.flat_params(), before)


def trained_gate(seed=0, num_groups=2):
    spec = data.SyntheticSpec(
        n_per_cell={(c, gr): 80 if gr == c % num_groups else 40
                    for c in range(2) for gr in range(num_groups)},
        d=6, class_separation=1.5, group_shift=2.5, noise_sigma=1.0, seed=seed)
    train_ds, dev_ds, test_ds = data.generate_synthetic(spec)
    cfg = training.MethodConfig(method="Gate", epochs=5, batch_size=64,
                                lr=0.01, hidden_dims=(8,), seed=seed)
    return training.train(train_ds, dev_ds, test_ds, cfg).model, dev_ds


class TestGateSoft:
    def test_vertex_prior_matches_single_head(self):
        model, dev_ds = trained_gate()
        logits = training.gate_soft_logits(model, dev_ds.X, np.array([1.0, 0.0]))
        forced = training.gate_forward(
            nn.forward(model.base, dev_ds.X).hidden,
            np.zeros(dev_ds.n, dtype=int),
            nn.forward(model.base, dev_ds.X).logits,
            model.head_weights, model.head_biases)
        np.testing.assert_allclose(logits, forced, atol=1e-12)

    def test_uniform_prior_averages_heads(self):
        model, dev_ds = trained_gate()
        X = dev_ds.X
        uniform = training.gate_soft_logits(model, X, np.array([0.5, 0.5]))
        head0 = training.gate_soft_logits(model, X, np.array([1.0, 0.0]))
        head1 = training.gate_soft_logits(model, X, np.array([0.0, 1.0]))
        np.testing.assert_allclose(uniform, (head0 + head1) / 2, atol=1e-10)

    def test_search_matches_exhaustive_oracle(self):
        # the oracle runs the encoder again for every prior; the search must
        # pick the same prior with the same DTO, bit for bit
        from fairkit.evaluation import dto, evaluate_predictions
        for num_groups in (2, 3, 4):
            model, dev_ds = trained_gate(num_groups=num_groups)
            prior, best = postproc.gate_soft_search(model, dev_ds, grid_resolution=11)
            uniform = np.full(num_groups, 1.0 / num_groups)
            oracle = None
            for point in postproc._simplex_grid(num_groups, 11):
                p = np.array(point)
                preds = training.gate_soft_logits(model, dev_ds.X, p).argmax(axis=1)
                r = evaluate_predictions(preds, dev_ds.y, dev_ds.g,
                                         dev_ds.num_classes, dev_ds.num_groups)
                key = (dto((r.performance, r.fairness)), float(np.linalg.norm(p - uniform)))
                if oracle is None or key < oracle[0]:
                    oracle = (key, point)
            assert prior == oracle[1], num_groups
            assert best == oracle[0][0], num_groups

    def test_tie_breaks_toward_uniform(self):
        # zero heads and zero base output layer -> all priors tie
        model, dev_ds = trained_gate()
        for w in model.head_weights:
            w[...] = 0.0
        for b in model.head_biases:
            b[...] = 0.0
        prior, _ = postproc.gate_soft_search(model, dev_ds, grid_resolution=11)
        assert prior == (0.5, 0.5)

    def test_grid_covers_simplex(self):
        pts = list(postproc._simplex_grid(3, 5))
        assert len(pts) == 15  # C(4+2, 2)
        for p in pts:
            assert sum(p) == pytest.approx(1.0)
            assert all(x >= 0 for x in p)

    def test_requires_gate_model(self):
        net = nn.init_network(nn.MlpSpec(4, (4,), 2, "relu", 0))
        with pytest.raises(MethodInapplicableError):
            postproc.gate_soft_search(net, None)
