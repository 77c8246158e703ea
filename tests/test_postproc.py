import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairkit import cli, data, nn, postproc, training
from fairkit.errors import DegenerateProbeError, MethodInapplicableError, ShapeError
from fairkit.evaluation import dto, evaluate_predictions


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


def random_problem(K, seed):
    """Seeded labels that depend on H through a random linear map plus noise."""
    rng = np.random.default_rng(seed)
    n, h = int(rng.integers(40, 200)), int(rng.integers(1, 21))
    H = rng.normal(size=(n, h)) * rng.uniform(0.2, 3.0, size=h)
    labels = (H @ rng.normal(size=(h, K)) + rng.gumbel(size=(n, K))).argmax(axis=1)
    return H, labels


def _design(H, labels, K):
    X = np.hstack([H, np.ones((len(H), 1))])
    return X, np.eye(K)[labels]


def ridge_objective(H, labels, K, W, b):
    """Mean cross-entropy plus PROBE_L2/2 * ||[W b]||^2, and its gradient in [W b]."""
    X, Y = _design(H, labels, K)
    Wb = np.hstack([W, b[:, None]])
    Z = X @ Wb.T
    Z = Z - Z.max(axis=1, keepdims=True)
    log_p = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    value = -(Y * log_p).sum() / len(X) + 0.5 * postproc.PROBE_L2 * (Wb ** 2).sum()
    return value, (np.exp(log_p) - Y).T @ X / len(X) + postproc.PROBE_L2 * Wb


def newton_softmax_head(H, labels, K):
    """Reference: damped Newton on the full K*(h+1) ridge objective, with
    backtracking on the objective, run to a gradient norm of 1e-12."""
    X, _ = _design(H, labels, K)
    n, d = X.shape
    lam = postproc.PROBE_L2

    def objective(Wb):
        return ridge_objective(H, labels, K, Wb[:, :-1], Wb[:, -1])

    Wb = np.zeros((K, d))
    for _ in range(100):
        f0, G = objective(Wb)
        if np.linalg.norm(G) < 1e-12:
            break
        P = nn.softmax(X @ Wb.T)
        # Hessian[(k, j), (l, m)] = mean_i (P_ik [k == l] - P_ik P_il) X_ij X_im + lam
        D = np.einsum("ik,kl->ikl", P, np.eye(K)) - np.einsum("ik,il->ikl", P, P)
        hess = np.einsum("ikl,ij,im->kjlm", D, X, X).reshape(K * d, K * d) / n
        step = np.linalg.solve(hess + lam * np.eye(K * d), G.ravel()).reshape(K, d)
        t = 1.0
        while objective(Wb - t * step)[0] > f0 - 0.25 * t * (G * step).sum():
            t /= 2
        Wb = Wb - t * step
    return Wb[:, :-1], Wb[:, -1]


def plain_softmax_head(H, labels, K):
    """Reference: Boehning's bound iteration with no extrapolation, the
    solver fit_softmax_head replaced. Returns (W, b, converged)."""
    X, Y = _design(H, labels, K)
    n, d = X.shape
    M = np.linalg.inv(0.5 * (X.T @ X) / n + postproc.PROBE_L2 * np.eye(d))
    Wb = np.zeros((K, d))
    for _ in range(postproc.PROBE_MAX_STEPS):
        G = (nn.softmax(X @ Wb.T) - Y).T @ X / n + postproc.PROBE_L2 * Wb
        if np.linalg.norm(G) < postproc.PROBE_TOL:
            return Wb[:, :-1], Wb[:, -1], True
        Wb -= G @ M
    return Wb[:, :-1], Wb[:, -1], False


def softmax_calls(solver, *args):
    """The solver's result and its nn.softmax calls: one per step, as
    perfbench's postproc.probe_iters counts them."""
    calls, softmax = [], nn.softmax

    def counted(z):
        calls.append(1)
        return softmax(z)

    with mock.patch.object(nn, "softmax", counted):
        result = solver(*args)
    return result, len(calls)


@st.composite
def probe_problems(draw):
    """Small ridge problems, some with duplicated rows, a zero column or
    labels that a linear map separates."""
    K, n, h = draw(st.integers(2, 5)), draw(st.integers(8, 200)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(size=(n, h)) * rng.uniform(0.2, 3.0, size=h)
    if draw(st.booleans()):
        H[rng.integers(0, n, size=n // 2)] = H[:n // 2]
    if draw(st.booleans()):
        H[:, rng.integers(0, h)] = 0.0
    noise = 0.0 if draw(st.booleans()) else 1.0  # noise-free labels are separable
    labels = (H @ rng.normal(size=(h, K)) + noise * rng.gumbel(size=(n, K))).argmax(axis=1)
    return H, labels, K


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
        W, b, *_ = postproc.fit_softmax_head(H, g, 2)
        np.testing.assert_allclose(W.sum(axis=0), np.zeros(H.shape[1]), atol=1e-12)
        assert b.sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_head_solves_the_ridge_problem(self, K, seed):
        H, labels = random_problem(K, seed)
        W, b, *_ = postproc.fit_softmax_head(H, labels, K)
        value, G = ridge_objective(H, labels, K, W, b)
        grad_norm = np.linalg.norm(G)
        assert grad_norm <= 10 * postproc.PROBE_TOL
        W_ref, b_ref = newton_softmax_head(H, labels, K)
        value_ref, _ = ridge_objective(H, labels, K, W_ref, b_ref)
        assert value == pytest.approx(value_ref, rel=0, abs=1e-6)
        # the objective is PROBE_L2-strongly convex, so a gradient norm of
        # grad_norm puts [W b] within grad_norm / PROBE_L2 of the minimizer
        dist = np.linalg.norm(np.hstack([W - W_ref, (b - b_ref)[:, None]]))
        assert dist <= grad_norm / postproc.PROBE_L2
        # class rows sum to zero: for K = 2, W[1] == -W[0] (a rank-1 probe)
        np.testing.assert_allclose(W.sum(axis=0), np.zeros(H.shape[1]), atol=1e-12)
        assert b.sum() == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(probe_problems())
    def test_softmax_head_converges_where_the_plain_loop_does(self, problem):
        H, labels, K = problem
        if not plain_softmax_head(H, labels, K)[2]:
            return  # the plain loop stopped at the cap: nothing to compare
        W, b, _, reported = postproc.fit_softmax_head(H, labels, K)
        assert reported < postproc.PROBE_TOL
        grad_norm = np.linalg.norm(ridge_objective(H, labels, K, W, b)[1])
        assert grad_norm < postproc.PROBE_TOL
        np.testing.assert_allclose(W.sum(axis=0), np.zeros(H.shape[1]), atol=1e-12)
        assert abs(b.sum()) <= 1e-12
        W_ref, b_ref = newton_softmax_head(H, labels, K)
        dist = np.linalg.norm(np.hstack([W - W_ref, (b - b_ref)[:, None]]))
        assert dist <= grad_norm / postproc.PROBE_L2

    @pytest.mark.parametrize("K, seed", [(2, 0), (3, 1), (5, 2)])
    def test_softmax_head_takes_at_most_60_percent_of_the_plain_steps(self, K, seed):
        # softmax calls, plain -> restarted: (2, 0) 231 -> 44, (3, 1) 434 -> 78, (5, 2) 400 -> 68
        H, labels = random_problem(K, seed)
        (*_, converged), plain = softmax_calls(plain_softmax_head, H, labels, K)
        (*_, reported, grad_norm), steps = softmax_calls(postproc.fit_softmax_head, H, labels, K)
        assert reported == steps and grad_norm < postproc.PROBE_TOL
        assert converged
        assert steps <= 0.6 * plain

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


def expanded_softmax_head(H, labels, K):
    """Reference: fit_softmax_head as it was before Rows, on the rows as
    given: it stacks X = [H 1] and forms X'X itself."""
    n, h = H.shape
    X = np.hstack([H, np.ones((n, 1))])
    M = np.linalg.inv(0.5 * (X.T @ X) / n + postproc.PROBE_L2 * np.eye(h + 1))
    onehot = np.eye(K)[labels]
    Wb = Z = np.zeros((K, h + 1))
    theta = 1.0
    for _ in range(postproc.PROBE_MAX_STEPS):
        G = (nn.softmax(X @ Z.T) - onehot).T @ X / n + postproc.PROBE_L2 * Z
        if np.linalg.norm(G) < postproc.PROBE_TOL:
            Wb = Z
            break
        new = Z - G @ M
        move = new - Wb
        if np.vdot(G, move) > 0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        Z = new + (theta - 1.0) / theta_next * move
        Wb, theta = new, theta_next
    return Wb[:, :h], Wb[:, h]


def expanded_inlp(H, g, max_iterations):
    """Reference: inlp as it was before Rows, projecting H for every probe.
    Returns (P, probe accuracies)."""
    P, directions, accs = np.eye(H.shape[1]), [], []
    for _ in range(max_iterations):
        Hp = H @ P
        W, b = expanded_softmax_head(Hp, g, int(g.max()) + 1)
        accs.append(float(np.mean((Hp @ W.T + b).argmax(axis=1) == g)))
        if np.linalg.norm(W) < 1e-12:
            break
        directions.extend(W @ P)
        P = postproc.nullspace_projection(np.array(directions))
    return P, accs


@st.composite
def weighted_problems(draw):
    """Distinct rows with multiplicities in {0, 1, 2, 3} (0: left out by
    downsampling, 2 or 3: drawn again by resampling), group labels that
    leak through H, class labels, and an INLP iteration count. There are at
    least 3h + 6 distinct rows: with about as many rows as dimensions, a
    late probe fits noise of order 1e-10, where nullspace_projection's rank
    threshold or the solver's restart test decides on rounding, and both
    summation orders are right while their P differ (seen: 0.16 apart at
    6 rows in 7 dimensions, 3 iterations)."""
    h = draw(st.integers(1, 8))
    n = draw(st.integers(3 * h + 6, 60))
    groups, classes = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.normal(size=(n, h)) * rng.uniform(0.2, 3.0, size=h)
    g = (H @ rng.normal(size=(h, groups)) + rng.gumbel(size=(n, groups))).argmax(axis=1)
    y = (H @ rng.normal(size=(h, classes)) + rng.gumbel(size=(n, classes))).argmax(axis=1)
    m = rng.integers(0, 4, size=n)
    return H, m, g, y, classes, draw(st.integers(1, 3))


def close(got, want, rel=1e-9):
    """got within rel of want, relative to want's norm (at least 1)."""
    return np.linalg.norm(got - want) <= rel * max(np.linalg.norm(want), 1.0)


@settings(max_examples=80, deadline=None)
@given(weighted_problems())
def test_weighted_inlp_equals_inlp_on_the_expanded_rows(problem):
    """INLP and the refit on distinct rows weighted by their multiplicities,
    from one Gram matrix, are the fits on the rows repeated that many times,
    by the solver that stacked and projected them: P, W and b within 1e-9
    relative, the same probe accuracies and the same predictions."""
    H, m, g, y, classes, iterations = problem
    expanded = np.repeat(np.arange(len(m)), m)
    assume(np.unique(g[expanded]).size >= 2 and g[expanded].max() + 1 <= expanded.size)
    rows = postproc.Rows(H, m)
    projection = postproc.inlp(rows, g, iterations)
    P, accs = expanded_inlp(H[expanded], g[expanded], iterations)
    assert close(projection.P, P)
    assert projection.probe_accuracies == accs
    model = nn.init_network(nn.MlpSpec(2, (H.shape[1],), classes))
    refit, _, _ = postproc.apply_inlp_and_refit(model, projection.P, rows, y, classes)
    W, b = expanded_softmax_head(H[expanded] @ P.T, y[expanded], classes)
    head = np.hstack([refit.weights[-1], refit.biases[-1][:, None]])
    assert close(head, np.hstack([W @ P, b[:, None]]))  # [W b] as one, as the solver fits it
    X = np.random.default_rng(len(m)).normal(size=(200, H.shape[1])) * 3.0
    want = X @ (W @ P).T + b
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-6  # away from ties
    got = X @ refit.weights[-1].T + refit.biases[-1]
    assert np.array_equal(got.argmax(axis=1)[clear], want.argmax(axis=1)[clear])


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
        H_train = nn.infer(model, train_ds.X)[0]
        refit, _, _ = postproc.apply_inlp_and_refit(model, np.eye(h), H_train, train_ds.y, 2)
        orig = np.mean(training.predict(model, [dev_ds.X], [dev_ds.g])[0] == dev_ds.y)
        acc = np.mean(training.predict(refit, [dev_ds.X], [dev_ds.g])[0] == dev_ds.y)
        assert abs(acc - orig) <= 0.02

    def test_zero_projection_collapses_to_majority(self):
        model, train_ds, dev_ds = trained_standard()
        h = model.hidden_dim
        H_train = nn.infer(model, train_ds.X)[0]
        refit, _, _ = postproc.apply_inlp_and_refit(model, np.zeros((h, h)), H_train,
                                                    train_ds.y, 2)
        (preds,) = training.predict(refit, [dev_ds.X], [dev_ds.g])
        assert len(np.unique(preds)) == 1  # constant classifier
        acc = np.mean(preds == dev_ds.y)
        assert acc == pytest.approx(postproc.majority_baseline(train_ds.y), abs=0.1)

    def test_shape_mismatch(self):
        model, train_ds, _ = trained_standard()
        H_train = nn.infer(model, train_ds.X)[0]
        with pytest.raises(ShapeError):
            postproc.apply_inlp_and_refit(model, np.eye(3), H_train, train_ds.y, 2)

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("group_heads", [0, 2])
    @pytest.mark.parametrize("min_work", [0, 10**12])
    def test_refit_network_scores_as_the_folded_head(self, activation, group_heads, min_work):
        """The refit network's logits are bit for bit H @ (W @ P).T + b, with
        H the model's hidden states and W, b the head fit_softmax_head fits on
        H projected by P, on the serial path and the two-thread one."""
        train_ds, dev_ds, test_ds = data.generate_synthetic(data.SyntheticSpec(
            n_per_cell={(0, 0): 90, (0, 1): 30, (1, 0): 30, (1, 1): 90},
            d=6, group_shift=2.5, seed=3))
        model = nn.init_network(nn.MlpSpec(6, (12, 9), 2, activation, seed=4,
                                           group_heads=group_heads))
        H_train = nn.infer(model, train_ds.X)[0]
        P = postproc.inlp(H_train, train_ds.g, max_iterations=2).P
        W, b, steps, grad_norm = postproc.fit_softmax_head(H_train, train_ds.y, 2, P)
        refit, refit_steps, refit_norm = postproc.apply_inlp_and_refit(
            model, P, H_train, train_ds.y, 2)
        assert (refit_steps, refit_norm) == (steps, grad_norm)
        assert refit.spec.group_heads == 0
        Xs = [dev_ds.X, test_ds.X]
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", min_work), \
                mock.patch.object(nn, "_cpus", return_value=2), \
                mock.patch.object(nn, "_infer_into_all", wraps=nn._infer_into_all) as job:
            got = nn.infer_many(refit, Xs)
        assert job.called == (min_work == 0)
        for logits, X in zip(got, Xs):
            H = nn.infer(model, X)[0]
            assert np.array_equal(logits, H @ (W @ P).T + b)

    def test_original_model_untouched(self):
        model, train_ds, _ = trained_standard()
        before = model.flat.copy()
        H_train = nn.infer(model, train_ds.X)[0]
        P = postproc.inlp(H_train, train_ds.g, max_iterations=2).P
        postproc.apply_inlp_and_refit(model, P, H_train, train_ds.y, 2)
        np.testing.assert_array_equal(model.flat, before)


# 3 classes x 2 groups, group g = c mod 2 over-represented in class c
THREE_CLASS_SPEC = {
    "n_per_cell": {f"{c},{g}": 60 if g == c % 2 else 25 for c in range(3) for g in range(2)},
    "d": 6, "class_separation": 2.0, "group_shift": 3.0, "seed": 0}


@pytest.mark.parametrize("flags,row", [
    # the INLP row (probe accuracies, then dev/test performance and fairness)
    # at seed 0 after 2 epochs, as the ridge bound-iteration solver writes it
    (["--method", "Standard", "--INLP"],
     ([0.98125, 0.7775, 0.6775, 0.615, 0.545, 0.55, 0.55125, 0.495, 0.525, 0.5],
      0.58125, 0.7991545646799787, 0.60375, 0.8090229798582504)),
    (["--synthetic_spec", "SPEC", "--method", "Adv", "--INLP", "--inlp_iterations", "3"],
     ([1.0, 0.8431372549019608, 0.8274509803921568],
      0.6901960784313725, 0.8284493380087689, 0.6235294117647059, 0.8361346532916375)),
])
def test_inlp_row_pinned(tmp_path, flags, row):
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(THREE_CLASS_SPEC))
    results = tmp_path / "results"
    argv = [str(spec) if f == "SPEC" else f for f in flags]
    assert cli.main([*argv, "--epochs", "2", "--seed", "0", "--results_dir", str(results)]) == 0
    (run_dir,) = results.iterdir()
    last = json.loads((run_dir / "epochs.jsonl").read_text().splitlines()[-1])
    assert last["post"] == "INLP"
    keys = ("probe_accuracies", "dev_performance", "dev_fairness",
            "test_performance", "test_fairness")
    assert tuple(last[k] for k in keys) == row


def test_inlp_row_reports_each_fit(tmp_path):
    """The INLP row holds the steps and final gradient norm of each probe
    and of the refit. With the solver capped at 2 steps, every fit stops
    there unconverged, and the row shows it."""
    for cap in (postproc.PROBE_MAX_STEPS, 2):
        results = tmp_path / str(cap)
        with mock.patch.object(postproc, "PROBE_MAX_STEPS", cap):
            assert cli.main(["--INLP", "--inlp_iterations", "3", "--epochs", "1",
                             "--results_dir", str(results)]) == 0
        (run_dir,) = results.iterdir()
        row = json.loads((run_dir / "epochs.jsonl").read_text().splitlines()[-1])
        assert len(row["probe_steps"]) == len(row["probe_grad_norms"]) == row["iterations"] == 3
        steps = [*row["probe_steps"], row["refit_steps"]]
        norms = [*row["probe_grad_norms"], row["refit_grad_norm"]]
        if cap == 2:
            assert steps == [2] * 4
            assert min(norms) > postproc.PROBE_TOL
        else:
            assert all(1 < s < cap for s in steps)
            assert max(norms) < postproc.PROBE_TOL


def trained_gate(seed=0, num_groups=2):
    spec = data.SyntheticSpec(
        n_per_cell={(c, gr): 80 if gr == c % num_groups else 40
                    for c in range(2) for gr in range(num_groups)},
        d=6, class_separation=1.5, group_shift=2.5, noise_sigma=1.0, seed=seed)
    train_ds, dev_ds, test_ds = data.generate_synthetic(spec)
    cfg = training.MethodConfig(method="Gate", epochs=5, batch_size=64,
                                lr=0.01, hidden_dims=(8,), seed=seed)
    return training.train(train_ds, dev_ds, test_ds, cfg).model, dev_ds


def simplex_grid(num_groups, resolution):
    """All points with coordinates k/(resolution-1) summing to 1, in
    lexicographic order of k: the loop reference of the Gate-soft walk."""
    total = resolution - 1

    def rec(remaining, parts):
        if parts == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in rec(remaining - k, parts - 1):
                yield (k, *rest)

    for combo in rec(total, num_groups):
        yield tuple(k / total for k in combo)


def loop_search(model, dev_ds, resolution):
    """gate_soft_search as one gate_logits, report and DTO per prior; the
    first prior with the least (DTO, distance to uniform) wins."""
    heads = training.head_blocks(model, nn.forward(model, dev_ds.X).logits)
    uniform = np.full(model.spec.group_heads, 1.0 / model.spec.group_heads)
    best = None
    for point in simplex_grid(model.spec.group_heads, resolution):
        p = np.array(point)
        preds = training.gate_logits(heads, p).argmax(axis=1)
        r = evaluate_predictions(preds, dev_ds.y, dev_ds.g, dev_ds.num_classes,
                                 dev_ds.num_groups)
        key = (dto((r.performance, r.fairness)), float(np.linalg.norm(p - uniform)))
        if best is None or key < best[0]:
            best = (key, point)
    return best[1], best[0][0]


def soft_logits(model, X, prior):
    """Inference logits with the group heads mixed by prior, from a fresh forward."""
    heads = np.split(nn.forward(model, X).logits, 1 + len(prior), axis=1)
    return training.gate_logits(heads, prior)


class TestGateSoft:
    def test_vertex_prior_matches_single_head(self):
        # hard gating to group 0, from the output layer's rows: shared 0-1, head 2-3
        model, dev_ds = trained_gate()
        logits = soft_logits(model, dev_ds.X, np.array([1.0, 0.0]))
        H = nn.forward(model, dev_ds.X).hidden
        W, b = model.weights[-1], model.biases[-1]
        forced = (H @ W[:2].T + b[:2]) + (H @ W[2:4].T + b[2:4])
        np.testing.assert_allclose(logits, forced, atol=1e-12)

    def test_uniform_prior_averages_heads(self):
        model, dev_ds = trained_gate()
        X = dev_ds.X
        uniform = soft_logits(model, X, np.array([0.5, 0.5]))
        head0 = soft_logits(model, X, np.array([1.0, 0.0]))
        head1 = soft_logits(model, X, np.array([0.0, 1.0]))
        np.testing.assert_allclose(uniform, (head0 + head1) / 2, atol=1e-10)

    def test_search_matches_exhaustive_oracle(self):
        # the oracle runs the encoder again for every prior; the search must
        # pick the same prior with the same DTO, bit for bit
        for num_groups in (2, 3, 4):
            model, dev_ds = trained_gate(num_groups=num_groups)
            prior, best = postproc.gate_soft_search(model, dev_ds, grid_resolution=11)
            uniform = np.full(num_groups, 1.0 / num_groups)
            oracle = None
            for point in simplex_grid(num_groups, 11):
                p = np.array(point)
                preds = soft_logits(model, dev_ds.X, p).argmax(axis=1)
                r = evaluate_predictions(preds, dev_ds.y, dev_ds.g,
                                         dev_ds.num_classes, dev_ds.num_groups)
                key = (dto((r.performance, r.fairness)), float(np.linalg.norm(p - uniform)))
                if oracle is None or key < oracle[0]:
                    oracle = (key, point)
            assert prior == oracle[1], num_groups
            assert best == oracle[0][0], num_groups

    @pytest.mark.parametrize("num_groups", [2, 3, 4, 5])
    def test_walk_equals_per_prior_loop(self, num_groups):
        # random heads on a few rows: few distinct confusion tables, so many
        # priors tie on DTO exactly and the tie order is checked too
        rng = np.random.default_rng(num_groups)
        for n_rows in (8, 60):
            spec = nn.MlpSpec(5, (4,), 3, seed=num_groups, group_heads=num_groups)
            model = nn.init_network(spec)
            model.biases[-1][...] = rng.normal(size=model.biases[-1].shape)
            g = np.arange(n_rows) % num_groups
            dev_ds = data.Dataset(rng.normal(size=(n_rows, 5)), rng.integers(0, 3, n_rows), g,
                                  num_classes=3, num_groups=num_groups)
            for resolution in range(2, 12):
                got = postproc.gate_soft_search(model, dev_ds, grid_resolution=resolution)
                assert got == loop_search(model, dev_ds, resolution), (n_rows, resolution)

    def test_walk_mixes_equal_gate_logits(self):
        rng = np.random.default_rng(0)
        heads = [rng.normal(size=(7, 3)) for _ in range(5)]
        walk = list(postproc._grid_mixes(heads, 6))
        assert [prior for prior, _ in walk] == list(simplex_grid(4, 6))
        for prior, mixed in walk:
            assert np.array_equal(mixed, training.gate_logits(heads, np.array(prior)))

    def test_search_memory_is_bounded(self):
        # 286 priors over 5040 rows, C = 8, G = 4: the priors are scored one
        # at a time into the count table, never all predictions at once
        rng = np.random.default_rng(0)
        n, C, G = 5040, 8, 4
        model = nn.init_network(nn.MlpSpec(6, (8,), C, seed=0, group_heads=G))
        dev_ds = data.Dataset(rng.normal(size=(n, 6)), rng.integers(0, C, n),
                              rng.integers(0, G, n), num_classes=C, num_groups=G)
        tracemalloc.start()
        try:
            postproc.gate_soft_search(model, dev_ds, grid_resolution=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_tie_breaks_toward_uniform(self):
        # zero heads -> all priors tie
        model, dev_ds = trained_gate()
        model.weights[-1][2:] = 0.0
        model.biases[-1][2:] = 0.0
        prior, _ = postproc.gate_soft_search(model, dev_ds, grid_resolution=11)
        assert prior == (0.5, 0.5)

    def test_grid_covers_simplex(self):
        pts = list(simplex_grid(3, 5))
        assert len(pts) == 15  # C(4+2, 2)
        for p in pts:
            assert sum(p) == pytest.approx(1.0)
            assert all(x >= 0 for x in p)
        heads = [np.zeros((1, 2))] * 4
        assert [prior for prior, _ in postproc._grid_mixes(heads, 5)] == pts

    def test_requires_gate_model(self):
        net = nn.init_network(nn.MlpSpec(4, (4,), 2, "relu", 0))
        with pytest.raises(MethodInapplicableError):
            postproc.gate_soft_search(net, None)
