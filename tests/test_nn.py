import gc
import math
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairkit import nn
from fairkit.errors import (
    ContrastiveDegenerateError,
    DegenerateWeightsError,
    ShapeError,
    TrainingDivergedError,
)


# numpy buffers a bias broadcast over rows in at most getbufsize() elements
# (64 kB), and a call makes a few hundred bytes of Python objects
SLACK = np.getbufsize() * 8 + 8192


def small_net(dims, activation="relu", seed=0):
    spec = nn.MlpSpec(input_dim=dims[0], hidden_dims=tuple(dims[1:-1]),
                      output_dim=dims[-1], activation=activation, seed=seed)
    return nn.init_network(spec)


def zero_grads(model):
    """A zero gradient for model, as a network of its spec: the gradient is
    its flat, and its weights and biases are the gradient's views."""
    return nn.Network(model.spec)


def finite_diff_grad(f, theta, step=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy(); up[i] += step
        dn = theta.copy(); dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2 * step)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestForward:
    def test_identity_one_layer(self):
        net = small_net([2, 2])
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = 0.0
        out = nn.forward(net, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.logits, [[1.0, 2.0]])

    def test_zero_weights(self):
        net = small_net([3, 4, 2])
        for w in net.weights:
            w[...] = 0.0
        out = nn.forward(net, np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(out.logits, np.zeros((5, 2)))

    def test_matches_straight_line_oracle(self):
        # independent straight-line matrix arithmetic on a 2-3-2 ReLU net
        net = small_net([2, 3, 2], seed=7)
        X = np.ones((4, 2))
        z1 = X @ net.weights[0].T + net.biases[0]
        a1 = np.where(z1 > 0, z1, 0.0)
        z2 = a1 @ net.weights[1].T + net.biases[1]
        out = nn.forward(net, X)
        np.testing.assert_allclose(out.logits, z2, rtol=0, atol=0)
        np.testing.assert_allclose(out.hidden, a1)

    def test_dimension_mismatch_names_layer(self):
        net = small_net([2, 3, 2])
        with pytest.raises(ShapeError, match="layer 0"):
            nn.forward(net, np.ones((1, 5)))


class TestBackward:
    def test_zero_upstream_gradient(self):
        net = small_net([3, 4, 2], seed=1)
        trace = nn.forward(net, np.random.default_rng(1).normal(size=(6, 3)))
        grads = nn.backward(net, trace, np.zeros_like(trace.logits))
        for g in grads.d_weights + grads.d_biases:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_regression_closed_form(self):
        # 1-layer net, squared error on one sample: dL/dW = 2(Wx+b-t)x^T
        net = small_net([3, 1])
        rng = np.random.default_rng(2)
        net.weights[0][...] = rng.normal(size=(1, 3))
        net.biases[0][...] = rng.normal(size=1)
        x = rng.normal(size=(1, 3))
        t = 0.7
        trace = nn.forward(net, x)
        resid = trace.logits - t
        grads = nn.backward(net, trace, 2.0 * resid)
        np.testing.assert_allclose(grads.d_weights[0], 2.0 * resid * x, rtol=1e-12)
        np.testing.assert_allclose(grads.d_biases[0], 2.0 * resid.ravel(), rtol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, activation, seed):
        rng = np.random.default_rng(seed)
        net = small_net([3, 5, 4, 2], activation=activation, seed=seed)
        X = rng.normal(size=(7, 3))
        y = rng.integers(0, 2, size=7)

        def loss_of(theta):
            net.flat[...] = theta
            logits = nn.forward(net, X).logits
            return nn.cross_entropy(logits, y)[0]

        theta0 = net.flat.copy()
        trace = nn.forward(net, X)
        _, d_logits, _ = nn.cross_entropy(trace.logits, y)
        analytic = nn.backward(net, trace, d_logits).flat
        numeric = finite_diff_grad(loss_of, theta0)
        net.flat[...] = theta0
        assert rel_err(analytic, numeric) < 1e-4


    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("dims", [[3, 2], [3, 5, 2], [3, 5, 4, 2]])
    def test_input_gradient_skipped(self, activation, dims):
        rng = np.random.default_rng(len(dims))
        net = small_net(dims, activation=activation, seed=3)
        X = rng.normal(size=(6, 3))
        trace = nn.forward(net, X)
        d_logits = rng.normal(size=trace.logits.shape)
        grad = rng.normal(size=(6, dims[-2]))

        def extra():  # backward consumes the entry it was given
            return {len(dims) - 3: grad} if len(dims) > 2 else None

        full = nn.backward(net, trace, d_logits, extra_post_grads=extra())
        skipped = nn.backward(net, trace, d_logits, extra_post_grads=extra(), input_grad=False)
        assert np.array_equal(skipped.flat, full.flat)
        assert full.d_X.shape == (6, 3)
        assert skipped.d_X.shape == (6, 0)


@st.composite
def networks_and_inputs(draw):
    depth = draw(st.integers(0, 3))
    spec = nn.MlpSpec(input_dim=draw(st.integers(1, 6)),
                      hidden_dims=tuple(draw(st.integers(1, 8)) for _ in range(depth)),
                      output_dim=draw(st.integers(1, 4)),
                      activation=draw(st.sampled_from(nn.ACTIVATIONS)),
                      seed=draw(st.integers(0, 2**16)), group_heads=draw(st.integers(0, 3)))
    net = nn.init_network(spec)
    rng = np.random.default_rng(spec.seed)
    for b in net.biases:
        b[...] = rng.normal(size=b.shape)
    X = rng.normal(size=(draw(st.integers(1, 300)), spec.input_dim)) * 3.0
    return net, X


class TestInfer:
    @settings(max_examples=60, deadline=None)
    @given(networks_and_inputs())
    def test_equals_forward(self, case):
        net, X = case
        hidden, logits = nn.infer(net, X)
        trace = nn.forward(net, X)
        assert np.array_equal(hidden, trace.hidden)
        assert np.array_equal(logits, trace.logits)

    def test_dimension_mismatch_names_layer(self):
        with pytest.raises(ShapeError, match="layer 0"):
            nn.infer(small_net([2, 3, 2]), np.ones((1, 5)))

    def test_holds_two_hidden_arrays(self):
        # the paper's encoder: forward keeps four [n, 300] arrays; infer the
        # full hidden output, the logits and at most two block buffers
        n = 2000
        net = small_net([768, 300, 300, 2])
        X = np.random.default_rng(0).normal(size=(n, 768))
        tracemalloc.start()
        try:
            nn.infer(net, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 300 * 8 + n * 2 * 8 + 2 * nn.SCORE_BLOCK_BYTES + SLACK, peak


@st.composite
def networks_and_input_lists(draw):
    """A network, 1-3 inputs of different row counts, and a PARALLEL_MIN_WORK
    on one side or the other of the smallest input's rows x n_params."""
    net, _ = draw(networks_and_inputs())
    rng = np.random.default_rng(net.spec.seed + 1)
    rows = draw(st.lists(st.integers(1, 300), min_size=1, max_size=3, unique=True))
    Xs = [rng.normal(size=(n, net.spec.input_dim)) * 3.0 for n in rows]
    work = min(rows) * net.spec.n_params
    return net, Xs, draw(st.sampled_from([work, work + 1]))


class TestInferMany:
    @settings(max_examples=80, deadline=None)
    @given(networks_and_input_lists())
    def test_equals_infer_per_input(self, case):
        net, Xs, threshold = case
        ran_on = []

        def spy(*args):
            ran_on.append(threading.current_thread())
            return score_blocks(*args)

        score_blocks = nn._score_blocks
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", threshold), \
                mock.patch.object(nn, "_score_blocks", spy):
            got = nn.infer_many(net, Xs)
        assert len(got) == len(Xs)
        for logits, X in zip(got, Xs):
            assert np.array_equal(logits, nn.infer(net, X)[1])
        parallel = len(Xs) > 1 and min(len(X) for X in Xs) * net.spec.n_params >= threshold
        assert sum(t is not threading.main_thread() for t in ran_on) == (
            1 if parallel and nn._cpus() > 1 else 0)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_wrong_width_raises_infers_error_and_next_call_works(self, bad):
        net = small_net([5, 7, 3])
        Xs = [np.ones((40 + i, 5)) for i in range(3)]
        Xs[bad] = np.ones((40, 4))
        with pytest.raises(ShapeError) as serial:
            nn.infer(net, Xs[bad])
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0):
            with pytest.raises(ShapeError) as many:
                nn.infer_many(net, Xs)
            assert str(many.value) == str(serial.value)
            Xs[bad] = np.ones((40, 5))
            for logits, X in zip(nn.infer_many(net, Xs), Xs):
                assert np.array_equal(logits, nn.infer(net, X)[1])

    def test_idle_worker_holds_no_input_or_output(self):
        net = small_net([5, 7, 7, 3])
        Xs = [np.ones((40, 5)), np.ones((41, 5)), np.ones((42, 5))]
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0):
            results = nn.infer_many(net, Xs)
        arrays = [weakref.ref(a) for a in Xs + results]
        del Xs, results
        gc.collect()
        assert [ref() for ref in arrays if ref() is not None] == []

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_is_left_alive(self, fails):
        """No fairkit-infer thread is alive once infer_many or
        LogitsOnWorker.wait returns or raises, even when the job is slow."""
        net = small_net([5, 7, 3])
        Xs = [np.ones((40, 5)), np.ones((41, 5))]
        score_blocks = nn._score_blocks

        def slow(*args):
            if threading.current_thread() is threading.main_thread():
                return score_blocks(*args)
            time.sleep(0.05)
            if fails:
                raise ShapeError("job failed")
            return score_blocks(*args)

        def alive():
            return [t for t in threading.enumerate() if t.name == "fairkit-infer"]

        on_worker = nn.LogitsOnWorker(net, Xs)
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0), \
                mock.patch.object(nn, "_cpus", return_value=2), \
                mock.patch.object(nn, "_score_blocks", slow):
            for call in (lambda: nn.infer_many(net, Xs),
                         lambda: on_worker.start() and on_worker.wait()):
                try:
                    call()
                except ShapeError:
                    assert fails
                assert alive() == []

    def test_concurrent_callers_get_their_own_results(self):
        # more calling threads than cores and a short switch interval: a
        # job's result given to the wrong caller shows here
        net = small_net([5, 7, 7, 3])
        rng = np.random.default_rng(0)
        inputs = [[rng.normal(size=(30 + i, 5)), rng.normal(size=(31 + i, 5))] for i in range(4)]
        wanted = [[nn.infer(net, X)[1] for X in Xs] for Xs in inputs]
        failures, done = [], []

        def call(i):
            for _ in range(50):
                got = nn.infer_many(net, inputs[i])
                if not all(np.array_equal(a, b) for a, b in zip(got, wanted[i])):
                    failures.append(i)
            done.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0):
                threads = [threading.Thread(target=call, args=(i,), daemon=True)
                           for i in range(4)]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 60
                for t in threads:
                    t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == [0, 1, 2, 3] and failures == []

    def test_worker_error_is_raised_after_both_threads_finish(self):
        net = small_net([5, 7, 3])
        Xs = [np.ones((40, 5)), np.ones((41, 5))]
        score_blocks, finished = nn._score_blocks, []

        def failing_on_worker(net, Xs, logits, buffers, hidden=None):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
                finished.append("worker")
                raise ShapeError("worker failed")
            result = score_blocks(net, Xs, logits, buffers, hidden)
            finished.append("caller")
            return result

        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0):
            with mock.patch.object(nn, "_score_blocks", failing_on_worker):
                with pytest.raises(ShapeError, match="worker failed"):
                    nn.infer_many(net, Xs)
            assert sorted(finished) == ["caller", "worker"]
            for logits, X in zip(nn.infer_many(net, Xs), Xs):
                assert np.array_equal(logits, nn.infer(net, X)[1])


class TestLogitsOnWorker:
    @settings(max_examples=60, deadline=None)
    @given(networks_and_input_lists())
    def test_equals_infer_of_the_parameters_at_start(self, case):
        net, Xs, threshold = case
        on_worker = nn.LogitsOnWorker(net, Xs)
        parallel = (len(Xs) > 1 and min(len(X) for X in Xs) * net.spec.n_params >= threshold
                    and nn._cpus() > 1)
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", threshold):
            for _ in range(2):  # the second start reuses every array of the first
                wanted = [nn.infer(net, X)[1] for X in Xs]
                assert on_worker.start() == parallel
                net.flat += 1.0  # the caller goes on changing the network
                if parallel:
                    got = on_worker.wait()
                    assert len(got) == len(Xs)
                    assert all(np.array_equal(a, b) for a, b in zip(got, wanted))
        assert (on_worker._snapshot is not None) == parallel

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_job_makes_no_array(self, activation):
        net = small_net([64, 48, 40, 32, 3], activation=activation)
        rng = np.random.default_rng(0)
        on_worker = nn.LogitsOnWorker(net, [rng.normal(size=(1000, 64)),
                                            rng.normal(size=(800, 64))])
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0), \
                mock.patch.object(nn, "_cpus", return_value=2):
            assert on_worker.start()
            on_worker.wait()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            nn._score_blocks(on_worker._snapshot, on_worker._checked, on_worker._logits,
                             on_worker._buffers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy buffers a bias broadcast over rows in at most getbufsize()
        # elements (64 kB); the smallest array the job writes, [800, 3], is
        # 19.2 kB, and one hidden layer's output 256 kB
        assert peak - before < np.getbufsize() * 8 + 4096, peak - before

    def test_job_error_is_raised_by_wait_and_frees_the_worker(self):
        net = small_net([5, 7, 3])
        Xs = [np.ones((40, 5)), np.ones((41, 5))]
        on_worker = nn.LogitsOnWorker(net, Xs)
        with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0), \
                mock.patch.object(nn, "_cpus", return_value=2):
            with mock.patch.object(nn, "_score_blocks", side_effect=ShapeError("job failed")):
                assert on_worker.start()
                with pytest.raises(ShapeError, match="job failed"):
                    on_worker.wait()
            assert on_worker.start()
            for got, X in zip(on_worker.wait(), Xs):
                assert np.array_equal(got, nn.infer(net, X)[1])


class TestScoreBlocks:
    """Scoring runs each input in blocks of rows; every scoring path equals
    forward on each block's rows, bit for bit, and holds block-sized buffers."""

    @pytest.mark.parametrize("dims, activation, heads", [
        ([6, 7, 3], "relu", 0),
        ([6, 9, 7, 2], "tanh", 0),
        ([6, 5, 9, 4, 2], "relu", 2),
        ([6, 3], "relu", 0),  # no hidden layer: one GEMM over the whole input
    ])
    def test_every_path_equals_forward_block_by_block(self, dims, activation, heads):
        spec = nn.MlpSpec(dims[0], tuple(dims[1:-1]), dims[-1], activation, seed=3,
                          group_heads=heads)
        net = nn.init_network(spec)
        rng = np.random.default_rng(1)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape)
        Xs = [rng.normal(size=(23, 6)) * 3.0, rng.normal(size=(19, 6)) * 3.0]
        block = 5  # 23 rows are four blocks and a remainder of 3
        with mock.patch.object(nn, "SCORE_BLOCK_BYTES", block * 8 * max(dims[1:-1] or [1])):
            step = nn._block_rows(net, 23)
            assert step == (block if len(dims) > 2 else 23)
            hidden, logits = nn.infer(net, Xs[0])
            serial = nn.infer_many(net, Xs)
            with mock.patch.object(nn, "PARALLEL_MIN_WORK", 0), \
                    mock.patch.object(nn, "_cpus", return_value=2):
                parallel = nn.infer_many(net, Xs)
                on_worker = nn.LogitsOnWorker(net, Xs)
                assert on_worker.start()
                worker = on_worker.wait()
        for x, X in enumerate(Xs):
            for i in range(0, len(X), step):
                trace = nn.forward(net, X[i:i + step])
                for got in (serial[x], parallel[x], worker[x]) + ((logits,) if x == 0 else ()):
                    assert np.array_equal(got[i:i + step], trace.logits)
                if x == 0:
                    assert np.array_equal(hidden[i:i + step], trace.hidden)

    @pytest.mark.parametrize("widest, rows", [(300, 436), (64, 2048), (16, 8192), (10**7, 1)])
    def test_block_rows_follow_the_widest_hidden_layer(self, widest, rows):
        net = nn.Network(nn.MlpSpec(4, (3, widest), 2))
        assert nn._block_rows(net, 10**6) == rows
        assert [b.size for b in nn._block_buffers(net, [np.ones((rows + 1, 4))])] == [
            rows * widest] * 2

    def test_small_inputs_get_buffers_of_their_rows(self):
        net = small_net([8, 16, 16, 2])
        assert [b.size for b in nn._block_buffers(net, [np.ones((40, 8)), np.ones((9, 8))])] \
            == [40 * 16] * 2

    def test_infer_many_holds_the_logits_and_two_block_buffers(self):
        # the paper's encoder on a 2000-row input, five blocks of 436 rows
        n = 2000
        net = small_net([768, 300, 300, 2])
        X = np.random.default_rng(0).normal(size=(n, 768))
        tracemalloc.start()
        try:
            nn.infer_many(net, [X])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 2 * 8 + 2 * nn.SCORE_BLOCK_BYTES + SLACK, peak

    def test_logits_on_worker_holds_the_snapshot_buffers_and_logits(self):
        n = 2000
        net = small_net([768, 300, 300, 2])
        rng = np.random.default_rng(0)
        Xs = [rng.normal(size=(n, 768)), rng.normal(size=(n, 768))]
        on_worker = nn.LogitsOnWorker(net, Xs)
        with mock.patch.object(nn, "_cpus", return_value=2):
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                assert on_worker.start()
                on_worker.wait()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        budget = net.spec.n_params * 8 + 2 * nn.SCORE_BLOCK_BYTES + 2 * n * 2 * 8
        assert held - before < budget + 8192, held - before
        assert peak - before < budget + SLACK, peak - before


class TestCrossEntropy:
    def test_uniform_softmax(self):
        loss, _, per = nn.cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert per[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_correct(self):
        loss, _, _ = nn.cross_entropy(np.array([[100.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_weight_exclusion(self):
        logits = np.array([[1.0, -0.5], [0.3, 2.0]])
        y = np.array([0, 1])
        loss_w, _, _ = nn.cross_entropy(logits, y, np.array([2.0, 0.0]))
        loss_first, _, _ = nn.cross_entropy(logits[:1], y[:1])
        assert loss_w == pytest.approx(loss_first, abs=1e-12)

    def test_all_zero_weights(self):
        with pytest.raises(DegenerateWeightsError):
            nn.cross_entropy(np.zeros((2, 2)), np.array([0, 1]), np.zeros(2))

    def test_gradient_is_softmax_minus_onehot_row_scaled(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 3))
        y = rng.integers(0, 3, size=5)
        w = rng.uniform(0.1, 2.0, size=5)
        _, grad, _ = nn.cross_entropy(logits, y, w)
        probs = nn.softmax(logits)
        expect = probs.copy()
        expect[np.arange(5), y] -= 1.0
        expect *= (w / w.sum())[:, None]
        np.testing.assert_allclose(grad, expect, atol=1e-12)

    @given(st.integers(1, 8), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_weighted_mean_of_per_example_equals_loss(self, n, c, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, c))
        y = rng.integers(0, c, size=n)
        w = rng.uniform(0.0, 3.0, size=n)
        w[0] = max(w[0], 0.1)
        loss, _, per = nn.cross_entropy(logits, y, w)
        assert loss == pytest.approx(float(w @ per / w.sum()), abs=1e-10)


class TestNetworkLayout:
    def test_views_in_weights_then_biases_order(self):
        net = small_net([2, 3, 2], seed=1)
        arrays = net.weights + net.biases
        assert [a.shape for a in arrays] == [(3, 2), (2, 3), (3,), (2,)]
        np.testing.assert_array_equal(net.flat, np.concatenate([a.ravel() for a in arrays]))
        assert all(np.shares_memory(a, net.flat) for a in arrays)

    def test_write_to_view_shows_in_flat(self):
        net = small_net([2, 3, 2], seed=1)
        net.weights[1][0, 0] = 7.0  # after W0's 6 entries
        net.biases[1][-1] = 5.0  # the last entry
        assert net.flat[6] == 7.0 and net.flat[-1] == 5.0

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_rejected(self, delta):
        spec = small_net([2, 3, 2]).spec
        with pytest.raises(ShapeError):
            nn.Network(spec, np.zeros(spec.n_params + delta))

    def test_given_flat_is_owned_not_copied(self):
        spec = small_net([2, 3, 2]).spec
        flat = np.arange(spec.n_params, dtype=float)
        net = nn.Network(spec, flat)
        assert net.flat is flat
        flat[0] = -1.0
        assert net.weights[0][0, 0] == -1.0


class TestOptimizer:
    def test_one_sgd_step(self):
        net = small_net([1, 1])
        net.weights[0][...] = [[1.0]]
        state = nn.make_optimizer(net, kind="sgd", lr=0.1)
        grads = zero_grads(net)
        grads.weights[0][...] = [[1.0]]
        nn.optimizer_step(net, grads.flat, state)
        assert net.weights[0][0, 0] == pytest.approx(0.9, abs=1e-15)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_zero_gradient_fixed_point(self, kind):
        net = small_net([2, 3, 2], seed=4)
        before = net.flat.copy()
        state = nn.make_optimizer(net, kind=kind, lr=0.1)
        nn.optimizer_step(net, zero_grads(net).flat, state)
        np.testing.assert_array_equal(net.flat, before)

    def test_adam_first_step_magnitude_is_lr(self):
        # closed form: m_hat = g, v_hat = g^2, so |update| = lr*|g|/(|g|+eps)
        for g_val in (0.5, 3.0, -7.0):
            net = small_net([1, 1])
            w0 = net.weights[0][0, 0]
            state = nn.make_optimizer(net, kind="adam", lr=1e-3)
            grads = zero_grads(net)
            grads.weights[0][...] = [[g_val]]
            nn.optimizer_step(net, grads.flat, state)
            update = abs(net.weights[0][0, 0] - w0)
            assert update == pytest.approx(1e-3, abs=1e-6)

    # the flat indices of a 2-3-2 net at its block boundaries: W0 holds 0-5,
    # W1 6-11, b0 12-14 and b1 15-16
    @pytest.mark.parametrize("index,name", [(12, "layer 0 bias"), (16, "layer 1 bias"),
                                            (5, "layer 0 weight"), (6, "layer 1 weight")],
                             ids=["b0-first", "b1-last", "W0-last", "W1-first"])
    def test_non_finite_gradient_names_parameter(self, index, name):
        net = small_net([2, 3, 2])
        before = net.flat.copy()
        state = nn.make_optimizer(net, kind="sgd", lr=0.1)
        grads = zero_grads(net).flat
        grads[index] = np.nan
        with pytest.raises(TrainingDivergedError, match=f"for {name}$"):
            nn.optimizer_step(net, grads, state)
        np.testing.assert_array_equal(net.flat, before)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_adam_refuses_a_gradient_whose_square_overflows(self, sign):
        """|g| = 1e200 would make v infinite and freeze the parameter; it
        raises before model.flat or the state changes. 1e150 steps."""
        net = small_net([2, 3, 2])
        before = net.flat.copy()
        state = nn.make_optimizer(net, kind="adam", lr=1e-3)
        grads = zero_grads(net).flat
        grads[6] = sign * 1e200
        with pytest.raises(TrainingDivergedError, match="for layer 1 weight$"):
            nn.optimizer_step(net, grads, state)
        np.testing.assert_array_equal(net.flat, before)
        assert state.t == 0 and not state.flat_v.any()
        grads[6] = sign * 1e150
        nn.optimizer_step(net, grads, state)
        assert net.flat[6] - before[6] == pytest.approx(-sign * 1e-3)
        assert np.isfinite(state.flat_v).all()

    @pytest.mark.parametrize("kind,lr,g", [("sgd", 1e300, 1e10), ("sgd", 1e300, 0.5),
                                           ("adam", 1e308, 0.5), ("adam", 1e300, -3.0)],
                             ids=["sgd-inf", "sgd-huge", "adam-huge", "adam-huge-negative"])
    def test_a_step_that_overflows_is_refused(self, kind, lr, g):
        """A step that would leave a parameter infinite (1e300 * 1e10), or
        the parameters finite but of norm at or above sqrt(float max), where
        the next forward pass overflows, raises naming the parameter;
        model.flat is unchanged and no warning escapes. A step that lands
        below the bound is taken."""
        net = small_net([2, 3, 2])
        before = net.flat.copy()
        state = nn.make_optimizer(net, kind=kind, lr=lr)
        grads = zero_grads(net).flat
        grads[13] = g
        with pytest.raises(TrainingDivergedError, match="step at lr .* overflowed: .* "
                                                        "for layer 0 bias$"):
            nn.optimizer_step(net, grads, state)
        np.testing.assert_array_equal(net.flat, before)
        state = nn.make_optimizer(net, kind=kind, lr=1e150 / abs(g) if kind == "sgd" else 1e150)
        nn.optimizer_step(net, grads, state)
        assert net.flat[13] == pytest.approx(-np.sign(g) * 1e150)
        np.testing.assert_array_equal(np.delete(net.flat, 13), np.delete(before, 13))

    def test_deterministic_given_state_and_grads(self):
        results = []
        for _ in range(2):
            net = small_net([2, 3, 2], seed=5)
            state = nn.make_optimizer(net, kind="adam", lr=1e-2)
            rng = np.random.default_rng(6)
            for _ in range(5):
                grads = zero_grads(net)
                for g in grads.weights + grads.biases:
                    g[...] = rng.normal(size=g.shape)
                nn.optimizer_step(net, grads.flat, state)
            results.append(net.flat)
        np.testing.assert_array_equal(results[0], results[1])


def scl_brute_force(reprs, labels, temperature, positive_mask=None):
    """Independent double-loop oracle for the supervised contrastive loss."""
    R = np.asarray(reprs, dtype=float)
    n = R.shape[0]
    Z = R / np.linalg.norm(R, axis=1, keepdims=True)
    if positive_mask is None:
        positive_mask = np.equal.outer(labels, labels)
    total, n_valid = 0.0, 0
    for i in range(n):
        positives = [j for j in range(n) if j != i and positive_mask[i][j]]
        if not positives:
            continue
        n_valid += 1
        denom = sum(math.exp(Z[i] @ Z[a] / temperature) for a in range(n) if a != i)
        s = 0.0
        for p in positives:
            s += math.log(math.exp(Z[i] @ Z[p] / temperature) / denom)
        total += -s / len(positives)
    return total / n_valid


def scl(reprs, labels, temperature):
    """The contrastive loss with one term of weight 1, same-label positives."""
    return nn.supervised_contrastive_loss(reprs, [(1.0, np.equal.outer(labels, labels))],
                                          temperature)


class TestSupervisedContrastive:
    def test_two_identical_same_label(self):
        R = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _ = scl(R, np.array([1, 1]), 0.07)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_no_positives_raises(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ContrastiveDegenerateError):
            scl(R, np.array([0, 1]), 0.07)

    def test_single_point_raises(self):
        with pytest.raises(ContrastiveDegenerateError):
            scl(np.ones((1, 3)), np.array([0]), 0.07)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(8)
        R = rng.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        loss, _ = scl(R, labels, 0.1)
        assert loss == pytest.approx(scl_brute_force(R, labels, 0.1), abs=1e-8)

    def test_anchor_without_positive_contributes_zero(self):
        rng = np.random.default_rng(9)
        R = rng.normal(size=(5, 3))
        labels = np.array([0, 0, 1, 1, 2])  # label 2 anchor has no positive
        loss, _ = scl(R, labels, 0.1)
        assert loss == pytest.approx(scl_brute_force(R, labels, 0.1), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        R = rng.normal(size=(5, 4))
        labels = rng.integers(0, 2, size=5)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        _, grad = scl(R, labels, 0.2)

        def loss_of(flat):
            return scl(flat.reshape(R.shape), labels, 0.2)[0]

        numeric = finite_diff_grad(loss_of, R.ravel())
        assert rel_err(grad.ravel(), numeric) < 1e-5


class TestDeterminism:
    def test_same_spec_seed_identical_params(self):
        a = small_net([4, 8, 3], seed=42)
        b = small_net([4, 8, 3], seed=42)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_different_seed_differs(self):
        a = small_net([4, 8, 3], seed=42)
        b = small_net([4, 8, 3], seed=43)
        assert not np.array_equal(a.flat, b.flat)

    def test_init_bound_is_glorot(self):
        net = small_net([100, 50], seed=0)
        bound = math.sqrt(6.0 / 150)
        assert np.abs(net.weights[0]).max() <= bound
        np.testing.assert_array_equal(net.biases[0], np.zeros(50))
