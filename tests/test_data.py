import json

import numpy as np
import pytest

from fairkit import data
from fairkit.errors import (
    EmptyCellError,
    LabelDomainError,
    ParseError,
    SchemaError,
    SpecError,
)
from fairkit.postproc import fit_linear_probe, majority_baseline


def make_counts_dataset(counts, d=3, seed=0):
    """Dataset with exact (y, g) cell counts and random features."""
    rng = np.random.default_rng(seed)
    ys, gs = [], []
    for (c, g), n in sorted(counts.items()):
        ys += [c] * n
        gs += [g] * n
    n_total = len(ys)
    return data.dataset_from_arrays(rng.normal(size=(n_total, d)), ys, gs)


class TestLoadDataset:
    def test_csv_direct_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,y,protected_label\n0.1,0.2,0,0\n0.3,0.4,1,1\n0.5,0.6,0,1\n")
        ds = data.load_dataset(p, "csv")
        assert ds.n == 3 and ds.dim == 2
        assert ds.num_classes == 2 and ds.num_groups == 2
        np.testing.assert_allclose(ds.X[0], [0.1, 0.2])

    def test_csv_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,y\n0.1,0\n")
        with pytest.raises(SchemaError, match="protected_label"):
            data.load_dataset(p, "csv")

    def test_csv_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,y,protected_label\n0.1,0,0\n0.2,1\n")
        with pytest.raises(ParseError, match=":3"):
            data.load_dataset(p, "csv")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            data.load_dataset(p, "csv")

    def test_unknown_label_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,y,protected_label\n0.1,-1,0\n")
        with pytest.raises((LabelDomainError, ParseError)):
            data.load_dataset(p, "csv")

    def test_jsonl_single_row(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"X": [0.5], "y": 0, "protected_label": 1}) + "\n")
        ds = data.load_dataset(p, "jsonl")
        assert ds.n == 1 and ds.num_groups == 2

    def test_jsonl_ragged_arity(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"X": [1, 2], "y": 0, "protected_label": 0}\n'
                     '{"X": [1], "y": 0, "protected_label": 1}\n')
        with pytest.raises(ParseError, match=":2"):
            data.load_dataset(p, "jsonl")

    def test_jsonl_roundtrip(self, tmp_path):
        ds = make_counts_dataset({(0, 0): 3, (1, 1): 2})
        p = tmp_path / "out.jsonl"
        data.save_jsonl(ds, p)
        back = data.load_dataset(p, "jsonl")
        np.testing.assert_allclose(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.g, ds.g)


BAL = {(0, 0): 200, (0, 1): 200, (1, 0): 200, (1, 1): 200}


class TestSyntheticGenerator:
    def test_counts_match_map_exactly(self):
        spec = data.SyntheticSpec(n_per_cell={(0, 0): 5, (0, 1): 3, (1, 0): 2, (1, 1): 7},
                                  d=4, seed=3)
        for ds in data.generate_synthetic(spec):
            assert ds.cell_counts() == spec.n_per_cell

    def test_no_group_shift_probe_near_baseline(self):
        spec = data.SyntheticSpec(n_per_cell=BAL, d=6, class_separation=1.0,
                                  group_shift=0.0, noise_sigma=1.0, seed=0)
        train, _, _ = data.generate_synthetic(spec)
        _, acc = fit_linear_probe(train.X, train.g)
        assert acc <= majority_baseline(train.g) + 0.05

    def test_strong_group_shift_probe_high(self):
        spec = data.SyntheticSpec(n_per_cell=BAL, d=6, class_separation=1.0,
                                  group_shift=3.0, noise_sigma=1.0, seed=0)
        train, _, _ = data.generate_synthetic(spec)
        _, acc = fit_linear_probe(train.X, train.g)
        assert acc >= 0.90

    def test_deterministic_and_splits_differ(self):
        spec = data.SyntheticSpec(n_per_cell=BAL, d=4, seed=9)
        a = data.generate_synthetic(spec)
        b = data.generate_synthetic(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)
        assert not np.array_equal(a[0].X, a[1].X)

    def test_degenerate_specs_rejected(self):
        with pytest.raises(SpecError):
            data.SyntheticSpec(n_per_cell={(0, 0): 5, (0, 1): 5})  # one class
        with pytest.raises(SpecError):
            data.SyntheticSpec(n_per_cell={(0, 0): 5, (1, 0): 5})  # one group
        with pytest.raises(SpecError):
            data.SyntheticSpec(n_per_cell={(0, 0): 5, (0, 1): 5, (1, 0): 0, (1, 1): 0})


SPEC_COUNTS = {(0, 0): 4, (0, 1): 2, (1, 0): 1, (1, 1): 3}


class TestBalance:
    def test_joint_downsampling_minimum_cell(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        out = data.balance(ds, "joint", "Downsampling", seed=0)
        assert out.n == 4
        assert all(v == 1 for v in out.cell_counts().values())
        np.testing.assert_array_equal(out.weights, np.ones(4))

    def test_eo_reweighting_hand_table(self):
        # class 0 target 3 = (4+2)/2: w = 3/4 and 3/2; class 1 target 2: w = 2 and 2/3.
        # The raw weights already have mean 1, so normalization is the identity.
        ds = make_counts_dataset(SPEC_COUNTS)
        out = data.balance(ds, "eo", "Reweighting", seed=0)
        expected = {(0, 0): 0.75, (0, 1): 1.5, (1, 0): 2.0, (1, 1): 2.0 / 3.0}
        for (c, g), w in expected.items():
            mask = (out.y == c) & (out.g == g)
            np.testing.assert_allclose(out.weights[mask], w, atol=1e-12)
        # weighted group totals equal within each class
        for c in (0, 1):
            totals = [out.weights[(out.y == c) & (out.g == g)].sum() for g in (0, 1)]
            assert totals[0] == pytest.approx(totals[1], abs=1e-9)

    @pytest.mark.parametrize("objective", ["g", "joint", "eo"])
    @pytest.mark.parametrize("mode", ["Downsampling", "Resampling", "Reweighting"])
    def test_already_balanced_fixed_point(self, objective, mode):
        ds = make_counts_dataset({(0, 0): 5, (0, 1): 5, (1, 0): 5, (1, 1): 5})
        out = data.balance(ds, objective, mode, seed=1)
        assert out.cell_counts() == ds.cell_counts()
        np.testing.assert_allclose(out.weights, np.ones(out.n), atol=1e-12)

    def test_cb_downsamples_majority_within_class(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        out = data.balance(ds, "y", "Downsampling", seed=0)
        assert out.cell_counts() == {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1}

    def test_cb_requires_downsampling(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        with pytest.raises(ValueError):
            data.balance(ds, "y", "Resampling", seed=0)

    def test_bd_group_marginals(self):
        ds = make_counts_dataset(SPEC_COUNTS)  # group marginals 5 and 5, already equal
        out = data.balance(ds, "g", "Downsampling", seed=0)
        assert out.n == 10
        skewed = make_counts_dataset({(0, 0): 6, (0, 1): 1, (1, 0): 2, (1, 1): 3})
        out = data.balance(skewed, "g", "Downsampling", seed=0)
        counts = out.cell_counts()
        for g in (0, 1):
            assert sum(counts.get((c, g), 0) for c in (0, 1)) == 4

    def test_empty_cell_named(self):
        ds = make_counts_dataset({(0, 0): 4, (0, 1): 2, (1, 1): 3})
        with pytest.raises(EmptyCellError, match=r"y=1, g=0"):
            data.balance(ds, "joint", "Downsampling", seed=0)

    def test_train_split_only(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        dev = data.dataset_from_arrays(ds.X, ds.y, ds.g, split="dev")
        with pytest.raises(ValueError):
            data.balance(dev, "joint", "Downsampling", seed=0)

    @pytest.mark.parametrize("objective", ["g", "joint", "eo"])
    @pytest.mark.parametrize("mode", ["Downsampling", "Resampling", "Reweighting"])
    def test_random_tables_invariants(self, objective, mode):
        rng = np.random.default_rng(1234)
        for trial in range(25):
            nc, ng = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            counts = {(c, g): int(rng.integers(1, 12))
                      for c in range(nc) for g in range(ng)}
            ds = make_counts_dataset(counts, seed=trial)
            out = data.balance(ds, objective, mode, seed=trial)
            before = ds.cell_counts()
            after = out.cell_counts()
            if mode == "Downsampling":
                assert all(after.get(k, 0) <= v for k, v in before.items())
                _assert_equality(objective, after)
                again = data.balance(out, objective, mode, seed=trial + 1)
                assert again.cell_counts() == after  # idempotent
            elif mode == "Resampling":
                assert all(after[k] >= v for k, v in before.items())
                _assert_equality(objective, after)
            else:
                assert out.n == ds.n
                np.testing.assert_array_equal(out.X, ds.X)
                _assert_weight_equality(objective, out)
                again = data.balance(out, objective, mode, seed=trial + 1)
                np.testing.assert_allclose(again.weights, out.weights, atol=1e-12)


# A fixed table with unequal group marginals (7, 6, 4); row i has X = [i]
PINNED_COUNTS = {(0, 0): 5, (0, 1): 2, (0, 2): 3, (1, 0): 2, (1, 1): 4, (1, 2): 1}
# For each valid (objective, mode) at seed 7: the kept rows, in order, or the weights
PINNED_DRAWS = {
    ("g", "Downsampling"): [0, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16],
    ("g", "Resampling"): [
        0, 1, 2, 3, 4, 5, 6, 7, 7, 8, 9, 10, 11, 12, 13, 14, 15, 15, 16, 16, 16],
    ("g", "Reweighting"): [
        0.8095238095238095, 0.8095238095238095, 0.8095238095238095, 0.8095238095238095,
        0.8095238095238095, 0.9444444444444445, 0.9444444444444445, 1.4166666666666667,
        1.4166666666666667, 1.4166666666666667, 0.8095238095238095, 0.8095238095238095,
        0.9444444444444445, 0.9444444444444445, 0.9444444444444445, 0.9444444444444445,
        1.4166666666666667],
    ("joint", "Downsampling"): [4, 6, 9, 10, 13, 16],
    ("joint", "Resampling"): [
        0, 1, 2, 3, 4, 5, 6, 6, 6, 6, 7, 7, 7, 8, 9, 10, 10, 10, 10, 11, 12, 13, 14, 14, 15,
        16, 16, 16, 16, 16],
    ("joint", "Reweighting"): [
        0.5666666666666667, 0.5666666666666667, 0.5666666666666667, 0.5666666666666667,
        0.5666666666666667, 1.4166666666666667, 1.4166666666666667, 0.9444444444444445,
        0.9444444444444445, 0.9444444444444445, 1.4166666666666667, 1.4166666666666667,
        0.7083333333333334, 0.7083333333333334, 0.7083333333333334, 0.7083333333333334,
        2.8333333333333335],
    ("eo", "Downsampling"): [3, 4, 5, 6, 7, 9, 10, 12, 16],
    ("eo", "Resampling"): [
        0, 1, 2, 3, 4, 5, 6, 6, 6, 6, 7, 7, 7, 8, 9, 10, 10, 10, 11, 12, 13, 14, 15, 16, 16,
        16, 16],
    ("eo", "Reweighting"): [
        0.6666666666666667, 0.6666666666666667, 0.6666666666666667, 0.6666666666666667,
        0.6666666666666667, 1.6666666666666667, 1.6666666666666667, 1.1111111111111112,
        1.1111111111111112, 1.1111111111111112, 1.1666666666666667, 1.1666666666666667,
        0.5833333333333334, 0.5833333333333334, 0.5833333333333334, 0.5833333333333334,
        2.3333333333333335],
    ("y", "Downsampling"): [3, 4, 5, 6, 7, 9, 10, 12, 16],
}


@pytest.mark.parametrize("objective,mode", list(PINNED_DRAWS))
def test_balance_seeded_draws_pinned(objective, mode):
    ys, gs = [], []
    for (c, g), n in sorted(PINNED_COUNTS.items()):
        ys += [c] * n
        gs += [g] * n
    ds = data.dataset_from_arrays(np.arange(len(ys), dtype=float)[:, None], ys, gs)
    out = data.balance(ds, objective, mode, seed=7)
    if mode == "Reweighting":
        assert out.weights.tolist() == PINNED_DRAWS[objective, mode]
    else:
        assert out.X[:, 0].astype(int).tolist() == PINNED_DRAWS[objective, mode]
        np.testing.assert_array_equal(out.y, ds.y[out.X[:, 0].astype(int)])
        np.testing.assert_array_equal(out.g, ds.g[out.X[:, 0].astype(int)])


def _assert_equality(objective, counts):
    if objective == "g":
        groups = sorted({g for _, g in counts})
        totals = [sum(v for (c, g), v in counts.items() if g == gr) for gr in groups]
        assert len(set(totals)) == 1
    elif objective == "joint":
        assert len(set(counts.values())) == 1
    else:
        classes = sorted({c for c, _ in counts})
        for c in classes:
            vals = [v for (cc, _), v in counts.items() if cc == c]
            assert len(set(vals)) == 1


def _assert_weight_equality(objective, ds):
    if objective == "g":
        totals = [ds.weights[ds.g == g].sum() for g in range(ds.num_groups)]
        assert max(totals) - min(totals) < 1e-9
    elif objective == "joint":
        totals = [ds.weights[(ds.y == c) & (ds.g == g)].sum()
                  for (c, g) in ds.cell_counts()]
        assert max(totals) - min(totals) < 1e-9
    else:
        for c in range(ds.num_classes):
            totals = [ds.weights[(ds.y == c) & (ds.g == g)].sum()
                      for g in range(ds.num_groups) if np.any((ds.y == c) & (ds.g == g))]
            if totals:
                assert max(totals) - min(totals) < 1e-9


class TestMakeBatches:
    def test_permutation_chunking(self):
        ds = make_counts_dataset({(0, 0): 3, (1, 1): 2})
        batches = data.make_batches(ds, data.BatchPlan(batch_size=2, shuffle_seed=0))
        assert [len(b.y) for b in batches] == [2, 2, 1]
        seen = np.concatenate([b.X[:, 0] for b in batches])
        assert sorted(seen.tolist()) == sorted(ds.X[:, 0].tolist())

    def test_degenerate_distribution(self):
        ds = make_counts_dataset({(0, 0): 3, (0, 1): 3, (1, 0): 3, (1, 1): 3})
        plan = data.BatchPlan(batch_size=4, shuffle_seed=1,
                              group_sampling_probs={(1, 0): 1.0})
        for b in data.make_batches(ds, plan):
            assert np.all(b.y == 1) and np.all(b.g == 0)

    def test_uniform_probs_monte_carlo(self):
        ds = make_counts_dataset({(0, 0): 2500, (0, 1): 2500, (1, 0): 2500, (1, 1): 2500})
        probs = {cell: 0.25 for cell in ds.cell_counts()}
        plan = data.BatchPlan(batch_size=100, shuffle_seed=2, group_sampling_probs=probs)
        batches = data.make_batches(ds, plan)  # 100 batches of 100 -> 10k draws
        ys = np.concatenate([b.y for b in batches])
        gs = np.concatenate([b.g for b in batches])
        for cell in probs:
            freq = np.mean((ys == cell[0]) & (gs == cell[1]))
            assert abs(freq - 0.25) < 0.02

    def test_probs_on_empty_cell_rejected(self):
        ds = make_counts_dataset({(0, 0): 3, (0, 1): 3, (1, 1): 3})
        plan = data.BatchPlan(batch_size=2, shuffle_seed=0,
                              group_sampling_probs={(1, 0): 0.5, (0, 0): 0.5})
        with pytest.raises(EmptyCellError):
            data.make_batches(ds, plan)

    def test_seeded_purity(self):
        ds = make_counts_dataset({(0, 0): 7, (1, 1): 6})
        plan = data.BatchPlan(batch_size=3, shuffle_seed=5)
        a = data.make_batches(ds, plan)
        b = data.make_batches(ds, plan)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)
