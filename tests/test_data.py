import io
import json
import re
import struct
import threading
import time
import tracemalloc
import zipfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairkit import data, training
from fairkit.errors import (
    EmptyCellError,
    FairkitError,
    LabelDomainError,
    ParseError,
    SchemaError,
    SpecError,
)
from fairkit.postproc import fit_linear_probe, majority_baseline


def cell_counts(ds):
    """{(class, group): rows} over the cells that have rows."""
    return dict(Counter(zip(ds.y.tolist(), ds.g.tolist())))


def cell_table(values, num_classes, num_groups):
    """A [C, G] probability table from a {(class, group): p} dict; 0 elsewhere."""
    table = np.zeros((num_classes, num_groups))
    for cell, p in values.items():
        table[cell] = p
    return table


def write_jsonl(path, X, y, g):
    """Rows X, y, g as a JSONL split, one json.dumps object per line."""
    with open(path, "w") as f:
        for x, label, group in zip(X, y, g):
            f.write(json.dumps({"X": [float(v) for v in x], "y": int(label),
                                "protected_label": int(group)}, allow_nan=False) + "\n")


def write_csv(path, X, y, g):
    """Rows X, y, g as a CSV split: a header row, then the features and the labels."""
    lines = [",".join([*(f"x{i}" for i in range(X.shape[1])), "y", "protected_label"])]
    lines += [",".join(map(str, [*map(float, x), int(label), int(group)]))
              for x, label, group in zip(X, y, g)]
    path.write_text("\n".join(lines) + "\n")


def npy_bytes(array=None, header=None, data=b""):
    """The bytes of a .npy member: array's, or header's (a dict of descr,
    fortran_order and shape) followed by data."""
    buf = io.BytesIO()
    if array is not None:
        np.lib.format.write_array(buf, array, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(buf, header)
        buf.write(data)
    return buf.getvalue()


def zip_bytes(members):
    """The bytes of a zip archive of {name: bytes}, stored as np.savez stores them."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as z:
        for name, content in members.items():
            z.writestr(name, content)
    return buf.getvalue()


def make_counts_dataset(counts, d=3, seed=0):
    """Dataset with exact (y, g) cell counts and random features."""
    rng = np.random.default_rng(seed)
    ys, gs = [], []
    for (c, g), n in sorted(counts.items()):
        ys += [c] * n
        gs += [g] * n
    n_total = len(ys)
    return data.Dataset(rng.normal(size=(n_total, d)), ys, gs)


class TestLoadDataset:
    def test_single_row(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, X=[[0.5]], y=[0], protected_label=[1])
        ds = data.load_dataset(p)
        assert ds.n == 1 and ds.num_groups == 2

    def test_missing_key(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, X=[[0.1]], y=[0])
        with pytest.raises(SchemaError, match="protected_label"):
            data.load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.npz"
        p.write_bytes(b"")
        with pytest.raises(ParseError, match=re.escape(f"{p}: not a readable .npz archive")):
            data.load_dataset(p)

    def test_archive_of_zero_rows(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, X=np.zeros((0, 3)), y=np.zeros(0, np.int64),
                 protected_label=np.zeros(0, np.int64))
        with pytest.raises(ParseError, match=re.escape(f"{p}: holds no rows")):
            data.load_dataset(p)

    def test_unknown_label_value(self, tmp_path):
        p = tmp_path / "d.npz"
        np.savez(p, X=[[0.1]], y=[-1], protected_label=[0])
        with pytest.raises(LabelDomainError, match=re.escape(f"{p}: y must hold integers")):
            data.load_dataset(p)


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
def test_non_finite_feature_names_its_row(tmp_path, value):
    p = tmp_path / "toy_train.npz"
    X = np.ones((4, 2))
    X[2, 1] = value
    np.savez(p, X=X, y=np.zeros(4, np.int64), protected_label=np.arange(4))
    with pytest.raises(ParseError, match=re.escape(f"{p}: X row 2 holds a non-finite value")):
        data.load_dataset(p)


def _readme_block(marker):
    """The code of the README block that follows the line <!-- marker -->."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(rf"<!-- {marker} -->\n```python\n(.*?)```", text, re.S)
    assert block, marker
    return block[1]


def readme_converters():
    """README's text-to-.npz conversion functions, by the suffix they read."""
    convert = {}
    exec(_readme_block("convert-text-splits"), convert)
    return {".jsonl": convert["jsonl_to_npz"], ".csv": convert["csv_to_npz"]}


@pytest.mark.parametrize("suffix,write", [(".jsonl", write_jsonl), (".csv", write_csv)],
                         ids=["jsonl", "csv"])
def test_readme_converts_text_splits_to_npz(tmp_path, suffix, write):
    """README's conversion of a text split gives an .npz file that loads as
    the split it was written from, byte for byte."""
    train = data.generate_synthetic(data.SyntheticSpec(
        n_per_cell={(0, 0): 7, (0, 1): 3, (1, 0): 2, (1, 1): 5}, d=5, seed=3))[0]
    text = tmp_path / f"toy_train{suffix}"
    write(text, train.X, train.y, train.g)
    readme_converters()[suffix](text, text.with_suffix(".npz"))
    back = data.load_dataset(text.with_suffix(".npz"))
    for want, got in zip((train.X, train.y, train.g), (back.X, back.y, back.g)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# CSV text that README's conversion carries into an .npz the reader refuses
CONVERTED_CSV = {
    "1e400 feature": ("x0,x1,y,protected_label\n0.1,0.2,0,1\n0.1,1e400,0,1\n",
                      "X row 1 holds a non-finite value"),
    "no feature columns": ("y,protected_label\n0,1\n1,0\n", "X has no features"),
}


@pytest.mark.parametrize("name", list(CONVERTED_CSV))
def test_readme_conversion_keeps_the_split_checks(tmp_path, name):
    text, message = CONVERTED_CSV[name]
    src = tmp_path / "toy_train.csv"
    src.write_text(text)
    p = src.with_suffix(".npz")
    readme_converters()[".csv"](src, p)
    with pytest.raises(ParseError, match=re.escape(f"{p}: {message}")):
        data.load_dataset(p)


def test_label_above_int64_names_its_file(tmp_path):
    p = tmp_path / "toy_train.npz"
    np.savez(p, X=np.ones((2, 1)), y=np.array([0, 2**64 - 1], np.uint64),
             protected_label=[0, 1])
    with pytest.raises(LabelDomainError, match=re.escape(
            f"{p}: y must hold integers in [0, 2**63), got 0 to {2**64 - 1}")):
        data.load_dataset(p)


def _loaded(path):
    """X, y and g of the npz split at path, as load_dataset returns them."""
    ds = data.load_dataset(path)
    return ds.X, ds.y, ds.g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.integers(2, 16).flatmap(lambda d: st.one_of(
        hnp.arrays(np.float64, (n, d), elements=st.floats(allow_nan=False,
                                                          allow_infinity=False)),
        hnp.arrays(np.float64, (n, d), elements=st.integers(-2**53, 2**53).map(float)))),
    hnp.arrays(np.int64, n, elements=st.integers(0, 5)),
    hnp.arrays(np.int64, n, elements=st.integers(0, 5)))))
def test_npz_round_trip_is_bytewise(tmp_path_factory, arrays):
    X, y, g = arrays
    path = tmp_path_factory.mktemp("npz") / "toy_train.npz"
    data.save_npz(data.Dataset(X, y, g), path)
    for written, read in zip((X, y, g), _loaded(path)):
        assert read.dtype == written.dtype and read.shape == written.shape
        assert read.tobytes() == written.tobytes()


def test_compressed_and_integer_npz_load_as_the_plain_one(tmp_path):
    ds = make_counts_dataset({(0, 0): 3, (0, 1): 4, (1, 0): 2, (1, 1): 5})
    plain, compressed, fortran, narrow = (tmp_path / f"{name}.npz" for name in
                                          ("plain", "compressed", "fortran", "narrow"))
    data.save_npz(ds, plain)
    np.savez_compressed(compressed, X=ds.X, y=ds.y, protected_label=ds.g)
    np.savez(fortran, X=np.asfortranarray(ds.X), y=ds.y, protected_label=ds.g)
    integral = ds.X.round()
    np.savez(narrow, X=integral.astype(np.int16), y=ds.y.astype(np.uint8),
             protected_label=ds.g.astype(">i4"))
    with zipfile.ZipFile(compressed) as z:
        assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}
    expected = _loaded(plain)
    for path, X in ((compressed, ds.X), (fortran, ds.X), (narrow, integral)):
        for want, got in zip((X, *expected[1:]), _loaded(path)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_npz_member_declaring_more_than_its_file_is_refused_unread(tmp_path):
    """A stored member whose zip directory and .npy header both declare 256
    MiB over 64 bytes of data: nothing of the declared size is allocated."""
    ds = make_counts_dataset({(0, 0): 2, (1, 1): 2})
    X = npy_bytes(header={"descr": "<f8", "fortran_order": False, "shape": (2**25, 1)},
                  data=bytes(64))
    archive = zip_bytes({"X.npy": X, "y.npy": npy_bytes(ds.y),
                         "protected_label.npy": npy_bytes(ds.g)})
    # the member's sizes in its central-directory record, which zipfile reads
    record = archive.rindex(b"PK\x01\x02", 0, archive.rindex(b"X.npy"))
    declared = len(X) - 64 + 2**28
    archive = (archive[:record + 20] + struct.pack("<II", declared, declared)
               + archive[record + 28:])
    path = tmp_path / "toy_train.npz"
    path.write_bytes(archive)
    with zipfile.ZipFile(path) as z:
        assert z.getinfo("X.npy").file_size == declared
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=re.escape(f"{path}: X: ")):
            data.load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_npz_member_with_bytes_beyond_its_header_is_refused(tmp_path):
    ds = make_counts_dataset({(0, 0): 2, (1, 1): 2})
    path = tmp_path / "toy_dev.npz"
    path.write_bytes(zip_bytes({"X.npy": npy_bytes(ds.X) + bytes(8), "y.npy": npy_bytes(ds.y),
                                "protected_label.npy": npy_bytes(ds.g)}))
    with pytest.raises(ParseError, match=re.escape(f"{path}: X: header declares shape (4, 3)")):
        data.load_dataset(path)


@settings(max_examples=300, deadline=None)
@given(compressed=st.booleans(),
       changes=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, 2**20))
# the 1072-byte stored file: the end record's directory offset moved, which
# gives X a negative offset; X's directory record flagged UTF-8, with a name
# that is not
@example(compressed=False, changes=[(1067, 4)], cut=None)
@example(compressed=False, changes=[(883 + 9, 0x08), (883 + 46, 0xff)], cut=None)
def test_damaged_npz_raises_a_data_error_or_loads_unchanged(tmp_path_factory, compressed,
                                                            changes, cut):
    """Up to three bytes of a valid split set, then the file maybe cut: a
    data error (exit 1) naming the file, or, where zipfile ignores the
    bytes, the same arrays."""
    ds = make_counts_dataset({(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 2})
    path = tmp_path_factory.mktemp("npz") / "toy_train.npz"
    (np.savez_compressed if compressed else np.savez)(path, X=ds.X, y=ds.y,
                                                      protected_label=ds.g)
    raw = bytearray(path.read_bytes())
    for at, value in changes:
        raw[at % len(raw)] = value
    if cut is not None:
        del raw[cut % len(raw):]
    path.write_bytes(bytes(raw))
    try:
        back = data.load_dataset(path)
    except FairkitError as e:
        assert str(e).startswith(f"{path}: ")
        return
    for want, got in zip((ds.X, ds.y, ds.g), (back.X, back.y, back.g)):
        assert got.tobytes() == want.tobytes()


def test_rows_without_features_are_a_parse_error(tmp_path):
    p = tmp_path / "toy_train.npz"
    np.savez(p, X=np.zeros((2, 0)), y=[0, 1], protected_label=[1, 0])
    with pytest.raises(ParseError, match=re.escape(f"{p}: X has no features")):
        data.load_dataset(p)


@pytest.mark.parametrize("cells", [[1, 2], {"a,b": 1}, {"0,0,1": 1}, {5: 1}, {"0,0": "x"}])
def test_malformed_n_per_cell_is_spec_error(cells):
    with pytest.raises(SpecError, match="n_per_cell"):
        data.synthetic_spec_from_dict({"n_per_cell": cells})


BAL = {(0, 0): 200, (0, 1): 200, (1, 0): 200, (1, 1): 200}


class TestSyntheticGenerator:
    def test_counts_match_map_exactly(self):
        spec = data.SyntheticSpec(n_per_cell={(0, 0): 5, (0, 1): 3, (1, 0): 2, (1, 1): 7},
                                  d=4, seed=3)
        for ds in data.generate_synthetic(spec):
            assert cell_counts(ds) == spec.n_per_cell

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


def generate_by_cell(spec):
    """Each split's (X, y, g) as the generator once drew them: every nonempty
    cell's mean plus rng.normal(0, noise_sigma), stacked in cell order."""
    splits = []
    for k in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, k)))
        xs, ys, gs = [], [], []
        for (c, g) in sorted(spec.n_per_cell):
            n = spec.n_per_cell[(c, g)]
            if n == 0:
                continue
            mean = np.zeros(spec.d)
            mean[0] = spec.class_separation * data._axis_position(c, spec.num_classes)
            mean[1] = spec.group_shift * data._axis_position(g, spec.num_groups)
            xs.append(mean + rng.normal(0.0, spec.noise_sigma, size=(n, spec.d)))
            ys.append(np.full(n, c))
            gs.append(np.full(n, g))
        splits.append((np.vstack(xs), np.concatenate(ys), np.concatenate(gs)))
    return splits


@st.composite
def synthetic_specs(draw):
    """2-4 classes x 2-3 groups of 0-12 rows each, d 2-6, signed shifts."""
    C, G = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    cells = {(c, g): draw(st.integers(0, 12)) for c in range(C) for g in range(G)}
    shift = st.floats(-5.0, 5.0, allow_nan=False)
    try:
        return data.SyntheticSpec(n_per_cell=cells, d=draw(st.integers(2, 6)),
                                  class_separation=draw(shift), group_shift=draw(shift),
                                  noise_sigma=draw(st.floats(0.01, 3.0)),
                                  seed=draw(st.integers(0, 2**32)))
    except SpecError:
        reject()


class TestSyntheticGeneratorBytes:
    @settings(max_examples=100, deadline=None)
    @given(synthetic_specs())
    @example(data.SyntheticSpec(n_per_cell={(0, 0): 3, (0, 1): 0, (1, 0): 2, (1, 1): 0,
                                            (2, 0): 0, (2, 1): 4},
                                d=2, class_separation=-2.5, group_shift=1.5, seed=4))
    def test_equals_drawing_each_cell_and_stacking(self, spec):
        for ds, (X, y, g) in zip(data.generate_synthetic(spec), generate_by_cell(spec),
                                 strict=True):
            for got, want in ((ds.X, X), (ds.y, y), (ds.g, g)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class StandInDraws:
    """A generator stand-in for one split: its draws fail, or they pause and
    then come from rng, so a failed split ends before the others do."""

    def __init__(self, rng, split, fail):
        self.rng, self.split, self.fail = rng, split, fail

    def standard_normal(self, out):
        if self.fail:
            raise RuntimeError(f"draw of split {self.split} failed")
        time.sleep(0.02)
        self.rng.standard_normal(out=out)


class TestSyntheticDrawThreads:
    SPEC = data.SyntheticSpec(n_per_cell={(0, 0): 500, (0, 1): 200, (1, 0): 200, (1, 1): 500},
                              d=64, group_shift=2.0, seed=3)

    @pytest.mark.parametrize("failing", [{0}, {1}, {1, 2}, {0, 2}])
    def test_a_draw_error_reaches_the_caller_after_the_join(self, failing):
        default_rng = np.random.default_rng

        def stand_in(seed_sequence):
            split = seed_sequence.entropy[1]
            return StandInDraws(default_rng(seed_sequence), split, split in failing)

        before = set(threading.enumerate())
        with mock.patch.object(np.random, "default_rng", stand_in), \
                pytest.raises(RuntimeError, match=f"split {min(failing)} failed"):
            data.generate_synthetic(self.SPEC)
        assert set(threading.enumerate()) <= before  # both threads were joined

    def test_the_draw_makes_no_array(self):
        jobs, draw = [], data._draw_split

        def recorded(*args):
            jobs.append(args)
            draw(*args)

        with mock.patch.object(data, "_draw_split", recorded):
            data.generate_synthetic(self.SPEC)
        assert len(jobs) == 3
        rng, X, *rest = jobs[1]  # dev's job, run again on this thread
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            draw(rng, X, *rest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # numpy buffers the mean's broadcast over rows in at most
        # getbufsize() elements (64 kB); the smallest cell block is 102 kB,
        # the split 717 kB
        assert peak - before < np.getbufsize() * 8 + 4096, peak - before


SPEC_COUNTS = {(0, 0): 4, (0, 1): 2, (1, 0): 1, (1, 1): 3}


class TestBalance:
    def test_joint_downsampling_minimum_cell(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        out = data.balance(ds, "joint", "Downsampling", seed=0)
        assert out.n == 4
        assert all(v == 1 for v in cell_counts(out).values())
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
        assert cell_counts(out) == cell_counts(ds)
        np.testing.assert_allclose(out.weights, np.ones(out.n), atol=1e-12)

    def test_cb_downsamples_majority_within_class(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        out = data.balance(ds, "y", "Downsampling", seed=0)
        assert cell_counts(out) == {(0, 0): 2, (0, 1): 2, (1, 0): 1, (1, 1): 1}

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
        counts = cell_counts(out)
        for g in (0, 1):
            assert sum(counts.get((c, g), 0) for c in (0, 1)) == 4

    def test_empty_cell_named(self):
        ds = make_counts_dataset({(0, 0): 4, (0, 1): 2, (1, 1): 3})
        with pytest.raises(EmptyCellError, match=r"y=1, g=0"):
            data.balance(ds, "joint", "Downsampling", seed=0)

    def test_train_split_only(self):
        ds = make_counts_dataset(SPEC_COUNTS)
        dev = data.Dataset(ds.X, ds.y, ds.g, split="dev")
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
            before = cell_counts(ds)
            after = cell_counts(out)
            if mode == "Downsampling":
                assert all(after.get(k, 0) <= v for k, v in before.items())
                _assert_equality(objective, after)
                again = data.balance(out, objective, mode, seed=trial + 1)
                assert cell_counts(again) == after  # idempotent
            elif mode == "Resampling":
                assert all(after[k] >= v for k, v in before.items())
                _assert_equality(objective, after)
            else:
                assert out.n == ds.n and out.rows is None and out.X is ds.X
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
    ds = data.Dataset(np.arange(len(ys), dtype=float)[:, None], ys, gs)
    out = data.balance(ds, objective, mode, seed=7)
    if mode == "Reweighting":
        assert out.weights.tolist() == PINNED_DRAWS[objective, mode]
    else:
        assert out.rows.tolist() == PINNED_DRAWS[objective, mode]
        np.testing.assert_array_equal(out.y, ds.y[out.rows])
        np.testing.assert_array_equal(out.g, ds.g[out.rows])


BALANCINGS = [(o, m) for o in ("g", "joint", "eo") for m in data.MODES] + [("y", "Downsampling")]


@pytest.mark.parametrize("objective,mode", BALANCINGS)
def test_balance_copies_no_features(objective, mode):
    """A balanced split keeps the loaded X and indexes it: balancing
    allocates less than 8 rows of features, where a copy of the balanced
    rows would take 60 to 240."""
    ds = make_counts_dataset({(0, 0): 60, (0, 1): 15, (1, 0): 20, (1, 1): 45}, d=1024)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = data.balance(ds, objective, mode, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < ds.X[:8].nbytes, peak - before
    assert np.shares_memory(out.X, ds.X)
    if mode != "Reweighting":
        assert out.n == out.rows.size != ds.n
        np.testing.assert_array_equal(out.y, ds.y[out.rows])


@pytest.mark.parametrize("objective,mode,method", [("eo", "Resampling", "Adv"),
                                                   ("joint", "Downsampling", "FairBatch")])
def test_training_on_the_index_equals_training_on_a_copy(objective, mode, method):
    """Batches of a balanced split gather X[rows[ix]], the rows a copy of the
    balanced features would give, in the same order: the trained parameters
    and every epoch row are bit for bit those of training on the copy."""
    train, dev, test = data.generate_synthetic(data.SyntheticSpec(
        n_per_cell={(0, 0): 70, (0, 1): 20, (1, 0): 25, (1, 1): 65}, d=5, group_shift=2.0,
        seed=4))
    out = data.balance(train, objective, mode, seed=5)
    copy = data.Dataset(out.X[out.rows], out.y, out.g, out.weights)
    cfg = training.MethodConfig(method=method, adv_lambda=0.5, fairbatch_alpha=0.05,
                                epochs=3, batch_size=32, seed=6)
    got, want = (training.train(ds, dev, test, cfg) for ds in (out, copy))
    assert np.array_equal(got.model.flat, want.model.flat)
    assert got.rows == want.rows


def test_rebalancing_composes_the_indices():
    ds = make_counts_dataset({(0, 0): 30, (0, 1): 8, (1, 0): 12, (1, 1): 25})
    once = data.balance(ds, "eo", "Resampling", seed=1)
    twice = data.balance(once, "joint", "Downsampling", seed=2)
    reference = data.balance(data.Dataset(once.X[once.rows], once.y, once.g), "joint",
                             "Downsampling", seed=2)
    assert twice.X is ds.X
    np.testing.assert_array_equal(twice.X[twice.rows], reference.X[reference.rows])
    np.testing.assert_array_equal(twice.y, reference.y)


def test_rows_of_X_count_each_loaded_row(tmp_path):
    ds = make_counts_dataset({(0, 0): 6, (0, 1): 2, (1, 0): 3, (1, 1): 5})
    out = data.balance(ds, "joint", "Resampling", seed=0)
    with pytest.raises(ValueError, match="balanced split"):  # its X is not its rows
        data.save_npz(out, tmp_path / "toy_train.npz")
    m, y, g = out.rows_of_X()
    np.testing.assert_array_equal(m, np.bincount(out.rows, minlength=ds.n))
    np.testing.assert_array_equal(np.repeat(y, m), out.y)
    np.testing.assert_array_equal(np.repeat(g, m), out.g)
    m, y, g = ds.rows_of_X()
    assert m.tolist() == [1] * ds.n and y is ds.y and g is ds.g


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
                  for (c, g) in cell_counts(ds)]
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
        batches = data.make_batches(ds, batch_size=2, shuffle_seed=0)
        assert [len(b.y) for b in batches] == [2, 2, 1]
        seen = np.concatenate([b.X[:, 0] for b in batches])
        assert sorted(seen.tolist()) == sorted(ds.X[:, 0].tolist())

    def test_degenerate_distribution(self):
        ds = make_counts_dataset({(0, 0): 3, (0, 1): 3, (1, 0): 3, (1, 1): 3})
        for b in data.make_batches(ds, batch_size=4, shuffle_seed=1,
                                   probs=cell_table({(1, 0): 1.0}, 2, 2)):
            assert np.all(b.y == 1) and np.all(b.g == 0)

    def test_uniform_probs_monte_carlo(self):
        ds = make_counts_dataset({(0, 0): 2500, (0, 1): 2500, (1, 0): 2500, (1, 1): 2500})
        probs = {cell: 0.25 for cell in cell_counts(ds)}
        # 100 batches of 100 -> 10k draws
        batches = data.make_batches(ds, batch_size=100, shuffle_seed=2,
                                    probs=cell_table(probs, 2, 2))
        ys = np.concatenate([b.y for b in batches])
        gs = np.concatenate([b.g for b in batches])
        for cell in probs:
            freq = np.mean((ys == cell[0]) & (gs == cell[1]))
            assert abs(freq - 0.25) < 0.02

    def test_probs_on_empty_cell_rejected(self):
        ds = make_counts_dataset({(0, 0): 3, (0, 1): 3, (1, 1): 3})
        with pytest.raises(EmptyCellError):
            data.make_batches(ds, batch_size=2, shuffle_seed=0,
                              probs=cell_table({(1, 0): 0.5, (0, 0): 0.5}, 2, 2))

    def test_seeded_purity(self):
        ds = make_counts_dataset({(0, 0): 7, (1, 1): 6})
        a = data.make_batches(ds, batch_size=3, shuffle_seed=5)
        b = data.make_batches(ds, batch_size=3, shuffle_seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.X, y.X)


def reference_batches(dataset, batch_size, shuffle_seed, probs=None):
    """(X, y, g, weights) of each batch as make_batches gathered them up
    front before its batches gathered X at their step."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(shuffle_seed, 2)))
    n = dataset.n
    n_batches = -(-n // batch_size)
    if probs is None:
        perm = rng.permutation(n)
        chunks = [perm[i * batch_size:(i + 1) * batch_size] for i in range(n_batches)]
    else:
        G = dataset.num_groups
        p = np.asarray(probs, dtype=float).ravel()
        cell = dataset.y * G + dataset.g
        sizes = np.bincount(cell, minlength=p.size)
        flat = np.argsort(cell, kind="stable")
        starts = np.cumsum(sizes) - sizes
        chunks = []
        for _ in range(n_batches):
            which = rng.choice(p.size, size=batch_size, p=p)
            chunks.append(flat[starts[which] + rng.integers(sizes[which])])
    return [(dataset.X[ix], dataset.y[ix], dataset.g[ix], dataset.weights[ix]) for ix in chunks]


@pytest.mark.parametrize("fairbatch", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_batches_gather_the_reference_rows(fairbatch, seed):
    rng = np.random.default_rng(seed)
    counts = {(c, g): int(rng.integers(1, 30)) for c in range(3) for g in range(2)}
    ds = make_counts_dataset(counts, d=5, seed=seed)
    ds = data.Dataset(ds.X, ds.y, ds.g, weights=rng.uniform(0.5, 2.0, ds.n))
    probs = rng.dirichlet(np.ones(6)).reshape(3, 2) if fairbatch else None
    batch_size = int(rng.integers(1, ds.n + 1))
    batches = data.make_batches(ds, batch_size, shuffle_seed=seed, probs=probs)
    reference = reference_batches(ds, batch_size, seed, probs)
    assert len(batches) == len(reference)
    for batch, (X, y, g, w) in zip(batches, reference):
        for got, want in ((batch.X, X), (batch.y, y), (batch.g, g), (batch.weights, w)):
            assert np.array_equal(got, want)
        assert batch.features is ds.X  # no rows are copied before the step reads X


# A 3 x 2 table (row i has X = [i]) and its FairBatch draws at shuffle seed 11,
# recorded from the per-row draws that one vectorized draw per batch replaced
FAIRBATCH_COUNTS = {(0, 0): 5, (0, 1): 2, (1, 0): 3, (1, 1): 4, (2, 0): 1, (2, 1): 6}
FAIRBATCH_PROBS = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.15, (1, 1): 0.05, (2, 0): 0.3,
                   (2, 1): 0.2}
FAIRBATCH_DRAWS = [[20, 9, 14, 6], [7, 19, 4, 7], [8, 6, 7, 5], [6, 5, 6, 6], [8, 15, 8, 18],
                   [3, 15, 14, 6]]


def test_fairbatch_draws_pinned():
    ys, gs = [], []
    for (c, g), n in sorted(FAIRBATCH_COUNTS.items()):
        ys += [c] * n
        gs += [g] * n
    ds = data.Dataset(np.arange(len(ys), dtype=float)[:, None], ys, gs)
    batches = data.make_batches(ds, batch_size=4, shuffle_seed=11,
                                probs=cell_table(FAIRBATCH_PROBS, 3, 2))
    assert [b.X[:, 0].astype(int).tolist() for b in batches] == FAIRBATCH_DRAWS
    for b in batches:
        rows = b.X[:, 0].astype(int)
        np.testing.assert_array_equal(b.y, ds.y[rows])
        np.testing.assert_array_equal(b.g, ds.g[rows])
