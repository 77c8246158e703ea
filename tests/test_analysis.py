import json
import math
from pathlib import Path

import numpy as np
import pytest

from fairkit import analysis as an
from fairkit import cli
from fairkit.errors import EmptyInputError


def rows_from_points(points):
    return [{"epoch": e, "dev_performance": p, "dev_fairness": f,
             "test_performance": p, "test_fairness": f}
            for e, (p, f) in enumerate(points)]


class TestSelectEpoch:
    def test_dto_picks_closer_to_utopia(self):
        # dto(0.8, 0.6) = hypot(.2, .4) ~ 0.447; dto(0.7, 0.9) ~ 0.316
        rows = rows_from_points([(0.8, 0.6), (0.7, 0.9)])
        assert an.select_row(rows, an.SelectionCriterion())["epoch"] == 1

    def test_constrained_fairness(self):
        # performance must be >= 0.75; among feasible maximize fairness
        rows = rows_from_points([(0.8, 0.6), (0.7, 0.9), (0.76, 0.8)])
        crit = an.SelectionCriterion(kind="ConstrainedFairness", threshold=0.75)
        assert an.select_row(rows, crit)["epoch"] == 2

    def test_constrained_performance(self):
        rows = rows_from_points([(0.8, 0.6), (0.7, 0.9), (0.76, 0.8)])
        crit = an.SelectionCriterion(kind="ConstrainedPerformance", threshold=0.7)
        assert an.select_row(rows, crit)["epoch"] == 2  # fairness >= 0.7: epochs 1 and 2

    def test_constrained_fallback_nearest_to_threshold(self):
        rows = rows_from_points([(0.5, 0.9), (0.6, 0.3)])
        crit = an.SelectionCriterion(kind="ConstrainedFairness", threshold=0.9)
        assert an.select_row(rows, crit)["epoch"] == 1  # no feasible point; 0.6 closest

    def test_tie_goes_to_earliest_epoch(self):
        rows = rows_from_points([(0.7, 0.7), (0.7, 0.7), (0.7, 0.7)])
        assert an.select_row(rows, an.SelectionCriterion())["epoch"] == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            an.select_row([], an.SelectionCriterion())

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            an.SelectionCriterion(kind="Accuracy")

    def test_dto_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = [(float(rng.uniform()), float(rng.uniform())) for _ in range(10)]
            rows = rows_from_points(pts)
            got = an.select_row(rows, an.SelectionCriterion())["epoch"]
            dists = [math.hypot(1 - p, 1 - f) for p, f in pts]
            assert dists[got] == min(dists)


def sweep_run(index, seed, points):
    return {"index": index, "seed": seed, "rows": rows_from_points(points)}


class TestSelectAcrossHyperparameters:
    def test_picks_index_with_best_mean(self):
        runs = [
            sweep_run({"lam": 0.1}, 0, [(0.8, 0.6)]),
            sweep_run({"lam": 0.1}, 1, [(0.8, 0.7)]),
            sweep_run({"lam": 1.0}, 0, [(0.7, 0.9)]),
            sweep_run({"lam": 1.0}, 1, [(0.7, 0.95)]),
        ]
        out = an.select_across_hyperparameters(runs, an.SelectionCriterion())
        # means: (0.8, 0.65) dto ~ 0.403; (0.7, 0.925) dto ~ 0.309
        assert out["index"] == {"lam": 1.0}
        assert out["dev_mean"] == pytest.approx((0.7, 0.925))
        assert [d["seed"] for d in out["per_seed"]] == [0, 1]

    def test_per_seed_epoch_selection_applied_first(self):
        runs = [sweep_run({"lam": 0.5}, 0, [(0.5, 0.5), (0.9, 0.9), (0.6, 0.6)])]
        out = an.select_across_hyperparameters(runs, an.SelectionCriterion())
        assert out["per_seed"][0]["epoch"] == 1
        assert out["dev_mean"] == pytest.approx((0.9, 0.9))

    def test_matches_brute_force_on_random_sweeps(self):
        rng = np.random.default_rng(1)
        crit = an.SelectionCriterion()
        for _ in range(50):
            runs = []
            n_idx, n_seeds, n_epochs = int(rng.integers(1, 4)), int(rng.integers(1, 4)), 4
            for i in range(n_idx):
                for s in range(n_seeds):
                    pts = [(float(rng.uniform()), float(rng.uniform()))
                           for _ in range(n_epochs)]
                    runs.append(sweep_run({"lam": float(i)}, s, pts))
            out = an.select_across_hyperparameters(runs, crit)
            # oracle: independently compute each index's seed-averaged dev point
            best_dto, best_lam = None, None
            for i in range(n_idx):
                devs = []
                for r in runs:
                    if r["index"]["lam"] == float(i):
                        e = an.select_row(r["rows"], crit)["epoch"]
                        row = r["rows"][e]
                        devs.append((row["dev_performance"], row["dev_fairness"]))
                mp = sum(p for p, _ in devs) / len(devs)
                mf = sum(f for _, f in devs) / len(devs)
                d = math.hypot(1 - mp, 1 - mf)
                if best_dto is None or d < best_dto - 1e-15:
                    best_dto, best_lam = d, float(i)
            assert out["index"] == {"lam": best_lam}


class TestParetoFrontier:
    def test_hand_example(self):
        pts = [(0.9, 0.1), (0.5, 0.5), (0.1, 0.9), (0.4, 0.4), (0.5, 0.5)]
        assert an.pareto_frontier(pts) == [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1)]

    def test_single_dominating_point(self):
        assert an.pareto_frontier([(0.9, 0.9), (0.5, 0.5)]) == [(0.9, 0.9)]

    def test_equal_coordinate_not_dominated(self):
        # (0.5, 0.9) vs (0.5, 0.8): the latter is dominated (>= both, > in one)
        assert an.pareto_frontier([(0.5, 0.9), (0.5, 0.8)]) == [(0.5, 0.9)]

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        pts = [(float(rng.uniform()), float(rng.uniform())) for _ in range(200)]
        frontier = an.pareto_frontier(pts)
        uniq = set(pts)
        oracle = sorted(p for p in uniq
                        if not any(q != p and q[0] >= p[0] and q[1] >= p[1]
                                   for q in uniq))
        assert frontier == oracle
        perfs = [p for p, _ in frontier]
        fairs = [f for _, f in frontier]
        assert perfs == sorted(perfs)
        assert fairs == sorted(fairs, reverse=True)


class TestAggregateRuns:
    def test_mean_and_sample_std(self):
        out = an.aggregate_runs([(0.7, 0.8), (0.8, 0.9)])
        assert out["performance_mean"] == pytest.approx(0.75)
        assert out["performance_std"] == pytest.approx(math.sqrt(0.005))  # ~0.0707
        assert out["n_seeds"] == 2

    def test_single_seed_no_std(self):
        out = an.aggregate_runs([(0.7, 0.8)])
        assert out["performance_std"] is None
        assert out["fairness_std"] is None

    def test_dto_of_means_on_reported_values(self):
        out = an.aggregate_runs([(0.822512, 0.851071)])
        assert 100 * out["dto"] == pytest.approx(23.1694, abs=0.01)

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            an.aggregate_runs([])


class TestEmitTable:
    def make_table(self):
        return {
            "Standard": an.aggregate_runs([(0.7198, 0.6072), (0.7262, 0.6164)]),
            "Solo": an.aggregate_runs([(0.81, 0.91)]),
        }

    def test_markdown_formatting(self):
        text = an.emit_table(self.make_table(), "markdown")
        lines = text.splitlines()
        assert lines[0] == "| Method | Performance | Fairness | DTO |"
        std_row = next(l for l in lines if "Standard" in l)
        assert "72.30 ± 0.45" in std_row  # mean 0.7230, std 0.0045...
        solo_row = next(l for l in lines if "Solo" in l)
        assert "±" not in solo_row

    def test_csv_numeric_columns(self):
        text = an.emit_table(self.make_table(), "csv")
        header, *rows = text.strip().splitlines()
        assert header.split(",")[0] == "method"
        solo = next(r for r in rows if r.startswith("Solo"))
        fields = solo.split(",")
        assert fields[1] == "81.0000" and fields[2] == ""

    def test_latex_escapes_pm(self):
        text = an.emit_table(self.make_table(), "latex")
        assert r"$\pm$" in text and "±" not in text
        assert text.startswith(r"\begin{tabular}")

    def test_latex_escapes_special_characters_in_names(self):
        table = {"EO_CLA": an.aggregate_runs([(0.81, 0.91)]),
                 "A&B 50% #1": an.aggregate_runs([(0.81, 0.91)])}
        rows = an.emit_table(table, "latex").splitlines()
        assert r"A\&B 50\% \#1 & 81.00 & 91.00 & 21.02 \\" in rows
        assert r"EO\_CLA & 81.00 & 91.00 & 21.02 \\" in rows
        assert "| EO_CLA |" in an.emit_table(table, "markdown")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            an.emit_table(self.make_table(), "html")

    def test_empty_table(self):
        with pytest.raises(EmptyInputError):
            an.emit_table({}, "markdown")


class TestEmitTradeoffData:
    def make_runs(self):
        return {
            "Adv": [sweep_run({"lam": 0.1}, 0, [(0.8, 0.6), (0.75, 0.7)]),
                    sweep_run({"lam": 1.0}, 0, [(0.7, 0.9)])],
            "Standard": [sweep_run({}, 0, [(0.85, 0.55)])],
        }

    def test_series_structure(self):
        out = an.emit_tradeoff_data(self.make_runs())
        assert [s["method"] for s in out["series"]] == ["Adv", "Standard"]
        adv = out["series"][0]
        assert len(adv["performance"]) == len(adv["fairness"]) == 2
        assert adv["index"] == [{"lam": 0.1}, {"lam": 1.0}]
        # epoch 1 wins dev DTO for the first Adv run
        assert adv["epoch"] == [1, 0]
        assert adv["performance"] == [0.75, 0.7]

    def test_pareto_only_filters_dominated(self):
        runs = {"Adv": [sweep_run({"lam": 0.1}, 0, [(0.8, 0.9)]),
                        sweep_run({"lam": 1.0}, 0, [(0.7, 0.8)])]}
        out = an.emit_tradeoff_data(runs, pareto_only=True)
        assert out["series"][0]["performance"] == [0.8]
        assert out["pareto_only"] is True

    def test_json_serializable(self):
        json.dumps(an.emit_tradeoff_data(self.make_runs()))


def _drop_dev_performance(manifest, rows):
    del rows[1]["dev_performance"]


def _text_fairness(manifest, rows):
    rows[0]["dev_fairness"] = "x"


def _list_index(manifest, rows):
    manifest["index"] = [1]


def _null_seed(manifest, rows):
    manifest["seed"] = None


def _nan_dev_performance(manifest, rows):
    rows[0]["dev_performance"] = math.nan


def _text_stages(manifest, rows):
    manifest["stages"] = "at:Standard"


# Runs that parse but hold a field of the wrong type, and the reason each is skipped
MISTYPED_RUNS = {
    "row without dev_performance": (_drop_dev_performance,
                                    "epochs.jsonl line 2 has no numeric dev_performance"),
    "text dev_fairness": (_text_fairness, "epochs.jsonl line 1 has no numeric dev_fairness"),
    "list index": (_list_index, "manifest.json index is not an object of numbers: [1]"),
    "null seed": (_null_seed, "manifest.json seed is not an integer: None"),
    "NaN dev_performance": (_nan_dev_performance,
                            "epochs.jsonl line 1 has no numeric dev_performance"),
    "text stages": (_text_stages, "manifest.json stages is not a list of strings: 'at:Standard'"),
}


def post_row(post, dev, test):
    return {"post": post, "dev_performance": dev[0], "dev_fairness": dev[1],
            "test_performance": test[0], "test_fairness": test[1]}


# A tree as fairkit train writes it, (directory, manifest, rows), with the
# three cases a method key merges or misreads: Adv with and without INLP (two
# index schemas), Standard with and without balancing (two pipelines, one
# seed each), and Gate-soft (a post row that is not the best dev epoch)
PIPELINE_TREE = [
    ("adv", {"method": "Adv", "index": {"adv_lambda": 1.0}, "seed": 0,
             "stages": ["at:Adv"]},
     rows_from_points([(0.5, 0.5), (0.8, 0.8)])),
    ("adv_inlp", {"method": "Adv", "index": {"adv_lambda": 1.0, "inlp_iterations": 10},
                  "seed": 0, "stages": ["at:Adv", "post:INLP"]},
     rows_from_points([(0.5, 0.5), (0.8, 0.8)]) + [post_row("INLP", (0.75, 0.9), (0.7, 0.95))]),
    ("std", {"method": "Standard", "index": {}, "seed": 0, "stages": ["at:Standard"]},
     rows_from_points([(0.9, 0.6)])),
    ("bt_std", {"method": "Standard", "index": {}, "seed": 0,
                "stages": ["pre:EO-downsampling", "at:Standard"]},
     rows_from_points([(0.85, 0.8)])),
    ("gate", {"method": "Gate", "index": {}, "seed": 0, "stages": ["at:Gate", "post:Gate-soft"]},
     rows_from_points([(0.9, 0.9), (0.6, 0.6)])
     + [post_row("Gate-soft", (0.8, 0.85), (0.82, 0.88))]),
    # an older run, written before manifests held stages
    ("old", {"method": "EAdv", "index": {"adv_lambda": 2.0}, "seed": 3},
     rows_from_points([(0.7, 0.7)])),
]


class TestLoadAndAnalyzeRuns:
    def write_run(self, root, name, manifest, rows):
        d = root / name
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps(manifest))
        (d / "epochs.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")

    def test_load_skips_unfinalized_and_rowless(self, tmp_path):
        rows = rows_from_points([(0.7, 0.7)])
        self.write_run(tmp_path, "a", {"finalized": True, "method": "Standard",
                                       "index": {}, "seed": 0}, rows)
        self.write_run(tmp_path, "b", {"finalized": False, "method": "Standard",
                                       "index": {}, "seed": 1}, rows)
        self.write_run(tmp_path, "c", {"finalized": True, "method": "Adv",
                                       "index": {"lam": 1.0}, "seed": 0}, [])
        runs, skipped = an.load_runs(tmp_path)
        assert len(runs) == 1
        assert skipped == [(str(tmp_path / "b"), "unfinalized"),
                           (str(tmp_path / "c"), "no epoch rows")]
        assert runs[0]["method"] == "Standard"

    def test_load_skips_damaged_runs_and_names_each(self, tmp_path):
        manifest = {"finalized": True, "method": "Standard", "index": {}, "seed": 0}
        rows = rows_from_points([(0.7, 0.7), (0.8, 0.6)])
        self.write_run(tmp_path, "good", manifest, rows)
        self.write_run(tmp_path, "manifest", manifest, rows)
        (tmp_path / "manifest" / "manifest.json").write_text('{"finalized": tr')
        self.write_run(tmp_path, "truncated", {**manifest, "seed": 1}, rows)
        epochs = tmp_path / "truncated" / "epochs.jsonl"
        epochs.write_bytes(epochs.read_bytes()[:-20])
        self.write_run(tmp_path, "nokeys", {"finalized": True, "index": {}}, rows)
        self.write_run(tmp_path, "notadict", manifest, rows)
        (tmp_path / "notadict" / "manifest.json").write_text("[1, 2]")
        for name in ("nested_manifest", "nested_row", "non_utf8", "epochs_dir", "manifest_dir"):
            self.write_run(tmp_path, name, manifest, rows)
        (tmp_path / "nested_manifest" / "manifest.json").write_text("[" * 200_000)
        with open(tmp_path / "nested_row" / "epochs.jsonl", "a") as f:
            f.write("[" * 200_000 + "\n")
        with open(tmp_path / "non_utf8" / "epochs.jsonl", "ab") as f:
            f.write(b"\xff\n")
        for name, file in (("epochs_dir", "epochs.jsonl"), ("manifest_dir", "manifest.json")):
            (tmp_path / name / file).unlink()
            (tmp_path / name / file).mkdir()
        runs, skipped = an.load_runs(tmp_path)
        assert [r["dir"] for r in runs] == [str(tmp_path / "good")]
        assert runs[0]["rows"] == rows
        reasons = {Path(d).name: reason for d, reason in skipped}
        assert sorted(reasons) == ["epochs_dir", "manifest", "manifest_dir", "nested_manifest",
                                   "nested_row", "nokeys", "non_utf8", "notadict", "truncated"]
        assert reasons["manifest"].startswith("manifest.json does not parse")
        assert reasons["truncated"].startswith("epochs.jsonl line 2 does not parse")
        assert reasons["nokeys"] == "manifest.json lacks method, seed"
        assert reasons["notadict"] == "manifest.json is not a JSON object"
        assert reasons["nested_manifest"].startswith(
            "manifest.json does not parse: maximum recursion depth")
        assert reasons["nested_row"].startswith(
            "epochs.jsonl line 3 does not parse: maximum recursion depth")
        assert reasons["non_utf8"].startswith("epochs.jsonl does not parse: 'utf-8' codec")
        assert reasons["epochs_dir"].startswith("epochs.jsonl cannot be read: [Errno")
        assert reasons["manifest_dir"].startswith("manifest.json cannot be read: [Errno")

    @pytest.mark.parametrize("damage", list(MISTYPED_RUNS))
    def test_analyze_skips_mistyped_run_and_names_it(self, tmp_path, damage, capsys):
        manifest = {"finalized": True, "method": "Standard", "index": {}, "seed": 0}
        self.write_run(tmp_path, "good", manifest, rows_from_points([(0.7, 0.7), (0.8, 0.6)]))
        damage_run, reason = MISTYPED_RUNS[damage]
        manifest, rows = {**manifest, "seed": 1}, rows_from_points([(0.6, 0.9), (0.9, 0.5)])
        damage_run(manifest, rows)
        self.write_run(tmp_path, "damaged", manifest, rows)
        assert cli.main(["analyze", "--results_dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert f"warning: skipped 1 run(s):\n  {tmp_path / 'damaged'}: {reason}\n" in err
        selection = json.loads((tmp_path / "selection.json").read_text())
        assert [d["seed"] for d in selection["selection"]["Standard"]["per_seed"]] == [0]

    def test_pipelines_are_rows_pinned(self, tmp_path, capsys):
        for name, manifest, rows in PIPELINE_TREE:
            self.write_run(tmp_path, name, {**manifest, "finalized": True}, rows)
        assert cli.main(["analyze", "--results_dir", str(tmp_path)]) == 0
        assert (tmp_path / "results_table.md").read_text() == (
            "| Method | Performance | Fairness | DTO |\n"
            "| --- | --- | --- | --- |\n"
            "| Adv | 80.00 | 80.00 | 28.28 |\n"
            "| EAdv | 70.00 | 70.00 | 42.43 |\n"
            "| Standard | 90.00 | 60.00 | 41.23 |\n"
            "| at:Adv / post:INLP | 70.00 | 95.00 | 30.41 |\n"
            "| at:Gate / post:Gate-soft | 82.00 | 88.00 | 21.63 |\n"
            "| pre:EO-downsampling / at:Standard | 85.00 | 80.00 | 25.00 |\n")
        selection = json.loads((tmp_path / "selection.json").read_text())["selection"]
        assert {name: s["per_seed"] for name, s in selection.items()} == {
            "Adv": [{"seed": 0, "epoch": 1, "test_performance": 0.8, "test_fairness": 0.8,
                     "dev_performance": 0.8, "dev_fairness": 0.8}],
            "EAdv": [{"seed": 3, "epoch": 0, "test_performance": 0.7, "test_fairness": 0.7,
                      "dev_performance": 0.7, "dev_fairness": 0.7}],
            "at:Gate / post:Gate-soft": [{"seed": 0, "post": "Gate-soft",
                                          "test_performance": 0.82, "test_fairness": 0.88,
                                          "dev_performance": 0.8, "dev_fairness": 0.85}],
            "Standard": [{"seed": 0, "epoch": 0, "test_performance": 0.9, "test_fairness": 0.6,
                          "dev_performance": 0.9, "dev_fairness": 0.6}],
            "at:Adv / post:INLP": [{"seed": 0, "post": "INLP", "test_performance": 0.7,
                                    "test_fairness": 0.95, "dev_performance": 0.75,
                                    "dev_fairness": 0.9}],
            "pre:EO-downsampling / at:Standard": [
                {"seed": 0, "epoch": 0, "test_performance": 0.85, "test_fairness": 0.8,
                 "dev_performance": 0.85, "dev_fairness": 0.8}],
        }
        assert selection["at:Adv / post:INLP"]["index"] == {"adv_lambda": 1.0,
                                                           "inlp_iterations": 10}
        series = json.loads((tmp_path / "tradeoff.json").read_text())["series"]
        assert {s["method"]: s["epoch"] for s in series}["at:Gate / post:Gate-soft"] == [None]

    def test_missing_dir(self, tmp_path):
        runs, skipped = an.load_runs(tmp_path / "nope")
        assert runs == [] and skipped == []

    def test_analyze_runs_end_to_end(self, tmp_path):
        for seed, (p, f) in [(0, (0.8, 0.6)), (1, (0.82, 0.62))]:
            self.write_run(tmp_path, f"std{seed}",
                           {"finalized": True, "method": "Standard",
                            "index": {}, "seed": seed},
                           rows_from_points([(p, f)]))
        runs, _ = an.load_runs(tmp_path)
        table, selection = an.analyze_runs(an.group_by_pipeline(runs), an.SelectionCriterion())
        agg = table["Standard"]
        assert agg["performance_mean"] == pytest.approx(0.81)
        assert agg["n_seeds"] == 2
        assert selection["selection"]["Standard"]["index"] == {}
        assert an.emit_table(table).startswith("| Method |")
