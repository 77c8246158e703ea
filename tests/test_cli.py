import json
import re
import shutil
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairkit import cli, data, training
from fairkit.errors import ConfigError
from test_data import npy_bytes, readme_converters, write_csv, write_jsonl, zip_bytes


SMALL_SPEC = {
    "d": 4,
    "class_separation": 2.0,
    "group_shift": 2.0,
    "noise_sigma": 1.0,
    "seed": 0,
    "n_per_cell": {"0,0": 40, "0,1": 15, "1,0": 15, "1,1": 40},
}


@pytest.fixture
def small_spec_file(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(SMALL_SPEC))
    return path


def fast_args(tmp_path, spec_file, extra=()):
    return ["--dataset", "synthetic", "--synthetic_spec", str(spec_file),
            "--emb_size", "4", "--epochs", "2", "--batch_size", "32",
            "--results_dir", str(tmp_path / "results"), *extra]


class TestParseConfig:
    def test_defaults(self):
        cfg = cli.parse_config([])
        assert cfg.dataset == "synthetic"
        assert cfg.method == "Standard"
        assert cfg.encoder_architecture == "vector"

    def test_flag_overrides_yaml(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({"epochs": 5, "lr": 0.01}))
        cfg = cli.parse_config(["--conf_file", str(conf), "--epochs", "7"])
        assert cfg.epochs == 7      # flag wins
        assert cfg.lr == 0.01       # yaml fills the rest

    def test_yaml_overrides_default(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({"batch_size": 128}))
        cfg = cli.parse_config(["--conf_file", str(conf)])
        assert cfg.batch_size == 128

    def test_unknown_yaml_key_named_in_error(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({"learning_rate": 0.1}))
        with pytest.raises(ConfigError, match="learning_rate"):
            cli.parse_config(["--conf_file", str(conf)])

    def test_missing_conf_file(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--conf_file", "/nonexistent.yaml"])

    def test_yaml_roundtrip_identity(self, tmp_path):
        cfg = cli.parse_config(["--method", "Adv", "--adv_lambda", "0.5",
                                "--hidden_dims", "32", "16", "--seed", "3"])
        echo = tmp_path / "opt.yaml"
        echo.write_text(cfg.to_yaml())
        cfg2 = cli.parse_config(["--conf_file", str(echo)])
        assert cfg2.to_dict() == cfg.to_dict()
        assert cli.config_hash(cfg2) == cli.config_hash(cfg)

    def test_btobj_without_bt_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--BTObj", "joint"])

    def test_bt_without_btobj_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config(["--BT", "Resampling"])

    def test_nonvector_encoder_rejected(self):
        with pytest.raises(ConfigError, match="vector"):
            cli.parse_config(["--encoder_architecture", "bert"])

    def test_bad_flag_value_exit_code(self, capsys):
        assert cli.main(["--epochs", "many"]) == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            cli.parse_config(["--help"])
        assert e.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["--BT", "Resampling", "--BTObj", "y"],
        ["--method", "Adv", "--adv_lambda", "-1"],
        ["--batch_size", "0"],
        ["--hidden_dims", "0"],
        ["--seed", "-1"],
        ["--method", "EAdv", "--n_discriminators", "0"],
        ["--method", "Gate", "--gate_soft", "--gate_grid_resolution", "1"],
        ["--epochs", "-1"],
        ["--lr", "-1"],
        ["--INLP", "--inlp_iterations", "-1"],
        ["--method", "FairSCL", "--fcl_lambda_y", "1", "--temperature", "0"],
        ["--num_classes", "-1"],
    ], ids=lambda argv: " ".join(argv))
    def test_invalid_value_is_config_error_before_any_work(self, tmp_path, argv, capsys):
        results = tmp_path / "results"
        assert cli.main([*argv, "--results_dir", str(results)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not results.exists()

    @pytest.mark.parametrize("argv", [
        ["--method", "Adv", "--adv_lambda", "nan"],
        ["--method", "FairBatch", "--fairbatch_alpha", "nan"],
        ["--method", "FairSCL", "--fcl_lambda_y", "nan"],
        ["--method", "DAdv", "--diff_lambda", "nan"],
        ["--method", "FairSCL", "--fcl_lambda_y", "1", "--temperature", "inf"],
        ["--lr", "inf"],
        ["--method", "EO_CLA", "--eo_cla_lambda", "inf"],
        ["--method", "Standard", "--fcl_lambda_g", "inf"],
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_setting_is_config_error_before_any_work(self, tmp_path, argv, capsys):
        results = tmp_path / "results"
        assert cli.main([*argv, "--epochs", "1", "--results_dir", str(results)]) == 2
        assert f"config error: {argv[-2][2:]} must be finite" in capsys.readouterr().err
        assert not results.exists()

    def test_yaml_value_outside_choices_rejected(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({"optimizer": "rmsprop"}))
        with pytest.raises(ConfigError, match="optimizer"):
            cli.parse_config(["--conf_file", str(conf)])


# A non-default value for every TrainConfig field: (flag arguments, YAML value).
# encoder_architecture and dataset_format accept only their default.
NON_DEFAULT = {
    "dataset": (["toy"], "toy"),
    "dataset_format": (["npz"], "npz"),
    "emb_size": (["12"], 12),
    "num_classes": (["3"], 3),
    "num_groups": (["4"], 4),
    "encoder_architecture": (["vector"], "vector"),
    "BT": (["Reweighting"], "Reweighting"),
    "BTObj": (["g"], "g"),
    "adv_debiasing": ([], True),
    "INLP": ([], True),
    "gate_soft": ([], True),
    "method": (["FairSCL"], "FairSCL"),
    "adv_lambda": (["0.25"], 0.25),
    "n_discriminators": (["3"], 3),
    "diff_lambda": (["0.5"], 0.5),
    "fairbatch_alpha": (["0.05"], 0.05),
    "fcl_lambda_y": (["0.3"], 0.3),
    "fcl_lambda_g": (["0.2"], 0.2),
    "eo_cla_lambda": (["1.5"], 1.5),
    "inlp_iterations": (["4"], 4),
    "gate_grid_resolution": (["5"], 5),
    "epochs": (["3"], 3),
    "batch_size": (["16"], 16),
    "lr": (["0.01"], 0.01),
    "optimizer": (["sgd"], "sgd"),
    "hidden_dims": (["8", "4"], [8, 4]),
    "activation": (["tanh"], "tanh"),
    "temperature": (["0.2"], 0.2),
    "seed": (["7"], 7),
    "results_dir": (["out"], "out"),
    "data_dir": (["inputs"], "inputs"),
    "synthetic_spec": (["spec.yaml"], "spec.yaml"),
}
# fields that are only valid together with another one
COMPANIONS = {"BT": {"BTObj": "joint"}, "BTObj": {"BT": "Downsampling"},
              "gate_soft": {"method": "Gate"}}


class TestGeneratedParser:
    def test_every_field_has_a_case(self):
        assert set(NON_DEFAULT) == {f.name for f in fields(cli.TrainConfig)} - {"conf_file"}

    @pytest.mark.parametrize("name", list(NON_DEFAULT))
    def test_flag_and_yaml_give_equal_configs(self, tmp_path, name):
        flag_args, yaml_value = NON_DEFAULT[name]
        companions = COMPANIONS.get(name, {})
        argv = [f"--{name}", *flag_args]
        for key, value in companions.items():
            argv += [f"--{key}", value]
        by_flag = cli.parse_config(argv)
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({name: yaml_value, **companions}))
        by_yaml = cli.parse_config(["--conf_file", str(conf)])
        assert getattr(by_flag, name) == yaml_value
        if name not in ("encoder_architecture", "dataset_format"):
            assert getattr(cli.TrainConfig(), name) != yaml_value
        assert by_flag.to_dict() == by_yaml.to_dict()
        assert cli.config_hash(by_flag) == cli.config_hash(by_yaml)


# The sweep index of each method, for --adv_lambda 0.5 --diff_lambda 0.1
# --fairbatch_alpha 0.05 --fcl_lambda_y 0.3 --fcl_lambda_g 0.2 --eo_cla_lambda 0.7
INDEX_OF_METHOD = {
    "Standard": {},
    "Adv": {"adv_lambda": 0.5},
    "EAdv": {"adv_lambda": 0.5},
    "DAdv": {"adv_lambda": 0.5, "diff_lambda": 0.1},
    "AAdv": {"adv_lambda": 0.5},
    "ADAdv": {"adv_lambda": 0.5, "diff_lambda": 0.1},
    "Gate": {},
    "FairBatch": {"fairbatch_alpha": 0.05},
    "FairSCL": {"fcl_lambda_y": 0.3, "fcl_lambda_g": 0.2},
    "EO_CLA": {"eo_cla_lambda": 0.7},
}


class TestMethodIndex:
    @pytest.mark.parametrize("inlp", [False, True])
    @pytest.mark.parametrize("method", list(INDEX_OF_METHOD))
    def test_index_of_every_method(self, method, inlp):
        argv = ["--method", method, "--adv_lambda", "0.5", "--diff_lambda", "0.1",
                "--fairbatch_alpha", "0.05", "--fcl_lambda_y", "0.3",
                "--fcl_lambda_g", "0.2", "--eo_cla_lambda", "0.7", "--inlp_iterations", "3"]
        expected = dict(INDEX_OF_METHOD[method])
        if inlp:
            argv.append("--INLP")
            expected["inlp_iterations"] = 3
        index = cli.pipeline(cli.parse_config(argv))["index"]
        assert index == expected
        assert list(index) == list(expected)  # key order is the sweep-index order

    def test_table_covers_every_method(self):
        assert list(INDEX_OF_METHOD) == list(training.METHODS)

    def test_adv_debiasing_flag_maps_to_adv(self):
        cfg = cli.parse_config(["--adv_debiasing", "--adv_lambda", "0.8"])
        assert cli.pipeline(cfg)["method"] == "Adv"
        assert cli.pipeline(cfg)["index"] == {"adv_lambda": 0.8}

    def test_dadv_includes_diff_lambda(self):
        cfg = cli.parse_config(["--method", "DAdv", "--adv_lambda", "1.0",
                                "--diff_lambda", "0.1"])
        assert cli.pipeline(cfg)["index"] == {"adv_lambda": 1.0, "diff_lambda": 0.1}

    def test_inlp_adds_iterations(self):
        cfg = cli.parse_config(["--INLP", "--inlp_iterations", "4"])
        assert cli.pipeline(cfg)["index"] == {"inlp_iterations": 4}

    def test_standard_empty_index(self):
        assert cli.pipeline(cli.parse_config([]))["index"] == {}


# The pipeline grid at the CLI default scale with --epochs 1 and --results_dir
# results: run-directory name -> (flags, manifest method, index, stages, post rows)
PIPELINE_GRID = {
    "64e312728a42": ([], "Standard", {}, ["at:Standard"], []),
    "bf5d0cf56a85": (["--BT", "Resampling", "--BTObj", "EO", "--adv_debiasing", "--INLP"],
                     "Adv", {"adv_lambda": 1.0, "inlp_iterations": 10},
                     ["pre:EO-resampling", "at:Adv", "post:INLP"], ["INLP"]),
    "67f75e2d6031": (["--method", "Gate", "--gate_soft", "--INLP"],
                     "Gate", {"inlp_iterations": 10},
                     ["at:Gate", "post:INLP", "post:Gate-soft"], ["INLP", "Gate-soft"]),
    "a5f1d82e72f9": (["--BT", "Reweighting", "--BTObj", "joint", "--method", "FairBatch",
                      "--fairbatch_alpha", "0.05"],
                     "FairBatch", {"fairbatch_alpha": 0.05},
                     ["pre:joint-reweighting", "at:FairBatch"], []),
    "48540cd271bc": (["--method", "DAdv", "--n_discriminators", "3", "--diff_lambda", "0.1"],
                     "DAdv", {"adv_lambda": 1.0, "diff_lambda": 0.1}, ["at:DAdv"], []),
}


def test_pipeline_grid_is_pinned(tmp_path, monkeypatch, capsys):
    """Each pipeline of the grid writes its manifest's method, index (key
    order included) and stages, its post rows in stage order, and the
    run-directory name it always had; analyze names one table row each."""
    monkeypatch.chdir(tmp_path)
    for flags, *_ in PIPELINE_GRID.values():
        assert cli.main([*flags, "--epochs", "1", "--results_dir", "results"]) == 0
    results = tmp_path / "results"
    assert sorted(p.name for p in results.iterdir()) == sorted(PIPELINE_GRID)
    for name, (_, method, index, stages, post) in PIPELINE_GRID.items():
        manifest = json.loads((results / name / "manifest.json").read_text())
        assert (manifest["method"], manifest["index"], manifest["stages"]) == (
            method, index, stages), name
        assert list(manifest["index"]) == list(index), name
        rows = [json.loads(line)
                for line in (results / name / "epochs.jsonl").read_text().splitlines()]
        assert [row["post"] for row in rows if "post" in row] == post, name
    capsys.readouterr()
    assert cli.main(["analyze", "--results_dir", "results"]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert [line.split(" | ")[0][2:] for line in table[2:]] == [
        "DAdv", "Standard", "at:Gate / post:INLP / post:Gate-soft",
        "pre:EO-resampling / at:Adv / post:INLP", "pre:joint-reweighting / at:FairBatch"]


class TestGenerate:
    def test_writes_three_splits_and_spec_echo(self, tmp_path, small_spec_file):
        out = tmp_path / "data"
        rc = cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                       "--out_dir", str(out), "--name", "toy"])
        assert rc == 0
        for split in ("train", "dev", "test"):
            with np.load(out / f"toy_{split}.npz", allow_pickle=False) as z:
                assert sorted(z.files) == ["X", "protected_label", "y"]
                assert (z["X"].dtype, z["y"].dtype, z["protected_label"].dtype) == (
                    np.float64, np.int64, np.int64)
                assert z["X"].shape == (110, 4) and z["y"].shape == (110,)
        echo = yaml.safe_load((out / "toy_spec.yaml").read_text())
        assert echo["n_per_cell"] == SMALL_SPEC["n_per_cell"]

    def test_deterministic(self, tmp_path, small_spec_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                      "--out_dir", str(out)])
            outs.append((out / "synthetic_train.npz").read_bytes())
        assert outs[0] == outs[1]

    def test_generated_files_loadable_for_training(self, tmp_path, small_spec_file):
        out = tmp_path / "data"
        cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                  "--out_dir", str(out), "--name", "toy"])
        rc = cli.main(["train", "--dataset", "toy", "--data_dir", str(out),
                       "--num_classes", "2", "--num_groups", "2",
                       "--epochs", "1", "--results_dir", str(tmp_path / "r")])
        assert rc == 0

    def test_converted_jsonl_splits_train_and_analyze_alike(self, tmp_path, small_spec_file):
        """One generated dataset read as generated and as JSONL splits turned
        into .npz by README's conversion: equal epochs.jsonl bytes apart from
        checkpoint paths, and byte-identical analyze outputs."""
        generated, converted = tmp_path / "generated", tmp_path / "converted"
        for out in (generated, converted):
            assert cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                             "--out_dir", str(out), "--name", "toy"]) == 0
        for split in ("train", "dev", "test"):
            path = converted / f"toy_{split}.npz"
            write_jsonl(path.with_suffix(".jsonl"), *_split_arrays(path))
            path.unlink()
            readme_converters()[".jsonl"](path.with_suffix(".jsonl"), path)
        outputs = []
        for out in (generated, converted):
            results = tmp_path / f"{out.name}-results"
            for pipeline in ([], ["--method", "Adv"],
                             ["--method", "Gate", "--gate_soft", "--gate_grid_resolution", "5"]):
                assert cli.main(["--dataset", "toy", "--data_dir", str(out), "--epochs", "3",
                                 "--batch_size", "32", "--results_dir", str(results),
                                 *pipeline]) == 0
            analysis = tmp_path / f"{out.name}-analysis"
            assert cli.main(["analyze", "--results_dir", str(results),
                             "--output_dir", str(analysis)]) == 0
            runs = {json.loads((run / "manifest.json").read_text())["method"]:
                    re.sub(r', "checkpoint": "[^"]*"', "", (run / "epochs.jsonl").read_text())
                    for run in results.iterdir()}
            tables = {f.name: f.read_bytes() for f in analysis.iterdir()}
            outputs.append((runs, tables))
        (generated_runs, generated_tables), (converted_runs, converted_tables) = outputs
        assert sorted(generated_runs) == ["Adv", "Gate", "Standard"]
        assert generated_runs == converted_runs
        assert len(generated_tables) == 5 and generated_tables == converted_tables


class TestTrain:
    def test_happy_path_artifacts(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file)
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        assert (run_dir / "opt.yaml").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["finalized"] is True
        assert manifest["stages"] == ["at:Standard"]
        rows = [json.loads(l) for l in
                (run_dir / "epochs.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1, 2]
        for e in range(3):
            assert rows[e]["checkpoint"] == str(run_dir / "checkpoints.bin")
            training.load_checkpoint(run_dir / "checkpoints.bin", e)

    @pytest.mark.parametrize("epochs", ["1", "4"])
    @pytest.mark.parametrize("inlp", [False, True])
    def test_run_files_do_not_grow_with_epochs(self, tmp_path, small_spec_file, epochs, inlp):
        argv = fast_args(tmp_path, small_spec_file,
                         extra=["--epochs", epochs, *(["--INLP"] if inlp else [])])
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        expected = {"opt.yaml", "manifest.json", "epochs.jsonl", "checkpoints.bin",
                    *(["inlp_projection.bin"] if inlp else [])}
        assert {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")} == expected
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["files"]) == expected

    def test_rerun_identical_epochs_jsonl(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file)
        strip = lambda text: [
            {k: v for k, v in json.loads(l).items() if k != "seconds"}
            for l in text.splitlines()]
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        assert cli.main(argv) == 0
        first = strip((run_dir / "epochs.jsonl").read_text())
        assert cli.main(argv) == 0
        second = strip((run_dir / "epochs.jsonl").read_text())
        assert first == second

    def test_combined_pipeline_stages(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file,
                         extra=["--BT", "Resampling", "--BTObj", "EO",
                                "--adv_debiasing", "--adv_lambda", "0.5",
                                "--INLP", "--inlp_iterations", "2"])
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"] == ["pre:EO-resampling", "at:Adv", "post:INLP"]
        assert manifest["index"] == {"adv_lambda": 0.5, "inlp_iterations": 2}
        assert (run_dir / "inlp_projection.bin").exists()
        rows = [json.loads(l) for l in
                (run_dir / "epochs.jsonl").read_text().splitlines()]
        post = [r for r in rows if r.get("post") == "INLP"]
        assert len(post) == 1
        assert {"dev_performance", "dev_fairness",
                "test_performance", "test_fairness"} <= set(post[0])

    def test_gate_soft_stage(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file,
                         extra=["--method", "Gate", "--gate_soft",
                                "--gate_grid_resolution", "5"])
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["stages"] == ["at:Gate", "post:Gate-soft"]
        rows = [json.loads(l) for l in
                (run_dir / "epochs.jsonl").read_text().splitlines()]
        post = [r for r in rows if r.get("post") == "Gate-soft"]
        assert len(post) == 1
        assert sum(post[0]["prior"]) == pytest.approx(1.0)

    def test_post_stages_share_one_checkpoint_reload(self, tmp_path, small_spec_file,
                                                     monkeypatch):
        """INLP, then Gate-soft, each run on the one model reloaded from the
        dev-DTO-best checkpoint. Each stage function is looked up on the
        module when it runs, so a wrapper set there sees the call."""
        loads, calls = [], []
        load = training.load_checkpoint

        def counted_load(*args):
            loads.append(args)
            return load(*args)

        def recorded(name, stage):
            def run(model, *args):
                calls.append((name, model))
                return stage(model, *args)
            return run

        monkeypatch.setattr(training, "load_checkpoint", counted_load)
        for name in ("run_inlp_stage", "run_gate_soft_stage"):
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        argv = fast_args(tmp_path, small_spec_file,
                         extra=["--method", "Gate", "--gate_soft", "--INLP"])
        assert cli.main(argv) == 0
        assert len(loads) == 1
        assert [name for name, _ in calls] == ["run_inlp_stage", "run_gate_soft_stage"]
        assert calls[0][1] is calls[1][1]

    def test_checkpoint_reload_bit_identical_logits(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file)
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        model = training.load_checkpoint(run_dir / "checkpoints.bin", 2)
        spec = data.synthetic_spec_from_dict(SMALL_SPEC)
        _, dev_ds, _ = data.generate_synthetic(spec)
        mcfg = training.MethodConfig(method="Standard", epochs=2, batch_size=32,
                                     seed=cfg.seed, hidden_dims=tuple(cfg.hidden_dims))
        record = training.train(*data.generate_synthetic(spec), mcfg)
        from fairkit import nn
        np.testing.assert_array_equal(nn.forward(model, dev_ds.X).logits,
                                      nn.forward(record.model, dev_ds.X).logits)

    def test_emb_size_mismatch(self, tmp_path, small_spec_file, capsys):
        argv = fast_args(tmp_path, small_spec_file)
        argv[argv.index("--emb_size") + 1] = "16"
        assert cli.main(argv) == 2

    def test_test_split_missing_top_class_shares_label_domain(self, tmp_path, small_spec_file):
        out = tmp_path / "data"
        cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                  "--out_dir", str(out), "--name", "toy"])
        test_file = out / "toy_test.npz"
        with np.load(test_file) as z:
            keep = z["y"] == 0
            np.savez(test_file, **{key: z[key][keep] for key in z.files})
        argv = ["--dataset", "toy", "--data_dir", str(out), "--epochs", "1",
                "--results_dir", str(tmp_path / "r")]
        assert cli.main(argv) == 0
        train_ds, dev_ds, test_ds = cli.resolve_datasets(cli.parse_config(argv))
        assert {(ds.num_classes, ds.num_groups) for ds in (train_ds, dev_ds, test_ds)} == {(2, 2)}

    def test_missing_dataset_io_error(self, tmp_path, capsys):
        rc = cli.main(["--dataset", "nope", "--data_dir", str(tmp_path),
                       "--results_dir", str(tmp_path / "r")])
        assert rc == 3


class TestAnalyzeCommand:
    def test_end_to_end(self, tmp_path, small_spec_file, capsys):
        results = tmp_path / "results"
        for seed in ("0", "1"):
            assert cli.main(fast_args(tmp_path, small_spec_file,
                                      extra=["--seed", seed])) == 0
        assert cli.main(fast_args(tmp_path, small_spec_file,
                                  extra=["--adv_debiasing", "--adv_lambda", "0.5"])) == 0
        rc = cli.main(["analyze", "--results_dir", str(results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| Method |" in out
        for name in ("results_table.md", "results_table.tex", "results_table.csv",
                     "tradeoff.json", "selection.json"):
            assert (results / name).exists()
        table = (results / "results_table.csv").read_text()
        assert "Standard" in table and "Adv" in table
        selection = json.loads((results / "selection.json").read_text())
        assert len(selection["selection"]["Standard"]["per_seed"]) == 2

    def test_pipelines_are_rows(self, tmp_path, small_spec_file, capsys):
        results = tmp_path / "results"
        for extra in (["--method", "Adv"], ["--method", "Adv", "--INLP"], [],
                      ["--BT", "Downsampling", "--BTObj", "EO"],
                      ["--method", "Gate", "--gate_soft", "--gate_grid_resolution", "5"]):
            assert cli.main(fast_args(tmp_path, small_spec_file, extra=extra)) == 0
        assert cli.main(["analyze", "--results_dir", str(results)]) == 0
        selection = json.loads((results / "selection.json").read_text())["selection"]
        assert sorted(selection) == ["Adv", "Standard", "at:Adv / post:INLP",
                                     "at:Gate / post:Gate-soft",
                                     "pre:EO-downsampling / at:Standard"]
        assert [d["post"] for d in selection["at:Gate / post:Gate-soft"]["per_seed"]] == [
            "Gate-soft"]
        (gate_dir,) = [m.parent for m in results.glob("*/manifest.json")
                       if "post:Gate-soft" in m.read_text()]
        post = json.loads((gate_dir / "epochs.jsonl").read_text().splitlines()[-1])
        (chosen,) = selection["at:Gate / post:Gate-soft"]["per_seed"]
        assert chosen["test_performance"] == post["test_performance"]
        assert chosen["test_fairness"] == post["test_fairness"]

    def test_empty_results_dir_exit_code(self, tmp_path, capsys):
        assert cli.main(["analyze", "--results_dir", str(tmp_path / "none")]) == 5

    def test_unfinalized_runs_warned_and_skipped(self, tmp_path, small_spec_file, capsys):
        results = tmp_path / "results"
        assert cli.main(fast_args(tmp_path, small_spec_file)) == 0
        stale = results / "deadbeef0000"
        stale.mkdir()
        (stale / "manifest.json").write_text(json.dumps(
            {"finalized": False, "method": "Adv", "index": {}, "seed": 0}))
        assert cli.main(["analyze", "--results_dir", str(results)]) == 0
        assert "skipped 1" in capsys.readouterr().err


def _generated(tmp_path, spec_file):
    """Files written by `fairkit generate` from the 2-class, 2-group, d=4 spec."""
    out = tmp_path / "data"
    assert cli.main(["generate", "--synthetic_spec", str(spec_file),
                     "--out_dir", str(out), "--name", "toy"]) == 0
    return ["--dataset", "toy", "--data_dir", str(out)]


def _split_arrays(path):
    """X, y and protected_label of an .npz split."""
    with np.load(path, allow_pickle=False) as z:
        return z["X"], z["y"], z["protected_label"]


def _text_only(write, suffix):
    """The generated splits written by write(path, X, y, g) as text files of
    suffix in place of the .npz ones."""
    def source(tmp_path, spec_file):
        argv = _generated(tmp_path, spec_file)
        for split in ("train", "dev", "test"):
            path = tmp_path / "data" / f"toy_{split}.npz"
            write(path.with_suffix(suffix), *_split_arrays(path))
            path.unlink()
        return argv
    return source


def _converted(write, suffix):
    """The generated splits written by write(path, X, y, g) as text files of
    suffix, then turned back into .npz files by README's conversion."""
    def source(tmp_path, spec_file):
        argv = _text_only(write, suffix)(tmp_path, spec_file)
        for split in ("train", "dev", "test"):
            text = tmp_path / "data" / f"toy_{split}{suffix}"
            readme_converters()[suffix](text, text.with_suffix(".npz"))
        return argv
    return source


def _damaged_npz(split, damage):
    """Generated files whose split's .npz holds damage(X, y, g): the arrays
    of a dict, saved as np.savez saves them, or the file's bytes."""
    def source(tmp_path, spec_file):
        argv = _generated(tmp_path, spec_file)
        path = tmp_path / "data" / f"toy_{split}.npz"
        content = damage(*_split_arrays(path))
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_bytes(zip_bytes({f"{key}.npy": npy_bytes(a) for key, a in content.items()}))
        return argv
    return source


# Generated files whose dev split has one column fewer than train
_narrow_dev = _damaged_npz("dev", lambda X, y, g: {"X": X[:, :-1], "y": y, "protected_label": g})


def _with_value(a, value):
    """a as float, its first entry value."""
    a = a.astype(float)
    a.flat[0] = value
    return a


# Damage to an .npz split, as (X, y, g) -> arrays or file bytes
DAMAGED_NPZ = {
    "not a zip": ("train", lambda X, y, g: b"X,y,protected_label\n0.5,0,1\n"),
    "an empty file": ("dev", lambda X, y, g: b""),
    "a missing y key": ("train", lambda X, y, g: {"X": X, "protected_label": g}),
    "an object X (pickled)": ("train", lambda X, y, g: {"X": X.astype(object), "y": y,
                                                        "protected_label": g}),
    "a bool feature": ("train", lambda X, y, g: {"X": X > 0, "y": y, "protected_label": g}),
    "a bool label": ("test", lambda X, y, g: {"X": X, "y": y == 1, "protected_label": g}),
    "a float label": ("train", lambda X, y, g: {"X": X, "y": y.astype(float),
                                               "protected_label": g}),
    "a NaN feature": ("train", lambda X, y, g: {"X": _with_value(X, np.nan), "y": y,
                                               "protected_label": g}),
    "an inf feature": ("dev", lambda X, y, g: {"X": _with_value(X, np.inf), "y": y,
                                              "protected_label": g}),
    "a 1-D X": ("train", lambda X, y, g: {"X": X[:, 0].copy(), "y": y, "protected_label": g}),
    "an X of no features": ("dev", lambda X, y, g: {"X": X[:, :0].copy(), "y": y,
                                                    "protected_label": g}),
    "X and y of different lengths": ("train", lambda X, y, g: {"X": X, "y": y[:-1],
                                                              "protected_label": g}),
    "a negative protected_label": ("test", lambda X, y, g: {"X": X, "y": y,
                                                           "protected_label": g - 1}),
    "zero rows": ("train", lambda X, y, g: {"X": X[:0], "y": y[:0], "protected_label": g[:0]}),
    "a y of 2**63 (uint64)": ("test", lambda X, y, g: {
        "X": X, "y": np.r_[y[:-1].astype(np.uint64), np.uint64(2**63)], "protected_label": g}),
    "a protected_label of 2**63 (uint64)": ("dev", lambda X, y, g: {
        "X": X, "y": y, "protected_label": np.r_[g[:-1].astype(np.uint64), np.uint64(2**63)]}),
    "a (10**15, 768) X header over 64 bytes": ("train", lambda X, y, g: zip_bytes({
        "X.npy": npy_bytes(header={"descr": "<f8", "fortran_order": False,
                              "shape": (10**15, 768)}, data=bytes(64)),
        "y.npy": npy_bytes(y), "protected_label.npy": npy_bytes(g)})),
}


def _spec(tmp_path, spec_file):
    return ["--synthetic_spec", str(spec_file)]


def _spec_text(text):
    """A source whose --synthetic_spec file holds text."""
    def source(tmp_path, spec_file):
        path = tmp_path / "spec_text.yaml"
        path.write_text(text)
        return ["--synthetic_spec", str(path)]
    return source


BAD_SPECS = {
    "empty": "",
    "a YAML list": "- 1\n",
    "not YAML": "n_per_cell: [\n",
    "one class": yaml.safe_dump({"n_per_cell": {"0,0": 5, "0,1": 5}}),
    "n_per_cell a list": yaml.safe_dump({"n_per_cell": [1, 2]}),
    "cell key not integers": yaml.safe_dump({"n_per_cell": {"a,b": 1}}),
    "negative class key": yaml.safe_dump({"n_per_cell": {"-1,0": 5, "0,1": 5, "1,0": 5,
                                                         "1,1": 5}}),
    "negative group key": yaml.safe_dump({"n_per_cell": {"0,0": 5, "0,-2": 5, "1,0": 5,
                                                         "1,1": 5}}),
    **{f"{key} {value!r}": yaml.safe_dump({"n_per_cell": {"0,0": 5, "0,1": 5, "1,0": 5, "1,1": 5},
                                           key: value})
       for key, value in (("d", "x"), ("d", 4.5), ("seed", -1), ("noise_sigma", "x"),
                          ("group_shift", float("nan")))},
}


def _conf_text(text):
    """A source with the small spec and a --conf_file that holds text."""
    def source(tmp_path, spec_file):
        path = tmp_path / "conf.yaml"
        path.write_text(text)
        return ["--synthetic_spec", str(spec_file), "--conf_file", str(path)]
    return source


# --conf_file lines the flags would refuse: null outside the `| None` fields,
# a bool outside the bool fields, a non-integral or infinite number for an int
# field, and a list or mapping for a scalar one
BAD_CONF_LINES = [
    "method: null", "lr: null", "optimizer: null", "activation: null", "hidden_dims: null",
    "inlp_iterations: null", "dataset: null", "INLP: null", "epochs: true", "lr: true",
    "dataset: true", "hidden_dims: [true]", "hidden_dims: [1.5]", "hidden_dims: 16",
    "hidden_dims: '16'", "epochs: 1.7", "emb_size: 4.5", "gate_grid_resolution: 2.9",
    "epochs: .inf", f"adv_lambda: {10**400}", "dataset: [toy]", "seed: {a: 1}",
]

# (data source, extra flags, exit code) for the declared sizes, the flags
# that change nothing and training that diverges
TRAIN_EXIT_CODES = {
    "files, --num_classes below the labels": (_generated, ["--num_classes", "1"], 2),
    "files, --num_groups below the labels": (_generated, ["--num_groups", "1"], 2),
    "files, --emb_size mismatch": (_generated, ["--emb_size", "5"], 2),
    "files, dev split narrower than train": (_narrow_dev, [], 2),
    "files, declared sizes above the labels": (
        _generated, ["--num_classes", "3", "--num_groups", "3"], 0),
    "files, --dataset_format jsonl": (_generated, ["--dataset_format", "jsonl"], 2),
    "files, dataset_format: csv in --conf_file": (_conf_text("dataset_format: csv\n"), [], 2),
    **{f"npz files, {name}": (_damaged_npz(split, damage), [], 1)
       for name, (split, damage) in DAMAGED_NPZ.items()},
    "jsonl files only, no --dataset_format": (_text_only(write_jsonl, ".jsonl"), [], 3),
    "csv files only, no --dataset_format": (_text_only(write_csv, ".csv"), [], 3),
    "csv files, converted as README shows": (_converted(write_csv, ".csv"), [], 0),
    "spec, --num_classes below the labels": (_spec, ["--num_classes", "1"], 2),
    "spec, --emb_size mismatch": (_spec, ["--emb_size", "5"], 2),
    "spec, declared sizes above the labels": (
        _spec, ["--num_classes", "5", "--num_groups", "3"], 0),
    "generator, --num_classes 1": (lambda *_: [], ["--num_classes", "1"], 2),
    **{f"spec file {name}": (_spec_text(text), [], 2) for name, text in BAD_SPECS.items()},
    "--conf_file not YAML": (_conf_text("epochs: [\n"), [], 2),
    **{f"--conf_file {line[:30]}": (_conf_text(line + "\n"), [], 2) for line in BAD_CONF_LINES},
    "--conf_file BT: null": (_conf_text("BT: null\n"), [], 0),
    "--conf_file hidden_dims: [8.0]": (_conf_text("hidden_dims: [8.0]\n"), [], 0),
    "Adv, --adv_lambda 1e308 overflows Adam": (
        _spec, ["--method", "Adv", "--adv_lambda", "1e308"], 4),
    "FairSCL, --temperature 1e-300 overflows Adam": (
        _spec, ["--method", "FairSCL", "--fcl_lambda_y", "1", "--temperature", "1e-300"], 4),
    "--lr 1e308 overflows the Adam step": (_spec, ["--lr", "1e308"], 4),
    "--optimizer sgd --lr 1e300 overflows the step": (
        _spec, ["--optimizer", "sgd", "--lr", "1e300"], 4),
    "spec, --num_classes 3 empties a joint cell": (
        _spec, ["--num_classes", "3", "--BT", "Downsampling", "--BTObj", "joint"], 2),
    "spec, --num_classes 3 with EO downsampling": (
        _spec, ["--num_classes", "3", "--BT", "Downsampling", "--BTObj", "EO"], 0),
    "Adv with --gate_soft": (_spec, ["--method", "Adv", "--gate_soft"], 2),
    "Standard with --gate_soft": (_spec, ["--gate_soft"], 2),
    "--adv_debiasing --gate_soft": (_spec, ["--adv_debiasing", "--gate_soft"], 2),
    "Gate with --gate_soft": (_spec, ["--method", "Gate", "--gate_soft"], 0),
    **{f"{m} with --adv_debiasing": (_spec, ["--method", m, "--adv_debiasing"], 2)
       for m in training.METHODS if m not in ("Standard", "Adv")},
    "Adv with --adv_debiasing": (_spec, ["--method", "Adv", "--adv_debiasing"], 0),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", list(TRAIN_EXIT_CODES))
    def test_train(self, tmp_path, small_spec_file, case, capsys):
        source, flags, code = TRAIN_EXIT_CODES[case]
        results = tmp_path / "results"
        argv = [*source(tmp_path, small_spec_file), *flags, "--epochs", "1",
                "--results_dir", str(results)]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code == 2:
            assert "config error" in err
        if code == 1:  # a damaged split names its .npz file
            assert re.search(r"\.npz: ", err)
        if code == 3:  # a text split where the .npz is missing is named
            assert re.search(r"toy_train\.npz; \S+toy_train\.(jsonl|csv) exists, but splits "
                             r"are read as \.npz only", err)
        if code == 4:  # a diverged run stays visibly unfinalized
            (run_dir,) = results.iterdir()
            assert json.loads((run_dir / "manifest.json").read_text())["finalized"] is False
        elif code != 0:
            assert not results.exists()

    @pytest.mark.parametrize("name", list(BAD_SPECS))
    def test_generate_with_bad_spec(self, tmp_path, name, capsys):
        path = tmp_path / "spec.yaml"
        path.write_text(BAD_SPECS[name])
        out = tmp_path / "data"
        assert cli.main(["generate", "--synthetic_spec", str(path), "--out_dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["-1,0", "0,-2"])
    @pytest.mark.parametrize("command", ["train", "generate"])
    def test_negative_cell_key_is_named(self, tmp_path, command, key, capsys):
        path = tmp_path / "spec.yaml"
        cells = {k: 5 for k in ("0,0", "0,1", "1,0", "1,1")}
        path.write_text(yaml.safe_dump({"n_per_cell": {**cells, key: 5}}))
        out = tmp_path / "out"
        argv = (["--synthetic_spec", str(path), "--epochs", "1", "--results_dir", str(out)]
                if command == "train" else
                ["generate", "--synthetic_spec", str(path), "--out_dir", str(out)])
        assert cli.main(argv) == 2
        assert f"n_per_cell key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_with_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli.main(["generate", "--out_dir", str(out), "--seed", "-1"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1"])
    def test_analyze_threshold_out_of_range(self, tmp_path, small_spec_file, threshold, capsys):
        results, _ = self._results_with_good_run(tmp_path, small_spec_file)
        out = tmp_path / "tables"
        argv = ["analyze", "--results_dir", str(results), "--output_dir", str(out),
                "--selection_criterion", "ConstrainedFairness", "--threshold", threshold]
        assert cli.main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["DTO", "ConstrainedFairness", "ConstrainedPerformance"])
    def test_analyze_non_finite_threshold(self, tmp_path, small_spec_file, kind, threshold,
                                          capsys):
        results, _ = self._results_with_good_run(tmp_path, small_spec_file)
        out = tmp_path / "tables"
        argv = ["analyze", "--results_dir", str(results), "--output_dir", str(out),
                "--selection_criterion", kind, f"--threshold={threshold}"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: threshold must be finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_nan_score_at_a_row_write_exits_4(self, tmp_path, small_spec_file, monkeypatch,
                                              capsys):
        evaluate, reports = training.evaluate_predictions, []

        def nan_fairness_at_epoch_1(*args, **kwargs):
            reports.append(evaluate(*args, **kwargs))  # dev, then test, per row
            return replace(reports[-1], fairness=float("nan")) if len(reports) == 3 \
                else reports[-1]

        monkeypatch.setattr(training, "evaluate_predictions", nan_fairness_at_epoch_1)
        results = tmp_path / "results"
        assert cli.main(fast_args(tmp_path, small_spec_file)) == 4
        err = capsys.readouterr().err
        assert "non-finite dev_fairness in the epoch 1 row" in err and "Traceback" not in err
        (run_dir,) = results.iterdir()
        rows = [json.loads(line) for line in (run_dir / "epochs.jsonl").read_text().splitlines()]
        assert [row["epoch"] for row in rows] == [0]
        monkeypatch.undo()
        assert cli.main(["analyze", "--results_dir", str(results)]) == 5
        assert f"{run_dir}: unfinalized" in capsys.readouterr().err

    @pytest.mark.parametrize("declared", [[], ["--num_classes", "5", "--num_groups", "3"]])
    def test_declared_sizes_are_the_label_domain_of_every_split(
            self, tmp_path, small_spec_file, declared):
        for source in (_generated, _spec):
            argv = [*source(tmp_path, small_spec_file), *declared, "--epochs", "1",
                    "--results_dir", str(tmp_path / "results")]
            cfg = cli.parse_config(argv)
            expected = (5, 3) if declared else (2, 2)
            assert {(ds.num_classes, ds.num_groups)
                    for ds in cli.resolve_datasets(cfg)} == {expected}
            assert cli.main(argv) == 0
            ckpt = Path(cfg.results_dir) / cli.config_hash(cfg) / "checkpoints.bin"
            model = training.load_checkpoint(ckpt, 1)
            assert model.spec.output_dim == expected[0]

    def _results_with_good_run(self, tmp_path, spec_file):
        results = tmp_path / "results"
        assert cli.main(fast_args(tmp_path, spec_file)) == 0
        (good,) = [p for p in results.iterdir()]
        return results, good

    def _damaged_copy(self, good, name, damage):
        bad = good.parent / name
        shutil.copytree(good, bad)
        damage(bad)
        return bad

    @staticmethod
    def _truncate_manifest(run_dir):
        (run_dir / "manifest.json").write_text('{"finalized": tr')

    @staticmethod
    def _truncate_epochs(run_dir):
        path = run_dir / "epochs.jsonl"
        path.write_bytes(path.read_bytes()[:-20])

    @pytest.mark.parametrize("damage", ["_truncate_manifest", "_truncate_epochs"])
    def test_analyze_skips_damaged_run(self, tmp_path, small_spec_file, damage, capsys):
        results, good = self._results_with_good_run(tmp_path, small_spec_file)
        bad = self._damaged_copy(good, "damaged", getattr(self, damage))
        assert cli.main(["analyze", "--results_dir", str(results)]) == 0
        err = capsys.readouterr().err
        assert "skipped 1 run(s)" in err
        assert f"{bad}: " in err and "does not parse" in err
        selection = json.loads((results / "selection.json").read_text())
        assert len(selection["selection"]["Standard"]["per_seed"]) == 1

    def test_analyze_with_only_mistyped_runs_exits_5(self, tmp_path, small_spec_file, capsys):
        results, good = self._results_with_good_run(tmp_path, small_spec_file)
        bad = self._damaged_copy(good, "damaged", self._null_seed)
        self._text_fairness(good)
        assert cli.main(["analyze", "--results_dir", str(results)]) == 5
        err = capsys.readouterr().err
        assert "skipped 2 run(s)" in err
        assert f"{bad}: manifest.json seed is not an integer: None" in err
        assert f"{good}: epochs.jsonl line 1 has no numeric dev_fairness" in err

    @staticmethod
    def _null_seed(run_dir):
        path = run_dir / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "seed": None}))

    @staticmethod
    def _text_fairness(run_dir):
        path = run_dir / "epochs.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["dev_fairness"] = "x"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

    def test_analyze_with_only_damaged_runs_exits_5(self, tmp_path, small_spec_file, capsys):
        results, good = self._results_with_good_run(tmp_path, small_spec_file)
        self._damaged_copy(good, "damaged", self._truncate_epochs)
        self._truncate_manifest(good)
        assert cli.main(["analyze", "--results_dir", str(results)]) == 5
        assert "skipped 2 run(s)" in capsys.readouterr().err

    def test_analyze_skips_a_pipeline_whose_runs_disagree_on_index_keys(
            self, tmp_path, small_spec_file, capsys):
        results, good = self._results_with_good_run(tmp_path, small_spec_file)
        for lam in ("0.5", "1.0"):
            assert cli.main(fast_args(tmp_path, small_spec_file,
                                      extra=["--method", "Adv", "--adv_lambda", lam])) == 0
        adv = sorted(p.parent for p in results.glob("*/manifest.json") if p.parent != good)
        path = adv[0] / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "index": {}}))
        assert cli.main(["analyze", "--results_dir", str(results)]) == 0
        err = capsys.readouterr().err
        assert "skipped 2 run(s)" in err
        for run_dir in adv:
            assert (f"{run_dir}: the runs of Adv disagree on index keys: "
                    "[(), ('adv_lambda',)]") in err
        selection = json.loads((results / "selection.json").read_text())
        assert list(selection["selection"]) == ["Standard"]
        shutil.rmtree(good)
        assert cli.main(["analyze", "--results_dir", str(results)]) == 5


# --conf_file text for a network with no hidden layer -> exit code
NO_HIDDEN_LAYER = {
    "Adv": ("method: Adv\n", 2),
    "FairSCL": ("method: FairSCL\nfcl_lambda_y: 0.5\n", 2),
    "ADAdv, 2 discriminators": ("method: ADAdv\nn_discriminators: 2\ndiff_lambda: 0.1\n", 2),
    "Adv at adv_lambda 0": ("method: Adv\nadv_lambda: 0.0\n", 0),
    "Standard": ("method: Standard\nfcl_lambda_y: 0.5\n", 0),
    "EO_CLA": ("method: EO_CLA\neo_cla_lambda: 0.5\n", 0),
}


@pytest.mark.parametrize("case", list(NO_HIDDEN_LAYER))
def test_hidden_level_term_without_hidden_layer_is_config_error(tmp_path, small_spec_file,
                                                                case, capsys):
    """A method whose loss reaches the hidden layer needs one, which is
    checked before any run directory is made; a method that adds no such
    term, or adds it at weight 0, trains without one."""
    text, code = NO_HIDDEN_LAYER[case]
    results = tmp_path / "results"
    argv = [*_conf_text(f"hidden_dims: []\n{text}")(tmp_path, small_spec_file),
            "--epochs", "1", "--results_dir", str(results)]
    assert cli.main(argv) == code
    if code == 2:
        assert "needs at least one hidden layer" in capsys.readouterr().err
        assert not results.exists()


@pytest.mark.parametrize("iterations, code", [("10", 2), ("0", 0)])
def test_inlp_on_a_train_split_of_one_group(tmp_path, small_spec_file, iterations, code, capsys):
    """INLP's probe needs two groups in the train split, checked before any
    run directory is made; with no iterations no probe is fit, so the run
    goes ahead."""
    source = _damaged_npz("train", lambda X, y, g: {"X": X, "y": y,
                                                    "protected_label": np.zeros_like(g)})
    results = tmp_path / "results"
    argv = [*source(tmp_path, small_spec_file), "--INLP", "--inlp_iterations", iterations,
            "--epochs", "1", "--results_dir", str(results)]
    assert cli.main(argv) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "config error: --INLP" in err and "two groups" in err
        assert not results.exists()
