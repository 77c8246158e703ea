import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairkit import cli, data, training
from fairkit.errors import ConfigError


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

    def test_yaml_value_outside_choices_rejected(self, tmp_path):
        conf = tmp_path / "c.yaml"
        conf.write_text(yaml.safe_dump({"optimizer": "rmsprop"}))
        with pytest.raises(ConfigError, match="optimizer"):
            cli.parse_config(["--conf_file", str(conf)])


# A non-default value for every TrainConfig field: (flag arguments, YAML value).
# encoder_architecture accepts only its default.
NON_DEFAULT = {
    "dataset": (["toy"], "toy"),
    "dataset_format": (["csv"], "csv"),
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
        if name != "encoder_architecture":
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
        index = cli.method_index(cli.parse_config(argv))
        assert index == expected
        assert list(index) == list(expected)  # key order is the sweep-index order

    def test_table_covers_every_method(self):
        assert list(INDEX_OF_METHOD) == list(training.METHODS)

    def test_adv_debiasing_flag_maps_to_adv(self):
        cfg = cli.parse_config(["--adv_debiasing", "--adv_lambda", "0.8"])
        assert cli.effective_method(cfg) == "Adv"
        assert cli.method_index(cfg) == {"adv_lambda": 0.8}

    def test_dadv_includes_diff_lambda(self):
        cfg = cli.parse_config(["--method", "DAdv", "--adv_lambda", "1.0",
                                "--diff_lambda", "0.1"])
        assert cli.method_index(cfg) == {"adv_lambda": 1.0, "diff_lambda": 0.1}

    def test_inlp_adds_iterations(self):
        cfg = cli.parse_config(["--INLP", "--inlp_iterations", "4"])
        assert cli.method_index(cfg) == {"inlp_iterations": 4}

    def test_standard_empty_index(self):
        assert cli.method_index(cli.parse_config([])) == {}


class TestGenerate:
    def test_writes_three_splits_and_spec_echo(self, tmp_path, small_spec_file):
        out = tmp_path / "data"
        rc = cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                       "--out_dir", str(out), "--name", "toy"])
        assert rc == 0
        for split in ("train", "dev", "test"):
            assert (out / f"toy_{split}.jsonl").exists()
        echo = yaml.safe_load((out / "toy_spec.yaml").read_text())
        assert echo["n_per_cell"] == SMALL_SPEC["n_per_cell"]

    def test_deterministic(self, tmp_path, small_spec_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                      "--out_dir", str(out)])
            outs.append((out / "synthetic_train.jsonl").read_text())
        assert outs[0] == outs[1]

    def test_generated_files_loadable_for_training(self, tmp_path, small_spec_file):
        out = tmp_path / "data"
        cli.main(["generate", "--synthetic_spec", str(small_spec_file),
                  "--out_dir", str(out), "--name", "toy"])
        rc = cli.main(["train", "--dataset", "toy", "--data_dir", str(out),
                       "--num_classes", "2", "--num_groups", "2",
                       "--epochs", "1", "--results_dir", str(tmp_path / "r")])
        assert rc == 0


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
            assert (run_dir / "checkpoints" / f"epoch_{e}.npz").exists()

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

    def test_checkpoint_reload_bit_identical_logits(self, tmp_path, small_spec_file):
        argv = fast_args(tmp_path, small_spec_file)
        assert cli.main(argv) == 0
        cfg = cli.parse_config(argv)
        run_dir = Path(cfg.results_dir) / cli.config_hash(cfg)
        model, _, _ = training.load_checkpoint(run_dir / "checkpoints" / "epoch_2.npz")
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
        test_file = out / "toy_test.jsonl"
        rows = [l for l in test_file.read_text().splitlines() if json.loads(l)["y"] == 0]
        test_file.write_text("\n".join(rows) + "\n")
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


def _narrow_dev(tmp_path, spec_file):
    """Generated files whose dev split has one column fewer than train."""
    argv = _generated(tmp_path, spec_file)
    dev = tmp_path / "data" / "toy_dev.jsonl"
    rows = [json.loads(line) for line in dev.read_text().splitlines()]
    dev.write_text("".join(json.dumps({**r, "X": r["X"][:-1]}) + "\n" for r in rows))
    return argv


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
}


def _conf_text(text):
    """A source with the small spec and a --conf_file that holds text."""
    def source(tmp_path, spec_file):
        path = tmp_path / "conf.yaml"
        path.write_text(text)
        return ["--synthetic_spec", str(spec_file), "--conf_file", str(path)]
    return source


# (data source, extra flags, exit code) for the declared sizes and the flags
# that change nothing
TRAIN_EXIT_CODES = {
    "files, --num_classes below the labels": (_generated, ["--num_classes", "1"], 2),
    "files, --num_groups below the labels": (_generated, ["--num_groups", "1"], 2),
    "files, --emb_size mismatch": (_generated, ["--emb_size", "5"], 2),
    "files, dev split narrower than train": (_narrow_dev, [], 2),
    "files, declared sizes above the labels": (
        _generated, ["--num_classes", "3", "--num_groups", "3"], 0),
    "spec, --num_classes below the labels": (_spec, ["--num_classes", "1"], 2),
    "spec, --emb_size mismatch": (_spec, ["--emb_size", "5"], 2),
    "spec, declared sizes above the labels": (
        _spec, ["--num_classes", "5", "--num_groups", "3"], 0),
    "generator, --num_classes 1": (lambda *_: [], ["--num_classes", "1"], 2),
    **{f"spec file {name}": (_spec_text(text), [], 2) for name, text in BAD_SPECS.items()},
    "--conf_file not YAML": (_conf_text("epochs: [\n"), [], 2),
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
        if code == 2:
            assert "config error" in capsys.readouterr().err
            assert not results.exists()

    @pytest.mark.parametrize("name", list(BAD_SPECS))
    def test_generate_with_bad_spec(self, tmp_path, name, capsys):
        path = tmp_path / "spec.yaml"
        path.write_text(BAD_SPECS[name])
        out = tmp_path / "data"
        assert cli.main(["generate", "--synthetic_spec", str(path), "--out_dir", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

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
            ckpt = Path(cfg.results_dir) / cli.config_hash(cfg) / "checkpoints" / "epoch_1.npz"
            model, _, _ = training.load_checkpoint(ckpt)
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

    def test_analyze_with_only_damaged_runs_exits_5(self, tmp_path, small_spec_file, capsys):
        results, good = self._results_with_good_run(tmp_path, small_spec_file)
        self._damaged_copy(good, "damaged", self._truncate_epochs)
        self._truncate_manifest(good)
        assert cli.main(["analyze", "--results_dir", str(results)]) == 5
        assert "skipped 2 run(s)" in capsys.readouterr().err
