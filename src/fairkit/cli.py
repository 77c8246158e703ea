"""Command-line entry points and configuration management.

Flag precedence: command line > YAML (--conf_file) > defaults. The resolved
config is echoed to opt.yaml inside each run directory, and reloading that
file reproduces the run exactly.

Exit codes: 0 success, 1 invalid data file, 2 config error, 3 IO error,
4 training diverged, 5 analysis found no usable runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import analysis, data, nn, postproc, training
from .errors import (
    ConfigError,
    DegenerateProbeError,
    EmptyCellError,
    EmptyInputError,
    FairkitError,
    IOErrorWithStage,
    SpecError,
    TrainingDivergedError,
)
from .files import write_atomic

TOOLKIT_VERSION = "0.1.0"

BTOBJ_TO_OBJECTIVE = {"joint": "joint", "y": "y", "g": "g", "EO": "eo"}


@dataclass
class TrainConfig(training.Settings):
    """The training settings, then the data, pipeline and output fields."""
    dataset: str = "synthetic"
    dataset_format: str = "npz"
    emb_size: int = 0
    num_classes: int = 0
    num_groups: int = 0
    encoder_architecture: str = "vector"
    BT: str | None = None
    BTObj: str | None = None
    adv_debiasing: bool = False
    INLP: bool = False
    gate_soft: bool = False
    inlp_iterations: int = 10
    gate_grid_resolution: int = 11
    results_dir: str = "results"
    data_dir: str = "data"
    synthetic_spec: str | None = None
    conf_file: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("conf_file")
        return d

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


_CONFIG_FIELDS = {f.name: f for f in fields(TrainConfig)}


# The allowed values of each field that has a fixed set, for flags and YAML alike
_CHOICES = {
    "dataset_format": ["npz"],
    "BT": list(data.MODES),
    "BTObj": list(BTOBJ_TO_OBJECTIVE),
    "method": list(training.METHODS),
    "optimizer": list(nn.OPTIMIZERS),
    "activation": list(nn.ACTIVATIONS),
}


def _build_parser() -> argparse.ArgumentParser:
    """One flag per TrainConfig field, in field order."""
    p = argparse.ArgumentParser(prog="fairkit", add_help=True)
    for f in fields(TrainConfig):
        flag = f"--{f.name}"
        if f.type == "bool":
            p.add_argument(flag, action="store_const", const=True)
        elif f.name == "hidden_dims":
            p.add_argument(flag, type=int, nargs="+")
        else:
            p.add_argument(flag, type={"int": int, "float": float}.get(f.type, str),
                           choices=_CHOICES.get(f.name))
    return p


def parse_config(argv: list[str]) -> TrainConfig:
    """defaults < YAML (--conf_file) < command-line flags."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        if e.code == 0:  # --help
            raise
        raise ConfigError(f"could not parse arguments: {argv}") from None
    cfg = TrainConfig()
    if ns.conf_file is not None:
        path = Path(ns.conf_file)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(path.read_text()) or {}
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: not valid YAML: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a mapping at top level")
        for key, value in raw.items():
            if key not in _CONFIG_FIELDS or key == "conf_file":
                raise ConfigError(f"unknown config key {key!r} in {path}")
            setattr(cfg, key, _coerce(key, value))
        cfg.conf_file = str(path)
    for key in _CONFIG_FIELDS:
        if key == "conf_file":
            continue
        value = getattr(ns, key, None)
        if value is not None:
            setattr(cfg, key, _coerce(key, value))
    _validate(cfg)
    return cfg


def _coerce(key: str, value):
    """A flag or YAML value as its field's type. None fits only a `| None`
    field, a bool only a bool field, an int field takes integral numbers,
    and a scalar field takes no list or mapping."""
    kind = _CONFIG_FIELDS[key].type
    if value is None and kind.endswith(" | None"):
        return None
    try:
        if key == "hidden_dims":
            if not isinstance(value, list):
                raise ValueError
            return [_scalar("int", v) for v in value]
        return _scalar(kind.removesuffix(" | None"), value)
    except (ValueError, OverflowError):
        raise ConfigError(f"config key {key!r}: expected {kind}, got {value!r}") from None


def _scalar(kind: str, value):
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, (int, float, str)):
        raise ValueError
    if kind == "int" and isinstance(value, float) and not value.is_integer():
        raise ValueError
    return {"int": int, "float": float, "str": str}.get(kind, bool)(value)


def pipeline(cfg: TrainConfig) -> dict:
    """The run's method (--adv_debiasing is an alias of Adv), sweep index (the
    method's trade-offs in sweep order, then inlp_iterations when INLP runs)
    and stages in the order they run, as its manifest records them."""
    method = "Adv" if cfg.adv_debiasing else cfg.method
    index = {name: getattr(cfg, name) for name in training.METHODS[method].tradeoffs}
    stages = [f"at:{method}"]
    if cfg.BT is not None:
        stages.insert(0, f"pre:{cfg.BTObj}-{cfg.BT.lower()}")
    if cfg.INLP:
        index["inlp_iterations"] = cfg.inlp_iterations
        stages.append("post:INLP")
    if cfg.gate_soft:
        stages.append("post:Gate-soft")
    return {"method": method, "index": index, "stages": stages}


def _validate(cfg: TrainConfig):
    if cfg.encoder_architecture != "vector":
        raise ConfigError(
            f"encoder_architecture {cfg.encoder_architecture!r} is not supported; "
            "this toolkit consumes precomputed fixed-dimension vectors (use 'vector')")
    for key, choices in _CHOICES.items():
        value = getattr(cfg, key)
        if value is not None and value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
    for key, low in (("emb_size", 0), ("num_classes", 0), ("num_groups", 0),
                     ("inlp_iterations", 0), ("gate_grid_resolution", 2)):
        if getattr(cfg, key) < low:
            raise ConfigError(f"--{key} must be >= {low}")
    try:
        settings = method_config(cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    # The stage checks that need the config alone. A flag that would change
    # nothing is an error too.
    if (cfg.BT is None) != (cfg.BTObj is None):
        raise ConfigError("--BT and --BTObj go together (a balancing mode and its objective)")
    if cfg.BTObj == "y" and cfg.BT != "Downsampling":
        raise ConfigError("--BTObj y is defined by downsampling; use --BT Downsampling")
    if cfg.adv_debiasing and cfg.method not in ("Standard", "Adv"):
        raise ConfigError(f"--adv_debiasing works only with --method Standard or Adv, "
                          f"not {cfg.method}")
    if cfg.gate_soft and not training.METHODS[settings.method].group_heads:
        raise ConfigError("--gate_soft needs --method Gate")
    # training.main_loss_and_grads' rule; a weight the method does not list is 0 here
    if not settings.hidden_dims and max(settings.adv_lambda, settings.fcl_lambda_y,
                                        settings.fcl_lambda_g) > 0:
        raise ConfigError(f"--method {settings.method} adds a hidden-level loss term, "
                          "which needs at least one hidden layer (--hidden_dims)")


def method_config(cfg: TrainConfig) -> training.MethodConfig:
    """The training settings of cfg, with the pipeline's method. Raises
    ValueError for an invalid value."""
    settings = {f.name: getattr(cfg, f.name) for f in fields(training.Settings)}
    return training.MethodConfig(**{**settings, "method": pipeline(cfg)["method"]})


def config_hash(cfg: TrainConfig) -> str:
    return _text_hash(cfg.to_yaml())


def _text_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Dataset resolution

def default_synthetic_spec(cfg: TrainConfig) -> data.SyntheticSpec:
    """Biased default: majority cells where the group index matches the
    class (mod num_groups), moderate group leakage."""
    nc = max(2, cfg.num_classes)
    ng = max(2, cfg.num_groups)
    cells = {(c, g): (300 if g == c % ng else 100) for c in range(nc) for g in range(ng)}
    return data.SyntheticSpec(n_per_cell=cells, d=cfg.emb_size or 8,
                              class_separation=1.5, group_shift=2.5,
                              noise_sigma=1.0, seed=cfg.seed)


def load_synthetic_spec(path, seed: int | None = None) -> data.SyntheticSpec:
    """The generator spec in a YAML file, with seed overriding its own if given.
    A file that is empty, not a mapping or not a valid spec is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise IOErrorWithStage(f"synthetic spec not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
        if not isinstance(raw, dict):
            raise SpecError("expected a mapping of spec keys at top level")
        if seed is not None:
            raw["seed"] = seed
        return data.synthetic_spec_from_dict(raw)
    except (SpecError, yaml.YAMLError) as e:
        raise ConfigError(f"synthetic spec {path}: {e}") from None


def resolve_datasets(cfg: TrainConfig) -> tuple[data.Dataset, data.Dataset, data.Dataset]:
    if cfg.dataset == "synthetic":
        spec = (load_synthetic_spec(cfg.synthetic_spec) if cfg.synthetic_spec
                else default_synthetic_spec(cfg))
        return _declared_sizes(cfg, data.generate_synthetic(spec))
    splits = []
    for split in ("train", "dev", "test"):
        path = Path(cfg.data_dir) / f"{cfg.dataset}_{split}.npz"
        if not path.exists():
            hint = "".join(f"; {other} exists, but splits are read as .npz only "
                           "(README, Data files, shows how to convert it)"
                           for other in map(path.with_suffix, (".jsonl", ".csv"))
                           if other.exists())
            raise IOErrorWithStage(f"dataset file not found: {path}{hint}")
        splits.append(data.load_dataset(path, split=split))
    return _declared_sizes(cfg, splits)


def _declared_sizes(cfg: TrainConfig, splits) -> tuple[data.Dataset, data.Dataset, data.Dataset]:
    """One rule for every data source: the three splits share one dim, which
    --emb_size must equal if set, and one label domain, which is --num_classes
    and --num_groups if set (at least the largest label found + 1), else the
    largest found. Raises ConfigError otherwise."""
    dims = [ds.dim for ds in splits]
    if len(set(dims)) > 1:
        raise ConfigError(f"train, dev and test splits have dims {dims}; they must agree")
    if cfg.emb_size and cfg.emb_size != dims[0]:
        raise ConfigError(f"--emb_size {cfg.emb_size} does not match data dim {dims[0]}")
    domain = {}
    for key in ("num_classes", "num_groups"):
        found = max(getattr(ds, key) for ds in splits)
        declared = getattr(cfg, key)
        if declared and declared < found:
            raise ConfigError(f"--{key} {declared} is too small: the data has labels "
                              f"up to {found - 1}")
        domain[key] = declared or found
    return tuple(replace(ds, **domain) for ds in splits)


# ---------------------------------------------------------------------------
# Commands

def cmd_train(cfg: TrainConfig) -> int:
    train_ds, dev_ds, test_ds = resolve_datasets(cfg)
    # The stage checks that need the data, before the run directory, so that
    # a run they refuse makes none: the --BT balancing, and the groups the INLP
    # probe needs in the balanced train split.
    if cfg.BT is not None:
        try:
            train_ds = data.balance(train_ds, BTOBJ_TO_OBJECTIVE[cfg.BTObj], cfg.BT,
                                    seed=cfg.seed)
        except EmptyCellError as e:
            raise ConfigError(f"--BT {cfg.BT} --BTObj {cfg.BTObj}: {e}") from None
    if cfg.INLP and cfg.inlp_iterations > 0:
        try:
            postproc.probe_classes(train_ds.g)
        except DegenerateProbeError as e:
            raise ConfigError(f"--INLP on the train split: {e}") from None

    opt_yaml = cfg.to_yaml()
    run_dir = Path(cfg.results_dir) / _text_hash(opt_yaml)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "opt.yaml").write_text(opt_yaml)

    manifest = {
        "version": TOOLKIT_VERSION,
        **pipeline(cfg),
        "seed": cfg.seed,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "finalized": False,
    }
    manifest_path = run_dir / "manifest.json"
    write_atomic(manifest_path, json.dumps(manifest, indent=2, allow_nan=False).encode())

    record = training.train(train_ds, dev_ds, test_ds, method_config(cfg), run_dir=run_dir)

    # Every post stage starts from the one checkpoint at the dev-DTO-best epoch.
    # The stage functions are looked up per run, so a wrapper set on the
    # module attribute sees the call.
    post = [stage for stage in manifest["stages"] if stage.startswith("post:")]
    model = _select_model(record) if post else None
    for stage in post:
        run_stage = {"post:INLP": run_inlp_stage, "post:Gate-soft": run_gate_soft_stage}[stage]
        run_stage(model, train_ds, dev_ds, test_ds, cfg, run_dir)

    manifest["finalized"] = True
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    manifest["files"] = sorted(str(p.relative_to(run_dir))
                               for p in run_dir.rglob("*") if p.is_file())
    write_atomic(manifest_path, json.dumps(manifest, indent=2, allow_nan=False).encode())
    return 0


def _select_model(record: training.RunRecord) -> nn.Network:
    """Checkpoint at the dev-DTO-best epoch, reloaded from disk."""
    row = analysis.select_row(record.rows, analysis.SelectionCriterion())
    return training.load_checkpoint(row["checkpoint"], row["epoch"])


def run_inlp_stage(model: nn.Network, train_ds, dev_ds, test_ds, cfg: TrainConfig,
                   run_dir: Path):
    # the hidden states of the loaded rows, each weighted by its count in the
    # (balanced) split; every probe and the refit fit from their one Gram matrix
    m, y, g = train_ds.rows_of_X()
    H_train = postproc.Rows(nn.infer(model, train_ds.X)[0], m)
    projection = postproc.inlp(H_train, g, max_iterations=cfg.inlp_iterations)
    postproc.save_projection(run_dir / "inlp_projection.bin", projection)
    refit, steps, grad_norm = postproc.apply_inlp_and_refit(
        model, projection.P, H_train, y, num_classes=train_ds.num_classes)
    row = {"post": "INLP", "iterations": projection.iterations_applied,
           "probe_accuracies": projection.probe_accuracies,
           "probe_steps": [steps for steps, _ in projection.probe_fits],
           "probe_grad_norms": [norm for _, norm in projection.probe_fits],
           "refit_steps": steps, "refit_grad_norm": grad_norm}
    predictions = training.predict(refit, [dev_ds.X, test_ds.X], [dev_ds.g, test_ds.g])
    training._append_row(run_dir / "epochs.jsonl", row, predictions, dev_ds, test_ds)


def run_gate_soft_stage(model: nn.Network, train_ds, dev_ds, test_ds, cfg: TrainConfig,
                        run_dir: Path):
    dev_logits, test_logits = nn.infer_many(model, [dev_ds.X, test_ds.X])
    prior, dev_dto = postproc.gate_soft_search(model, dev_ds, dev_logits,
                                               cfg.gate_grid_resolution)
    row = {"post": "Gate-soft", "prior": list(prior), "dev_dto": dev_dto}
    predictions = [training.gate_logits(training.head_blocks(model, logits),
                                        np.array(prior)).argmax(axis=1)
                   for logits in (dev_logits, test_logits)]
    training._append_row(run_dir / "epochs.jsonl", row, predictions, dev_ds, test_ds)


def cmd_analyze(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="fairkit analyze")
    p.add_argument("--results_dir", type=str, default="results")
    p.add_argument("--output_dir", type=str, default=None)
    p.add_argument("--selection_criterion", type=str, default="DTO",
                   choices=list(analysis.CRITERIA))
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--pareto_only", action="store_true")
    args = p.parse_args(argv)

    try:
        criterion = analysis.SelectionCriterion(kind=args.selection_criterion,
                                                threshold=args.threshold)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    runs, skipped = analysis.load_runs(args.results_dir)
    if skipped:
        print(f"warning: skipped {len(skipped)} run(s):", file=sys.stderr)
        for run_dir, reason in skipped:
            print(f"  {run_dir}: {reason}", file=sys.stderr)
    pipelines = analysis.group_by_pipeline(runs)
    table, selection = analysis.analyze_runs(pipelines, criterion)

    out_dir = Path(args.output_dir or args.results_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fmt, ext in (("markdown", "md"), ("latex", "tex"), ("csv", "csv")):
        (out_dir / f"results_table.{ext}").write_text(analysis.emit_table(table, fmt))
    tradeoff = analysis.emit_tradeoff_data(pipelines, pareto_only=args.pareto_only,
                                           criterion=criterion)
    (out_dir / "tradeoff.json").write_text(json.dumps(tradeoff, indent=2, allow_nan=False))
    (out_dir / "selection.json").write_text(json.dumps(selection, indent=2, allow_nan=False))
    print(analysis.emit_table(table, "markdown"))
    return 0


def cmd_generate(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="fairkit generate")
    p.add_argument("--synthetic_spec", type=str, default=None)
    p.add_argument("--out_dir", type=str, required=True)
    p.add_argument("--name", type=str, default="synthetic")
    p.add_argument("--seed", type=int, default=None)
    args = p.parse_args(argv)

    try:
        spec = (load_synthetic_spec(args.synthetic_spec, args.seed) if args.synthetic_spec
                else default_synthetic_spec(TrainConfig(seed=args.seed or 0)))
    except SpecError as e:
        raise ConfigError(f"--seed {args.seed}: {e}") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = data.generate_synthetic(spec)
    for ds in bundle:
        data.save_npz(ds, out_dir / f"{args.name}_{ds.split}.npz")
    echo = {**asdict(spec),
            "n_per_cell": {f"{c},{g}": n for (c, g), n in sorted(spec.n_per_cell.items())}}
    (out_dir / f"{args.name}_spec.yaml").write_text(yaml.safe_dump(echo, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "analyze":
            return cmd_analyze(argv[1:])
        if argv and argv[0] == "generate":
            return cmd_generate(argv[1:])
        if argv and argv[0] == "train":
            argv = argv[1:]
        return cmd_train(parse_config(argv))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (IOErrorWithStage, OSError) as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3
    except TrainingDivergedError as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 4
    except EmptyInputError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 5
    except FairkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
