"""Acceptance gate: one pass/fail line per criterion, printed live.

Each criterion is a standalone test; numeric tolerances and runtime budgets
follow the toolkit's stated guarantees.
"""

import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fairkit import analysis, cli, data, nn, postproc, training
from fairkit.evaluation import dto, evaluate_predictions

from test_training import check_gradients


def announce(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# (performance mean %, fairness mean %, reported DTO) on the two benchmarks
REPORTED = [
    (72.2981, 61.1870, 47.6849), (75.3927, 87.7469, 27.4892),
    (75.6414, 89.3286, 26.5936), (75.5464, 90.4023, 26.27),
    (75.0163, 90.8679, 26.6004), (75.0638, 90.5537, 26.6655),
    (75.7314, 87.8219, 27.1527), (75.2763, 89.2255, 26.9694),
    (73.3433, 85.5982, 30.2983), (82.2512, 85.1071, 23.1694),
    (83.8326, 90.5370, 18.73), (81.6637, 90.7356, 20.5438),
    (81.8480, 90.6376, 20.4242), (81.9136, 88.9603, 21.1894),
    (82.2382, 89.4995, 20.6335), (82.0594, 84.2735, 23.8577),
    (81.7773, 88.8683, 21.3537), (82.3032, 88.6249, 21.0373),
]


def test_criterion_1_dto_reproduction(capsys):
    t0 = time.perf_counter()
    ok = all(abs(dto((p, f), utopia=(100.0, 100.0)) - expected) <= 0.01
             for p, f, expected in REPORTED)
    ok = ok and (time.perf_counter() - t0) < 1.0
    announce(capsys, 1, "DTO reproduction", ok)


def test_criterion_2_cli_command_parity(capsys, tmp_path):
    t0 = time.perf_counter()
    results = str(tmp_path / "results")
    base = ["--dataset", "synthetic", "--emb_size", "8", "--num_classes", "2",
            "--encoder_architecture", "vector", "--results_dir", results]
    combined = base + ["--BT", "Resampling", "--BTObj", "EO",
                       "--adv_debiasing", "--INLP"]
    ok = cli.main(base) == 0 and cli.main(combined) == 0

    def manifest_of(argv):
        cfg = cli.parse_config(argv)
        path = Path(results) / cli.config_hash(cfg) / "manifest.json"
        return json.loads(path.read_text())

    m_std, m_comb = manifest_of(base), manifest_of(combined)
    ok = ok and m_std["finalized"] and m_comb["finalized"]
    ok = ok and m_std["stages"] == ["at:Standard"]
    ok = ok and m_comb["stages"] == ["pre:EO-resampling", "at:Adv", "post:INLP"]
    ok = ok and (time.perf_counter() - t0) < 300.0
    announce(capsys, 2, "CLI command parity", ok)


def _efficacy_bundle(seed):
    spec = data.SyntheticSpec(
        n_per_cell={(0, 0): 300, (0, 1): 60, (1, 0): 60, (1, 1): 300},
        d=8, class_separation=1.0, group_shift=3.0, noise_sigma=1.0, seed=seed)
    return data.generate_synthetic(spec)


def _efficacy_run(seed, method, bt=None, **kw):
    train_ds, dev_ds, test_ds = _efficacy_bundle(seed)
    if bt:
        train_ds = data.balance(train_ds, "eo", bt, seed=seed)
    cfg = training.MethodConfig(method=method, epochs=20, batch_size=64,
                                lr=3e-3, hidden_dims=(16,), seed=seed, **kw)
    record = training.train(train_ds, dev_ds, test_ds, cfg)
    epoch = analysis.select_row(record.rows, analysis.SelectionCriterion())["epoch"]
    row = next(r for r in record.rows if r["epoch"] == epoch)
    return row["test_performance"], row["test_fairness"], record


def _efficacy_inlp(seed, iterations=2):
    train_ds, _, test_ds = _efficacy_bundle(seed)
    _, _, record = _efficacy_run(seed, "Standard")
    H = nn.infer(record.model, train_ds.X)[0]
    proj = postproc.inlp(H, train_ds.g, max_iterations=iterations)
    refit, _, _ = postproc.apply_inlp_and_refit(record.model, proj.P, H, train_ds.y, 2)
    (preds,) = training.predict(refit, [test_ds.X], [test_ds.g])
    report = evaluate_predictions(preds, test_ds.y, test_ds.g, 2, 2)
    return report.performance, report.fairness


def test_criterion_3_debiasing_efficacy(capsys):
    t0 = time.perf_counter()
    seeds = (0, 1, 2)

    train_ds, _, _ = _efficacy_bundle(0)
    _, probe_acc = postproc.fit_linear_probe(train_ds.X, train_ds.g)
    ok = probe_acc >= 0.90  # strong group leakage in the raw features

    std = [_efficacy_run(s, "Standard")[:2] for s in seeds]
    std_perf = sum(p for p, _ in std) / len(std)
    std_fair = sum(f for _, f in std) / len(std)
    ok = ok and std_fair < 0.90

    sweeps = {
        "BTEO": lambda s: _efficacy_run(s, "Standard", bt="Resampling")[:2],
        "Adv": lambda s: _efficacy_run(s, "Adv", adv_lambda=2.0)[:2],
        "FairBatch": lambda s: _efficacy_run(s, "FairBatch", fairbatch_alpha=0.1)[:2],
        "EO_CLA": lambda s: _efficacy_run(s, "EO_CLA", eo_cla_lambda=2.0)[:2],
        "INLP": lambda s: _efficacy_inlp(s),
    }
    detail = {}
    for name, fn in sweeps.items():
        pts = [fn(s) for s in seeds]
        perf = sum(p for p, _ in pts) / len(pts)
        fair = sum(f for _, f in pts) / len(pts)
        detail[name] = (fair - std_fair >= 0.05, std_perf - perf <= 0.10)
        ok = ok and all(detail[name])
    ok = ok and (time.perf_counter() - t0) < 900.0
    announce(capsys, 3, "debiasing efficacy", ok)
    assert all(all(v) for v in detail.values()), detail


def test_criterion_4_gradient_suite(capsys):
    configs = [
        training.MethodConfig(method="Standard", hidden_dims=(6,), activation="tanh"),
        training.MethodConfig(method="Adv", adv_lambda=0.8, hidden_dims=(6,),
                              activation="tanh"),
        training.MethodConfig(method="FairSCL", fcl_lambda_y=0.5, fcl_lambda_g=0.3,
                              hidden_dims=(6,), activation="tanh", temperature=0.3),
        training.MethodConfig(method="EO_CLA", eo_cla_lambda=0.7,
                              hidden_dims=(6,), activation="tanh"),
        training.MethodConfig(method="Gate", hidden_dims=(6,), activation="tanh"),
    ]
    ok = True
    for cfg in configs:  # 5 compositions x 4 random configurations = 20
        discs = None
        if cfg.method == "Adv":
            discs = training.init_discriminators(cfg, hidden_dim=6,
                                                 num_classes=2, num_groups=2)
        for seed in range(4):
            ok = ok and check_gradients(cfg, seed, discs=discs) < 1e-4
    announce(capsys, 4, "gradient suite", ok)


def test_criterion_5_inlp_properties(capsys):
    ok = True
    rng = np.random.default_rng(0)

    # every emitted projection is symmetric and idempotent
    for trial in range(5):
        h = int(rng.integers(3, 9))
        H = rng.normal(size=(120, h))
        g = rng.integers(0, 2, 120)
        P = postproc.inlp(H, g, max_iterations=int(rng.integers(1, h + 1))).P
        ok = ok and np.max(np.abs(P @ P - P)) <= 1e-6
        ok = ok and np.max(np.abs(P - P.T)) <= 1e-6

    # single-direction leak: one iteration reduces the probe to baseline + 2pts
    H = rng.normal(size=(5000, 4))
    g = rng.integers(0, 2, 5000)
    H[:, 0] += 4.0 * (g - 0.5)
    baseline = postproc.majority_baseline(g)
    _, before = postproc.fit_linear_probe(H, g)
    proj = postproc.inlp(H, g, max_iterations=1)
    _, after = postproc.fit_linear_probe(H @ proj.P.T, g)
    ok = ok and before >= 0.95 and after <= baseline + 0.02

    # full leak in h dimensions: h iterations drive the probe to baseline +- 1pt
    h = 4
    H = rng.normal(size=(400, h))
    g = (H @ rng.normal(size=h) > 0).astype(int)
    proj = postproc.inlp(H, g, max_iterations=h)
    _, after_full = postproc.fit_linear_probe(H @ proj.P.T, g)
    ok = ok and abs(after_full - postproc.majority_baseline(g)) <= 0.01
    announce(capsys, 5, "INLP properties", ok)


def test_criterion_6_pareto_and_selection_oracles(capsys):
    ok = True
    rng = np.random.default_rng(1)

    for _ in range(100):
        pts = [(float(rng.uniform()), float(rng.uniform())) for _ in range(200)]
        frontier = analysis.pareto_frontier(pts)
        uniq = set(pts)
        oracle = sorted(p for p in uniq
                        if not any(q != p and q[0] >= p[0] and q[1] >= p[1]
                                   for q in uniq))
        ok = ok and frontier == oracle
        # some Pareto point minimizes DTO
        best = min(math.hypot(1 - p, 1 - f) for p, f in pts)
        ok = ok and any(abs(math.hypot(1 - p, 1 - f) - best) < 1e-15
                        for p, f in frontier)

    crit = analysis.SelectionCriterion()
    for _ in range(50):
        # select_row against exhaustive evaluation
        rows = [{"epoch": e, "dev_performance": float(rng.uniform()),
                 "dev_fairness": float(rng.uniform()),
                 "test_performance": 0.0, "test_fairness": 0.0}
                for e in range(6)]
        got = analysis.select_row(rows, crit)["epoch"]
        dists = [math.hypot(1 - r["dev_performance"], 1 - r["dev_fairness"])
                 for r in rows]
        ok = ok and dists[got] == min(dists)

        # select_across_hyperparameters against an independent sweep oracle
        runs, n_idx, n_seeds = [], int(rng.integers(1, 4)), int(rng.integers(1, 4))
        for i in range(n_idx):
            for s in range(n_seeds):
                rws = [{"epoch": e, "dev_performance": float(rng.uniform()),
                        "dev_fairness": float(rng.uniform()),
                        "test_performance": 0.0, "test_fairness": 0.0}
                       for e in range(4)]
                runs.append({"index": {"lam": float(i)}, "seed": s, "rows": rws})
        out = analysis.select_across_hyperparameters(runs, crit)
        best_d, best_lam = None, None
        for i in range(n_idx):
            devs = []
            for r in runs:
                if r["index"]["lam"] == float(i):
                    e = analysis.select_row(r["rows"], crit)["epoch"]
                    row = r["rows"][e]
                    devs.append((row["dev_performance"], row["dev_fairness"]))
            mp = sum(p for p, _ in devs) / len(devs)
            mf = sum(f for _, f in devs) / len(devs)
            d = math.hypot(1 - mp, 1 - mf)
            if best_d is None or d < best_d - 1e-15:
                best_d, best_lam = d, float(i)
        ok = ok and out["index"] == {"lam": best_lam}
    announce(capsys, 6, "Pareto/selection oracles", ok)


def _random_count_dataset(rng):
    nc, ng = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    counts = {(c, g): int(rng.integers(1, 9)) for c in range(nc) for g in range(ng)}
    ys, gs = [], []
    for (c, g), n in counts.items():
        ys += [c] * n
        gs += [g] * n
    X = rng.normal(size=(len(ys), 3))
    return data.Dataset(X, np.array(ys), np.array(gs))


def _balance_constraints_hold(out, objective, mode):
    counts = dict(Counter(zip(out.y.tolist(), out.g.tolist())))
    tol = 1e-9
    if mode == "Reweighting":
        totals = {}
        for i in range(out.n):
            cell = (int(out.y[i]), int(out.g[i]))
            totals[cell] = totals.get(cell, 0.0) + float(out.weights[i])
        if objective == "joint":
            vals = list(totals.values())
            return max(vals) - min(vals) <= tol
        if objective == "g":
            marg = {}
            for (c, g), t in totals.items():
                marg[g] = marg.get(g, 0.0) + t
            vals = list(marg.values())
            return max(vals) - min(vals) <= tol
        # eo: equal weight totals across groups within each class
        for c in set(c for c, _ in totals):
            vals = [t for (cc, _), t in totals.items() if cc == c]
            if max(vals) - min(vals) > tol:
                return False
        return True
    # Downsampling / Resampling: exact count equalities
    if objective == "joint":
        return len(set(counts.values())) == 1
    if objective == "g":
        marg = {}
        for (c, g), n in counts.items():
            marg[g] = marg.get(g, 0) + n
        return len(set(marg.values())) == 1
    for c in set(c for c, _ in counts):  # "eo" and "y"
        if len({n for (cc, _), n in counts.items() if cc == c}) > 1:
            return False
    return True


def test_criterion_7_balancing_exactness(capsys):
    rng = np.random.default_rng(2)
    ok = True
    for trial in range(100):
        ds = _random_count_dataset(rng)
        for objective in data.OBJECTIVES:
            for mode in data.MODES:
                if objective == "y" and mode != "Downsampling":
                    continue
                out = data.balance(ds, objective, mode, seed=trial)
                ok = ok and _balance_constraints_hold(out, objective, mode)
                if mode in ("Downsampling", "Reweighting"):
                    again = data.balance(out, objective, mode, seed=trial + 1)
                    if mode == "Downsampling":
                        same = (again.n == out.n
                                and np.array_equal(again.y, out.y)
                                and np.array_equal(again.g, out.g))
                    else:
                        same = np.allclose(again.weights, out.weights, atol=1e-12)
                    ok = ok and same
    announce(capsys, 7, "balancing exactness", ok)


def test_criterion_8_degradation_to_standard(capsys, tmp_path):
    spec = data.SyntheticSpec(
        n_per_cell={(0, 0): 60, (0, 1): 20, (1, 0): 20, (1, 1): 60},
        d=6, class_separation=1.5, group_shift=2.5, noise_sigma=1.0, seed=0)
    bundle = data.generate_synthetic(spec)
    base = dict(epochs=3, batch_size=32, seed=5, hidden_dims=(8,))

    def epoch_params(method, tag, **kw):
        run_dir = tmp_path / tag
        cfg = training.MethodConfig(method=method, **kw, **base)
        training.train(*bundle, cfg, run_dir=run_dir)
        out = []
        for e in range(base["epochs"] + 1):
            model = training.load_checkpoint(run_dir / "checkpoints.bin", e)
            out.append(model.flat)
        return out

    standard = epoch_params("Standard", "std")
    zeroed = {
        "Adv": {"adv_lambda": 0.0},
        "EAdv": {"adv_lambda": 0.0, "n_discriminators": 2},
        "DAdv": {"adv_lambda": 0.0, "n_discriminators": 2, "diff_lambda": 0.5},
        "AAdv": {"adv_lambda": 0.0},
        "ADAdv": {"adv_lambda": 0.0, "n_discriminators": 2, "diff_lambda": 0.5},
        "FairSCL": {"fcl_lambda_y": 0.0, "fcl_lambda_g": 0.0},
        "EO_CLA": {"eo_cla_lambda": 0.0},
    }
    ok = True
    for method, kw in zeroed.items():
        params = epoch_params(method, method, **kw)
        for a, b in zip(standard, params):
            ok = ok and np.array_equal(a, b)
    announce(capsys, 8, "degradation to Standard", ok)


def test_criterion_9_reproducibility_roundtrip(capsys, tmp_path):
    results = str(tmp_path / "results")
    argv = ["--dataset", "synthetic", "--emb_size", "8", "--num_classes", "2",
            "--epochs", "3", "--seed", "4", "--results_dir", results]
    cfg = cli.parse_config(argv)
    run_dir = Path(results) / cli.config_hash(cfg)

    ok = cli.main(argv) == 0
    first = (run_dir / "epochs.jsonl").read_text()
    ok = ok and cli.main(argv) == 0
    ok = ok and (run_dir / "epochs.jsonl").read_text() == first

    # config -> opt.yaml -> config is the identity map
    cfg2 = cli.parse_config(["--conf_file", str(run_dir / "opt.yaml")])
    ok = ok and cfg2.to_dict() == cfg.to_dict()

    # checkpoints reload to networks with bit-identical logits
    spec = cli.default_synthetic_spec(cfg)
    _, dev_ds, _ = data.generate_synthetic(spec)
    model = training.load_checkpoint(run_dir / "checkpoints.bin", 3)
    mcfg = training.MethodConfig(method="Standard", epochs=3,
                                 batch_size=cfg.batch_size, seed=cfg.seed,
                                 lr=cfg.lr, hidden_dims=tuple(cfg.hidden_dims))
    record = training.train(*data.generate_synthetic(spec), mcfg)
    ok = ok and np.array_equal(nn.forward(model, dev_ds.X).logits,
                               nn.forward(record.model, dev_ds.X).logits)
    announce(capsys, 9, "reproducibility and round-trip", ok)
