"""Ten end-to-end acceptance checks, one visible pass/fail line each.

Each test prints its verdict even under pytest's capture so the run log
always shows the ten lines. Tolerances and runtime budgets are asserted
inside the tests themselves.
"""
import time

import numpy as np
import pytest

from chinf import (
    DetectConfig,
    ModelSpec,
    ModelState,
    MtsSeries,
    MtsWindow,
    TrainConfig,
    auroc,
    chronological_split,
    detect,
    influence_matrix,
    init_params,
    make_windows,
    normalize_scores,
    prf1,
    prune_cells,
    score_windows,
    select_threshold,
    self_influence_per_channel,
    tracin,
    train,
    whole_gradient,
)
from chinf.anomaly import ScoreSeries
from chinf.autodiff import finite_difference_gradient
from chinf.cli import main as cli_main
from chinf.data import AnomalySpec, SyntheticConfig, gen_synthetic, inject_anomalies
from chinf.models import channel_gradients, channel_loss, channel_losses

import bench_suite


def _verdict(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01_decomposition_identity(capsys):
    ok = False
    worst = float("nan")
    try:
        rng = np.random.default_rng(100)
        start = time.monotonic()
        worst = 0.0
        seen = set()
        for case in range(120):
            state, z1, z2, selector = bench_suite.random_model_case(rng, case)
            seen.add((state.spec.architecture, selector.selector_id.split("/")[1]))
            m = influence_matrix(state, z1, z2, eta=0.01, selector=selector)
            t = tracin(state, z1, z2, eta=0.01, selector=selector)
            worst = max(worst, abs(m.total() - t) / (abs(t) + 1e-12))
        elapsed = time.monotonic() - start
        assert len(seen) == 6, f"missing architecture/selector combos: {seen}"
        assert worst <= 1e-9, f"worst relative error {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(
            capsys, 1,
            ok,
            "matrix total equals whole-sample influence on 120 random cases "
            f"(worst rel err {worst:.2e})",
        )


def test_criterion_02_gradients_match_finite_differences(capsys):
    ok = False
    worst = float("nan")
    try:
        rng = np.random.default_rng(200)
        start = time.monotonic()
        worst = 0.0
        for case in range(110):
            state, win, _, selector = bench_suite.random_model_case(rng, case)
            if case % 2 == 0:
                back = whole_gradient(state, win, selector)

                def loss_fn(p):
                    return channel_losses(ModelState(state.spec, p), [win]).sum()

            else:
                j = int(rng.integers(win.n_channels))
                back = channel_gradients(state, win, selector)[j]

                def loss_fn(p, _j=j):
                    return channel_loss(ModelState(state.spec, p), win, _j)

            fd = finite_difference_gradient(loss_fn, dict(state.params), selector, 1e-5)
            err = np.max(np.abs(back.values - fd.values)) / (
                np.max(np.abs(fd.values)) + 1e-12
            )
            worst = max(worst, err)
        elapsed = time.monotonic() - start
        assert worst <= 1e-4, f"worst relative error {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(
            capsys, 2,
            ok,
            "backward pass agrees with central differences on 110 random models "
            f"(worst rel err {worst:.2e})",
        )


def test_criterion_03_self_influence_structure(capsys):
    ok = False
    try:
        rng = np.random.default_rng(300)
        for case in range(60):
            state, z, _, selector = bench_suite.random_model_case(rng, case)
            m = influence_matrix(state, z, z, eta=1.0, selector=selector).values
            assert np.array_equal(m, m.T), "self-influence matrix not symmetric"
            assert (np.diag(m) >= 0.0).all(), "negative diagonal entry"

        for arch, hidden in (("linear_ci", 0), ("mlp_ci", 6)):
            spec = ModelSpec(arch, window=7, channels=5, hidden=hidden, horizon=0)
            state = init_params(spec, seed=17)
            cols = rng.normal(size=(7, 5))
            cols[:, 3] = cols[:, 0]
            win = MtsWindow(cols, origin_t=6)
            scores = self_influence_per_channel(state, win, eta=1.0)
            gap = abs(scores[0] - scores[3]) / (abs(scores[0]) + 1e-12)
            assert gap <= 1e-12, f"duplicate channels disagree by {gap:.2e} ({arch})"
        ok = True
    finally:
        _verdict(
            capsys, 3,
            ok,
            "self-influence matrices symmetric with nonnegative diagonals; "
            "duplicate channels agree to 1e-12",
        )


def _best_f1(scores, labels):
    """Exhaustive best F1 over all threshold candidates."""
    pos = np.asarray(labels) != 0
    distinct = np.unique(scores)
    candidates = np.concatenate(
        ([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf])
    )
    best = 0.0
    for h in candidates:
        pred = scores > h
        tp = int(np.count_nonzero(pred & pos))
        denom = int(np.count_nonzero(pred)) + int(np.count_nonzero(pos))
        best = max(best, 2 * tp / denom if denom else 0.0)
    return best


def test_criterion_04_eta_invariance(capsys):
    ok = False
    try:
        cfg = SyntheticConfig(
            clusters=2, channels_per_cluster=2, length=500, noise_std=0.05, seed=4
        )
        series = gen_synthetic(cfg)
        split = chronological_split(series, 0.5, 0.25)
        test = inject_anomalies(
            split.test,
            AnomalySpec("spike", (1,), ((30, 42), (80, 92)), magnitude=0.8),
            seed=40,
        )
        spec = ModelSpec("linear_ci", window=8, channels=4)
        state = train(
            init_params(spec, 0),
            make_windows(split.train, 8),
            TrainConfig(epochs=5, learning_rate=1e-2, batch_size=32, seed=0),
        )
        windows = make_windows(test, 8)
        labels = test.timestep_labels[windows.origins]

        etas = (1e-4, 1e-2, 1.0)
        rankings, aurocs, best_f1s = [], [], []
        for eta in etas:
            per_window = [
                tuple(np.argsort(self_influence_per_channel(state, w, eta), kind="stable"))
                for w in windows
            ]
            rankings.append(per_window)
            scored = score_windows(state, windows, "cif_self_influence", eta)
            aurocs.append(auroc(scored.scores, labels))
            best_f1s.append(_best_f1(scored.scores, labels))

        assert rankings[0] == rankings[1] == rankings[2], "channel rankings moved"
        assert aurocs[0] == aurocs[1] == aurocs[2], f"AUROC moved: {aurocs}"
        assert best_f1s[0] == best_f1s[1] == best_f1s[2], f"best F1 moved: {best_f1s}"
        assert aurocs[0] > 0.5, "scenario carries no signal"
        ok = True
    finally:
        _verdict(
            capsys, 4,
            ok,
            "channel rankings, AUROC, and best F1 identical under eta in "
            "{1e-4, 1e-2, 1}",
        )


def test_criterion_05_anomaly_method_ordering(capsys):
    ok = False
    detail = "anomaly suite did not finish"
    try:
        start = time.monotonic()
        f1 = {m: [] for m in ("cif_self_influence", "tracin_self_influence", "reconstruction_error")}
        cif_aurocs = []
        for seed in bench_suite.ANOMALY_SEEDS:
            train_series, val, test = bench_suite.anomaly_scenario(seed)
            state = bench_suite.anomaly_model(train_series, seed)
            for method in f1:
                config = DetectConfig(method=method)
                report = detect(state, test, config, val_series=val)
                f1[method].append(report.f1)
                if method == "cif_self_influence":
                    cif_aurocs.append(auroc(report.raw_scores.scores, report.labels))
        elapsed = time.monotonic() - start

        means = {m: float(np.mean(v)) for m, v in f1.items()}
        detail = (
            f"mean F1 cif {means['cif_self_influence']:.3f} >= "
            f"recon {means['reconstruction_error']:.3f} and >= "
            f"tracin {means['tracin_self_influence']:.3f}; "
            f"min AUROC {min(cif_aurocs):.3f}"
        )
        assert means["cif_self_influence"] >= means["reconstruction_error"], detail
        assert means["cif_self_influence"] >= means["tracin_self_influence"], detail
        assert min(cif_aurocs) >= 0.95, detail
        assert elapsed < 120.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, 5, ok, detail)


def _brute_force_threshold(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) != 0
    distinct = np.unique(scores)
    candidates = [-np.inf]
    candidates += [(a + b) / 2.0 for a, b in zip(distinct[:-1], distinct[1:])]
    candidates += [np.inf]
    best_h, best_f1 = None, -1.0
    for h in candidates:
        pred = scores > h
        tp = int(np.count_nonzero(pred & pos))
        denom = int(np.count_nonzero(pred)) + int(np.count_nonzero(pos))
        f1 = 2 * tp / denom if denom else 0.0
        if f1 > best_f1:
            best_h, best_f1 = float(h), f1
    return best_h


def test_criterion_06_threshold_matches_brute_force(capsys):
    ok = False
    try:
        rng = np.random.default_rng(600)
        for i in range(1000):
            n = int(rng.integers(2, 50))
            if i % 3 == 0:
                scores = rng.normal(size=n)  # continuous, likely tie-free
            else:
                scores = rng.choice(np.linspace(-1, 1, int(rng.integers(2, 8))), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                labels[rng.integers(n)] ^= 1
            got = select_threshold(scores, labels)
            want = _brute_force_threshold(scores, labels)
            assert got == want, f"case {i}: {got} != {want}"
        ok = True
    finally:
        _verdict(
            capsys, 6,
            ok,
            "threshold selection equals exhaustive search on 1000 random vectors",
        )


def test_criterion_07_normalization_worked_examples(capsys):
    ok = False
    try:
        two = ScoreSeries(np.array([0.0, 10.0]), "cif_self_influence", (0, 1))
        assert np.array_equal(
            normalize_scores(two, "mean_std").scores, [-1.0, 1.0]
        )
        five = ScoreSeries(
            np.array([2.0, 4.0, 6.0, 8.0, 10.0]), "cif_self_influence", tuple(range(5))
        )
        assert np.array_equal(
            normalize_scores(five, "median_iqr").scores, [-1.0, -0.5, 0.0, 0.5, 1.0]
        )
        flat = ScoreSeries(np.full(4, 7.5), "cif_self_influence", tuple(range(4)))
        for mode in ("mean_std", "median_iqr"):
            assert np.array_equal(normalize_scores(flat, mode).scores, np.zeros(4))
        ok = True
    finally:
        _verdict(
            capsys, 7,
            ok,
            "both normalization worked examples exact; constant series maps to zeros",
        )


def test_criterion_08_pruning_strategy_ordering(capsys):
    ok = False
    detail = "pruning benchmark did not finish"
    try:
        start = time.monotonic()
        strategies = ("influence_equidistant", "random", "continuous", "most_influence")
        mse = {(m, s): [] for m in (4, 8) for s in strategies}
        coverage = {m: 0 for m in (4, 8)}
        # one pruning pass per seed: one full model and score table for all 8 cells
        cells = list(mse)
        for seed in bench_suite.PRUNING_SEEDS:
            split = bench_suite.pruning_split(seed)
            config = bench_suite.pruning_train_config(seed)
            results = prune_cells(split, bench_suite.PRUNING_SPEC, config, cells, seed=seed)
            for (m, strategy), result in zip(cells, results):
                mse[(m, strategy)].append(result.mse_selected_model_on_all_channels)
                if strategy == "influence_equidistant":
                    clusters = {bench_suite.cluster_of(c) for c in result.selected}
                    coverage[m] += clusters == set(range(bench_suite.PRUNING_CLUSTERS))
        elapsed = time.monotonic() - start

        means = {k: float(np.mean(v)) for k, v in mse.items()}
        parts = []
        for m in (4, 8):
            parts.append(
                f"m={m}: equi {means[(m, 'influence_equidistant')]:.3f} <= "
                f"random {means[(m, 'random')]:.3f} <= "
                f"continuous {means[(m, 'continuous')]:.3f}, "
                f"most {means[(m, 'most_influence')]:.3f}, "
                f"coverage {coverage[m]}/10"
            )
        detail = "; ".join(parts)
        for m in (4, 8):
            assert means[(m, "influence_equidistant")] <= means[(m, "random")], detail
            assert means[(m, "random")] <= means[(m, "continuous")], detail
            assert (
                means[(m, "influence_equidistant")] <= means[(m, "most_influence")]
            ), detail
            assert coverage[m] >= 9, detail
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _verdict(capsys, 8, ok, detail)


def test_criterion_09_identity_pruning(capsys):
    ok = False
    try:
        split = bench_suite.pruning_split(0)
        config = bench_suite.pruning_train_config(0)
        n = split.train.n_channels
        strategies = ("influence_equidistant", "continuous")
        results = prune_cells(
            split, bench_suite.PRUNING_SPEC, config, [(n, s) for s in strategies], seed=0
        )
        for strategy, result in zip(strategies, results):
            assert result.selected == tuple(range(n))
            assert (
                result.mse_selected_model_on_all_channels == result.mse_full_model
            ), f"{strategy}: {result.mse_selected_model_on_all_channels!r} != {result.mse_full_model!r}"
        ok = True
    finally:
        _verdict(
            capsys, 9,
            ok,
            "keeping all channels reproduces the full model's MSE exactly",
        )


def test_criterion_10_cli_byte_reproducibility(capsys, tmp_path):
    import json
    from pathlib import Path

    data_dir = Path(__file__).parent / "data"
    ok = False
    try:
        work = tmp_path / "inputs"
        work.mkdir()
        assert cli_main(["synth", "--config", str(data_dir / "synth.json"), "--out", str(work)]) == 0
        assert cli_main(["synth", "--config", str(data_dir / "synth_prune.json"), "--out", str(work)]) == 0
        train_cfg = json.loads((data_dir / "train.json").read_text())
        train_cfg["series_csv"] = str(work / "series.csv")
        (work / "train.json").write_text(json.dumps(train_cfg))
        assert cli_main(["train", "--config", str(work / "train.json"), "--out", str(work)]) == 0

        detect_cfg = json.loads((data_dir / "detect.json").read_text())
        detect_cfg["series_csv"] = str(work / "series.csv")
        detect_cfg["checkpoint"] = str(work / "model.json")
        (work / "detect.json").write_text(json.dumps(detect_cfg))
        prune_cfg = json.loads((data_dir / "prune.json").read_text())
        prune_cfg["series_csv"] = str(work / "prune_series.csv")
        (work / "prune.json").write_text(json.dumps(prune_cfg))

        for run in ("r1", "r2"):
            out = tmp_path / run
            out.mkdir()
            assert cli_main(["detect", "--config", str(work / "detect.json"), "--out", str(out)]) == 0
            assert cli_main(["prune", "--config", str(work / "prune.json"), "--out", str(out)]) == 0

        for name in ("report.csv", "summary.json", "pruning.csv", "manifest.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between runs"
        ok = True
    finally:
        _verdict(
            capsys, 10,
            ok,
            "detect and prune commands write byte-identical outputs across reruns",
        )
