"""The four benchmark workloads.

Each workload builds its inputs from one seed in ``setup`` (the timed
set-up: series generation and checkpoint training), computes the expected
outputs with the independent oracles in ``reference`` (untimed), and then
exposes ``ops``: the calls one closed-loop caller makes per timed pass.
``check`` compares one op's output with the reference and returns the
reasons it is wrong, so a wrong answer is counted, not raised.

Scenarios come from ``tests/bench_suite.py``, whose parameters are frozen
for the acceptance tests.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import bench_suite
import reference as ref
from chinf import anomaly, cli, core, data, influence, models, pruning

REL_TOL = 1e-9


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return np.inf
    scale = np.maximum(np.abs(want), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(got - want) / scale)) if want.size else 0.0


def _detect_reference(workload, window_scores) -> None:
    """Reference raw test scores, detect outcome and item count for a
    stride-1 detect run on ``workload.val`` and ``workload.test``."""
    rows = workload.state.spec.window

    def raw(series):
        return window_scores(ref.sliding_windows(series.values, rows)).max(axis=1)

    workload.want_raw = raw(workload.test)
    workload.want = ref.detect(
        raw(workload.val),
        workload.val.timestep_labels[rows - 1 :],
        workload.want_raw,
        workload.test.timestep_labels[rows - 1 :],
    )
    workload.items = workload.val.n_timesteps + workload.test.n_timesteps - 2 * (rows - 1)


def _compare_detect(got: dict, want: dict, got_raw, want_raw) -> list[str]:
    """Shared detect check: summary fields, predictions, raw scores."""
    problems = []
    for key in ("normalization", "precision", "recall", "f1"):
        if got[key] != want[key]:
            problems.append(f"{key} {got[key]!r} != reference {want[key]!r}")
    h, want_h = got["threshold"], want["threshold"]
    if not (h == want_h or abs(h - want_h) <= REL_TOL * abs(want_h)):
        problems.append(f"threshold {h!r} != reference {want_h!r}")
    if not np.array_equal(got["predictions"], want["predictions"]):
        problems.append("prediction vector differs from reference")
    err = _rel_err(got_raw, want_raw)
    if not err <= REL_TOL:
        problems.append(f"raw scores off by {err:.3e} relative")
    return problems


class DetectCif:
    """``anomaly.detect`` with the default config on the 8-channel scenario."""

    name = "detect_cif"
    item = "window"
    seeds_per_pass = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        train, self.val, self.test = bench_suite.anomaly_scenario(self.seed)
        self.state = bench_suite.anomaly_model(train, self.seed)

    def make_reference(self) -> None:
        spec, params = self.state.spec, self.state.params
        names = models.last_layer_selector(spec).names
        _detect_reference(
            self,
            lambda windows: ref.self_influence(spec, params, windows, names, self.state.trained_lr),
        )

    def ops(self):
        config = anomaly.DetectConfig()
        return [lambda: anomaly.detect(self.state, self.test, config, val_series=self.val)]

    def check(self, i: int, report) -> list[str]:
        got = {
            "normalization": report.normalization,
            "threshold": report.threshold,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "predictions": report.predictions,
        }
        return _compare_detect(got, self.want, report.raw_scores.scores, self.want_raw)


class PruneSweep:
    """Criterion 8's inner loop for one of ``PRUNING_SEEDS``: four strategies
    times m in {4, 8}, each a ``pruning.prune_and_eval`` call."""

    name = "prune_sweep"
    item = "cell"
    seeds_per_pass = 1
    SUBSET_SIZES = (4, 8)

    def __init__(self, seed: int, workdir: str):
        self.split_seed = bench_suite.PRUNING_SEEDS[seed % len(bench_suite.PRUNING_SEEDS)]

    def setup(self) -> None:
        self.split = bench_suite.pruning_split(self.split_seed)
        self.config = bench_suite.pruning_train_config(self.split_seed)
        self.cells = [(m, s) for m in self.SUBSET_SIZES for s in pruning.STRATEGIES]

    def make_reference(self) -> None:
        spec, cfg, seed = bench_suite.PRUNING_SPEC, self.config, self.split_seed
        rows = spec.total_rows
        n = self.split.train.n_channels

        def fit(values):
            windows = ref.sliding_windows(values, rows)
            return ref.train_linear(
                spec, ref.init_linear(spec, cfg.seed), windows,
                cfg.epochs, cfg.learning_rate, cfg.batch_size, cfg.seed,
            )

        full = fit(self.split.train.values)
        test = ref.sliding_windows(self.split.test.values, rows)
        val = ref.sliding_windows(self.split.val.values, rows)
        names = models.last_layer_selector(spec).names
        table = ref.self_influence(spec, full, val, names, cfg.learning_rate).sum(axis=0)
        ranking = np.argsort(table, kind="stable")

        def select(m, strategy):
            if strategy == "influence_equidistant":
                picked = [ranking[(k * n) // m] for k in range(m)]
            elif strategy == "most_influence":
                picked = ranking[n - m :]
            elif strategy == "random":
                picked = np.random.default_rng(seed).choice(n, size=m, replace=False)
            else:
                picked = range(m)
            return tuple(sorted(int(c) for c in picked))

        mse_full = ref.mean_mse(spec, full, test)
        self.want = []
        for m, strategy in self.cells:
            selected = select(m, strategy)
            subset = fit(self.split.train.values[:, list(selected)])
            self.want.append((selected, ref.mean_mse(spec, subset, test), mse_full))
        self.items = len(self.cells)

    def ops(self):
        return [
            lambda m=m, s=s: pruning.prune_and_eval(
                self.split, bench_suite.PRUNING_SPEC, self.config, m, s, seed=self.split_seed
            )
            for m, s in self.cells
        ]

    def check(self, i: int, result) -> list[str]:
        selected, mse_sel, mse_full = self.want[i]
        problems = []
        if tuple(result.selected) != selected:
            problems.append(f"selected {result.selected} != reference {selected}")
        for label, got, want in (
            ("mse_selected", result.mse_selected_model_on_all_channels, mse_sel),
            ("mse_full", result.mse_full_model, mse_full),
        ):
            err = _rel_err(got, want)
            if not err <= REL_TOL:
                problems.append(f"{label} off by {err:.3e} relative")
        return problems


class DetectReconLong:
    """``chinf detect`` through ``cli.main`` with reconstruction error on a
    long labeled CSV: about 10k windows in each of val and test."""

    name = "detect_recon_long"
    item = "window"
    seeds_per_pass = 0
    # 840 training rows, then 10080 rows each for val and test
    LENGTH = 21000
    TRAIN_FRAC = 0.04
    VAL_FRAC = 0.48
    # the 8-channel scenario's cycles per 2000 rows, so each window looks alike
    FREQUENCIES = (31.5, 73.5, 136.5, 241.5)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.csv = os.path.join(workdir, "series.csv")
        self.checkpoint = os.path.join(workdir, "model.json")
        self.config_path = os.path.join(workdir, "detect.json")
        self.out = os.path.join(workdir, "out")

    def setup(self) -> None:
        cfg = data.SyntheticConfig(
            clusters=4,
            channels_per_cluster=2,
            length=self.LENGTH,
            base_frequencies=self.FREQUENCIES,
            phase_jitter=0.3,
            noise_std=0.05,
            seed=self.seed,
        )
        split = core.chronological_split(data.gen_synthetic(cfg), self.TRAIN_FRAC, self.VAL_FRAC)
        self.val = bench_suite.corrupted_series(split.val, self.seed * 31 + 1)
        self.test = bench_suite.corrupted_series(split.test, self.seed * 31 + 2)
        parts = (split.train, self.val, self.test)
        series = core.MtsSeries(
            np.concatenate([p.values for p in parts]),
            split.train.channel_names,
            np.concatenate([p.timestep_labels for p in parts]),
        )
        data.save_csv(series, self.csv)
        self.state = bench_suite.anomaly_model(split.train, self.seed)
        models.save_checkpoint(self.state, self.checkpoint)
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "series_csv": self.csv,
                    "checkpoint": self.checkpoint,
                    "method": "reconstruction_error",
                    "train_frac": self.TRAIN_FRAC,
                    "val_frac": self.VAL_FRAC,
                },
                f,
            )

    def make_reference(self) -> None:
        spec, params = self.state.spec, self.state.params
        # the checkpoint round-trips bit-exactly, so the in-memory params are
        # the ones the command loads
        _detect_reference(self, lambda windows: ref.channel_losses(spec, params, windows))
        self.want_origins = np.arange(self.test.n_timesteps)[spec.window - 1 :]

    def ops(self):
        argv = ["detect", "--config", self.config_path, "--out", self.out]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"chinf detect exited with {code}")

        return [run]

    def check(self, i: int, _) -> list[str]:
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        table = np.loadtxt(os.path.join(self.out, "report.csv"), delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if summary.get("method") != "reconstruction_error":
            problems.append(f"method {summary.get('method')!r} != 'reconstruction_error'")
        if not np.array_equal(table[:, 0], self.want_origins):
            problems.append("window origins differ from reference")
        got = dict(summary, predictions=table[:, 3].astype(np.int64))
        return problems + _compare_detect(got, self.want, table[:, 1], self.want_raw)


class InfluencePairs:
    """``influence.influence_matrix`` plus ``influence.tracin`` with the
    all-parameters selector on seeded random window pairs of an ``mlp_mix``
    forecasting model."""

    name = "influence_pairs"
    item = "pair"
    seeds_per_pass = 0
    PAIRS = 64
    SPEC = models.ModelSpec("mlp_mix", window=10, channels=8, hidden=16, horizon=2)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        train, _, test = bench_suite.anomaly_scenario(self.seed)
        spec = self.SPEC
        config = models.TrainConfig(epochs=12, learning_rate=1e-2, batch_size=32, seed=self.seed)
        windows = core.make_windows(train, spec.total_rows)
        self.state = models.train(models.init_params(spec, self.seed), windows, config)
        self.selector = models.all_params_selector(spec)
        pool = core.make_windows(test, spec.total_rows)
        rng = np.random.default_rng(self.seed)
        self.pairs = [
            (pool[a], pool[b]) for a, b in rng.integers(len(pool), size=(self.PAIRS, 2))
        ]

    def make_reference(self) -> None:
        spec, params = self.state.spec, self.state.params
        self.want = [
            ref.influence_matrix(
                spec, params, src.values, dst.values, self.selector.names, self.state.trained_lr
            )
            for src, dst in self.pairs
        ]
        self.items = len(self.pairs)

    def ops(self):
        def one(src, dst):
            matrix = influence.influence_matrix(self.state, src, dst, selector=self.selector)
            return matrix, influence.tracin(self.state, src, dst, selector=self.selector)

        return [lambda s=s, d=d: one(s, d) for s, d in self.pairs]

    def check(self, i: int, output) -> list[str]:
        matrix, whole = output
        want = self.want[i]
        problems = []
        gap = abs(matrix.total() - whole) / (abs(whole) + 1e-12)
        if not gap <= REL_TOL:
            problems.append(f"|matrix total - tracin| is {gap:.3e} relative")
        got = np.asarray(matrix.values)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want)) if got.shape == want.shape else np.inf
        if not err <= REL_TOL:
            problems.append(f"matrix off by {err:.3e} relative to reference")
        return problems


WORKLOADS = {w.name: w for w in (DetectCif, PruneSweep, DetectReconLong, InfluencePairs)}
