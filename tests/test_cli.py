import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chinf import anomaly, cli, core, data, models, pruning
from chinf.cli import main

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv):
    """The CLI in a separate process, so an escaping exception shows as a
    traceback on stderr."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "chinf.cli", *(str(a) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth + train run shared by every test that needs artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run("synth", "--config", DATA / "synth.json", "--out", root) == 0
    train_cfg = json.loads((DATA / "train.json").read_text())
    train_cfg["series_csv"] = str(root / "series.csv")
    cfg_path = write_config(root / "train_here.json", train_cfg)
    assert run("train", "--config", cfg_path, "--out", root) == 0
    return root


class TestSynth:
    def test_writes_series_labels_and_manifest(self, tmp_path):
        assert run("synth", "--config", DATA / "synth.json", "--out", tmp_path) == 0
        header = (tmp_path / "series.csv").read_text().split("\n", 1)[0]
        assert header == "c0_0,c0_1,c1_0,c1_1,c2_0,c2_1,c3_0,c3_1"
        labels = [int(v) for v in (tmp_path / "series.csv.labels").read_text().split()]
        assert len(labels) == 1200
        assert sum(labels) == 30
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"] == json.loads((DATA / "synth.json").read_text())

    def test_byte_identical_reruns(self, tmp_path):
        for d in ("a", "b"):
            assert run("synth", "--config", DATA / "synth.json", "--out", tmp_path / d) == 0
        for name in ("series.csv", "series.csv.labels", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        assert run(
            "synth", "--config", DATA / "synth.json", "--seed", "7", "--out", tmp_path
        ) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_bad_anomaly_reported_with_its_index(self, tmp_path, capsys):
        cfg = json.loads((DATA / "synth.json").read_text())
        cfg["anomalies"][1]["kind"] = "glitch"
        path = write_config(tmp_path / "bad.json", cfg)
        assert run("synth", "--config", path, "--out", tmp_path) == 2
        assert "anomalies[1]: unknown anomaly kind 'glitch'" in capsys.readouterr().err


class TestDetect:
    def detect_config(self, pipeline, tmp_path, **overrides):
        cfg = json.loads((DATA / "detect.json").read_text())
        cfg["series_csv"] = str(pipeline / "series.csv")
        cfg["checkpoint"] = str(pipeline / "model.json")
        cfg.update(overrides)
        return write_config(tmp_path / "detect_here.json", cfg)

    def test_matches_golden_summary(self, pipeline, tmp_path):
        cfg = self.detect_config(pipeline, tmp_path)
        assert run("detect", "--config", cfg, "--out", tmp_path) == 0
        produced = json.loads((tmp_path / "summary.json").read_text())
        golden = json.loads((DATA / "golden_detect_summary.json").read_text())
        assert produced == golden

    def test_report_rows_align_with_summary(self, pipeline, tmp_path):
        cfg = self.detect_config(pipeline, tmp_path)
        assert run("detect", "--config", cfg, "--out", tmp_path) == 0
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "origin_t,raw_score,normalized_score,prediction,label"
        rows = [line.split(",") for line in lines[1:]]
        summary = json.loads((tmp_path / "summary.json").read_text())
        preds = np.array([int(r[3]) for r in rows])
        norm = np.array([float(r[2]) for r in rows])
        assert np.array_equal(preds, (norm > summary["threshold"]).astype(int))

    def test_byte_identical_reruns(self, pipeline, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir(exist_ok=True)
            cfg = self.detect_config(pipeline, tmp_path / d)
            assert run("detect", "--config", cfg, "--out", tmp_path / d) == 0
        for name in ("report.csv", "summary.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_unknown_normalization_rejected(self, pipeline, tmp_path, capsys):
        cfg = self.detect_config(pipeline, tmp_path, normalization="bogus")
        assert run("detect", "--config", cfg, "--out", tmp_path) == 2
        assert "detect config: unknown normalization 'bogus'" in capsys.readouterr().err

    def test_wrong_field_type_rejected(self, pipeline, tmp_path, capsys):
        cfg = self.detect_config(pipeline, tmp_path, stride="ten")
        assert run("detect", "--config", cfg, "--out", tmp_path) == 2
        assert "stride: expected int, got 'ten'" in capsys.readouterr().err

    def test_per_channel_normalization_runs(self, pipeline, tmp_path):
        cfg = self.detect_config(pipeline, tmp_path, normalize_per_channel=True)
        assert run("detect", "--config", cfg, "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["method"] == "cif_self_influence"

    def test_per_channel_flag_must_be_a_json_bool(self, pipeline, tmp_path, capsys):
        cfg = self.detect_config(pipeline, tmp_path, normalize_per_channel="yes")
        assert run("detect", "--config", cfg, "--out", tmp_path / "out") == 2
        assert "normalize_per_channel: expected bool, got 'yes'" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_non_finite_threshold_exits_1(self, tmp_path, capsys):
        # every window of a constant series scores the same, so flagging them
        # all (threshold -inf) is the best F1 on the validation split
        labels = np.zeros(80, dtype=np.int64)
        labels[50:54] = labels[70:73] = 1
        data.save_csv(core.MtsSeries(np.ones((80, 2)), ("a", "b"), labels),
                      str(tmp_path / "series.csv"))
        spec = models.ModelSpec("linear_ci", window=4, channels=2)
        untrained = models.ModelState(spec, models.init_params(spec, 0).params, trained_lr=0.1)
        models.save_checkpoint(untrained, str(tmp_path / "model.json"))
        cfg = dict(json.loads((DATA / "detect.json").read_text()),
                   series_csv=str(tmp_path / "series.csv"),
                   checkpoint=str(tmp_path / "model.json"))
        out = tmp_path / "out"
        assert run("detect", "--config", write_config(tmp_path / "cfg.json", cfg),
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "threshold" in err
        assert list(out.iterdir()) == []

    def test_gradient_row_overflow_exits_1(self, tmp_path, capsys):
        # every window's squared-error total is finite (1e300 per channel:
        # bias 1e150 against targets of 0); the test split's first window
        # has inputs of 1e200, whose squared norm, a factor of the output
        # weight's gradient norm, overflows
        labels = np.zeros(40, dtype=np.int64)
        labels[30:33] = 1
        values = np.zeros((40, 2))
        values[30:32] = 1e200
        data.save_csv(core.MtsSeries(values, ("a", "b"), labels), str(tmp_path / "series.csv"))
        spec = models.ModelSpec("linear_ci", window=2, channels=2, horizon=1)
        state = models.ModelState(
            spec, {"weight": np.zeros((1, 2)), "bias": np.full(1, 1e150)}, trained_lr=0.1
        )
        models.save_checkpoint(state, str(tmp_path / "model.json"))
        cfg = dict(json.loads((DATA / "detect.json").read_text()),
                   series_csv=str(tmp_path / "series.csv"),
                   checkpoint=str(tmp_path / "model.json"))
        out = tmp_path / "out"
        assert run("detect", "--config", write_config(tmp_path / "cfg.json", cfg),
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "self-influence overflowed" in err
        assert list(out.iterdir()) == []


class TestInfluence:
    def influence_config(self, pipeline, tmp_path, **overrides):
        cfg = {
            "series_csv": str(pipeline / "series.csv"),
            "checkpoint": str(pipeline / "model.json"),
            "stride": 50,
        }
        cfg.update(overrides)
        return write_config(tmp_path / "influence.json", cfg)

    def test_self_influence_table(self, pipeline, tmp_path):
        cfg = self.influence_config(pipeline, tmp_path)
        assert run("influence", "--config", cfg, "--out", tmp_path) == 0
        lines = (tmp_path / "self_influence.csv").read_text().strip().split("\n")
        assert lines[0].startswith("origin_t,c0_0,")
        assert len(lines) == 1 + (1200 - 10) // 50 + 1
        first = lines[1].split(",")
        assert int(first[0]) == 9
        assert all(float(v) >= 0.0 for v in first[1:])

    def test_matrix_mode(self, pipeline, tmp_path):
        cfg = self.influence_config(
            pipeline, tmp_path, mode="matrix", src_index=0, dst_index=0
        )
        assert run("influence", "--config", cfg, "--out", tmp_path) == 0
        lines = (tmp_path / "influence_matrix.csv").read_text().strip().split("\n")
        m = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert m.shape == (8, 8)
        assert np.array_equal(m, m.T)
        assert (np.diag(m) >= 0.0).all()

    def test_window_index_out_of_range(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(
            pipeline, tmp_path, mode="matrix", src_index=9999, dst_index=0
        )
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert "src_index: window index 9999 out of range" in capsys.readouterr().err

    def test_unknown_mode(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(pipeline, tmp_path, mode="x")
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert capsys.readouterr().err == (
            "config error: mode: unknown value 'x', expected one of ('matrix', 'self')\n"
        )

    def test_unknown_selector(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(pipeline, tmp_path, selector="bogus")
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert "selector: unknown value 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["0.5", True])
    def test_eta_must_be_a_json_number(self, pipeline, tmp_path, capsys, eta):
        cfg = self.influence_config(pipeline, tmp_path, eta=eta)
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert f"eta: expected float, got {eta!r}" in capsys.readouterr().err
        assert not (tmp_path / "self_influence.csv").exists()

    def test_non_finite_eta_rejected(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(pipeline, tmp_path, eta=float("nan"))
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert "eta: expected a finite number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "self_influence.csv").exists()


def assert_all_finite(out_dir):
    """Every number in every CSV or JSON file under out_dir is finite."""
    for path in out_dir.iterdir():
        if path.suffix == ".json":
            stack = [json.loads(path.read_text())]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, float):
                    assert np.isfinite(item), path
        elif path.suffix == ".csv":
            for line in path.read_text().strip().split("\n")[1:]:
                for field in line.split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    assert np.isfinite(value), (path, line)


@pytest.mark.parametrize("horizon", [0, 2])
@pytest.mark.parametrize("architecture", ["linear_ci", "mlp_ci", "mlp_mix"])
def test_every_command_accepts_every_architecture_and_horizon(
    pipeline, tmp_path, architecture, horizon
):
    series = str(pipeline / "series.csv")
    train_cfg = json.loads((DATA / "train.json").read_text())
    train_cfg.update(
        series_csv=series, architecture=architecture, hidden=4, horizon=horizon, epochs=2
    )
    model_dir = tmp_path / "train"
    assert run("train", "--config", write_config(tmp_path / "train.json", train_cfg),
               "--out", model_dir) == 0
    checkpoint = str(model_dir / "model.json")
    runs = [
        ("influence", {"stride": 25}),
        ("influence", {"mode": "matrix", "src_index": 0, "dst_index": 3}),
    ]
    for method in ("cif_self_influence", "tracin_self_influence", "reconstruction_error"):
        runs.append(("detect", {"method": method}))
    # the all-parameters selector on every gradient path
    runs += [
        ("influence", {"stride": 25, "selector": "all"}),
        ("influence", {"mode": "matrix", "src_index": 0, "dst_index": 3, "selector": "all"}),
        ("detect", {"method": "cif_self_influence", "selector": "all"}),
        ("detect", {"method": "tracin_self_influence", "selector": "all"}),
    ]
    if horizon > 0:
        prune_cfg = dict(train_cfg, m=4, seeds=[0], refit_epochs=1)
        del prune_cfg["checkpoint"]
        runs.append(("prune", prune_cfg))
    for i, (command, cfg) in enumerate(runs):
        if command != "prune":
            cfg = dict({"series_csv": series, "checkpoint": checkpoint}, **cfg)
        out = tmp_path / f"{command}{i}"
        assert run(command, "--config", write_config(tmp_path / f"{i}.json", cfg),
                   "--out", out) == 0, (command, cfg)
        assert_all_finite(out)
    assert_all_finite(model_dir)


class Built(Exception):
    """Carries the object a command built out of the command."""


def test_unset_fields_keep_the_dataclass_defaults(pipeline, tmp_path, monkeypatch):
    # the CLI passes only the fields a config sets, so the dataclass default
    # is the one a command uses
    for cls, defaults in [
        (models.ModelSpec, (5, "relu", 1)),
        (models.TrainConfig, (3, 0.5, 7, 9)),
        (data.SyntheticConfig, (3, 1, 40, None, 0.2, 0.01, 4)),
        (data.AnomalySpec, (1.25,)),
        (anomaly.DetectConfig, ("reconstruction_error", 2, None, None, "median_iqr", "test", True)),
    ]:
        monkeypatch.setattr(cls.__init__, "__defaults__", defaults)
    spec = cli._model_spec_from({"architecture": "mlp_ci", "window": 3, "channels": 2})
    assert (spec.hidden, spec.activation, spec.horizon) == (5, "relu", 1)
    assert cli._train_config_from({}) == models.TrainConfig(3, 0.5, 7, 9)

    built = {}
    generate = data.gen_synthetic
    monkeypatch.setattr(data, "gen_synthetic", lambda syn: generate(built.setdefault("syn", syn)))

    def stop(*args, **kwargs):
        raise Built(args + tuple(kwargs.values()))

    monkeypatch.setattr(data, "inject_anomalies", stop)
    anomaly_cfg = {"kind": "spike", "target_channels": [0], "intervals": [[1, 3]]}
    with pytest.raises(Built) as info:
        cli.cmd_synth({"anomalies": [anomaly_cfg]}, str(tmp_path))
    assert built["syn"] == data.SyntheticConfig(3, 1, 40, None, 0.2, 0.01, 4)
    assert info.value.args[0][1].magnitude == 1.25

    monkeypatch.setattr(anomaly, "detect", stop)
    with pytest.raises(Built) as info:
        cli.cmd_detect(
            {"series_csv": str(pipeline / "series.csv"), "checkpoint": str(pipeline / "model.json")},
            str(tmp_path),
        )
    config = info.value.args[0][2]
    assert (config.method, config.stride, config.normalization) == (
        "reconstruction_error", 2, "median_iqr"
    )
    assert (config.threshold_on, config.normalize_per_channel) == ("test", True)


@pytest.fixture(scope="module")
def prune_series(tmp_path_factory):
    root = tmp_path_factory.mktemp("prune")
    assert run("synth", "--config", DATA / "synth_prune.json", "--out", root) == 0
    return root


class TestPrune:
    def prune_config(self, prune_series, tmp_path, **overrides):
        cfg = json.loads((DATA / "prune.json").read_text())
        cfg["series_csv"] = str(prune_series / "prune_series.csv")
        cfg.update(overrides)
        return write_config(tmp_path / "prune_here.json", cfg)

    def test_rows_cover_seeds_and_strategies(self, prune_series, tmp_path):
        cfg = self.prune_config(prune_series, tmp_path)
        assert run("prune", "--config", cfg, "--out", tmp_path) == 0
        lines = (tmp_path / "pruning.csv").read_text().strip().split("\n")
        assert lines[0] == "strategy,m,seed,mse_selected,mse_full,mixing_refit"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert {(r[0], r[2]) for r in rows} == {
            ("influence_equidistant", "0"),
            ("influence_equidistant", "1"),
            ("continuous", "0"),
            ("continuous", "1"),
        }
        assert all(r[1] == "3" and r[5] == "false" for r in rows)

    def test_each_seed_trains_one_full_model(self, prune_series, tmp_path, monkeypatch):
        widths, passes = [], []
        prune_cells = pruning.prune_cells

        def train_and_count(state, windows, config, **kwargs):
            widths.append(windows.values.shape[-1])
            return models.train(state, windows, config, **kwargs)

        def cells_and_count(*args, **kwargs):
            passes.append(args[3])
            return prune_cells(*args, **kwargs)

        monkeypatch.setattr(pruning, "train", train_and_count)
        monkeypatch.setattr(pruning, "prune_cells", cells_and_count)
        cfg = self.prune_config(prune_series, tmp_path)
        assert run("prune", "--config", cfg, "--out", tmp_path) == 0
        # seeds [0, 1] x strategies equidistant and continuous at m = 3 of 6:
        # per seed, one full model and one model per strategy's subset
        assert widths == [6, 3, 3] * 2
        assert passes == [[(3, "influence_equidistant"), (3, "continuous")]] * 2

    def test_byte_identical_across_rerun_and_threads(self, prune_series, tmp_path):
        outs = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir(exist_ok=True)
            cfg = self.prune_config(prune_series, tmp_path / d)
            assert run("prune", "--config", cfg, "--out", tmp_path / d) == 0
            outs.append((tmp_path / d / "pruning.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_keeping_every_channel_reproduces_full_model(self, prune_series, tmp_path):
        cfg = self.prune_config(
            prune_series, tmp_path, m=6, strategies=["continuous"], seeds=[0]
        )
        assert run("prune", "--config", cfg, "--out", tmp_path) == 0
        row = (tmp_path / "pruning.csv").read_text().strip().split("\n")[1].split(",")
        assert row[3] == row[4]

    def test_reconstruction_model_rejected(self, prune_series, tmp_path, capsys):
        cfg = self.prune_config(prune_series, tmp_path, horizon=0)
        assert run("prune", "--config", cfg, "--out", tmp_path) == 2
        assert "horizon: pruning needs a forecasting model" in capsys.readouterr().err

    def test_integral_float_seeds_accepted(self, prune_series, tmp_path):
        cfg = self.prune_config(
            prune_series, tmp_path, seeds=[1.0], strategies=["continuous"]
        )
        assert run("prune", "--config", cfg, "--out", tmp_path) == 0
        rows = (tmp_path / "pruning.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == ["1"]

    @pytest.mark.parametrize("seed", [1.5, "1", True])
    def test_non_integer_seed_rejected(self, prune_series, tmp_path, capsys, seed):
        cfg = self.prune_config(prune_series, tmp_path, seeds=[0, seed])
        assert run("prune", "--config", cfg, "--out", tmp_path / "out") == 2
        assert f"config error: seeds[1]: expected int, got {seed!r}" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, prune_series, tmp_path, capsys):
        cfg = self.prune_config(prune_series, tmp_path, strategies=["pca"])
        assert run("prune", "--config", cfg, "--out", tmp_path) == 2
        assert capsys.readouterr().err == (
            "config error: strategies: unknown value 'pca', expected one of "
            f"{pruning.STRATEGIES}\n"
        )

    def test_seed_flag_replaces_the_seeds_list(self, prune_series, tmp_path):
        flagged, listed = tmp_path / "flagged", tmp_path / "listed"
        cfg = self.prune_config(prune_series, tmp_path)
        assert run("prune", "--config", cfg, "--seed", 5, "--out", flagged) == 0
        cfg = self.prune_config(prune_series, tmp_path, seeds=[5])
        assert run("prune", "--config", cfg, "--out", listed) == 0
        assert (flagged / "pruning.csv").read_bytes() == (listed / "pruning.csv").read_bytes()
        rows = (flagged / "pruning.csv").read_text().strip().split("\n")[1:]
        assert {row.split(",")[2] for row in rows} == {"5"}
        config = json.loads((flagged / "manifest.json").read_text())["config"]
        assert (config["seed"], config["seeds"]) == (5, [5])

    def test_infinite_test_mse_exits_1(self, tmp_path, capsys):
        # the spike falls in the test split, whose squared errors overflow, so
        # the full model's test MSE is refused before any cell trains
        t = np.arange(200, dtype=np.float64)[:, None]
        values = np.sin(t / 7 + np.arange(4))
        values[190, 2] = 1e200
        data.save_csv(core.MtsSeries(values, ("a", "b", "c", "d")), str(tmp_path / "s.csv"))
        cfg = write_config(tmp_path / "cfg.json", {
            "series_csv": str(tmp_path / "s.csv"), "architecture": "linear_ci", "window": 8,
            "channels": 4, "horizon": 2, "epochs": 2, "m": 2, "strategies": ["continuous"],
        })
        out = tmp_path / "out"
        assert run("prune", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == "error: forward pass produced non-finite values\n"
        assert list(out.iterdir()) == []


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run("synth", "--config", tmp_path / "absent.json", "--out", tmp_path) == 2
        assert "config: file not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert run("synth", "--config", path, "--out", tmp_path) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert run("synth", "--config", path, "--out", tmp_path) == 2
        assert "top level must be a JSON object" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        path = write_config(tmp_path / "t.json", {"architecture": "linear_ci"})
        assert run("train", "--config", path, "--out", tmp_path) == 2
        assert "series_csv: required field is missing" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "t.json",
            {
                "series_csv": "missing.csv",
                "architecture": "linear_ci",
                "window": 4,
                "channels": 2,
            },
        )
        assert run("train", "--config", path, "--out", tmp_path) == 1
        assert "error: input file not found: missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["series_csv", "checkpoint"])
    def test_directory_as_input_file(self, pipeline, tmp_path, capsys, field):
        cfg = {"series_csv": str(pipeline / "series.csv"), "checkpoint": str(pipeline / "model.json")}
        cfg[field] = str(tmp_path)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run("influence", "--config", path, "--out", tmp_path / "out") == 1
        assert f"error: input file not found: {tmp_path}" in capsys.readouterr().err

    def test_labels_directory_is_not_read_as_labels(self, pipeline, tmp_path, capsys):
        (tmp_path / "series.csv").write_bytes((pipeline / "series.csv").read_bytes())
        (tmp_path / "series.csv.labels").mkdir()
        cfg = json.loads((DATA / "detect.json").read_text())
        cfg.update(series_csv=str(tmp_path / "series.csv"), checkpoint=str(pipeline / "model.json"))
        path = write_config(tmp_path / "cfg.json", cfg)
        assert run("detect", "--config", path, "--out", tmp_path / "out") == 1
        assert "error: test series has no timestep labels" in capsys.readouterr().err

    def test_non_finite_learning_rate_rejected(self, pipeline, tmp_path, capsys):
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(pipeline / "series.csv")
        cfg["learning_rate"] = float("nan")
        path = write_config(tmp_path / "t.json", cfg)
        assert run("train", "--config", path, "--out", tmp_path) == 2
        assert "learning_rate: expected a finite number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("learning_rate", ["0.01", False])
    def test_learning_rate_must_be_a_json_number(self, pipeline, tmp_path, capsys, learning_rate):
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(pipeline / "series.csv")
        cfg["learning_rate"] = learning_rate
        path = write_config(tmp_path / "t.json", cfg)
        assert run("train", "--config", path, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"learning_rate: expected float, got {learning_rate!r}" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "field, text",
        [("learning_rate", "1" + "0" * 400), ("epochs", "1e400"), ("batch_size", "-1e400")],
        ids=["huge_integer_float_field", "infinite_int_field", "negative_infinite_int_field"],
    )
    def test_number_beyond_float_range_rejected(self, pipeline, tmp_path, capsys, field, text):
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(pipeline / "series.csv")
        cfg[field] = 0
        path = tmp_path / "t.json"
        # json.dumps cannot write these numbers, so splice the literal in
        path.write_text(json.dumps(cfg).replace(f'"{field}": 0', f'"{field}": {text}'))
        assert run("train", "--config", path, "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}: expected " in err
        assert not (tmp_path / "model.json").exists()

    def test_undecodable_config_names_config(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": 1, "out_csv": "s\xe9ries.csv"}')
        assert run("synth", "--config", path, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: cannot read {path} (") and err.count("\n") == 1

    def test_checkpoint_that_is_not_json_names_its_path(self, pipeline, tmp_path, capsys):
        checkpoint = tmp_path / "model.json"
        checkpoint.write_text("not json\n")
        cfg = write_config(tmp_path / "cfg.json", {
            "series_csv": str(pipeline / "series.csv"), "checkpoint": str(checkpoint),
        })
        assert run("influence", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"error: {checkpoint}: Expecting value: line 1 column 1 (char 0)\n"

    def test_undecodable_series_names_its_path(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_bytes(b"a,b\n1,2\n3,\xff\n")
        cfg = write_config(tmp_path / "cfg.json", {
            "series_csv": str(csv), "architecture": "linear_ci", "window": 1, "channels": 2,
        })
        assert run("train", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: 'utf-8' codec can't decode") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["config_is_a_directory", "out_is_a_file"])
    def test_unusable_path_exits_with_one_line(self, tmp_path, case):
        config, out = str(DATA / "synth.json"), tmp_path / "out"
        if case == "config_is_a_directory":
            config = str(tmp_path)
        else:
            out.write_text("")
        proc = run_process("synth", "--config", config, "--out", out)
        assert proc.returncode == (2 if case == "config_is_a_directory" else 1), proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        if case == "config_is_a_directory":
            assert proc.stderr.startswith(f"config error: config: cannot read {config} (")
        else:
            assert proc.stderr.startswith("error: ") and str(out) in proc.stderr

    def test_training_blowup_prints_one_line(self, pipeline, tmp_path):
        # numpy's overflow warnings would add lines ahead of the error
        cfg = json.loads((DATA / "train.json").read_text())
        cfg.update(series_csv=str(pipeline / "series.csv"), learning_rate=1e300)
        proc = run_process("train", "--config", write_config(tmp_path / "t.json", cfg),
                           "--out", tmp_path / "out")
        assert proc.returncode == 1
        assert proc.stderr == "error: training loss is not finite at epoch 0, batch 1\n"

    def test_anomalous_train_slice_rejected(self, tmp_path, capsys):
        # pushing train_frac past the first anomaly breaks the clean-train rule
        assert run("synth", "--config", DATA / "synth.json", "--out", tmp_path) == 0
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(tmp_path / "series.csv")
        cfg["train_frac"] = 0.7
        path = write_config(tmp_path / "t.json", cfg)
        assert run("train", "--config", path, "--out", tmp_path) == 2
        assert "train_frac/val_frac" in capsys.readouterr().err


def base_config(command, pipeline, prune_series):
    """A working config for command, run against the shared artifacts."""
    series = str(pipeline / "series.csv")
    if command == "synth":
        return json.loads((DATA / "synth.json").read_text())
    if command == "prune":
        cfg = json.loads((DATA / "prune.json").read_text())
        cfg["series_csv"] = str(prune_series / "prune_series.csv")
        return cfg
    if command == "influence":
        return {"series_csv": series, "checkpoint": str(pipeline / "model.json"), "stride": 50}
    cfg = json.loads((DATA / f"{command}.json").read_text())
    cfg.update(series_csv=series, checkpoint=str(pipeline / "model.json"))
    return cfg


FIELD_BOUND_CASES = [
    ("train", {"seed": -3}, "train config: seed must be at least 0, got -3"),
    ("prune", {"seed": -3}, "train config: seed must be at least 0, got -3"),
    ("prune", {"seeds": [0, -1]}, "seeds[1]: expected a value in [0, inf), got -1"),
    ("synth", {"seed": -1}, "synth config: seed must be at least 0, got -1"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [[700, 715]],
                              "seed": -2}]},
     "anomalies[0].seed: expected a value in [0, inf), got -2"),
    ("train", {"stride": 0}, "stride: expected a value in [1, inf), got 0"),
    ("influence", {"stride": 0}, "stride: expected a value in [1, inf), got 0"),
    ("prune", {"stride": -2}, "stride: expected a value in [1, inf), got -2"),
    ("influence", {"eta": 0}, "eta: expected a value in (0, inf), got 0.0"),
    ("detect", {"eta": -0.5}, "eta: expected a value in (0, inf), got -0.5"),
    # prune ranks without eta; the case keeps its place so later ids stay put
    ("prune", {"eta": 0}, "eta: unknown field"),
    ("prune", {"m": 99}, "m: expected a value in [1, 6], got 99"),
    ("prune", {"m": 0}, "m: expected a value in [1, 6], got 0"),
    ("prune", {"architecture": "mlp_mix", "hidden": 4, "refit_epochs": 0},
     "refit_epochs: expected a value in [1, inf), got 0"),
    ("prune", {"seeds": []}, "seeds: expected a nonempty list"),
    ("prune", {"strategies": []}, "strategies: expected a nonempty list"),
    ("synth", {"base_frequencies": [0.5, "1e400"]},
     "base_frequencies[1]: expected a finite number, got inf"),
    ("synth", {"base_frequencies": ["a", "b"]}, "base_frequencies[0]: expected float, got 'a'"),
    ("synth", {"anomalies": [{"kind": "spike", "intervals": [[700, 715]]}]},
     "anomalies[0].target_channels: required field is missing"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [[700, 715]]},
                             {"kind": "spike", "target_channels": "ab", "intervals": [[900, 915]]}]},
     "anomalies[1].target_channels: expected list, got 'ab'"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [700]}]},
     "anomalies[0].intervals[0]: expected list, got 700"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [[1.5, 9]]}]},
     "anomalies[0].intervals[0][0]: expected int, got 1.5"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1],
                              "intervals": [[700, 715], [900, "915"]]}]},
     "anomalies[0].intervals[1][1]: expected int, got '915'"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1.5], "intervals": [[700, 715]]}]},
     "anomalies[0].target_channels[0]: expected int, got 1.5"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [[700, 715]]},
                             {"kind": "drift", "target_channels": [0, True], "intervals": [[9, 19]]}]},
     "anomalies[1].target_channels[1]: expected int, got True"),
    # checked in every field, used or not, so none reaches manifest.json
    ("influence", {"src_index": float("nan")}, "src_index: expected a finite number, got nan"),
    ("detect", {"extra": {"a": [1.0, float("-inf")]}}, "extra: unknown field"),
    # library lower bounds, each worded by core._integral
    ("train", {"window": 0}, "model spec: window must be at least 1, got 0"),
    ("train", {"channels": 0}, "model spec: channels must be at least 1, got 0"),
    ("train", {"horizon": -1}, "model spec: horizon must be at least 0, got -1"),
    ("train", {"architecture": "linear_ci", "hidden": -5},
     "model spec: hidden must be at least 0, got -5"),
    ("train", {"epochs": 0}, "train config: epochs must be at least 1, got 0"),
    ("train", {"batch_size": 0}, "train config: batch_size must be at least 1, got 0"),
    ("synth", {"clusters": 0}, "synth config: clusters must be at least 1, got 0"),
    ("synth", {"length": 1}, "synth config: length must be at least 2, got 1"),
    ("detect", {"stride": 0}, "detect config: stride must be at least 1, got 0"),
]


@pytest.mark.parametrize(
    "command, overrides, message",
    FIELD_BOUND_CASES,
    ids=[f"{c}-{'-'.join(o)}-{i}" for i, (c, o, _) in enumerate(FIELD_BOUND_CASES)],
)
def test_out_of_range_field_exits_2(
    pipeline, prune_series, tmp_path, capsys, command, overrides, message
):
    cfg = dict(base_config(command, pipeline, prune_series), **overrides)
    # json.dumps cannot write 1e400, so splice the literal in
    text = json.dumps(cfg).replace('"1e400"', "1e400")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(command, "--config", path, "--out", out) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


UNKNOWN_KEY_CASES = [
    # each a field of another command
    ("synth", {"window": 10}, (), "window"),
    ("train", {"mode": "self"}, (), "mode"),
    ("influence", {"method": "reconstruction_error"}, (), "method"),
    ("detect", {"seeds": [0]}, (), "seeds"),
    ("prune", {"checkpoint": "model.json"}, (), "checkpoint"),
    # the pruning ranking does not depend on eta, so prune has no such field
    ("prune", {"eta": 0.01}, (), "eta"),
    # a misspelt field would otherwise run with its default
    ("detect", {"selctor": "bogus"}, (), "selctor"),
    ("synth", {"anomalies": [{"kind": "spike", "target_channels": [1], "intervals": [[700, 715]],
                              "colour": "red"}]}, (), "anomalies[0].colour"),
    # the flag sets seed, which commands that draw nothing at random lack
    ("influence", {}, ("--seed", 3), "seed"),
    ("detect", {}, ("--seed", 3), "seed"),
]


@pytest.mark.parametrize(
    "command, overrides, flags, path",
    UNKNOWN_KEY_CASES,
    ids=[f"{c[0]}-{c[3]}" for c in UNKNOWN_KEY_CASES],
)
def test_unknown_key_exits_2_naming_its_path(
    pipeline, prune_series, tmp_path, capsys, command, overrides, flags, path
):
    cfg = write_config(tmp_path / "cfg.json",
                       dict(base_config(command, pipeline, prune_series), **overrides))
    out = tmp_path / "out"
    assert run(command, "--config", cfg, *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {path}: unknown field\n"
    assert list(out.iterdir()) == []


def readme_fields(command):
    """The backticked names in the first column of command's README table;
    prune's "model and SGD fields" row stands for train's two groups."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split(f"### `chinf {command}`", 1)[1].split("\n#", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| ") and not line.startswith("| field "):
            first = line.split("|")[1]
            if first.strip() == "model and SGD fields":
                names |= set(cli.MODEL) | set(cli.SGD)
            names |= set(re.findall(r"`(\w+)`", first))
    return names


@pytest.mark.parametrize("command", list(cli.SCHEMAS))
def test_readme_table_lists_the_schema_fields(command):
    assert readme_fields(command) == set(cli.SCHEMAS[command])


MALFORMED_CHECKPOINTS = {
    "top_level_list": lambda doc: [doc],
    "missing_spec": lambda doc: {k: v for k, v in doc.items() if k != "spec"},
    "unknown_spec_key": lambda doc: dict(doc, spec=dict(doc["spec"], colour="red")),
    "missing_params": lambda doc: {k: v for k, v in doc.items() if k != "params"},
    "fractional_window": lambda doc: dict(doc, spec=dict(doc["spec"], window=10.5)),
    "bool_hidden": lambda doc: dict(doc, spec=dict(doc["spec"], hidden=True)),
    "string_trained_lr": lambda doc: dict(doc, trained_lr="0.01"),
    "bool_trained_lr": lambda doc: dict(doc, trained_lr=True),
    "string_parameter": lambda doc: dict(doc, params=dict(doc["params"], b2=dict(
        doc["params"]["b2"], data=["1.5"] + doc["params"]["b2"]["data"][1:]))),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exits_1_with_one_line(pipeline, tmp_path, case):
    doc = json.loads((pipeline / "model.json").read_text())
    checkpoint = write_config(tmp_path / "model.json", MALFORMED_CHECKPOINTS[case](doc))
    cfg = write_config(tmp_path / "cfg.json", {
        "series_csv": str(pipeline / "series.csv"), "checkpoint": checkpoint, "stride": 50,
    })
    out = run_process("influence", "--config", cfg, "--out", tmp_path / "out")
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith(f"error: {checkpoint}: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr


# Config mutations for the fuzz test: wrong types, non-finite and huge
# numbers, small or negative integers, and per-field values that are out of
# range or switch to another path. Sizes are only ever mutated downward.
WRONG_TYPES = ["x", "", [1], {"a": 1}, True, None, 1.5]
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 1e300]
SMALL_INTS = [-1, 0, 3]


class MISSPELT:
    """A mutation that renames its field, doubling the first letter as a
    typo might."""


FIELD_VALUES = {
    "mode": ["self", "bogus"],
    "selector": ["all", "bogus"],
    "method": ["tracin_self_influence", "reconstruction_error", "bogus"],
    "normalization": ["mean_std", "median_iqr", "bogus"],
    "threshold_on": ["test", "bogus"],
    "normalize_per_channel": [True, False, "yes"],
    "architecture": ["linear_ci", "mlp_mix", "bogus"],
    "activation": ["relu", "bogus"],
    "src_index": [10**6, 10**30],
    "dst_index": [10**6, -(10**6)],
    # 0.05 leaves a validation split with no anomaly: a single class
    "val_frac": [0.05, 0.9],
    "train_frac": [0.05, 0.9],
    "base_frequencies": [[float("nan"), 1.0], [1.0], [2.0, 3.0, 5.0, 7.0]],
    "anomalies[0].kind": ["drift", "correlation_break", "bogus"],
    "anomalies[0].target_channels": [[99], [-1], [0, 0], []],
    "anomalies[0].intervals": [[[5000, 5010]], [[10, 5]], [[-3, 2]], [[0, 1e300]]],
    # the prune series has 6 channels
    "m": [1, 2, 5, 6, 7],
    "strategies": [["random"], ["most_influence", "continuous"], ["random", "bogus"], []],
    "seeds": [[2], [5, 0], [-1], [1.5], []],
    "refit_epochs": [1, 2],
    "horizon": [1, 2],
}
FUZZ_FIELDS = {
    "synth": ["clusters", "channels_per_cluster", "length", "base_frequencies", "phase_jitter",
              "noise_std", "seed", "anomalies", "out_csv", "anomalies[0].kind",
              "anomalies[0].target_channels", "anomalies[0].intervals",
              "anomalies[0].magnitude", "anomalies[0].seed"],
    "train": ["series_csv", "architecture", "window", "channels", "hidden", "activation",
              "horizon", "epochs", "learning_rate", "batch_size", "seed", "train_frac",
              "val_frac", "stride", "checkpoint"],
    "influence": ["checkpoint", "mode", "src_index", "dst_index", "eta", "selector", "stride",
                  "out_csv"],
    "detect": ["method", "stride", "eta", "selector", "normalization", "threshold_on",
               "normalize_per_channel", "train_frac", "val_frac", "out_csv", "out_json"],
    "prune": ["m", "strategies", "seeds", "eta", "stride", "refit_epochs", "horizon",
              "train_frac", "val_frac"],
}


def mutation_values(command, field):
    base = fuzz_base_config(command, Path("."))
    values = WRONG_TYPES + NON_FINITE + SMALL_INTS + FIELD_VALUES.get(field, []) + [MISSPELT]
    if field in ("epochs", "length", "refit_epochs"):
        # never upward: a bigger value only makes the run slower
        values = [v for v in values if not (type(v) in (int, float) and not v < base[field])]
    if field in ("seeds", "strategies"):
        # never longer: each seed and strategy is one more pair of trainings
        values = [v for v in values if not (type(v) is list and len(v) > len(base[field]))]
    return values


def fuzz_base_config(command, root):
    series, checkpoint = str(root / "series.csv"), str(root / "model.json")
    if command == "synth":
        return json.loads((DATA / "synth.json").read_text())
    if command == "prune":
        # refit_epochs at its default, so that mutations can stay below it
        return dict(json.loads((DATA / "prune.json").read_text()),
                    series_csv=str(root / "prune_series.csv"), refit_epochs=5)
    if command == "influence":
        return {"series_csv": series, "checkpoint": checkpoint, "stride": 50,
                "mode": "matrix", "src_index": 0, "dst_index": 3}
    return dict(json.loads((DATA / f"{command}.json").read_text()),
                series_csv=series, checkpoint=checkpoint)


def mutations(command):
    field_and_value = st.sampled_from(FUZZ_FIELDS[command]).flatmap(
        lambda field: st.tuples(st.just(field), st.sampled_from(mutation_values(command, field)))
    )
    return st.lists(field_and_value, min_size=1, max_size=3)


@pytest.mark.parametrize("command", list(FUZZ_FIELDS))
def test_mutated_configs_exit_cleanly(pipeline, prune_series, command):
    @settings(max_examples=80, derandomize=True, deadline=None, database=None)
    @given(mutations(command))
    def check(changes):
        cfg = fuzz_base_config(command, prune_series if command == "prune" else pipeline)
        if command == "train":
            # the outputs go to a fresh directory, the series stays shared
            cfg["checkpoint"] = "model.json"
        # entry fields first, so a mutation of the whole list still applies
        for field, value in sorted(changes, key=lambda c: not c[0].startswith("anomalies[")):
            target, key = cfg, field
            if field.startswith("anomalies[0]."):
                target, key = cfg["anomalies"][0], field.split(".", 1)[1]
            if value is MISSPELT:
                target[key[0] + key] = target.pop(key, 1)
            else:
                target[key] = value
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "cfg.json")
            # json.dump writes NaN and Infinity, which the loader accepts
            Path(path).write_text(json.dumps(cfg))
            out = Path(root) / "out"
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main([command, "--config", path, "--out", str(out)])
            assert code in (0, 1, 2), (changes, code)
            if set(cfg) - set(cli.SCHEMAS[command]):
                assert code == 2, changes
            if code:
                assert err.getvalue().count("\n") == 1, (changes, err.getvalue())
            # a warning would reach stderr as more lines
            assert [str(w.message) for w in caught] == [], changes
            if out.is_dir():
                assert_all_finite(out)

    check()


# The library's config constructors, each with a valid base: the property
# below overrides some fields with JSON-like values of any type.
CONSTRUCTORS = {
    "ModelSpec": (models.ModelSpec, {"architecture": "mlp_ci", "window": 5, "channels": 3,
                                     "hidden": 4}),
    "TrainConfig": (models.TrainConfig, {}),
    "DetectConfig": (anomaly.DetectConfig, {}),
    "SyntheticConfig": (data.SyntheticConfig, {}),
    "AnomalySpec": (data.AnomalySpec, {"kind": "spike", "target_channels": (0,),
                                       "intervals": ((1, 2),)}),
}
JSON_SCALARS = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]),
    st.integers(-5, 5), st.integers(), st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)
# the sequence fields (frequencies, channels, intervals) get lists and nested lists too
JSON_VALUES = st.one_of(
    JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
    st.lists(st.lists(JSON_SCALARS, max_size=3), max_size=2),
)
SCALAR_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_library_configs_build_or_raise_value_error(name):
    """Each constructor raises ValueError or builds an object whose scalar
    fields hold their declared types, the floats finite."""
    constructor, base = CONSTRUCTORS[name]
    fields = dataclasses.fields(constructor)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.dictionaries(st.sampled_from([f.name for f in fields]), JSON_VALUES,
                           min_size=1, max_size=3))
    def check(changes):
        # a TypeError, AttributeError or OverflowError escapes and fails the test
        try:
            built = constructor(**{**base, **changes})
        except ValueError:
            return
        for field in fields:
            value = getattr(built, field.name)
            kind = SCALAR_TYPES.get(field.type.removesuffix(" | None"))
            if kind is None or (value is None and field.type.endswith(" | None")):
                continue
            assert type(value) is kind, (field.name, value)
            assert kind is not float or math.isfinite(value), (field.name, value)

    check()


# Checkpoint mutations for the fuzz test: a spec integer becomes a float, a
# bool, a string or a negative number; trained_lr a string, a bool or a
# negative number; one parameter entry a string, null or 1e160, which is
# finite but makes gradient products overflow.
SPEC_INTEGERS = ("window", "channels", "hidden", "horizon")


@st.composite
def checkpoint_mutations(draw, doc):
    """(key path into the checkpoint, new value) for one mutated field."""
    part = draw(st.sampled_from(["spec", "trained_lr", "params"]))
    if part == "spec":
        name = draw(st.sampled_from(SPEC_INTEGERS))
        v = doc["spec"][name]
        return ("spec", name), draw(st.sampled_from([float(v), v + 0.5, True, str(v), -v - 1]))
    if part == "trained_lr":
        lr = doc["trained_lr"]
        return ("trained_lr",), draw(st.sampled_from([str(lr), True, False, -lr]))
    name = draw(st.sampled_from(sorted(doc["params"])))
    data = doc["params"][name]["data"]
    i = draw(st.integers(0, len(data) - 1))
    return ("params", name, "data", i), draw(st.sampled_from([repr(data[i]), None, 1e160]))


def test_mutated_checkpoints_exit_cleanly(pipeline):
    doc = json.loads((pipeline / "model.json").read_text())
    series = str(pipeline / "series.csv")

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(checkpoint_mutations(doc))
    # an output-layer weight this large overflows the influence matrix
    @example((("params", "w2", "data", 0), 1e160))
    def check(mutation):
        (*parents, key), value = mutation
        mutated = json.loads(json.dumps(doc))
        target = mutated
        for part in parents:
            target = target[part]
        target[key] = value
        with tempfile.TemporaryDirectory() as root:
            checkpoint = write_config(Path(root) / "model.json", mutated)
            influence = {"series_csv": series, "checkpoint": checkpoint, "stride": 50}
            runs = {
                "influence": ("influence", influence),
                "matrix": ("influence", dict(influence, mode="matrix", src_index=0, dst_index=3)),
                "detect": ("detect", dict(json.loads((DATA / "detect.json").read_text()),
                                          series_csv=series, checkpoint=checkpoint)),
            }
            for name, (command, cfg) in runs.items():
                path = write_config(Path(root) / f"{name}.json", cfg)
                out = Path(root) / name
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, "--config", path, "--out", str(out)])
                assert code in (0, 1), (mutation, command, code)
                # no string, bool or null stands in for a number
                if value is None or isinstance(value, (bool, str)):
                    assert code == 1, (mutation, command)
                if code:
                    assert err.getvalue().count("\n") == 1, (mutation, err.getvalue())
                else:
                    assert_all_finite(out)

    check()


def test_only_core_opens_files_for_writing():
    """core._write_lines is the one writer: no other module calls open with
    a mode that writes, appends or creates, or with a mode it cannot read."""
    src = Path(__file__).parents[1] / "src" / "chinf"
    writers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                writers.append(f"{path.name}:{node.lineno}")
    assert writers and all(w.startswith("core.py:") for w in writers), writers


def test_only_residual_and_reconstruct_run_the_forward_pass():
    """models._residual is the one checked forward pass: in src/chinf, only
    it and reconstruct (which has no target to check) name _forward_parts."""
    src = Path(__file__).parents[1] / "src" / "chinf"

    def references(node, where):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "id", getattr(child, "attr", None)) == "_forward_parts":
                yield where
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            yield from references(child, inner)

    callers = [f"{path.name}:{where}" for path in sorted(src.glob("*.py"))
               for where in references(ast.parse(path.read_text(encoding="utf-8")), "<module>")]
    assert sorted(callers) == ["models.py:_residual", "models.py:reconstruct"], callers


def test_every_output_is_utf8_with_one_final_lf(pipeline, tmp_path):
    """synth, train, influence (self mode) and detect write UTF-8 text with
    LF line ends and exactly one LF at the end of every file."""
    series, checkpoint = str(pipeline / "series.csv"), str(pipeline / "model.json")
    configs = {
        "synth": json.loads((DATA / "synth.json").read_text()),
        "train": dict(json.loads((DATA / "train.json").read_text()), series_csv=series),
        "influence": {"series_csv": series, "checkpoint": checkpoint, "stride": 50},
        "detect": dict(json.loads((DATA / "detect.json").read_text()),
                       series_csv=series, checkpoint=checkpoint),
    }
    written = []
    for command, cfg in configs.items():
        out = tmp_path / command
        assert run(command, "--config", write_config(tmp_path / f"{command}.json", cfg),
                   "--out", out) == 0
        written += sorted(out.iterdir())
    assert len(written) == 10, written
    for path in written:
        raw = path.read_bytes()
        raw.decode("utf-8")
        assert b"\r" not in raw, path
        assert raw.endswith(b"\n") and not raw.endswith(b"\n\n"), path
