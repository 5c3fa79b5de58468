import json
from pathlib import Path

import numpy as np
import pytest

from chinf.cli import main

DATA = Path(__file__).parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


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
        cfg = self.detect_config(pipeline, tmp_path, window="ten")
        assert run("detect", "--config", cfg, "--out", tmp_path) == 2
        assert "window: expected int, got 'ten'" in capsys.readouterr().err


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

    def test_unknown_selector(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(pipeline, tmp_path, selector="bogus")
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert "selector: unknown value 'bogus'" in capsys.readouterr().err

    def test_non_finite_eta_rejected(self, pipeline, tmp_path, capsys):
        cfg = self.influence_config(pipeline, tmp_path, eta=float("nan"))
        assert run("influence", "--config", cfg, "--out", tmp_path) == 2
        assert "eta: expected a finite number, got nan" in capsys.readouterr().err
        assert not (tmp_path / "self_influence.csv").exists()


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

    def test_byte_identical_across_rerun_and_threads(self, prune_series, tmp_path):
        outs = []
        for d, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            (tmp_path / d).mkdir(exist_ok=True)
            cfg = self.prune_config(prune_series, tmp_path / d)
            assert run(
                "prune", "--config", cfg, "--out", tmp_path / d, "--threads", threads
            ) == 0
            outs.append((tmp_path / d / "pruning.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

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

    def test_unknown_strategy_rejected(self, prune_series, tmp_path, capsys):
        cfg = self.prune_config(prune_series, tmp_path, strategies=["pca"])
        assert run("prune", "--config", cfg, "--out", tmp_path) == 2
        assert "strategies: unknown value 'pca'" in capsys.readouterr().err


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

    def test_nonpositive_threads(self, tmp_path, capsys):
        assert run(
            "synth", "--config", DATA / "synth.json", "--out", tmp_path, "--threads", "0"
        ) == 2
        assert "threads: must be at least 1" in capsys.readouterr().err

    def test_non_finite_learning_rate_rejected(self, pipeline, tmp_path, capsys):
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(pipeline / "series.csv")
        cfg["learning_rate"] = float("nan")
        path = write_config(tmp_path / "t.json", cfg)
        assert run("train", "--config", path, "--out", tmp_path) == 2
        assert "learning_rate: expected a finite number, got nan" in capsys.readouterr().err

    def test_anomalous_train_slice_rejected(self, tmp_path, capsys):
        # pushing train_frac past the first anomaly breaks the clean-train rule
        assert run("synth", "--config", DATA / "synth.json", "--out", tmp_path) == 0
        cfg = json.loads((DATA / "train.json").read_text())
        cfg["series_csv"] = str(tmp_path / "series.csv")
        cfg["train_frac"] = 0.7
        path = write_config(tmp_path / "t.json", cfg)
        assert run("train", "--config", path, "--out", tmp_path) == 2
        assert "train_frac/val_frac" in capsys.readouterr().err
