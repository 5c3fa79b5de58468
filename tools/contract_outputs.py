"""Write every CLI output of the tests/data fixtures into one directory.

Usage, from the root of a chinf checkout:

    python3 tools/contract_outputs.py OUT_DIR

Runs synth, train, influence (self and matrix), detect (each method with the
last_layer and the all selector) and prune, one subdirectory per run. Further
first-pass runs cover influence self mode and cif detect with an explicit
eta, and cif and reconstruction_error detect with per-channel median_iqr
normalization, the threshold picked on test, and stride 2. Two more train
runs write a linear_ci forecaster (prune.json's model fields) and a relu
mlp_ci checkpoint, so the init and training bytes of every architecture
are compared directly (mlp_mix comes next). A second
pass trains an mlp_mix forecaster (horizon 2) and runs influence (self and
matrix), cif and tracin detect with the all selector, and an mlp_mix prune
with m < N, which covers the mixing-matrix gradients, the forecasting
whole-window gradients and the mixing refit. A last pass runs prune on a
32-channel series at the batch width of the benchmark's pruning scenario
(linear_ci, window 48, horizon 12, batch 32, all four strategies, m = 8),
so that training at BLAS widths is compared bit for bit too. Two runs take
the --seed flag: synth, and prune from a config without a seeds list. Paths
inside the configs are relative to OUT_DIR, so the manifests do not name it
and the trees of two checkouts compare with ``diff -r``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from chinf.cli import main  # noqa: E402
from chinf.pruning import STRATEGIES  # noqa: E402

DATA = os.path.join(ROOT, "tests", "data")
METHODS = ("cif_self_influence", "tracin_self_influence", "reconstruction_error")


def fixture(name, **overrides):
    with open(os.path.join(DATA, name), encoding="utf-8") as f:
        return dict(json.load(f), **overrides)


def runs():
    """(command, run name, config, extra flags...) for every run, in order."""
    series, model = "synth/series.csv", "train/model.json"
    yield "synth", "synth", fixture("synth.json")
    yield "synth", "synth_seed3", fixture("synth.json"), "--seed", "3"
    yield "train", "train", fixture("train.json", series_csv=series)
    influence = {"series_csv": series, "checkpoint": model, "stride": 25}
    yield "influence", "influence_self", dict(influence, mode="self")
    yield "influence", "influence_self_eta", dict(influence, mode="self", eta=0.5)
    yield "influence", "influence_matrix", dict(
        influence, mode="matrix", src_index=2, dst_index=7, selector="all"
    )
    for method in METHODS:
        for selector in ("last_layer", "all"):
            cfg = fixture("detect.json", series_csv=series, checkpoint=model,
                          method=method, selector=selector)
            yield "detect", f"detect_{method}_{selector}", cfg
    for method in ("cif_self_influence", "reconstruction_error"):
        cfg = fixture("detect.json", series_csv=series, checkpoint=model, method=method,
                      threshold_on="test", normalize_per_channel=True,
                      normalization="median_iqr", stride=2)
        yield "detect", f"detect_{method}_test_iqr", cfg
    yield "detect", "detect_cif_eta", fixture(
        "detect.json", series_csv=series, checkpoint=model, eta=0.5
    )
    yield "synth", "synth_prune", fixture("synth_prune.json")
    prune_series = "synth_prune/prune_series.csv"
    yield "prune", "prune", fixture("prune.json", series_csv=prune_series)
    unseeded = fixture("prune.json", series_csv=prune_series)
    del unseeded["seeds"]
    yield "prune", "prune_seed1", unseeded, "--seed", "1"
    # the other two architectures' checkpoints: a linear_ci forecaster with
    # prune.json's model and SGD fields, and a relu mlp_ci
    linear = fixture("prune.json", series_csv=prune_series)
    for key in ("m", "strategies", "seeds"):
        del linear[key]
    yield "train", "train_linear", linear
    yield "train", "train_relu", fixture("train.json", series_csv=series, activation="relu")

    mix = "train_mix/model.json"
    yield "train", "train_mix", fixture(
        "train.json", series_csv=series, architecture="mlp_mix", horizon=2
    )
    influence = {"series_csv": series, "checkpoint": mix, "stride": 25, "selector": "all"}
    yield "influence", "influence_mix_self", dict(influence, mode="self")
    yield "influence", "influence_mix_matrix", dict(
        influence, mode="matrix", src_index=2, dst_index=7
    )
    for method in ("cif_self_influence", "tracin_self_influence"):
        cfg = fixture("detect.json", series_csv=series, checkpoint=mix, method=method,
                      selector="all")
        yield "detect", f"detect_mix_{method}_all", cfg
    yield "prune", "prune_mix", fixture(
        "prune.json", series_csv=prune_series, architecture="mlp_mix", hidden=4,
        strategies=["influence_equidistant"], seeds=[0],
    )

    yield "synth", "synth_prune32", fixture(
        "synth_prune.json", clusters=4, channels_per_cluster=8, length=600, seed=7
    )
    yield "prune", "prune32", fixture(
        "prune.json", series_csv="synth_prune32/prune_series.csv", window=48, channels=32,
        horizon=12, epochs=16, m=8, strategies=list(STRATEGIES), seeds=[7],
    )


def write_all(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    for command, name, config, *flags in runs():
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(config, f, indent=1)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, *flags, "--out", name])
        if code != 0:
            raise SystemExit(f"{command} ({name}) exited {code}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: contract_outputs.py OUT_DIR")
    write_all(sys.argv[1])
