"""Command-line entry point: synth, train, influence, detect, prune.

Each command reads a flat JSON config (--config), applies any flag
overrides, runs, and writes its outputs plus a manifest.json echoing the
config as given, with any --seed override, into the output directory.
Outputs carry no timestamps, so a rerun with the same config and inputs is
byte-identical.

main types the config against the command's schema in SCHEMAS before the
command runs; an unknown key, a bad value, a NaN or infinity exits 2.

Exit codes: 0 success, 1 runtime failure (missing files, training blowups),
2 config or usage errors (always naming the offending field).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import anomaly, data, influence, models, pruning
from .core import _integral, _number, chronological_split, make_windows
from .models import all_params_selector, last_layer_selector


class ConfigError(Exception):
    """Raised for a bad or missing config field; maps to exit code 2."""


# A field's kind is a type, a (type, low, low_open) range, a [kind] list
# whose items are named name[i], or a dict schema whose fields are named
# name.field. MODEL, SGD, SPLIT and INPUTS are shared between commands;
# SYNTH and DETECT are the dataclass fields a command passes on as set.
MODEL = {"architecture": str, "window": int, "channels": int, "hidden": int,
         "activation": str, "horizon": int}
SGD = {"epochs": int, "learning_rate": float, "batch_size": int, "seed": int}
SPLIT = {"train_frac": float, "val_frac": float}
INPUTS = {"series_csv": str, "checkpoint": str}
STRIDE = (int, 1, False)
ETA = (float, 0, True)
SYNTH = {"clusters": int, "channels_per_cluster": int, "length": int, "phase_jitter": float,
         "noise_std": float, "seed": int}
ANOMALY = {"kind": str, "target_channels": [int], "intervals": [[int]], "magnitude": float,
           "seed": (int, 0, False)}
DETECT = {"method": str, "stride": int, "eta": ETA, "normalization": str, "threshold_on": str,
          "normalize_per_channel": bool}
SCHEMAS = {
    "synth": {**SYNTH, "base_frequencies": [float], "anomalies": [ANOMALY], "out_csv": str},
    "train": {"series_csv": str, **MODEL, **SGD, **SPLIT, "stride": STRIDE, "checkpoint": str},
    "influence": {**INPUTS, "mode": str, "src_index": int, "dst_index": int, "eta": ETA,
                  "selector": str, "stride": STRIDE, "out_csv": str},
    "detect": {**INPUTS, **DETECT, "selector": str, **SPLIT, "out_csv": str, "out_json": str},
    "prune": {"series_csv": str, **MODEL, **SGD, **SPLIT, "m": int, "strategies": [str],
              "seeds": [(int, 0, False)], "stride": STRIDE,
              "refit_epochs": (int, 1, False), "out_csv": str},
}
SELECTORS = {"last_layer": last_layer_selector, "all": all_params_selector}


def _resolve_selector(config, spec):
    name = config.get("selector", "last_layer")
    if name not in SELECTORS:
        raise ConfigError(f"selector: unknown value {name!r}, expected one of {tuple(SELECTORS)}")
    return SELECTORS[name](spec)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: {path} is not valid JSON ({e})") from None
    # a directory, no permission, or bytes that are not UTF-8
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config: cannot read {path} ({e})") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    return doc


class _Fields(dict):
    """The fields a config sets, typed; indexing one it lacks is a config
    error for a missing required field."""

    path = ""

    def __missing__(self, name):
        raise ConfigError(f"{self.path}{name}: required field is missing")


def _read(config, schema, path=""):
    """config's fields typed by their kinds in schema, or a config error naming
    the first bad one or a key that schema lacks; a null leaves a field unset."""
    fields = _Fields()
    fields.path = path
    for name, value in config.items():
        if name not in schema:
            raise ConfigError(f"{path}{name}: unknown field")
        if value is not None:
            fields[name] = _typed(path + name, value, schema[name])
    return fields


def _typed(name, value, kind):
    """value as a `kind` (lists come back as tuples), or a config error
    naming the field. A NaN or infinity is an error whatever the kind."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    if isinstance(kind, tuple):
        kind, low, low_open = kind
        return _in_range(name, _typed(name, value, kind), low, low_open=low_open)
    if isinstance(kind, list):
        items = enumerate(_typed(name, value, list))
        return tuple(_typed(f"{name}[{i}]", item, kind[0]) for i, item in items)
    if isinstance(kind, dict):
        return _read(_typed(name, value, dict), kind, f"{name}.")
    try:
        if kind is int:
            return _integral(value, name)
        if kind is float:
            return _number(value, name)
        # bool, str, list or dict
        if isinstance(value, kind):
            return value
    # OverflowError: float() of an integer beyond the float range
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def _in_range(name, value, low, high=math.inf, *, low_open=False):
    """value, or a config error naming the field when it lies outside
    [low, high] ((low, high] with low_open)."""
    if (low < value if low_open else low <= value) and value <= high:
        return value
    interval = f"{'(' if low_open else '['}{low}, {high}{')' if high == math.inf else ']'}"
    raise ConfigError(f"{name}: expected a value in {interval}, got {value!r}")


def _given(config, names):
    """The fields among names that config sets; defaults stand for the rest."""
    return {name: config[name] for name in names if name in config}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _input_path(config, name):
    path = config[name]
    if not os.path.isfile(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return path


def _model_spec_from(config):
    try:
        return models.ModelSpec(
            architecture=config["architecture"], window=config["window"],
            channels=config["channels"], **_given(config, ("hidden", "activation", "horizon")),
        )
    except ValueError as e:
        raise ConfigError(f"model spec: {e}") from None


def _train_config_from(config):
    try:
        return models.TrainConfig(**_given(config, SGD))
    except ValueError as e:
        raise ConfigError(f"train config: {e}") from None


def _split_from(config, series):
    try:
        return chronological_split(
            series, config.get("train_frac", 0.5), config.get("val_frac", 0.25)
        )
    except ValueError as e:
        raise ConfigError(f"train_frac/val_frac: {e}") from None


def cmd_synth(config, out_dir):
    try:
        syn = data.SyntheticConfig(
            # an empty list leaves the frequencies at their default
            **_given(config, SYNTH), base_frequencies=config.get("base_frequencies") or None
        )
    except ValueError as e:
        raise ConfigError(f"synth config: {e}") from None
    series = data.gen_synthetic(syn)
    for i, entry in enumerate(config.get("anomalies", ())):
        try:
            spec = data.AnomalySpec(entry["kind"], entry["target_channels"], entry["intervals"],
                                    **_given(entry, ("magnitude",)))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"anomalies[{i}]: {e}") from None
        series = data.inject_anomalies(series, spec, seed=entry.get("seed", 0))
    name = config.get("out_csv", "series.csv")
    data.save_csv(series, os.path.join(out_dir, name))
    return {"series": name}


def cmd_train(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    spec = _model_spec_from(config)
    train_config = _train_config_from(config)
    split = _split_from(config, series)
    windows = make_windows(split.train, spec.total_rows, config.get("stride", 1))
    state = models.init_params(spec, train_config.seed)
    state = models.train(state, windows, train_config)
    name = config.get("checkpoint", "model.json")
    models.save_checkpoint(state, os.path.join(out_dir, name))
    return {"checkpoint": name}


def cmd_influence(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    state = models.load_checkpoint(_input_path(config, "checkpoint"))
    windows = make_windows(series, state.spec.total_rows, config.get("stride", 1))
    eta = config.get("eta")
    selector = _resolve_selector(config, state.spec)
    mode = config.get("mode", "self")
    if mode == "matrix":
        src, dst = config["src_index"], config["dst_index"]
        for label, idx in (("src_index", src), ("dst_index", dst)):
            if not 0 <= idx < len(windows):
                raise ConfigError(f"{label}: window index {idx} out of range 0..{len(windows) - 1}")
        m = influence.influence_matrix(state, windows[src], windows[dst], eta, selector)
        name = config.get("out_csv", "influence_matrix.csv")
        influence.save_influence_csv(m, os.path.join(out_dir, name), series.channel_names)
        return {"matrix": name}
    if mode != "self":
        raise ConfigError(f"mode: unknown value {mode!r}, expected 'matrix' or 'self'")
    lines = ["origin_t," + ",".join(series.channel_names)]
    for t, vec in zip(windows.origins, influence.self_influence_rows(state, windows, eta, selector)):
        lines.append(str(t) + "," + ",".join(repr(float(v)) for v in vec))
    name = config.get("out_csv", "self_influence.csv")
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return {"self_influence": name}


def cmd_detect(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    state = models.load_checkpoint(_input_path(config, "checkpoint"))
    try:
        detect_config = anomaly.DetectConfig(
            **_given(config, DETECT),
            selector=_resolve_selector(config, state.spec),
        )
    except ValueError as e:
        raise ConfigError(f"detect config: {e}") from None
    split = _split_from(config, series)
    report = anomaly.detect(state, split.test, detect_config, val_series=split.val)
    # flagging every window (or none) can score best, but JSON has no infinity
    if not math.isfinite(report.threshold):
        raise ValueError(f"threshold: the best F1 is at {report.threshold}, not a finite threshold")
    csv_name = config.get("out_csv", "report.csv")
    json_name = config.get("out_json", "summary.json")
    anomaly.save_report_csv(report, os.path.join(out_dir, csv_name))
    _write_json(os.path.join(out_dir, json_name), anomaly.report_summary(report))
    return {"report": csv_name, "summary": json_name}


def cmd_prune(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    spec = _model_spec_from(config)
    if spec.horizon < 1:
        raise ConfigError("horizon: pruning needs a forecasting model (horizon > 0)")
    train_config = _train_config_from(config)
    split = _split_from(config, series)
    m = _in_range("m", config["m"], 1, series.n_channels)
    strategies = config.get("strategies", pruning.STRATEGIES)
    for s in strategies:
        if s not in pruning.STRATEGIES:
            raise ConfigError(
                f"strategies: unknown value {s!r}, expected from {pruning.STRATEGIES}"
            )
    seeds = config.get("seeds", (train_config.seed,))
    for label, items in (("strategies", strategies), ("seeds", seeds)):
        if not items:
            raise ConfigError(f"{label}: expected a nonempty list")
    results = [
        pruning.prune_and_eval(
            split, spec, replace(train_config, seed=seed), m, strategy, seed=seed,
            **_given(config, ("stride", "refit_epochs")),
        )
        for seed in seeds
        for strategy in strategies
    ]
    name = config.get("out_csv", "pruning.csv")
    pruning.save_pruning_csv(results, os.path.join(out_dir, name))
    return {"results": name}


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "influence": cmd_influence,
    "detect": cmd_detect,
    "prune": cmd_prune,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chinf",
        description="Channel-wise influence toolkit for multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed (and prune's seeds)")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
            # prune runs its seeds list, so the flag replaces the list
            if args.command == "prune" and "seeds" in config:
                config["seeds"] = [args.seed]
        os.makedirs(args.out, exist_ok=True)
        fields = _read(config, SCHEMAS[args.command])
        # every result is checked for finiteness and a failure reported in
        # one line; numpy's floating-point warnings would only add lines
        with np.errstate(all="ignore"):
            outputs = COMMANDS[args.command](fields, args.out)
        manifest = {"command": args.command, "config": config}
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for label, name in outputs.items():
        print(f"{label}: {os.path.join(args.out, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
