"""Command-line entry point: synth, train, influence, detect, prune.

Each command reads a flat JSON config (--config), applies any flag
overrides, runs, and writes its outputs plus a manifest.json echoing the
resolved config into the output directory. Outputs carry no timestamps, so
a rerun with the same config and inputs is byte-identical.

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
from .core import chronological_split, make_windows
from .models import all_params_selector, last_layer_selector


class ConfigError(Exception):
    """Raised for a bad or missing config field; maps to exit code 2."""


SELECTORS = ("last_layer", "all")


def _resolve_selector(name, spec):
    if name is None or name == "last_layer":
        return last_layer_selector(spec)
    if name == "all":
        return all_params_selector(spec)
    raise ConfigError(f"selector: unknown value {name!r}, expected one of {SELECTORS}")


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


def _check_finite(name, value):
    """A config error naming the first NaN or infinity in value (JSON's NaN
    and Infinity, or a number beyond the float range). main checks every
    field, read by the command or not, so none reaches the manifest."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{name}.{key}", item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(f"{name}[{i}]", item)


def _field(config, name, kind, default=None, required=False):
    if name not in config or config[name] is None:
        if required:
            raise ConfigError(f"{name}: required field is missing")
        return default
    return _typed(name, config[name], kind)


def _set_fields(config, **kinds):
    """Typed keyword arguments for the fields of kinds that config sets."""
    set_names = [name for name in kinds if config.get(name) is not None]
    return {name: _field(config, name, kinds[name]) for name in set_names}


def _typed(name, value, kind):
    """value as a `kind`, or a config error naming the field."""
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            # JSON numbers only: float() would also take "0.01" and true;
            # main has already rejected NaN and infinities
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError
            return float(value)
        # bool, str or list
        if isinstance(value, kind):
            return value
    # OverflowError: int() of an infinite JSON number, float() of an integer
    # beyond the float range
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def _in_range(name, value, low, high=math.inf, *, low_open=False):
    """value, or a config error naming the field when it lies outside
    [low, high] ((low, high] with low_open). None, an unset optional
    field, passes."""
    if value is None or ((low < value if low_open else low <= value) and value <= high):
        return value
    interval = f"{'(' if low_open else '['}{low}, {high}{')' if high == math.inf else ']'}"
    raise ConfigError(f"{name}: expected a value in {interval}, got {value!r}")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _input_path(config, name):
    path = _field(config, name, str, required=True)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return path


def _model_spec_from(config):
    try:
        return models.ModelSpec(
            architecture=_field(config, "architecture", str, required=True),
            window=_field(config, "window", int, required=True),
            channels=_field(config, "channels", int, required=True),
            **_set_fields(config, hidden=int, activation=str, horizon=int),
        )
    except ValueError as e:
        raise ConfigError(f"model spec: {e}") from None


def _train_config_from(config):
    try:
        return models.TrainConfig(
            **_set_fields(config, epochs=int, learning_rate=float, batch_size=int, seed=int)
        )
    except ValueError as e:
        raise ConfigError(f"train config: {e}") from None


def _split_from(config, series):
    train_frac = _field(config, "train_frac", float, 0.5)
    val_frac = _field(config, "val_frac", float, 0.25)
    try:
        return chronological_split(series, train_frac, val_frac)
    except ValueError as e:
        raise ConfigError(f"train_frac/val_frac: {e}") from None


def _frequencies(config):
    entries = _field(config, "base_frequencies", list)
    if not entries:
        return None
    return tuple(
        _typed(f"base_frequencies[{i}]", value, float) for i, value in enumerate(entries)
    )


def cmd_synth(config, out_dir):
    try:
        syn = data.SyntheticConfig(
            **_set_fields(config, clusters=int, channels_per_cluster=int, length=int),
            base_frequencies=_frequencies(config),
            **_set_fields(config, phase_jitter=float, noise_std=float, seed=int),
        )
    except ValueError as e:
        raise ConfigError(f"synth config: {e}") from None
    series = data.gen_synthetic(syn)
    for i, entry in enumerate(_field(config, "anomalies", list, [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"anomalies[{i}]: expected an object")
        try:
            spec = data.AnomalySpec(
                kind=_field(entry, "kind", str, required=True),
                target_channels=tuple(
                    _typed(f"target_channels[{j}]", c, int)
                    for j, c in enumerate(_field(entry, "target_channels", list, required=True))
                ),
                intervals=tuple(
                    tuple(_typed(f"intervals[{j}][{k}]", b, int) for k, b in enumerate(pair))
                    for j, pair in enumerate(_field(entry, "intervals", list, required=True))
                ),
                **_set_fields(entry, magnitude=float),
            )
            seed = _in_range("seed", _field(entry, "seed", int, 0), 0)
        except ConfigError as e:
            raise ConfigError(f"anomalies[{i}].{e}") from None
        except (TypeError, ValueError) as e:
            raise ConfigError(f"anomalies[{i}]: {e}") from None
        series = data.inject_anomalies(series, spec, seed=seed)
    name = _field(config, "out_csv", str, "series.csv")
    data.save_csv(series, os.path.join(out_dir, name))
    return {"series": name}


def cmd_train(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    spec = _model_spec_from(config)
    train_config = _train_config_from(config)
    split = _split_from(config, series)
    stride = _in_range("stride", _field(config, "stride", int, 1), 1)
    windows = make_windows(split.train, spec.total_rows, stride)
    state = models.init_params(spec, train_config.seed)
    state = models.train(state, windows, train_config)
    name = _field(config, "checkpoint", str, "model.json")
    models.save_checkpoint(state, os.path.join(out_dir, name))
    return {"checkpoint": name}


def cmd_influence(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    state = models.load_checkpoint(_input_path(config, "checkpoint"))
    stride = _in_range("stride", _field(config, "stride", int, 1), 1)
    windows = make_windows(series, state.spec.total_rows, stride)
    eta = _in_range("eta", _field(config, "eta", float), 0, low_open=True)
    selector = _resolve_selector(_field(config, "selector", str), state.spec)
    mode = _field(config, "mode", str, "self")
    if mode == "matrix":
        src = _field(config, "src_index", int, required=True)
        dst = _field(config, "dst_index", int, required=True)
        for label, idx in (("src_index", src), ("dst_index", dst)):
            if not 0 <= idx < len(windows):
                raise ConfigError(f"{label}: window index {idx} out of range 0..{len(windows) - 1}")
        m = influence.influence_matrix(state, windows[src], windows[dst], eta, selector)
        name = _field(config, "out_csv", str, "influence_matrix.csv")
        influence.save_influence_csv(m, os.path.join(out_dir, name), series.channel_names)
        return {"matrix": name}
    if mode != "self":
        raise ConfigError(f"mode: unknown value {mode!r}, expected 'matrix' or 'self'")
    lines = ["origin_t," + ",".join(series.channel_names)]
    for t, vec in zip(windows.origins, influence.self_influence_rows(state, windows, eta, selector)):
        lines.append(str(t) + "," + ",".join(repr(float(v)) for v in vec))
    name = _field(config, "out_csv", str, "self_influence.csv")
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return {"self_influence": name}


def cmd_detect(config, out_dir):
    series = data.load_csv(_input_path(config, "series_csv"))
    state = models.load_checkpoint(_input_path(config, "checkpoint"))
    try:
        detect_config = anomaly.DetectConfig(
            **_set_fields(config, method=str, stride=int),
            eta=_in_range("eta", _field(config, "eta", float), 0, low_open=True),
            selector=_resolve_selector(_field(config, "selector", str), state.spec),
            **_set_fields(config, normalization=str, threshold_on=str, normalize_per_channel=bool),
        )
    except ValueError as e:
        raise ConfigError(f"detect config: {e}") from None
    split = _split_from(config, series)
    report = anomaly.detect(state, split.test, detect_config, val_series=split.val)
    csv_name = _field(config, "out_csv", str, "report.csv")
    json_name = _field(config, "out_json", str, "summary.json")
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
    m = _in_range("m", _field(config, "m", int, required=True), 1, series.n_channels)
    strategies = _field(config, "strategies", list, list(pruning.STRATEGIES))
    for s in strategies:
        if s not in pruning.STRATEGIES:
            raise ConfigError(
                f"strategies: unknown value {s!r}, expected from {pruning.STRATEGIES}"
            )
    seeds = [
        _in_range("seeds", _typed("seeds", s, int), 0)
        for s in _field(config, "seeds", list, [train_config.seed])
    ]
    for label, items in (("strategies", strategies), ("seeds", seeds)):
        if not items:
            raise ConfigError(f"{label}: expected a nonempty list")
    stride = _in_range("stride", _field(config, "stride", int, 1), 1)
    eta = _in_range("eta", _field(config, "eta", float), 0, low_open=True)
    refit_epochs = _in_range("refit_epochs", _field(config, "refit_epochs", int, 5), 1)

    results = [
        pruning.prune_and_eval(
            split, spec, replace(train_config, seed=seed), m, strategy,
            stride=stride, eta=eta, seed=seed, refit_epochs=refit_epochs,
        )
        for seed in seeds
        for strategy in strategies
    ]
    name = _field(config, "out_csv", str, "pruning.csv")
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
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        os.makedirs(args.out, exist_ok=True)
        for name, value in config.items():
            _check_finite(name, value)
        # every result is checked for finiteness and a failure reported in
        # one line; numpy's floating-point warnings would only add lines
        with np.errstate(all="ignore"):
            outputs = COMMANDS[args.command](config, args.out)
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
