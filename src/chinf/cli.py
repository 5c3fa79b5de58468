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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    return doc


def _field(config, name, kind, default=None, required=False):
    if name not in config or config[name] is None:
        if required:
            raise ConfigError(f"{name}: required field is missing")
        return default
    value = config[name]
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            number = float(value)
            if not math.isfinite(number):
                raise ConfigError(f"{name}: expected a finite number, got {value!r}")
            return number
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ValueError
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def _out_path(out_dir, name):
    return os.path.join(out_dir, name)


def _write_manifest(out_dir, command, resolved):
    doc = {"command": command, "config": resolved}
    with open(_out_path(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def _load_series(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return data.load_csv(path)


def _model_spec_from(config):
    try:
        return models.ModelSpec(
            architecture=_field(config, "architecture", str, required=True),
            window=_field(config, "window", int, required=True),
            channels=_field(config, "channels", int, required=True),
            hidden=_field(config, "hidden", int, 0),
            activation=_field(config, "activation", str, "tanh"),
            horizon=_field(config, "horizon", int, 0),
        )
    except ValueError as e:
        raise ConfigError(f"model spec: {e}") from None


def _train_config_from(config):
    try:
        return models.TrainConfig(
            epochs=_field(config, "epochs", int, 50),
            learning_rate=_field(config, "learning_rate", float, 1e-2),
            batch_size=_field(config, "batch_size", int, 32),
            seed=_field(config, "seed", int, 0),
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


def cmd_synth(config, out_dir):
    try:
        syn = data.SyntheticConfig(
            clusters=_field(config, "clusters", int, 2),
            channels_per_cluster=_field(config, "channels_per_cluster", int, 2),
            length=_field(config, "length", int, 512),
            base_frequencies=(
                tuple(config["base_frequencies"]) if config.get("base_frequencies") else None
            ),
            phase_jitter=_field(config, "phase_jitter", float, 0.1),
            noise_std=_field(config, "noise_std", float, 0.05),
            seed=_field(config, "seed", int, 0),
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
                target_channels=tuple(_field(entry, "target_channels", list, required=True)),
                intervals=tuple(tuple(p) for p in _field(entry, "intervals", list, required=True)),
                magnitude=_field(entry, "magnitude", float, 3.0),
            )
        except ValueError as e:
            raise ConfigError(f"anomalies[{i}]: {e}") from None
        series = data.inject_anomalies(series, spec, seed=_field(entry, "seed", int, 0))
    name = _field(config, "out_csv", str, "series.csv")
    data.save_csv(series, _out_path(out_dir, name))
    return {"series": name}


def cmd_train(config, out_dir):
    series = _load_series(_field(config, "series_csv", str, required=True))
    spec = _model_spec_from(config)
    train_config = _train_config_from(config)
    split = _split_from(config, series)
    windows = make_windows(split.train, spec.total_rows, _field(config, "stride", int, 1))
    state = models.init_params(spec, train_config.seed)
    state = models.train(state, windows, train_config)
    name = _field(config, "checkpoint", str, "model.json")
    models.save_checkpoint(state, _out_path(out_dir, name))
    return {"checkpoint": name}


def _load_checkpoint(config):
    path = _field(config, "checkpoint", str, required=True)
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    return models.load_checkpoint(path)


def cmd_influence(config, out_dir):
    series = _load_series(_field(config, "series_csv", str, required=True))
    state = _load_checkpoint(config)
    stride = _field(config, "stride", int, 1)
    windows = make_windows(series, state.spec.total_rows, stride)
    eta = _field(config, "eta", float)
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
        influence.save_influence_csv(m, _out_path(out_dir, name), series.channel_names)
        return {"matrix": name}
    if mode != "self":
        raise ConfigError(f"mode: unknown value {mode!r}, expected 'matrix' or 'self'")
    lines = ["origin_t," + ",".join(series.channel_names)]
    for win, vec in zip(windows, influence.self_influence_rows(state, windows, eta, selector)):
        lines.append(str(win.origin_t) + "," + ",".join(repr(float(v)) for v in vec))
    name = _field(config, "out_csv", str, "self_influence.csv")
    with open(_out_path(out_dir, name), "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return {"self_influence": name}


def cmd_detect(config, out_dir):
    series = _load_series(_field(config, "series_csv", str, required=True))
    state = _load_checkpoint(config)
    try:
        detect_config = anomaly.DetectConfig(
            method=_field(config, "method", str, "cif_self_influence"),
            window=_field(config, "window", int, state.spec.window),
            stride=_field(config, "stride", int, 1),
            eta=_field(config, "eta", float),
            selector=_resolve_selector(_field(config, "selector", str), state.spec),
            normalization=_field(config, "normalization", str, "best_of_both"),
            threshold_on=_field(config, "threshold_on", str, "val"),
            normalize_per_channel=_field(config, "normalize_per_channel", bool, False),
        )
    except ValueError as e:
        raise ConfigError(f"detect config: {e}") from None
    split = _split_from(config, series)
    val = split.val if detect_config.threshold_on == "val" else None
    report = anomaly.detect(state, split.test, detect_config, val_series=val)
    csv_name = _field(config, "out_csv", str, "report.csv")
    json_name = _field(config, "out_json", str, "summary.json")
    anomaly.save_report_csv(report, _out_path(out_dir, csv_name))
    with open(_out_path(out_dir, json_name), "w", encoding="utf-8", newline="\n") as f:
        json.dump(anomaly.report_summary(report), f, indent=1, sort_keys=True)
        f.write("\n")
    return {"report": csv_name, "summary": json_name}


def cmd_prune(config, out_dir, threads=1):
    series = _load_series(_field(config, "series_csv", str, required=True))
    spec = _model_spec_from(config)
    if spec.horizon < 1:
        raise ConfigError("horizon: pruning needs a forecasting model (horizon > 0)")
    train_config = _train_config_from(config)
    split = _split_from(config, series)
    m = _field(config, "m", int, required=True)
    strategies = _field(config, "strategies", list, list(pruning.STRATEGIES))
    for s in strategies:
        if s not in pruning.STRATEGIES:
            raise ConfigError(
                f"strategies: unknown value {s!r}, expected from {pruning.STRATEGIES}"
            )
    seeds = _field(config, "seeds", list, [train_config.seed])
    for s in seeds:
        if not isinstance(s, int) or isinstance(s, bool):
            raise ConfigError(f"seeds: expected integers, got {s!r}")
    stride = _field(config, "stride", int, 1)
    eta = _field(config, "eta", float)
    refit_epochs = _field(config, "refit_epochs", int, 5)

    def one(seed, strategy):
        tc = replace(train_config, seed=seed)
        return pruning.prune_and_eval(
            split, spec, tc, m, strategy,
            stride=stride, eta=eta, seed=seed, refit_epochs=refit_epochs,
        )

    tasks = [(seed, strategy) for seed in seeds for strategy in strategies]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: one(*t), tasks))
    else:
        results = [one(*t) for t in tasks]
    name = _field(config, "out_csv", str, "pruning.csv")
    pruning.save_pruning_csv(results, _out_path(out_dir, name))
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
        p.add_argument("--threads", type=int, default=1, help="worker thread cap")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"threads: must be at least 1, got {args.threads}")
        os.makedirs(args.out, exist_ok=True)
        if args.command == "prune":
            outputs = cmd_prune(config, args.out, threads=args.threads)
        else:
            outputs = COMMANDS[args.command](config, args.out)
        _write_manifest(args.out, args.command, config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for label, name in outputs.items():
        print(f"{label}: {_out_path(args.out, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
