"""Write every CLI output of the tests/data fixtures into one directory.

Usage, from the root of a chinf checkout:

    python3 tools/contract_outputs.py OUT_DIR
    python3 tools/contract_outputs.py --compare OLD_DIR NEW_DIR

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

``--compare`` reads two such trees, say from two checkouts, and prints each
file whose bytes differ. For a CSV file it names the columns that moved and
for a JSON file the keys (list positions written ``[]``), each with the
number of values that moved and the largest relative move
|new - old| / max(|old|, |new|). It exits 1 when any other field differs: a
file only one tree has, a header, a row count, an integer, a string, a
non-finite value, or any byte of another kind of file. A change that only
moves the last bits of floats thus exits 0.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from collections import defaultdict

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


def _tree(root):
    """Paths of the files under root, relative to it."""
    return {
        os.path.relpath(os.path.join(parent, name), root)
        for parent, _, names in os.walk(root)
        for name in names
    }


def _float_text(text):
    """The value of a CSV cell written as a float (1.5, 2e-07, inf), else None."""
    try:
        int(text)
        return None
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _move(old, new, field, moves, problems):
    """Record a float field's relative move, or a problem for anything else."""
    if all(isinstance(v, float) and math.isfinite(v) for v in (old, new)):
        moves[field].append(abs(new - old) / max(abs(old), abs(new)))
    else:
        problems.append(f"{field}: {old!r} -> {new!r}")


def _compare_json(old, new, field, moves, problems):
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            problems.append(f"{field or '<root>'}: keys {sorted(old)} -> {sorted(new)}")
            return
        for key in old:
            _compare_json(old[key], new[key], f"{field}.{key}" if field else key, moves, problems)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{field}: length {len(old)} -> {len(new)}")
            return
        for a, b in zip(old, new):
            _compare_json(a, b, f"{field}[]", moves, problems)
    elif type(old) is not type(new) or old != new:
        _move(old, new, field, moves, problems)


def _compare_csv(old_text, new_text, moves, problems):
    old_lines, new_lines = old_text.splitlines(), new_text.splitlines()
    if len(old_lines) != len(new_lines) or old_lines[:1] != new_lines[:1]:
        problems.append(f"header or row count: {old_lines[:1]} ({len(old_lines)} lines) -> "
                        f"{new_lines[:1]} ({len(new_lines)} lines)")
        return
    header = old_lines[0].split(",")
    for old_line, new_line in zip(old_lines[1:], new_lines[1:]):
        old_cells, new_cells = old_line.split(","), new_line.split(",")
        if len(old_cells) != len(header) or len(new_cells) != len(header):
            problems.append(f"row shape: {old_line!r} -> {new_line!r}")
            continue
        for name, a, b in zip(header, old_cells, new_cells):
            if a != b:
                _move(_float_text(a), _float_text(b), name, moves, problems)


def compare(old_root, new_root, out=sys.stdout):
    """Print what differs between two output trees; 1 if a non-float field does."""
    old_files, new_files = _tree(old_root), _tree(new_root)
    failed = False
    for path in sorted(old_files ^ new_files):
        print(f"only in {old_root if path in old_files else new_root}: {path}", file=out)
        failed = True
    changed = 0
    for path in sorted(old_files & new_files):
        with open(os.path.join(old_root, path), "rb") as f:
            old = f.read()
        with open(os.path.join(new_root, path), "rb") as f:
            new = f.read()
        if old == new:
            continue
        changed += 1
        moves, problems = defaultdict(list), []
        if path.endswith(".json"):
            _compare_json(json.loads(old), json.loads(new), "", moves, problems)
        elif path.endswith(".csv"):
            _compare_csv(old.decode("utf-8"), new.decode("utf-8"), moves, problems)
        else:
            problems.append("bytes differ")
        print(f"changed: {path}", file=out)
        for field, values in sorted(moves.items()):
            print(f"  {field}: {len(values)} moved, largest relative move {max(values):.2g}",
                  file=out)
        for problem in problems:
            print(f"  NOT A FLOAT MOVE {problem}", file=out)
        failed = failed or bool(problems)
    print(f"{changed} of {len(old_files & new_files)} common files changed; "
          f"{'non-float fields differ' if failed else 'only float fields moved'}", file=out)
    return 1 if failed else 0


USAGE = "usage: contract_outputs.py OUT_DIR | --compare OLD_DIR NEW_DIR"


def run(argv):
    """The tool's exit code on its arguments. -h or --help prints the usage
    and exits 0; any other option, or a wrong argument count, prints it to
    stderr and exits 2. Neither writes a file."""
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    write_all(argv[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
