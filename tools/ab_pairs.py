"""Alternate perfbench runs of two chinf checkouts and compare them in pairs.

Usage:

    python3 tools/ab_pairs.py OLD NEW --workload W --seed S --pairs N [--seconds T]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once from the OLD checkout and once from the NEW one, one process at a time,
each in its own checkout directory. OLD runs first in odd pairs and NEW in
even pairs, so a drift between the first and the second run of a pair
favours neither side. For every pair it prints the four end-to-end metrics of both sides and the
failed-operation counts; then each side's
median and quartiles, the median per-pair ratio NEW / OLD, and how many
pairs NEW won (ties count for neither side). A gain is claimed only when NEW
wins at least nine tenths of the pairs and the medians differ by more than
OLD's quartile distance; the ``gain`` column says whether both hold. The
``worse`` column applies the same rule the other way: NEW loses at least
nine tenths of the pairs and its median is worse by more than OLD's quartile
distance, so one table shows both a claimed gain and a regression. Below
10 pairs both columns read ``n/a``: nine tenths of fewer pairs is all of
them, and a null pair of 6 read ``worse`` on setup_s. Passing the
same directory as OLD and NEW runs a null pair, which shows the noise of the
protocol itself. The metric names, units and directions are read from OLD's
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench process in checkout; its last stdout line as a dict."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be positive and --seconds positive")
    with open(os.path.join(args.old, "BENCHMARK.json"), encoding="utf-8") as f:
        specs = json.load(f)["end_to_end"]
    names = [spec["name"] for spec in specs]

    runs = {"old": [], "new": []}
    for k in range(args.pairs):
        for side in ("old", "new") if k % 2 == 0 else ("new", "old"):
            result = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(result)
        row = "  ".join(
            f"{name} {runs['old'][k]['metrics'][name]['value']:.6g} -> "
            f"{runs['new'][k]['metrics'][name]['value']:.6g}"
            for name in names
        )
        failed = f"failed {runs['old'][k]['failed']} -> {runs['new'][k]['failed']}"
        print(f"pair {k + 1}: {row}  {failed}", flush=True)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s, "
          "OLD first in odd pairs, NEW first in even pairs")
    print(f"{'metric':<12} {'OLD median [q1, q3]':<32} {'NEW median [q1, q3]':<32} "
          f"{'ratio':>7} {'won':>6}  gain  worse")
    for spec in specs:
        name, higher = spec["name"], spec["better"] == "higher"
        old = [r["metrics"][name]["value"] for r in runs["old"]]
        new = [r["metrics"][name]["value"] for r in runs["new"]]
        ratio = statistics.median(b / a for a, b in zip(old, new))
        won = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        lost = sum((b < a) if higher else (b > a) for a, b in zip(old, new))
        q1, q3 = quartiles(old)
        # the median move in the better direction
        gap = statistics.median(new) - statistics.median(old)
        better = gap if higher else -gap
        gain = won >= 0.9 * args.pairs and better > q3 - q1
        worse = lost >= 0.9 * args.pairs and -better > q3 - q1
        verdicts = ["yes" if v else "no" for v in (gain, worse)] if args.pairs >= 10 else ["n/a"] * 2
        cells = []
        for values in (old, new):
            lo, hi = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} [{lo:.6g}, {hi:.6g}]")
        print(f"{name:<12} {cells[0]:<32} {cells[1]:<32} {ratio:>7.4f} "
              f"{won:>3}/{args.pairs:<2}  {verdicts[0]:<4}  {verdicts[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
