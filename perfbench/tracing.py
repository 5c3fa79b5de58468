"""Span tracing of ``chinf``'s public functions from outside the package.

``Tracer`` replaces each target function at every binding a ``chinf``
module holds for it (``from .models import train`` in ``chinf.pruning``,
the ``chinf.autodiff`` attribute that ``models.ad.backward`` reads, the
re-exports in ``chinf``) and puts every binding back on exit. Each call
records a span ``(id, parent, name, pass_id, start, end)`` in memory; a few
targets also add work counters (windows made, SGD steps, threshold input
size). ``layer_metrics`` turns one run's spans into per-pass figures.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

TARGETS = (
    ("chinf.autodiff", "backward"),
    ("chinf.models", "channel_gradients"),
    ("chinf.models", "whole_gradient"),
    ("chinf.models", "channel_loss"),
    ("chinf.models", "train"),
    ("chinf.models", "mean_window_mse"),
    ("chinf.models", "load_checkpoint"),
    ("chinf.influence", "self_influence_per_channel"),
    ("chinf.influence", "influence_matrix"),
    ("chinf.influence", "tracin"),
    ("chinf.anomaly", "detect"),
    ("chinf.anomaly", "score_windows"),
    ("chinf.anomaly", "normalize_scores"),
    ("chinf.anomaly", "select_threshold"),
    ("chinf.anomaly", "prf1"),
    ("chinf.anomaly", "save_report_csv"),
    ("chinf.pruning", "accumulate_channel_scores"),
    ("chinf.pruning", "prune_and_eval"),
    ("chinf.core", "make_windows"),
    ("chinf.data", "load_csv"),
    ("chinf.cli", "main"),
)


def _short(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func}"


def _train_counts(args, result):
    windows, config = args["train_windows"], args["config"]
    full = args.get("trainable") is None and windows[0].n_channels == args["state"].spec.channels
    return {
        "models.train.sgd_steps": config.epochs * math.ceil(len(windows) / config.batch_size),
        "models.train.full": int(full),
    }


COUNTERS = {
    "core.make_windows": lambda args, result: {"core.make_windows.windows": len(result)},
    "models.train": _train_counts,
    "anomaly.select_threshold": lambda args, result: {
        "anomaly.select_threshold.n": len(args["scores"])
    },
}


class Tracer:
    """Context manager that wraps the targets while it is active."""

    def __init__(self, targets=TARGETS, clock=perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[tuple] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.pass_id = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, self.pass_id, start, end))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                totals = self.counters[self.pass_id]
                for key, value in counter(bound.arguments, result).items():
                    totals[key] += value
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "chinf" or key.startswith("chinf.")]
        for module_name, func in self.targets:
            original = getattr(sys.modules[module_name], func)
            wrapper = self._wrap(_short(module_name, func), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


def _per_pass(spans, factors):
    """{pass_id: {name: [calls, inclusive_s, self_s]}} plus per-call durations."""
    child_time = defaultdict(float)
    for span_id, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    durations = defaultdict(list)
    for span_id, _, name, pass_id, start, end in spans:
        factor = factors[pass_id]
        entry = table[pass_id][name]
        entry[0] += 1
        entry[1] += (end - start) * factor
        entry[2] += (end - start - child_time[span_id]) * factor
        durations[name].append((end - start) * factor)
    return table, durations


def quantile(values, q: float) -> float:
    """The value at rank ``int(q * n)`` of the sorted values; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, factors, seeds_per_pass: int) -> dict:
    """Median per-pass figures over the traced passes.

    ``factors[p]`` scales the times of pass ``p`` to a host of fixed speed.
    Every traced function gets ``.calls``, ``.s`` (inclusive) and ``.self_s``
    per pass, beside the derived figures.
    """
    table, durations = _per_pass(tracer.spans, factors)
    passes = range(len(factors))
    names = sorted({_short(m, f) for m, f in tracer.targets})

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def calls(name):
        return lambda p: table[p][name][0]

    def incl(name):
        return lambda p: table[p][name][1]

    def self_s(name):
        return lambda p: table[p][name][2]

    def count(key):
        return lambda p: tracer.counters[p][key]

    def ratio(top, bottom):
        return lambda p: top(p) / bottom(p) if bottom(p) else 0.0

    m = {}
    for name in names:
        m[f"{name}.calls"] = med(calls(name))
        m[f"{name}.s"] = med(incl(name))
        m[f"{name}.self_s"] = med(self_s(name))
    m["autodiff.backward.per_window"] = med(
        ratio(calls("autodiff.backward"), count("core.make_windows.windows"))
    )
    si = durations["influence.self_influence_per_channel"]
    m["influence.self_influence_per_channel.us.p50"] = quantile(si, 0.50) * 1e6
    m["influence.self_influence_per_channel.us.p99"] = quantile(si, 0.99) * 1e6
    m["models.train.sgd_steps"] = med(count("models.train.sgd_steps"))
    m["models.sgd_step_us"] = med(
        ratio(lambda p: incl("models.train")(p) * 1e6, count("models.train.sgd_steps"))
    )
    # useful / attempted: one full training and one score table per seed do
    m["models.train.full_per_seed"] = med(ratio(lambda p: seeds_per_pass, count("models.train.full")))
    m["pruning.score_tables_per_seed"] = med(
        ratio(lambda p: seeds_per_pass, calls("pruning.accumulate_channel_scores"))
    )
    m["anomaly.select_threshold.n"] = med(
        ratio(count("anomaly.select_threshold.n"), calls("anomaly.select_threshold"))
    )
    m["core.make_windows.windows"] = med(count("core.make_windows.windows"))
    m["trace.spans"] = len(tracer.spans) / max(1, len(passes))
    return m
