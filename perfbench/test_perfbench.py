"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q perfbench``. They
take about two minutes: every workload is set up and run for a few passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".sgd_steps", ".windows", "_per_seed", ".per_window", ".n", "trace.spans")


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "chinf" or name.startswith("chinf.")
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
    }


def test_tracer_wraps_every_binding_and_restores_it():
    import chinf.anomaly
    import chinf.autodiff
    import chinf.models
    import chinf.pruning

    before = _bindings()
    with tracing.Tracer():
        # reached through `from .models import train`, `models.ad.backward`
        # and `from .influence import self_influence_per_channel`
        for fn in (
            chinf.pruning.train,
            chinf.models.ad.backward,
            chinf.anomaly.self_influence_per_channel,
            chinf.pruning.self_influence_per_channel,
            chinf.train,
        ):
            assert fn.__wrapped__ is not fn
        assert chinf.pruning.train is chinf.models.train
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_bindings_when_the_body_raises():
    import chinf.models

    original = chinf.models.train
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert chinf.models.train is original


def _perturb(workload) -> None:
    """Nudge one reference value well past the 1e-9 tolerance."""
    if isinstance(workload, workloads.PruneSweep):
        selected, mse_selected, mse_full = workload.want[0]
        workload.want[0] = (selected, mse_selected * (1 + 1e-6), mse_full)
    elif isinstance(workload, workloads.InfluencePairs):
        workload.want[0] = workload.want[0] * (1 + 1e-6)
    else:
        workload.want_raw = workload.want_raw * (1 + 1e-6)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_pass_on_the_program_and_fail_on_a_perturbed_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name](0, str(tmp_path))
    workload.setup()
    workload.make_reference()
    bench = run.Run(workload)
    outputs, _, _ = bench.execute()
    bench.record(outputs)
    assert (bench.attempted, bench.failed) == (len(outputs), 0), bench.failure_notes
    _perturb(workload)
    bench.record(outputs)
    assert bench.failed > 0


def test_raised_errors_count_as_failed_ops(tmp_path):
    workload = workloads.InfluencePairs(0, str(tmp_path))
    workload.setup()
    workload.make_reference()
    bench = run.Run(workload)

    def broken():
        raise ValueError("bad window")

    bench.ops = bench.ops[:1] + [broken]
    outputs, _, _ = bench.execute()
    bench.record(outputs)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "ValueError: bad window" in bench.failure_notes[0]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    def counts():
        report = run.measure(workloads.WORKLOADS[name], 3, 0.01, True, str(tmp_path))
        assert report["failed"] == 0, report["failure_notes"]
        return {
            key: value
            for key, value in report["metrics"].items()
            if key.endswith(COUNT_SUFFIXES)
        }

    first = counts()
    assert first == counts()
    assert any(key.endswith(".calls") and value > 0 for key, value in first.items())


def test_prune_counts_show_the_wasted_trainings(tmp_path):
    report = run.measure(workloads.PruneSweep, 0, 0.01, True, str(tmp_path))
    m = report["metrics"]
    assert m["pruning.prune_and_eval.calls"] == 8
    # 8 full trainings and 4 score tables per seed, where 1 of each would do
    assert m["models.train.full_per_seed"] == pytest.approx(1 / 8)
    assert m["pruning.score_tables_per_seed"] == pytest.approx(1 / 4)
    assert m["models.train.calls"] == 16


def test_reference_gradients_match_the_tape():
    import bench_suite
    from chinf import influence

    rng = np.random.default_rng(7)
    for case in range(24):
        state, z1, z2, selector = bench_suite.random_model_case(rng, case)
        got = influence.influence_matrix(state, z1, z2, eta=0.01, selector=selector).values
        want = workloads.ref.influence_matrix(
            state.spec, state.params, z1.values, z2.values, selector.names, 0.01
        )
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_reference_threshold_matches_exhaustive_search():
    from chinf import anomaly

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        assert workloads.ref.best_threshold(scores, labels) == anomaly.select_threshold(
            scores, labels
        )


def test_command_prints_one_json_line_with_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "influence_pairs",
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detect_cif",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
