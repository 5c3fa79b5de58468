"""Benchmark for chinf: end-to-end timings, output checks and a traced run.

Usage, from the root of a chinf checkout:

    python3 perfbench/run.py --workload detect_cif --seed 0 --seconds 25 --trace 0

``--workload all`` runs every workload in one process. Each workload is a
closed loop with one caller in one process: it sets up from the seed
(several times; the median is ``setup_s``), computes reference outputs with
independent numpy code, then repeats timed passes for ``--seconds`` and
checks every output. ``--trace 0`` reports the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` spends half the time untraced and half
with every public function wrapped in spans, and reports the per-layer
metrics plus the tracing overhead. Human-readable lines come first; the
last line of standard output is one JSON object. Reports and spans are
written under ``perfbench_out/``.
"""
from __future__ import annotations

import os

# pinned before numpy is imported anywhere in the process
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench_out")

SETUP_MIN_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 100
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MAX_FAILURE_NOTES = 5


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "chinf", "*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


class Run:
    """Pass times, op times and check outcomes of one workload run."""

    def __init__(self, workload, speed=None):
        self.workload = workload
        # an inactive HostSpeed samples once after each pass instead
        self.speed = speed if speed is not None else HostSpeed()
        self.ops = workload.ops()
        self.pass_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.op_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failure_notes: list[str] = []

    def execute(self, timed: bool = True) -> tuple[list, float, float]:
        """Call every op once; return their outputs (or raised errors), the
        summed op time and the pass's host-speed factor. ``timed`` ops also
        feed the op latency quantiles."""
        outputs, took = [], []
        mark = self.speed.mark()
        for op in self.ops:
            start = self.speed.clock()
            try:
                out = op()
            except Exception as e:  # a raised error is a failed op, not a crash
                out = e
            took.append(self.speed.clock() - start)
            outputs.append(out)
        factor = self.speed.factor(mark)
        if timed:
            self.op_s.extend(t * factor for t in took)
        return outputs, sum(took), factor

    def record(self, outputs: list) -> None:
        """Check each op's output against the reference and count failures."""
        for i, out in enumerate(outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                try:
                    problems = self.workload.check(i, out)
                except Exception as e:
                    problems = [f"check could not read the output: {type(e).__name__}: {e}"]
            if problems:
                self.failed += 1
                if len(self.failure_notes) < MAX_FAILURE_NOTES:
                    self.failure_notes.append(f"op {i}: " + "; ".join(problems))

    def repeat(self, seconds: float, min_passes: int, times: list, tracer=None) -> None:
        """Run passes for ``seconds``; append their host-normalized times."""
        start = perf_counter()
        while len(times) < min_passes or perf_counter() - start < seconds:
            if tracer is not None:
                tracer.pass_id = len(times)
            outputs, elapsed, factor = self.execute(timed=tracer is None)
            self.raw_pass_s.append(elapsed)
            self.factors.append(factor)
            times.append(elapsed * factor)
            self.record(outputs)


def measure(cls, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set up, build the reference, run timed passes; return the report."""
    with HostSpeed() as speed:
        return _measure(cls(seed, workdir), seed, seconds, trace, speed)


def _measure(workload, seed, seconds, trace, speed) -> dict:
    cls = type(workload)
    setup_s, raw_setup_s = [], []
    while len(setup_s) < SETUP_MIN_REPS or (
        sum(raw_setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS
    ):
        mark, start = speed.mark(), speed.clock()
        workload.setup()
        raw_setup_s.append(speed.clock() - start)
        setup_s.append(raw_setup_s[-1] * speed.factor(mark))
    workload.make_reference()
    run = Run(workload, speed)
    report = {
        "workload": cls.name,
        "environment": environment(seed),
        "seconds": seconds,
        "setup_reps": len(setup_s),
    }
    if not trace:
        run.repeat(seconds, MIN_PASSES, run.pass_s)
        # host-normalized pass times have no contention outliers left, and
        # their mean repeats across runs better than their median
        wall = statistics.fmean(run.pass_s)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "items_per_s": workload.items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        run.repeat(seconds / 2, MIN_TRACED_PASSES, run.pass_s)
        with tracing.Tracer(clock=speed.clock) as tracer:
            run.repeat(seconds / 2, MIN_TRACED_PASSES, run.traced_pass_s, tracer)
        traced_factors = run.factors[len(run.pass_s) :]
        metrics = tracing.layer_metrics(
            tracer, traced_factors, workload.seeds_per_pass
        )
        metrics["src.lines"] = src_lines()
        metrics["trace.overhead_s"] = statistics.fmean(run.traced_pass_s) - statistics.fmean(
            run.pass_s
        )
        report["spans_file"] = write_spans(tracer, cls.name, seed)
    report.update(
        passes=len(run.pass_s),
        raw_pass_s={
            "p50": statistics.median(run.raw_pass_s[: len(run.pass_s)]),
            "min": min(run.raw_pass_s[: len(run.pass_s)]),
            "max": max(run.raw_pass_s[: len(run.pass_s)]),
        },
        pass_s=run.pass_s + run.traced_pass_s,
        host_factors=run.factors,
        host_tick_ms={
            "p50": 1e3 * statistics.median(speed.durations),
            "count": len(speed.durations),
        },
        raw_setup_s=statistics.median(raw_setup_s),
        traced_passes=len(run.traced_pass_s),
        items_per_pass=workload.items,
        item=workload.item,
        ops_per_pass=len(run.ops),
        op_ms={
            "p50": 1e3 * tracing.quantile(run.op_s, 0.50),
            "p99": 1e3 * tracing.quantile(run.op_s, 0.99),
            "count": len(run.op_s),
        },
        attempted=run.attempted,
        failed=run.failed,
        failure_notes=run.failure_notes,
        metrics=metrics,
    )
    return report


def write_spans(tracer, workload: str, seed: int) -> str:
    """JSON lines: a header naming the columns, then one span per line."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"columns": ["id", "parent", "name", "pass", "start_s", "end_s"]}) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    return os.path.relpath(path, ROOT)


def describe(report: dict, specs: dict) -> list[str]:
    """Human-readable lines: every reported metric with its unit."""
    name, item = report["workload"], report["item"]
    frac = report["failed"] / report["attempted"]
    lines = [
        f"== {name}: {report['passes']} untraced passes, "
        f"{report['traced_passes']} traced passes, {report['items_per_pass']} {item}s per pass",
        f"   environment {json.dumps(report['environment'], sort_keys=True)}",
        f"   failed_frac {frac:.6g} ({report['failed']} of {report['attempted']} ops)",
    ]
    notes = {
        "setup_s": f"median of {report['setup_reps']} set-ups, raw median "
        f"{report['raw_setup_s']:.6g} s",
        "wall_s": f"mean of {report['passes']} passes, median "
        f"{statistics.median(report['pass_s'][: report['passes']]):.6g} s, raw median "
        f"{report['raw_pass_s']['p50']:.6g} s",
        "items_per_s": f"{item}s_per_s",
        "trace.overhead_s": "mean traced minus untraced pass",
    }
    for key, value in report["metrics"].items():
        unit = specs[key]["unit"] if key in specs else "count" if key.endswith(".calls") else "s"
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"   {key:<48} {value:.6g} {unit}{note}")
    op = report["op_ms"]
    lines.append(
        f"   {'op_ms.p50 / op_ms.p99':<48} {op['p50']:.6g} / {op['p99']:.6g} ms"
        f"  (one op = {'one ' + item if report['ops_per_pass'] > 1 else 'one pass'}, "
        f"{op['count']} ops)"
    )
    for note in report["failure_notes"]:
        lines.append(f"   FAILED {note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p
        for p in ("src/chinf/__init__.py", "tests/bench_suite.py", "BENCHMARK.json")
        if not os.path.isfile(os.path.join(ROOT, p))
    ]
    if missing:
        print(f"perfbench: not a chinf checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    specs = {m["name"]: m for m in section}

    os.makedirs(OUT, exist_ok=True)
    reports = []
    for name in names:
        workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
        try:
            report = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
        for line in describe(report, specs):
            print(line)
        reports.append(report)

    def emitted(report):
        return {
            key: {"value": report["metrics"][key], "unit": spec["unit"]}
            for key, spec in specs.items()
        }

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = emitted(reports[0])
    else:
        metrics = {
            f"{r['workload']}.{key}": value for r in reports for key, value in emitted(r).items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
