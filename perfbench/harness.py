"""Benchmark child process: set-up, timed iterations and output checks.

``run.py`` starts this file in a fresh interpreter per run, with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread. It prints human-readable lines
and, as its last line, one JSON object with the run's counts and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# An untraced run measures at least this many iterations; at 4,800 samples
# two already take about 45 s.
MIN_ITERATIONS = 2
# Set-up is timed in fresh interpreters, this many rounds before each
# iteration and at least SETUP_ROUNDS in all; setup_s is their median.
SETUP_ROUNDS_PER_ITERATION = 4
SETUP_ROUNDS = 8
SETUP_TIMEOUT_S = 60


def _setup_only(workload_name: str, seed: int, work: Path, samples_per_class: int | None) -> float:
    """One set-up, timed from a fresh interpreter: import ``t2ifuse``, build
    the fixture and parse the config."""
    start = time.perf_counter()
    import workloads  # imports t2ifuse and numpy

    workloads.stub_syncs()
    workload = workloads.WORKLOADS[workload_name]
    fixture = workloads.build_fixture(workload, work / "fixture", seed, samples_per_class)
    workloads.make_config(workload, fixture, work / "unused", work / "unused")
    return time.perf_counter() - start


def _setup_round(workload_name: str, seed: int, work: Path, samples_per_class: int | None) -> float:
    """Seconds one set-up takes in a child interpreter started for it."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", workload_name,
           "--seed", str(seed), "--work-dir", str(work)]
    if samples_per_class is not None:
        cmd += ["--samples-per-class", str(samples_per_class)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _prepare(workload_name: str, seed: int, work: Path, samples_per_class: int | None):
    """Untimed set-up of the measuring process; returns the workload and its fixture."""
    import workloads

    workloads.stub_syncs()
    workload = workloads.WORKLOADS[workload_name]
    return workload, workloads.build_fixture(workload, work / "fixture", seed, samples_per_class)


def _report_problems(label: str, problems: list[str]) -> None:
    for problem in problems:
        print(f"perfbench: {label}: {problem}", file=sys.stderr)


def measure(workload_name: str, seed: int, seconds: float, work: Path,
            samples_per_class: int | None = None) -> dict:
    """Untraced run: whole iterations, each after its set-up rounds, at least
    ``MIN_ITERATIONS``, then another while it is expected to end within
    ``seconds``."""
    workload, fixture = _prepare(workload_name, seed, work, samples_per_class)
    import workloads

    full_size = samples_per_class is None
    passed, attempted, failed = [], 0, 0
    setups: list[float] = []

    def setup_round():
        setups.append(_setup_round(workload_name, seed, work / f"setup{len(setups)}",
                                   samples_per_class))

    start = time.perf_counter()
    while (attempted < MIN_ITERATIONS
           or (time.perf_counter() - start) * (attempted + 1) / attempted <= seconds):
        workloads.flush()
        for _ in range(SETUP_ROUNDS_PER_ITERATION):
            setup_round()
        attempted += 1
        iter_dir = work / f"iter{attempted}"
        try:
            result = workloads.run_iteration(workload, fixture, iter_dir, check_accuracy=full_size)
        except Exception:
            traceback.print_exc()
            failed += 1
        else:
            if result.problems:
                _report_problems(f"iteration {attempted}", result.problems)
                failed += 1
            else:
                passed.append(result)
        shutil.rmtree(iter_dir, ignore_errors=True)
    while len(setups) < SETUP_ROUNDS:
        setup_round()

    metrics = {"setup_s": (statistics.median(setups), "s")}
    if passed:
        metrics.update({
            "cold_run_s": (statistics.median(r.cold.wall_s for r in passed), "s"),
            "warm_run_s": (statistics.median(r.warm.wall_s for r in passed), "s"),
            "test_accuracy": (passed[0].cold.accuracy, "ratio"),
            "test_macro_f1": (passed[0].cold.macro_f1, "ratio"),
            "disk_mb": (statistics.median(r.disk_bytes for r in passed) / 1e6, "MB"),
            "fsync_calls": (statistics.median_low(r.cold.syncs + r.warm.syncs for r in passed),
                            "count"),
        })
    print(f"perfbench: {len(passed)} of {attempted} iterations passed; cold "
          f"{[round(r.cold.wall_s, 3) for r in passed]} s, warm "
          f"{[round(r.warm.wall_s, 3) for r in passed]} s; set-up "
          f"{[round(t, 3) for t in setups]} s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def trace(workload_name: str, seed: int, work: Path, spans_path: Path | None,
          samples_per_class: int | None = None) -> dict:
    """Traced run: one untraced cold phase, for the overhead, then one traced
    iteration whose per-layer metrics are reported for each phase."""
    workload, fixture = _prepare(workload_name, seed, work, samples_per_class)
    import tracing
    import workloads

    untraced_dir = work / "untraced"
    untraced = workloads.run_phase(
        workload,
        workloads.make_config(workload, fixture, untraced_dir / "cold", untraced_dir / "cache"),
        workloads.make_registry(),
    )
    shutil.rmtree(untraced_dir, ignore_errors=True)

    tracers = {"cold": tracing.Tracer(), "warm": tracing.Tracer()}
    failed = 0
    try:
        result = workloads.run_iteration(
            workload, fixture, work / "iter1", tracers=tracers,
            check_accuracy=samples_per_class is None,
        )
    except Exception:
        traceback.print_exc()
        failed, result = 1, None
    else:
        if result.problems or untraced.problems:
            _report_problems("traced iteration", result.problems + untraced.problems)
            failed = 1

    units = tracing.metric_units()
    metrics = {}
    for phase, tracer in tracers.items():
        for name, value in tracer.metrics().items():
            metrics[f"{phase}.{name}"] = (value, units[name])
        if result is not None:
            metrics[f"{phase}.storage.fsync.calls"] = (getattr(result, phase).syncs, "count")
        _print_layer_table(phase, tracer)
        for name, reason in sorted(tracer.missing.items()):
            print(f"perfbench: {phase}.{name} missing: {reason}")
    if result is not None:
        stages = sum(tracers["cold"].totals().get(f"orchestrator.{s}", (0, 0.0))[1]
                     for s in tracing.STAGES)
        spans = len(tracers["cold"].spans)
        cost = tracing.span_cost()
        print(f"perfbench: cold stages sum {stages:.3f} s, traced run {result.cold.wall_s:.3f} s, "
              f"untraced run {untraced.wall_s:.3f} s; tracing overhead "
              f"{result.cold.wall_s - untraced.wall_s:.3f} s measured (traced minus untraced), "
              f"{spans * cost:.3f} s estimated ({spans} spans x {cost * 1e6:.2f} us)")
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.unlink(missing_ok=True)
        for phase, tracer in tracers.items():
            tracer.write_spans(spans_path, phase)
        print(f"perfbench: spans written to {spans_path}")
    return {"attempted": 1, "failed": failed, "metrics": metrics}


def _print_layer_table(phase: str, tracer) -> None:
    totals = tracer.totals()
    self_s = tracer.self_times()
    print(f"perfbench: {phase} spans (name, calls, total s, self s)")
    for name in sorted(totals, key=lambda n: -self_s[n]):
        calls, seconds = totals[name]
        print(f"  {name:<30} {calls:>8} {seconds:>10.4f} {self_s[name]:>10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it as JSON")
    parser.add_argument("--samples-per-class", type=int)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_s = _setup_only(args.workload, args.seed, args.work_dir, args.samples_per_class)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    work = args.work_dir
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = trace(args.workload, args.seed, work, args.spans)
        else:
            out = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy

    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "fixture_seed": args.seed,
    }
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
