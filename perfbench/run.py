"""Offline benchmark of the t2ifuse pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-xattn --seed 11 --seconds 20 --trace 0

``--seed`` is the synthetic fixture's seed. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced iteration. Each run
executes in a fresh child interpreter, whose high-water RSS is reported as
``peak_rss_mb``. All files go under ``.perfbench_work/`` in the current
directory. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

CHILD_TIMEOUT_S = 170
WORKLOADS = ("oracle-xattn", "gen-concat")
END_TO_END = ("setup_s", "cold_run_s", "warm_run_s", "test_accuracy", "test_macro_f1",
              "peak_rss_mb", "disk_mb", "fsync_calls")
# One BLAS thread, so threads never outnumber cores beside the two image-generation threads.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _filesystem(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "t2ifuse" / "__init__.py").is_file():
        print(f"perfbench: no t2ifuse sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    env.update({name: "1" for name in PINNED_THREADS})
    # Bytecode is cached under the work dir whatever the caller's setting, so
    # set-up times an import from cached bytecode, as an installed package's is.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work_root / "pycache")
    cmd = [
        sys.executable, str(Path(__file__).resolve().with_name("harness.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work_root / f"{run_id}-{os.getpid()}"),
    ]
    if args.trace:
        cmd += ["--spans", str(work_root / "trace" / f"{run_id}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: child exited with code {proc.returncode}", file=sys.stderr)
        return 1
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        print("perfbench: child printed no result", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics = {name: metrics[name] for name in END_TO_END if name in metrics}
    env_record = dict(out["env"], nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)),
                      work_filesystem=_filesystem(work_root))
    for line in lines[:-1]:
        print(line)
    print("perfbench env: " + json.dumps(env_record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<45} {metric['value']!s:>22} {metric['unit']}")
    complete = args.trace or len(metrics) == len(END_TO_END)
    print(json.dumps({
        "correct": out["failed"] == 0 and bool(complete),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
