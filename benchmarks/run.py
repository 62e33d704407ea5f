"""Benchmark runner for ptscatter.

    python3 benchmarks/run.py --workload sweep-ref --seed 1 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` in fresh processes and prints, as
its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a traced
run (see ``tracing.py``) and the tracing overhead.  The line before it,
starting with ``#``, records the machine, Python, numpy, nproc, git
revision, thread caps and sample counts; the same record is written to
``.bench_out/``.

``setup_s`` is the time from spawning a process to the end of its set-up
(interpreter start, import, input generation).  It is the median of
2 * SETUP_SAMPLES set-up-only processes, half of them started before and
half after the measured one, and the measured process itself.  Start and
end are both read from ``time.perf_counter``, which is the system-wide
monotonic clock on Linux, so the two processes' readings compare.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the runner exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep-ref", "sweep-wide", "verify-all", "solve-point")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env(nproc: int) -> dict[str, str]:
    """Environment for the workload processes: serial sweeps, thread pools capped at nproc."""
    env = dict(os.environ)
    env.pop("SCATTER_THREADS", None)
    env.pop("PYTHONPATH", None)
    for var in THREAD_VARS:
        try:
            env[var] = str(min(max(int(env[var]), 1), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def spawn(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return its spawn time and its JSON record."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.perf_counter(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ptscatter benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test grid sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptscatter" / "__init__.py").is_file():
        print(f"run.py: no ptscatter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])

    def setup_time(argv: list[str]) -> tuple[float, dict]:
        start, record = spawn(argv, env, deadline)
        return record["setup_done"] - start, record

    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setups = [setup_time(worker_args + ["--setup-only"])[0] for _ in range(samples)]
        setup, record = setup_time(worker_args)
        setups.append(setup)
        setups += [setup_time(worker_args + ["--setup-only"])[0] for _ in range(samples)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": platform.platform(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "nproc": nproc,
        "git_revision": git_revision(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "setup_samples": len(setups),
        **record["env"],
        **record["samples"],
        "problems": record["problems"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    for problem in record["problems"]:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
