"""One benchmark process: set up a workload, warm up, run it timed, check it.

Started by ``run.py``.  It prints one JSON line: the ``perf_counter`` value
at which set-up ended (import and input generation), then the operation
counts and metrics.  With ``--setup-only`` it stops after set-up.  With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import ptscatter  # noqa: E402
import ptscatter.cli as cli  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test grid sizes")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def call(argv: list[str], out_path: Path | None) -> tuple[float, workloads.Output]:
    """One in-process CLI call with stdout and stderr captured; returns its latency and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)  # looked up on the module, so a traced iteration sees the wrapper
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed call; its traceback goes into the captured stderr
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
    text = out_path.read_text(encoding="utf-8") if out_path is not None and out_path.exists() else None
    return elapsed, workloads.Output(rc, out.getvalue(), err.getvalue(), text)


class Session:
    """Runs iterations of one workload and compares every output with the first iteration's."""

    def __init__(self, work: workloads.Workload) -> None:
        self.work = work
        self.reference: list[workloads.Output] | None = None
        self.mismatches = [0] * len(work.calls)
        self.iterations = 0
        self.latencies: list[list[float]] = []  # one row per iteration, one column per call
        self.bytes_out = 0

    def iterate(self) -> float:
        """One iteration; returns its duration, the sum of its CLI call latencies."""
        latencies, outputs = zip(*(call(argv, path) for argv, path in zip(self.work.calls, self.work.out_paths)))
        self.bytes_out = sum(len(o.stdout.encode()) + len((o.file or "").encode()) for o in outputs)
        if self.reference is None:
            self.reference = list(outputs)
        for k, output in enumerate(outputs):
            if output != self.reference[k]:
                self.mismatches[k] += 1
        self.iterations += 1
        self.latencies.append(list(latencies))
        return sum(latencies)

    def verdict(self) -> tuple[int, int, dict[int, str]]:
        """(attempted, failed, problems): a call fails when its output differs or fails the check."""
        problems = self.work.check(self.reference)
        failed = sum(self.iterations if k in problems else n for k, n in enumerate(self.mismatches))
        for k, n in enumerate(self.mismatches):
            if n:
                problems.setdefault(k, f"output changed between iterations in {n} of {self.iterations}")
        return self.iterations * len(self.work.calls), failed, problems


def repeat(step, seconds: float) -> None:
    """Call ``step`` at least once, and again while the next call should end within ``seconds``."""
    start = time.perf_counter()
    costs: list[float] = []
    while not costs or time.perf_counter() - start + statistics.median(costs) <= seconds:
        began = time.perf_counter()
        step()
        costs.append(time.perf_counter() - began)


def timed(session: Session, seconds: float) -> dict:
    durations: list[float] = []
    repeat(lambda: durations.append(session.iterate()), seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(durations)
    # Each call's latency is the median over its repetitions; the percentiles are over the calls.
    per_call = np.median(np.array(session.latencies), axis=0)
    p50, p99 = np.percentile(per_call, [50, 99])
    metrics = {
        "wall_s": (wall, "s"),
        "points_per_s": (session.work.points / wall, "1/s"),
        "latency_p50_us": (p50 * 1e6, "us"),
        "latency_p99_us": (p99 * 1e6, "us"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    samples = {"iteration_s": durations, "calls_per_iteration": len(per_call)}
    return {"metrics": metrics, "samples": samples}


def traced(session: Session, seconds: float, spans_path: Path) -> dict:
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []

    def pair() -> None:
        untraced_walls.append(session.iterate())
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls.append(session.iterate())
        finally:
            tracer.uninstall()
        tracer.counts["cli.bytes_out"] = session.bytes_out
        layers.append(tracer.metrics())
        if len(layers) == 1:
            np.savez(spans_path, **tracer.span_arrays())

    repeat(pair, seconds)
    metrics = {}
    for key in layers[0]:
        unit = "s" if key.endswith("_s") else ("bytes" if key.endswith("bytes_out") else "count")
        middle = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
        metrics[key] = (middle(layer[key] for layer in layers), unit)
    overhead = statistics.median(traced_walls) - statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"traced_iterations": len(layers), "spans_file": str(spans_path.relative_to(ROOT))}
    return {"metrics": metrics, "samples": samples}


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "ptscatter":
        print(f"worker: imported ptscatter from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        record: dict = {"setup_done": time.perf_counter()}
        if not args.setup_only:
            session = Session(work)
            call(work.warmup, None)
            if args.trace:
                spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
                record.update(traced(session, args.seconds, spans))
            else:
                record.update(timed(session, args.seconds))
            attempted, failed, problems = session.verdict()
            record.update(attempted=attempted, failed=failed, problems=[problems[k] for k in sorted(problems)[:10]])
            record["env"] = {"numpy": np.__version__, "ptscatter": ptscatter.__version__}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
