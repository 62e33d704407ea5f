"""Spans and counters recorded around calls into ptscatter, from outside the package.

``Tracer.install`` replaces each instrumented public function with a
wrapper under every name its callers look it up by: a function defined in
``ptscatter.solver`` is also rebound in ``ptscatter.analysis``,
``ptscatter.cli`` and the package namespace when they imported it.  No file
of the package changes.  ``Tracer.uninstall`` puts the originals back, so
traced and untraced iterations can alternate in one process.

Each wrapped call appends one span (name, start, end, parent) to flat
arrays.  A span's self time is its duration minus the durations of its
direct children; calls nest strictly in this single-threaded program, so
the children never overlap.

Limits of measuring from outside:

* ``cli.format_s`` covers ``format_table_csv``, ``table_to_json_dict`` and
  ``json.dumps`` as ``ptscatter.cli`` calls them.  The text output of
  ``ptscatter solve`` is built by f-strings inside ``cmd_solve``, which is
  not a function boundary, so that time stays in ``cli.main_self_s``.
* ``core.window_row_calls`` and ``core.window_entries_scanned`` are counts
  only: ``InteractionWindow.row`` returns a generator that its caller
  drains, so the call itself does no timeable work.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "ptscatter",
    "ptscatter.analysis",
    "ptscatter.cli",
    "ptscatter.closedforms",
    "ptscatter.core",
    "ptscatter.solver",
)

# (span name, defining module, function name)
SPANS = (
    ("cli.main", "ptscatter.cli", "main"),
    ("cli.parser_build", "ptscatter.cli", "build_parser"),
    ("cli.load_window", "ptscatter.cli", "load_window_file"),
    ("cli.format", "ptscatter.cli", "format_table_csv"),
    ("cli.format", "ptscatter.cli", "table_to_json_dict"),
    ("analysis.sweep", "ptscatter.analysis", "run_sweep"),
    ("analysis.crossval", "ptscatter.analysis", "cross_validate"),
    ("analysis.oracle", "ptscatter.analysis", "transfer_matching_agreement"),
    ("closedforms.eval", "ptscatter.closedforms", "closed_form_amplitudes"),
    ("solver.matching", "ptscatter.solver", "solve_matching"),
    ("solver.transfer", "ptscatter.solver", "solve_transfer_matrix"),
    ("solver.assemble", "ptscatter.solver", "build_matching_system"),
    ("solver.row", "ptscatter.solver", "hamiltonian_row"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
SOLVER_SPANS = ("solver.matching", "solver.transfer")

# Per-layer metric -> (span name, statistic) for span-derived values.
SPAN_METRICS = {
    "solver.matching_calls": ("solver.matching", "calls"),
    "solver.matching_s": ("solver.matching", "total"),
    "solver.matching_self_s": ("solver.matching", "self"),
    "solver.transfer_calls": ("solver.transfer", "calls"),
    "solver.transfer_s": ("solver.transfer", "total"),
    "solver.transfer_self_s": ("solver.transfer", "self"),
    "solver.assemble_calls": ("solver.assemble", "calls"),
    "solver.assemble_s": ("solver.assemble", "total"),
    "solver.row_calls": ("solver.row", "calls"),
    "solver.row_s": ("solver.row", "total"),
    "closedforms.calls": ("closedforms.eval", "calls"),
    "closedforms.eval_s": ("closedforms.eval", "total"),
    "analysis.sweep_s": ("analysis.sweep", "total"),
    "analysis.sweep_self_s": ("analysis.sweep", "self"),
    "analysis.crossval_calls": ("analysis.crossval", "calls"),
    "analysis.crossval_s": ("analysis.crossval", "total"),
    "analysis.oracle_s": ("analysis.oracle", "total"),
    "cli.main_calls": ("cli.main", "calls"),
    "cli.main_self_s": ("cli.main", "self"),
    "cli.parser_build_s": ("cli.parser_build", "total"),
    "cli.load_window_calls": ("cli.load_window", "calls"),
    "cli.load_window_s": ("cli.load_window", "total"),
    "cli.format_s": ("cli.format", "total"),
}

# Per-layer metrics counted directly at the wrappers or by the workload.
COUNT_METRICS = (
    "solver.singular_raised",
    "core.window_row_calls",
    "core.window_entries_scanned",
    "analysis.error_records",
    "cli.bytes_out",
)


class Tracer:
    """In-memory spans and counters for one traced iteration."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, on_result=None):
        nid = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts
        perf = time.perf_counter
        solver_error = sys.modules["ptscatter.errors"].SolverError
        counts_errors = name in SOLVER_SPANS

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except solver_error:
                if counts_errors:
                    counts["solver.singular_raised"] += 1
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, replacement) -> None:
        for module_name in MODULES:
            module = sys.modules[module_name]
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every instrumented function under each name callers use."""
        counts = self.counts

        def count_errors(table) -> None:
            counts["analysis.error_records"] += len(table.errors)

        for name, home, attr in SPANS:
            original = getattr(sys.modules[home], attr)
            on_result = count_errors if name == "analysis.sweep" else None
            self._rebind(original, self._span(name, original, on_result))

        cli = sys.modules["ptscatter.cli"]
        json_module = cli.json
        proxy = types.SimpleNamespace(**vars(json_module))
        proxy.dumps = self._span("cli.format", json_module.dumps)
        setattr(cli, "json", proxy)
        self._patches.append((cli, "json", json_module))

        window_cls = sys.modules["ptscatter.core"].InteractionWindow
        row = window_cls.row

        def counted_row(win, i):
            counts["core.window_row_calls"] += 1
            counts["core.window_entries_scanned"] += len(win.entries)
            return row(win, i)

        window_cls.row = counted_row
        self._patches.append((window_cls, "row", row))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded so far."""
        spans = self.span_arrays()
        ids, parents = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - child_time
        stats = {}
        for nid, name in enumerate(self.names):
            mine = ids == nid
            stats[name] = {
                "calls": int(np.count_nonzero(mine)),
                "total": float(duration[mine].sum()),
                "self": float(self_time[mine].sum()),
            }
        values: dict[str, float] = {key: stats[span][stat] for key, (span, stat) in SPAN_METRICS.items()}
        values.update({key: int(self.counts[key]) for key in COUNT_METRICS})
        values["trace.spans"] = int(len(duration))
        return values
