"""Names the benchmark harness looks up in the package.

``benchmarks/tracing.py`` wraps package functions by name, and the
workloads read model fields and oracle defaults.  The traced benchmark run
is not part of this suite, so a deleted or renamed name would otherwise go
unnoticed until that run breaks.  The tracing module is loaded by path and
only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from ptscatter.analysis import transfer_matching_agreement
from ptscatter.core import InteractionWindow, ModelFamily

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ptscatter_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracing = _load_tracing()
    for _, home, attr in tracing.SPANS:
        assert callable(getattr(importlib.import_module(home), attr, None)), f"{home}.{attr}"
    assert callable(InteractionWindow.row)


def test_workload_lookups_exist():
    model = ModelFamily.pt_delta_pair(1, 0.25)
    assert (model.x, ModelFamily.ultralocal(-0.5).a) == (0.25, -0.5)
    params = inspect.signature(transfer_matching_agreement).parameters
    for name in ("n_windows", "angles_per_window"):
        assert isinstance(params[name].default, int)
