"""The benchmark's workloads: seeded inputs, in-process CLI calls, output checks.

A workload is one iteration's list of ``ptscatter`` command lines, the
number of scattering evaluations that iteration performs, one small
warm-up command, and a check of the outputs.  The checks use the oracle
triangle, not a byte digest: closed form, matching and transfer agree
wherever each succeeds, the probability sum of the PT pair is 1, the
residual stays under the solvers' success gate, and numeric solvers fail
exactly at |x| = 1.  ``check`` returns the failing call indices, each with
its first problem.
"""

from __future__ import annotations

import cmath
import inspect
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ptscatter import analysis, cli, solver
from ptscatter.closedforms import closed_form_amplitudes
from ptscatter.core import InteractionWindow, ModelFamily, PhiAngle
from ptscatter.errors import SolverError

AGREE_TOL = 1e-9  # |dR|, |dT| between any two routes at one point
DEFECT_TOL = 1e-9  # |(|R|^2 + |T|^2) - 1| on PT-pair points
RESIDUAL_RTOL = 1e-10  # the solvers' success gate: residual <= 1e-10 * (1 + max|W|)
NUMERIC = (analysis.SOLVER_MATCHING, analysis.SOLVER_TRANSFER)


@dataclass(frozen=True)
class Output:
    rc: int
    stdout: str
    stderr: str
    file: str | None  # contents of the sweep's --out file


@dataclass
class Workload:
    calls: list[list[str]]
    out_paths: list[Path | None]
    points: int  # scattering evaluations per iteration, error records included
    warmup: list[str]
    check: Callable[[list[Output]], dict[int, str]]


def _range(lo: float, step: float, count: int) -> tuple[str, list[float]]:
    """A lo:hi:step flag with exactly ``count`` points, and those points as the CLI computes them."""
    hi = lo + (count - 1) * step
    return f"{lo!r}:{hi!r}:{step!r}", [lo + k * step for k in range(count)]


def _delta(a: tuple[complex, complex], b: tuple[complex, complex]) -> float:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _check_point(x: float, routes: dict[str, tuple[complex, complex, float]]) -> str | None:
    """Oracle triangle at one PT-pair point; routes maps solver -> (R, T, residual)."""
    if (abs(x) == 1.0) == any(tag in routes for tag in NUMERIC):
        return f"numeric solvers {sorted(routes)} at x={x!r}: they must fail exactly at |x| = 1"
    gate = RESIDUAL_RTOL * (1.0 + abs(x))
    for tag, (big_r, big_t, res) in routes.items():
        defect = abs(big_r) ** 2 + abs(big_t) ** 2 - 1.0
        if not abs(defect) <= DEFECT_TOL:
            return f"{tag} defect {defect:.3e} at x={x!r}"
        if not res <= gate:
            return f"{tag} residual {res:.3e} above gate {gate:.3e} at x={x!r}"
    tags = sorted(routes)
    for i, a in enumerate(tags):
        for b in tags[i + 1 :]:
            delta = _delta(routes[a][:2], routes[b][:2])
            if not delta <= AGREE_TOL:
                return f"{a} vs {b} differ by {delta:.3e} at x={x!r}"
    return None


def _check_grid(
    rows: dict[tuple[int, float, float], dict[str, tuple[complex, complex, float]]],
    grid: list[tuple[int, float, float]],
    solvers: tuple[str, ...],
    errors: int,
) -> str | None:
    if set(rows) - set(grid):
        return f"rows outside the requested grid: {sorted(set(rows) - set(grid))[:3]}"
    found = sum(len(routes) for routes in rows.values())
    if found + errors != len(grid) * len(solvers):
        return f"{found} rows + {errors} error records != {len(grid) * len(solvers)} evaluations"
    for m_sep, x, phi in grid:
        problem = _check_point(x, rows.get((m_sep, x, phi), {}))
        if problem is not None:
            return f"M={m_sep} phi={phi!r}: {problem}"
    return None


def _csv_rows(text: str):
    lines = text.split("\n")
    if lines[0] != cli.CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or trailing newline differs from the schema")
    rows: dict = {}
    for line in lines[1:-1]:
        f = line.split(",")
        routes = rows.setdefault((int(f[1]), float(f[2]), float(f[3])), {})
        routes[f[11]] = (complex(float(f[5]), float(f[6])), complex(float(f[7]), float(f[8])), float(f[12]))
    return rows


def sweep_ref(seed: int, workdir: Path, tiny: bool) -> Workload:
    """The reference CSV sweep, every solver, including the singular |x| = 1 points."""
    rng = np.random.default_rng(seed)
    m_list = (1,) if tiny else (1, 2, 3)
    x_flag, xs = _range(-1.0, 1.0, 3) if tiny else ("-1:1:0.1", [-1.0 + k * 0.1 for k in range(21)])
    phi_flag, phis = _range(0.1 + 0.05 * float(rng.random()), 0.05, 3 if tiny else 59)
    out = workdir / "sweep-ref.csv"
    argv = ["sweep", "--model", "pt-pair", "--M-list", ",".join(map(str, m_list)), f"--x-range={x_flag}",
            "--phi-range", phi_flag, "--solver", "all", "--format", "csv", "--out", str(out)]
    grid = [(m, x, phi) for m in m_list for x in xs for phi in phis]

    def check(outputs: list[Output]) -> dict[int, str]:
        result = outputs[0]
        if result.rc != 0:
            return {0: f"exit code {result.rc}: {result.stderr.strip()}"}
        match = re.match(r"sweep: (\d+) grid point", result.stderr)
        try:
            rows = _csv_rows(result.file or "")
        except (ValueError, IndexError) as exc:
            return {0: f"unreadable CSV ({exc!r})"}
        problem = _check_grid(rows, grid, analysis.ALL_SOLVERS, int(match.group(1)) if match else 0)
        return {} if problem is None else {0: problem}

    warmup = ["sweep", "--model", "pt-pair", "--M-list", "1", "--x-range=-1:1:1", "--phi-range", "1.0:1.0:1",
              "--solver", "all", "--format", "csv", "--out", str(workdir / "warmup.csv")]
    return Workload([argv], [out], len(grid) * len(analysis.ALL_SOLVERS), warmup, check)


def sweep_wide(seed: int, workdir: Path, tiny: bool) -> Workload:
    """Wide windows on a long phi axis: one JSON sweep per numeric solver."""
    rng = np.random.default_rng(seed)
    m_list = (8,) if tiny else (8, 32, 100)
    xs = [0.3 + k * 0.3 for k in range(2)]
    phi_flag, phis = _range(0.1 + 0.029 * float(rng.random()), 0.029, 3 if tiny else 101)
    base = ["sweep", "--model", "pt-pair", "--M-list", ",".join(map(str, m_list)), "--x-range", "0.3:0.6:0.3",
            "--phi-range", phi_flag, "--format", "json"]
    outs = [workdir / f"sweep-wide-{tag}.json" for tag in NUMERIC]
    calls = [base + ["--solver", tag, "--out", str(path)] for tag, path in zip(NUMERIC, outs)]
    grid = [(m, x, phi) for m in m_list for x in xs for phi in phis]

    def check(outputs: list[Output]) -> dict[int, str]:
        rows: dict = {}
        errors = 0
        for k, result in enumerate(outputs):
            if result.rc != 0:
                return {k: f"exit code {result.rc}: {result.stderr.strip()}"}
            try:
                table = json.loads(result.file or "{}")
                errors += len(table["errors"])
                for row in table["rows"]:
                    rows.setdefault((row["M"], row["coupling"], row["phi"]), {})[row["solver"]] = (
                        complex(row["reR"], row["imR"]),
                        complex(row["reT"], row["imT"]),
                        row["residual"],
                    )
            except (ValueError, KeyError, TypeError) as exc:
                return {k: f"unreadable JSON table ({exc!r})"}
        problem = _check_grid(rows, grid, NUMERIC, errors)
        return {} if problem is None else {k: problem for k in range(len(outputs))}

    warmup = base[:4] + ["8", "--x-range", "0.3:0.3:1", "--phi-range", "1.0:1.0:1", "--format", "json",
                         "--solver", "matching", "--out", str(workdir / "warmup.json")]
    return Workload(calls, outs, len(grid) * len(NUMERIC), warmup, check)


def verify_all(seed: int, workdir: Path, tiny: bool) -> Workload:
    """``verify --suite all``; its oracle seed is fixed inside the CLI, so ``seed`` is unused."""
    argv = ["verify", "--suite", "all"] + (["--M-max", "1"] if tiny else [])
    m_max = cli.build_parser().parse_args(argv).M_max
    oracle = inspect.signature(analysis.transfer_matching_agreement).parameters
    # Points the three suites check: closed forms to min(3, M-max), unitarity to M-max, random windows.
    points = (min(3, m_max) + m_max) * len(analysis.default_coupling_grid()) * len(analysis.default_phi_grid())
    points += oracle["n_windows"].default * oracle["angles_per_window"].default

    def check(outputs: list[Output]) -> dict[int, str]:
        result = outputs[0]
        lines = result.stdout.splitlines()
        verdicts = [re.search(r"worst (\S+)  tol (\S+)  (PASS|FAIL)$", line) for line in lines]
        if result.rc != 0 or len(lines) != 3 or not all(verdicts):
            return {0: f"exit code {result.rc}, output {result.stdout!r}, stderr {result.stderr[-500:]!r}"}
        for line, v in zip(lines, verdicts):
            if v.group(3) != "PASS" or not float(v.group(1)) <= float(v.group(2)):
                return {0: f"suite failed: {line}"}
        return {}

    warmup = ["verify", "--suite", "closed-forms", "--M-max", "1"]
    return Workload([argv], [None], points, warmup, check)


def _random_window(rng: np.random.Generator, width: int, reach: int) -> InteractionWindow:
    """Complex entries within ``reach`` of the diagonal; |Re W| <= 0.9 keeps every bond away from severed."""
    lo = int(rng.integers(-6, 7))
    hi = lo + width - 1
    entries = {}
    for i in range(lo, hi + 1):
        for j in range(max(lo, i - reach), min(hi, i + reach) + 1):
            entries[(i, j)] = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3))
    return InteractionWindow(lo=lo, hi=hi, entries=entries)


def _write_window(win: InteractionWindow, path: Path) -> None:
    entries = [{"i": i, "j": j, "re": w.real, "im": w.imag} for (i, j), w in win.entries.items()]
    path.write_text(json.dumps({"lo": win.lo, "hi": win.hi, "entries": entries}), encoding="utf-8")


def reference_amplitudes(win: InteractionWindow, phi: float) -> tuple[complex, complex]:
    """R, T from a LAPACK solve of the lattice rows on [lo, hi], written apart from the package.

    Unknowns are R, psi[lo+1..hi-1], T; psi is exp(i m phi) + R exp(-i m phi)
    at m <= lo and T exp(i m phi) at m >= hi.  Needs hi > lo.
    """
    lo, hi = win.lo, win.hi
    n = hi - lo + 1
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)

    def wave(m: int) -> complex:
        return cmath.exp(1j * m * phi)

    for r, m in enumerate(range(lo, hi + 1)):
        terms = [(m - 1, -1.0), (m, 2.0 * math.cos(phi)), (m + 1, -1.0)]
        terms += [(j, w) for (i, j), w in win.entries.items() if i == m]
        for j, c in terms:
            if j <= lo:
                a[r, 0] += c * wave(-j)
                b[r] -= c * wave(j)
            elif j >= hi:
                a[r, n - 1] += c * wave(j)
            else:
                a[r, j - lo] += c
    u = np.linalg.solve(a, b)
    return complex(u[0]), complex(u[-1])


_SOLVE_TEXT = re.compile(r"^(R|T|residual)\s+= (\S+)(?: ([+-]\S+)i)?$", re.M)


def _parse_solve(result: Output, fmt: str) -> tuple[complex, complex, float]:
    if fmt == "json":
        data = json.loads(result.stdout)
        return complex(data["reR"], data["imR"]), complex(data["reT"], data["imT"]), data["residual"]
    found = {m.group(1): m.groups()[1:] for m in _SOLVE_TEXT.finditer(result.stdout)}
    big_r, big_t = (complex(float(found[key][0]), float(found[key][1])) for key in "RT")
    return big_r, big_t, float(found["residual"][0])


# Points per solve-point iteration: 250 for each family below.
SOLVE_FAMILIES = ("M1", "M2", "M3", "M8", "M32", "ultralocal", "custom-tri", "custom-band")


def solve_point(seed: int, workdir: Path, tiny: bool) -> Workload:
    """Sequential single-point solves over every model family, solver and format."""
    rng = np.random.default_rng(seed)
    per_family = 2 if tiny else 250
    # Fixed widths and reaches, seeded entries: every seed does about the same work.
    windows = {
        "custom-tri": [_random_window(rng, width, 1) for width in (2, 3, 4, 6, 8, 10, 11, 12)],
        "custom-band": [_random_window(rng, width, 2 + k % 2) for k, width in enumerate((3, 4, 5, 6, 8, 10, 11, 12))],
    }
    paths = {}
    for family, wins in windows.items():
        for k, win in enumerate(wins):
            paths[family, k] = workdir / f"{family}-{k}.json"
            _write_window(win, paths[family, k])

    specs = []
    for family in SOLVE_FAMILIES:
        for k in range(per_family):
            transfer_ok = family != "custom-band"
            spec = {
                "family": family,
                "phi": float(rng.uniform(0.05, math.pi - 0.05)),
                "solver": "transfer" if transfer_ok and k % 2 else "matching",
                "format": "json" if (k // 2 if transfer_ok else k) % 2 else "text",
            }
            if family.startswith("M"):
                spec["model"] = ModelFamily.pt_delta_pair(int(family[1:]), float(rng.uniform(-0.9, 0.9)))
                flags = ["--model", "pt-pair", "--M", family[1:], f"--x={spec['model'].x!r}"]
            elif family == "ultralocal":
                spec["model"] = ModelFamily.ultralocal(float(rng.uniform(-0.9, 0.9)))
                flags = ["--model", "ultralocal", f"--a={spec['model'].a!r}"]
            else:
                index = k % len(windows[family])
                spec["model"] = ModelFamily.custom_window(windows[family][index])
                flags = ["--model", "custom", "--window", str(paths[family, index])]
            spec["argv"] = ["solve", *flags, f"--phi={spec['phi']!r}", "--solver", spec["solver"],
                            "--format", spec["format"]]
            specs.append(spec)
    specs = [specs[k] for k in rng.permutation(len(specs))]

    def reference(spec) -> tuple[complex, complex]:
        model, phi = spec["model"], PhiAngle(spec["phi"])
        if spec["family"] in ("M1", "M2", "M3", "ultralocal"):
            amps = closed_form_amplitudes(model, phi)
        elif spec["family"] == "custom-band":
            return reference_amplitudes(model.window(), spec["phi"])
        else:
            other = solver.solve_matching if spec["solver"] == "transfer" else solver.solve_transfer_matrix
            amps = other(model.window(), phi).amplitudes
        return amps.R, amps.T

    def check(outputs: list[Output]) -> dict[int, str]:
        failures = {}
        for k, (spec, result) in enumerate(zip(specs, outputs)):
            if result.rc != 0 or result.stderr:
                failures[k] = f"{spec['argv']}: exit code {result.rc}, stderr {result.stderr.strip()!r}"
                continue
            try:
                big_r, big_t, res = _parse_solve(result, spec["format"])
            except (KeyError, ValueError, TypeError) as exc:
                failures[k] = f"{spec['argv']}: unreadable output ({exc!r})"
                continue
            try:
                expected = reference(spec)
            except (SolverError, ValueError, np.linalg.LinAlgError) as exc:
                failures[k] = f"{spec['argv']}: its reference route failed ({exc!r})"
                continue
            win = spec["model"].window()
            delta = _delta((big_r, big_t), expected)
            defect = abs(big_r) ** 2 + abs(big_t) ** 2 - 1.0
            if not delta <= AGREE_TOL:
                failures[k] = f"{spec['argv']}: differs from its reference by {delta:.3e}"
            elif not res <= RESIDUAL_RTOL * (1.0 + win.max_abs_entry()):
                failures[k] = f"{spec['argv']}: residual {res:.3e} above the gate"
            elif spec["family"].startswith("M") and not abs(defect) <= DEFECT_TOL:
                failures[k] = f"{spec['argv']}: defect {defect:.3e}"
        return failures

    calls = [spec["argv"] for spec in specs]
    return Workload(calls, [None] * len(calls), len(calls), calls[0], check)


WORKLOADS = {
    "sweep-ref": sweep_ref,
    "sweep-wide": sweep_wide,
    "verify-all": verify_all,
    "solve-point": solve_point,
}
