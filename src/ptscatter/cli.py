"""
Command-line surface: single-point solves, grid sweeps, verification suites,
and PT-symmetry checks.

Exit codes are disjoint by failure class: 0 success, 1 bad input (flags,
files, grids, unwritable output), 2 singular model point (severed hopping,
singular matching system), 3 verification failure.

Custom interaction windows are read from a JSON document

    {"lo": -1, "hi": 1, "entries": [{"i": 0, "j": 1, "re": 0.5, "im": 0.0}]}

with ``im`` optional (default 0); unknown fields, duplicate (i, j) pairs and
non-finite numbers are rejected.  Sweep tables are written as CSV with the
fixed header

    model,M,coupling,phi,E,reR,imR,reT,imT,prob_sum,defect,solver,residual

(17-significant-digit floats, LF line endings, byte-stable for fixed flags)
or as JSON carrying the same rows plus table metadata and per-point errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from ._version import __version__
from .analysis import (
    ALL_SOLVERS,
    SOLVER_CLOSED_FORM,
    SOLVER_MATCHING,
    SOLVER_TRANSFER,
    SweepRow,
    SweepSpec,
    SweepTable,
    cross_validate,
    probability_defect,
    run_sweep,
    transfer_matching_agreement,
)
from .core import (
    CUSTOM,
    PT_PAIR,
    ULTRALOCAL,
    InteractionWindow,
    ModelFamily,
    PhiAngle,
    energy_from_phi,
    first_pt_violation,
)
from .errors import NotTridiagonal, SingularSystem
from .solver import solve_matching, solve_transfer_matrix

# Round-trip-safe, locale-independent float text (17 significant digits).
_FLOAT = "%.17g"

# Sweep row schema: (field name, CSV conversion) in column order.  The CSV
# header and the keys of JSON rows are the names; _row_values gives the values.
ROW_SCHEMA = (
    ("model", "%s"),
    ("M", "%d"),
    ("coupling", _FLOAT),
    ("phi", _FLOAT),
    ("E", _FLOAT),
    ("reR", _FLOAT),
    ("imR", _FLOAT),
    ("reT", _FLOAT),
    ("imT", _FLOAT),
    ("prob_sum", _FLOAT),
    ("defect", _FLOAT),
    ("solver", "%s"),
    ("residual", _FLOAT),
)
ROW_FIELDS = tuple(name for name, _ in ROW_SCHEMA)
CSV_HEADER = ",".join(ROW_FIELDS)
_CSV_ROW = ",".join(conversion for _, conversion in ROW_SCHEMA)

# Grid axes parsed from lo:hi:step, and the models x angles grid of a sweep,
# hold at most this many points.
MAX_RANGE_POINTS = 1_000_000

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SINGULAR = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; remap to the input-error code."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return _FLOAT % value


def parse_range(text: str) -> list[float]:
    """Parse lo:hi:step into [lo, lo+step, ...], keeping hi within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {text!r}")
    if not step > 0.0:
        raise ValueError(f"range step must be positive, got {step!r}")
    over_limit = f"range {text!r} exceeds the limit of {MAX_RANGE_POINTS} grid points"
    if (hi - lo) / step + 1.0 > MAX_RANGE_POINTS:
        raise ValueError(over_limit)
    values: list[float] = []
    k = 0
    while (value := lo + k * step) <= hi + step / 2.0:
        if k == MAX_RANGE_POINTS:  # a step below the rounding of lo never reaches hi + step/2
            raise ValueError(over_limit)
        values.append(value)
        k += 1
    if not values:
        raise ValueError(f"range {text!r} produces an empty grid")
    return values


def parse_int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


def _is_json_int(value: object) -> bool:
    """JSON integer; true and false load as bool, which is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_window_file(path: str) -> InteractionWindow:
    """Read a custom interaction window from its JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be an object")
    unknown = set(data) - {"lo", "hi", "entries"}
    if unknown:
        raise ValueError(f"{path}: unknown fields {sorted(unknown)}")
    for key in ("lo", "hi", "entries"):
        if key not in data:
            raise ValueError(f"{path}: missing field {key!r}")
    lo, hi = data["lo"], data["hi"]
    if not (_is_json_int(lo) and _is_json_int(hi)):
        raise ValueError(f"{path}: lo and hi must be integers")
    if not isinstance(data["entries"], list):
        raise ValueError(f"{path}: entries must be a list")

    entries: dict[tuple[int, int], complex] = {}
    for k, item in enumerate(data["entries"]):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: entry #{k} must be an object")
        unknown = set(item) - {"i", "j", "re", "im"}
        if unknown:
            raise ValueError(f"{path}: entry #{k} has unknown fields {sorted(unknown)}")
        try:
            i, j = item["i"], item["j"]
            re = item["re"]
            im = item.get("im", 0.0)
        except KeyError as exc:
            raise ValueError(f"{path}: entry #{k} is missing field {exc}") from None
        if not (_is_json_int(i) and _is_json_int(j)):
            raise ValueError(f"{path}: entry #{k} indices must be integers")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise ValueError(f"{path}: entry #{k} re/im must be numbers")
        if not all(abs(v) <= sys.float_info.max for v in (re, im)):
            raise ValueError(f"{path}: entry #{k} re/im must be finite")
        if not (lo <= i <= hi and lo <= j <= hi):
            raise ValueError(f"{path}: entry #{k} index ({i}, {j}) outside [{lo}, {hi}]")
        if (i, j) in entries:
            raise ValueError(f"{path}: duplicate entry for ({i}, {j})")
        entries[(i, j)] = complex(float(re), float(im))
    return InteractionWindow(lo=lo, hi=hi, entries=entries)


def _model_from_args(args: argparse.Namespace) -> ModelFamily:
    if args.model == PT_PAIR:
        if args.M is None or args.x is None:
            raise ValueError("pt-pair model needs --M and --x")
        return ModelFamily.pt_delta_pair(args.M, args.x)
    if args.model == ULTRALOCAL:
        if args.a is None:
            raise ValueError("ultralocal model needs --a")
        return ModelFamily.ultralocal(args.a)
    if args.window is None:
        raise ValueError("custom model needs --window <path>")
    return ModelFamily.custom_window(load_window_file(args.window))


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=(PT_PAIR, ULTRALOCAL, CUSTOM), required=True)
    parser.add_argument("--M", type=int, help="separation of the pt-pair model")
    parser.add_argument("--x", type=float, help="pt-pair coupling")
    parser.add_argument("--a", type=float, help="ultralocal coupling")
    parser.add_argument("--window", help="JSON window file for the custom model")


def cmd_solve(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    phi = PhiAngle(args.phi)
    solve = solve_matching if args.solver == SOLVER_MATCHING else solve_transfer_matrix
    report = solve(model.window(), phi)
    amps = report.amplitudes
    e_plain = energy_from_phi(phi)
    e_shift = energy_from_phi(phi, shifted=True)

    if args.format == "json":
        payload = {
            "model": model.kind,
            "M": model.m_sep,
            "coupling": None if math.isnan(model.coupling) else model.coupling,
            "phi": phi.phi,
            "solver": args.solver,
            "reR": amps.R.real,
            "imR": amps.R.imag,
            "reT": amps.T.real,
            "imT": amps.T.imag,
            "prob_reflected": amps.prob_reflected,
            "prob_transmitted": amps.prob_transmitted,
            "prob_sum": amps.prob_sum,
            "defect": amps.defect,
            "energy_zero_diagonal": e_plain,
            "energy_shifted_diagonal": e_shift,
            "residual": report.residual_max,
        }
        print(json.dumps(payload, indent=2, sort_keys=False))
        return EXIT_OK

    print(f"model        = {model.kind} (M={model.m_sep}, coupling={model.coupling})")
    print(f"phi          = {_fmt(phi.phi)}")
    print(f"E            = {_fmt(e_plain)} (zero-diagonal) / {_fmt(e_shift)} (shifted-diagonal)")
    print(f"R            = {_fmt(amps.R.real)} {amps.R.imag:+.17g}i")
    print(f"T            = {_fmt(amps.T.real)} {amps.T.imag:+.17g}i")
    print(f"|R|^2        = {_fmt(amps.prob_reflected)}")
    print(f"|T|^2        = {_fmt(amps.prob_transmitted)}")
    print(f"|R|^2+|T|^2  = {_fmt(amps.prob_sum)}")
    print(f"defect       = {_fmt(amps.defect)}")
    print(f"residual     = {_fmt(report.residual_max)}")
    print(f"solver       = {args.solver}")
    return EXIT_OK


def _row_values(row: SweepRow) -> tuple:
    """Values of one sweep row in ROW_SCHEMA order."""
    amps = row.amplitudes
    prob_sum = amps.prob_sum
    return (
        row.model,
        row.m_sep,
        row.coupling,
        row.phi,
        row.energy,
        amps.R.real,
        amps.R.imag,
        amps.T.real,
        amps.T.imag,
        prob_sum,
        prob_sum - 1.0,  # row.defect, without squaring both moduli again
        row.solver,
        row.residual,
    )


def format_table_csv(table: SweepTable) -> str:
    """Render the sweep table in the fixed CSV schema (LF endings, trailing LF)."""
    lines = [CSV_HEADER]
    lines.extend(_CSV_ROW % _row_values(row) for row in table.rows)
    return "\n".join(lines) + "\n"


def table_to_json_dict(table: SweepTable) -> dict:
    return {
        "meta": dict(table.meta),
        "rows": [dict(zip(ROW_FIELDS, _row_values(row))) for row in table.rows],
        "errors": [
            {
                "model": err.model,
                "M": err.m_sep,
                "coupling": err.coupling,
                "phi": err.phi,
                "solver": err.solver,
                "reason": err.reason,
            }
            for err in table.errors
        ],
    }


def _sweep_models(args: argparse.Namespace) -> list[ModelFamily]:
    """Sweep model points in table order: by separation, then coupling, each sorted and de-duplicated."""
    if args.model == PT_PAIR:
        if args.x_range is None:
            raise ValueError("pt-pair sweeps need --x-range")
        couplings = sorted(set(parse_range(args.x_range)))
        m_list = parse_int_list(args.M_list) if args.M_list else [1 if args.M is None else args.M]
        return [ModelFamily.pt_delta_pair(m, x) for m in sorted(set(m_list)) for x in couplings]
    if args.model == ULTRALOCAL:
        if args.a_range is None:
            raise ValueError("ultralocal sweeps need --a-range")
        return [ModelFamily.ultralocal(a) for a in sorted(set(parse_range(args.a_range)))]
    if args.window is None:
        raise ValueError("custom sweeps need --window <path>")
    return [ModelFamily.custom_window(load_window_file(args.window))]


def cmd_sweep(args: argparse.Namespace) -> int:
    models = _sweep_models(args)
    phis = tuple(PhiAngle(v) for v in parse_range(args.phi_range))
    if len(models) * len(phis) > MAX_RANGE_POINTS:
        raise ValueError(
            f"sweep grid of {len(models)} models x {len(phis)} angles exceeds the limit of {MAX_RANGE_POINTS} points"
        )
    table = run_sweep(
        SweepSpec(models=models, phis=phis, solvers=ALL_SOLVERS if args.solver == "all" else (args.solver,))
    )

    if args.format == "csv":
        text = format_table_csv(table)
    else:
        text = json.dumps(table_to_json_dict(table), indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    if table.errors:
        print(
            f"sweep: {len(table.errors)} grid point(s) errored and were excluded; use --format json for reasons",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol!r}")
    failed = False

    def report(name: str, worst: float, ok: bool) -> None:
        nonlocal failed
        failed = failed or not ok
        print(f"{name:<28} worst {worst:.3e}  tol {args.tol:.1e}  {'PASS' if ok else 'FAIL'}")

    if args.suite in ("closed-forms", "all"):
        # Closed forms exist for separations 1..3 only, so the pass through
        # M_max that checks the defect also yields the closed-form deltas.
        cv = cross_validate(min(3, args.M_max) if args.suite == "closed-forms" else args.M_max, tol=args.tol)
        worst = max(cv.worst_closed_vs_matching, cv.worst_closed_vs_transfer)
        report("closed-forms vs solvers", worst, worst <= args.tol)
    if args.suite in ("unitarity", "all"):
        defect = cv.worst_abs_defect if args.suite == "all" else probability_defect(args.M_max)
        report("probability-sum defect", defect, defect <= args.tol)
    if args.suite in ("oracles", "all"):
        agreement = transfer_matching_agreement(tol=args.tol)
        worst = max(agreement.worst_delta_r, agreement.worst_delta_t)
        report("matching vs transfer", worst, agreement.passed)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_check_pt(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    violation = first_pt_violation(model.window())
    if violation is None:
        print("true")
    else:
        (i, j), value, mirror = violation
        norm = lambda z: complex(z.real + 0.0, z.imag + 0.0)  # drop negative zeros
        print("false")
        print(f"violation at ({i}, {j}): W[{i}, {j}] = {norm(value)} but conj(W[{-i}, {-j}]) = {norm(mirror)}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by later ``main`` calls."""
    parser = _Parser(prog="ptscatter", description="Lattice scattering amplitudes for finite interaction windows")
    parser.add_argument("--version", action="version", version=f"ptscatter {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve a single (model, phi) point")
    _add_model_flags(p_solve)
    p_solve.add_argument("--phi", type=float, required=True, help="angle in radians, inside (0, pi)")
    p_solve.add_argument("--solver", choices=(SOLVER_MATCHING, SOLVER_TRANSFER), default=SOLVER_MATCHING)
    p_solve.add_argument("--format", choices=("text", "json"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep grids and write a table")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--x-range", dest="x_range", help="pt-pair coupling grid lo:hi:step")
    p_sweep.add_argument("--a-range", dest="a_range", help="ultralocal coupling grid lo:hi:step")
    p_sweep.add_argument("--phi-range", dest="phi_range", required=True, help="angle grid lo:hi:step")
    p_sweep.add_argument("--M-list", dest="M_list", help="comma-separated separations, e.g. 1,2,3")
    p_sweep.add_argument(
        "--solver", choices=(SOLVER_MATCHING, SOLVER_TRANSFER, SOLVER_CLOSED_FORM, "all"), default=SOLVER_MATCHING
    )
    p_sweep.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--suite", choices=("closed-forms", "unitarity", "oracles", "all"), default="all")
    p_verify.add_argument("--M-max", dest="M_max", type=int, default=8)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check-pt", help="check a window for PT symmetry")
    _add_model_flags(p_check)
    p_check.set_defaults(func=cmd_check_pt)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularSystem,) as exc:  # includes ZeroHopping
        print(f"ptscatter: singular point: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (ValueError, OSError, NotTridiagonal) as exc:
        print(f"ptscatter: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
