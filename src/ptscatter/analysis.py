"""
Batch computations over parameter grids.

``run_sweep`` evaluates a list of model points over an angle grid with one
or more solver routes and collects the results into a flat, deterministically
ordered table (models in the given order, then angle, then solver tag).
Singular grid points become error records instead of aborting the sweep.

``cross_validate`` closes the oracle triangle for the delta-pair family:
closed forms against both solvers where a closed form exists (separations
1..3), solver against solver beyond that, plus the probability-sum defect;
it also holds both solvers to the ultralocal closed form.
``probability_defect`` is its defect check alone.
``transfer_matching_agreement`` does the same for randomly generated
tridiagonal windows, where no closed form is available at all.

Sweeps and oracles read the solvers' chunk arrays, not per-point reports,
through ``_answers``, which keeps R, T and the residual of each chunk and
drops its wavefunction.  Every modulus is ``np.hypot`` of the parts, which
is Python's ``abs(complex)`` to the bit where ``np.abs`` is not, and the
defect is squared and summed in Python floats, as
``ScatteringAmplitudes.defect`` is (numpy's ``x * x`` is not always
Python's ``x ** 2``), so every figure is its per-point value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._version import __version__
from .closedforms import closed_form_amplitudes
from .core import PT_PAIR, InteractionWindow, ModelFamily, PhiAngle, ScatteringAmplitudes, energy_from_phi
from .errors import SingularSystem, SolverError
from .solver import PIVOT_RTOL, RESIDUAL_RTOL, Point, _Chunk, _matching_answers, _transfer_answers

SOLVER_MATCHING = "matching"
SOLVER_TRANSFER = "transfer"
SOLVER_CLOSED_FORM = "closed-form"
ALL_SOLVERS = (SOLVER_CLOSED_FORM, SOLVER_MATCHING, SOLVER_TRANSFER)
# Points per stack of both oracles: cross_validate streams groups of about
# this many points into the solvers, and transfer_matching_agreement solves
# the points of one window width together once this many are drawn.  Big
# enough that the per-row numpy calls act on many points, small enough that
# the waiting windows and a chunk's arrays stay a few hundred KB.
_ORACLE_STACK = 256


def default_coupling_grid() -> tuple[float, ...]:
    """x in {-0.9, -0.8, ..., 0.9}: the regular grid excluding the singular |x| = 1 set."""
    return tuple(float(v) for v in np.linspace(-0.9, 0.9, 19))


def default_phi_grid(count: int = 50) -> tuple[PhiAngle, ...]:
    """Uniform angles strictly inside (0.05, pi - 0.05)."""
    lo, hi = 0.05, math.pi - 0.05
    return tuple(PhiAngle(lo + (hi - lo) * (k + 0.5) / count) for k in range(count))


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    ``models`` are evaluated in the given order; ``phis`` and ``solvers`` are
    de-duplicated and sorted.
    """

    models: Sequence[ModelFamily]
    phis: tuple[PhiAngle, ...]
    solvers: tuple[str, ...] = (SOLVER_MATCHING,)

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("empty model list")
        if not self.phis:
            raise ValueError("empty phi grid")
        for tag in self.solvers:
            if tag not in ALL_SOLVERS:
                raise ValueError(f"unknown solver tag {tag!r}")


@dataclass(frozen=True)
class SweepRow:
    model: str
    m_sep: int
    coupling: float
    phi: float
    energy: float
    amplitudes: ScatteringAmplitudes
    solver: str
    residual: float

    @property
    def prob_sum(self) -> float:
        return self.amplitudes.prob_sum

    @property
    def defect(self) -> float:
        return self.amplitudes.defect


@dataclass(frozen=True)
class SweepError:
    model: str
    m_sep: int
    coupling: float
    phi: float
    solver: str
    reason: str


@dataclass(frozen=True)
class SweepTable:
    meta: dict[str, str]
    rows: tuple[SweepRow, ...]
    errors: tuple[SweepError, ...]


def _table_meta() -> dict[str, str]:
    return {
        "tool": "ptscatter",
        "version": __version__,
        "convention": "zero-diagonal kinetic term, h=1, E=-2*cos(phi); left incidence anchored at window edges",
        "success_residual_rtol": f"{RESIDUAL_RTOL:g}",
        "pivot_rtol": f"{PIVOT_RTOL:g}",
    }


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the grid and return one row per (model, phi, solver), in that order."""
    solvers = sorted(set(spec.solvers))
    phis = sorted(set(spec.phis), key=lambda p: p.phi)

    rows: list[SweepRow] = []
    errors: list[SweepError] = []
    routes = {SOLVER_MATCHING: _matching_answers, SOLVER_TRANSFER: _transfer_answers}
    numeric = [tag for tag in solvers if tag in routes]
    for model in spec.models:
        coupling = 0.0 if math.isnan(model.coupling) else model.coupling
        # Closed forms need no window, so a closed-form-only sweep builds none.
        win = model.window() if numeric else None
        solved = {}
        for tag in numeric:
            *arrays, failures = _answers(routes[tag], [(win, phi) for phi in phis])
            solved[tag] = [array.tolist() for array in arrays], failures
        for k, phi in enumerate(phis):
            for tag in solvers:
                if tag == SOLVER_CLOSED_FORM:
                    try:
                        amplitudes, residual, exc = closed_form_amplitudes(model, phi), 0.0, None
                    except (SolverError, ValueError) as error:
                        exc = error
                else:
                    (big_r, big_t, residuals), failures = solved[tag]
                    amplitudes, residual = ScatteringAmplitudes(R=big_r[k], T=big_t[k]), residuals[k]
                    exc = failures.get(k)
                where = dict(model=model.kind, m_sep=model.m_sep, coupling=coupling, phi=phi.phi, solver=tag)
                if exc is not None:
                    errors.append(SweepError(**where, reason=f"{type(exc).__name__}: {exc}"))
                else:
                    rows.append(
                        SweepRow(**where, energy=energy_from_phi(phi), amplitudes=amplitudes, residual=residual)
                    )
    return SweepTable(meta=_table_meta(), rows=tuple(rows), errors=tuple(errors))


@dataclass(frozen=True)
class ModelDefectStats:
    rows: int
    max_abs_defect: float
    mean_abs_defect: float
    violations: int
    defect_sign_opposes_coupling: bool | None


@dataclass(frozen=True)
class UnitarityReport:
    tol: float
    per_model: dict[str, ModelDefectStats]

    @property
    def total_violations(self) -> int:
        return sum(stats.violations for stats in self.per_model.values())


def unitarity_report(table: SweepTable, tol: float = 1e-9) -> UnitarityReport:
    """Per-model defect statistics and the defect-vs-coupling sign pattern."""
    if not table.rows:
        raise ValueError("cannot summarize an empty table")
    per_model: dict[str, ModelDefectStats] = {}
    for tag in sorted({row.model for row in table.rows}):
        rows = [row for row in table.rows if row.model == tag]
        defects = np.array([row.defect for row in rows])
        signed = [row for row in rows if abs(row.defect) > tol and row.coupling != 0.0]
        if signed:
            opposes: bool | None = all(
                (row.defect < 0.0) == (row.coupling > 0.0) for row in signed
            )
        else:
            opposes = None
        per_model[tag] = ModelDefectStats(
            rows=len(rows),
            max_abs_defect=float(np.max(np.abs(defects))),
            mean_abs_defect=float(np.mean(np.abs(defects))),
            violations=int(np.sum(np.abs(defects) > tol)),
            defect_sign_opposes_coupling=opposes,
        )
    return UnitarityReport(tol=tol, per_model=per_model)


@dataclass(frozen=True)
class CrossValidation:
    passed: bool
    tol: float
    m_max: int
    points_checked: int
    worst_closed_vs_matching: float
    worst_closed_vs_transfer: float
    worst_matching_vs_transfer: float
    worst_abs_defect: float
    singular_points: tuple[tuple[int, float], ...]

    @property
    def worst_delta(self) -> float:
        return max(
            self.worst_closed_vs_matching,
            self.worst_closed_vs_transfer,
            self.worst_matching_vs_transfer,
        )


def _check_tol(tol: float) -> None:
    """A NaN tolerance fails every check and an infinite one none, so both are rejected."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _worst(worst: float, delta: np.ndarray) -> float:
    """``worst`` or the largest modulus in ``delta``, whichever is larger."""
    return max(worst, float(np.hypot(delta.real, delta.imag).max(initial=0.0)))


def _worst_defect(worst: float, amplitudes: np.ndarray) -> float:
    """``worst`` or the largest |(|R|^2 + |T|^2) - 1| of the (R, T) row pairs, whichever is larger."""
    moduli = np.hypot(amplitudes.real, amplitudes.imag)
    pairs = zip(moduli[0::2].ravel().tolist(), moduli[1::2].ravel().tolist())
    return max([worst, *(abs(r**2 + t**2 - 1.0) for r, t in pairs)])


def _answers(
    route: Callable[[Iterable[Point]], Iterator[_Chunk]], points: Sequence[Point]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, SolverError]]:
    """R, T and the max row residual of one route per point of ``points``, and {point: error} of the points that failed.

    A failed point's values mean nothing.  Each chunk's ``psi`` is dropped
    when the next chunk is read, so only the last chunk's is held.
    """
    columns, failures, start = [], {}, 0
    for chunk in route(points):
        columns.append((chunk.big_r, chunk.big_t, chunk.residual))
        failures.update((start + p, error) for p, error in chunk.failures.items())
        start += len(chunk.residual)
    return (*(np.concatenate(parts) for parts in zip(*columns)), failures)


def _solved(points: Sequence[Point]) -> tuple[np.ndarray, dict[int, SolverError]]:
    """R and T of matching, then of transfer (rows), per point (columns), and {column: error} of the points that failed.

    The matching error is kept where both fail; a failed point's amplitudes mean nothing.
    """
    m_r, m_t, _, m_failures = _answers(_matching_answers, points)
    t_r, t_t, _, t_failures = _answers(_transfer_answers, points)
    return np.array([m_r, m_t, t_r, t_t]), t_failures | m_failures


def _delta_pair_grid(
    m_max: int, x_values: Sequence[float] | None, phi_values: Sequence[PhiAngle] | None
) -> tuple[list[ModelFamily], tuple[float, ...], tuple[PhiAngle, ...]]:
    """The delta pairs of separations 1..m_max over the couplings, the couplings and the angles."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max!r}")
    ModelFamily.pt_delta_pair(m_max, 0.0)  # a separation past the width cap raises before the grid is made
    xs = tuple(x_values) if x_values is not None else default_coupling_grid()
    phis = tuple(phi_values) if phi_values is not None else default_phi_grid()
    for name, values in (("x_values", xs), ("phi_values", phis)):
        if not values:
            raise ValueError(f"empty {name}")  # a check over no points would pass vacuously
    return [ModelFamily.pt_delta_pair(m_sep, x) for m_sep in range(1, m_max + 1) for x in xs], xs, phis


def _solved_groups(
    models: Sequence[ModelFamily], phis: Sequence[PhiAngle], singular: list[tuple[int, float]]
) -> Iterator[tuple[Sequence[ModelFamily], np.ndarray, np.ndarray]]:
    """Per group of models: the models, the mask of their solved points and their amplitudes.

    The mask has shape (models, phis); the amplitudes, ``_solved``'s rows,
    (4, models, phis).  Consecutive groups of _ORACLE_STACK // len(phis)
    models (at least one) are each one stream into both routes.  A model
    stops at its first failure: a SingularSystem appends its (separation,
    coupling) to ``singular`` once, and any other error is raised, model by
    model.
    """
    size = max(1, _ORACLE_STACK // len(phis))
    for start in range(0, len(models), size):
        group = models[start : start + size]
        stack = [(win, phi) for win in [model.window() for model in group] for phi in phis]
        amplitudes, failures = _solved(stack)
        failed = np.zeros((len(group), len(phis)), dtype=bool)
        failed.flat[list(failures)] = True
        for g in failed.any(axis=1).nonzero()[0].tolist():
            error = failures[g * len(phis) + int(failed[g].argmax())]
            if not isinstance(error, SingularSystem):
                raise error
            if (group[g].m_sep, group[g].coupling) not in singular:
                singular.append((group[g].m_sep, group[g].coupling))
        yield group, np.logical_and.accumulate(~failed, axis=1), amplitudes.reshape(4, len(group), len(phis))


def cross_validate(
    m_max: int,
    tol: float = 1e-9,
    x_values: Sequence[float] | None = None,
    phi_values: Sequence[PhiAngle] | None = None,
) -> CrossValidation:
    """Close the oracle triangle for the delta-pair family up to separation m_max.

    Separations 1..3 compare the closed forms against both numeric solvers;
    larger separations compare the two solvers against each other.  The
    probability-sum defect is checked everywhere.  The ultralocal block,
    over the same couplings and angles, adds its closed form against both
    solvers; it is not unitary, so it stays out of the defect and of
    ``points_checked``.  Grid points where the solvers report a singular
    system (|x| = 1 and the like) are recorded as (separation, coupling),
    separation 0 for the ultralocal block, and excluded from pass/fail.
    """
    models, xs, phis = _delta_pair_grid(m_max, x_values, phi_values)
    _check_tol(tol)
    models += [ModelFamily.ultralocal(a) for a in xs]

    worst_cm = worst_ct = worst_mt = worst_defect = 0.0
    singular: list[tuple[int, float]] = []
    points = 0
    for group, solved, amplitudes in _solved_groups(models, phis, singular):
        pair = solved & np.array([model.kind == PT_PAIR for model in group])[:, None]
        points += int(np.count_nonzero(pair))
        worst_mt = _worst(worst_mt, amplitudes[:2, pair] - amplitudes[2:, pair])
        worst_defect = _worst_defect(worst_defect, amplitudes[:, pair])
        closed = solved & np.array([model.m_sep <= 3 for model in group])[:, None]
        cf = [closed_form_amplitudes(group[g], phis[k]) for g, k in np.argwhere(closed).tolist()]
        # The closed form's R and T minus those of matching, then of transfer.
        delta = np.array([[c.R for c in cf], [c.T for c in cf]]) - amplitudes[:, closed].reshape(2, 2, -1)
        worst_cm, worst_ct = _worst(worst_cm, delta[0]), _worst(worst_ct, delta[1])

    passed = max(worst_cm, worst_ct, worst_mt, worst_defect) <= tol
    return CrossValidation(
        passed=passed,
        tol=tol,
        m_max=m_max,
        points_checked=points,
        worst_closed_vs_matching=worst_cm,
        worst_closed_vs_transfer=worst_ct,
        worst_matching_vs_transfer=worst_mt,
        worst_abs_defect=worst_defect,
        singular_points=tuple(singular),
    )


def probability_defect(m_max: int) -> float:
    """Worst |(|R|^2 + |T|^2) - 1| of both solvers over the delta pairs of separations 1..m_max.

    The ``worst_abs_defect`` of ``cross_validate(m_max)`` on the default
    grids, without its closed forms and ultralocal points.  Singular grid
    points are skipped as there.
    """
    models, _, phis = _delta_pair_grid(m_max, None, None)
    worst = 0.0
    for _, solved, amplitudes in _solved_groups(models, phis, []):
        worst = _worst_defect(worst, amplitudes[:, solved])
    return worst


@dataclass(frozen=True)
class OracleAgreement:
    passed: bool
    tol: float
    windows: int
    angles_per_window: int
    worst_delta_r: float
    worst_delta_t: float


def random_tridiagonal_window(rng: np.random.Generator, width: int, lo: int) -> InteractionWindow:
    """Random real tridiagonal window with entries uniform in [-0.9, 0.9]."""
    hi = lo + width - 1
    sites = [(i, j) for i in range(lo, hi + 1) for j in (i - 1, i, i + 1) if lo <= j <= hi]
    # One draw of len(sites) values: the values and stream position of as many scalar draws.
    return InteractionWindow(lo=lo, hi=hi, entries=dict(zip(sites, rng.uniform(-0.9, 0.9, len(sites)).tolist())))


def transfer_matching_agreement(
    n_windows: int = 500,
    angles_per_window: int = 20,
    tol: float = 1e-9,
    seed: int = 20260809,
) -> OracleAgreement:
    """Compare the two solvers on random tridiagonal windows.

    Window widths are uniform in 2..15 sites with a random placement on the
    chain; the entries stay in [-0.9, 0.9], so all total couplings are
    bounded away from zero.
    """
    _check_tol(tol)
    for name, count in (("n_windows", n_windows), ("angles_per_window", angles_per_window)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    worst_r = worst_t = 0.0
    first_error: tuple[int, Exception] | None = None

    def solve(stack: list[tuple[int, tuple[InteractionWindow, PhiAngle]]]) -> None:
        nonlocal worst_r, worst_t, first_error
        indices, points = zip(*stack)
        amplitudes, failures = _solved(points)
        if failures:
            p = min(failures)  # a stack holds its points in draw order
            if first_error is None or indices[p] < first_error[0]:
                first_error = indices[p], failures[p]
        solved = np.ones(len(points), dtype=bool)
        solved[list(failures)] = False
        delta = amplitudes[:2, solved] - amplitudes[2:, solved]
        worst_r, worst_t = _worst(worst_r, delta[0]), _worst(worst_t, delta[1])

    # Windows and angles are drawn in order; the points of one width are
    # solved as one stack once _ORACLE_STACK of them are waiting, and the
    # rest at the end.  The worst deltas do not depend on the order the
    # points are solved in, and the error raised is the one the first
    # failing point in draw order gives.
    pending: dict[int, list[tuple[int, tuple[InteractionWindow, PhiAngle]]]] = {}  # width -> (draw index, point)
    for w in range(n_windows):
        width = int(rng.integers(2, 16))
        lo = int(rng.integers(-10, 11 - width))
        win = random_tridiagonal_window(rng, width, lo)
        stack = pending.setdefault(width, [])
        angles = rng.uniform(0.05, math.pi - 0.05, angles_per_window).tolist()
        stack.extend((w * angles_per_window + k, (win, PhiAngle(phi))) for k, phi in enumerate(angles))
        if len(stack) >= _ORACLE_STACK:
            solve(pending.pop(width))
    for stack in pending.values():
        solve(stack)
    if first_error is not None:
        raise first_error[1]
    return OracleAgreement(
        passed=max(worst_r, worst_t) <= tol,
        tol=tol,
        windows=n_windows,
        angles_per_window=angles_per_window,
        worst_delta_r=worst_r,
        worst_delta_t=worst_t,
    )
