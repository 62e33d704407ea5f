"""
Two independent numerical solvers for the scattering amplitudes R, T.

``solve_matching`` solves the window's own Schroedinger rows lo .. hi for
the samples psi[lo..hi], in the self-energy form of Fisher & Lee (PRB 23,
6851, 1981) and Lent & Kirkner (J. Appl. Phys. 67, 6353, 1990): the leads
enter through the relations psi[lo-1] = e^{i phi} psi[lo] - 2i sin(phi)
e^{i phi lo} and psi[hi+1] = e^{i phi} psi[hi], which put e^{i phi} times
the hop on the corner cells (lo, lo) and (hi, hi) and the incident wave in
the rhs of row lo.  The system (E - H - Sigma) psi = b works for any finite
window and is banded by the window's reach; T = psi[hi] e^{-i phi hi} and
R = (psi[lo] - e^{i phi lo}) e^{i phi lo} are read off its edge samples.

``solve_transfer_matrix`` back-substitutes through the rows of a tridiagonal
total Hamiltonian: starting from a provisional transmitted wave psi[m] =
exp(i*m*phi) on the right, each row is solved for the site to its left, and
the two left-most free samples are matched against
alpha*exp(i*m*phi) + beta*exp(-i*m*phi), giving T = 1/alpha, R = beta/alpha.

Both routes read their rows from one ``RowStencil`` per window, built from
``hamiltonian_row`` and kept as a dense band (one column per offset
j - m), so their sign conventions cannot drift; agreement between them is
the primary correctness oracle for windows without a closed-form solution.
Each route has one batch entry, ``solve_matching_stack`` /
``solve_transfer_stack``, which streams any iterable of (window, angle)
points: every run of consecutive points whose stencils have one shape
(rows, 2*reach + 1) is solved in chunks of bounded memory, by the matching
assembly and band-limited elimination or by the transfer recursion (one
Python step per row, acting on all points), then the residual.  The
single-point functions are stacks of one.
Every report carries the wavefunction on [lo-2, hi+2] and the maximum row
residual over [lo-1, hi+1], checked against RESIDUAL_RTOL * (1 + max |W|)
before the solve is declared successful.  Both routes lose accuracy as
eps / sin(phi) towards the band edges, where the two plane waves merge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import InteractionWindow, PhiAngle, ScatteringAmplitudes
from .errors import NotTridiagonal, SingularSystem, SolverError, ZeroHopping

# Relative thresholds: double precision with windows of at most ~100 sites
# leaves 3-4 guard digits below the 1e-10 success residual.
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-10
HOPPING_RTOL = 1e-14
# The transfer recursion rescales psi by a power of two once a sample grows
# beyond this, so strong barriers cannot overflow it.
_RESCALE_ABOVE = 1e100
# A stack is solved in chunks whose working arrays stay near this many bytes.
_STACK_BYTES = 4 << 20

Point = tuple[InteractionWindow, PhiAngle]


@dataclass(frozen=True)
class SolveReport:
    """Amplitudes plus the evidence that they solve the lattice equation.

    ``psi`` holds the wavefunction samples on [lo-2, hi+2] of the solved window.
    """

    amplitudes: ScatteringAmplitudes
    psi: np.ndarray
    residual_max: float


# What a stack yields per point: the report, or the exception a single solve raises.
Outcome = SolveReport | SolverError


def hamiltonian_row(win: InteractionWindow, m: int, two_cos: float) -> dict[int, complex]:
    """Coefficients {j: c} of Schroedinger row m: sum_j c_j psi[j] = 0.

    Row m reads -psi[m-1] + 2*cos(phi)*psi[m] - psi[m+1] + sum_j W[m,j]*psi[j];
    both solvers build their equations from this single map.
    """
    row: dict[int, complex] = {m - 1: -1.0 + 0j, m: complex(two_cos), m + 1: -1.0 + 0j}
    for j, w in win.row(m):
        row[j] = row.get(j, 0j) + w
    return row


class RowStencil(NamedTuple):
    """Rows lo-1 .. hi+1 of one window's lattice equation, built once for all angles.

    Row t is site m = lo - 1 + t, and ``coeffs[t, reach + d]`` is the
    coefficient ``hamiltonian_row(win, m, 0.0)`` gives site m + d, zero
    where the row has no term.  ``reach`` is the largest |j - m| of any
    term, at least 1; column ``reach`` (site m) gets 2*cos(phi) added at
    each angle.  ``tol`` is the residual gate RESIDUAL_RTOL * (1 + max |W|).
    Windows whose ``coeffs`` have one shape stack into one batch whatever
    their ``lo`` and whichever band cells they fill.
    """

    lo: int
    hi: int
    reach: int
    coeffs: np.ndarray
    tol: float


def row_stencil(win: InteractionWindow) -> RowStencil:
    """The window's stencil, built on first use and kept with the (immutable) window."""
    stencil = win._memo.get("stencil")
    if stencil is None:
        stencil = win._memo["stencil"] = _build_stencil(win)
    return stencil


def _build_stencil(win: InteractionWindow) -> RowStencil:
    sites = range(win.lo - 1, win.hi + 2)
    rows = [hamiltonian_row(win, m, 0.0) for m in sites]
    reach = max(abs(j - m) for m, row in zip(sites, rows) for j in row)
    width = 2 * reach + 1
    # Flat index of each term in the (rows, width) band: row t, column reach + j - m.
    cells = [t * width + reach + j - m for t, (m, row) in enumerate(zip(sites, rows)) for j in row]
    coeffs = np.zeros((len(rows), width), dtype=complex)
    coeffs.flat[cells] = [c for row in rows for c in row.values()]
    return RowStencil(win.lo, win.hi, reach, coeffs, RESIDUAL_RTOL * (1.0 + win.max_abs_entry()))


def _severed_bond(win: InteractionWindow) -> tuple[int, int] | None:
    """Adjacent (row, col) pair whose total coupling -1 + W vanishes, if any.

    Only meaningful for tridiagonal windows: a longer-range entry can bridge
    a broken nearest-neighbour bond, so the scan is skipped in that case.
    """
    if not win.is_tridiagonal():
        return None
    # Bonds from lo up, (i+1, i) before (i, i+1); only a window entry can cancel a hop.
    for _, (r, c) in sorted(((min(r, c), r < c), (r, c)) for r, c in win.entries if r != c):
        if _bond_vanishes(win.entries[(r, c)]):
            return r, c
    return None


def _bond_vanishes(w: complex) -> bool:
    """Whether the total coupling -1 + w cancels to rounding of its two terms."""
    return abs(-1.0 + w) <= HOPPING_RTOL * (1.0 + abs(w))


def _eliminate(band: np.ndarray, b: np.ndarray, lower: int, upper: int) -> tuple[np.ndarray, dict[int, SingularSystem]]:
    """Solve the systems A x = b held in band storage, all at once.

    ``band`` has shape (count, n, 2*lower + upper + 1): row r of system p
    stores A[r, c] for c = r-lower .. r+lower+upper at slot c - r + lower,
    the last ``lower`` slots being room for the fill that row exchanges
    bring in.  Every entry outside -lower <= c - r <= upper must be zero.
    Column k searches its pivot in rows k .. k+lower only and updates rows
    k+1 .. k+lower, columns k+1 .. k+lower+upper; the full elimination only
    adds zeros elsewhere.  Back-substitution takes each inner product over
    the band.  ``band`` and ``b`` are overwritten.

    Returns the solutions, shape (count, n), and {p: SingularSystem} for the
    systems that failed, with the message of the first check that fails.  A
    failed system is carried to the end with its warnings silenced; its
    solution row means nothing.
    """
    count, n, _ = band.shape
    # a[p, r, c] is entry (r, c) of system p wherever row r stores column c.
    step = band.strides[2]
    a = np.ndarray((count, n, n), complex, band, lower * step, (band.strides[0], band.strides[1] - step, step))
    scale = np.abs(band).max(axis=2)
    zero_row = scale.min(axis=1) == 0.0

    every = np.arange(count)
    # A system that fails a check still runs to the end, so its 0/0 must not
    # warn; its solution is dropped.
    with np.errstate(all="ignore"):
        for k in range(n):
            row_end = min(k + lower + 1, n)
            col_end = min(k + lower + upper + 1, n)
            pivot = (np.abs(a[:, k:row_end, k]) / scale[:, k:row_end]).argmax(axis=1)
            if np.count_nonzero(pivot):
                for block in (a[:, k:row_end, k:col_end], b[:, k:row_end], scale[:, k:row_end]):
                    chosen = block[every, pivot]
                    block[every, pivot] = block[:, 0]
                    block[:, 0] = chosen
            if k + 1 < row_end:
                mult = a[:, k + 1 : row_end, k] / a[:, k : k + 1, k]
                a[:, k + 1 : row_end, k + 1 : col_end] -= mult[:, :, None] * a[:, k : k + 1, k + 1 : col_end]
                b[:, k + 1 : row_end] -= mult * b[:, k : k + 1]

        x = np.zeros((count, n), dtype=complex)
        for k in range(n - 1, -1, -1):
            col_end = min(k + lower + upper + 1, n)
            dot = (a[:, k, k + 1 : col_end] * x[:, k + 1 : col_end]).sum(axis=1)
            x[:, k] = (b[:, k] - dot) / a[:, k, k]

        # Row k is final once column k is eliminated, so the diagonal holds
        # every chosen pivot and scale its row scale.
        small = np.abs(band[:, :, lower]) / scale < PIVOT_RTOL
    failures: dict[int, SingularSystem] = {}
    for p in (zero_row | small.any(axis=1)).nonzero()[0].tolist():
        if zero_row[p]:
            failures[p] = SingularSystem("matching matrix has an identically zero row")
        else:
            k = int(small[p].argmax())
            failures[p] = SingularSystem(
                f"pivot magnitude {abs(a[p, k, k]):.3e} below {PIVOT_RTOL:g} of row scale in column {k}"
            )
    return x, failures


def _coefficients(stencils: Sequence[RowStencil], phis: Sequence[float]) -> np.ndarray:
    """Row coefficients of every point, shape (P, rows, 2*reach + 1), 2*cos(phi) added at column reach."""
    coeffs = np.array([s.coeffs for s in stencils])
    coeffs.real[:, :, stencils[0].reach] += np.array([2.0 * math.cos(phi) for phi in phis])[:, None]
    return coeffs


def _waves(stencils: Sequence[RowStencil], phis: Sequence[float], sites: Sequence[tuple[int, int]]) -> np.ndarray:
    """plane_wave(sign * (lo + d), phi) for each point (rows) and each (sign, d) in ``sites`` (columns).

    One ``np.exp`` of the complex array 0 + i*(m*phi).  The site m is exact
    in int64 (object for a window beyond that range), so m*phi rounds as
    float(m)*phi does.
    """
    lows = [s.lo for s in stencils]
    exact = np.int64 if max(map(abs, lows)) < 2**62 else object
    sign, d = np.array(sites).T
    m = sign * (np.array(lows, dtype=exact)[:, None] + d)
    arg = np.zeros(m.shape, dtype=complex)
    arg.imag = m.astype(float) * np.array(phis)[:, None]
    return np.exp(arg)


def _residuals(coeffs: np.ndarray, psi: np.ndarray) -> list[float]:
    """Max row residual over rows lo-1 .. hi+1 of each point's psi.

    ``psi`` has shape (P, rows + 2), samples on [lo-2, hi+2].  A NaN row
    makes the result NaN, so it fails every tolerance check; a row whose
    modulus lies beyond the float range gives inf.
    """
    count, rows, width = coeffs.shape
    reach = width // 2
    total = np.zeros((count, rows), dtype=complex)
    # Offsets m-1, m, m+1, then each longer one in increasing order.  Row t
    # (site m) reads site m + d at psi index t + 1 + d; rows t0 .. t1 - 1 have it.
    for d in (-1, 0, 1, *[d for d in range(-reach, reach + 1) if abs(d) > 1]):
        t0, t1 = max(0, -1 - d), min(rows, rows + 1 - d)
        total[:, t0:t1] += coeffs[:, t0:t1, reach + d] * psi[:, t0 + 1 + d : t1 + 1 + d]
    return np.abs(total).max(axis=1).tolist()


def _reports(
    stencils: Sequence[RowStencil],
    coeffs: np.ndarray,
    psi: np.ndarray,
    big_r: list[complex],
    big_t: list[complex],
    failures: dict[int, SolverError],
) -> list[Outcome]:
    """Per point: its failure, or the report once its residual passes the gate."""
    worst = _residuals(coeffs, psi)
    outcomes: list[Outcome] = []
    for p, stencil in enumerate(stencils):
        res = worst[p]
        if p in failures:
            outcomes.append(failures[p])
        elif not res <= stencil.tol:
            outcomes.append(
                SingularSystem(
                    f"row residual {res:.3e} exceeds {stencil.tol:.3e}; system too ill-conditioned to trust"
                )
            )
        else:
            amplitudes = ScatteringAmplitudes(R=big_r[p], T=big_t[p])
            outcomes.append(SolveReport(amplitudes=amplitudes, psi=psi[p], residual_max=res))
    return outcomes


def _solve(
    points: Iterable[Point],
    blocker: Callable[[InteractionWindow], SolverError | None],
    solve_chunk: Callable[[Sequence[RowStencil], Sequence[float]], list[Outcome]],
) -> Iterator[Outcome]:
    """Outcomes of ``points``, any iterable, in the order given, streamed.

    ``blocker(win)`` returns the SolverError every angle of a window fails
    with before any arithmetic, or None; it and the stencil are looked up
    once per run of consecutive points of one window.  A run of consecutive
    points whose stencils share the shape (rows, 2*reach + 1) is solved by
    ``solve_chunk(stencils, phis)`` in chunks that keep the working arrays
    within _STACK_BYTES.  A chunk's outcomes are yielded as soon as it is
    full or its run ends, so at most one chunk of points is held.
    """

    def prepared() -> Iterator[tuple[RowStencil | SolverError, float]]:
        current = stencil = None
        for win, phi in points:
            if win is not current:
                current, stencil = win, blocker(win) or row_stencil(win)
            yield stencil, phi.phi

    def shape(item: tuple[RowStencil | SolverError, float]) -> tuple[int, int] | SolverError:
        return item[0] if isinstance(item[0], SolverError) else item[0].coeffs.shape

    for key, run in itertools.groupby(prepared(), shape):
        if isinstance(key, SolverError):
            yield from (type(key)(*key.args) for _ in run)
            continue
        # Per point: the stored band (3*reach + 1 complex per row), its
        # magnitudes and update temporaries, then the rhs, solution and psi
        # of the matching elimination, which needs the most.
        rows, reach = key[0], key[1] // 2
        chunk = max(1, _STACK_BYTES // (16 * rows * (2 * (3 * reach + 1) + 4)))
        while part := list(itertools.islice(run, chunk)):
            stencils, phis = zip(*part)
            with np.errstate(all="ignore"):
                outcomes = solve_chunk(stencils, phis)
            yield from outcomes


def _raise_or_return(outcome: Outcome) -> SolveReport:
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _matching_blocker(win: InteractionWindow) -> SolverError | None:
    bond = _severed_bond(win)
    if bond is None:
        return None
    return SingularSystem(f"total coupling -1 + W{bond} vanishes; the chain is severed at that bond")


def _leads(stencils: Sequence[RowStencil], phis: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point: e^{i phi}, 2i sin(phi), and the columns e^{i phi lo}, e^{i phi (lo-1)}, e^{-i phi hi}."""
    step = np.exp(1j * np.array(phis))
    return step, 2j * step.imag, _waves(stencils, phis, ((1, 0), (1, -1), (-1, n - 1)))


def _assemble(coeffs: np.ndarray, step: np.ndarray, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band store and rhs of (E - H - Sigma) psi = b, unknowns psi[lo..hi].

    Matrix row r is lattice row lo + r, stencil row r + 1, and column c is
    site lo + c; the band's reach is the stencil's, at most n - 1.  A hop c
    out of the window is replaced by its lead relation:
    psi[lo-1] = e^{i phi} psi[lo] - source and psi[hi+1] = e^{i phi} psi[hi],
    ``step`` being e^{i phi} and ``source`` 2i sin(phi) e^{i phi lo}.  So
    c e^{i phi} is added to the diagonal cells (lo, lo) and (hi, hi), the
    same cell for a single site, and row lo gets the rhs c * source.
    """
    count, rows, width = coeffs.shape
    n, reach = rows - 2, width // 2
    lower = min(reach, n - 1)
    band = np.zeros((count, n, 3 * lower + 1), dtype=complex)
    band[:, :, : 2 * lower + 1] = coeffs[:, 1:-1, reach - lower : reach + lower + 1]
    # Columns left of lo and right of hi hold only the two hops out of the window.
    band[:, 0, :lower] = band[:, n - 1, lower + 1 :] = 0.0
    hop_lo, hop_hi = coeffs[:, 1, reach - 1], coeffs[:, n, reach + 1]
    band[:, 0, lower] += hop_lo * step
    band[:, n - 1, lower] += hop_hi * step
    b = np.zeros((count, n), dtype=complex)
    b[:, 0] = hop_lo * source
    return band, b


def build_matching_system(win: InteractionWindow, phi: PhiAngle) -> tuple[np.ndarray, np.ndarray]:
    """Matrix E - H - Sigma and right-hand side b of the matching system, unknowns psi[lo..hi]."""
    stencil = row_stencil(win)
    step, two_sin, waves = _leads([stencil], [phi.phi], win.hi - win.lo + 1)
    band, b = _assemble(_coefficients([stencil], [phi.phi]), step, two_sin * waves[:, 0])
    n, lower = band.shape[1], band.shape[2] // 3
    # Slot s of row r holds column r + s - lower: column index r + s of a
    # matrix with lower spare columns on the left.
    a = np.zeros((n, n + 3 * lower), dtype=complex)
    for r in range(n):
        a[r, r : r + 3 * lower + 1] = band[0, r]
    return a[:, lower : lower + n], b[0]


def _matching_chunk(stencils: Sequence[RowStencil], phis: Sequence[float]) -> list[Outcome]:
    coeffs = _coefficients(stencils, phis)
    n = coeffs.shape[1] - 2
    step, two_sin, waves = _leads(stencils, phis, n)
    source = two_sin * waves[:, 0]
    band, b = _assemble(coeffs, step, source)
    lower = band.shape[2] // 3
    x, failures = _eliminate(band, b, lower, lower)
    # psi on [lo-2, hi+2]: the solution, extended by the lead relations.
    psi = np.empty((len(stencils), n + 4), dtype=complex)
    psi[:, 2 : n + 2] = x
    psi[:, 1] = step * x[:, 0] - source
    psi[:, 0] = step * psi[:, 1] - two_sin * waves[:, 1]
    psi[:, n + 2] = step * x[:, -1]
    psi[:, n + 3] = step * psi[:, n + 2]
    big_r = (x[:, 0] - waves[:, 0]) * waves[:, 0]
    big_t = x[:, -1] * waves[:, 2]
    return _reports(stencils, coeffs, psi, big_r.tolist(), big_t.tolist(), failures)


def solve_matching(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Solve the matching system for R, T and the interior wavefunction at one angle."""
    return _raise_or_return(next(solve_matching_stack([(win, phi)])))


def solve_matching_stack(points: Iterable[Point]) -> Iterator[Outcome]:
    """Matching solutions of (window, angle) points, any iterable, in the order given.

    Yields, per point, the report ``solve_matching(win, phi)`` returns or the
    exception it raises.  Consecutive points whose stencils share a shape
    share one band and are assembled and eliminated together.
    """
    return _solve(points, _matching_blocker, _matching_chunk)


def _transfer_blocker(win: InteractionWindow) -> SolverError | None:
    if not win.is_tridiagonal():
        offender = next((i, j) for i, j in sorted(win.entries) if abs(i - j) > 1)
        return NotTridiagonal(f"window entry {offender} lies beyond nearest neighbours")
    # Rows hi .. lo-1 are solved top down; only a window entry W[m, m-1] can cancel the hop.
    for m in sorted((i for i, j in win.entries if i - j == 1), reverse=True):
        if _bond_vanishes(win.entries[(m, m - 1)]):
            return ZeroHopping(f"total coupling -1 + W[{m}, {m - 1}] vanishes")
    return None


def _back_substitute(coeffs: np.ndarray, waves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi on [lo-2, hi+2] of every point from the transmitted wave at hi .. hi+2 (``waves``),
    and the power of two psi was scaled down by, per point."""
    count, rows = coeffs.shape[:2]
    psi = np.zeros((count, rows + 2), dtype=complex)
    psi[:, -3:] = waves
    scale_exp = np.zeros(count, dtype=int)  # psi holds the wavefunction times 2**-scale_exp
    # Row t's coefficients at sites m-1, m and m+1 (a tridiagonal stencil's
    # three columns), one row of points each.
    c_sub, c_m, c_next = coeffs.transpose(2, 1, 0).copy()
    # |psi[m-1]| <= (|c_m| |psi[m]| + |c_m+1| |psi[m+1]|) / |c_sub|: until this
    # bound, with room for rounding, passes _RESCALE_ABOVE / 2 no sample can
    # need the rescale, so rows above ``check_below`` skip the test.
    growth = ((np.abs(c_m) + np.abs(c_next)) / np.abs(c_sub)).max(axis=1).tolist()
    bound, check_below = 1.000001, -1  # plane waves have modulus 1
    for t in range(rows - 2, -1, -1):
        if not growth[t] <= 1.0:
            bound *= growth[t] * 1.000001
        if not bound <= _RESCALE_ABOVE / 2:
            check_below = t
            break
    # Row m = lo-1+t, from hi down to lo-1, gives psi[m-1] (index t) from psi[m] and psi[m+1].
    for t in range(rows - 2, -1, -1):
        value = -(c_m[t] * psi[:, t + 1] + c_next[t] * psi[:, t + 2]) / c_sub[t]
        psi[:, t] = value
        if t <= check_below and not np.abs(value.view(float)).max() <= _RESCALE_ABOVE / 2:
            size = np.abs(value)
            for p in np.flatnonzero(size > _RESCALE_ABOVE).tolist():
                e = math.frexp(size[p])[1]
                psi[p] *= 2.0**-e
                scale_exp[p] += e
    return psi, scale_exp


def _transfer_chunk(stencils: Sequence[RowStencil], phis: Sequence[float]) -> list[Outcome]:
    width = stencils[0].hi - stencils[0].lo
    coeffs = _coefficients(stencils, phis)
    waves = _waves(stencils, phis, ((1, width), (1, width + 1), (1, width + 2), (-1, -2), (-1, -1), (1, -1), (1, -2)))
    psi, scale_exp = _back_substitute(coeffs, waves[:, :3])

    # Fit psi at the two left-most free sites to alpha*e^{i m phi} + beta*e^{-i m phi}.
    fit = psi[:, [1, 0, 0, 1]] * waves[:, 3:]  # sites lo-1, lo-2, lo-2, lo-1
    det = np.array([[2j * math.sin(phi)] for phi in phis])
    alpha, beta = ((fit[:, ::2] - fit[:, 1::2]) / det).T
    sample = np.maximum(np.abs(psi[:, :2]).max(axis=1), 1.0)
    vanishes = np.abs(alpha) <= PIVOT_RTOL * sample
    message = "incident amplitude vanishes (spectral singularity)"
    failures = {p: SingularSystem(message) for p in np.flatnonzero(vanishes).tolist()}

    psi /= alpha[:, None]
    big_t = 1.0 / alpha
    if scale_exp.any():
        big_t.real = np.ldexp(big_t.real, -scale_exp)
        big_t.imag = np.ldexp(big_t.imag, -scale_exp)
    return _reports(stencils, coeffs, psi, (beta / alpha).tolist(), big_t.tolist(), failures)


def solve_transfer_matrix(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Back-substitution through tridiagonal rows, then a two-point wave fit.

    Requires the total Hamiltonian to stay tridiagonal (window entries only
    at |i-j| <= 1) and every total sub-diagonal coupling to be nonzero.
    """
    return _raise_or_return(next(solve_transfer_stack([(win, phi)])))


def solve_transfer_stack(points: Iterable[Point]) -> Iterator[Outcome]:
    """Transfer-recursion solutions of (window, angle) points, any iterable, in the order given.

    Yields, per point, the report ``solve_transfer_matrix(win, phi)`` returns
    or the exception it raises.  The recursion takes one step per row for
    every point of a run of one stencil shape at once; psi is rescaled per
    point.
    """
    return _solve(points, _transfer_blocker, _transfer_chunk)


def residual(win: InteractionWindow, phi: PhiAngle, psi: np.ndarray) -> float:
    """Max row residual of the lattice equation over rows [lo-1, hi+1].

    ``psi`` holds the wavefunction on [lo-2, hi+2].  A row whose residual is NaN
    makes the result NaN, so it fails every tolerance check; a row whose
    modulus lies beyond the float range gives inf.
    """
    base = win.lo - 2
    if psi.shape != (win.hi + 3 - base,):
        raise ValueError(f"psi must hold the {win.hi + 3 - base} samples on [{base}, {win.hi + 2}], got shape {psi.shape}")
    stencil = row_stencil(win)
    with np.errstate(all="ignore"):
        coeffs = _coefficients([stencil], [phi.phi])
        return _residuals(coeffs, np.asarray(psi, dtype=complex)[None])[0]
