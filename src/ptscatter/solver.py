"""
Two independent numerical solvers for the scattering amplitudes R, T.

``solve_matching`` writes one Schroedinger row per window site, substitutes
the asymptotic plane-wave forms (anchored exactly at the window edges lo and
hi), and solves the resulting dense complex system for the unknown vector
[R, psi[lo+1], ..., psi[hi-1], T].  It works for any finite window.

``solve_transfer_matrix`` back-substitutes through the rows of a tridiagonal
total Hamiltonian: starting from a provisional transmitted wave psi[m] =
exp(i*m*phi) on the right, each row is solved for the site to its left, and
the two left-most free samples are matched against
alpha*exp(i*m*phi) + beta*exp(-i*m*phi), giving T = 1/alpha, R = beta/alpha.

The two routes share one row builder, so their sign conventions cannot
drift; agreement between them is the primary correctness oracle for windows
without a closed-form solution.  Every report carries the wavefunction on
[lo-2, hi+2] and the maximum row residual over [lo-1, hi+1], checked against
RESIDUAL_RTOL * (1 + max |W|) before the solve is declared successful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InteractionWindow, PhiAngle, ScatteringAmplitudes, WaveFunctionWindow, plane_wave
from .errors import NotTridiagonal, SingularSystem, ZeroHopping

# Relative thresholds: double precision with windows of at most ~100 sites
# leaves 3-4 guard digits below the 1e-10 success residual.
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-10
HOPPING_RTOL = 1e-14
PHI_EDGE_GUARD = 1e-8
# The transfer recursion rescales psi by a power of two once a sample grows
# beyond this, so strong barriers cannot overflow it.
_RESCALE_ABOVE = 1e100


@dataclass(frozen=True)
class SolveReport:
    """Amplitudes plus the evidence that they solve the lattice equation."""

    amplitudes: ScatteringAmplitudes
    wavefunction: WaveFunctionWindow
    residual_max: float


@dataclass(frozen=True)
class MatchingSystem:
    """Dense matching system A u = b with u = [R, psi[lo+1..hi-1], T].

    ``lo`` and ``hi`` are the anchor sites where the asymptotic forms are
    imposed; for a single-site window the right anchor is moved one site out
    (adding a free row) so that R and T stay independent unknowns.
    """

    lo: int
    hi: int
    matrix: np.ndarray
    rhs: np.ndarray


def _check_phi(phi: PhiAngle) -> float:
    if phi.phi < PHI_EDGE_GUARD or phi.phi > math.pi - PHI_EDGE_GUARD:
        raise ValueError(f"phi={phi.phi!r} is within {PHI_EDGE_GUARD} of the band edge; plane waves degenerate there")
    return phi.phi


def hamiltonian_row(win: InteractionWindow, m: int, two_cos: float) -> dict[int, complex]:
    """Coefficients {j: c} of Schroedinger row m: sum_j c_j psi[j] = 0.

    Row m reads -psi[m-1] + 2*cos(phi)*psi[m] - psi[m+1] + sum_j W[m,j]*psi[j];
    both solvers build their equations from this single map.
    """
    row: dict[int, complex] = {m - 1: -1.0 + 0j, m: complex(two_cos), m + 1: -1.0 + 0j}
    for j, w in win.row(m):
        row[j] = row.get(j, 0j) + w
    return row


def _severed_bond(win: InteractionWindow) -> tuple[int, int] | None:
    """Adjacent (row, col) pair whose total coupling -1 + W vanishes, if any.

    Only meaningful for tridiagonal windows: a longer-range entry can bridge
    a broken nearest-neighbour bond, so the scan is skipped in that case.
    """
    if not win.is_tridiagonal():
        return None
    for i in range(win.lo, win.hi):
        for r, c in ((i + 1, i), (i, i + 1)):
            if _bond_vanishes(win.entry(r, c)):
                return r, c
    return None


def _bond_vanishes(w: complex) -> bool:
    """Whether the total coupling -1 + w cancels to rounding of its two terms."""
    return abs(-1.0 + w) <= HOPPING_RTOL * (1.0 + abs(w))


def solve_complex_linear(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = b by Gaussian elimination with scaled partial pivoting.

    Raises SingularSystem when the best available pivot falls below
    PIVOT_RTOL of its row scale.
    """
    a = np.array(matrix, dtype=complex)
    b = np.array(rhs, dtype=complex)
    n = b.size
    if n == 0:
        raise ValueError("empty system")
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match rhs length {n}")
    scale = np.max(np.abs(a), axis=1)
    if np.min(scale) == 0.0:
        raise SingularSystem("matching matrix has an identically zero row")

    for k in range(n):
        rel = np.abs(a[k:, k]) / scale[k:]
        p = int(np.argmax(rel)) + k
        if rel[p - k] < PIVOT_RTOL:
            raise SingularSystem(
                f"pivot magnitude {abs(a[p, k]):.3e} below {PIVOT_RTOL:g} of row scale in column {k}"
            )
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
            scale[[k, p]] = scale[[p, k]]
        if k + 1 < n:
            mult = a[k + 1 :, k] / a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(mult, a[k, k + 1 :])
            b[k + 1 :] -= mult * b[k]

    x = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - np.dot(a[k, k + 1 :], x[k + 1 :])) / a[k, k]
    return x


def build_matching_system(win: InteractionWindow, phi: PhiAngle) -> MatchingSystem:
    """Assemble the matching rows for the window at the given angle."""
    phi_val = _check_phi(phi)
    lo = win.lo
    hi = win.hi if win.hi > win.lo else win.lo + 1  # single site: free row keeps R, T independent
    n = hi - lo + 1
    two_cos = 2.0 * math.cos(phi_val)

    a = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for r, m in enumerate(range(lo, hi + 1)):
        for j, coeff in hamiltonian_row(win, m, two_cos).items():
            if j <= lo:
                a[r, 0] += coeff * plane_wave(-j, phi_val)
                b[r] -= coeff * plane_wave(j, phi_val)
            elif j >= hi:
                a[r, n - 1] += coeff * plane_wave(j, phi_val)
            else:
                a[r, j - lo] += coeff
    return MatchingSystem(lo=lo, hi=hi, matrix=a, rhs=b)


def _assemble_report(
    win: InteractionWindow,
    phi: PhiAngle,
    amplitudes: ScatteringAmplitudes,
    values: np.ndarray,
) -> SolveReport:
    wavefunction = WaveFunctionWindow(lo_ext=win.lo - 2, hi_ext=win.hi + 2, values=values)
    residual_max = _max_row_residual(win, phi, wavefunction)
    tol = RESIDUAL_RTOL * (1.0 + win.max_abs_entry())
    if not residual_max <= tol:
        raise SingularSystem(f"row residual {residual_max:.3e} exceeds {tol:.3e}; system too ill-conditioned to trust")
    return SolveReport(amplitudes=amplitudes, wavefunction=wavefunction, residual_max=residual_max)


def solve_matching(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Solve the dense matching system for R, T and the interior wavefunction."""
    phi_val = _check_phi(phi)
    bond = _severed_bond(win)
    if bond is not None:
        raise SingularSystem(f"total coupling -1 + W{bond} vanishes; the chain is severed at that bond")

    system = build_matching_system(win, phi)
    u = solve_complex_linear(system.matrix, system.rhs)
    big_r, big_t = complex(u[0]), complex(u[-1])

    lo, hi = win.lo, win.hi
    values = np.empty(hi + 2 - (lo - 2) + 1, dtype=complex)
    for k, m in enumerate(range(lo - 2, hi + 3)):
        if m <= lo:
            values[k] = plane_wave(m, phi_val) + big_r * plane_wave(-m, phi_val)
        elif m < system.hi:
            values[k] = u[m - lo]
        else:
            values[k] = big_t * plane_wave(m, phi_val)
    return _assemble_report(win, phi, ScatteringAmplitudes(R=big_r, T=big_t), values)


def solve_transfer_matrix(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Back-substitution through tridiagonal rows, then a two-point wave fit.

    Requires the total Hamiltonian to stay tridiagonal (window entries only
    at |i-j| <= 1) and every total sub-diagonal coupling to be nonzero.
    """
    phi_val = _check_phi(phi)
    if not win.is_tridiagonal():
        offender = next((i, j) for i, j in sorted(win.entries) if abs(i - j) > 1)
        raise NotTridiagonal(f"window entry {offender} lies beyond nearest neighbours")

    lo, hi = win.lo, win.hi
    two_cos = 2.0 * math.cos(phi_val)

    psi = np.zeros(hi + 2 - (lo - 2) + 1, dtype=complex)
    base = lo - 2
    for m in range(hi, hi + 3):
        psi[m - base] = plane_wave(m, phi_val)
    scale_exp = 0  # psi holds the wavefunction times 2**-scale_exp
    for m in range(hi, lo - 2, -1):
        row = hamiltonian_row(win, m, two_cos)
        c_sub = row.pop(m - 1)
        if _bond_vanishes(win.entry(m, m - 1)):
            raise ZeroHopping(f"total coupling -1 + W[{m}, {m - 1}] vanishes")
        value = -sum(coeff * psi[j - base] for j, coeff in row.items()) / c_sub
        psi[m - 1 - base] = value
        if abs(value) > _RESCALE_ABOVE:
            e = math.frexp(abs(value))[1]
            psi *= 2.0**-e
            scale_exp += e

    # Fit psi at the two left-most free sites to alpha*e^{i m phi} + beta*e^{-i m phi}.
    a_site, b_site = lo - 1, lo - 2
    det = 2j * math.sin(phi_val)
    psi_a, psi_b = psi[a_site - base], psi[b_site - base]
    alpha = (psi_a * plane_wave(-b_site, phi_val) - psi_b * plane_wave(-a_site, phi_val)) / det
    beta = (psi_b * plane_wave(a_site, phi_val) - psi_a * plane_wave(b_site, phi_val)) / det
    if abs(alpha) <= PIVOT_RTOL * max(abs(psi_a), abs(psi_b), 1.0):
        raise SingularSystem("incident amplitude vanishes (spectral singularity)")

    psi /= alpha
    inv = 1.0 / alpha
    t = complex(math.ldexp(inv.real, -scale_exp), math.ldexp(inv.imag, -scale_exp))
    amplitudes = ScatteringAmplitudes(R=complex(beta / alpha), T=t)
    return _assemble_report(win, phi, amplitudes, psi)


def residual(win: InteractionWindow, phi: PhiAngle, report: SolveReport) -> float:
    """Max row residual of the lattice equation over rows [lo-1, hi+1].

    Uses the wavefunction stored in the report, which must cover
    [lo-2, hi+2].  A row whose residual is NaN makes the result NaN, so it
    fails every tolerance check.
    """
    wf = report.wavefunction
    if wf.lo_ext > win.lo - 2 or wf.hi_ext < win.hi + 2:
        raise ValueError(
            f"report wavefunction [{wf.lo_ext}, {wf.hi_ext}] does not cover [{win.lo - 2}, {win.hi + 2}]"
        )
    return _max_row_residual(win, phi, wf)


def _max_row_residual(win: InteractionWindow, phi: PhiAngle, wf: WaveFunctionWindow) -> float:
    two_cos = 2.0 * math.cos(phi.phi)
    worst = 0.0
    for m in range(win.lo - 1, win.hi + 2):
        total = 0j
        for j, coeff in hamiltonian_row(win, m, two_cos).items():
            total += coeff * wf.value(j)
        row_residual = abs(total)
        if math.isnan(row_residual):
            return row_residual
        worst = max(worst, row_residual)
    return worst
