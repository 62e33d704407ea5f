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

from .core import InteractionWindow, PhiAngle, ScatteringAmplitudes, plane_wave
from .errors import NotTridiagonal, SingularSystem, ZeroHopping

# Relative thresholds: double precision with windows of at most ~100 sites
# leaves 3-4 guard digits below the 1e-10 success residual.
PIVOT_RTOL = 1e-14
RESIDUAL_RTOL = 1e-10
HOPPING_RTOL = 1e-14
# The transfer recursion rescales psi by a power of two once a sample grows
# beyond this, so strong barriers cannot overflow it.
_RESCALE_ABOVE = 1e100


@dataclass(frozen=True)
class SolveReport:
    """Amplitudes plus the evidence that they solve the lattice equation.

    ``psi`` holds the wavefunction samples on [lo-2, hi+2] of the solved window.
    """

    amplitudes: ScatteringAmplitudes
    psi: np.ndarray
    residual_max: float


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


def build_matching_system(win: InteractionWindow, phi: PhiAngle) -> tuple[np.ndarray, np.ndarray]:
    """Matrix A and right-hand side b of the matching system A u = b, u = [R, psi[lo+1..hi-1], T]."""
    phi_val = phi.phi
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
    return a, b


def _assemble_report(
    win: InteractionWindow,
    phi: PhiAngle,
    amplitudes: ScatteringAmplitudes,
    psi: np.ndarray,
) -> SolveReport:
    residual_max = residual(win, phi, psi)
    tol = RESIDUAL_RTOL * (1.0 + win.max_abs_entry())
    if not residual_max <= tol:
        raise SingularSystem(f"row residual {residual_max:.3e} exceeds {tol:.3e}; system too ill-conditioned to trust")
    return SolveReport(amplitudes=amplitudes, psi=psi, residual_max=residual_max)


def solve_matching(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Solve the dense matching system for R, T and the interior wavefunction."""
    phi_val = phi.phi
    bond = _severed_bond(win)
    if bond is not None:
        raise SingularSystem(f"total coupling -1 + W{bond} vanishes; the chain is severed at that bond")

    matrix, rhs = build_matching_system(win, phi)
    u = solve_complex_linear(matrix, rhs)
    big_r, big_t = complex(u[0]), complex(u[-1])

    lo, hi = win.lo, win.hi
    hi_anchor = lo + rhs.size - 1
    psi = np.empty(hi + 2 - (lo - 2) + 1, dtype=complex)
    for k, m in enumerate(range(lo - 2, hi + 3)):
        if m <= lo:
            psi[k] = plane_wave(m, phi_val) + big_r * plane_wave(-m, phi_val)
        elif m < hi_anchor:
            psi[k] = u[m - lo]
        else:
            psi[k] = big_t * plane_wave(m, phi_val)
    return _assemble_report(win, phi, ScatteringAmplitudes(R=big_r, T=big_t), psi)


def solve_transfer_matrix(win: InteractionWindow, phi: PhiAngle) -> SolveReport:
    """Back-substitution through tridiagonal rows, then a two-point wave fit.

    Requires the total Hamiltonian to stay tridiagonal (window entries only
    at |i-j| <= 1) and every total sub-diagonal coupling to be nonzero.
    """
    phi_val = phi.phi
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


def residual(win: InteractionWindow, phi: PhiAngle, psi: np.ndarray) -> float:
    """Max row residual of the lattice equation over rows [lo-1, hi+1].

    ``psi`` holds the wavefunction on [lo-2, hi+2].  The samples are read as
    Python complex numbers, so every product and sum is CPython complex
    arithmetic.  A row whose residual is NaN makes the result NaN, so it
    fails every tolerance check.
    """
    base = win.lo - 2
    if psi.shape != (win.hi + 3 - base,):
        raise ValueError(f"psi must hold the {win.hi + 3 - base} samples on [{base}, {win.hi + 2}], got shape {psi.shape}")
    samples = psi.tolist()
    two_cos = 2.0 * math.cos(phi.phi)
    worst = 0.0
    for m in range(win.lo - 1, win.hi + 2):
        total = 0j
        for j, coeff in hamiltonian_row(win, m, two_cos).items():
            total += coeff * samples[j - base]
        row_residual = abs(total)
        if math.isnan(row_residual):
            return row_residual
        worst = max(worst, row_residual)
    return worst
