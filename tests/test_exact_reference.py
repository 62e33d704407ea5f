"""Both solvers against a 60-digit solve of the same lattice rows (mpmath).

``exact_amplitudes`` states the scattering problem directly: unknowns
psi[lo..hi], R and T; the window's rows lo .. hi with psi[lo-1] and
psi[hi+1] taken from the asymptotic forms, plus the two anchor equations
psi[lo] = e^{i phi lo} + R e^{-i phi lo} and psi[hi] = T e^{i phi hi}.  On
a barrier V this form recovers R from a sum of order 1 / V, cancelling
about log10(V) digits, so the solve carries that many digits beyond the 60
it keeps; it then judges the double-precision solvers on strong barriers
as well.
"""

import math

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ptscatter import InteractionWindow, PhiAngle, SingularSystem, solve_matching, solve_transfer_matrix
from ptscatter.solver import hamiltonian_row

DIGITS = 60
# Worst seen over 400 random examples of each test: 9 ulps of the scale below.
RTOL = 64 * 2.0**-52
REFERENCE_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)


def exact_amplitudes(win, phi):
    """(R, T) of ``win`` at ``phi``, solved densely to DIGITS digits."""
    with mp.workdps(DIGITS + math.ceil(math.log10(1.0 + win.max_abs_entry()))):
        lo, hi = win.lo, win.hi
        n = hi - lo + 1
        p = mp.mpf(phi.phi)
        wave = lambda m: mp.expj(p * m)  # noqa: E731
        a = mp.matrix(n + 2, n + 2)  # columns: psi[lo..hi], R, T
        rhs = mp.matrix(n + 2, 1)
        for r, m in enumerate(range(lo, hi + 1)):
            for j, coeff in hamiltonian_row(win, m, 0.0).items():
                c = mp.mpc(coeff.real, coeff.imag) + (2 * mp.cos(p) if j == m else 0)
                if j == lo - 1:
                    a[r, n] += c * wave(-j)
                    rhs[r] -= c * wave(j)
                elif j == hi + 1:
                    a[r, n + 1] += c * wave(j)
                else:
                    a[r, j - lo] += c
        a[n, 0], a[n, n], rhs[n] = 1, -wave(-lo), wave(lo)
        a[n + 1, n - 1], a[n + 1, n + 1] = 1, -wave(hi)
        x = mp.lu_solve(a, rhs)
        return complex(x[n]), complex(x[n + 1])


def _assert_near_exact(amplitudes, exact, phi):
    """R within RTOL of the amplitude scale; T within RTOL of |T| itself, so a tiny T keeps its digits.

    The scale is the conditioning of the problem: 1 / sin(phi) towards the
    band edges, and max(1, |R|, |T|) near a spectral singularity.
    """
    big_r, big_t = exact
    kappa = max(1.0, abs(big_r), abs(big_t)) / math.sin(phi.phi)
    assert abs(amplitudes.R - big_r) <= RTOL * kappa * max(1.0, abs(big_r), abs(big_t))
    assert abs(amplitudes.T - big_t) <= RTOL * kappa * abs(big_t)


_parts = st.floats(min_value=-0.9, max_value=0.9)
_angles = st.floats(min_value=0.05, max_value=math.pi - 0.05).map(PhiAngle)


@st.composite
def dense_windows(draw, tridiagonal=False):
    """A window of 1 .. 8 sites, each entry within its reach drawn complex with parts in [-0.9, 0.9]."""
    n = draw(st.integers(min_value=1, max_value=8))
    lo = draw(st.integers(min_value=-5, max_value=5))
    reach = 1 if tridiagonal else n - 1
    entries = {
        (i, j): complex(draw(_parts), draw(_parts))
        for i in range(lo, lo + n)
        for j in range(max(lo, i - reach), min(lo + n - 1, i + reach) + 1)
    }
    return InteractionWindow(lo=lo, hi=lo + n - 1, entries=entries)


def _solved(solve, win, phi):
    try:
        return solve(win, phi).amplitudes
    except SingularSystem:
        assume(False)


@REFERENCE_SETTINGS
@given(dense_windows(), _angles)
def test_matching_on_dense_windows(win, phi):
    _assert_near_exact(_solved(solve_matching, win, phi), exact_amplitudes(win, phi), phi)


@pytest.mark.parametrize("solve", [solve_matching, solve_transfer_matrix])
@REFERENCE_SETTINGS
@given(win=dense_windows(tridiagonal=True), phi=_angles)
def test_both_solvers_on_tridiagonal_windows(solve, win, phi):
    _assert_near_exact(_solved(solve, win, phi), exact_amplitudes(win, phi), phi)


@pytest.mark.parametrize("solve", [solve_matching, solve_transfer_matrix])
@REFERENCE_SETTINGS
@given(
    barrier=st.sampled_from([1e3, 1e8, 1e15, 1e200]),
    sign=st.sampled_from([1.0, -1.0, 1j, -1j]),
    lo=st.integers(min_value=-5, max_value=5),
    phi=_angles,
)
def test_both_solvers_on_single_site_barriers(solve, barrier, sign, lo, phi):
    """T ~ 2i sin(phi) / V keeps its relative accuracy however strong the barrier."""
    win = InteractionWindow(lo=lo, hi=lo, entries={(lo, lo): sign * barrier})
    _assert_near_exact(_solved(solve, win, phi), exact_amplitudes(win, phi), phi)


@pytest.mark.xfail(
    strict=True,
    raises=SingularSystem,
    reason="the residual gate RESIDUAL_RTOL * (1 + max|W|) ignores |psi| ~ 1e8 near a spectral singularity",
)
@pytest.mark.parametrize("solve", [solve_matching, solve_transfer_matrix])
def test_both_solvers_next_to_a_spectral_singularity(solve):
    """W[0, 0] = 2i sin(phi) is a spectral singularity at phi = 1; 1e-8 off it, T is about -1e8."""
    phi = PhiAngle(1.0)
    win = InteractionWindow(lo=0, hi=0, entries={(0, 0): 2j * math.sin(1.0) * (1 + 1e-8)})
    big_t = exact_amplitudes(win, phi)[1]
    assert abs(big_t + 1e8) <= 1e-6 * abs(big_t)
    assert abs(solve(win, phi).amplitudes.T - big_t) <= 1e-6 * abs(big_t)
