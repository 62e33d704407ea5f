"""Invariants of the solvers checked on random windows (hypothesis).

Examples are derandomized and capped so the suite stays deterministic and fast.
Right incidence is left incidence on the site-mirrored window (site m ->
lo + hi - m): T_R is its T, and |R_R| its |R|.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import (
    InteractionWindow,
    PhiAngle,
    build_pt_delta_pair,
    is_pt_symmetric,
    solve_matching,
    solve_transfer_matrix,
)

TOL = 1e-10
# The identities below hold to rounding: the worst of 500 random examples
# each was 1e-14 of the amplitude scale.
IDENTITY_TOL = 1e-12
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50)
BOTH_SOLVERS = pytest.mark.parametrize("solve", [solve_matching, solve_transfer_matrix])

_parts = st.floats(min_value=-0.9, max_value=0.9)
_complex = st.builds(complex, _parts, _parts)
_phis = st.floats(min_value=0.2, max_value=3.0).map(PhiAngle)


@st.composite
def _tridiagonal(draw, hermitian: bool):
    """Entries {(i, j): W} of a tridiagonal block on sites 0..n-1, each part in [-0.9, 0.9]."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = {}
    for i in range(n):
        entries[(i, i)] = draw(_parts if hermitian else _complex)
        if i + 1 < n:
            entries[(i + 1, i)] = draw(_complex)
            entries[(i, i + 1)] = entries[(i + 1, i)].conjugate() if hermitian else draw(_complex)
    return n, entries


def _placed(n, entries, lo):
    return InteractionWindow(lo=lo, hi=lo + n - 1, entries={(i + lo, j + lo): w for (i, j), w in entries.items()})


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(block=_tridiagonal(hermitian=False), lo=st.integers(-5, 5), shift=st.integers(-4, 4), phi=_phis)
def test_translation_multiplies_r_by_phase(solve, block, lo, shift, phi):
    base = solve(_placed(*block, lo), phi).amplitudes
    moved = solve(_placed(*block, lo + shift), phi).amplitudes
    phase = cmath.exp(2j * shift * phi.phi)
    assert abs(moved.R - base.R * phase) <= TOL * (1.0 + abs(base.R))
    assert abs(moved.T - base.T) <= TOL * (1.0 + abs(base.T))


@BOTH_SOLVERS
@PROPERTY_SETTINGS
@given(block=_tridiagonal(hermitian=True), lo=st.integers(-5, 5), phi=_phis)
def test_hermitian_window_conserves_probability(solve, block, lo, phi):
    assert abs(solve(_placed(*block, lo), phi).amplitudes.defect) <= TOL


@st.composite
def _dense(draw):
    """Entries {(i, j): W} of a full block on sites 0..n-1, each part in [-0.9, 0.9]."""
    n = draw(st.integers(min_value=1, max_value=6))
    return n, {(i, j): draw(_complex) for i in range(n) for j in range(n)}


def _mirrored(win, transpose=False):
    """P W P, or P W^T P with ``transpose``, for the site mirror P: m -> lo + hi - m."""
    s = win.lo + win.hi
    return InteractionWindow(
        lo=win.lo,
        hi=win.hi,
        entries={((s - j, s - i) if transpose else (s - i, s - j)): w for (i, j), w in win.entries.items()},
    )


def _scale(amplitudes):
    """Rounding grows with the amplitudes near a spectral singularity, where both grow as 1 / alpha."""
    return max(1.0, abs(amplitudes.R), abs(amplitudes.T)) ** 2


@pytest.mark.parametrize("solve, blocks", [(solve_matching, _dense()), (solve_transfer_matrix, _tridiagonal(False))])
@PROPERTY_SETTINGS
@given(data=st.data(), lo=st.integers(-5, 5), phi=_phis)
def test_reciprocity(solve, blocks, data, lo, phi):
    """T_L(W) = T_R(W^T) = T_L(P W^T P), for every window, Hermitian or not."""
    win = _placed(*data.draw(blocks), lo)
    left = solve(win, phi).amplitudes
    assert abs(solve(_mirrored(win, transpose=True), phi).amplitudes.T - left.T) <= IDENTITY_TOL * _scale(left)


@st.composite
def _pt_symmetric(draw, reach):
    """A PT-symmetric window on [-h, h]: a random block averaged with its PT image."""
    h = draw(st.integers(min_value=0, max_value=3))
    drawn = {(i, j): draw(_complex) for i in range(-h, h + 1) for j in range(-h, h + 1) if abs(i - j) <= reach}
    entries = {(i, j): (w + drawn[(-i, -j)].conjugate()) / 2 for (i, j), w in drawn.items()}
    return InteractionWindow(lo=-h, hi=h, entries=entries)


@pytest.mark.parametrize("solve, reach", [(solve_matching, 6), (solve_transfer_matrix, 1)])
@PROPERTY_SETTINGS
@given(data=st.data(), phi=_phis)
def test_generalized_unitarity_on_pt_symmetric_windows(solve, reach, data, phi):
    """|T|^2 - 1 = +-|R_L R_R| (Ge, Chong & Stone, PRA 85, 023802, 2012)."""
    win = data.draw(_pt_symmetric(reach))
    assert is_pt_symmetric(win)
    left = solve(win, phi).amplitudes
    right_r = solve(_mirrored(win), phi).amplitudes.R
    assert abs(abs(abs(left.T) ** 2 - 1.0) - abs(left.R * right_r)) <= IDENTITY_TOL * _scale(left)


@BOTH_SOLVERS
@pytest.mark.parametrize("m_sep", [1, 2, 3, 5, 8])
def test_pt_pair_reflects_equally_from_both_sides(solve, m_sep):
    """|R_L| = |R_R| and |T|^2 - 1 = -|R_L R_R|: the minus branch of generalized
    unitarity, which for left incidence is |R|^2 + |T|^2 = 1."""
    for x in (-0.9, -0.4, 0.3, 0.7):
        win = build_pt_delta_pair(m_sep, x)
        for phi in (PhiAngle(0.1 + 0.3 * k) for k in range(10)):
            left = solve(win, phi).amplitudes
            right_r = solve(_mirrored(win), phi).amplitudes.R
            assert abs(abs(left.R) - abs(right_r)) <= IDENTITY_TOL
            assert abs(abs(left.T) ** 2 - 1.0 + abs(left.R * right_r)) <= IDENTITY_TOL
