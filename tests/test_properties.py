"""Invariants of the solvers checked on random tridiagonal windows (hypothesis).

Examples are derandomized and capped so the suite stays deterministic and fast.
"""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import InteractionWindow, PhiAngle, solve_matching, solve_transfer_matrix

TOL = 1e-10
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
