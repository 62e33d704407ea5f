"""The stencil stacks against independent per-point references.

The ``reference_*`` functions below build a ``hamiltonian_row`` dict for
every (row, angle) and solve one point at a time in CPython's complex
arithmetic: matching in its older form, with unknowns
[R, psi[lo+1..hi-1], T] and the plane waves substituted at the window
edges, solved by ``dense_reference``; the transfer recursion; and the
residual.  Every stack must raise their exception types and messages
exactly, point by point, whatever the mix of windows in the stack, and give
their R, T and psi to within TOL * max(1, |R|, |T|)**2 / sin(phi).  The
scale is the conditioning of the problem: 1 / sin(phi) at the band edges,
where the two plane waves merge and the two matching forms differ most, and
the amplitude itself near a spectral singularity, where R and T grow as
1 / alpha with the incident amplitude alpha -> 0.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_elimination import dense_reference

from ptscatter import (
    InteractionWindow,
    NotTridiagonal,
    PhiAngle,
    ScatteringAmplitudes,
    SingularSystem,
    ZeroHopping,
    build_matching_system,
    build_pt_delta_pair,
    build_ultralocal,
    residual,
    solve_matching,
    solve_matching_stack,
    solve_transfer_matrix,
    solve_transfer_stack,
)
from ptscatter.core import plane_wave
from ptscatter.solver import HOPPING_RTOL, PIVOT_RTOL, RESIDUAL_RTOL, hamiltonian_row, row_stencil

TOL = 1e-13


def reference_build_matching_system(win, phi):
    phi_val = phi.phi
    lo = win.lo
    hi = win.hi if win.hi > win.lo else win.lo + 1
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


def reference_residual(win, phi, psi):
    base = win.lo - 2
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


def reference_residual_overflow_as_inf(win, phi, psi):
    """reference_residual, reading a row modulus beyond the float range as inf as numpy's hypot does.

    Where CPython's ``abs`` raises OverflowError the result is inf, or NaN
    if any row, before or after the overflowing one, is NaN.
    """
    try:
        return reference_residual(win, phi, psi)
    except OverflowError:
        samples = psi.tolist()
        two_cos = 2.0 * math.cos(phi.phi)
        sums = [sum((c * samples[j - win.lo + 2] for j, c in hamiltonian_row(win, m, two_cos).items()), 0j)
                for m in range(win.lo - 1, win.hi + 2)]
        return math.nan if any(math.isnan(math.hypot(s.real, s.imag)) for s in sums) else math.inf


def reference_report(win, phi, amplitudes, psi):
    residual_max = reference_residual_overflow_as_inf(win, phi, psi)
    tol = RESIDUAL_RTOL * (1.0 + win.max_abs_entry())
    if not residual_max <= tol:
        raise SingularSystem(f"row residual {residual_max:.3e} exceeds {tol:.3e}; system too ill-conditioned to trust")
    return amplitudes, psi, residual_max


def reference_matching_report(win, phi, u):
    phi_val = phi.phi
    big_r, big_t = complex(u[0]), complex(u[-1])
    lo, hi = win.lo, win.hi
    hi_anchor = lo + u.size - 1
    psi = np.empty(hi + 2 - (lo - 2) + 1, dtype=complex)
    for k, m in enumerate(range(lo - 2, hi + 3)):
        if m <= lo:
            psi[k] = plane_wave(m, phi_val) + big_r * plane_wave(-m, phi_val)
        elif m < hi_anchor:
            psi[k] = u[m - lo]
        else:
            psi[k] = big_t * plane_wave(m, phi_val)
    return reference_report(win, phi, ScatteringAmplitudes(R=big_r, T=big_t), psi)


def _bond_vanishes(w):
    return abs(-1.0 + w) <= HOPPING_RTOL * (1.0 + abs(w))


def reference_solve_matching(win, phi):
    if win.is_tridiagonal():
        for i in range(win.lo, win.hi):
            for r, c in ((i + 1, i), (i, i + 1)):
                if _bond_vanishes(win.entry(r, c)):
                    raise SingularSystem(f"total coupling -1 + W{(r, c)} vanishes; the chain is severed at that bond")
    with np.errstate(all="ignore"):
        u = dense_reference(*reference_build_matching_system(win, phi))
    return reference_matching_report(win, phi, u)


def reference_solve_transfer(win, phi):
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
    scale_exp = 0
    for m in range(hi, lo - 2, -1):
        row = hamiltonian_row(win, m, two_cos)
        c_sub = row.pop(m - 1)
        if _bond_vanishes(win.entry(m, m - 1)):
            raise ZeroHopping(f"total coupling -1 + W[{m}, {m - 1}] vanishes")
        value = -sum(coeff * psi[j - base] for j, coeff in row.items()) / c_sub
        psi[m - 1 - base] = value
        if abs(value) > 1e100:
            e = math.frexp(abs(value))[1]
            psi *= 2.0**-e
            scale_exp += e
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
    return reference_report(win, phi, ScatteringAmplitudes(R=complex(beta / alpha), T=t), psi)


def _failure(outcome):
    """Type and message of an exception, or None for a report."""
    return (type(outcome).__name__, str(outcome)) if isinstance(outcome, Exception) else None


def _reference(solve, win, phi):
    """The reference's (amplitudes, psi, residual), or the exception it raises."""
    # The per-point code ran numpy scalar arithmetic, which warns on overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            try:
                return solve(win, phi)
            except (SingularSystem, NotTridiagonal) as exc:
                return exc


def _assert_agrees(outcome, expected, win, phi):
    """The same failure, or R, T and psi within TOL * max(1, |R|, |T|)**2 / sin(phi) and the residual of psi."""
    assert _failure(outcome) == _failure(expected), (win, phi)
    if _failure(outcome) is None:
        amplitudes, psi, _ = expected
        tol = TOL * max(1.0, abs(amplitudes.R), abs(amplitudes.T)) ** 2 / math.sin(phi.phi)
        got = outcome.amplitudes
        assert abs(got.R - amplitudes.R) <= tol and abs(got.T - amplitudes.T) <= tol, (win, phi)
        assert np.abs(outcome.psi - psi).max() <= tol, (win, phi)
        assert outcome.residual_max == residual(win, phi, outcome.psi)


def _assert_stacks_match(points):
    matching = list(solve_matching_stack(points))
    transfer = list(solve_transfer_stack(points))
    assert len(matching) == len(transfer) == len(points)
    for k, (win, phi) in enumerate(points):
        _assert_agrees(matching[k], _reference(reference_solve_matching, win, phi), win, phi)
        _assert_agrees(transfer[k], _reference(reference_solve_transfer, win, phi), win, phi)


# Entry parts: ordinary values, signed zeros, the hopping-cancelling 1.0,
# |x| = 1 couplings and a barrier large enough to need the transfer rescale.
PARTS = st.one_of(
    st.floats(min_value=-0.9, max_value=0.9, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]),
)


@st.composite
def windows(draw, tridiagonal=None):
    width = draw(st.integers(min_value=1, max_value=7))
    lo = draw(st.integers(min_value=-6, max_value=6))
    hi = lo + width - 1
    if tridiagonal is None:
        tridiagonal = draw(st.booleans())
    reach = 1 if tridiagonal else draw(st.integers(min_value=1, max_value=3))
    entries = {}
    for i in range(lo, hi + 1):
        for j in range(max(lo, i - reach), min(hi, i + reach) + 1):
            if draw(st.integers(min_value=0, max_value=3)):
                entries[(i, j)] = complex(draw(PARTS), draw(PARTS))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        site = draw(st.integers(min_value=lo, max_value=hi))
        entries[(site, site)] = complex(draw(st.sampled_from([1e150, -3e120, 1e14])), draw(PARTS))
    return InteractionWindow(lo=lo, hi=hi, entries=entries)


ANGLES = st.lists(
    st.one_of(st.floats(min_value=0.05, max_value=math.pi - 0.05), st.sampled_from([math.pi / 2, math.pi / 3, 1e-7])),
    min_size=1,
    max_size=5,
).map(lambda values: [PhiAngle(v) for v in values])

# Drawing a window takes many small draws; a busy machine must not turn that into a health-check failure.
STACK_SETTINGS = settings(derandomize=True, deadline=None, max_examples=120, suppress_health_check=[HealthCheck.too_slow])


@STACK_SETTINGS
@given(windows(), ANGLES)
def test_one_window_at_many_angles(win, phis):
    _assert_stacks_match([(win, phi) for phi in phis])


@STACK_SETTINGS
@given(st.lists(st.tuples(windows(), ANGLES), min_size=2, max_size=5), st.randoms(use_true_random=False))
def test_mixed_stacks_keep_every_point(groups, rnd):
    """Windows of several widths and shapes, their points interleaved."""
    points = [(win, phi) for win, phis in groups for phi in phis]
    rnd.shuffle(points)
    _assert_stacks_match(points)


@STACK_SETTINGS
@given(windows(tridiagonal=True), ANGLES)
def test_tridiagonal_window_stacks_with_its_shifted_copies(win, phis):
    """One shape at several placements on the chain: lo only shifts the plane waves."""
    shifted = [InteractionWindow(win.lo + d, win.hi + d, {(i + d, j + d): w for (i, j), w in win.entries.items()})
               for d in (0, 3, -5)]
    _assert_stacks_match([(w, phi) for phi in phis for w in shifted])


@pytest.mark.parametrize("coupling", [-1.0, -0.9, -0.0, 0.3, 1.0])
def test_pt_pairs_and_ultralocal_blocks(coupling):
    phis = [PhiAngle(0.05 + 0.29 * k) for k in range(11)]
    wins = [build_pt_delta_pair(m, coupling) for m in (1, 2, 3, 8, 32)] + [build_ultralocal(coupling)]
    _assert_stacks_match([(win, phi) for win in wins for phi in phis])


def reference_self_energy_system(win, phi):
    """Dense E - H - Sigma and b on psi[lo..hi], the hops out of the window replaced by the lead relations
    psi[lo-1] = e^{i phi} psi[lo] - 2i sin(phi) e^{i phi lo} and psi[hi+1] = e^{i phi} psi[hi]."""
    lo, hi, phi_val = win.lo, win.hi, phi.phi
    step = cmath.exp(1j * phi_val)
    a = np.zeros((hi - lo + 1, hi - lo + 1), dtype=complex)
    b = np.zeros(hi - lo + 1, dtype=complex)
    for r, m in enumerate(range(lo, hi + 1)):
        for j, coeff in hamiltonian_row(win, m, 2.0 * math.cos(phi_val)).items():
            if j == lo - 1:
                a[r, 0] += coeff * step
                b[r] += coeff * 2j * math.sin(phi_val) * plane_wave(lo, phi_val)
            elif j == hi + 1:
                a[r, -1] += coeff * step
            else:
                a[r, j - lo] += coeff
    return a, b


@STACK_SETTINGS
@given(windows(), ANGLES)
def test_matching_system_matches_the_per_point_assembly(win, phis):
    for phi in phis:
        a, b = build_matching_system(win, phi)
        ra, rb = reference_self_energy_system(win, phi)
        assert a.shape == ra.shape and b.shape == rb.shape
        assert np.abs(a - ra).max() <= 1e-15 * np.abs(ra).max()
        assert np.abs(b - rb).max() <= 1e-15 * np.abs(rb).max()


# Off-diagonal values one rounding step either side of cancelling a hop, besides PARTS.
STENCIL_PARTS = st.one_of(PARTS, st.sampled_from([1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0 - 2.0**-52, -1.0 + 2.0**-53]))


@st.composite
def stencil_windows(draw):
    width = draw(st.integers(min_value=1, max_value=6))
    lo = draw(st.integers(min_value=-6, max_value=6))
    reach = draw(st.integers(min_value=0, max_value=3))
    entries = {}
    for i in range(lo, lo + width):
        for j in range(max(lo, i - reach), min(lo + width - 1, i + reach) + 1):
            if draw(st.booleans()):
                entries[(i, j)] = complex(draw(STENCIL_PARTS), draw(STENCIL_PARTS))
    return InteractionWindow(lo=lo, hi=lo + width - 1, entries=entries)


@settings(derandomize=True, deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(stencil_windows())
def test_stencil_holds_every_row_bit_for_bit(win):
    """``coeffs[t, reach + d]`` is ``hamiltonian_row(win, lo - 1 + t, 0.0)`` at site m + d, signed zeros included."""
    coeffs = row_stencil(win).coeffs
    reach = coeffs.shape[1] // 2
    assert reach == max([1, *(abs(i - j) for i, j in win.entries)]) and len(coeffs) == win.hi - win.lo + 3
    for t, m in enumerate(range(win.lo - 1, win.hi + 2)):
        row = hamiltonian_row(win, m, 0.0)
        assert all(abs(j - m) <= reach for j in row)
        expected = np.array([row.get(m + d, 0j) for d in range(-reach, reach + 1)], dtype=complex)
        assert coeffs[t].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


SAMPLE = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5e308, -1e300]),
)


@STACK_SETTINGS
@given(windows(), ANGLES, st.data())
def test_residual_matches_cpython_arithmetic(win, phis, data):
    """Arbitrary samples, NaN, inf and overflowing row sums included.

    A finite residual agrees to rounding of the largest row terms.  Where
    CPython's arithmetic gives NaN or overflows, the residual fails every
    gate: it is NaN, inf, or a product that CPython rounded past the float
    range and a fused multiply-add kept just inside it.
    """
    size = win.hi - win.lo + 5
    psi = np.array([complex(data.draw(SAMPLE), data.draw(SAMPLE)) for _ in range(size)])
    for phi in phis:
        expected = _reference(lambda w, p: reference_residual_overflow_as_inf(w, p, psi), win, phi)
        got = _reference(lambda w, p: residual(w, p, psi), win, phi)
        if math.isfinite(expected):
            terms = np.abs(np.array([c for m in range(win.lo - 1, win.hi + 2)
                                     for c in hamiltonian_row(win, m, 2.0 * math.cos(phi.phi)).values()]))
            assert abs(got - expected) <= 1e-14 * terms.max() * np.abs(psi).max()
        else:
            assert not got < 1e307


def test_residual_overflow_is_inf():
    win = InteractionWindow(lo=0, hi=0)
    psi = np.zeros(5, dtype=complex)
    psi[0] = complex(-1.5e308, -1.5e308)  # row -1: -psi[-2] has a finite sum whose modulus overflows
    with pytest.raises(OverflowError, match="absolute value too large"):
        reference_residual(win, PhiAngle(1.0), psi)
    assert residual(win, PhiAngle(1.0), psi) == math.inf
    psi[4] = complex(math.nan, 0.0)  # a NaN row after it (row 1) makes the result NaN
    assert math.isnan(residual(win, PhiAngle(1.0), psi))
    psi[:] = 0j
    psi[1] = complex(math.nan, 0.0)  # and so does a NaN row before it
    psi[2] = complex(-1.5e308, -1.5e308)
    assert math.isnan(residual(win, PhiAngle(1.0), psi))


def _bits(report):
    r = np.array([report.amplitudes.R, report.amplitudes.T]).tobytes()
    return r, report.psi.tobytes(), np.float64(report.residual_max).tobytes()


def test_single_point_functions_are_stacks_of_one():
    win = build_pt_delta_pair(2, 0.4)
    phis = [PhiAngle(0.3), PhiAngle(1.7)]
    points = [(win, phi) for phi in phis]
    for phi, rm, rt in zip(phis, solve_matching_stack(points), solve_transfer_stack(points)):
        assert _bits(solve_matching(win, phi)) == _bits(rm)
        assert _bits(solve_transfer_matrix(win, phi)) == _bits(rt)


def test_blocked_windows_fail_at_every_angle_with_fresh_exceptions():
    phis = [PhiAngle(0.4), PhiAngle(1.2)]
    severed = build_pt_delta_pair(1, 1.0)
    matching = list(solve_matching_stack((severed, phi) for phi in phis))
    transfer = list(solve_transfer_stack((severed, phi) for phi in phis))
    assert matching[0] is not matching[1] and transfer[0] is not transfer[1]
    assert all(isinstance(o, SingularSystem) for o in matching)
    assert all(isinstance(o, ZeroHopping) for o in transfer)
    wide = InteractionWindow(lo=0, hi=3, entries={(0, 2): 0.1})
    assert all(isinstance(o, NotTridiagonal) for o in solve_transfer_stack((wide, phi) for phi in phis))


def test_two_severed_bonds_name_the_lowest_bond_for_matching_and_the_highest_for_transfer():
    """Matching scans bonds from lo up, (i+1, i) before (i, i+1); transfer solves rows from hi down.

    The entries are given out of site order, so neither message can come from the entry order.
    """
    win = InteractionWindow(lo=0, hi=4, entries={(4, 3): 1.0, (3, 4): 0.5, (1, 2): 1.0, (2, 1): 1.0})
    phi = PhiAngle(1.0)
    with pytest.raises(SingularSystem) as matching:
        solve_matching(win, phi)
    assert str(matching.value) == "total coupling -1 + W(2, 1) vanishes; the chain is severed at that bond"
    with pytest.raises(ZeroHopping) as transfer:
        solve_transfer_matrix(win, phi)
    assert str(transfer.value) == "total coupling -1 + W[4, 3] vanishes"


@pytest.mark.parametrize(
    "stack, reference",
    [(solve_matching_stack, reference_solve_matching), (solve_transfer_stack, reference_solve_transfer)],
)
def test_stacks_stream_a_generator(stack, reference):
    """Interleaved points of several shapes and a blocked window, read lazily from a generator.

    The two 4-site windows of reach 2 fill different band cells yet share one
    chunk; the last window's row 0 gives offset 3 before offset 2.
    """
    wins = [build_pt_delta_pair(1, 0.4), build_pt_delta_pair(3, -0.2), build_pt_delta_pair(1, 1.0),
            build_ultralocal(0.5), InteractionWindow(lo=0, hi=3, entries={(0, 2): 0.1, (3, 1): -0.2j}),
            InteractionWindow(lo=5, hi=8, entries={(6, 8): 0.3, (7, 7): -0.1, (5, 6): 0.2j}),
            InteractionWindow(lo=-1, hi=4, entries={(0, 3): 0.2, (0, 2): -0.1j, (4, 1): 0.05})]
    points = [(win, PhiAngle(0.3 + 0.4 * k)) for k in range(6) for win in wins]
    drawn = []

    def feed():
        for point in points:
            drawn.append(point)
            yield point

    outcomes = stack(feed())
    first = next(outcomes)
    assert len(drawn) < len(points)
    got = [first, *outcomes]
    assert len(got) == len(points)
    for outcome, (win, phi) in zip(got, points):
        _assert_agrees(outcome, _reference(reference, win, phi), win, phi)


def test_oracle_raises_the_first_failure_in_draw_order(monkeypatch):
    """Windows are solved width by width, yet the error is the first drawn one's."""
    from ptscatter import analysis

    draw = analysis.random_tridiagonal_window
    made = []

    def severed_after_two(rng, width, lo):
        win = draw(rng, width, lo)
        made.append(win)
        if len(made) > 2:  # sever the bond (lo+1, lo) of every later window
            win = InteractionWindow(win.lo, win.hi, {**win.entries, (lo + 1, lo): 1.0})
        return win

    monkeypatch.setattr(analysis, "random_tridiagonal_window", severed_after_two)
    with pytest.raises(SingularSystem) as caught:
        analysis.transfer_matching_agreement(n_windows=40, angles_per_window=3)
    third = made[2]
    bond = (third.lo + 1, third.lo)
    assert str(caught.value) == f"total coupling -1 + W{bond} vanishes; the chain is severed at that bond"
    assert len({win.hi - win.lo for win in made}) > 3
