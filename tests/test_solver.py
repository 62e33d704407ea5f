"""Matching and transfer-matrix solvers, their oracles, and failure modes."""

import cmath
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from test_elimination import solve_dense

from ptscatter import (
    InteractionWindow,
    NotTridiagonal,
    PhiAngle,
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
from ptscatter.analysis import default_phi_grid, random_tridiagonal_window
from ptscatter.core import MAX_WINDOW_SITES, PHI_EDGE_GUARD, plane_wave
from ptscatter.solver import _waves

BOTH_SOLVERS = pytest.mark.parametrize("solve", [solve_matching, solve_transfer_matrix])


class TestFreeMotion:
    @BOTH_SOLVERS
    @pytest.mark.parametrize("phi", [1.0, 2.0, 0.3])
    def test_empty_window_transmits_fully(self, solve, phi):
        report = solve(InteractionWindow(lo=0, hi=0), PhiAngle(phi))
        assert abs(report.amplitudes.R) < 1e-13
        assert abs(report.amplitudes.T - 1.0) < 1e-13
        assert report.residual_max < 1e-14

    @BOTH_SOLVERS
    def test_zero_coupling_pair_transmits_fully(self, solve):
        for m_sep in range(1, 7):
            report = solve(build_pt_delta_pair(m_sep, 0.0), PhiAngle(1.3))
            assert abs(report.amplitudes.R) < 1e-12
            assert abs(report.amplitudes.T - 1.0) < 1e-12


class TestAgainstClosedFormOracles:
    # Delta pair at separation 1, x=0.5, phi=pi/3.  Frozen from
    # T = 1/(1+iA), R = -iA/(1+iA), A = x^2/(1-x^2)*cot(phi) = 1/(3*sqrt(3)):
    # R = -1/28 - i*3*sqrt(3)/28, T = 27/28 - i*3*sqrt(3)/28.
    M1_R = complex(-1 / 28, -3 * math.sqrt(3) / 28)
    M1_T = complex(27 / 28, -3 * math.sqrt(3) / 28)

    @BOTH_SOLVERS
    def test_pair_m1_frozen_point(self, solve):
        report = solve(build_pt_delta_pair(1, 0.5), PhiAngle(math.pi / 3))
        assert report.amplitudes.R == pytest.approx(self.M1_R, abs=1e-12)
        assert report.amplitudes.T == pytest.approx(self.M1_T, abs=1e-12)
        assert report.amplitudes.prob_sum == pytest.approx(1.0, abs=1e-12)

    @BOTH_SOLVERS
    def test_ultralocal_frozen_point(self, solve):
        # a=0.5 at phi=pi/2: Delta=1.75, R = -a^2 e^{2i phi}/Delta = 1/7,
        # T = (1-a)(1-e^{2i phi})/Delta = 4/7; |R|^2+|T|^2 = 17/49.
        report = solve(build_ultralocal(0.5), PhiAngle(math.pi / 2))
        assert report.amplitudes.R == pytest.approx(1 / 7 + 0j, abs=1e-12)
        assert report.amplitudes.T == pytest.approx(4 / 7 + 0j, abs=1e-12)
        assert abs(report.amplitudes.R) == pytest.approx(1 / 7, abs=1e-12)
        assert abs(report.amplitudes.T) == pytest.approx(4 / 7, abs=1e-12)
        assert report.amplitudes.prob_sum == pytest.approx(17 / 49, abs=1e-12)

    @BOTH_SOLVERS
    def test_single_site_impurity(self, solve):
        # Hand-derived for one real diagonal entry w at site 0:
        # T e^{i m phi} matching on the right forces T = 1 + R, and the site-0
        # row gives R = w/(2i sin(phi) - w).
        w, phi = 0.8, 1.2
        report = solve(InteractionWindow(lo=0, hi=0, entries={(0, 0): w}), PhiAngle(phi))
        expected_r = w / (2j * math.sin(phi) - w)
        assert report.amplitudes.R == pytest.approx(expected_r, abs=1e-12)
        assert report.amplitudes.T == pytest.approx(1 + expected_r, abs=1e-12)
        assert report.amplitudes.prob_sum == pytest.approx(1.0, abs=1e-12)


class TestOracleAgreement:
    def test_pair_m2_point(self):
        rm = solve_matching(build_pt_delta_pair(2, 0.3), PhiAngle(1.2))
        rt = solve_transfer_matrix(build_pt_delta_pair(2, 0.3), PhiAngle(1.2))
        assert abs(rm.amplitudes.R - rt.amplitudes.R) < 1e-10
        assert abs(rm.amplitudes.T - rt.amplitudes.T) < 1e-10

    def test_random_tridiagonal_windows(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            width = int(rng.integers(2, 16))
            lo = int(rng.integers(-10, 11 - width))
            win = random_tridiagonal_window(rng, width, lo)
            for _ in range(5):
                phi = PhiAngle(float(rng.uniform(0.05, math.pi - 0.05)))
                rm = solve_matching(win, phi)
                rt = solve_transfer_matrix(win, phi)
                assert abs(rm.amplitudes.R - rt.amplitudes.R) < 1e-9
                assert abs(rm.amplitudes.T - rt.amplitudes.T) < 1e-9

    def test_ultralocal_agreement_across_couplings(self):
        for a in np.linspace(-0.9, 0.9, 10):
            for phi in (0.4, 1.1, 2.7):
                rm = solve_matching(build_ultralocal(float(a)), PhiAngle(phi))
                rt = solve_transfer_matrix(build_ultralocal(float(a)), PhiAngle(phi))
                assert abs(rm.amplitudes.R - rt.amplitudes.R) < 1e-10
                assert abs(rm.amplitudes.T - rt.amplitudes.T) < 1e-10


class TestPairFamilyProperties:
    PHIS = [PhiAngle(p) for p in np.linspace(0.1, math.pi - 0.1, 9)]

    @BOTH_SOLVERS
    @pytest.mark.parametrize("m_sep", range(1, 9))
    def test_probability_conserved(self, solve, m_sep):
        for x in np.arange(-0.8, 0.9, 0.4):
            win = build_pt_delta_pair(m_sep, float(x))
            for phi in self.PHIS:
                assert abs(solve(win, phi).amplitudes.defect) < 1e-10

    @pytest.mark.parametrize("m_sep", range(1, 9))
    def test_difference_is_unimodular(self, m_sep):
        for x in (-0.7, 0.3, 0.9):
            win = build_pt_delta_pair(m_sep, x)
            for phi in self.PHIS:
                amps = solve_matching(win, phi).amplitudes
                assert abs(abs(amps.T - amps.R) - 1.0) < 1e-10

    def test_difference_is_exactly_one_at_m1(self):
        for x in (-0.5, 0.2, 0.8):
            for phi in self.PHIS:
                amps = solve_matching(build_pt_delta_pair(1, x), phi).amplitudes
                assert amps.T - amps.R == pytest.approx(1.0 + 0j, abs=1e-12)

    @pytest.mark.parametrize("m_sep", range(1, 9))
    def test_amplitudes_even_in_coupling(self, m_sep):
        for x in (0.2, 0.5, 0.9):
            for phi in self.PHIS:
                plus = solve_matching(build_pt_delta_pair(m_sep, x), phi).amplitudes
                minus = solve_matching(build_pt_delta_pair(m_sep, -x), phi).amplitudes
                assert abs(plus.R - minus.R) < 1e-10
                assert abs(plus.T - minus.T) < 1e-10

    def test_ultralocal_defect_sign_opposes_coupling(self):
        for a in (-0.8, -0.3, 0.3, 0.8):
            for phi in self.PHIS:
                defect = solve_matching(build_ultralocal(a), phi).amplitudes.defect
                assert math.copysign(1.0, defect) == -math.copysign(1.0, a)


class TestSingularInputs:
    @pytest.mark.parametrize("x", [1.0, -1.0])
    @pytest.mark.parametrize("m_sep", [1, 2, 5])
    def test_unit_coupling_is_singular_for_matching(self, m_sep, x):
        with pytest.raises(SingularSystem):
            solve_matching(build_pt_delta_pair(m_sep, x), PhiAngle(1.0))

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_unit_coupling_is_zero_hopping_for_transfer(self, x):
        with pytest.raises(ZeroHopping):
            solve_transfer_matrix(build_pt_delta_pair(2, x), PhiAngle(1.0))

    def test_zero_hopping_is_a_singular_system(self):
        assert issubclass(ZeroHopping, SingularSystem)

    def test_ultralocal_unit_coupling_is_singular(self):
        with pytest.raises(SingularSystem):
            solve_matching(build_ultralocal(1.0), PhiAngle(0.9))
        with pytest.raises(ZeroHopping):
            solve_transfer_matrix(build_ultralocal(1.0), PhiAngle(0.9))

    def test_large_diagonal_barrier_is_not_severed(self):
        # The bond tolerance scales with that bond's own entry, not with the
        # largest entry of the window: W[0, 0] = 1e14 leaves both bonds at -1.
        win = InteractionWindow(lo=0, hi=0, entries={(0, 0): 1e14})
        phi = PhiAngle(1.0)
        rt = solve_transfer_matrix(win, phi).amplitudes
        rm = solve_matching(win, phi).amplitudes
        assert abs(rt.R - rm.R) <= 1e-12
        assert abs(rt.T - rm.T) <= 1e-12

    def test_huge_diagonal_window_solves_by_matching(self):
        # Transfer rescales psi as it grows, so it agrees without overflowing.
        windows = (
            InteractionWindow(lo=0, hi=3, entries={(m, m): 1e150 for m in range(4)}),
            InteractionWindow(lo=-20, hi=20, entries={(m, m): 1e8 * (1 + 0.3j) for m in range(-20, 21)}),
        )
        for win in windows:
            for phi in (PhiAngle(0.3), PhiAngle(1.0), PhiAngle(2.5)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rm = solve_matching(win, phi).amplitudes
                    rt = solve_transfer_matrix(win, phi).amplitudes
                assert math.isfinite(rm.prob_sum)
                assert abs(rt.R - rm.R) <= 1e-12
                assert abs(rt.T - rm.T) <= 1e-12

    def test_matching_keeps_relative_accuracy_on_strong_barriers(self):
        # One site W[0, 0] = V has T = 2i sin(phi) / (2i sin(phi) - V) exactly;
        # matching solves for psi[lo..hi] directly, so no cancelling sum feeds T.
        phi = PhiAngle(1.0)
        for barrier in (1e3, 1e8, 1e15, 1e200):
            exact = 2j * math.sin(phi.phi) / (2j * math.sin(phi.phi) - barrier)
            win = InteractionWindow(lo=0, hi=0, entries={(0, 0): barrier})
            for solve in (solve_matching, solve_transfer_matrix):
                assert abs(solve(win, phi).amplitudes.T - exact) <= 1e-15 * abs(exact), (solve.__name__, barrier)

    def test_non_tridiagonal_rejected_by_transfer(self):
        win = InteractionWindow(lo=0, hi=2, entries={(0, 2): 1.0})
        with pytest.raises(NotTridiagonal):
            solve_transfer_matrix(win, PhiAngle(1.0))
        # the matching solver accepts the same window
        report = solve_matching(win, PhiAngle(1.0))
        assert report.residual_max < 1e-10

    @BOTH_SOLVERS
    @pytest.mark.parametrize("phi", [1e-9, math.pi - 1e-9])
    def test_band_edge_guard(self, solve, phi):
        with pytest.raises(ValueError):
            solve(build_pt_delta_pair(1, 0.5), PhiAngle(phi))


class TestSolveComplexLinear:
    """The band elimination kernel on small dense systems, through ``solve_dense``."""

    def test_identity(self):
        rhs = np.array([1 + 2j, -3.0, 0.5j])
        assert np.allclose(solve_dense(np.eye(3), rhs), rhs)

    def test_permutation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = solve_dense(a, np.array([1 + 1j, 2 - 1j]))
        assert np.allclose(out, [2 - 1j, 1 + 1j])

    def test_random_system_residual(self):
        rng = np.random.default_rng(99)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        x = solve_dense(a, b)
        residual_norm = np.max(np.abs(a @ x - b))
        assert residual_norm <= 1e-12 * np.max(np.abs(b))

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystem):
            solve_dense(a, np.array([1.0, 1.0]))

    def test_zero_row_raises(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(SingularSystem):
            solve_dense(a, np.array([1.0, 1.0]))


class TestMatchingSystemStructure:
    # One row and one unknown psi[m] per site m of [lo, hi].
    def test_anchors_and_dimension_m1(self):
        matrix, rhs = build_matching_system(build_pt_delta_pair(1, 0.5), PhiAngle(1.0))
        assert matrix.shape == (3, 3)
        assert rhs.shape == (3,)

    def test_dimension_m2(self):
        matrix, rhs = build_matching_system(build_pt_delta_pair(2, 0.5), PhiAngle(1.0))
        assert matrix.shape == (5, 5)
        assert rhs.shape == (5,)

    def test_single_site_window_is_one_by_one(self):
        # Both lead corners land on the one cell: 2 cos(phi) - 2 e^{i phi} = -2i sin(phi).
        matrix, rhs = build_matching_system(InteractionWindow(lo=0, hi=0), PhiAngle(1.0))
        assert matrix.shape == (1, 1)
        assert rhs.shape == (1,)
        assert matrix[0, 0] == pytest.approx(-2j * math.sin(1.0), abs=1e-15)
        assert rhs[0] == pytest.approx(-2j * math.sin(1.0), abs=1e-15)


class TestSolveReport:
    def test_wavefunction_extents_and_boundary_forms(self):
        win = build_pt_delta_pair(2, 0.4)
        phi = PhiAngle(1.1)
        report = solve_matching(win, phi)
        psi, base = report.psi, win.lo - 2
        assert psi.shape == (win.hi + 2 - base + 1,)
        amps = report.amplitudes
        for m in range(win.lo - 2, win.lo + 1):
            expected = cmath.exp(1j * m * phi.phi) + amps.R * cmath.exp(-1j * m * phi.phi)
            assert psi[m - base] == pytest.approx(expected, abs=1e-12)
        for m in range(win.hi, win.hi + 3):
            assert psi[m - base] == pytest.approx(amps.T * cmath.exp(1j * m * phi.phi), abs=1e-12)

    def test_fields_are_builtin_numbers(self):
        """The stacks compute in arrays, yet reports and the residual hold builtin numbers."""
        win, phis = build_pt_delta_pair(2, 0.4), [PhiAngle(0.3), PhiAngle(1.1)]
        for solve, stack in ((solve_matching, solve_matching_stack), (solve_transfer_matrix, solve_transfer_stack)):
            for phi, report in [*zip(phis, stack([(win, phi) for phi in phis])), (phis[0], solve(win, phis[0]))]:
                amps = report.amplitudes
                assert (type(amps.R), type(amps.T), type(report.residual_max)) == (complex, complex, float)
                assert type(residual(win, phi, report.psi)) is float

    def test_transfer_wavefunction_matches_matching(self):
        win = build_pt_delta_pair(2, 0.4)
        phi = PhiAngle(1.1)
        wm = solve_matching(win, phi).psi
        wt = solve_transfer_matrix(win, phi).psi
        assert np.allclose(wm, wt, atol=1e-10)


class TestResidual:
    def test_successful_solve_is_within_tolerance(self):
        win = build_pt_delta_pair(2, 0.6)
        phi = PhiAngle(0.9)
        report = solve_matching(win, phi)
        assert residual(win, phi, report.psi) <= 1e-10

    def test_free_plane_wave_is_machine_exact(self):
        report = solve_matching(InteractionWindow(lo=0, hi=0), PhiAngle(1.0))
        assert report.residual_max < 1e-14

    def test_perturbed_transmission_is_detected(self):
        win = build_pt_delta_pair(1, 0.5)
        phi = PhiAngle(1.0)
        report = solve_matching(win, phi)
        perturbed = report.psi.copy()
        for k, m in enumerate(range(win.lo - 2, win.hi + 3)):
            if m >= win.hi:
                perturbed[k] += 1e-3 * cmath.exp(1j * m * phi.phi)
        assert residual(win, phi, perturbed) >= 1e-4

    def test_nan_sample_fails_the_gate(self):
        win = build_pt_delta_pair(1, 0.5)
        phi = PhiAngle(1.0)
        report = solve_matching(win, phi)
        values = report.psi.copy()
        values[0 - (win.lo - 2)] = complex(math.nan, 0.0)  # site 0, inside the window
        assert not residual(win, phi, values) <= 1e-10

    def test_rejects_undersized_wavefunction(self):
        small_win = build_pt_delta_pair(1, 0.3)
        report = solve_matching(small_win, PhiAngle(1.0))
        wide_win = build_pt_delta_pair(2, 0.3)
        with pytest.raises(ValueError):
            residual(wide_win, PhiAngle(1.0), report.psi)
        with pytest.raises(ValueError):
            residual(small_win, PhiAngle(1.0), solve_matching(wide_win, PhiAngle(1.0)).psi)


class TestPlaneWaves:
    """The stacks' plane waves, one ``np.exp`` per chunk, against ``plane_wave`` (``cmath.exp``) bit for bit."""

    SITES = ((1, 0), (-1, 0), (1, -2), (-1, -2), (1, 3))  # (sign, d): site sign * (lo + d)

    def check(self, lows, phis):
        waves = _waves([SimpleNamespace(lo=lo) for lo in lows], phis, self.SITES)
        expected = [[plane_wave(sign * (lo + d), phi) for sign, d in self.SITES] for lo, phi in zip(lows, phis)]
        assert waves.tobytes() == np.array(expected, dtype=complex).tobytes()

    def test_seeded_sites_and_angles(self):
        rng = np.random.default_rng(20261020)
        lows = rng.integers(-MAX_WINDOW_SITES, MAX_WINDOW_SITES + 1, 20000).tolist()
        phis = rng.uniform(PHI_EDGE_GUARD, math.pi - PHI_EDGE_GUARD, 20000).tolist()
        # Site 0 (lo = 0 at d = 0), the widest sites, and both angle edges.
        lows[:6] = [0, 0, MAX_WINDOW_SITES, -MAX_WINDOW_SITES, MAX_WINDOW_SITES, -MAX_WINDOW_SITES]
        phis[:6] = [PHI_EDGE_GUARD, math.pi - PHI_EDGE_GUARD] * 3
        self.check(lows, phis)


@BOTH_SOLVERS
def test_window_at_the_placement_cap_solves_as_at_the_origin(solve):
    """Moving a window by s keeps T and multiplies R by e^{2i phi s}, so |R| stays too."""

    def ultralocal_at(lo):
        return InteractionWindow(lo=lo, hi=lo + 1, entries={(lo, lo + 1): 0.3, (lo + 1, lo): -0.3})

    for phi in default_phi_grid(50):
        far, near = solve(ultralocal_at(-MAX_WINDOW_SITES), phi), solve(ultralocal_at(0), phi)
        assert abs(far.amplitudes.T - near.amplitudes.T) <= 1e-9
        assert abs(abs(far.amplitudes.R) - abs(near.amplitudes.R)) <= 1e-9
