"""Closed-form evaluators against each other and against the matching solver."""

import math

import numpy as np
import pytest

from ptscatter import (
    ModelFamily,
    PhiAngle,
    SingularCoupling,
    build_pt_delta_pair,
    build_ultralocal,
    cf_m1,
    cf_m2,
    cf_m3,
    cf_ultralocal,
    cf_ultralocal_prob_sum,
    closed_form_amplitudes,
    solve_matching,
    ultralocal_anomaly_u,
)
from ptscatter.closedforms import _param_a, _param_alpha, _param_beta, _param_gamma

X_GRID = [float(x) for x in np.linspace(-0.9, 0.9, 19)]
PHI_GRID = [PhiAngle(p) for p in np.linspace(0.1, math.pi - 0.1, 17)]


class TestSeparationOne:
    def test_zero_coupling(self):
        amps = cf_m1(0.0, PhiAngle(0.7))
        assert amps.R == 0 and amps.T == 1

    def test_quarter_band_reflectionless(self):
        # cot(pi/2) = 0 kills A regardless of coupling
        amps = cf_m1(0.5, PhiAngle(math.pi / 2))
        assert amps.R == pytest.approx(0j, abs=1e-15)
        assert amps.T == pytest.approx(1 + 0j, abs=1e-15)

    def test_frozen_point(self):
        amps = cf_m1(0.5, PhiAngle(math.pi / 3))
        assert amps.R == pytest.approx(complex(-1 / 28, -3 * math.sqrt(3) / 28), abs=1e-15)
        assert amps.T == pytest.approx(complex(27 / 28, -3 * math.sqrt(3) / 28), abs=1e-15)

    def test_probability_is_identically_one(self):
        for x in X_GRID:
            for phi in PHI_GRID:
                assert cf_m1(x, phi).prob_sum == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_unit_coupling_rejected(self, x):
        with pytest.raises(SingularCoupling):
            cf_m1(x, PhiAngle(1.0))


class TestSeparationTwo:
    def test_zero_coupling_is_free(self):
        amps = cf_m2(0.0, PhiAngle(1.0))
        assert amps.R == pytest.approx(0j, abs=1e-15)
        assert amps.T == pytest.approx(1 + 0j, abs=1e-15)

    def test_probability_at_spot_point(self):
        assert cf_m2(0.4, PhiAngle(1.1)).prob_sum == pytest.approx(1.0, abs=1e-14)

    def test_matches_matching_solver_at_spot_point(self):
        cf = cf_m2(0.4, PhiAngle(1.1))
        num = solve_matching(build_pt_delta_pair(2, 0.4), PhiAngle(1.1)).amplitudes
        assert abs(cf.R - num.R) < 1e-10
        assert abs(cf.T - num.T) < 1e-10

    def test_probability_is_identically_one(self):
        for x in X_GRID:
            for phi in PHI_GRID:
                assert cf_m2(x, phi).prob_sum == pytest.approx(1.0, abs=1e-13)

    def test_difference_is_unimodular(self):
        for x in X_GRID:
            for phi in PHI_GRID:
                amps = cf_m2(x, phi)
                assert abs(abs(amps.T - amps.R) - 1.0) < 1e-13

    def test_singular_denominators(self):
        with pytest.raises(SingularCoupling):
            cf_m2(1.0, PhiAngle(math.pi / 4))  # 1 - 2 x^2 cos^2 = 1 - x^2 there
        with pytest.raises(SingularCoupling):
            cf_m2(1.0, PhiAngle(math.pi / 2))  # 1 + x^2 cos(2 phi) = 1 - x^2 there


class TestSeparationThree:
    def test_zero_coupling_ratios(self):
        amps = cf_m3(0.0, PhiAngle(1.3))
        assert abs(abs(amps.T - amps.R) - 1.0) < 1e-14
        assert amps.prob_sum == pytest.approx(1.0, abs=1e-14)
        assert amps.R == pytest.approx(0j, abs=1e-14)

    def test_probability_at_spot_point(self):
        assert cf_m3(0.6, PhiAngle(0.9)).prob_sum == pytest.approx(1.0, abs=1e-13)

    def test_matches_matching_solver_at_spot_point(self):
        cf = cf_m3(0.6, PhiAngle(0.9))
        num = solve_matching(build_pt_delta_pair(3, 0.6), PhiAngle(0.9)).amplitudes
        assert abs(cf.R - num.R) < 1e-10
        assert abs(cf.T - num.T) < 1e-10

    def test_probability_and_unimodularity_on_grid(self):
        for x in X_GRID:
            for phi in PHI_GRID:
                amps = cf_m3(x, phi)
                assert amps.prob_sum == pytest.approx(1.0, abs=1e-13)
                assert abs(abs(amps.T - amps.R) - 1.0) < 1e-13

    def test_singular_denominator(self):
        # at phi=pi/3 the difference-ratio denominator is 1 - x^2
        with pytest.raises(SingularCoupling):
            cf_m3(1.0, PhiAngle(math.pi / 3))


class TestClosedFormsAgreeWithSolver:
    @pytest.mark.parametrize("m_sep,form", [(1, cf_m1), (2, cf_m2), (3, cf_m3)])
    def test_componentwise_agreement_on_grid(self, m_sep, form):
        for x in X_GRID:
            win = build_pt_delta_pair(m_sep, x)
            for phi in PHI_GRID[::2]:
                cf = form(x, phi)
                num = solve_matching(win, phi).amplitudes
                assert abs(cf.R - num.R) < 1e-10
                assert abs(cf.T - num.T) < 1e-10


class TestUltralocal:
    def test_zero_coupling(self):
        amps = cf_ultralocal(0.0, PhiAngle(0.8))
        assert amps.R == 0
        assert amps.T == pytest.approx(1 + 0j, abs=1e-15)

    def test_frozen_point(self):
        amps = cf_ultralocal(0.5, PhiAngle(math.pi / 2))
        assert amps.R == pytest.approx(1 / 7 + 0j, abs=1e-14)
        assert amps.T == pytest.approx(4 / 7 + 0j, abs=1e-14)
        assert amps.prob_sum == pytest.approx(17 / 49, abs=1e-13)

    def test_sign_flipped_point(self):
        amps = cf_ultralocal(-0.5, PhiAngle(math.pi / 2))
        assert amps.prob_sum == pytest.approx(145 / 49, abs=1e-12)

    def test_matches_matching_solver(self):
        for a in X_GRID:
            for phi in PHI_GRID[::2]:
                cf = cf_ultralocal(a, phi)
                num = solve_matching(build_ultralocal(a), phi).amplitudes
                assert abs(cf.R - num.R) < 1e-10
                assert abs(cf.T - num.T) < 1e-10

    def test_singular_delta(self):
        # Delta = 1 - (1 - a^2) e^{2i phi} = 0 at a = sqrt(2), phi = pi/2
        with pytest.raises(SingularCoupling):
            cf_ultralocal(math.sqrt(2.0), PhiAngle(math.pi / 2))


class TestUltralocalProbSum:
    def test_zero_coupling_is_one(self):
        assert cf_ultralocal_prob_sum(0.0, PhiAngle(1.1)) == pytest.approx(1.0)

    def test_frozen_point_and_anomaly_value(self):
        phi = PhiAngle(math.pi / 2)
        assert ultralocal_anomaly_u(0.5, phi) == pytest.approx(0.03125, abs=1e-15)
        assert cf_ultralocal_prob_sum(0.5, phi) == pytest.approx(17 / 49, abs=1e-12)
        assert cf_ultralocal_prob_sum(-0.5, phi) == pytest.approx(145 / 49, abs=1e-12)

    def test_consistent_with_amplitude_route(self):
        for a in X_GRID:
            for phi in PHI_GRID:
                direct = cf_ultralocal_prob_sum(a, phi)
                via_amps = cf_ultralocal(a, phi).prob_sum
                assert abs(direct - via_amps) < 1e-12

    def test_defect_sign_opposes_coupling(self):
        for a in X_GRID:
            if a == 0.0:
                continue
            for phi in PHI_GRID:
                defect = cf_ultralocal_prob_sum(a, phi) - 1.0
                assert math.copysign(1.0, defect) == -math.copysign(1.0, a)

    def test_unit_coupling_rejected(self):
        with pytest.raises(SingularCoupling):
            cf_ultralocal_prob_sum(1.0, PhiAngle(1.0))


class TestClosedFormParams:
    # The real Cayley-ratio parameters behind the delta-pair closed forms.
    PARAMS = (_param_a, _param_alpha, _param_beta, _param_gamma)

    def test_all_real_and_finite_on_grid(self):
        for x in X_GRID:
            for phi in PHI_GRID:
                for param in self.PARAMS:
                    value = param(x, phi.phi)
                    assert isinstance(value, float) and math.isfinite(value)

    def test_params_reproduce_the_difference_ratios(self):
        # Cayley transform of beta is T-R at separation 2; of gamma, at separation 3.
        for x in (0.3, 0.7):
            for phi in PHI_GRID[::3]:
                m2 = cf_m2(x, phi)
                m3 = cf_m3(x, phi)
                cayley = lambda t: (1 - 1j * t) / (1 + 1j * t)
                assert m2.T - m2.R == pytest.approx(cayley(_param_beta(x, phi.phi)), abs=1e-12)
                assert m3.T - m3.R == pytest.approx(cayley(_param_gamma(x, phi.phi)), abs=1e-12)

    def test_params_reproduce_m1_amplitudes(self):
        x, phi = 0.45, PhiAngle(0.8)
        amps = cf_m1(x, phi)
        assert amps.T == pytest.approx(1 / (1 + 1j * _param_a(x, phi.phi)), abs=1e-14)


class TestDispatch:
    def test_pt_pair_routes_to_forms(self):
        phi = PhiAngle(1.0)
        for m_sep, form in ((1, cf_m1), (2, cf_m2), (3, cf_m3)):
            got = closed_form_amplitudes(ModelFamily.pt_delta_pair(m_sep, 0.4), phi)
            want = form(0.4, phi)
            assert got.R == want.R and got.T == want.T

    def test_ultralocal_routes(self):
        phi = PhiAngle(1.0)
        got = closed_form_amplitudes(ModelFamily.ultralocal(0.3), phi)
        want = cf_ultralocal(0.3, phi)
        assert got.R == want.R and got.T == want.T

    def test_large_separation_has_no_form(self):
        with pytest.raises(ValueError):
            closed_form_amplitudes(ModelFamily.pt_delta_pair(4, 0.4), PhiAngle(1.0))

    def test_custom_has_no_form(self):
        from ptscatter import InteractionWindow

        model = ModelFamily.custom_window(InteractionWindow(lo=0, hi=0))
        with pytest.raises(ValueError):
            closed_form_amplitudes(model, PhiAngle(1.0))
