"""Domain types: angles, energies, windows, model builders, PT checks."""

import math

import numpy as np
import pytest

from ptscatter import (
    InteractionWindow,
    ModelFamily,
    PhiAngle,
    ScatteringAmplitudes,
    build_pt_delta_pair,
    build_ultralocal,
    energy_from_phi,
    first_pt_violation,
    is_pt_symmetric,
    pt_conjugate,
)
from ptscatter.core import MAX_WINDOW_SITES


class TestPhiAngle:
    def test_accepts_interior_values(self):
        assert PhiAngle(1.0).phi == 1.0
        assert PhiAngle(3.14).phi == 3.14

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.3, 4.0, math.nan, 1e-9, math.pi - 1e-9])
    def test_rejects_out_of_band(self, bad):
        with pytest.raises(ValueError):
            PhiAngle(bad)


class TestEnergyFromPhi:
    def test_midband_shifted(self):
        # cos(pi/2) = 0
        assert energy_from_phi(PhiAngle(math.pi / 2), shifted=True) == pytest.approx(2.0)

    def test_band_limits_shifted(self):
        low = energy_from_phi(PhiAngle(1e-6), shifted=True)
        high = energy_from_phi(PhiAngle(math.pi - 1e-6), shifted=True)
        assert 0.0 < low < 1e-11
        assert 4.0 - 1e-11 < high < 4.0

    def test_zero_diagonal_band(self):
        assert energy_from_phi(PhiAngle(math.pi / 2)) == pytest.approx(0.0, abs=1e-15)
        assert -2.0 < energy_from_phi(PhiAngle(0.01)) < 2.0

    def test_strictly_monotone_in_phi(self):
        values = [energy_from_phi(PhiAngle(p), shifted=True) for p in np.linspace(1e-4, math.pi - 1e-4, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestInteractionWindow:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            InteractionWindow(lo=1, hi=0)

    def test_rejects_entry_outside_bounds(self):
        with pytest.raises(ValueError):
            InteractionWindow(lo=0, hi=1, entries={(0, 2): 1.0})

    @pytest.mark.parametrize(
        "value",
        [math.nan, complex(0.5, math.nan), math.inf, complex(0.0, -math.inf), complex(1.5e308, 1.5e308), -1.7e308 - 1.7e308j],
    )
    def test_rejects_entries_without_a_finite_modulus(self, value):
        with pytest.raises(ValueError, match=r"entry \(0, 1\) = .* must have a finite modulus"):
            InteractionWindow(lo=0, hi=1, entries={(1, 1): 0.5, (0, 1): value})

    def test_accepts_the_largest_finite_modulus(self):
        value = complex(1.2e308, 1.2e308)  # |value| ~ 1.7e308, each part and the modulus finite
        assert InteractionWindow(lo=0, hi=0, entries={(0, 0): value}).max_abs_entry() == abs(value)

    def test_accepts_a_window_at_the_width_cap(self):
        win = InteractionWindow(lo=-50, hi=MAX_WINDOW_SITES - 51, entries={(-50, -50): 1.0})
        assert win.hi - win.lo + 1 == MAX_WINDOW_SITES

    def test_rejects_a_window_beyond_the_width_cap(self):
        with pytest.raises(ValueError, match=f"spans {MAX_WINDOW_SITES + 1} sites; at most {MAX_WINDOW_SITES}"):
            InteractionWindow(lo=-50, hi=MAX_WINDOW_SITES - 50)

    def test_accepts_a_band_at_the_cap(self):
        """Reach 3 stores 10 cells a site, so 40000 sites fill the 4 * MAX_WINDOW_SITES cells of the cap."""
        sites = 4 * MAX_WINDOW_SITES // 10
        win = InteractionWindow(lo=0, hi=sites - 1, entries={(0, 3): 0.1})
        assert (win.hi - win.lo + 1) * 10 == 4 * MAX_WINDOW_SITES

    def test_rejects_a_band_beyond_the_cap(self):
        sites = 4 * MAX_WINDOW_SITES // 10 + 1
        with pytest.raises(ValueError, match=f"has reach 3: its band of {10 * sites} cells exceeds"):
            InteractionWindow(lo=0, hi=sites - 1, entries={(0, 3): 0.1})

    def test_absent_pairs_read_as_zero(self):
        win = InteractionWindow(lo=0, hi=2, entries={(0, 1): 2.0})
        assert win.entry(0, 1) == 2.0
        assert win.entry(2, 0) == 0.0

    def test_exact_zero_entries_are_dropped(self):
        padded = InteractionWindow(lo=0, hi=1, entries={(0, 1): 1.0, (1, 0): 0.0})
        bare = InteractionWindow(lo=0, hi=1, entries={(0, 1): 1.0})
        assert padded == bare

    def test_tridiagonal_detection(self):
        assert build_pt_delta_pair(3, 0.2).is_tridiagonal()
        assert not InteractionWindow(lo=0, hi=2, entries={(0, 2): 1.0}).is_tridiagonal()


class TestModelBuilders:
    def test_pair_m1_entries(self):
        win = build_pt_delta_pair(1, 0.5)
        assert win.lo == -1 and win.hi == 1
        assert win.entries == {(0, -1): 0.5, (0, 1): 0.5, (-1, 0): -0.5, (1, 0): -0.5}

    def test_pair_m3_entries(self):
        win = build_pt_delta_pair(3, 0.5)
        assert win.entries == {(-2, -3): 0.5, (2, 3): 0.5, (-3, -2): -0.5, (3, 2): -0.5}

    def test_pair_zero_coupling_is_empty(self):
        win = build_pt_delta_pair(2, 0.0)
        assert win.entries == {} and (win.lo, win.hi) == (-2, 2)

    def test_pair_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            build_pt_delta_pair(0, 0.5)

    def test_ultralocal_entries(self):
        assert build_ultralocal(0.5).entries == {(0, 1): -0.5, (1, 0): 0.5}
        assert build_ultralocal(-1.0).entries == {(0, 1): 1.0, (1, 0): -1.0}
        assert build_ultralocal(0.0).entries == {}


class TestPTSymmetry:
    @pytest.mark.parametrize("m_sep", range(1, 13))
    def test_delta_pair_always_symmetric(self, m_sep):
        rng = np.random.default_rng(42 + m_sep)
        for x in rng.uniform(-5.0, 5.0, size=100):
            assert is_pt_symmetric(build_pt_delta_pair(m_sep, float(x)))

    @pytest.mark.parametrize("a", [0.4, -0.7, 1.0])
    def test_ultralocal_never_symmetric(self, a):
        assert not is_pt_symmetric(build_ultralocal(a))

    def test_empty_window_is_symmetric(self):
        assert is_pt_symmetric(InteractionWindow(lo=-2, hi=2))

    def test_real_diagonal_at_origin_is_symmetric(self):
        assert is_pt_symmetric(InteractionWindow(lo=0, hi=0, entries={(0, 0): 0.7}))

    def test_complex_diagonal_at_origin_is_not(self):
        assert not is_pt_symmetric(InteractionWindow(lo=0, hi=0, entries={(0, 0): 0.7 + 0.1j}))

    def test_off_center_diagonal_is_not(self):
        assert not is_pt_symmetric(InteractionWindow(lo=0, hi=1, entries={(1, 1): 0.7}))

    def test_mirrored_complex_pair_is_symmetric(self):
        win = InteractionWindow(lo=-1, hi=1, entries={(1, 1): 0.3 + 0.2j, (-1, -1): 0.3 - 0.2j})
        assert is_pt_symmetric(win)

    def test_invariant_under_zero_padding(self):
        win = build_ultralocal(0.4)
        padded = InteractionWindow(lo=-1, hi=1, entries={(0, 1): -0.4, (1, 0): 0.4, (-1, -1): 0.0})
        embedded = InteractionWindow(lo=-1, hi=1, entries=win.entries)
        assert is_pt_symmetric(win) == is_pt_symmetric(padded) == is_pt_symmetric(embedded)

    def test_first_violation_reports_lowest_pair(self):
        violation = first_pt_violation(build_ultralocal(0.4))
        assert violation is not None
        pair, value, mirror = violation
        assert pair == (0, 1)
        assert value == -0.4
        assert mirror == 0.0

    def test_pt_conjugate_is_an_involution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            entries = {
                (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): complex(rng.normal(), rng.normal())
                for _ in range(5)
            }
            win = InteractionWindow(lo=-3, hi=3, entries=entries)
            assert pt_conjugate(pt_conjugate(win)) == win

    def test_pt_conjugate_of_a_narrow_window_far_out_exceeds_the_cap(self):
        """The image spans [-n, n] with n = max(|lo|, |hi|), so one site at n = 50000 is already too wide."""
        far = InteractionWindow(lo=50_000, hi=50_000, entries={(50_000, 50_000): 1.0})
        with pytest.raises(ValueError, match=f"spans 100001 sites; at most {MAX_WINDOW_SITES}"):
            pt_conjugate(far)


class TestModelFamily:
    def test_pair_roundtrip(self):
        model = ModelFamily.pt_delta_pair(2, 0.3)
        assert model.window() == build_pt_delta_pair(2, 0.3)
        assert (model.kind, model.m_sep, model.coupling, model.x) == ("pt-pair", 2, 0.3, 0.3)

    def test_ultralocal_roundtrip(self):
        model = ModelFamily.ultralocal(-0.2)
        assert model.window() == build_ultralocal(-0.2)
        assert (model.kind, model.m_sep, model.coupling, model.a) == ("ultralocal", 0, -0.2, -0.2)

    def test_custom_roundtrip(self):
        win = InteractionWindow(lo=0, hi=0, entries={(0, 0): 1.0})
        model = ModelFamily.custom_window(win)
        assert model.window() is win
        assert (model.kind, model.m_sep) == ("custom", 0)
        assert math.isnan(model.coupling)

    def test_validation(self):
        for m_sep in (0, -1):
            with pytest.raises(ValueError, match="separation"):
                ModelFamily.pt_delta_pair(m_sep, 0.1)
        widest = (MAX_WINDOW_SITES - 1) // 2
        assert ModelFamily.pt_delta_pair(widest, 0.1).m_sep == widest
        with pytest.raises(ValueError, match=f"separation {widest + 1} spans {2 * widest + 3} sites"):
            ModelFamily.pt_delta_pair(widest + 1, 0.1)
        for coupling in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                ModelFamily.pt_delta_pair(1, coupling)
            with pytest.raises(ValueError, match="finite"):
                ModelFamily.ultralocal(coupling)


class TestValueTypes:
    def test_amplitude_derived_fields(self):
        amps = ScatteringAmplitudes(R=3 / 5, T=4j / 5)
        assert amps.prob_reflected == pytest.approx(0.36)
        assert amps.prob_transmitted == pytest.approx(0.64)
        assert amps.prob_sum == pytest.approx(1.0)
        assert amps.defect == pytest.approx(0.0, abs=1e-15)
