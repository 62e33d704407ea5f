"""Sweeps, unitarity summaries, and the cross-validation oracle triangle."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from ptscatter import (
    CrossValidation,
    InteractionWindow,
    ModelFamily,
    NotTridiagonal,
    PhiAngle,
    SingularSystem,
    SweepSpec,
    closed_form_amplitudes,
    cross_validate,
    default_coupling_grid,
    default_phi_grid,
    run_sweep,
    solve_matching_stack,
    solve_transfer_stack,
    transfer_matching_agreement,
    unitarity_report,
)
from ptscatter import analysis
from ptscatter.analysis import (
    SOLVER_CLOSED_FORM,
    SOLVER_MATCHING,
    SOLVER_TRANSFER,
    probability_defect,
    random_tridiagonal_window,
)
from ptscatter.cli import format_table_csv


def pair_spec(couplings=(0.0,), m_list=(1,), **overrides):
    base = dict(
        models=[ModelFamily.pt_delta_pair(m, x) for m in m_list for x in couplings],
        phis=(PhiAngle(1.0),),
        solvers=(SOLVER_MATCHING,),
    )
    base.update(overrides)
    return SweepSpec(**base)


def ultralocal_spec(couplings, phis):
    return SweepSpec(models=[ModelFamily.ultralocal(a) for a in couplings], phis=phis)


class TestSweepSpecValidation:
    def test_requires_phis(self):
        with pytest.raises(ValueError):
            pair_spec(phis=())

    def test_requires_couplings_for_parametric_models(self):
        with pytest.raises(ValueError):
            pair_spec(couplings=())

    def test_rejects_band_edge_phis(self):
        with pytest.raises(ValueError):
            pair_spec(phis=(PhiAngle(1e-9),))

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError):
            pair_spec(solvers=("bogus",))

    def test_custom_windows_need_no_couplings(self):
        from ptscatter import InteractionWindow

        spec = SweepSpec(models=[ModelFamily.custom_window(InteractionWindow(lo=0, hi=0))], phis=(PhiAngle(1.0),))
        table = run_sweep(spec)
        assert len(table.rows) == 1


class TestRunSweep:
    def test_single_trivial_point(self):
        table = run_sweep(pair_spec())
        assert len(table.rows) == 1 and not table.errors
        row = table.rows[0]
        assert row.model == "pt-pair" and row.m_sep == 1
        assert abs(row.amplitudes.R) < 1e-13
        assert abs(row.amplitudes.T - 1.0) < 1e-13
        assert abs(row.defect) < 1e-12

    def test_row_count_and_defects_on_reference_grid(self):
        spec = pair_spec(
            couplings=default_coupling_grid(),
            phis=default_phi_grid(50),
            m_list=(1, 2, 3),
            solvers=(SOLVER_MATCHING, SOLVER_CLOSED_FORM),
        )
        table = run_sweep(spec)
        assert len(table.rows) == 19 * 50 * 3 * 2 == 5700
        assert not table.errors
        assert max(abs(row.defect) for row in table.rows) <= 1e-10

    def test_defect_column_matches_prob_sum(self):
        spec = pair_spec(couplings=(0.3, 0.6), phis=default_phi_grid(5))
        for row in run_sweep(spec).rows:
            assert row.defect == row.prob_sum - 1.0

    def test_row_ordering_is_sorted(self):
        # Models come in the given order; phis and solvers are de-duplicated and sorted.
        spec = pair_spec(
            couplings=(0.5, -0.5),
            phis=(PhiAngle(2.0), PhiAngle(1.0), PhiAngle(2.0)),
            m_list=(2, 1),
            solvers=(SOLVER_TRANSFER, SOLVER_MATCHING, SOLVER_TRANSFER),
        )
        keys = [(r.m_sep, r.coupling, r.phi, r.solver) for r in run_sweep(spec).rows]
        assert keys == [
            (m, x, phi, tag)
            for m in (2, 1)
            for x in (0.5, -0.5)
            for phi in (1.0, 2.0)
            for tag in (SOLVER_MATCHING, SOLVER_TRANSFER)
        ]

    def test_singular_points_become_error_rows(self):
        spec = pair_spec(couplings=(-1.0, 0.5, 1.0), phis=(PhiAngle(1.0),))
        table = run_sweep(spec)
        assert len(table.rows) == 1
        assert len(table.errors) == 2
        assert all("SingularSystem" in err.reason or "ZeroHopping" in err.reason for err in table.errors)
        assert {err.coupling for err in table.errors} == {-1.0, 1.0}

    def test_closed_form_errors_for_large_separation(self):
        spec = pair_spec(couplings=(0.4,), m_list=(4,), solvers=(SOLVER_CLOSED_FORM,))
        table = run_sweep(spec)
        assert not table.rows
        assert len(table.errors) == 1 and "ValueError" in table.errors[0].reason

    def test_closed_form_only_sweep_builds_no_window(self, monkeypatch):
        def no_window(model):
            raise AssertionError("a closed-form-only sweep built a window")

        monkeypatch.setattr(ModelFamily, "window", no_window)
        spec = pair_spec(couplings=(-0.5, 0.4), m_list=(1, 3), solvers=(SOLVER_CLOSED_FORM,))
        table = run_sweep(spec)
        assert len(table.rows) == 4 and not table.errors

    def test_ultralocal_defects(self):
        spec = ultralocal_spec((-0.5, 0.0, 0.5), (PhiAngle(math.pi / 2),))
        defects = [row.defect for row in run_sweep(spec).rows]
        assert defects == pytest.approx([145 / 49 - 1, 0.0, 17 / 49 - 1], abs=1e-9)

    def test_determinism_same_spec_same_table(self):
        spec = pair_spec(couplings=(0.2, -0.4), phis=default_phi_grid(7), m_list=(1, 2), solvers=(SOLVER_MATCHING, SOLVER_TRANSFER))
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert format_table_csv(first) == format_table_csv(second)
        assert first.rows == second.rows

    def test_meta_carries_tool_identity(self):
        meta = run_sweep(pair_spec()).meta
        assert meta["tool"] == "ptscatter"
        assert "version" in meta and "convention" in meta


class TestUnitarityReport:
    def test_pt_pair_table_has_no_violations(self):
        spec = pair_spec(couplings=(-0.6, 0.3, 0.9), phis=default_phi_grid(9), m_list=(1, 2, 4))
        report = unitarity_report(run_sweep(spec), tol=1e-9)
        stats = report.per_model["pt-pair"]
        assert stats.violations == 0
        assert stats.max_abs_defect <= 1e-9
        assert stats.defect_sign_opposes_coupling is None  # all defects at rounding level
        assert report.total_violations == 0

    def test_ultralocal_sign_pattern(self):
        spec = ultralocal_spec((-0.7, -0.2, 0.2, 0.7), default_phi_grid(9))
        report = unitarity_report(run_sweep(spec), tol=1e-9)
        stats = report.per_model["ultralocal"]
        assert stats.defect_sign_opposes_coupling is True
        assert stats.violations == stats.rows  # anomaly everywhere off zero coupling

    def test_positive_couplings_give_negative_defects(self):
        spec = ultralocal_spec((0.2, 0.5, 0.8), default_phi_grid(9))
        table = run_sweep(spec)
        assert all(row.defect < 0 for row in table.rows)

    def test_mixed_tables_stay_segregated(self):
        pair_table = run_sweep(pair_spec(couplings=(0.4,), phis=default_phi_grid(3)))
        ul_table = run_sweep(ultralocal_spec((0.4,), default_phi_grid(3)))
        merged = type(pair_table)(
            meta=pair_table.meta,
            rows=pair_table.rows + ul_table.rows,
            errors=(),
        )
        report = unitarity_report(merged, tol=1e-9)
        assert set(report.per_model) == {"pt-pair", "ultralocal"}
        assert report.per_model["pt-pair"].violations == 0
        assert report.per_model["ultralocal"].violations == report.per_model["ultralocal"].rows

    def test_empty_table_rejected(self):
        table = run_sweep(pair_spec())
        empty = type(table)(meta=table.meta, rows=(), errors=())
        with pytest.raises(ValueError):
            unitarity_report(empty)


class TestCrossValidate:
    def test_closed_form_range_passes(self):
        result = cross_validate(3, tol=1e-9, phi_values=default_phi_grid(15))
        assert result.passed
        assert result.worst_delta <= 1e-9
        assert result.worst_abs_defect <= 1e-10
        assert not result.singular_points
        assert result.points_checked == 3 * 19 * 15

    def test_beyond_closed_forms_passes(self):
        result = cross_validate(6, tol=1e-9, x_values=(-0.8, 0.5), phi_values=default_phi_grid(9))
        assert result.passed
        assert result.worst_matching_vs_transfer <= 1e-9

    def test_full_reference_run_through_m8(self):
        result = cross_validate(8, tol=1e-9)
        assert result.passed
        assert result.worst_abs_defect <= 1e-10
        assert result.points_checked == 8 * 19 * 50

    def test_defect_stays_small_through_m12(self):
        result = cross_validate(12, tol=1e-9, x_values=(-0.9, 0.4), phi_values=default_phi_grid(7))
        assert result.passed
        assert result.worst_abs_defect <= 1e-9

    def test_singular_grid_points_are_excluded_not_failed(self):
        result = cross_validate(1, tol=1e-9, x_values=(0.5, 1.0), phi_values=default_phi_grid(5))
        assert result.passed
        assert (1, 1.0) in result.singular_points

    def test_rejects_nonpositive_m_max(self):
        with pytest.raises(ValueError):
            cross_validate(0)

    def test_impossible_tolerance_fails(self):
        result = cross_validate(1, tol=1e-18, x_values=(0.5,), phi_values=default_phi_grid(3))
        assert not result.passed

    @staticmethod
    def stub_window(monkeypatch, model_window):
        """Give the pt pair of separation 2 at x = 0.5 the window ``model_window(real window)``."""
        real = ModelFamily.window

        def window(model):
            win = real(model)
            return model_window(win) if (model.kind, model.m_sep, model.coupling) == ("pt-pair", 2, 0.5) else win

        monkeypatch.setattr(ModelFamily, "window", window)

    def test_error_other_than_singular_propagates(self, monkeypatch):
        def longer_range(win):
            return InteractionWindow(lo=win.lo, hi=win.hi, entries={**win.entries, (win.lo, win.hi): 0.1})

        self.stub_window(monkeypatch, longer_range)
        with pytest.raises(NotTridiagonal, match=r"window entry \(-2, 2\) lies beyond nearest neighbours"):
            cross_validate(3, x_values=(1.0, 0.5), phi_values=default_phi_grid(3))

    def test_singular_model_is_recorded_once_and_its_later_angles_excluded(self, monkeypatch):
        # One site with W = 2i sin(1) has a spectral singularity at phi = 1.0 and
        # solves at the other angles; 1.0 comes twice, with a solvable angle between.
        spectral = InteractionWindow(lo=0, hi=0, entries={(0, 0): 2j * math.sin(1.0)})
        self.stub_window(monkeypatch, lambda win: spectral)
        phis = (PhiAngle(0.5), PhiAngle(1.0), PhiAngle(2.0), PhiAngle(1.0))
        result = cross_validate(4, x_values=(0.5,), phi_values=phis)
        assert result.singular_points == ((2, 0.5),)
        assert result.points_checked == 3 * len(phis) + 1  # separation 2 keeps only phi = 0.5
        # The excluded phi = 2.0 (|T| = 13.4) would dominate both worsts.
        alone = cross_validate(4, x_values=(0.5,), phi_values=phis[:1])
        assert (result.worst_abs_defect, result.worst_matching_vs_transfer) == (
            alone.worst_abs_defect,
            alone.worst_matching_vs_transfer,
        )


def per_model_cross_validation(m_max, tol, xs, phis):
    """``cross_validate`` as one stack per model: each model's angles are solved on their own."""
    models = [ModelFamily.pt_delta_pair(m_sep, x) for m_sep in range(1, m_max + 1) for x in xs]
    models += [ModelFamily.ultralocal(a) for a in xs]
    worst_cm = worst_ct = worst_mt = worst_defect = 0.0
    singular = []
    points = 0
    for model in models:
        stack = [(model.window(), phi) for phi in phis]
        for phi, rm, rt in zip(phis, solve_matching_stack(stack), solve_transfer_stack(stack)):
            if isinstance(rm, SingularSystem) or isinstance(rt, SingularSystem):
                if (model.m_sep, model.coupling) not in singular:
                    singular.append((model.m_sep, model.coupling))
                break
            if model.kind == "pt-pair":
                points += 1
                worst_mt = max(worst_mt, abs(rm.amplitudes.R - rt.amplitudes.R), abs(rm.amplitudes.T - rt.amplitudes.T))
                worst_defect = max(worst_defect, abs(rm.amplitudes.defect), abs(rt.amplitudes.defect))
            if model.m_sep <= 3:
                cf = closed_form_amplitudes(model, phi)
                worst_cm = max(worst_cm, abs(cf.R - rm.amplitudes.R), abs(cf.T - rm.amplitudes.T))
                worst_ct = max(worst_ct, abs(cf.R - rt.amplitudes.R), abs(cf.T - rt.amplitudes.T))
    return CrossValidation(
        max(worst_cm, worst_ct, worst_mt, worst_defect) <= tol, tol, m_max, points,
        worst_cm, worst_ct, worst_mt, worst_defect, tuple(singular),
    )


class TestOracleGroups:
    """``cross_validate`` streams groups of models into the stacks; the result must not show it."""

    # 60 angles do not divide the 256-point groups, so a group holds 4 models
    # and |x| = 1 (singular at every angle) falls inside groups.
    XS = (-0.5, 1.0, 0.25, -1.0, 0.7, 0.9)
    PHIS = default_phi_grid(60)

    def test_grouped_equals_per_model_reference(self):
        got = cross_validate(4, tol=1e-9, x_values=self.XS, phi_values=self.PHIS)
        assert (0, 1.0) in got.singular_points and (4, -1.0) in got.singular_points
        assert repr(got) == repr(per_model_cross_validation(4, 1e-9, self.XS, self.PHIS))

    @pytest.mark.parametrize("count", [1, 7, 256, 300])
    def test_any_angle_count(self, count):
        phis = default_phi_grid(count)
        got = cross_validate(2, tol=1e-9, x_values=(1.0, 0.3, -1.0), phi_values=phis)
        assert repr(got) == repr(per_model_cross_validation(2, 1e-9, (1.0, 0.3, -1.0), phis))

    def test_probability_defect_is_the_cross_validation_defect(self):
        assert probability_defect(3) == cross_validate(3).worst_abs_defect

    def test_probability_defect_rejects_nonpositive_m_max(self):
        with pytest.raises(ValueError, match="m_max must be >= 1"):
            probability_defect(0)


def test_answers_keep_at_most_one_chunk_of_psi():
    """``_answers`` drops each chunk's psi as it reads the next, and numbers errors across chunks."""
    held = []

    def chunk(k):
        psi = np.zeros((2, 5), dtype=complex)
        held.append(weakref.ref(psi))
        failures = {1: SingularSystem("blocked")} if k == 1 else {}
        return analysis._Chunk(np.full(2, complex(k)), np.zeros(2, dtype=complex), np.full(2, 1e-16), psi, failures)

    def route(points):
        for k in range(3):
            assert all(ref() is None for ref in held[:-1])  # only the chunk read last may still be alive
            yield chunk(k)

    big_r, big_t, residual, failures = analysis._answers(route, [None] * 6)
    assert big_r.tolist() == [0, 0, 1, 1, 2, 2] and big_t.shape == residual.shape == (6,)
    assert list(failures) == [3] and str(failures[3]) == "blocked"


def scalar_draw_window(rng, width, lo):
    """``random_tridiagonal_window`` drawing one entry per ``rng.uniform`` call."""
    hi = lo + width - 1
    entries = {}
    for i in range(lo, hi + 1):
        for j in (i - 1, i, i + 1):
            if lo <= j <= hi:
                entries[(i, j)] = float(rng.uniform(-0.9, 0.9))
    return InteractionWindow(lo=lo, hi=hi, entries=entries)


def test_random_window_draws_like_scalar_draws():
    """One array draw per window gives the scalar draws' entries, in their order, and leaves the stream where they do."""
    batched, scalar = np.random.default_rng(5), np.random.default_rng(5)
    for width in range(1, 16):
        got, expected = random_tridiagonal_window(batched, width, 3 - width), scalar_draw_window(scalar, width, 3 - width)
        assert list(got.entries.items()) == list(expected.entries.items())
        assert batched.bit_generator.state == scalar.bit_generator.state


def test_results_hold_builtin_types():
    """The oracles and sweeps reduce arrays, yet hand out builtin types: a numpy scalar's repr is not its value's."""
    crossval = cross_validate(2, x_values=(1.0, 0.5), phi_values=default_phi_grid(4))
    for result in (crossval, transfer_matching_agreement(n_windows=3, angles_per_window=2)):
        for field in dataclasses.fields(result):
            expected = {"bool": bool, "int": int, "float": float}.get(field.type, tuple)
            assert type(getattr(result, field.name)) is expected, field.name
    assert [tuple(map(type, point)) for point in crossval.singular_points] == [(int, float)] * 3
    assert type(probability_defect(1)) is float
    for row in run_sweep(pair_spec(couplings=(0.5, 1.0), solvers=(SOLVER_MATCHING, SOLVER_TRANSFER))).rows:
        assert (type(row.amplitudes.R), type(row.amplitudes.T), type(row.residual)) == (complex, complex, float)


BAD_TOLERANCES = [math.nan, math.inf, -math.inf, -1e-9]


def _no_solve(points):
    raise AssertionError("solved before checking the tolerance")


class TestToleranceGates:
    """A NaN tolerance fails every check and an infinite one none; both are rejected before any solve."""

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_cross_validate_rejects(self, tol, monkeypatch):
        monkeypatch.setattr("ptscatter.analysis._matching_answers", _no_solve)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            cross_validate(1, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_transfer_matching_agreement_rejects(self, tol, monkeypatch):
        monkeypatch.setattr("ptscatter.analysis._matching_answers", _no_solve)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            transfer_matching_agreement(n_windows=5, tol=tol)

    def test_zero_tolerance_is_a_gate(self):
        assert not cross_validate(1, tol=0.0, x_values=(0.5,), phi_values=default_phi_grid(3)).passed
        assert transfer_matching_agreement(n_windows=2, angles_per_window=2, tol=0.0).tol == 0.0


@pytest.mark.parametrize(
    "oracle, kwargs, message",
    [
        (cross_validate, dict(m_max=2, x_values=[]), "empty x_values"),
        (cross_validate, dict(m_max=2, phi_values=[]), "empty phi_values"),
        (transfer_matching_agreement, dict(n_windows=-2), "n_windows must be >= 1, got -2"),
        (transfer_matching_agreement, dict(n_windows=0), "n_windows must be >= 1, got 0"),
        (transfer_matching_agreement, dict(angles_per_window=0), "angles_per_window must be >= 1, got 0"),
    ],
)
def test_oracles_reject_checks_over_no_points(oracle, kwargs, message, monkeypatch):
    """An oracle over no points would pass vacuously; it is refused before any solve."""
    for name in ("_matching_answers", "_transfer_answers"):
        monkeypatch.setattr(f"ptscatter.analysis.{name}", _no_solve)
    with pytest.raises(ValueError, match=message):
        oracle(**kwargs)


class TestTransferMatchingAgreement:
    def test_small_sample_agrees(self):
        result = transfer_matching_agreement(n_windows=25, angles_per_window=4, tol=1e-9)
        assert result.passed
        assert result.worst_delta_r <= 1e-9
        assert result.worst_delta_t <= 1e-9

    def test_first_failing_draw_is_raised_though_solved_later(self, monkeypatch):
        """Two severed windows in different width stacks: the later draw's stack is solved first."""
        real = analysis.random_tridiagonal_window
        drawn = []
        severed = {}  # draw number -> bond set to W = 1, cancelling the hop

        def window(rng, width, lo):
            win = real(rng, width, lo)
            drawn.append(win)
            bond = severed.get(len(drawn) - 1)
            return win if bond is None else InteractionWindow(win.lo, win.hi, {**win.entries, bond(win.lo): 1.0})

        monkeypatch.setattr(analysis, "random_tridiagonal_window", window)
        # 128 angles: a width's stack is solved when its second window is drawn, the rest at the end.
        transfer_matching_agreement(n_windows=12, angles_per_window=128, seed=3)
        widths = [win.hi - win.lo + 1 for win in drawn]
        later = next(w for w in range(1, 12) if widths[w] in widths[:w] and widths[0] not in widths[1 : w + 1])
        drawn.clear()
        severed.update({0: lambda lo: (lo + 1, lo), later: lambda lo: (lo, lo + 1)})
        with pytest.raises(SingularSystem) as raised:
            transfer_matching_agreement(n_windows=12, angles_per_window=128, seed=3)
        lo = drawn[0].lo
        assert type(raised.value) is SingularSystem  # the matching error comes before the transfer one
        assert str(raised.value) == f"total coupling -1 + W{(lo + 1, lo)} vanishes; the chain is severed at that bond"

    def test_seed_reproducibility(self):
        a = transfer_matching_agreement(n_windows=5, angles_per_window=2, seed=11)
        b = transfer_matching_agreement(n_windows=5, angles_per_window=2, seed=11)
        assert a == b
