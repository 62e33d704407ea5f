"""CLI surface: flags, exit codes, file formats, determinism."""

import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ptscatter import analysis, cli
from ptscatter.analysis import OracleAgreement, cross_validate
from ptscatter.cli import CSV_HEADER, load_window_file, main, parse_int_list, parse_range
from ptscatter.core import MAX_WINDOW_SITES

GOOD_WINDOW = {
    "lo": -1,
    "hi": 1,
    "entries": [
        {"i": 0, "j": -1, "re": 0.5},
        {"i": -1, "j": 0, "re": -0.5, "im": 0.0},
        {"i": 0, "j": 1, "re": 0.5},
        {"i": 1, "j": 0, "re": -0.5},
    ],
}


@pytest.fixture
def window_file(tmp_path):
    path = tmp_path / "window.json"
    path.write_text(json.dumps(GOOD_WINDOW))
    return str(path)


class TestParseHelpers:
    def test_range_inclusive_semantics(self):
        assert parse_range("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_range_single_point(self):
        assert parse_range("1.5:1.5:1") == [1.5]

    def test_range_endpoint_within_half_step(self):
        # 0.9 + half of 0.2 still admits the 1.0-ish endpoint from float drift
        values = parse_range("0.1:0.9:0.2")
        assert len(values) == 5
        assert values[-1] == pytest.approx(0.9)

    @pytest.mark.parametrize("bad", ["1:2", "1:2:0", "1:2:-0.5", "a:b:c", "2:1:0.5"])
    def test_range_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_range(bad)

    @pytest.mark.parametrize("bad", ["nan:1:0.5", "0:-inf:1"])
    def test_range_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ValueError, match="finite"):
            parse_range(bad)

    def test_range_rejects_grid_over_point_limit(self):
        # 1_000_001 points, one over the cap: rejected before the list is built
        with pytest.raises(ValueError, match="limit"):
            parse_range("0:1:1e-6")
        # lo + k*step never moves past 1e300, so only the point count stops the grid
        with pytest.raises(ValueError, match="limit"):
            parse_range("1e300:1e300:1")

    def test_int_list(self):
        assert parse_int_list("1,2,3") == [1, 2, 3]
        with pytest.raises(ValueError):
            parse_int_list(",")


class TestWindowFile:
    def test_good_file_loads(self, window_file):
        win = load_window_file(window_file)
        assert win.lo == -1 and win.hi == 1
        assert win.entry(0, -1) == 0.5
        assert win.entry(-1, 0) == -0.5

    def _write(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_rejects_duplicate_pairs(self, tmp_path):
        doc = {"lo": 0, "hi": 1, "entries": [{"i": 0, "j": 1, "re": 1.0}, {"i": 0, "j": 1, "re": 2.0}]}
        with pytest.raises(ValueError, match="duplicate"):
            load_window_file(self._write(tmp_path, doc))

    def test_rejects_unknown_top_level_field(self, tmp_path):
        doc = dict(GOOD_WINDOW, comment="hi")
        with pytest.raises(ValueError, match="unknown fields"):
            load_window_file(self._write(tmp_path, doc))

    def test_rejects_unknown_entry_field(self, tmp_path):
        doc = {"lo": 0, "hi": 1, "entries": [{"i": 0, "j": 1, "re": 1.0, "phase": 0.0}]}
        with pytest.raises(ValueError, match="unknown fields"):
            load_window_file(self._write(tmp_path, doc))

    def test_rejects_out_of_range_indices(self, tmp_path):
        doc = {"lo": 0, "hi": 1, "entries": [{"i": 0, "j": 2, "re": 1.0}]}
        with pytest.raises(ValueError, match="outside"):
            load_window_file(self._write(tmp_path, doc))

    def test_rejects_missing_fields(self, tmp_path):
        with pytest.raises(ValueError, match="missing field"):
            load_window_file(self._write(tmp_path, {"lo": 0, "hi": 1}))

    def test_rejects_non_json(self, tmp_path):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_window_file(self._write(tmp_path, "lo = 0"))

    def test_rejects_non_integer_indices(self, tmp_path):
        # JSON true/false load as bool, an int subclass; they are not indices.
        for doc in (
            {"lo": 0, "hi": 1, "entries": [{"i": 0.5, "j": 1, "re": 1.0}]},
            {"lo": 0, "hi": 1, "entries": [{"i": True, "j": 0, "re": 0.5}]},
            {"lo": 0, "hi": 1, "entries": [{"i": 0, "j": False, "re": 0.5}]},
            {"lo": False, "hi": True, "entries": [{"i": True, "j": False, "re": 0.5}]},
        ):
            with pytest.raises(ValueError, match="integers"):
                load_window_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize(
        "number",
        ['"re": NaN', '"re": Infinity', '"re": 0.5, "im": -Infinity', '"re": 1e400', '"re": 1.5e308, "im": 1.5e308'],
    )
    def test_rejects_non_finite_numbers(self, tmp_path, number):
        payload = '{"lo": 0, "hi": 0, "entries": [{"i": 0, "j": 0, %s}]}' % number
        with pytest.raises(ValueError, match="finite"):
            load_window_file(self._write(tmp_path, payload))


@st.composite
def json_token(draw, ordinary, rare, odds=4):
    """JSON text of a value drawn from ``ordinary``, or one time in ``odds`` from ``rare``."""
    return draw(rare if draw(st.integers(min_value=1, max_value=odds)) == odds else ordinary)


# Entry parts: ordinary floats, or finite parts whose modulus may overflow,
# or a number beyond the float range, NaN, a 400-digit integer or a boolean.
HUGE_PART = st.sampled_from(["1.5e308", "-1.7e308"])
BAD_PART = st.sampled_from(["1e400", "NaN", "1" + "0" * 400, "true", "false"])
PART = json_token(st.floats(min_value=-2.0, max_value=2.0).map(json.dumps), json_token(HUGE_PART, BAD_PART, 3))


@st.composite
def window_documents(draw):
    """Window file text; the width stays at most 64 sites so that each solve is quick (the
    MAX_WINDOW_SITES cap has its own tests)."""
    lo = draw(st.integers(min_value=-8, max_value=8))
    hi = lo + draw(st.integers(min_value=-1, max_value=64))
    site = st.integers(min_value=lo, max_value=max(lo, min(hi, lo + 4))).map(str)
    index = json_token(site, st.sampled_from([str(lo - 1), str(hi + 1), "true", "false", "0.0", "1.5"]), 12)
    entries = draw(st.lists(st.tuples(index, index, PART, PART), max_size=5))
    items = ",".join('{"i": %s, "j": %s, "re": %s, "im": %s}' % entry for entry in entries)
    return '{"lo": %d, "hi": %d, "entries": [%s]}' % (lo, hi, items)


@settings(
    derandomize=True, deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(window_documents(), st.sampled_from(["matching", "transfer"]), st.sampled_from(["0.3", "1.0", "2.5"]))
def test_window_files_map_to_exit_codes(tmp_path, document, solver, phi):
    """Any window document gives exit 0, 1 or 2 from solve and check-pt; nothing raises or warns."""
    path = tmp_path / "window.json"
    path.write_text(document)
    window = ["--model", "custom", "--window", str(path)]
    assert main(["solve", *window, "--phi", phi, "--solver", solver]) in (0, 1, 2)
    assert main(["check-pt", *window]) in (0, 1)


class TestSolveCommand:
    def test_free_point_exits_zero(self, capsys):
        assert main(["solve", "--model", "pt-pair", "--M", "1", "--x", "0", "--phi", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "|R|^2+|T|^2" in out and "solver       = matching" in out

    def test_json_output_schema(self, capsys):
        code = main(
            ["solve", "--model", "ultralocal", "--a", "0.5", "--phi", "1.5707963268", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected_keys = {
            "model", "M", "coupling", "phi", "solver", "reR", "imR", "reT", "imT",
            "prob_reflected", "prob_transmitted", "prob_sum", "defect",
            "energy_zero_diagonal", "energy_shifted_diagonal", "residual",
        }
        assert set(payload) == expected_keys
        assert payload["prob_sum"] == pytest.approx(0.346939, abs=1e-5)
        assert payload["defect"] == pytest.approx(payload["prob_sum"] - 1.0, abs=1e-15)

    def test_transfer_solver_selectable(self, capsys):
        assert main(["solve", "--model", "pt-pair", "--M", "2", "--x", "0.4", "--phi", "1.1", "--solver", "transfer"]) == 0
        assert "solver       = transfer" in capsys.readouterr().out

    def test_singular_point_exits_two(self, capsys):
        assert main(["solve", "--model", "pt-pair", "--M", "2", "--x", "1.0", "--phi", "1.0"]) == 2
        assert "singular" in capsys.readouterr().err.lower()

    def test_missing_model_params_exit_one(self):
        assert main(["solve", "--model", "pt-pair", "--phi", "1.0"]) == 1
        assert main(["solve", "--model", "ultralocal", "--phi", "1.0"]) == 1
        assert main(["solve", "--model", "custom", "--phi", "1.0"]) == 1

    def test_out_of_band_phi_exits_one(self):
        assert main(["solve", "--model", "pt-pair", "--M", "1", "--x", "0.5", "--phi", "4.0"]) == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "pt-pair", "--bogus", "1"])
        assert exc.value.code == 1

    def test_custom_window_solve(self, window_file, capsys):
        code = main(["solve", "--model", "custom", "--window", window_file, "--phi", "1.0", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prob_sum"] == pytest.approx(1.0, abs=1e-10)  # that window is PT-symmetric

    def test_non_finite_window_exits_one_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        # A NaN part, and finite parts whose modulus overflows.
        for entry in ('"re": NaN', '"re": 1.5e308, "im": 1.5e308'):
            path.write_text('{"lo": 0, "hi": 0, "entries": [{"i": 0, "j": 0, %s}]}' % entry)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["solve", "--model", "custom", "--window", str(path), "--phi", "1.0"])
            assert code == 1
            assert "finite" in capsys.readouterr().err
            assert not caught

    @pytest.mark.parametrize("command", [["solve", "--phi", "1.0"], ["sweep", "--phi-range", "1:1:1"], ["check-pt"]])
    def test_overflowing_modulus_is_one_error_line(self, tmp_path, capsys, command):
        path = tmp_path / "huge.json"
        path.write_text('{"lo": 0, "hi": 0, "entries": [{"i": 0, "j": 0, "re": 1.5e308, "im": 1.5e308}]}')
        assert main([command[0], "--model", "custom", "--window", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ptscatter: error: entry (0, 0) = (1.5e+308+1.5e+308j) must have a finite modulus\n"

    @pytest.mark.parametrize("command", [["solve", "--phi", "1.0"], ["sweep", "--phi-range", "1:1:1"], ["check-pt"]])
    def test_window_wider_than_the_cap_exits_one(self, tmp_path, capsys, command):
        """One site beyond MAX_WINDOW_SITES is refused before anything is built or solved."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"lo": -7, "hi": MAX_WINDOW_SITES - 7, "entries": [{"i": 0, "j": 0, "re": 0.5}]}))
        assert main([command[0], "--model", "custom", "--window", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ptscatter: error: window [-7, {MAX_WINDOW_SITES - 7}] spans {MAX_WINDOW_SITES + 1} sites; "
            f"at most {MAX_WINDOW_SITES} are allowed\n"
        )

    @pytest.mark.parametrize("lo", [10**6, 10**400])
    @pytest.mark.parametrize("command", [["solve", "--phi", "1.0"], ["sweep", "--phi-range", "1:1:1"], ["check-pt"]])
    def test_window_placed_beyond_the_cap_exits_one(self, tmp_path, capsys, command, lo):
        """A regular two-site window far out: m*phi would lose the phase between its sites (10**400 overflows a float)."""
        path = tmp_path / "far.json"
        entries = [{"i": lo, "j": lo + 1, "re": 0.3}, {"i": lo + 1, "j": lo, "re": -0.3}]
        path.write_text(json.dumps({"lo": lo, "hi": lo + 1, "entries": entries}))
        assert main([command[0], "--model", "custom", "--window", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ptscatter: error: window [{lo}, {lo + 1}] has a site beyond {MAX_WINDOW_SITES} of the origin\n"

    @pytest.mark.parametrize("command", [["solve", "--phi", "1.0"], ["sweep", "--phi-range", "1:1:1"], ["check-pt"]])
    def test_window_band_beyond_the_cap_exits_one(self, tmp_path, capsys, command):
        """A width within the cap, but one entry 99999 sites off the diagonal: its band would hold 3e10 cells."""
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"lo": 0, "hi": MAX_WINDOW_SITES - 1, "entries": [{"i": 0, "j": MAX_WINDOW_SITES - 1, "re": 0.1}]}))
        assert main([command[0], "--model", "custom", "--window", str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"ptscatter: error: window [0, {MAX_WINDOW_SITES - 1}] has reach {MAX_WINDOW_SITES - 1}: its band of "
            f"{MAX_WINDOW_SITES * (3 * MAX_WINDOW_SITES - 2)} cells exceeds the {4 * MAX_WINDOW_SITES} of a "
            f"tridiagonal window {MAX_WINDOW_SITES} sites wide\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--model", "pt-pair", "--M", "50000", "--x", "0.2", "--phi", "1.0"],
            ["sweep", "--model", "pt-pair", "--M-list", "1,50000", "--x-range", "0:0:1", "--phi-range", "1:1:1"],
            ["verify", "--suite", "all", "--M-max", "50000"],
            ["verify", "--suite", "unitarity", "--M-max", "50000"],
        ],
    )
    def test_pt_pair_wider_than_the_cap_exits_one_before_solving(self, monkeypatch, capsys, argv):
        """Separation 50000 spans MAX_WINDOW_SITES + 1 sites; no model of the run is solved."""
        stacks = []
        for name in ("_matching_answers", "_transfer_answers"):
            monkeypatch.setattr(analysis, name, lambda points: stacks.append(points))
        for name in ("solve_matching", "solve_transfer_matrix"):
            monkeypatch.setattr(cli, name, lambda *args: stacks.append(args))
        assert main(argv) == 1
        assert stacks == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ptscatter: error: separation 50000 spans 100001 sites; at most {MAX_WINDOW_SITES} are allowed\n"

    def test_missing_window_file_exits_one(self):
        assert main(["solve", "--model", "custom", "--window", "/no/such/file.json", "--phi", "1.0"]) == 1

    def test_huge_diagonal_window_transfer_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "barrier.json"
        path.write_text(json.dumps({"lo": 0, "hi": 3, "entries": [{"i": m, "j": m, "re": 1e150} for m in range(4)]}))
        code = main(["solve", "--model", "custom", "--window", str(path), "--phi", "1.0", "--solver", "transfer"])
        assert code == 0
        assert capsys.readouterr().err == ""


class TestSweepCommand:
    def test_csv_header_is_exact(self, capsys):
        code = main(
            ["sweep", "--model", "pt-pair", "--M-list", "1", "--x-range", "0:0:1", "--phi-range", "1.0:1.0:1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        defect = lines[1].split(",")[10]
        assert abs(float(defect)) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "sweep", "--model", "pt-pair", "--M-list", "1,2",
            "--x-range=-0.6:0.6:0.3", "--phi-range", "0.4:2.8:0.6", "--solver", "all",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_solver_all_rows_are_pairwise_consistent(self, tmp_path):
        out = tmp_path / "all.csv"
        assert main(
            ["sweep", "--model", "pt-pair", "--M-list", "1,2,3", "--x-range", "0.2:0.6:0.2",
             "--phi-range", "0.5:2.5:0.5", "--solver", "all", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()[1:]
        groups: dict[tuple, list] = {}
        for line in lines:
            cols = line.split(",")
            key = tuple(cols[1:4])
            amps = (complex(float(cols[5]), float(cols[6])), complex(float(cols[7]), float(cols[8])))
            groups.setdefault(key, []).append(amps)
        assert all(len(entries) == 3 for entries in groups.values())
        for entries in groups.values():
            assert max(abs(entries[0][0] - r) for r, _ in entries) < 1e-9
            assert max(abs(entries[0][1] - t) for _, t in entries) < 1e-9

    def test_ultralocal_sweep_defects(self, capsys):
        code = main(
            ["sweep", "--model", "ultralocal", "--a-range=-0.5:0.5:0.5",
             "--phi-range", "1.5707963267948966:1.5707963267948966:1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        defects = [float(line.split(",")[10]) for line in lines]
        assert defects == pytest.approx([145 / 49 - 1, 0.0, 17 / 49 - 1], abs=1e-9)

    def test_json_format_records_errors(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(
            ["sweep", "--model", "pt-pair", "--M-list", "1", "--x-range=-1:1:0.5",
             "--phi-range", "1.0:1.0:1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "rows", "errors"}
        assert len(payload["rows"]) == 3  # x in {-0.5, 0, 0.5}
        assert {err["coupling"] for err in payload["errors"]} == {-1.0, 1.0}
        assert payload["rows"][0].keys() == {
            "model", "M", "coupling", "phi", "E", "reR", "imR", "reT", "imT",
            "prob_sum", "defect", "solver", "residual",
        }
        assert "errored" in capsys.readouterr().err

    def test_empty_grid_exits_one(self, capsys):
        assert main(["sweep", "--model", "pt-pair", "--M-list", "1", "--x-range", "1:0:0.5", "--phi-range", "1:1:1"]) == 1
        # --M 0 is a separation outside the grid, not an unset --M.
        assert main(["sweep", "--model", "pt-pair", "--M", "0", "--x-range", "0:0:1", "--phi-range", "1:1:1"]) == 1
        assert "separation" in capsys.readouterr().err

    def test_unwritable_path_exits_one(self):
        assert main(
            ["sweep", "--model", "pt-pair", "--M-list", "1", "--x-range", "0:0:1",
             "--phi-range", "1:1:1", "--out", "/no/such/dir/out.csv"]
        ) == 1

    def test_missing_range_exits_one(self):
        assert main(["sweep", "--model", "pt-pair", "--phi-range", "1:1:1"]) == 1

    def test_grid_over_point_limit_exits_one(self, capsys):
        # 1001 couplings x 2901 angles: each axis is within the limit, the grid is not.
        assert main(["sweep", "--model", "pt-pair", "--x-range", "0:1:0.001", "--phi-range", "0.1:3.0:0.001"]) == 1
        assert "limit" in capsys.readouterr().err


class TestVerifyCommand:
    def test_closed_forms_suite_passes(self, capsys):
        assert main(["verify", "--suite", "closed-forms", "--M-max", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unitarity_suite_passes_through_m8(self, capsys):
        assert main(["verify", "--suite", "unitarity", "--M-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "probability-sum defect" in out and "FAIL" not in out

    def test_oracles_suite_passes(self, capsys):
        assert main(["verify", "--suite", "oracles"]) == 0
        assert "matching vs transfer" in capsys.readouterr().out

    def test_unitarity_line_is_the_cross_validation_defect(self, capsys):
        assert main(["verify", "--suite", "unitarity", "--M-max", "3"]) == 0
        assert f"worst {cross_validate(3).worst_abs_defect:.3e}  tol" in capsys.readouterr().out

    @pytest.fixture
    def counted_verify(self, monkeypatch):
        """Stub the random-window oracle and count cross_validate calls."""
        calls = []
        real = cli.cross_validate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cross_validate", counting)
        monkeypatch.setattr(
            cli,
            "transfer_matching_agreement",
            lambda tol: OracleAgreement(True, tol, 0, 0, 0.0, 0.0),
        )
        return calls

    def test_all_suite_runs_one_cross_validation(self, counted_verify, capsys):
        assert main(["verify", "--suite", "all", "--M-max", "4"]) == 0
        assert counted_verify == [(4,)]
        assert len(capsys.readouterr().out.splitlines()) == 3

    @pytest.mark.parametrize(
        "suite, m_max, calls",
        [("closed-forms", 4, [(3,)]), ("closed-forms", 2, [(2,)]), ("unitarity", 4, [(4,)]), ("oracles", 4, [])],
    )
    def test_single_suites_run_at_most_one_cross_validation(self, counted_verify, capsys, suite, m_max, calls):
        """Closed forms stop at separation 3; the defect line reads the pass through --M-max."""
        assert main(["verify", "--suite", suite, "--M-max", str(m_max)]) == 0
        assert counted_verify == calls
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_all_suite_lines_match_single_suites(self, counted_verify, capsys):
        assert main(["verify", "--suite", "all", "--M-max", "4"]) == 0
        combined = capsys.readouterr().out.splitlines()
        assert main(["verify", "--suite", "closed-forms", "--M-max", "4"]) == 0
        closed = capsys.readouterr().out.splitlines()
        assert main(["verify", "--suite", "unitarity", "--M-max", "4"]) == 0
        unitarity = capsys.readouterr().out.splitlines()
        assert combined[:2] == closed + unitarity

    def test_impossible_tolerance_exits_three(self, capsys):
        assert main(["verify", "--suite", "closed-forms", "--M-max", "1", "--tol", "1e-18"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_zero_tolerance_is_a_gate_not_bad_input(self, capsys):
        assert main(["verify", "--suite", "closed-forms", "--M-max", "1", "--tol", "0"]) == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e400"])
    def test_non_finite_or_negative_tolerance_exits_one(self, tol, capsys):
        """A NaN tolerance fails every check and an infinite one none; both are bad input."""
        assert main(["verify", "--suite", "closed-forms", "--M-max", "1", f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--tol must be finite and non-negative, got {float(tol)!r}" in captured.err


class TestCheckPtCommand:
    def test_pair_is_symmetric(self, capsys):
        assert main(["check-pt", "--model", "pt-pair", "--M", "3", "--x", "0.7"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_ultralocal_reports_violation(self, capsys):
        assert main(["check-pt", "--model", "ultralocal", "--a", "0.4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "false"
        assert "violation at (0, 1)" in out

    def test_custom_diagonal_is_symmetric(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"lo": 0, "hi": 0, "entries": [{"i": 0, "j": 0, "re": 0.7}]}))
        assert main(["check-pt", "--model", "custom", "--window", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_malformed_window_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check-pt", "--model", "custom", "--window", str(path)]) == 1


@pytest.mark.parametrize("command", [["solve", "--phi", "1.0"], ["check-pt"]])
@pytest.mark.parametrize(
    "coupling", [["pt-pair", "--M", "1", "--x", "nan"], ["pt-pair", "--M", "1", "--x", "inf"],
                 ["ultralocal", "--a", "nan"], ["ultralocal", "--a=-inf"]]
)
def test_non_finite_coupling_exits_one_without_warnings(command, coupling, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command[0], "--model", *coupling, *command[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert "finite" in err and "RuntimeWarning" not in err
    assert not caught


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["sweep", "--model", "pt-pair", "--M-list", "1", "--x", "0.5", "--x-range", "0.2:0.2:1", "--phi-range", "1:1:1"],
         "--x"),
        (["sweep", "--model", "pt-pair", "--M", "3", "--M-list", "1", "--x-range", "0.2:0.2:1", "--phi-range", "1:1:1"],
         "--M"),
        (["sweep", "--model", "custom", "--window", "WINDOW", "--M", "4", "--a", "0.3", "--phi-range", "1:1:1"],
         "--M, --a"),
        (["sweep", "--model", "ultralocal", "--a-range", "0:0:1", "--x-range", "0:0:1", "--phi-range", "1:1:1"],
         "--x-range"),
        (["solve", "--model", "ultralocal", "--a", "0.3", "--M", "2", "--x", "0.9", "--phi", "1"], "--M, --x"),
        (["check-pt", "--model", "pt-pair", "--M", "1", "--x", "0.3", "--window", "/nonexistent"], "--window"),
    ],
)
def test_model_flags_the_command_does_not_read_exit_one(argv, unread, window_file, capsys):
    argv = [window_file if arg == "WINDOW" else arg for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ptscatter: error: {argv[0]} --model {argv[2]} does not read {unread}\n"


def test_pt_pair_sweep_reads_m_without_m_list(capsys):
    assert main(["sweep", "--model", "pt-pair", "--M", "2", "--x-range", "0.5:0.5:1", "--phi-range", "1:1:1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("pt-pair,2,0.5,")


class TestExitCodeContract:
    def test_codes_are_disjoint_by_class(self, tmp_path, window_file):
        ok = main(["solve", "--model", "pt-pair", "--M", "1", "--x", "0.2", "--phi", "1.0"])
        bad_input = main(["solve", "--model", "pt-pair", "--phi", "1.0"])
        singular = main(["solve", "--model", "pt-pair", "--M", "1", "--x", "1.0", "--phi", "1.0"])
        verify_fail = main(["verify", "--suite", "closed-forms", "--M-max", "1", "--tol", "1e-18"])
        assert (ok, bad_input, singular, verify_fail) == (0, 1, 2, 3)


class TestParserCache:
    COMMANDS = (
        ["solve", "--model", "pt-pair", "--M", "2", "--x", "0.4", "--phi", "1.1"],
        ["solve", "--model", "pt-pair", "--M", "2", "--phi", "1.1", "--no-such-flag"],
        ["sweep", "--model", "pt-pair", "--M-list", "1,2", "--x-range=-1:1:0.5", "--phi-range", "0.5:2.5:0.5",
         "--solver", "all"],
        ["verify", "--suite", "closed-forms", "--M-max", "2"],
        ["solve", "--model", "pt-pair", "--M", "3", "--x", "0.4", "--phi", "1.1", "--format", "json"],
    )

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_one_parser_serves_every_command_like_a_fresh_one(self, capsys):
        cli.build_parser.cache_clear()
        shared = [self._run(argv, capsys) for argv in self.COMMANDS]
        assert cli.build_parser.cache_info().currsize == 1
        fresh = []
        for argv in self.COMMANDS:
            cli.build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0]
        assert shared == fresh

    def test_import_builds_no_parser(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import ptscatter.cli as c; print(c.build_parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
        assert result.stdout.strip() == "0"
