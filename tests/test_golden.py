"""Byte stability of CLI output across versions of the package.

Each case reruns a command through ``cli.main`` and compares its stdout with
a file under ``tests/data/golden/`` that an earlier version wrote.  A change
that moves any printed digit, column or key fails here, so keep these files
unless an output change is intended.  ``verify_oracles.txt`` holds the
``repr`` of both oracles' results, written the same way.
"""

from pathlib import Path

import pytest

from ptscatter.analysis import cross_validate, transfer_matching_agreement
from ptscatter.cli import main

DATA = Path(__file__).parent / "data"
WINDOW = str(DATA / "custom_window.json")
BARRIER = str(DATA / "barrier_window.json")

# (golden file name, argv)
CASES = (
    (
        "pt_pair_all.csv",
        ["sweep", "--model", "pt-pair", "--M-list", "1,2,3", "--x-range=-1:1:0.5", "--phi-range", "0.4:2.8:1.2",
         "--solver", "all"],
    ),
    (
        "pt_pair_errors.json",
        ["sweep", "--model", "pt-pair", "--M-list", "1,4", "--x-range", "0.5:1:0.5", "--phi-range", "0.7:2.1:1.4",
         "--solver", "all", "--format", "json"],
    ),
    (
        "ultralocal_all.csv",
        ["sweep", "--model", "ultralocal", "--a-range=-0.5:0.5:0.5", "--phi-range", "0.5:2.5:1.0", "--solver", "all"],
    ),
    (
        "custom_all.json",
        ["sweep", "--model", "custom", "--window", WINDOW, "--phi-range", "0.3:2.9:0.65", "--solver", "all",
         "--format", "json"],
    ),
    ("solve_pt_pair.txt", ["solve", "--model", "pt-pair", "--M", "2", "--x", "0.4", "--phi", "1.1"]),
    (
        "solve_pt_pair.json",
        ["solve", "--model", "pt-pair", "--M", "2", "--x", "0.4", "--phi", "1.1", "--solver", "transfer",
         "--format", "json"],
    ),
    ("solve_custom.txt", ["solve", "--model", "custom", "--window", WINDOW, "--phi", "0.9"]),
    ("solve_custom.json", ["solve", "--model", "custom", "--window", WINDOW, "--phi", "0.9", "--format", "json"]),
    (
        "pt_pair_sorted.csv",
        ["sweep", "--model", "pt-pair", "--M-list", "3,1,1", "--x-range=-0.5:0.5:0.5", "--phi-range", "0.7:2.1:1.4",
         "--solver", "closed-form"],
    ),
    (
        "barrier_all.json",
        ["sweep", "--model", "custom", "--window", BARRIER, "--phi-range", "0.3:2.5:1.1", "--solver", "all",
         "--format", "json"],
    ),
    (
        "pt_pair_m8.json",
        ["sweep", "--model", "pt-pair", "--M-list", "8", "--x-range", "0.3:0.6:0.3", "--phi-range", "0.4:2.8:0.6",
         "--solver", "all", "--format", "json"],
    ),
)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_output_matches_golden_file(name, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / "golden" / name).read_bytes()


def test_oracle_results_match_golden_file():
    """Both oracles at full precision: ``verify`` prints three digits of each, so a
    batching change that drops or reorders points would pass the CLI cases above."""
    text = f"{cross_validate(8)!r}\n{transfer_matching_agreement()!r}\n"
    assert text == (DATA / "golden" / "verify_oracles.txt").read_text(encoding="utf-8")
