"""The four CLI subcommands on their bundled configs against committed outputs.

``tests/data/golden/<command>/`` holds the CSVs of ``curves`` on
``density_panels.ini``, ``selection-probs`` on ``general_design.ini``,
``convergence`` on ``convergence.ini`` and the summary of
``simulate --replications 20000`` on ``simulation_check.ini``.  Each test
reruns one command in process and compares every file cell by cell: the
header line, the column names and every label, order, count and frequency
exactly; cells of the fixed rules (curves, selection weights and
probabilities) within 1e-15 absolute; cells of the adaptive Gauss-Kronrod
rule (the convergence distances and ``ks_distance``) within 1e-10.  A
stored value is a check's data: regenerate one only with a stated reason.
"""

import csv
from pathlib import Path

import pytest

from postselect.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
CONFIGS = ROOT / "scripts" / "configs"

FIXED_TOL = 1e-15
ADAPTIVE_TOL = 1e-10
# columns compared as text: labels, orders, counts and simulated frequencies
EXACT = {"t", "theta2", "p", "n", "metric", "strictly_decreasing", "R", "seed", "variant"}

RUNS = {
    "curves": ("density_panels.ini", [], FIXED_TOL),
    "selection-probs": ("general_design.ini", [], FIXED_TOL),
    "convergence": ("convergence.ini", [], ADAPTIVE_TOL),
    "simulate": ("simulation_check.ini", ["--replications", "20000"], FIXED_TOL),
}


def _read(path: Path) -> tuple[str, list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header = fh.readline()
        rows = list(csv.reader(fh))
    return header, rows[0], rows[1:]


def _tolerance(command: str, column: str) -> float | None:
    """None for a column compared exactly, else its absolute tolerance."""
    if column in EXACT or column.startswith("freq_p"):
        return None
    if column == "ks_distance":
        return ADAPTIVE_TOL
    return RUNS[command][2]


@pytest.mark.parametrize("command", list(RUNS))
def test_outputs_match_golden(command, tmp_path):
    config, extra, _ = RUNS[command]
    argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path), *extra]
    assert main(argv) == 0
    wanted = sorted((GOLDEN / command).glob("*.csv"))
    assert wanted
    for want_path in wanted:
        name = want_path.name
        want_header, want_cols, want_rows = _read(want_path)
        header, cols, rows = _read(tmp_path / name)
        assert header == want_header, name
        assert cols == want_cols, name
        assert len(rows) == len(want_rows), name
        for i, (row, want_row) in enumerate(zip(rows, want_rows)):
            assert len(row) == len(cols), (name, i)
            for col, got, want in zip(cols, row, want_row):
                tol = _tolerance(command, col)
                if tol is None:
                    assert got == want, (name, i, col)
                else:
                    assert abs(float(got) - float(want)) <= tol, (name, i, col, got, want)
