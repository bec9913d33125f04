"""scripts/same_answers.py, the same-answers check of a refactor: its
per-column comparison, column_ratio."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_answers.py"


@pytest.fixture(scope="module")
def same_answers():
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identical_columns_read_zero(same_answers):
    col = ["0", "0.125", "-2.5e-3", "7"]
    assert same_answers.column_ratio(col, list(col)) == 0.0


def test_a_row_count_mismatch_reads_inf(same_answers):
    assert same_answers.column_ratio(["1", "2", "3"], ["1", "2"]) == math.inf


def test_sentinel_cells_compare_as_text(same_answers):
    # the ABORTED row of a run's CSV: its t cell, then the reason
    want = ["0", "0.01", "ABORTED"]
    assert same_answers.column_ratio(want, list(want)) == 0.0
    reasons = ["1.5", "CflViolation: dt 1 exceeds 0.0125"]
    assert same_answers.column_ratio(reasons, ["1.5", "NumericalAbort: injected"]) == math.inf


def test_any_change_in_an_all_zero_column_reads_inf(same_answers):
    assert same_answers.column_ratio(["0", "0"], ["0", "0"]) == 0.0
    assert same_answers.column_ratio(["0", "0"], ["0", "1e-300"]) == math.inf


def test_round_off_reads_below_tol(same_answers):
    want = ["1.0", "-3.0", "0.5"]
    got = ["1.0", repr(-3.0 * (1 + 1e-12)), "0.5"]
    ratio = same_answers.column_ratio(want, got)
    assert ratio == pytest.approx(1e-12, rel=1e-3)
    assert ratio < same_answers.TOL
