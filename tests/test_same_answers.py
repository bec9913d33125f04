"""scripts/same_answers.py, the same-answers check of a refactor: its
per-column comparison, column_ratio, its comparison of whole outputs,
compare_outputs, on planted CSVs, snapshots, a rate study report and
battery reports, and its comparison of the inputs that must fail,
failure_differences."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from qnslab.qnsio import write_snapshot

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


_ABORT_CSV = {"qns_out/diagnostics.csv": b"t,rel_entropy\n0,1\nABORTED,CflViolation: dt\n"}
_FAILED = {"unknown-key": (2, "config error: line 2: unknown key 'mach'\n", {}),
           "cfl-abort": (3, "", _ABORT_CSV)}


def test_failures_that_agree_show_no_difference(same_answers):
    got = {name: (code, err, dict(csvs)) for name, (code, err, csvs) in _FAILED.items()}
    assert same_answers.failure_differences(_FAILED, got) == {"unknown-key": [],
                                                              "cfl-abort": []}


@pytest.mark.parametrize(
    "name, got, want",
    [("unknown-key", (1, "Traceback ...\n", {}), ["exit code", "stderr"]),
     ("unknown-key", (2, "config error: line 2: unknown key 'Mach'\n", {}), ["stderr"]),
     ("cfl-abort", (3, "", {"qns_out/diagnostics.csv": b"t,rel_entropy\n0,1\n"}),
      ["CSV bytes"]),
     ("cfl-abort", (3, "", {}), ["CSV bytes"])],
    ids=["exit-and-stderr", "stderr", "csv-bytes", "csv-missing"],
)
def test_each_failure_difference_is_named(same_answers, name, got, want):
    change = dict(_FAILED, **{name: got})
    diffs = same_answers.failure_differences(_FAILED, change)
    assert diffs[name] == want
    assert all(not diff for other, diff in diffs.items() if other != name)


_RATE_STUDY = """\
gamma = 2 (per-run diagnostics in rate_study/gamma_2/):
  sweep over epsilon ladder [0.2, 0.1, 0.05]
  rel_entropy : slope = +0.7974 (threshold 0.4000, residual 1.76e-01) PASS
  thm_vel     : no fit (FAIL)
  energy inequality at eps = 0.2: PASS (max E+D-E0 = 6.60e-03; 0.04 s; steps by dt limit: \
advective 2, bohm 6, viscous 0, acoustic 0, t_end 1, fixed 0)
  energy inequality at eps = 0.1: ABORTED (max E+D-E0 = 9.01e-03; 0.03 s; steps by dt limit: \
advective 7, bohm 0, viscous 0, acoustic 0, t_end 1, fixed 0)
  density band ||n-1||_Llambda/eps within x10: PASS (ratios 1.851, 2.648, 2.861)
gamma = 2: FAIL
overall: FAIL
"""
_REPORTS = {
    "rate_study": _RATE_STUDY,
    "bohm-check": "bohm-check:\n  field  0: min n = 0.706, rel sup error = 2.383e-09\n"
                  "worst relative sup error over 1 fields: 2.383e-09 (tol 1e-08)\n"
                  "bohm-check: PASS\n",
    "acoustic-test": "acoustic-test:\n"
                     "  eps = 0.1: max |E(t)-E(0)|/E(0) over [0, 10 eps] = 3.472e-16 (ok)\n"
                     "  single mode: closed-form error 3.608e-16, ODE-oracle error "
                     "1.594e-12 (ok)\nacoustic-test: PASS\n",
    "euler-test": "euler-test:\n  steady-vortex residual: 1.648e-14 (tol 1e-10)\n"
                  "euler-test: PASS\n",
}
_FIELDS = {"rho": np.linspace(0.5, 1.5, 16).reshape(4, 4),
           "m_x": np.linspace(-1.0, 1.0, 16).reshape(4, 4)}


def _compare(same_answers, tmp_path, change_fields=_FIELDS, change_reports=_REPORTS):
    """compare_outputs of a planted parent (one CSV, one snapshot of
    _FIELDS and the _REPORTS) and a change that differs as asked; a
    change_fields of None writes no snapshot."""
    outs = tmp_path / "parent", tmp_path / "change"
    for out, fields in zip(outs, (_FIELDS, change_fields)):
        (out / "run").mkdir(parents=True)
        (out / "run" / "diagnostics.csv").write_text("t,rel_entropy\n0,1.5\n0.1,2.5\n")
        if fields is not None:
            write_snapshot(fields, out / "run" / "diagnostics.qnsf")
    return same_answers.compare_outputs(outs, [_REPORTS, change_reports])


def test_identical_outputs_give_the_same_answers(same_answers, tmp_path):
    assert _compare(same_answers, tmp_path)


def test_a_moved_battery_number_keeps_the_same_answers(same_answers, tmp_path):
    moved = {name: report.replace("e-", "1e-") for name, report in _REPORTS.items()}
    assert moved != _REPORTS
    assert _compare(same_answers, tmp_path, change_reports=moved)


@pytest.mark.parametrize("battery, old, new",
                         [("acoustic-test", "PASS", "FAIL"),
                          ("acoustic-test", "(ok)\n  single", "(FAIL)\n  single"),
                          ("bohm-check", "PASS", "FAIL"),
                          ("euler-test", "  steady-vortex", "  extra line (ok)\n  steady-vortex")],
                         ids=["final-pass-to-fail", "line-ok-to-fail", "bohm-pass-to-fail",
                              "line-added"])
def test_a_changed_battery_verdict_differs(same_answers, tmp_path, battery, old, new):
    flipped = dict(_REPORTS, **{battery: _REPORTS[battery].replace(old, new, 1)})
    assert flipped[battery] != _REPORTS[battery]
    assert not _compare(same_answers, tmp_path, change_reports=flipped)


@pytest.mark.parametrize("old, new, same",
                         [("slope = +0.7974", "slope = +0.7975", False),
                          ("0.04 s;", "0.05 s;", True),
                          ("no fit (FAIL)", "slope = +0.1000 (threshold 0.4000, residual "
                                            "1.76e-01) FAIL", False),
                          ("0.2: PASS", "0.2: FAIL", False),
                          ("0.1: ABORTED", "0.1: PASS", False),
                          ("x10: PASS", "x10: FAIL", False),
                          ("overall: FAIL", "overall: PASS", False)],
                         ids=["moved-slope", "moved-wall-time", "fit-appears",
                              "energy-verdict", "aborted-run", "density-band", "overall"])
def test_the_rate_study_compares_slopes_and_verdicts_not_wall_times(same_answers, tmp_path,
                                                                     old, new, same):
    moved = dict(_REPORTS, rate_study=_RATE_STUDY.replace(old, new, 1))
    assert moved["rate_study"] != _RATE_STUDY
    assert _compare(same_answers, tmp_path, change_reports=moved) == same


def test_rate_study_answers_read_slopes_and_verdicts(same_answers):
    assert same_answers.rate_study_answers(_RATE_STUDY) == [
        ("rel_entropy", "+0.7974", "PASS"), ("thm_vel", "no fit", "FAIL"),
        ("0.2", "PASS"), ("0.1", "ABORTED"), ("density band", "PASS"),
        ("gamma = 2", "FAIL"), ("overall", "FAIL")]


def test_verdicts_read_each_line_and_the_final_line(same_answers):
    assert same_answers.verdicts(_REPORTS["acoustic-test"]) == ["", "ok", "ok", "PASS"]
    assert same_answers.verdicts(_REPORTS["bohm-check"]) == ["", "", "", "PASS"]


def test_snapshot_round_off_keeps_the_same_answers(same_answers, tmp_path):
    nudged = dict(_FIELDS, rho=_FIELDS["rho"] * (1 + 1e-13))
    assert _compare(same_answers, tmp_path, change_fields=nudged)


@pytest.mark.parametrize("change", [dict(_FIELDS, rho=_FIELDS["rho"] + 1e-9),
                                    {"rho": _FIELDS["rho"]},
                                    dict(_FIELDS, m_y=_FIELDS["m_x"]),
                                    {name: np.ones((2, 2)) for name in _FIELDS},
                                    None],
                         ids=["field-beyond-tol", "field-missing", "field-added",
                              "shape-differs", "snapshot-missing"])
def test_a_changed_snapshot_differs(same_answers, tmp_path, change):
    assert not _compare(same_answers, tmp_path, change_fields=change)
