"""The headline script, scripts/rate_study.py: its output trees and its
verdict, which is SweepResult.passed of both sweeps."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import qnslab
from qnslab import run_sweep

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rate_study.py"
LADDER = (0.2, 0.1, 0.05, 0.025)


def _load_script():
    spec = importlib.util.spec_from_file_location("rate_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_study_script_passes_and_writes_both_trees(tmp_path):
    src = str(Path(qnslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: PASS"
    for gamma in (2, 3):
        out = tmp_path / f"gamma_{gamma}"
        want = {"sweep_summary.csv"}
        want |= {f"run_eps_{eps:g}{ext}" for eps in LADDER for ext in (".csv", ".qnsf")}
        assert {p.name for p in out.iterdir()} == want


def test_rate_study_verdict_includes_the_density_band(tmp_path, monkeypatch, capsys):
    # a sweep that fails the density band alone fails the study
    script = _load_script()

    def band_failing_sweep(cfg):
        result = run_sweep(cfg, synthetic=True)
        result.density_ratios = [1.0, 20.0, 1.0, 1.0]
        return result

    monkeypatch.setattr(script, "run_sweep", band_failing_sweep)
    monkeypatch.setattr(sys, "argv", ["rate_study.py", str(tmp_path)])
    assert script.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "overall: FAIL"
    assert "gamma = 2: FAIL" in out and "gamma = 3: FAIL" in out
