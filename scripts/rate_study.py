#!/usr/bin/env python3
"""Headline convergence-rate study.

Runs the epsilon ladder (0.2, 0.1, 0.05, 0.025) at gamma = 2 and
gamma = 3 with the sine-density profile and prints each sweep's report
(SweepResult.lines).  The verdict is SweepResult.passed of both sweeps:
every run finishes and keeps its energy inequality, the density band
holds, and each tracked quantity has a log-log slope >=
min{1 - 1/gamma, 1/gamma} - 0.1 (faster convergence passes).

Usage: python3 scripts/rate_study.py [output_dir]
"""

import sys
from pathlib import Path

from qnslab import RunConfig, run_sweep


def main():
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("rate_study_out")
    overall = True
    for gamma in (2.0, 3.0):
        out = out_root / f"gamma_{gamma:g}"
        cfg = RunConfig(grid_n=64, gamma=gamma, epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
                        t_end=0.25, initial_profile="sine_density", profile_amplitude=0.5,
                        record_every=10, output_dir=str(out))
        result = run_sweep(cfg)
        print(f"gamma = {gamma:g} (per-run diagnostics in {out}/):")
        print("\n".join(result.lines()))
        print(f"gamma = {gamma:g}: {'PASS' if result.passed else 'FAIL'}")
        overall &= result.passed
    print(f"overall: {'PASS' if overall else 'FAIL'}")
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
