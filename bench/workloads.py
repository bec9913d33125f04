"""The benchmark's workloads: the jobs each one runs through the public
qnslab API, its set-up probe, and the correctness gate on its outputs.

A workload is one job that gives the user's answer; run.py times it in
a fresh process per sample.  A gate returns a list of (name, passed) pairs, one per check; the run
counts every pair as attempted and every False as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import qnslab
import tracer

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))

# Grid, gamma and eps of the set-up probe, one per workload: the size the
# workload's jobs run at.
SETUP_PROBE = {
    "rate_study": (64, 2.0, 0.2),
    "highres_n256": (256, 2.0, 0.05),
    "verify_batteries": (128, 2.0, 0.1),
}

MASS_TOL = 1e-12


def setup_probe(workload: str) -> None:
    """Everything a run does before its first step, at the workload's size."""
    grid_n, gamma, eps = SETUP_PROBE[workload]
    cfg = qnslab.RunConfig(grid_n=grid_n, gamma=gamma, epsilon=eps,
                           initial_profile="sine_density", profile_amplitude=0.5)
    grid = qnslab.Grid2D(grid_n)
    data, ref = qnslab.build_initial_data(cfg, grid)
    state = qnslab.qns_init(cfg.params(), data)
    ac0 = qnslab.acoustic_init(data, cfg.params())
    qnslab.EnergyLedger().record(state)
    qnslab.relative_entropy(state, ref, ac0)


def rate_study(seed: int, out: Path):
    """The headline study of scripts/rate_study.py: run_sweep with its
    defaults at gamma = 2 and gamma = 3."""
    sweeps = {}
    for gamma in (2.0, 3.0):
        cfg = qnslab.RunConfig(
            grid_n=64,
            gamma=gamma,
            epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
            t_end=0.25,
            initial_profile="sine_density",
            profile_amplitude=0.5,
            record_every=10,
            seed=seed,
            output_dir=str(out / f"gamma_{gamma:g}"),
        )
        sweeps[gamma] = qnslab.run_sweep(cfg)
    return sweeps


def rate_study_gate(sweeps, out: Path):
    gate = []
    for gamma, sweep in sweeps.items():
        g = f"gamma={gamma:g}"
        for eps, run in zip(sweep.epsilons, sweep.runs):
            gate.append((f"{g} eps={eps:g} not aborted", run.aborted is None))
            gate.append((f"{g} eps={eps:g} energy_ok", run.energy_ok))
        for q in qnslab.harness.TRACKED_QUANTITIES:
            gate.append((f"{g} rate verdict {q}", sweep.rate_verdicts.get(q, False)))
        gate.append((f"{g} density_band_ok", sweep.density_band_ok))
    return gate


def highres_n256(seed: int, out: Path):
    """One resolved run at N = 256 where the viscous bound sets the step
    (dt = 2.35e-3 against the 1.25e-2 acoustic cap; 6 steps)."""
    cfg = qnslab.RunConfig(
        grid_n=256,
        gamma=2.0,
        epsilon=0.05,
        t_end=0.0125,
        initial_profile="sine_density",
        profile_amplitude=0.5,
        record_every=1000,
        seed=seed,
        output_dir=str(out),
    )
    return qnslab.run_single(cfg, csv_path=out / "diagnostics.csv")


def highres_n256_gate(res, out: Path):
    ref = REFERENCE["highres_n256"]
    gate = [("not aborted", res.aborted is None), ("energy inequality", res.energy_ok)]
    if res.aborted is None:
        _, fields = qnslab.read_snapshot(out / "diagnostics.qnsf")
        # the snapshot stores (n - 1)/eps; the initial mean of n is 1
        mass_drift = abs(float(fields["n1_0"].mean()) * res.epsilon)
        gate.append(("mass conserved", mass_drift <= MASS_TOL))
        got = res.reports[-1].rel_entropy
        want = ref["terminal_rel_entropy"]
        gate.append(("terminal relative entropy",
                     math.isclose(got, want, rel_tol=ref["rel_tol"])))
    else:
        gate += [("mass conserved", False), ("terminal relative entropy", False)]
    return gate


def verify_batteries(seed: int, out: Path):
    """The batteries behind bohm-check, acoustic-test and euler-test."""
    from qnslab import checks  # imports scipy, which set-up does not need

    return {
        "bohm_form_check": checks.bohm_form_check(seed=seed),
        "acoustic_check": checks.acoustic_check(seed=seed),
        "euler_check": checks.euler_check(),
    }


def verify_batteries_gate(results, out: Path):
    return [(name, bool(passed)) for name, (passed, _lines) in results.items()]


# workload -> (job(seed, out), gate(result, out))
WORKLOADS = {
    "rate_study": (rate_study, rate_study_gate),
    "highres_n256": (highres_n256, highres_n256_gate),
    "verify_batteries": (verify_batteries, verify_batteries_gate),
}

TRACED_METRICS = {
    "rate_study": tracer.QNS_METRICS,
    "highres_n256": tracer.QNS_METRICS,
    "verify_batteries": tracer.CHECKS_METRICS,
}
