"""One measurement in a fresh process, started by run.py.

    python worker.py setup WORKLOAD RESULT_JSON
    python worker.py job   WORKLOAD RESULT_JSON --seed N --out DIR [--trace]
    python worker.py micro -        RESULT_JSON

``setup`` times import plus everything before the first step; ``job``
runs the workload once, checks its outputs and reports wall and CPU
seconds, peak RSS and, with --trace, per-layer numbers from the span
tracer; ``micro`` times single
calls of the public layer functions at N = 64, 128 and 256.  The result
goes to RESULT_JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MICRO_SIZES = (64, 128, 256)
MICRO_BUDGET_S = 0.15
MICRO_MIN_CALLS = 3


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would also carry the parent's peak across the
    fork/exec that started this worker."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_setup(workload: str) -> dict:
    t0 = time.perf_counter()
    import qnslab  # noqa: F401  (timed)

    from workloads import setup_probe

    setup_probe(workload)
    return {"setup_s": time.perf_counter() - t0}


def run_job(workload: str, seed: int, out: Path, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()
    import qnslab

    if tracer is not None:
        tracer.install_layers()
    from workloads import TRACED_METRICS, WORKLOADS

    job, gate = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        job = tracer.wrap("bench", "bench.job", job)
    c0, t0 = time.process_time(), time.perf_counter()
    result = job(seed, out)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    report = {"wall_s": wall, "cpu_s": cpu, "qnslab_version": qnslab.__version__}
    if tracer is not None:
        from tracer import layer_metrics

        tracer.dump(out / "spans.json")
        report["layers"] = layer_metrics(tracer.spans, cpu, TRACED_METRICS[workload])
    report["checks"] = gate(result, out)
    report["peak_rss_mb"] = _peak_rss_mb()
    return report


def _per_call(fn, budget=MICRO_BUDGET_S, min_calls=MICRO_MIN_CALLS) -> float:
    """Median seconds per call after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_micro() -> dict:
    import qnslab

    out = {}
    for n in MICRO_SIZES:
        cfg = qnslab.RunConfig(grid_n=n, gamma=2.0, epsilon=0.05,
                               initial_profile="sine_density", profile_amplitude=0.5)
        grid = qnslab.Grid2D(n)
        data, ref = qnslab.build_initial_data(cfg, grid)
        state = qnslab.qns_init(cfg.params(), data)
        ac0 = qnslab.acoustic_init(data, cfg.params())
        dt = min(qnslab.cfl_dt(state), 0.25 * cfg.epsilon)
        ledger = qnslab.EnergyLedger()
        out[f"spectral.differentiate_us.n{n}"] = 1e6 * _per_call(
            lambda: qnslab.differentiate(state.n, (1, 0)))
        out[f"constitutive.bohm_force_ms.n{n}"] = 1e3 * _per_call(
            lambda: qnslab.bohm_force(state.n))
        out[f"qns.qns_step_ms.n{n}"] = 1e3 * _per_call(lambda: qnslab.qns_step(state, dt))
        out[f"qns.ledger_record_ms.n{n}"] = 1e3 * _per_call(lambda: ledger.record(state))
        out[f"diagnostics.relative_entropy_ms.n{n}"] = 1e3 * _per_call(
            lambda: qnslab.relative_entropy(state, ref, ac0))
        out[f"acoustic.acoustic_evolve_ms.n{n}"] = 1e3 * _per_call(
            lambda: qnslab.acoustic_evolve(ac0, dt))
    return {"micro": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "job", "micro"))
    ap.add_argument("workload")
    ap.add_argument("result")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.mode == "setup":
        report = run_setup(args.workload)
    elif args.mode == "job":
        report = run_job(args.workload, args.seed, args.out, args.trace)
    else:
        report = run_micro()
    Path(args.result).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
