#!/usr/bin/env python3
"""qnslab benchmark: time to a correct solution on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh worker process (bench/worker.py) on
the sources under src/, one job at a time: a closed loop with one
client.  The workloads are defined in bench/workloads.py.

With --trace 0 the run times the set-up probe SETUP_REPS times, then
runs the workload's job while the next job should end within S seconds.
It reports wall_s, the median job wall; setup_s, the median set-up
probe; and peak_rss_mb, the median of the workers' peak resident set.
Times are scaled to a reference machine speed (see CAL_REF_S); the
summary lines also give them as measured.

The workload names come from BENCHMARK.json, as do the metric names and
units.

With --trace 1 it runs every workload once under the span tracer
(bench/tracer.py), the named workload once untraced, and the per-call
microbenchmarks, and reports the per-layer metrics.

Each job checks its outputs; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

Run outputs go to a temporary directory under .bench_build/, removed on
exit.  Exit codes: 0 all checks passed, 1 a check failed (the result is
still printed), 2 usage or missing sources, 3 a worker crashed or timed
out (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 5
# Stop starting new jobs once this many seconds have passed, so that a
# run ends well inside 180 s even on a slow machine.
DEADLINE_S = 140.0
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# Machine-speed probe.  On a shared 2-vCPU x86_64 VM the speed of the
# same job drifted by up to 2x over minutes as other tenants' load came
# and went.  The block time of this fixed FFT kernel, timed just before
# and just after each worker, followed the drift (log-log correlation
# 0.81 to 0.94 with the euler battery over 200 s) better than kernels of
# small-array or pure-Python work.  Times are reported at the reference
# speed: measured seconds * CAL_REF_S / mean of the two probes.
# CAL_REF_S is the kernel's usual block time on that VM (numpy 2.4).
CAL_REF_S = 0.020
CAL_BLOCKS = 7
CAL_KERNEL = ((64, 40), (128, 10), (256, 3))  # grid size, transform pairs


class WorkerFailed(RuntimeError):
    pass


def calibrate() -> float:
    """Median block time of a fixed numpy FFT kernel; it runs no qnslab
    code, so a change to the program cannot move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    arrays = [(rng.standard_normal((n, n)), pairs) for n, pairs in CAL_KERNEL]
    times = []
    for _ in range(CAL_BLOCKS):
        t0 = time.perf_counter()
        for a, pairs in arrays:
            for _ in range(pairs):
                np.abs(np.fft.ifft2(np.fft.fft2(a) * 1.0001).real).max()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Starts workers in fresh processes, each with its own output
    directory under one temporary directory."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.probe = calibrate()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **WORKER_ENV)

    def __call__(self, mode, workload="-", seed=0, trace=False):
        self.count += 1
        tag = f"{mode}-{self.count}"
        result = self.tmp / f"{tag}.json"
        out = self.tmp / tag
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, workload, str(result),
               "--seed", str(seed), "--out", str(out)]
        if trace:
            cmd.append("--trace")
        timeout = max(self.deadline + 30.0 - time.monotonic(), 10.0)
        try:
            proc = subprocess.run(cmd, cwd=self.tmp, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} {workload}: timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise WorkerFailed(f"{mode} {workload}: exit {proc.returncode}\n{tail}")
        report = json.loads(result.read_text(encoding="utf-8"))
        if out.exists():
            report["out_dir"] = out
        probe = calibrate()
        report["speed"] = CAL_REF_S / (0.5 * (self.probe + probe))
        self.probe = probe
        return report


def load_spec():
    """Workload names and the metric units of each kind, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(reports) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "qnslab": reports[0]["qnslab_version"] if reports else "unknown",
        "worker_env": WORKER_ENV,
    }


def tail_percentile(samples):
    """Highest percentile with at least ten samples above it, or None."""
    k = len(samples)
    if k < 20:
        return None
    q = 100 * (k - 10) // k
    return q, statistics.quantiles(samples, n=100)[q - 1]


def tally(jobs):
    checks = [(name, ok) for job in jobs for name, ok in job["checks"]]
    failed = [name for name, ok in checks if not ok]
    return len(checks), failed


def measure(run: Runner, workload, seed, seconds):
    """Set-up probes, then jobs while the next job should end inside the
    window."""
    setup = [run("setup", workload) for _ in range(SETUP_REPS)]
    jobs = []
    start = time.monotonic()
    while True:
        job = run("job", workload, seed)
        shutil.rmtree(job.pop("out_dir"), ignore_errors=True)
        jobs.append(job)
        expected = time.monotonic() + (time.monotonic() - start) / len(jobs)
        if expected - start > seconds or expected + 10.0 > run.deadline:
            break
    walls = [j["wall_s"] * j["speed"] for j in jobs]
    speeds = [r["speed"] for r in setup + jobs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] * r["speed"] for r in setup),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    tail = tail_percentile(walls)
    notes = [f"wall_s samples: {len(jobs)} jobs; measured median "
             f"{statistics.median(j['wall_s'] for j in jobs):.4f} s",
             f"p{tail[0]}: {tail[1]:.4f} s" if tail else
             "fewer than 20 samples, so no percentile has 10 beyond it",
             f"speed factor (reference / probe): min {min(speeds):.3f}, max {max(speeds):.3f}",
             f"setup_s samples: {len(setup)} fresh processes, measured median "
             f"{statistics.median(r['setup_s'] for r in setup):.4f} s"]
    return metrics, jobs, notes


def measure_traced(run: Runner, workloads, workload, seed, spans_out):
    traced = {}
    for name in workloads:
        job = run("job", name, seed, trace=True)
        if spans_out is not None:
            spans_out.mkdir(parents=True, exist_ok=True)
            shutil.copy(job["out_dir"] / "spans.json", spans_out / f"{name}.spans.json")
        shutil.rmtree(job.pop("out_dir"), ignore_errors=True)
        traced[name] = job
    plain = run("job", workload, seed)
    shutil.rmtree(plain.pop("out_dir"), ignore_errors=True)
    micro = run("micro")["micro"]

    metrics = {f"{name}.{key}": value
               for name, job in traced.items() for key, value in job["layers"].items()}
    metrics.update(micro)
    traced_wall = traced[workload]["wall_s"] * traced[workload]["speed"]
    plain_wall = plain["wall_s"] * plain["speed"]
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    notes = [f"traced {name}: wall {job['wall_s']:.4f} s" for name, job in traced.items()]
    notes.append(f"untraced {workload}: wall {plain['wall_s']:.4f} s")
    return metrics, list(traced.values()) + [plain], notes


def main(argv=None) -> int:
    workloads, e2e_units, layer_units = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", type=Path, default=None,
                    help="with --trace 1, keep each traced job's spans as JSON here")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running worker is killed and
    # reaped and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qnslab" / "__init__.py").is_file():
        print(f"bench: no qnslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = layer_units if args.trace else e2e_units

    scratch = ROOT / ".bench_build"
    made_scratch = not scratch.exists()
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        run = Runner(tmp, time.monotonic() + DEADLINE_S)
        if args.trace:
            metrics, jobs, notes = measure_traced(run, workloads, args.workload, args.seed,
                                                 args.spans_out)
        else:
            metrics, jobs, notes = measure(run, args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if made_scratch:
            try:
                scratch.rmdir()
            except OSError:  # another run is still using it
                pass

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"bench: metrics listed in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 3
    attempted, failed = tally(jobs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in units:
        print(f"  {name:48s} {metrics[name]!r:>24} {units[name]}")
    print(f"  {'failed_frac':48s} {len(failed) / attempted!r:>24} "
          f"({len(failed)} of {attempted} checks)")
    for name in failed:
        print(f"  FAILED CHECK: {name}")
    for note in notes:
        print(f"  {note}")
    print("env " + json.dumps(environment(jobs), sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
