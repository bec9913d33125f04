#!/usr/bin/env python3
"""Do two source trees give the same answers?  The check a refactor of
qnslab must pass.

Usage: python3 scripts/same_answers.py PARENT_TREE CHANGE_TREE

In each tree, in a subprocess with PYTHONPATH=<tree>/src, it runs the
headline rate study (<tree>/scripts/rate_study.py, gamma = 2 and 3), one
run of the benchmark's highres_n256 size (N = 256, eps = 0.05, six
steps) and the bohm-check, acoustic-test and euler-test batteries.  It
prints, per CSV column, max |change - parent| / max |parent|, and says
whether the CSV files, the .qnsf snapshots and the battery report lines
are byte-identical.  It also runs the FAILURES, inputs that must fail,
each in a directory of its own, and compares their exit codes, stderr
and CSV bytes.  It exits 1 when a job fails, a CSV or a column is on one
side only, a column's ratio is above TOL, or a failure differs, and 0
otherwise.
"""

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOL = 1e-11

HIGHRES_CONFIG = """\
grid_n = 256
gamma = 2
epsilon = 0.05
t_end = 0.0125
initial_profile = sine_density(0.5)
record_every = 1000
"""

BATTERIES = ("bohm-check", "acoustic-test", "euler-test")

# Inputs that fail at a documented exit code: the qnslab.cli arguments,
# and the text of failure.cfg when they read it.
FAILURES = {
    "unknown-key": (("run", "--config", "failure.cfg"), "epsilon = 0.1\nmach = 3\n"),
    "missing-snapshot": (("run", "--config", "failure.cfg"),
                         "epsilon = 0.1\ngrid_n = 32\n"
                         "initial_profile = from_snapshot(missing.qnsf)\n"),
    "cfl-abort": (("run", "--config", "failure.cfg"),
                  "epsilon = 0.1\nt_end = 0.1\ngrid_n = 32\ndt_policy = fixed(1.0)\n"
                  "initial_profile = sine_density(0.5)\n"),
    "bohm-grid-n": (("bohm-check", "--grid-n", "7"), None),
}


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_tree(tree: Path, out: Path) -> dict:
    """Run every job of tree into out; the battery stdouts, by name."""
    env = _env(tree)

    def job(*args):
        done = subprocess.run([sys.executable, *args], env=env, cwd=out,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}\n"
                             f"{done.stdout}{done.stderr}")
        return done.stdout

    out.mkdir(parents=True)
    job(str(tree / "scripts" / "rate_study.py"), "rate_study")
    (out / "highres.cfg").write_text(HIGHRES_CONFIG, encoding="utf-8")
    job("-m", "qnslab.cli", "run", "--config", "highres.cfg", "--output", "highres_n256")
    return {name: job("-m", "qnslab.cli", name) for name in BATTERIES}


def run_failures(tree: Path, out: Path) -> dict:
    """Run the FAILURES of tree, each in out/<name>: by name, the exit
    code, the stderr and the bytes of each CSV it wrote, by path."""
    results = {}
    for name, (args, config) in FAILURES.items():
        cwd = out / name
        cwd.mkdir(parents=True)
        if config is not None:
            (cwd / "failure.cfg").write_text(config, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "qnslab.cli", *args], env=_env(tree),
                              cwd=cwd, capture_output=True, text=True)
        csvs = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*.csv"))}
        results[name] = (done.returncode, done.stderr, csvs)
    return results


def failure_differences(want: dict, got: dict) -> dict:
    """Per failure, by name, what got does differently from want: a list
    of "exit code", "stderr" and "CSV bytes", empty when they agree."""
    return {name: [what for what, a, b in zip(("exit code", "stderr", "CSV bytes"),
                                              want[name], got[name]) if a != b]
            for name in want}


def read_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def column_ratio(want: list, got: list) -> float:
    """max |got - want| / max |want| over a column; inf when a row count
    or a non-numeric cell differs."""
    if len(want) != len(got):
        return float("inf")
    try:
        a, b = [float(v) for v in want], [float(v) for v in got]
    except ValueError:
        return 0.0 if want == got else float("inf")
    diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
    scale = max((abs(x) for x in a), default=0.0)
    return diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else float("inf"))


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in sys.argv[1:])
    with tempfile.TemporaryDirectory(prefix="same_answers-") as tmp:
        outs = Path(tmp) / "parent", Path(tmp) / "change"
        stdouts = [run_tree(tree, out) for tree, out in zip((parent, change), outs)]
        ok = True
        csvs = [{p.relative_to(out): p for p in out.rglob("*.csv")} for out in outs]
        for rel in sorted(set(csvs[0]) | set(csvs[1])):
            if rel not in csvs[0] or rel not in csvs[1]:
                print(f"{rel}: only in the {'change' if rel in csvs[1] else 'parent'}")
                ok = False
                continue
            want, got = read_columns(csvs[0][rel]), read_columns(csvs[1][rel])
            for name in list(want) + [c for c in got if c not in want]:
                ratio = column_ratio(want[name], got[name]) if name in want and name in got \
                    else float("inf")
                ok &= ratio <= TOL
                print(f"{rel}  {name}: {ratio:.3e}{'' if ratio <= TOL else '  ABOVE TOL'}")
        for suffix in ("csv", "qnsf"):
            files = [sorted(out.rglob(f"*.{suffix}")) for out in outs]
            same = [p.relative_to(outs[0]) for p in files[0]] == \
                [p.relative_to(outs[1]) for p in files[1]] and \
                all(a.read_bytes() == b.read_bytes() for a, b in zip(*files))
            print(f".{suffix} files ({len(files[0])}): {'byte-identical' if same else 'DIFFER'}")
        for name in BATTERIES:
            same = stdouts[0][name] == stdouts[1][name]
            print(f"{name} report lines: {'byte-identical' if same else 'DIFFER'}")
        print(f"every column within {TOL:g} of its max |value|: {'yes' if ok else 'NO'}")
        failures = [run_failures(tree, out.with_name(f"{out.name}-failures"))
                    for tree, out in zip((parent, change), outs)]
        for name, diff in failure_differences(*failures).items():
            code = failures[0][name][0]
            print(f"failure {name} (parent exit {code}): "
                  + (f"DIFFER in {', '.join(diff)}" if diff else "the same"))
            ok &= not diff
        return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
