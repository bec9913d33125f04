#!/usr/bin/env python3
"""Do two source trees give the same answers?  The check a refactor of
qnslab must pass.

Usage: python3 scripts/same_answers.py PARENT_TREE CHANGE_TREE

In each tree, in a subprocess with PYTHONPATH=<tree>/src, it runs the
headline rate study (<tree>/scripts/rate_study.py, gamma = 2 and 3), one
run of the benchmark's highres_n256 size (N = 256, eps = 0.05, two
steps: an advective one of 0.00878, then the clamp to t_end), a run of
the same size seeded from_snapshot by that run's terminal .qnsf (its
Euler reference is the projected snapshot velocity, held at every time),
and the bohm-check, acoustic-test and euler-test batteries.  It
prints, per CSV column and per .qnsf field, max |change - parent| /
max |parent|, each battery's verdicts (the ok / FAIL token of each
report line and the final PASS / FAIL), whether the rate study's
answers are the same (per gamma and tracked quantity its printed slope
and PASS / FAIL, each energy-inequality line's PASS / FAIL / ABORTED,
the density band's PASS / FAIL and the gamma and overall verdicts; not
its wall times), and whether the CSV files, the .qnsf snapshots and the
reports are byte-identical.  It also runs the FAILURES, inputs that
must fail, each in a directory of its own, and compares their exit
codes, stderr and CSV bytes.  It exits 1 when a job fails, a CSV, a
column, a snapshot or a snapshot field is on one side only, a field's
shape differs, a ratio is above TOL, a battery's verdicts or the rate
study's answers differ or a failure differs, and 0 otherwise: the other
numbers of a report may move.

Snapshots are read by qnslab.qnsio of the tree this script is in.
"""

import csv
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qnslab.qnsio import SnapshotError, read_snapshot  # noqa: E402

TOL = 1e-11

HIGHRES_CONFIG = """\
grid_n = 256
gamma = 2
epsilon = 0.05
t_end = 0.0125
initial_profile = sine_density(0.5)
record_every = 1000
"""

# The same size again, chained: it starts from the highres run's last state.
SNAPSHOT_CONFIG = """\
grid_n = 256
gamma = 2
epsilon = 0.05
t_end = 0.0125
initial_profile = from_snapshot(highres_n256/diagnostics.qnsf)
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
    """Run every job of tree into out; the stdouts of the rate study
    and of each battery, by name."""
    env = _env(tree)

    def job(*args):
        done = subprocess.run([sys.executable, *args], env=env, cwd=out,
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{tree}: {' '.join(args)} exited {done.returncode}\n"
                             f"{done.stdout}{done.stderr}")
        return done.stdout

    out.mkdir(parents=True)
    rate_study = job(str(tree / "scripts" / "rate_study.py"), "rate_study")
    (out / "highres.cfg").write_text(HIGHRES_CONFIG, encoding="utf-8")
    job("-m", "qnslab.cli", "run", "--config", "highres.cfg", "--output", "highres_n256")
    (out / "from_snapshot.cfg").write_text(SNAPSHOT_CONFIG, encoding="utf-8")
    job("-m", "qnslab.cli", "run", "--config", "from_snapshot.cfg", "--output",
        "from_snapshot_n256")
    return {"rate_study": rate_study, **{name: job("-m", "qnslab.cli", name)
                                         for name in BATTERIES}}


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


def _ratio(diff: float, scale: float) -> float:
    return diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else float("inf"))


def column_ratio(want: list, got: list) -> float:
    """max |got - want| / max |want| over a column; inf when a row count
    or a non-numeric cell differs."""
    if len(want) != len(got):
        return float("inf")
    try:
        a, b = [float(v) for v in want], [float(v) for v in got]
    except ValueError:
        return 0.0 if want == got else float("inf")
    return _ratio(max((abs(x - y) for x, y in zip(a, b)), default=0.0),
                  max((abs(x) for x in a), default=0.0))


def snapshot_ratios(want: Path, got: Path) -> dict:
    """Per field of either snapshot, by name, max |got - want| /
    max |want|; inf for a field on one side only or of another shape."""
    (_, a), (_, b) = read_snapshot(want), read_snapshot(got)
    ratios = {}
    for name in list(a) + [n for n in b if n not in a]:
        if name in a and name in b and a[name].shape == b[name].shape:
            ratios[name] = _ratio(float(np.abs(b[name] - a[name]).max()),
                                  float(np.abs(a[name]).max()))
        else:
            ratios[name] = float("inf")
    return ratios


VERDICT = re.compile(r"\((ok|FAIL)\)$|: (PASS|FAIL)$")


def verdicts(report: str) -> list:
    """A battery report's verdicts: per line, its closing (ok) or (FAIL)
    token, the PASS or FAIL of its final "name: PASS|FAIL" line, or ""
    for a line that gives none."""
    found = [VERDICT.search(line.rstrip()) for line in report.splitlines()]
    return [match.group(1) or match.group(2) if match else "" for match in found]


# The answers of a rate study report's lines: a tracked quantity's printed
# slope and verdict (or its "no fit"), an energy-inequality line's epsilon
# and verdict, the density band's verdict, and the gamma and overall verdicts.
RATE_STUDY_ANSWERS = (
    re.compile(r"^  (\w+) *: slope = (\S+) \(.*\) (PASS|FAIL)$"),
    re.compile(r"^  (\w+) *: (no fit) \((FAIL)\)$"),
    re.compile(r"^  energy inequality at eps = (\S+): (PASS|FAIL|ABORTED) "),
    re.compile(r"^  (density band) .*: (PASS|FAIL) "),
    re.compile(r"^(gamma = \S+|overall): (PASS|FAIL)$"),
)


def rate_study_answers(report: str) -> list:
    """The answers of each rate study report line that gives any, in
    order, as the groups of its RATE_STUDY_ANSWERS pattern."""
    return [match.groups() for line in report.splitlines() for pattern in RATE_STUDY_ANSWERS
            if (match := pattern.match(line))]


def compare_outputs(outs, stdouts) -> bool:
    """Print how the change's outputs, in outs[1] with its rate study
    and battery stdouts[1], differ from the parent's, outs[0] and
    stdouts[0]; True when they give the same answers: every CSV column
    and .qnsf field within TOL, the rate study's answers and every
    battery's verdicts equal."""
    ok = True
    for suffix in ("csv", "qnsf"):
        files = [{p.relative_to(out): p for p in out.rglob(f"*.{suffix}")} for out in outs]
        for rel in sorted(set(files[0]) | set(files[1])):
            if rel not in files[0] or rel not in files[1]:
                print(f"{rel}: only in the {'change' if rel in files[1] else 'parent'}")
                ok = False
                continue
            if suffix == "csv":
                want, got = read_columns(files[0][rel]), read_columns(files[1][rel])
                ratios = {name: column_ratio(want[name], got[name])
                          if name in want and name in got else float("inf")
                          for name in list(want) + [c for c in got if c not in want]}
            else:
                try:
                    ratios = snapshot_ratios(files[0][rel], files[1][rel])
                except SnapshotError as exc:
                    print(f"{rel}: unreadable: {exc}")
                    ok = False
                    continue
            for name, ratio in ratios.items():
                ok &= ratio <= TOL
                print(f"{rel}  {name}: {ratio:.3e}{'' if ratio <= TOL else '  ABOVE TOL'}")
        same = sorted(files[0]) == sorted(files[1]) and \
            all(files[0][rel].read_bytes() == files[1][rel].read_bytes() for rel in files[0])
        print(f".{suffix} files ({len(files[0])}): {'byte-identical' if same else 'DIFFER'}")
    for name in ("rate_study", *BATTERIES):
        want, got = stdouts[0][name], stdouts[1][name]
        answers = rate_study_answers if name == "rate_study" else verdicts
        same = answers(want) == answers(got)
        ok &= same
        print(f"{name} answers: {'the same' if same else 'DIFFER'}, report lines "
              f"{'byte-identical' if want == got else 'differ'}")
    print(f"every column and field within {TOL:g} of its max |value|, every slope and "
          f"verdict the same: {'yes' if ok else 'NO'}")
    return ok


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in sys.argv[1:])
    with tempfile.TemporaryDirectory(prefix="same_answers-") as tmp:
        outs = Path(tmp) / "parent", Path(tmp) / "change"
        stdouts = [run_tree(tree, out) for tree, out in zip((parent, change), outs)]
        ok = compare_outputs(outs, stdouts)
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
