"""Run configuration, the one run loop (RunSteps) and its fold, and epsilon sweeps."""

from __future__ import annotations

import math
import numbers
import re
import time as _time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .acoustic import AcousticState, InitialData, acoustic_evolve, acoustic_init
from .constitutive import LimitParams, VacuumError
from .diagnostics import (
    EntropyReport,
    RateFit,
    density_deviation_norms,
    rate_fits,
    relative_entropy,
)
from .euler import EulerReference, pressure_recover, taylor_green
from .qns import (
    CFL_SAFETY,
    CflViolation,
    EnergyLedger,
    NumericalAbort,
    QnsState,
    cfl_bounds,
    qns_init,
    qns_step,
)
from .qnsio import format_sig17, read_snapshot, write_csv, write_snapshot
from .spectral import (Grid2D, ScalarField, SpectralError, check_grid_size, helmholtz_project,
                       vector_field)

RATE_SLOPE_MARGIN = 0.1
DENSITY_BAND_FACTOR = 10.0

# The AUTO step policy takes min(stability bound, ACOUSTIC_RESOLVE * eps).
# The exact linear flow needs no step restriction for stability, but the
# error of the nonlinear/acoustic coupling grows with dt/eps and corrupts
# the 1/eps^2-weighted diagnostics once dt stays O(1) while eps shrinks
# (with no cap, eps = 0.025 takes 8 steps and its terminal values are off
# by up to 33 %, those of eps = 0.0125 by 150 %).  Against a fixed step
# eps/128 (which agrees with eps/64 to 1.1e-8), the largest relative
# error of the terminal tracked quantities on the ladder eps = 0.2, 0.1,
# 0.05, 0.025, 0.0125, 0.00625 (N = 64, t_end = 0.25, sine_density(0.5))
# is, for the Lawson RK4 step at 0.5 eps, 3.1e-5, 1.6e-4, 6.9e-3, 6.6e-4,
# 1.5e-4, 5.1e-5 at gamma = 2 and 5.4e-5, 2.3e-3, 2.1e-2, 4.1e-4, 7.1e-4,
# 5.5e-4 at gamma = 3.  No rung is worse than the former Strang splitting
# at 0.25 eps (4.8e-5 to 2.5e-2), but for gamma = 2, eps = 0.00625, where
# both sit below 1e-4 (4.8e-5).  A 0.75 eps cap reaches 8.7e-2 (gamma = 3,
# eps = 0.05).
ACOUSTIC_RESOLVE = 0.5

# What can set a step: one of the cfl_bounds, the acoustic cap, the clamp
# to t_end, or the fixed policy.
DT_LIMITS = ("advective", "bohm", "viscous", "acoustic", "t_end", "fixed")

# What ends a run early, with its reason in RunSteps.aborted.
_ABORTS = (VacuumError, NumericalAbort, CflViolation, SpectralError)

# The initial profiles build_initial_data builds, by RunConfig.initial_profile.
INITIAL_PROFILES = ("rest", "sine_density", "tg_plus_gradient", "from_snapshot")


class ConfigError(ValueError):
    pass


def _unknown_profile(name: str) -> ConfigError:
    return ConfigError(f"unknown initial profile {name!r} (known: {', '.join(INITIAL_PROFILES)})")


@dataclass
class RunConfig:
    grid_n: int = 64
    gamma: float = 2.0
    epsilon: float | None = None
    epsilon_ladder: list[float] | None = None
    t_end: float = 0.5
    dt_fixed: float | None = None  # None: the AUTO step policy
    initial_profile: str = "rest"
    profile_amplitude: float = 0.0
    snapshot_path: str | None = None
    eta: float = 0.0
    output_dir: str = "qns_out"
    seed: int = 0
    record_every: int = 10

    def __post_init__(self):
        reals = {"epsilon": self.epsilon, "gamma": self.gamma, "t_end": self.t_end,
                 "eta": self.eta, "fixed dt": self.dt_fixed,
                 "profile amplitude": self.profile_amplitude}
        for name, value in reals.items():
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        try:
            check_grid_size(self.grid_n, "grid_n")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if self.initial_profile not in INITIAL_PROFILES:
            raise _unknown_profile(self.initial_profile)
        if (self.snapshot_path is not None) != (self.initial_profile == "from_snapshot"):
            raise ConfigError(f"initial_profile {self.initial_profile} with snapshot_path "
                              f"{self.snapshot_path!r}: from_snapshot alone reads one, and needs it")
        if self.initial_profile in ("rest", "from_snapshot") and self.profile_amplitude != 0:
            raise ConfigError(f"initial_profile {self.initial_profile} takes no amplitude, "
                              f"got {self.profile_amplitude}")
        if self.epsilon is None and self.epsilon_ladder is None:
            raise ConfigError("missing required epsilon or epsilon_ladder")
        if self.epsilon_ladder is not None:
            lad = self.epsilon_ladder
            if any(b >= a for a, b in zip(lad, lad[1:])):
                raise ConfigError(f"epsilon_ladder must be strictly decreasing, got {lad}")
        if self.dt_fixed is not None and self.dt_fixed <= 0:
            raise ConfigError("dt_policy fixed needs a positive dt")
        if not (isinstance(self.record_every, numbers.Integral) and self.record_every >= 1):
            raise ConfigError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not (self.eta >= 0 and self.eta * self.eta < math.inf):
            raise ConfigError(f"eta must be >= 0 with eta^2 finite, got {self.eta}")
        try:
            for eps in [self.epsilon, *(self.epsilon_ladder or ())]:
                if eps is not None:
                    self.params(eps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def params(self, epsilon: float | None = None) -> LimitParams:
        eps = epsilon if epsilon is not None else self.epsilon
        return LimitParams(epsilon=eps, gamma=self.gamma)


def _parse_int(raw: str) -> int:
    if not re.fullmatch(r"[+-]?\d+", raw):
        raise ValueError(raw)
    return int(raw)


def _parse_dt_policy(raw: str) -> dict:
    m = re.fullmatch(r"auto|fixed\(([^)]+)\)", raw.lower())
    if m is None:
        raise ValueError(raw)
    return {"dt_fixed": None if m.group(1) is None else float(m.group(1))}


def _parse_profile(raw: str) -> dict:
    if m := re.fullmatch(r"from_snapshot\((.+)\)", raw, flags=re.IGNORECASE):
        name, amp, snap = "from_snapshot", 0.0, m.group(1)
    elif m := re.fullmatch(r"rest|(sine_density|tg_plus_gradient)\(([^)]+)\)", raw.lower()):
        name, amp, snap = m.group(1) or "rest", float(m.group(2) or 0.0), None
    else:
        raise ValueError(raw)
    return {"initial_profile": name, "profile_amplitude": amp, "snapshot_path": snap}


def _field(name: str, conv):
    return lambda raw: {name: conv(raw)}


# Each config key: the parser of its raw value into the RunConfig fields
# it sets (ValueError when the value is malformed), and what it expects.
_CONFIG_KEYS = {
    "grid_n": (_field("grid_n", _parse_int), "an integer"),
    "gamma": (_field("gamma", float), "a real number"),
    "epsilon": (_field("epsilon", float), "a real number"),
    "epsilon_ladder": (_field("epsilon_ladder", lambda raw: [
        float(tok) for tok in raw.split(",") if tok.strip()]), "comma-separated reals"),
    "t_end": (_field("t_end", float), "a real number"),
    "dt_policy": (_parse_dt_policy, "auto or fixed(dt)"),
    "initial_profile": (_parse_profile, "rest, sine_density(a), tg_plus_gradient(a) "
                                        "or from_snapshot(path)"),
    "eta": (_field("eta", float), "a real number"),
    "output_dir": (_field("output_dir", str), "a path"),
    "seed": (_field("seed", _parse_int), "an integer"),
    "record_every": (_field("record_every", _parse_int), "an integer"),
}
_KNOWN_KEYS = set(_CONFIG_KEYS)


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines (# comments) into a RunConfig, each value
    through its key's _CONFIG_KEYS parser.  The first line with an unknown
    or duplicate key or a value its parser refuses is rejected with its
    number; absent keys take RunConfig's field defaults."""
    seen: dict[str, int] = {}
    kwargs: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().lower(), raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = line_no
        parse, what = _CONFIG_KEYS[key]
        try:
            kwargs.update(parse(raw))
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: {key} expects {what}, got {raw!r}") from exc
    return RunConfig(**kwargs)


def build_initial_data(cfg: RunConfig, grid: Grid2D) -> tuple[InitialData, EulerReference]:
    """Initial (n1_0, u_0) for the named profile plus its Euler reference,
    the solenoidal part of u_0 held at every time (time None): zero for
    rest, the stationary vortex, or the projected snapshot velocity."""
    zero = np.zeros((grid.n_points, grid.n_points))
    a = cfg.profile_amplitude
    if cfg.initial_profile == "rest":
        n1 = ScalarField(grid, zero)
        u0 = vector_field(grid, zero, zero)
        ref = EulerReference(v=u0, pi=n1, time=None)  # zero, on the data's own zero fields
    elif cfg.initial_profile in ("sine_density", "tg_plus_gradient"):
        tg = taylor_green(grid)
        c = grid.coords
        if cfg.initial_profile == "sine_density":
            n1 = ScalarField(grid, np.tile(a * np.sin(c), (grid.n_points, 1)))
        else:
            n1 = ScalarField(grid, zero)
        # gradient-part velocity a*grad(sin x + sin y) on top of the vortex;
        # the 1-D tables broadcast along x ([None, :]) and y ([:, None])
        a_cos = a * np.cos(c)
        u0 = vector_field(
            grid, tg.v.x.values + a_cos[None, :], tg.v.y.values + a_cos[:, None]
        )
        ref = tg
    elif cfg.initial_profile == "from_snapshot":
        grid_n, fields = read_snapshot(cfg.snapshot_path)
        if grid_n != grid.n_points:
            raise ConfigError(
                f"snapshot grid {grid_n} does not match configured grid_n {grid.n_points}"
            )
        try:
            n1 = ScalarField(grid, fields["n1_0"])
            u0 = vector_field(grid, fields["u0_x"], fields["u0_y"])
        except KeyError as exc:
            raise ConfigError(f"snapshot is missing field {exc}") from exc
        try:
            p_part, _ = helmholtz_project(u0)
            ref = EulerReference(v=p_part, pi=pressure_recover(p_part), time=None)
        except SpectralError as exc:
            raise ConfigError(f"snapshot {cfg.snapshot_path}: no finite Euler reference") from exc
    else:
        raise _unknown_profile(cfg.initial_profile)
    return InitialData(n1_0=n1, u_0=u0, eta=cfg.eta), ref


@dataclass
class RunResult:
    epsilon: float
    reports: list[EntropyReport]
    ledger: EnergyLedger
    dt_max: float
    terminal_density_norms: dict[str, float] | None = None
    aborted: str | None = None
    wall_seconds: float = 0.0
    # steps taken per limit that set their dt (keys: DT_LIMITS)
    dt_limits: dict[str, int] = field(default_factory=lambda: dict.fromkeys(DT_LIMITS, 0))

    @property
    def energy_ok(self) -> bool:
        return self.aborted is None and self.ledger.inequality_ok(self.dt_max)

    @property
    def dt_limits_line(self) -> str:
        """The dt_limits counts as 'advective 0, bohm 0, ...'."""
        return ", ".join(f"{name} {n}" for name, n in self.dt_limits.items())


def _next_dt(cfg: RunConfig, state, eps: float) -> tuple[float, str]:
    """The next step and the limit in DT_LIMITS that set it."""
    if cfg.dt_fixed is not None:
        dt, limit = cfg.dt_fixed, "fixed"
    else:
        bounds = cfl_bounds(state)
        limit = min(bounds, key=bounds.get)
        dt = CFL_SAFETY * bounds[limit]
        if ACOUSTIC_RESOLVE * eps < dt:
            dt, limit = ACOUSTIC_RESOLVE * eps, "acoustic"
    if cfg.t_end - state.time < dt:
        dt, limit = cfg.t_end - state.time, "t_end"
    return dt, limit


@dataclass
class Step:
    """One state of a run, the dt and DT_LIMITS entry of the step that
    reached it (0.0 and None at t = 0), and its report when one is due."""

    state: QnsState
    dt: float
    limit: str | None
    report: EntropyReport | None


def linear_target(ref: EulerReference, ac0: AcousticState):
    """ref, and ac0 evolved exactly to t: ac0 itself at t = 0, not its round trip."""
    return lambda t: (ref, ac0 if t == 0 else acoustic_evolve(ac0, t))


class RunSteps:
    """The steps of one run from data against target(t), the (EulerReference,
    AcousticState) pair at t (a linear_target, say): the Step at t = 0, then
    one per step to t_end, with relative_entropy(state, *target(state.time))
    at t = 0, every record_every steps and at t_end.  Entry i of the ledger
    is the state after i steps: each step appends the entry of the state it
    starts from, and the last state, also after an abort, is recorded on its
    own if no step did.  A numerical abort (in a step, a report or that
    record) ends the iteration with its first reason in aborted.  Its steps
    are yielded once, as by any iterator.  The run drops its reference to
    data once the initial state is built from it."""

    def __init__(self, cfg: RunConfig, eps: float, data: InitialData, target: Callable):
        self.ledger = EnergyLedger()
        self.aborted: str | None = None
        self._steps = self._run(cfg, eps, data, target)

    def __iter__(self) -> Iterator[Step]:
        return self._steps

    def _run(self, cfg, eps, data, target) -> Iterator[Step]:
        ledger, state, steps = self.ledger, None, 0
        try:
            state = qns_init(cfg.params(eps), data)
            del data  # nothing reads the initial data again
            yield Step(state, 0.0, None, relative_entropy(state, *target(state.time)))
            while state.time < cfg.t_end - 1e-12:
                dt, limit = _next_dt(cfg, state, eps)
                state = qns_step(state, dt, ledger)
                steps += 1
                report = None
                if steps % cfg.record_every == 0 or state.time >= cfg.t_end - 1e-12:
                    report = relative_entropy(state, *target(state.time))
                yield Step(state, dt, limit, report)
        except _ABORTS as exc:
            self.aborted = f"{type(exc).__name__}: {exc}"
        if state is not None and len(ledger.entries) == steps:
            try:
                ledger.record(state)
            except _ABORTS as exc:
                self.aborted = self.aborted or f"{type(exc).__name__}: {exc}"


def run_single(cfg: RunConfig, epsilon: float | None = None, csv_path=None) -> RunResult:
    """One run of cfg's initial profile against its linear_target: the fold
    over RunSteps that keeps the reports, dt_max, the steps per dt limit and
    the last state.  Diagnostics go to csv_path when given, one row per
    report whose state has its ledger entry, and an ABORTED sentinel row
    after a numerical abort (the partial series is still flushed); a
    finished run also writes its last state beside them as a .qnsf snapshot."""
    eps = epsilon if epsilon is not None else cfg.epsilon
    if eps is None:
        raise ConfigError("run needs a single epsilon (use sweep for a ladder)")
    t0 = _time.perf_counter()
    data, ref = build_initial_data(cfg, Grid2D(cfg.grid_n))
    linear = None

    def target(t):
        # built at the first report, after qns_init, so that qns_init's aborts come first
        # and its arrays are allocated first: the peak RSS of an N = 256 run depends on it
        nonlocal data, linear
        if linear is None:
            linear, data = linear_target(ref, acoustic_init(data, cfg.params(eps))), None
        return linear(t)

    run = RunSteps(cfg, eps, data, target)
    dt_max = 0.0
    dt_limits = dict.fromkeys(DT_LIMITS, 0)
    reports = []  # (i, report of the state after i steps)
    for i, step in enumerate(run):
        dt_max = max(dt_max, step.dt)
        if step.limit is not None:
            dt_limits[step.limit] += 1
        if step.report is not None:
            reports.append((i, step.report))
    # a run that did not abort ended on step.state

    if csv_path is not None:
        entries = run.ledger.entries
        csv_path = Path(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv([(r.t, r.rel_entropy, r.kinetic_part, r.quantum_part, r.internal_part,
                    *r.theorem_lhs, entries[i].e_total, entries[i].d_cumulative)
                   for i, r in reports if i < len(entries)], csv_path, aborted=run.aborted)
        if run.aborted is None:
            # terminal state in the initial-data layout, so a finished
            # run can seed a FROM_SNAPSHOT profile
            state = step.state
            write_snapshot(
                {
                    "n1_0": (state.n.values - 1.0) / eps,
                    "u0_x": state.m.x.values / state.n.values,
                    "u0_y": state.m.y.values / state.n.values,
                },
                csv_path.with_suffix(".qnsf"),
            )
    return RunResult(
        epsilon=eps,
        reports=[r for _, r in reports],
        ledger=run.ledger,
        dt_max=dt_max,
        terminal_density_norms=None if run.aborted else density_deviation_norms(step.state),
        aborted=run.aborted,
        wall_seconds=_time.perf_counter() - t0,
        dt_limits=dt_limits,
    )


TRACKED_QUANTITIES = ("rel_entropy", "thm_vel", "thm_dens", "thm_grad")


def _terminal_values(res: RunResult) -> dict[str, float]:
    """The last report's TRACKED_QUANTITIES, all NaN if the run aborted before t_end."""
    if res.aborted:
        return {q: float("nan") for q in TRACKED_QUANTITIES}
    last = res.reports[-1]
    return dict(zip(TRACKED_QUANTITIES, (last.rel_entropy, *last.theorem_lhs)))


@dataclass
class SweepResult:
    epsilons: list[float]
    runs: list[RunResult]
    fits: dict[str, RateFit] = field(default_factory=dict)
    rate_threshold: float = 0.0
    density_ratios: list[float] = field(default_factory=list)
    synthetic: bool = False

    @property
    def failed(self) -> bool:
        """Some run aborted."""
        return any(r.aborted is not None for r in self.runs)

    @property
    def rate_verdicts(self) -> dict[str, bool]:
        return {name: fit.slope >= self.rate_threshold for name, fit in self.fits.items()}

    @property
    def density_band_ok(self) -> bool:
        """||n-1||_{L^lambda}/eps stays within a factor-10 band.  A
        non-finite ratio (an aborted run) fails the band."""
        if not np.isfinite(self.density_ratios).all():
            return False
        ratios = [r for r in self.density_ratios if r > 0]
        if len(ratios) < 2:
            return True
        return max(ratios) / min(ratios) < DENSITY_BAND_FACTOR

    @property
    def energy_verdicts(self) -> list[bool]:
        return [r.energy_ok for r in self.runs]

    @property
    def passed(self) -> bool:
        """The sweep's one verdict: no run aborted, every run keeps its
        energy inequality, the density band holds, and each of the
        TRACKED_QUANTITIES has a fit whose slope passes."""
        verdicts = self.rate_verdicts
        return (not self.failed and all(self.energy_verdicts) and self.density_band_ok
                and all(verdicts.get(q, False) for q in TRACKED_QUANTITIES))

    def lines(self) -> list[str]:
        """The sweep report behind passed: per tracked quantity its slope,
        threshold and log-residual, or "no fit"; per run its energy
        verdict, max E+D-E0, wall time and the steps each dt limit set;
        then the density band and its ratios."""
        lines = [f"  sweep over epsilon ladder {self.epsilons}"
                 + (" (synthetic)" if self.synthetic else "")]
        verdicts = self.rate_verdicts
        for q in TRACKED_QUANTITIES:
            fit = self.fits.get(q)
            if fit is None:
                lines.append(f"  {q:12s}: no fit (FAIL)")
                continue
            lines.append(f"  {q:12s}: slope = {fit.slope:+.4f} (threshold "
                         f"{self.rate_threshold:.4f}, residual {fit.residual:.2e}) "
                         f"{'PASS' if verdicts[q] else 'FAIL'}")
        for eps, run in zip(self.epsilons, self.runs):
            state = "ABORTED" if run.aborted else ("PASS" if run.energy_ok else "FAIL")
            lines.append(f"  energy inequality at eps = {eps:g}: {state} "
                         f"(max E+D-E0 = {run.ledger.max_violation():.2e}; "
                         f"{run.wall_seconds:.2f} s; steps by dt limit: {run.dt_limits_line})")
        ratios = ", ".join(f"{r:.4g}" for r in self.density_ratios)
        lines.append(f"  density band ||n-1||_Llambda/eps within x{DENSITY_BAND_FACTOR:g}: "
                     f"{'PASS' if self.density_band_ok else 'FAIL'} (ratios {ratios})")
        return lines


def run_sweep(cfg: RunConfig, synthetic: bool = False) -> SweepResult:
    """run_single per ladder entry, in order, into one row per rung:
    epsilon, its _terminal_values and its density ratio (NaN if it
    aborted), written to cfg.output_dir as sweep_summary.csv beside each
    run's CSV and snapshot, its tracked columns fitted by diagnostics.rate_fits
    as qnslab rate-fit fits them; passed is the verdict.

    synthetic=True bypasses the solver and injects the exact power law
    eps**rate, exercising the fit/report plumbing alone.  An aborted run
    fails the sweep and its NaN row leaves it without fits; the other runs
    still complete and report.
    """
    if cfg.epsilon_ladder is None or len(cfg.epsilon_ladder) < 3:
        raise ConfigError("sweep needs an epsilon_ladder of length >= 3")
    ladder = list(cfg.epsilon_ladder)
    out = Path(cfg.output_dir)

    rate = cfg.params(ladder[0]).rate
    if synthetic:
        runs = []
        rows = [(eps, *[eps ** rate] * len(TRACKED_QUANTITIES), 1.0) for eps in ladder]
    else:
        runs = [run_single(cfg, epsilon=eps, csv_path=out / f"run_eps_{eps:g}.csv")
                for eps in ladder]
        rows = [(eps, *_terminal_values(res).values(), float("nan") if res.aborted
                 else res.terminal_density_norms["full_Llambda"] / eps)
                for eps, res in zip(ladder, runs)]

    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(("epsilon", *TRACKED_QUANTITIES, "density_ratio"))]
    lines += [",".join(format_sig17(x) for x in row) for row in rows]
    (out / "sweep_summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8",
                                           newline="\n")
    columns = list(zip(*rows))
    return SweepResult(epsilons=ladder, runs=runs,
                       fits=rate_fits(ladder, dict(zip(TRACKED_QUANTITIES, columns[1:-1]))),
                       rate_threshold=rate - RATE_SLOPE_MARGIN,
                       density_ratios=list(columns[-1]), synthetic=synthetic)
