import re
import struct

import numpy as np
import pytest

from qnslab import (
    BadMagic,
    ConfigError,
    Grid2D,
    InitialData,
    RunConfig,
    RunSteps,
    ScalarField,
    SnapshotError,
    Truncated,
    VersionMismatch,
    acoustic_evolve,
    acoustic_init,
    linear_target,
    norm,
    parse_config,
    read_csv_columns,
    read_snapshot,
    relative_entropy,
    run_single,
    run_sweep,
    vector_field,
    write_csv,
    write_snapshot,
)
from qnslab.checks import SeededNormal, bohm_form_check
from qnslab.cli import main as cli_main
from qnslab.harness import build_initial_data
from qnslab.qnsio import CSV_HEADER


# ---------------------------------------------------------------- config


def test_parse_minimal_config():
    cfg = parse_config("gamma = 2\nepsilon = 0.1\n")
    assert cfg.grid_n == 64
    assert cfg.t_end == 0.5
    assert cfg.dt_fixed is None
    assert cfg.eta == 0.0
    assert cfg.record_every == 10
    assert cfg.params().rate == pytest.approx(0.5)


def test_parse_gamma_three_derived_exponents():
    cfg = parse_config("gamma = 3\nepsilon = 0.1")
    assert cfg.params().rate == pytest.approx(1 / 3)
    assert cfg.params().lam == 2.0


def test_parse_ladder():
    cfg = parse_config("epsilon_ladder = 0.2,0.1,0.05,0.025\n")
    assert cfg.epsilon_ladder == [0.2, 0.1, 0.05, 0.025]


def test_parse_ladder_error_and_output_dir():
    with pytest.raises(ConfigError) as err:
        parse_config("epsilon_ladder = 0.2,abc")
    assert str(err.value) == "line 1: epsilon_ladder expects comma-separated reals, got '0.2,abc'"
    cfg = parse_config("epsilon = 0.1\noutput_dir = runs/eps 0.1\n")
    assert cfg.output_dir == "runs/eps 0.1"


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# leading comment\n\ngamma = 2.5  # inline\nepsilon = 0.2\n")
    assert cfg.gamma == 2.5


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("epsilon = 0.1\nmach = 3\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("epsilon = 0.1\nepsilon = 0.2\n")


def test_parse_type_mismatch():
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config("epsilon = 0.1\ngrid_n = sixty-four\n")
    with pytest.raises(ConfigError, match="grid_n"):
        parse_config("epsilon = 0.1\ngrid_n = 64.5\n")


def test_parse_missing_epsilon():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config("gamma = 2\n")


@pytest.mark.parametrize("record_every", [2.5, 0])
def test_config_refuses_record_every_not_a_positive_integer(record_every):
    with pytest.raises(ConfigError, match="record_every must be an integer >= 1"):
        RunConfig(epsilon=0.1, record_every=record_every)


def test_parse_non_decreasing_ladder():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config("epsilon_ladder = 0.1,0.2,0.3\n")


def test_parse_profiles_and_dt_policy(tmp_path):
    cfg = parse_config("epsilon = 0.1\ninitial_profile = SINE_DENSITY(0.5)\n")
    assert cfg.initial_profile == "sine_density"
    assert cfg.profile_amplitude == 0.5

    assert parse_config("epsilon = 0.1\ndt_policy = auto\n").dt_fixed is None
    cfg = parse_config("epsilon = 0.1\ndt_policy = FIXED(0.001)\n")
    assert cfg.dt_fixed == 0.001

    with pytest.raises(ConfigError, match="dt_policy"):
        parse_config("epsilon = 0.1\ndt_policy = adaptive\n")
    with pytest.raises(ConfigError, match="initial_profile"):
        parse_config("epsilon = 0.1\ninitial_profile = whirl(2)\n")


@pytest.mark.parametrize(
    "raw, want",
    [("rest", ("rest", 0.0, None)), ("REST", ("rest", 0.0, None)),
     ("tg_plus_gradient(2)", ("tg_plus_gradient", 2.0, None)),
     ("From_Snapshot(Runs/Init.qnsf)", ("from_snapshot", 0.0, "Runs/Init.qnsf"))],
    ids=["rest", "rest-upper", "tg_plus_gradient", "from_snapshot-keeps-case"],
)
def test_parse_initial_profile_sets_its_three_fields(raw, want):
    cfg = parse_config(f"epsilon = 0.1\ninitial_profile = {raw}\n")
    assert (cfg.initial_profile, cfg.profile_amplitude, cfg.snapshot_path) == want


_PROFILE_FORMS = "rest, sine_density(a), tg_plus_gradient(a) or from_snapshot(path)"


@pytest.mark.parametrize(
    "text, message",
    [
        ("epsilon = 0.1\nmach = 3\n", "line 2: unknown key 'mach'"),
        ("epsilon = 0.1\nEpsilon = 0.2\n",
         "line 2: duplicate key 'epsilon' (first set on line 1)"),
        ("epsilon = 0.1\ngrid_n 32  # no sign\n",
         "line 2: expected 'key = value', got 'grid_n 32  # no sign'"),
        ("epsilon = 0.1\nt_end = 0\n", "t_end must be positive, got 0.0"),
        ("epsilon = 0.1\nt_end = -0.5\n", "t_end must be positive, got -0.5"),
        # at or below the run loop's end tolerance a run would take no step
        ("epsilon = 0.1\nt_end = 5e-13\n", "t_end must exceed 1e-12, got 5e-13"),
        ("epsilon = 0.1\ninitial_profile = sine_density(abc)\n",
         f"line 2: initial_profile expects {_PROFILE_FORMS}, got 'sine_density(abc)'"),
        ("epsilon = 0.1\ninitial_profile = whirl(2)\n",
         f"line 2: initial_profile expects {_PROFILE_FORMS}, got 'whirl(2)'"),
        ("epsilon = 0.1\ndt_policy = fixed(abc)\n",
         "line 2: dt_policy expects auto or fixed(dt), got 'fixed(abc)'"),
        ("epsilon = 0.1\ndt_policy = fixed(0)\n", "dt_policy fixed needs a positive dt"),
        ("seed = 1.5\nmach = 3\n", "line 1: seed expects an integer, got '1.5'"),
    ],
    ids=["unknown-key", "duplicate-key", "no-equals", "t_end-zero", "t_end-negative",
         "t_end-below-tolerance", "bad-amplitude", "unknown-profile", "bad-fixed-dt",
         "fixed-dt-zero", "first-fault"],
)
def test_parse_config_refuses_each_fault_with_its_message(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_fixed_dt_alone_sets_the_step_policy():
    # at rest the AUTO policy would take one step of 0.5 eps = t_end
    res = run_single(RunConfig(grid_n=32, epsilon=0.1, t_end=0.05, dt_fixed=1e-3))
    assert res.aborted is None
    assert res.dt_max == 1e-3
    assert res.dt_limits["acoustic"] == 0 and res.dt_limits["fixed"] >= 49


def test_every_config_key_sets_a_field_and_is_documented():
    # every RunConfig field is reached by some config key, and every key
    # is in the README's config block; sine_density(a) and
    # from_snapshot(path) exclude each other, so two configs cover it
    from dataclasses import fields
    from pathlib import Path

    from qnslab.harness import _CONFIG_KEYS

    keys = {"grid_n": "32", "gamma": "3", "epsilon": "0.1", "epsilon_ladder": "0.2,0.1,0.05",
            "t_end": "0.25", "dt_policy": "fixed(1e-3)", "eta": "0.5", "output_dir": "out",
            "seed": "7", "record_every": "3"}
    defaults = {f.name: f.default for f in fields(RunConfig)}
    changed = set()
    for profile in ("sine_density(0.5)", "from_snapshot(init.qnsf)"):
        cfg_keys = dict(keys, initial_profile=profile)
        assert set(cfg_keys) == set(_CONFIG_KEYS)
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in cfg_keys.items()))
        changed |= {name for name, value in defaults.items() if getattr(cfg, name) != value}
    assert changed == set(defaults)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Config files are", 1)[1].split("```")[1]
    for key in _CONFIG_KEYS:
        assert re.search(rf"\b{key}\s*=", block), key


def test_build_initial_data_refuses_an_unknown_profile(grid32):
    with pytest.raises(ConfigError, match="unknown initial profile 'whirl'"):
        build_initial_data(RunConfig(grid_n=32, epsilon=0.1, initial_profile="whirl"), grid32)


def test_run_config_refuses_an_unknown_profile(grid32):
    # refused where the config is built, before any run starts
    with pytest.raises(ConfigError, match="unknown initial profile 'whirl' "):
        RunConfig(grid_n=32, epsilon=0.1, initial_profile="whirl")
    cfg = RunConfig(grid_n=32, epsilon=0.1)
    cfg.initial_profile = "whirl"  # set after the check
    with pytest.raises(ConfigError, match="unknown initial profile 'whirl' "):
        build_initial_data(cfg, grid32)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"initial_profile": "from_snapshot"},
         "initial_profile from_snapshot with snapshot_path None: "),
        ({"initial_profile": "sine_density", "profile_amplitude": 0.5, "snapshot_path": "x.qnsf"},
         "initial_profile sine_density with snapshot_path 'x.qnsf': "),
        ({"initial_profile": "rest", "profile_amplitude": 0.5},
         "initial_profile rest takes no amplitude, got 0.5"),
        ({"initial_profile": "from_snapshot", "snapshot_path": "x.qnsf", "profile_amplitude": 1.0},
         "initial_profile from_snapshot takes no amplitude, got 1.0"),
    ],
    ids=["snapshot-without-path", "path-without-snapshot", "rest-amplitude",
         "snapshot-amplitude"],
)
def test_run_config_refuses_profile_arguments_no_profile_reads(kwargs, message):
    # parse_config never builds these; a config built in code is refused
    # before a run starts (from_snapshot without a path ended in a TypeError)
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig(grid_n=32, epsilon=0.1, **kwargs)


def test_profile_reference_is_consistent(grid32):
    from qnslab import helmholtz_project, norm, vector_field

    cfg = RunConfig(grid_n=32, epsilon=0.1, initial_profile="sine_density",
                    profile_amplitude=0.5)
    data, ref = build_initial_data(cfg, grid32)
    p_part, _ = helmholtz_project(data.u_0)
    gap = vector_field(
        grid32, p_part.x.values - ref.v.x.values, p_part.y.values - ref.v.y.values
    )
    assert norm(gap, 2) < 1e-10


@pytest.mark.parametrize("profile", ["sine_density", "tg_plus_gradient"])
@pytest.mark.parametrize("grid_n", [32, 256])
def test_profile_fields_equal_meshgrid_expressions(profile, grid_n):
    # the profiles are built from 1-D trig tables; every entry must equal
    # the expression evaluated on the meshgrids, bit for bit
    from qnslab import Grid2D

    a = 0.7
    grid = Grid2D(grid_n)
    x, y = grid.x, grid.y
    cfg = RunConfig(grid_n=grid_n, epsilon=0.1, initial_profile=profile, profile_amplitude=a)
    data, ref = build_initial_data(cfg, grid)
    vx, vy = np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)
    want = {
        "tg_vx": vx,
        "tg_vy": vy,
        "n1_0": a * np.sin(x) if profile == "sine_density" else np.zeros_like(x),
        "u0_x": vx + a * np.cos(x),
        "u0_y": vy + a * np.cos(y),
    }
    got = {
        "tg_vx": ref.v.x.values,
        "tg_vy": ref.v.y.values,
        "n1_0": data.n1_0.values,
        "u0_x": data.u_0.x.values,
        "u0_y": data.u_0.y.values,
    }
    for name in want:
        assert np.array_equal(got[name], want[name]), name


# ---------------------------------------------------------------- snapshots


def test_snapshot_round_trip_bitwise(tmp_path, rng):
    fields = {
        "n1_0": rng.standard_normal((32, 32)),
        "u0_x": rng.standard_normal((32, 32)),
        "u0_y": rng.standard_normal((32, 32)),
    }
    path = tmp_path / "state.qnsf"
    write_snapshot(fields, path)
    grid_n, back = read_snapshot(path)
    assert grid_n == 32
    assert list(back) == list(fields)
    for name in fields:
        assert np.array_equal(back[name], fields[name])
        assert back[name].dtype == np.float64


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.qnsf"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(BadMagic, match="BAD_MAGIC"):
        read_snapshot(path)


def test_snapshot_version_mismatch(tmp_path, rng):
    path = tmp_path / "v2.qnsf"
    write_snapshot({"f": rng.standard_normal((8, 8))}, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatch, match="VERSION_MISMATCH"):
        read_snapshot(path)


def test_snapshot_truncated(tmp_path, rng):
    path = tmp_path / "cut.qnsf"
    write_snapshot({"f": rng.standard_normal((8, 8))}, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(Truncated, match="TRUNCATED"):
        read_snapshot(path)


@pytest.mark.parametrize(
    "fields, message",
    [({}, "at least one field"),
     ({"a": np.zeros((8, 8)), "b": np.zeros((16, 16))}, "must share one shape"),
     ({"a": np.zeros((8, 16))}, "must be square, got 8x16")],
    ids=["no-fields", "shapes-differ", "not-square"],
)
def test_write_snapshot_refuses(tmp_path, fields, message):
    path = tmp_path / "refused.qnsf"
    with pytest.raises(SnapshotError, match=message):
        write_snapshot(fields, path)
    assert not path.exists()


@pytest.mark.parametrize("keep, message", [(10, "header needs 14 bytes, file has 10"),
                                           (15, "field name length missing at byte 14")],
                         ids=["header", "name-length"])
def test_snapshot_short_file_is_truncated(tmp_path, rng, keep, message):
    path = tmp_path / "short.qnsf"
    write_snapshot({"f": rng.standard_normal((8, 8))}, path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(Truncated, match=message):
        read_snapshot(path)


# ---------------------------------------------------------------- CSV


def test_csv_empty_and_single_row(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"

    row = (0.0, 1.0, 0.25, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0, 0.0)
    write_csv([row], tmp_path / "one.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("width", [9, 11])
def test_csv_refuses_a_row_of_the_wrong_length(tmp_path, width):
    with pytest.raises(ValueError, match=f"needs 10 values, got {width}"):
        write_csv([(0.0,) * width], tmp_path / "bad.csv")


def test_csv_round_trip_full_precision(tmp_path, rng):
    rows = [
        tuple([float(t)] + list(rng.standard_normal(9) * 10.0 ** rng.integers(-8, 8)))
        for t in range(5)
    ]
    path = tmp_path / "prec.csv"
    write_csv(rows, path)
    header, cols = read_csv_columns(path)
    assert header == CSV_HEADER.split(",")
    for j, name in enumerate(header):
        got = [cols[name][i] for i in range(5)]
        expected = [rows[i][j] for i in range(5)]
        assert got == expected  # bit-exact through 17 significant digits


def test_csv_lf_endings_and_order(tmp_path):
    rows = [(1.0,) + (0.0,) * 9, (0.5,) + (0.0,) * 9]
    path = tmp_path / "order.csv"
    write_csv(rows, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert float(lines[1].split(",")[0]) == 0.5  # sorted by t


def test_csv_aborted_sentinel(tmp_path):
    path = tmp_path / "abort.csv"
    write_csv([(0.0,) + (1.0,) * 9], path, aborted="VacuumError: min n below floor")
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("ABORTED,")
    header, cols = read_csv_columns(path)  # sentinel row skipped cleanly
    assert len(cols[header[0]]) == 1


# ---------------------------------------------------------------- runs


def test_run_single_rest_profile_entropy_stays_zero(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.05, initial_profile="rest",
                    record_every=2, output_dir=str(tmp_path))
    res = run_single(cfg, csv_path=tmp_path / "d.csv")
    assert res.aborted is None
    assert all(abs(r.rel_entropy) < 1e-12 for r in res.reports)
    assert res.energy_ok


def test_run_single_is_deterministic(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.04,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    record_every=3, output_dir=str(tmp_path))
    run_single(cfg, csv_path=tmp_path / "a.csv")
    run_single(cfg, csv_path=tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.qnsf").read_bytes() == (tmp_path / "b.qnsf").read_bytes()


def test_run_single_terminal_snapshot_chains(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.02,
                    initial_profile="sine_density", profile_amplitude=0.3,
                    record_every=5, output_dir=str(tmp_path))
    run_single(cfg, csv_path=tmp_path / "first.csv")
    chained = RunConfig(grid_n=32, epsilon=0.1, t_end=0.02,
                        initial_profile="from_snapshot",
                        snapshot_path=str(tmp_path / "first.qnsf"),
                        record_every=5, output_dir=str(tmp_path))
    res = run_single(chained, csv_path=tmp_path / "second.csv")
    assert res.aborted is None


def test_run_single_with_mollified_acoustic_data(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.03, eta=0.2,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    record_every=2, output_dir=str(tmp_path))
    res = run_single(cfg)
    assert res.aborted is None
    # mollified acoustic data no longer matches the solver data exactly,
    # so the entropy starts positive
    assert res.reports[0].rel_entropy > 1e-6


def test_run_single_from_snapshot_profile(tmp_path, grid32, rng):
    from qnslab import random_band_limited

    n1 = random_band_limited(grid32, 3, rng, 0.2).values
    u0x = random_band_limited(grid32, 3, rng, 0.3).values
    u0y = random_band_limited(grid32, 3, rng, 0.3).values
    snap = tmp_path / "init.qnsf"
    write_snapshot({"n1_0": n1, "u0_x": u0x, "u0_y": u0y}, snap)
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.02,
                    initial_profile="from_snapshot", snapshot_path=str(snap),
                    record_every=5, output_dir=str(tmp_path))
    res = run_single(cfg, csv_path=tmp_path / "snap_run.csv")
    assert res.aborted is None


def test_no_run_solves_for_a_pressure(tmp_path, monkeypatch):
    # a reference is its velocity: neither a run from a profile nor one
    # from that run's snapshot forms the flux stack a pressure comes from
    from qnslab import euler

    def refuse(v):
        raise AssertionError("a run solved for a pressure")

    monkeypatch.setattr(euler, "_flux_hats", refuse)
    first = RunConfig(grid_n=16, epsilon=0.1, t_end=0.02,
                      initial_profile="sine_density", profile_amplitude=0.3,
                      output_dir=str(tmp_path))
    assert run_single(first, csv_path=tmp_path / "first.csv").aborted is None
    chained = RunConfig(grid_n=16, epsilon=0.1, t_end=0.02,
                        initial_profile="from_snapshot",
                        snapshot_path=str(tmp_path / "first.qnsf"),
                        output_dir=str(tmp_path))
    assert run_single(chained).aborted is None


def test_run_single_abort_flushes_sentinel_csv(tmp_path):
    # a fixed step far above the stability bound is refused on step one;
    # the partial series is flushed with the sentinel row appended
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.1, dt_fixed=1.0,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    output_dir=str(tmp_path))
    res = run_single(cfg, csv_path=tmp_path / "abort.csv")
    assert res.aborted is not None and "CflViolation" in res.aborted
    lines = (tmp_path / "abort.csv").read_text().splitlines()
    assert lines[-1].startswith("ABORTED,")
    assert len(lines) == 3  # header, t=0 row, sentinel
    assert not (tmp_path / "abort.qnsf").exists()


def _step_and_record_entries(cfg, steps=None):
    """Energy entries of a plain qns_step + EnergyLedger.record loop over
    the states run_single steps through, for at most `steps` steps."""
    from qnslab import EnergyLedger, Grid2D, qns_init, qns_step
    from qnslab.harness import _next_dt

    data, _ = build_initial_data(cfg, Grid2D(cfg.grid_n))
    s = qns_init(cfg.params(), data)
    ledger = EnergyLedger()
    ledger.record(s)
    while s.time < cfg.t_end - 1e-12 and (steps is None or len(ledger.entries) <= steps):
        s = qns_step(s, _next_dt(cfg, s, cfg.epsilon)[0])
        ledger.record(s)
    return ledger.entries


# RunConfig refuses a t_end at or below the run loop's end tolerance 1e-12,
# where a run took no step; t_end = 2e-12 takes one step
@pytest.mark.parametrize("gamma, t_end", [(2.0, 0.12), (3.0, 0.12), (2.0, 2e-12)],
                         ids=["gamma2", "gamma3", "one_tiny_step"])
def test_run_ledger_matches_a_step_and_record_loop(tmp_path, gamma, t_end):
    cfg = RunConfig(grid_n=32, gamma=gamma, epsilon=0.1, t_end=t_end,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    output_dir=str(tmp_path))
    res = run_single(cfg)
    assert res.aborted is None
    assert res.ledger.entries == _step_and_record_entries(cfg)
    if t_end == 2e-12:
        assert len(res.ledger.entries) == 2


def _assert_aborted_after(res, csv_path, kind, want_entries):
    # the last state before the abort has its entry, and the CSV ends
    # with its row and the sentinel
    assert res.aborted is not None and res.aborted.startswith(kind)
    assert res.ledger.entries == want_entries
    lines = csv_path.read_text().splitlines()
    assert lines[-1].startswith(f"ABORTED,{kind}")
    assert len(lines) == 1 + len(want_entries) + 1
    assert float(lines[-2].split(",")[0]) == want_entries[-1].t


@pytest.mark.parametrize("kind", ["NumericalAbort", "VacuumError"])
def test_abort_at_a_later_stage_keeps_the_last_state_entry(tmp_path, monkeypatch, kind):
    from qnslab import NumericalAbort, VacuumError, qns

    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.1, dt_fixed=0.01,
                    initial_profile="sine_density", profile_amplitude=0.5, record_every=1,
                    output_dir=str(tmp_path))
    want = _step_and_record_entries(cfg, steps=2)
    check = qns._check_state

    def failing_check(n, mx, my, t):
        # stage 2 of step 3, the first check at t = 0.02 + dt/2
        if abs(t - 0.025) < 1e-9:
            raise NumericalAbort("injected", time=t) if kind == "NumericalAbort" else \
                VacuumError("injected", min_n=0.0, location=(0, 0), time=t)
        check(n, mx, my, t)

    monkeypatch.setattr(qns, "_check_state", failing_check)
    res = run_single(cfg, csv_path=tmp_path / "abort.csv")
    _assert_aborted_after(res, tmp_path / "abort.csv", kind, want)


def test_cfl_abort_at_a_later_step_keeps_the_last_state_entry(tmp_path):
    # the bound falls 0.0125 -> 0.0108 over three steps of dt = 0.011, so
    # step 4 is refused before its first stage
    cfg = RunConfig(grid_n=32, epsilon=0.5, t_end=0.1, dt_fixed=0.011,
                    initial_profile="sine_density", profile_amplitude=0.5, record_every=1,
                    output_dir=str(tmp_path))
    res = run_single(cfg, csv_path=tmp_path / "abort.csv")
    _assert_aborted_after(res, tmp_path / "abort.csv", "CflViolation",
                          _step_and_record_entries(cfg, steps=3))


_OVERFLOWS = {
    "tg-amplitude": dict(initial_profile="tg_plus_gradient", profile_amplitude=1e200),
    "gamma": dict(gamma=1e300, initial_profile="sine_density", profile_amplitude=0.5),
    # qns_init passes and the acoustic companion overflows: run_single
    # builds it at the run's first report, so the run ends in it
    "companion": dict(initial_profile="tg_plus_gradient", profile_amplitude=1e306),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_overflow_at_t0_aborts_the_run(tmp_path, capsys, case):
    # the t = 0 report overflows, and so does the record of that state:
    # both end in the abort, and the CSV holds the sentinel alone
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.02, **_OVERFLOWS[case])
    res = run_single(cfg, csv_path=tmp_path / "d.csv")
    assert res.aborted.startswith("SpectralError")
    assert res.reports == [] and res.ledger.entries == []
    keys = {"gamma": cfg.gamma, "grid_n": 32, "t_end": 0.02,
            "initial_profile": f"{cfg.initial_profile}({cfg.profile_amplitude})"}
    cfgfile = tmp_path / "overflow.cfg"
    for command, eps in (("run", "epsilon = 0.1"), ("sweep", "epsilon_ladder = 0.1,0.05,0.025")):
        out = tmp_path / command
        cfgfile.write_text(f"{eps}\noutput_dir = {out}\n"
                           + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert cli_main([command, "--config", str(cfgfile)]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        for csv_path in [out / "diagnostics.csv"] if command == "run" else \
                sorted(out.glob("run_eps_*.csv")):
            lines = csv_path.read_text().splitlines()
            assert lines[1:] == ["ABORTED,SpectralError: field contains non-finite values"
                                 + "," * 8]


@pytest.mark.parametrize("case", list(_OVERFLOWS))
def test_cli_overflow_prints_the_abort_reason_alone(tmp_path, case):
    # a process of its own, as outside the suite NumPy's overflow
    # warnings would reach stderr (with the source lines that raised them)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qnslab

    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.02, **_OVERFLOWS[case])
    (tmp_path / "overflow.cfg").write_text(
        f"epsilon = 0.1\ngrid_n = 32\nt_end = 0.02\ngamma = {cfg.gamma}\n"
        f"initial_profile = {cfg.initial_profile}({cfg.profile_amplitude})\n")
    src = str(Path(qnslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "qnslab.cli", "run", "--config", "overflow.cfg"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "ABORTED: SpectralError: field contains non-finite values",
        f"partial diagnostics in {Path('qns_out') / 'diagnostics.csv'}"]


def test_failed_last_record_keeps_the_first_reason_and_drops_its_row(tmp_path, monkeypatch):
    # the step is refused; recording the state it started from then fails
    # too: the t = 0 report has no ledger entry, so the CSV has no row for it
    from qnslab import SpectralError

    def failing_record(self, state):
        raise SpectralError("injected")

    monkeypatch.setattr("qnslab.qns.EnergyLedger.record", failing_record)
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.1, dt_fixed=1.0,
                    initial_profile="sine_density", profile_amplitude=0.5)
    res = run_single(cfg, csv_path=tmp_path / "d.csv")
    assert res.aborted.startswith("CflViolation")
    assert len(res.reports) == 1 and res.ledger.entries == []
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER and lines[1].startswith("ABORTED,CflViolation")
    assert len(lines) == 2


def test_run_single_needs_a_single_epsilon():
    cfg = RunConfig(grid_n=32, epsilon_ladder=[0.2, 0.1, 0.05])
    with pytest.raises(ConfigError, match=r"run needs a single epsilon \(use sweep for a ladder\)"):
        run_single(cfg)
    assert run_single(cfg, epsilon=0.1).aborted is None


def test_run_memory_peak_n256(traced_fields):
    # a grid builds x, y and k2 on first use: measured 1.14 fields at
    # its peak and 1.10 held (4.30 and 3.61 built eagerly); the grid
    # before it sets up what NumPy builds on a first call
    Grid2D(8)
    grid, fields = traced_fields(lambda: Grid2D(256))
    assert fields <= 1.2
    assert not {"x", "y", "k2"} & set(vars(grid))
    # a run of the benchmark's highres_n256 size drops its initial data
    # once its states are built, at eta = 0 never reads x, y or k2, and
    # its reference holds no pressure: measured 30.3 fields, the peak of
    # its first step; 31.3 with the pressure, 36.8 holding the data too
    from qnslab import qns

    cfg = RunConfig(grid_n=256, gamma=2.0, epsilon=0.05, t_end=0.0125,
                    initial_profile="sine_density", profile_amplitude=0.5, record_every=1000)
    qns._linear_flow.cache_clear()  # the flow is built inside the measured run
    res, fields = traced_fields(lambda: run_single(cfg))
    assert res.aborted is None and res.reports[-1].t == cfg.t_end
    assert fields <= 32.0


def test_cli_numerical_abort_exit_code(tmp_path):
    cfgfile = tmp_path / "abort.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.1\ngrid_n = 32\ndt_policy = fixed(1.0)\n"
        "initial_profile = sine_density(0.5)\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 3


@pytest.mark.parametrize(
    "case, named",
    [("nan", "'n1_0'"), ("non_utf8_name", "byte 16"), ("trailing", "TRAILING: 700 bytes"),
     ("duplicate_name", "DUPLICATE_NAME: field 'u0_x'")],
    ids=["nan", "non_utf8_name", "trailing", "duplicate_name"],
)
def test_cli_non_finite_snapshot_is_io_error(tmp_path, grid32, capsys, case, named):
    zero = np.zeros((32, 32))
    n1 = zero.copy()
    snap = tmp_path / "bad.qnsf"
    if case == "nan":
        n1[0, 0] = np.nan
        write_snapshot({"n1_0": n1, "u0_x": zero, "u0_y": zero}, snap)
    elif case == "non_utf8_name":
        # the first field name, read at byte 16, becomes b"n1_\xff0"
        write_snapshot({"n1_?0": n1, "u0_x": zero, "u0_y": zero}, snap)
        snap.write_bytes(snap.read_bytes().replace(b"n1_?0", b"n1_\xff0", 1))
    elif case == "trailing":
        write_snapshot({"n1_0": n1, "u0_x": zero, "u0_y": zero}, snap)
        snap.write_bytes(snap.read_bytes() + b"\x00" * 700)
    else:
        # the third field name becomes the second's
        write_snapshot({"n1_0": n1, "u0_x": zero, "u0_y": zero}, snap)
        snap.write_bytes(snap.read_bytes().replace(b"u0_y", b"u0_x", 1))
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.02\ngrid_n = 32\n"
        f"initial_profile = from_snapshot({snap})\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error:") and named in err
    assert "Traceback" not in err


def _overflowing_snapshot(path, grid_n):
    # a finite velocity whose Euler reference overflows
    zero = np.zeros((grid_n, grid_n))
    write_snapshot({"n1_0": zero, "u0_x": 1e200 * np.sin(Grid2D(grid_n).y), "u0_y": zero},
                   path)


_UNFIT_SNAPSHOTS = {
    "grid": (lambda path: write_snapshot({n: np.zeros((16, 16)) for n in
                                          ("n1_0", "u0_x", "u0_y")}, path),
             "snapshot grid 16 does not match configured grid_n 32"),
    "fields": (lambda path: write_snapshot({"n1_0": np.zeros((32, 32)),
                                            "u0_x": np.zeros((32, 32))}, path),
               "snapshot is missing field 'u0_y'"),
    "overflow": (lambda path: _overflowing_snapshot(path, 32),
                 "snapshot {path}: no finite Euler reference"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("case", list(_UNFIT_SNAPSHOTS))
def test_cli_snapshot_that_cannot_seed_the_run_is_a_config_error(tmp_path, capsys, case):
    write, message = _UNFIT_SNAPSHOTS[case]
    snap = tmp_path / "init.qnsf"
    write(snap)
    cfgfile = tmp_path / "snap.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.02\ngrid_n = 32\n"
        f"initial_profile = from_snapshot({snap})\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message.format(path=snap)}\n"
    assert "Traceback" not in captured.out
    assert not (tmp_path / "out").exists()


def test_run_counts_the_limit_that_set_each_step(tmp_path):
    def limits(**kw):
        cfg = RunConfig(grid_n=32, initial_profile="sine_density", profile_amplitude=0.5,
                        output_dir=str(tmp_path), **kw)
        res = run_single(cfg)
        assert res.aborted is None
        assert sum(res.dt_limits.values()) == len(res.ledger.entries) - 1
        return {name: n for name, n in res.dt_limits.items() if n}

    # the 0.5 eps cap once, then the clamp to t_end
    assert limits(epsilon=0.1, t_end=0.06) == {"acoustic": 1, "t_end": 1}
    # delta = 0.45 at eps = 0.9: the quantum remainder sets dt
    assert limits(epsilon=0.9, t_end=0.01) == {"bohm": 4, "t_end": 1}
    assert limits(epsilon=0.1, t_end=0.025, dt_fixed=0.01) == {
        "fixed": 2, "t_end": 1}
    fast = RunConfig(grid_n=32, epsilon=0.2, t_end=0.1, initial_profile="tg_plus_gradient",
                     profile_amplitude=2.0, output_dir=str(tmp_path))
    counts = run_single(fast).dt_limits
    assert (counts["advective"], counts["t_end"]) == (2, 1)


def _run_steps(cfg):
    data, ref = build_initial_data(cfg, Grid2D(cfg.grid_n))
    return RunSteps(cfg, cfg.epsilon, data,
                    linear_target(ref, acoustic_init(data, cfg.params())))


@pytest.mark.parametrize("kind", ["solenoidal", "gradient"])
def test_run_steps_takes_the_callers_initial_data(kind):
    # tg_plus_gradient(0) data plus delta w, against the unperturbed
    # vortex and the companion of the unperturbed data, so E(0) is the
    # kinetic part (1/2) ||delta w||^2.  The solenoidal w = (sin 3y,
    # cos 2x) leaves Psi at 0: 2 pi^2 delta^2.  The gradient w =
    # (2 cos 2x, 0) moves Psi off: 4 pi^2 delta^2, where the run's own
    # companion would carry it and read E(0) = 0
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.05, initial_profile="tg_plus_gradient")
    g, delta = Grid2D(cfg.grid_n), 0.01
    data, ref = build_initial_data(cfg, g)
    wx, wy, e0 = {"solenoidal": (np.sin(3 * g.y), np.cos(2 * g.x), 2 * np.pi ** 2),
                  "gradient": (2 * np.cos(2 * g.x), 0.0, 4 * np.pi ** 2)}[kind]
    u0 = vector_field(g, data.u_0.x.values + delta * wx, data.u_0.y.values + delta * wy)
    perturbed = InitialData(n1_0=data.n1_0, u_0=u0)
    target = linear_target(ref, acoustic_init(data, cfg.params()))
    first = next(iter(RunSteps(cfg, cfg.epsilon, perturbed, target)))
    assert (first.state.time, first.dt, first.limit) == (0.0, 0.0, None)
    assert first.report.rel_entropy == pytest.approx(e0 * delta ** 2, rel=1e-12)
    own = relative_entropy(first.state, ref, acoustic_init(perturbed, cfg.params()))
    assert own.rel_entropy == pytest.approx(0.0 if kind == "gradient" else e0 * delta ** 2,
                                            rel=1e-12, abs=1e-20)


def test_run_single_builds_the_companion_after_the_initial_state(monkeypatch):
    # qns_init first: its aborts come first (a sine_density(1e307) run
    # ends in its VacuumError), and so do its arrays, on which the peak
    # RSS of an N = 256 run depends
    from qnslab import harness

    calls = []

    def traced(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    for name in ("qns_init", "acoustic_init"):
        monkeypatch.setattr(harness, name, traced(name, getattr(harness, name)))
    run_single(RunConfig(grid_n=16, epsilon=0.1, t_end=0.01, initial_profile="sine_density",
                         profile_amplitude=0.1))
    assert calls == ["qns_init", "acoustic_init"]
    res = run_single(RunConfig(grid_n=16, epsilon=0.1, t_end=0.01,
                               initial_profile="sine_density", profile_amplitude=1e307))
    assert res.aborted.startswith("VacuumError: initial density perturbation too large")


def test_linear_target_is_the_reference_and_the_evolved_companion():
    cfg = RunConfig(grid_n=32, epsilon=0.1, initial_profile="sine_density",
                    profile_amplitude=0.5)
    data, ref = build_initial_data(cfg, Grid2D(cfg.grid_n))
    ac0 = acoustic_init(data, cfg.params())
    target = linear_target(ref, ac0)
    assert ref.time is None
    # at t = 0 the companion itself, not its round trip through the transforms
    assert target(0.0)[0] is ref and target(0.0)[1] is ac0
    ref_t, ac_t = target(0.3)
    want = acoustic_evolve(ac0, 0.3)
    assert ref_t is ref and ac_t.time == 0.3
    assert np.array_equal(ac_t.sigma.values, want.sigma.values)
    assert np.array_equal(ac_t.psi.values, want.psi.values)


def test_run_steps_ends_an_abort_without_raising():
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.1, dt_fixed=1.0,
                    initial_profile="sine_density", profile_amplitude=0.5)
    run = _run_steps(cfg)
    steps = list(run)
    assert len(steps) == 1 and steps[0].report is not None
    assert run.aborted.startswith("CflViolation")
    assert len(run.ledger.entries) == 1 and run.ledger.entries[0].t == 0.0


def test_run_steps_yields_every_step_with_its_limit():
    from collections import Counter

    cfg = RunConfig(grid_n=32, epsilon=0.05, t_end=0.06, record_every=2,
                    initial_profile="sine_density", profile_amplitude=0.5)
    run = _run_steps(cfg)
    steps = list(run)
    assert run.aborted is None
    want = {name: n for name, n in run_single(cfg).dt_limits.items() if n}
    assert Counter(step.limit for step in steps[1:]) == want
    assert steps[-1].state.time == cfg.t_end
    # reports at t = 0, every second step and at t_end
    assert [i for i, step in enumerate(steps) if step.report] == [0, 2, 3]
    assert [e.t for e in run.ledger.entries] == [step.state.time for step in steps]
    # the steps of one run are yielded once
    assert list(run) == [] and len(run.ledger.entries) == len(steps)


def test_one_run_loop_for_every_module():
    # the step loop is RunSteps alone: besides harness.py, no package
    # module and no script calls qns_step
    import ast
    from pathlib import Path

    import qnslab

    package = Path(qnslab.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and "qns_step" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
        assert bool(calls) == (path.name == "harness.py"), (path.name, calls)


def test_run_steps_calls_no_acoustic_function():
    # the loop measures against its target alone: no acoustic_* call in
    # the RunSteps class body, so no target is wired into it again
    import ast
    import inspect

    from qnslab import harness

    tree = ast.parse(inspect.getsource(harness.RunSteps))
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert {"qns_init", "qns_step", "relative_entropy", "target"} <= called
    assert not [name for name in called if name and name.startswith("acoustic")], called


def test_auto_step_matches_a_dt_converged_run(tmp_path):
    # the 0.5 eps acoustic cap of the Lawson step keeps the terminal
    # tracked values within 5e-3 of a fixed step eps/64 (measured 2.3e-3;
    # the Strang step at 0.25 eps was 2.5e-2 off)
    from qnslab.harness import TRACKED_QUANTITIES, _terminal_values

    def terminal(**kw):
        cfg = RunConfig(grid_n=64, gamma=3.0, epsilon=0.1, t_end=0.25,
                        initial_profile="sine_density", profile_amplitude=0.5,
                        record_every=1000, output_dir=str(tmp_path), **kw)
        res = run_single(cfg)
        assert res.aborted is None
        return _terminal_values(res)

    auto = terminal()
    fine = terminal(dt_fixed=0.1 / 64)
    worst = max(abs(auto[q] - fine[q]) / abs(fine[q]) for q in TRACKED_QUANTITIES)
    assert worst <= 5e-3, worst


def test_cli_prints_dt_limit_counts(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.06\ngrid_n = 32\n"
        "initial_profile = sine_density(0.5)\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 0
    assert ("advective 0, bohm 0, viscous 0, acoustic 1, t_end 1, fixed 0"
            in capsys.readouterr().out)
    cfgfile.write_text(
        "epsilon_ladder = 0.2,0.1,0.05\nt_end = 0.05\ngrid_n = 32\n"
        "initial_profile = sine_density(0.5)\n"
        f"output_dir = {tmp_path / 'sweep'}\n"
    )
    # thm_dens falls short of its rate on this short ladder: the sweep fails
    assert cli_main(["sweep", "--config", str(cfgfile)]) == 3
    out = capsys.readouterr().out
    assert "eps = 0.1: PASS" in out
    assert "advective 0, bohm 0, viscous 0, acoustic 2, t_end 0, fixed 0" in out


def test_cli_run_exits_3_when_its_energy_inequality_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("qnslab.qns.EnergyLedger.inequality_ok", lambda self, dt: False)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.02\ngrid_n = 32\n"
        "initial_profile = sine_density(0.5)\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 3
    assert "energy inequality: FAIL" in capsys.readouterr().out
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_sweep_of_a_rest_ladder_has_no_fit_and_fails(tmp_path, capsys):
    # at rest every tracked quantity stays 0, so no quantity gets a fit
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "epsilon_ladder = 0.2,0.1,0.05\nt_end = 0.02\ngrid_n = 32\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["sweep", "--config", str(cfgfile)]) == 3
    out = capsys.readouterr().out
    assert out.count(": no fit (FAIL)") == 4
    assert out.splitlines()[-1] == "sweep: FAIL"


def test_cli_mid_run_spectral_error_aborts(tmp_path, monkeypatch):
    from qnslab import SpectralError, harness

    def failing_step(state, dt, ledger=None):
        raise SpectralError("field contains non-finite values")

    monkeypatch.setattr(harness, "qns_step", failing_step)
    cfgfile = tmp_path / "abort.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.1\ngrid_n = 32\n"
        "initial_profile = sine_density(0.5)\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 3
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[-1].startswith("ABORTED,SpectralError")
    assert len(lines) == 3  # header, t=0 row, sentinel


def test_cli_output_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.02\ngrid_n = 32\nrecord_every = 2\n"
        f"output_dir = {tmp_path / 'ignored'}\n"
    )
    override = tmp_path / "elsewhere"
    assert cli_main(["run", "--config", str(cfgfile), "--output", str(override)]) == 0
    assert (override / "diagnostics.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_sweep_synthetic_plumbing(tmp_path):
    cfg = RunConfig(grid_n=32, gamma=2.0, epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
                    t_end=0.1, output_dir=str(tmp_path))
    result = run_sweep(cfg, synthetic=True)
    for fit in result.fits.values():
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert all(result.rate_verdicts.values())
    assert (tmp_path / "sweep_summary.csv").exists()


_SYNTHETIC_SUMMARY = (
    "epsilon,rel_entropy,thm_vel,thm_dens,thm_grad,density_ratio\n"
    "0.20000000000000001,0.44721359549995793,0.44721359549995793,0.44721359549995793,"
    "0.44721359549995793,1\n"
    "0.10000000000000001,0.31622776601683794,0.31622776601683794,0.31622776601683794,"
    "0.31622776601683794,1\n"
    "0.050000000000000003,0.22360679774997896,0.22360679774997896,0.22360679774997896,"
    "0.22360679774997896,1\n"
    "0.025000000000000001,0.15811388300841897,0.15811388300841897,0.15811388300841897,"
    "0.15811388300841897,1\n"
)


def test_sweep_synthetic_result_and_summary_bytes(tmp_path):
    cfg = RunConfig(grid_n=32, gamma=2.0, epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
                    t_end=0.1, output_dir=str(tmp_path))
    result = run_sweep(cfg, synthetic=True)
    assert (tmp_path / "sweep_summary.csv").read_bytes() == _SYNTHETIC_SUMMARY.encode()
    assert result.failed is False
    assert result.runs == []
    assert result.synthetic
    assert result.density_band_ok


def test_sweep_with_aborted_runs_is_failed_but_reports(tmp_path, capsys):
    cfg = RunConfig(grid_n=32, epsilon_ladder=[0.2, 0.1, 0.05], t_end=0.1,
                    dt_fixed=1.0,  # refused at step one
                    initial_profile="sine_density", profile_amplitude=0.5,
                    output_dir=str(tmp_path))
    result = run_sweep(cfg)
    assert result.failed
    assert result.fits == {}
    assert len(result.runs) == len(cfg.epsilon_ladder)
    for eps in cfg.epsilon_ladder:
        lines = (tmp_path / f"run_eps_{eps:g}.csv").read_text().splitlines()
        assert lines[-1].startswith("ABORTED,")
    # each rung aborted after its t = 0 report, which is not a terminal
    # value: its summary row is NaN past epsilon, and rate-fit fits nothing
    summary = tmp_path / "sweep_summary.csv"
    rows = summary.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "epsilon,rel_entropy,thm_vel,thm_dens,thm_grad,density_ratio"
    assert [row.split(",", 1)[1] for row in rows[1:]] == ["nan,nan,nan,nan,nan"] * 3
    assert cli_main(["rate-fit", str(summary)]) == 2
    captured = capsys.readouterr()
    assert captured.out.count("skipped") == 5
    assert "no fittable columns" in captured.err


@pytest.mark.parametrize("gamma, lam", [(1.5, 1.5), (3.0, 2.0)], ids=["gamma-1.5", "gamma-3"])
def test_sweep_density_ratio_is_the_snapshot_norm(tmp_path, gamma, lam):
    # the density_ratio cell of each rung is ||n - 1||_{L^lambda}/eps of its
    # last state, lambda = min{2, gamma}: the L^lambda norm of the n1_0 =
    # (n - 1)/eps its snapshot holds
    cfg = RunConfig(grid_n=16, gamma=gamma, epsilon_ladder=[0.2, 0.1, 0.05], t_end=0.02,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    output_dir=str(tmp_path))
    assert not run_sweep(cfg).failed
    _, columns = read_csv_columns(tmp_path / "sweep_summary.csv")
    grid = Grid2D(16)
    for eps, ratio in zip(cfg.epsilon_ladder, columns["density_ratio"], strict=True):
        _, fields = read_snapshot(tmp_path / f"run_eps_{eps:g}.qnsf")
        want = norm(ScalarField(grid, fields["n1_0"]), lam)
        assert ratio == pytest.approx(want, rel=1e-12, abs=0.0), eps


def test_density_band_fails_on_non_finite_ratio():
    from qnslab.harness import SweepResult

    ladder = [0.2, 0.1, 0.05]
    assert SweepResult(ladder, [], density_ratios=[16.0, 15.67, 17.07]).density_band_ok
    assert not SweepResult(ladder, [], density_ratios=[float("nan"), 15.67, 17.07]).density_band_ok
    assert not SweepResult(ladder, [], density_ratios=[16.0, float("inf"), 17.07]).density_band_ok


def _healthy_sweep(tmp_path):
    """The synthetic sweep plus one finished run that keeps its energy
    inequality (an empty ledger): every clause of passed holds."""
    from qnslab import EnergyLedger, RunResult

    cfg = RunConfig(grid_n=32, gamma=2.0, epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
                    t_end=0.1, output_dir=str(tmp_path))
    result = run_sweep(cfg, synthetic=True)
    assert result.passed
    result.runs = [RunResult(epsilon=0.2, reports=[], ledger=EnergyLedger(), dt_max=0.0)]
    return result


_BROKEN_CLAUSES = {
    "aborted run": lambda res, mp: setattr(res.runs[0], "aborted", "NumericalAbort: test"),
    "energy inequality": lambda res, mp: mp.setattr(
        "qnslab.qns.EnergyLedger.inequality_ok", lambda self, dt: False),
    "missing fit": lambda res, mp: res.fits.pop("thm_dens"),
    "failing slope": lambda res, mp: setattr(res, "rate_threshold", 0.6),
    "density band": lambda res, mp: setattr(res, "density_ratios", [1.0, 20.0, 1.0, 1.0]),
}


@pytest.mark.parametrize("clause", list(_BROKEN_CLAUSES))
def test_sweep_passed_fails_on_each_clause_alone(clause, tmp_path, monkeypatch):
    result = _healthy_sweep(tmp_path)
    assert result.passed
    _BROKEN_CLAUSES[clause](result, monkeypatch)
    assert not result.passed


def test_sweep_report_names_every_quantity_run_and_the_band(tmp_path):
    result = _healthy_sweep(tmp_path)
    result.fits.pop("thm_dens")
    result.runs[0].aborted = "NumericalAbort: test"
    result.density_ratios = [1.0, 20.0, 1.0, 1.0]
    lines = result.lines()
    assert lines[0] == "  sweep over epsilon ladder [0.2, 0.1, 0.05, 0.025] (synthetic)"
    assert lines[1].startswith("  rel_entropy : slope = +0.5000 (threshold 0.4000, residual ")
    assert lines[1].endswith(") PASS")
    assert lines[3] == "  thm_dens    : no fit (FAIL)"
    assert lines[5].startswith("  energy inequality at eps = 0.2: ABORTED (max E+D-E0 = 0.00e+00;")
    assert lines[5].endswith("steps by dt limit: advective 0, bohm 0, viscous 0, acoustic 0, "
                             "t_end 0, fixed 0)")
    assert lines[6] == ("  density band ||n-1||_Llambda/eps within x10: FAIL "
                        "(ratios 1, 20, 1, 1)")
    assert len(lines) == 7


def test_sweep_rejects_short_ladder(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon_ladder=[0.2, 0.1], t_end=0.1,
                    output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="length >= 3"):
        run_sweep(cfg)


def test_sweep_with_init_abort_is_failed_but_reports(tmp_path):
    # eps * 3 >= 0.5 at eps = 0.2 only: that run aborts in qns_init
    cfg = RunConfig(grid_n=32, epsilon_ladder=[0.2, 0.1, 0.05], t_end=0.02,
                    initial_profile="sine_density", profile_amplitude=3.0,
                    output_dir=str(tmp_path))
    result = run_sweep(cfg)
    assert result.failed
    assert result.runs[0].reports == []
    assert "VacuumError" in result.runs[0].aborted
    assert all(r.aborted is None for r in result.runs[1:])
    summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert len(summary) == 1 + len(cfg.epsilon_ladder)


@pytest.mark.parametrize("clause", [None, *_BROKEN_CLAUSES])
def test_benchmark_gate_agrees_with_the_sweep_verdict(clause, tmp_path, monkeypatch):
    # the benchmark's rate_study gate spells the sweep rule out check by
    # check; on every clause it must reach SweepResult.passed
    from pathlib import Path

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import rate_study_gate

    result = _healthy_sweep(tmp_path)
    if clause is not None:
        _BROKEN_CLAUSES[clause](result, monkeypatch)
    assert all(ok for _, ok in rate_study_gate({2.0: result}, tmp_path)) == result.passed
    assert result.passed == (clause is None)


# ---------------------------------------------------------------- CLI


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon = 0.1\nwhat = 1\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text",
    [
        ("run", "epsilon = 1.5\n"),
        ("run", "epsilon = 0.1\ngamma = 0.5\n"),
        ("run", "epsilon = 0.1\neta = -1\n"),
        ("sweep", "epsilon_ladder = 1.5,0.1,0.05\n"),
    ],
    ids=["epsilon", "gamma", "eta", "ladder"],
)
def test_cli_config_range_error_exit_code(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
    assert cli_main([command, "--config", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    ["epsilon = nan", "epsilon = inf", "gamma = nan", "gamma = inf", "t_end = nan",
     "t_end = inf", "eta = nan", "eta = inf", "dt_policy = fixed(nan)",
     "dt_policy = fixed(inf)", "initial_profile = sine_density(nan)",
     "initial_profile = sine_density(inf)", "initial_profile = tg_plus_gradient(-inf)"],
)
def test_cli_non_finite_config_value_exit_code(tmp_path, capsys, line):
    keys = {"epsilon": "0.1", "grid_n": "16", "t_end": "0.02", "output_dir": tmp_path / "out"}
    key, value = line.split(" = ")
    keys[key] = value
    bad = tmp_path / "bad.cfg"
    bad.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert cli_main(["run", "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:"), captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_cli_init_abort_exit_code_and_sentinel(tmp_path):
    # eps * ||n1_0||_inf = 0.9: qns_init refuses the data
    cfgfile = tmp_path / "init.cfg"
    cfgfile.write_text(
        "epsilon = 0.3\nt_end = 0.02\ngrid_n = 32\n"
        "initial_profile = sine_density(3)\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 3
    lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("ABORTED,VacuumError")
    assert len(lines) == 2


def test_cli_missing_config_is_io_error(tmp_path):
    assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 4


def test_cli_run_and_rate_fit(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "epsilon = 0.1\nt_end = 0.04\ngrid_n = 32\n"
        "initial_profile = sine_density(0.5)\nrecord_every = 2\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    assert cli_main(["run", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "energy inequality: PASS" in out

    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(
        "epsilon_ladder = 0.2,0.1,0.05,0.025\ngrid_n = 32\nt_end = 0.1\n"
        f"output_dir = {tmp_path / 'sw'}\n"
    )
    assert cli_main(["sweep", "--config", str(sweep_cfg), "--synthetic"]) == 0
    assert cli_main(["rate-fit", str(tmp_path / "sw" / "sweep_summary.csv")]) == 0
    out = capsys.readouterr().out
    assert "slope = +0.5000" in out


def test_cli_rate_fit_skips_non_finite_columns(tmp_path, capsys):
    # the summary of a sweep whose first run aborted: a NaN row
    header = "epsilon,rel_entropy,thm_vel,thm_dens,thm_grad,density_ratio"
    rows = ["0.20000000000000001,nan,nan,nan,nan,nan",
            "0.10000000000000001,0.01,0.02,0.03,0.04,15.67",
            "0.050000000000000003,0.005,0.01,0.015,0.02,17.07"]
    summary = tmp_path / "sweep_summary.csv"
    summary.write_text("\n".join([header, *rows]) + "\n")
    assert cli_main(["rate-fit", str(summary)]) == 2
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert "skipped" in captured.out
    assert "no fittable columns" in captured.err

    # one finite column is still fitted; the others are skipped
    rows[0] = "0.20000000000000001,0.02,nan,-1,0,inf"
    summary.write_text("\n".join([header, *rows]) + "\n")
    assert cli_main(["rate-fit", str(summary)]) == 0
    out = capsys.readouterr().out
    assert "rel_entropy : slope = +1.0000" in out
    assert out.count("skipped") == 4
    assert "nan" not in out



@pytest.mark.parametrize(
    "synthetic, overrides, n_fits",
    [(True, {}, 4),
     (False, {"initial_profile": "sine_density", "profile_amplitude": 0.5}, 4),
     (False, {}, 0),  # at rest every tracked quantity stays 0
     (False, {"initial_profile": "sine_density", "profile_amplitude": 0.5,
              "dt_fixed": 1.0, "grid_n": 32, "t_end": 0.1}, 0)],  # refused at step one
    ids=["synthetic", "sine-density", "rest", "aborted"],
)
def test_rate_fit_prints_the_slopes_of_the_sweep_verdict(tmp_path, capsys, synthetic, overrides,
                                                         n_fits):
    # run_sweep's fits and qnslab rate-fit on the summary it wrote take one rule
    from qnslab.harness import TRACKED_QUANTITIES

    cfg = RunConfig(**{"grid_n": 16, "epsilon_ladder": [0.2, 0.1, 0.05], "t_end": 0.02,
                       "output_dir": str(tmp_path), **overrides})
    result = run_sweep(cfg, synthetic=synthetic)
    assert result.failed == ("dt_fixed" in overrides)
    capsys.readouterr()
    code = cli_main(["rate-fit", str(tmp_path / "sweep_summary.csv")])
    printed = dict(re.findall(r"^  (\w+)\s*: slope = (\S+),", capsys.readouterr().out, re.M))
    assert {q: printed[q] for q in TRACKED_QUANTITIES if q in printed} == {
        q: f"{fit.slope:+.4f}" for q, fit in result.fits.items()}
    assert len(result.fits) == n_fits
    assert code == (0 if printed else 2)


def _run_in_a_fresh_interpreter(code: str):
    """Run code in a new interpreter on this tree's qnslab."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qnslab

    src = str(Path(qnslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_path_has_no_scipy():
    proc = _run_in_a_fresh_interpreter(
        "import sys; import qnslab, qnslab.cli, qnslab.checks; "
        "sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_batteries_run_without_numpy_random():
    # importing numpy.random costs a battery process about 5 MB resident and 9 ms
    proc = _run_in_a_fresh_interpreter(
        "import sys; import qnslab, qnslab.cli, qnslab.checks as c; "
        "c.bohm_form_check(n_fields=2, grid_n=16); c.acoustic_check(); "
        "sys.exit('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_rate_fits_run_without_lapack(tmp_path):
    # the first LAPACK least-squares call maps about 1 MB into a rate study's process
    summary = str(tmp_path / "sweep_summary.csv")
    proc = _run_in_a_fresh_interpreter(
        "import sys, numpy\n"
        "def refuse(*args, **kwargs): raise AssertionError('LAPACK least squares called')\n"
        "numpy.polyfit = numpy.linalg.lstsq = refuse\n"
        "from qnslab import RunConfig, run_sweep\n"
        "from qnslab.cli import main\n"
        "cfg = RunConfig(grid_n=16, epsilon_ladder=[0.2, 0.1, 0.05], t_end=0.02,\n"
        f"                output_dir={str(tmp_path)!r})\n"
        "assert run_sweep(cfg, synthetic=True).passed\n"
        f"sys.exit(main(['rate-fit', {summary!r}]))")
    assert proc.returncode == 0, proc.stderr
    assert "slope = +0.5000" in proc.stdout


def test_seeded_normal_repeats_its_seed():
    a, b, c = SeededNormal(7), SeededNormal(7), SeededNormal(8)
    first = a.standard_normal((16, 16))
    assert np.array_equal(first, b.standard_normal((16, 16)))
    assert not np.array_equal(first, c.standard_normal((16, 16)))
    assert not np.array_equal(first, a.standard_normal((16, 16)))


def test_seeded_normal_takes_any_shape():
    assert SeededNormal(0).standard_normal((7,)).shape == (7,)
    assert SeededNormal(0).standard_normal((3, 5)).shape == (3, 5)
    assert np.isfinite(SeededNormal(1).standard_normal((3, 5))).all()


def test_seeded_normal_draws_are_standard():
    draws = SeededNormal(0).standard_normal((128, 128))
    assert abs(draws.mean()) < 0.05
    assert abs(draws.var() - 1.0) < 0.05


def test_seeded_normal_refuses_a_negative_seed():
    # random.Random would seed -1 as 1
    with pytest.raises(ValueError, match="non-negative"):
        SeededNormal(-1)


def test_bohm_form_check_refuses_zero_fields():
    with pytest.raises(ValueError, match="n_fields >= 1"):
        bohm_form_check(n_fields=0)


def test_cli_rate_fit_missing_file():
    assert cli_main(["rate-fit", "/nonexistent/file.csv"]) == 4


def test_cli_bohm_check_small(capsys):
    # the battery's tolerance is calibrated at the default N = 128 (the
    # sqrt tail beyond the 2/3 cutoff shrinks with resolution)
    assert cli_main(["bohm-check", "--fields", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("battery", ["acoustic-test", "euler-test"])
def test_cli_battery_without_arguments_passes(capsys, battery):
    assert cli_main([battery]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{battery}:\n") and out.endswith(f"{battery}: PASS\n")


_SUMMARY_HEADER = "epsilon,rel_entropy\n"
_TINY_RUN = "grid_n = 16\nt_end = 0.01\ninitial_profile = sine_density(0.1)\n"


@pytest.mark.parametrize(
    "argv, files, code, prefix",
    [
        (["rate-fit", "{f}"], _SUMMARY_HEADER + "0.025,1\n0.05,2\n0.1,4\n", 2, "config error:"),
        (["rate-fit", "{f}"], _SUMMARY_HEADER + "0.1,1\n0.1,2\n0.05,4\n", 2, "config error:"),
        (["rate-fit", "{f}"], _SUMMARY_HEADER + "0.2,1\n0.1,2\n0,4\n", 2, "config error:"),
        (["rate-fit", "{f}"], _SUMMARY_HEADER + "0.2,1\nnan,2\n0.05,4\n", 2, "config error:"),
        (["rate-fit", "{f}"], _SUMMARY_HEADER + "0.2,1\n0.1,abc\n0.05,4\n", 4, "io error:"),
        (["rate-fit", "{f}"], "", 4, "io error:"),
        (["bohm-check", "--grid-n", "6"], None, 2, "config error:"),
        (["bohm-check", "--seed", "-1"], None, 2, "config error:"),
        (["bohm-check", "--fields", "0"], None, 2, "config error:"),
        (["run", "--config", "{f}"], b"epsilon = 0.1\n# \xff\xfe\n", 2, "config error:"),
        (["sweep", "--config", "{f}"], b"epsilon_ladder = 0.2,0.1,0.05\n\xff\n", 2,
         "config error:"),
        # one N x N field of N = 2**20 takes 8 TiB, refused before it is allocated
        (["bohm-check", "--grid-n", str(2**20)], None, 2, "config error:"),
        (["run", "--config", "{f}"], f"epsilon = 0.1\ngrid_n = {2**20}\n", 2, "config error:"),
        (["run"], None, 2, "config error: missing --config"),
        # it took no step and printed "run complete: t = 0"
        (["run", "--config", "{f}"],
         "grid_n = 16\nepsilon = 0.1\nt_end = 5e-13\ninitial_profile = sine_density(0.5)\n", 2,
         "config error: t_end must exceed 1e-12, got 5e-13"),
        (["run", "--config", "{f}"], "epsilon_ladder = 0.2,0.1,0.05\n", 2,
         "config error: run needs a single epsilon (use sweep for a ladder)"),
        (["rate-fit", "{f}"], "eta,rel_entropy\n0.2,1\n0.1,2\n0.05,4\n", 2, "config error:"),
        (["rate-fit", "{f}"], "not_epsilon,a\n0.2,1\n0.1,2\n0.05,4\n", 2, "config error:"),
        # 1/eps^2 overflows: the t = 0 report divided by eps * eps = 0
        (["run", "--config", "{f}"], _TINY_RUN + "epsilon = 1e-300\n", 2, "config error:"),
        (["sweep", "--config", "{f}"], _TINY_RUN + "epsilon_ladder = 0.2, 0.1, 1e-300\n", 2,
         "config error:"),
        # eta^2 overflows: the mollifier took -inf * 0 = nan at the mean mode
        (["run", "--config", "{f}"], _TINY_RUN + "epsilon = 0.1\neta = 1e300\n", 2,
         "config error:"),
        # a ragged row and a repeated column name, once zipped past
        (["rate-fit", "{f}"], "epsilon,a\n0.2,1\n0.1,2,5\n0.05,4\n", 4, "io error:"),
        (["rate-fit", "{f}"], "epsilon,a,a\n0.2,1,1\n0.1,2,2\n0.05,4,4\n", 4, "io error:"),
    ],
    ids=["eps-ascending", "eps-repeated", "eps-zero", "eps-nan", "non-numeric-cell",
         "empty-csv", "bohm-grid-n", "bohm-seed", "bohm-fields", "run-not-utf8",
         "sweep-not-utf8", "bohm-grid-n-oversized", "run-grid-n-oversized", "run-no-config",
         "run-t_end-below-tolerance",
         "run-ladder-only", "first-column-not-epsilon", "first-column-names-epsilon-inside",
         "run-eps-squared-underflows",
         "sweep-eps-squared-underflows", "run-eta-squared-overflows", "csv-ragged-row",
         "csv-repeated-column"],
)
def test_cli_bad_input_reaches_documented_exit_code(tmp_path, capsys, argv, files, code,
                                                     prefix):
    path = tmp_path / "input"
    if isinstance(files, bytes):
        path.write_bytes(files)
    elif files is not None:
        path.write_text(files)
    assert cli_main([a.format(f=path) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix), captured.err
    assert "Traceback" not in captured.err + captured.out
    assert "PASS" not in captured.out
    if files is not None and argv[0] == "rate-fit":
        assert str(path) in captured.err


@pytest.mark.parametrize("grid_n", [float("inf"), float("nan"), None], ids=str)
def test_run_config_refuses_a_grid_n_that_is_no_integer(grid_n):
    # int() refuses each: they ended in OverflowError, ValueError and TypeError
    with pytest.raises(ConfigError, match=f"grid_n must be an even integer >= 8, got {grid_n}$"):
        RunConfig(grid_n=grid_n, epsilon=0.1)


def test_grid_that_a_run_cannot_fit_is_a_config_error(monkeypatch, capsys):
    # with 1 MiB of physical memory, one N = 64 field fits and its run does
    # not: the config and the bohm-check flag are refused (exit 2) before
    # any grid is built
    import os

    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.__getitem__)
    with pytest.raises(ConfigError, match="grid_n = 64"):
        RunConfig(grid_n=64, epsilon=0.1)
    assert cli_main(["bohm-check", "--grid-n", "64", "--fields", "1"]) == 2
    assert "--grid-n = 64" in capsys.readouterr().err
