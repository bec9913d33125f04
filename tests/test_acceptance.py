"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them); the
headline sweeps are shared between the energy, density-band and rate
criteria through a session fixture.
"""

import struct
import time

import numpy as np
import pytest

from qnslab import (
    AcousticState,
    BadMagic,

    Grid2D,
    InitialData,
    LimitParams,
    QnsState,
    RunConfig,
    ScalarField,
    Truncated,
    VersionMismatch,
    gradient,
    qns_init,
    qns_step,
    random_band_limited,
    read_snapshot,
    relative_entropy,
    run_single,
    run_sweep,
    taylor_green,
    vector_field,
    write_snapshot,
)
from qnslab.checks import acoustic_check, bohm_form_check, euler_check
from qnslab.harness import TRACKED_QUANTITIES

def _verdict(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"

# Terminal (rel_entropy, thm_vel, thm_dens, thm_grad, density_ratio) of the
# headline sweeps, per epsilon in ladder order, with 17 significant digits.
# Only the slope thresholds of criterion 7 guard these numbers otherwise;
# a change that keeps the numerics keeps them to round-off.
HEADLINE_TERMINAL = {
    2.0: [
        (0.31694621769868236, 0.38989710786834963, 0.12161277039773193,
         0.0001924466833871186, 1.8507486152587742),
        (0.14584677946959759, 0.25047333229626734, 0.020606787425824422,
         1.6629478203680068e-06, 2.6482132631099411),
        (0.071462709300785687, 0.11592283162285864, 0.013501132491064912,
         8.0499158115526138e-08, 2.8608165253578508),
        (0.063701348079949149, 0.027393722691346167, 0.050004447082056626,
         1.9826161629282991e-08, 2.2055355818894915),
    ],
    3.0: [
        (0.50050728851084469, 0.69188396278019981, 0.10366696447527647,
         0.00014113311919456369, 1.056994519235537),
        (0.30176391241513717, 0.19008905607473855, 0.13748706228972546,
         1.2819460133735424e-05, 2.2985551520043961),
        (0.18368214571942937, 0.26525526033340457, 0.033999559308891286,
         2.3093446057710194e-07, 1.1343278699708579),
        (0.18007646457271437, 0.12416171780559176, 0.078746804522026259,
         3.2487226855283502e-08, 1.7501036550264417),
    ],
}

@pytest.fixture(scope="module")
def headline_sweeps(tmp_path_factory):
    """gamma = 2 and gamma = 3 rate studies: N = 64, SINE_DENSITY(0.5)
    with gradient-part velocity data, t_end = 0.25, the four-run ladder."""
    results = {}
    for gamma in (2.0, 3.0):
        out = tmp_path_factory.mktemp(f"sweep_gamma{int(gamma)}")
        cfg = RunConfig(
            grid_n=64,
            gamma=gamma,
            epsilon_ladder=[0.2, 0.1, 0.05, 0.025],
            t_end=0.25,
            initial_profile="sine_density",
            profile_amplitude=0.5,
            record_every=10,
            output_dir=str(out),
        )
        t0 = time.perf_counter()
        results[gamma] = (run_sweep(cfg), time.perf_counter() - t0)
    return results

def test_criterion_1_bohm_identity():
    t0 = time.perf_counter()
    passed, lines = bohm_form_check(n_fields=20, grid_n=128, seed=0)
    elapsed = time.perf_counter() - t0
    _verdict(1, "quantum-force form equivalence", passed and elapsed < 10.0,
             f"{lines[-1]}, {elapsed:.1f}s")

def test_criterion_2_acoustic_exactness():
    t0 = time.perf_counter()
    passed, lines = acoustic_check()
    elapsed = time.perf_counter() - t0
    _verdict(2, "acoustic conservation and oracle", passed and elapsed < 5.0,
             f"{elapsed:.1f}s")

def test_criterion_3_euler_reference():
    t0 = time.perf_counter()
    passed, lines = euler_check()
    elapsed = time.perf_counter() - t0
    _verdict(3, "Euler reference validity", passed and elapsed < 60.0,
             f"{lines[0].strip()}; {lines[1].strip()}; {elapsed:.1f}s")

def test_criterion_4_energy_inequality(headline_sweeps):
    details = []
    ok = True
    for gamma, (result, _) in headline_sweeps.items():
        for eps, run, verdict in zip(result.epsilons, result.runs, result.energy_verdicts):
            ok &= verdict
            details.append(f"g={gamma:g} eps={eps:g}: {'PASS' if verdict else 'FAIL'}")
    _verdict(4, "energy inequality per run", ok, "; ".join(details))

def test_criterion_5_entropy_zero_point_and_identity():
    grid = Grid2D(64)
    rng = np.random.default_rng(11)
    worst_zero = 0.0
    worst_identity = 0.0
    for i in range(100):
        eps = float(rng.uniform(0.05, 0.4))
        gamma = 2.0
        params = LimitParams(eps, gamma)
        sigma = random_band_limited(grid, 5, rng, 0.6)
        psi = random_band_limited(grid, 5, rng, 0.5)
        ref = taylor_green(grid)
        ac = AcousticState(sigma=sigma, psi=psi, time=0.0, params=params)
        gp = gradient(ac.psi)
        n = 1.0 + eps * sigma.values
        ux = ref.v.x.values + gp.x.values
        uy = ref.v.y.values + gp.y.values
        exact = QnsState(
            n=ScalarField(grid, n),
            m=vector_field(grid, n * ux, n * uy),
            time=0.0,
            params=params,
        )
        worst_zero = max(worst_zero, abs(relative_entropy(exact, ref, ac).rel_entropy))

        # perturbed state: quadratic free energy ties the internal part
        # to the squared density norm exactly at gamma = 2
        bump = random_band_limited(grid, 5, rng, 0.2)
        pert = QnsState(
            n=ScalarField(grid, n + bump.values),
            m=exact.m,
            time=0.0,
            params=params,
        )
        rep = relative_entropy(pert, ref, ac)
        rel_gap = abs(rep.internal_part - rep.theorem_lhs[1]) / max(rep.internal_part, 1e-300)
        worst_identity = max(worst_identity, rel_gap)
    ok = worst_zero < 1e-12 and worst_identity < 1e-12
    _verdict(5, "relative-entropy zero point + gamma=2 identity", ok,
             f"max |E| at reference = {worst_zero:.2e}, max identity gap = {worst_identity:.2e}")

def test_criterion_6_density_band(headline_sweeps):
    ok = True
    details = []
    for gamma, (result, _) in headline_sweeps.items():
        ratios = result.density_ratios
        band = max(ratios) / min(ratios)
        ok &= result.density_band_ok
        details.append(f"g={gamma:g}: ratios {['%.3f' % r for r in ratios]}, spread x{band:.2f}")
    _verdict(6, "density deviation within factor-10 band", ok, "; ".join(details))

def test_criterion_7_headline_rate_study(headline_sweeps):
    ok = True
    details = []
    total_time = 0.0
    for gamma, (result, elapsed) in headline_sweeps.items():
        total_time += elapsed
        for name, fit in result.fits.items():
            verdict = result.rate_verdicts[name]
            ok &= verdict
            details.append(
                f"g={gamma:g} {name}: slope {fit.slope:+.3f} vs {result.rate_threshold:.3f}"
            )
    ok &= total_time < 900.0
    _verdict(7, "one-sided convergence-rate study", ok,
             "; ".join(details) + f"; total {total_time:.0f}s")


def test_criterion_7_headline_sweeps_pass_with_four_fits(headline_sweeps):
    # criterion 7 above reads only the fits that exist; the sweep's own
    # verdict also fails a quantity without a fit
    ok = True
    details = []
    for gamma, (result, _) in headline_sweeps.items():
        ok &= result.passed and set(result.fits) == set(TRACKED_QUANTITIES)
        details.append(f"g={gamma:g}: {len(result.fits)} fits, "
                       f"{'PASS' if result.passed else 'FAIL'}")
    _verdict(7, "each headline sweep passed with four fits", ok, "; ".join(details))


def test_headline_terminal_values_pinned(headline_sweeps):
    worst = 0.0
    for gamma, (result, _) in headline_sweeps.items():
        assert len(result.runs) == len(HEADLINE_TERMINAL[gamma])
        for run, ratio, want in zip(result.runs, result.density_ratios,
                                    HEADLINE_TERMINAL[gamma]):
            last = run.reports[-1]
            got = (last.rel_entropy, *last.theorem_lhs, ratio)
            worst = max(worst, max(abs(a - b) / abs(b) for a, b in zip(got, want)))
    assert worst <= 1e-10, f"headline terminal values moved by {worst:.2e} relative"

def test_criterion_8_splitting_order():
    grid = Grid2D(64)
    params = LimitParams(0.1, 2.0)
    tg = taylor_green(grid)
    data = InitialData(
        n1_0=ScalarField(grid, 0.5 * np.sin(grid.x)),
        u_0=vector_field(
            grid,
            tg.v.x.values + 0.5 * np.cos(grid.x),
            tg.v.y.values + 0.5 * np.cos(grid.y),
        ),
    )

    def advance(dt, t_end=0.1):
        s = qns_init(params, data)
        while s.time < t_end - 1e-12:
            s = qns_step(s, min(dt, t_end - s.time))
        return s.n.values

    h2 = grid.spacing ** 2
    ref = advance(0.001)  # dt0 / 4 reference
    e1 = np.sqrt(((advance(0.004) - ref) ** 2).sum() * h2)
    e2 = np.sqrt(((advance(0.002) - ref) ** 2).sum() * h2)
    factor = e1 / e2
    _verdict(8, "second-order splitting", factor >= 3.5,
             f"error-reduction factor {factor:.2f} (>= 3.5)")

def test_criterion_9_determinism_and_io(tmp_path):
    cfg = RunConfig(grid_n=32, epsilon=0.1, t_end=0.04,
                    initial_profile="sine_density", profile_amplitude=0.5,
                    record_every=2, seed=7, output_dir=str(tmp_path))
    run_single(cfg, csv_path=tmp_path / "a.csv")
    run_single(cfg, csv_path=tmp_path / "b.csv")
    identical = (
        (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        and (tmp_path / "a.qnsf").read_bytes() == (tmp_path / "b.qnsf").read_bytes()
    )

    rng = np.random.default_rng(0)
    fields = {"n1_0": rng.standard_normal((16, 16)), "u0_x": rng.standard_normal((16, 16))}
    snap = tmp_path / "s.qnsf"
    write_snapshot(fields, snap)
    _, back = read_snapshot(snap)
    round_trip = all(np.array_equal(back[k], fields[k]) for k in fields)

    (tmp_path / "magic.qnsf").write_bytes(b"XXXX" + b"\x00" * 20)
    raw = bytearray(snap.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    (tmp_path / "ver.qnsf").write_bytes(bytes(raw))
    (tmp_path / "cut.qnsf").write_bytes(snap.read_bytes()[:-9])
    errors_ok = True
    for fname, exc in [("magic.qnsf", BadMagic), ("ver.qnsf", VersionMismatch),
                       ("cut.qnsf", Truncated)]:
        try:
            read_snapshot(tmp_path / fname)
            errors_ok = False
        except exc:
            pass
        except Exception:
            errors_ok = False
    ok = identical and round_trip and errors_ok
    _verdict(9, "determinism and IO", ok,
             f"csv identical={identical}, snapshot bitwise={round_trip}, "
             f"error classes={errors_ok}")
