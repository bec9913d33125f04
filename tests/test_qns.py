import numpy as np
import pytest

from qnslab import (
    DIVERGENCE,
    AcousticState,
    CflViolation,
    EnergyLedger,
    Grid2D,
    InitialData,
    LimitParams,
    NumericalAbort,
    QnsState,
    RunConfig,
    ScalarField,
    VacuumError,
    acoustic_init,
    bohm_force,
    cfl_bounds,
    cfl_dt,
    corollary_lhs,
    dealias,
    differentiate,
    dissipation_rate,
    integrate,
    qns_init,
    qns_step,
    random_band_limited,
    relative_entropy,
    run_single,
    taylor_green,
    total_energy,
    vector_field,
)
from qnslab import qns
from qnslab.spectral import to_physical, to_spectral

PARAMS = LimitParams(0.1, 2.0)


def _zero_data(grid):
    zero = np.zeros((grid.n_points, grid.n_points))
    return InitialData(
        n1_0=ScalarField(grid, zero), u_0=vector_field(grid, zero, zero)
    )


@pytest.mark.parametrize("n", [48, 64, 96, 128])
def test_qns_init_rest(n):
    s = qns_init(PARAMS, _zero_data(Grid2D(n)))
    assert np.abs(s.n.values - 1.0).max() < 1e-15
    assert np.abs(s.m.x.values).max() == 0.0
    assert s.time == 0.0


def test_qns_init_sine_density_range(grid64):
    data = InitialData(
        n1_0=ScalarField(grid64, np.sin(grid64.x)),
        u_0=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
    )
    s = qns_init(PARAMS, data)
    assert s.n.values.min() == pytest.approx(0.9, abs=1e-12)
    assert s.n.values.max() == pytest.approx(1.1, abs=1e-12)
    assert integrate(s.n) == pytest.approx(4 * np.pi ** 2, rel=1e-13)


def test_qns_init_refuses_vacuum_proximity(grid64):
    data = InitialData(
        n1_0=ScalarField(grid64, 6.0 * np.sin(grid64.x)),
        u_0=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
    )
    with pytest.raises(VacuumError):
        qns_init(PARAMS, data)


def test_qns_init_refuses_vacuum_proximity_after_dealiasing(grid64):
    # eps * ||n1_0||_inf = 0.45 passes the first check, but the Gibbs
    # overshoot of the dealiased square wave takes min n below 0.5
    data = InitialData(
        n1_0=ScalarField(grid64, np.sign(np.sin(grid64.x))),
        u_0=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
    )
    with pytest.raises(VacuumError, match="initial vacuum proximity refused: min n = 0.4"):
        qns_init(LimitParams(0.45, 2.0), data)


@pytest.mark.parametrize("n", [48, 64, 96, 128])
def test_rest_state_is_exact_fixed_point(n):
    s = qns_init(PARAMS, _zero_data(Grid2D(n)))
    s1 = qns_step(s, 1e-3)
    assert np.array_equal(s1.n.values, s.n.values)
    assert np.array_equal(s1.m.x.values, s.m.x.values)
    assert np.array_equal(s1.m.y.values, s.m.y.values)


def test_step_rejects_cfl_violation(grid64):
    data = InitialData(
        n1_0=ScalarField(grid64, 0.5 * np.sin(grid64.x)),
        u_0=vector_field(grid64, np.sin(grid64.x), np.zeros_like(grid64.x)),
    )
    s = qns_init(PARAMS, data)
    with pytest.raises(CflViolation):
        qns_step(s, 10.0 * cfl_dt(s))


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_step_refuses_a_step_that_is_not_positive_and_finite(grid64, fft_counts, dt):
    s = _tg_sine_state(grid64)
    ledger = EnergyLedger()
    fft_counts.update(fwd=0, inv=0, calls=0)
    with pytest.raises(CflViolation, match="finite and > 0"):
        qns_step(s, dt, ledger)
    assert fft_counts == {"fwd": 0, "inv": 0, "calls": 0}
    assert ledger.entries == []


def test_step_aborts_on_vacuum(grid64):
    n = 1.0 + (1.0 - 5e-9) * np.sin(grid64.x)  # min n = 5e-9, below the floor
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, np.zeros_like(n), np.zeros_like(n)),
        time=0.0,
        params=PARAMS,
    )
    with pytest.raises(VacuumError) as err:
        qns_step(s, 1e-5)
    assert err.value.time is not None


@pytest.mark.parametrize("kind", ["vacuum", "non-finite"])
def test_step_checks_its_state_before_its_step_bound(grid64, fft_counts, kind):
    # moving at u = 1e8 where min n = 5e-9, the vacuum state's own step
    # bound is below 1e-9: its fault is the vacuum (or a NaN), not the
    # dt of 1e-5
    n = 1.0 + (1.0 - 5e-9) * np.sin(grid64.x)
    s = QnsState(n=ScalarField(grid64, n),
                 m=vector_field(grid64, np.full_like(n, 0.5), np.zeros_like(n)),
                 time=0.25, params=PARAMS)
    error = VacuumError
    if kind == "non-finite":
        s.m.y.values[7, 3] = np.nan
        error = NumericalAbort
    fft_counts.update(fwd=0, inv=0, calls=0)
    with pytest.raises(error) as err:
        qns_step(s, 1e-5)
    assert err.value.time == 0.25
    assert fft_counts == {"fwd": 0, "inv": 0, "calls": 0}


def test_cfl_formula_hand_evaluation(grid64):
    # N=64, eps=0.1, gamma=2, max|u| = 1, delta = max|n - 1| = 0.5
    n = 1.0 + 0.5 * np.sin(grid64.y)
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, n * np.sin(grid64.x), np.zeros_like(grid64.x)),
        time=0.0,
        params=PARAMS,
    )
    h = 2 * np.pi / 64
    bounds = {
        "advective": h / 1.0,
        "bohm": h * h / (2 * 0.1 ** 2 * np.pi ** 2 * 0.5),
        "viscous": h * h / (2 * 0.1 * 0.5),
    }
    got = cfl_bounds(s)
    assert got.keys() == bounds.keys()
    for name, want in bounds.items():
        assert got[name] == pytest.approx(want, rel=1e-12), name
    assert cfl_dt(s) == pytest.approx(0.4 * min(bounds.values()), rel=1e-12)


def test_cfl_rest_state_has_no_bound(grid64):
    s = qns_init(PARAMS, _zero_data(grid64))
    assert cfl_bounds(s) == {"advective": np.inf, "bohm": np.inf, "viscous": np.inf}
    assert cfl_dt(s) == np.inf


def test_cfl_monotonicity(grid64):
    def dt_at(eps, n_points):
        g = Grid2D(n_points)
        zero = np.zeros((n_points, n_points))
        data = InitialData(
            n1_0=ScalarField(g, 0.5 * np.sin(g.x)), u_0=vector_field(g, zero, zero)
        )
        s = qns_init(LimitParams(eps, 2.0), data)
        return cfl_dt(s)

    # u = 0: viscous/Bohm scales govern and grow as eps shrinks
    assert dt_at(0.05, 64) > dt_at(0.1, 64) > dt_at(0.2, 64)
    # doubling N divides the advective bound by two
    g = Grid2D(64)
    s64 = QnsState(
        n=ScalarField(g, np.ones_like(g.x)),
        m=vector_field(g, 20.0 * np.sin(g.x), np.zeros_like(g.x)),  # advective-bound regime
        time=0.0,
        params=PARAMS,
    )
    g128 = Grid2D(128)
    s128 = QnsState(
        n=ScalarField(g128, np.ones_like(g128.x)),
        m=vector_field(g128, 20.0 * np.sin(g128.x), np.zeros_like(g128.x)),
        time=0.0,
        params=PARAMS,
    )
    assert cfl_dt(s64) == pytest.approx(2 * cfl_dt(s128), rel=1e-6)


def test_mass_and_momentum_conservation_100_steps():
    grid = Grid2D(64)
    params = LimitParams(0.2, 2.0)
    tg = taylor_green(grid)
    data = InitialData(
        n1_0=ScalarField(grid, 0.5 * np.sin(grid.x)),
        u_0=vector_field(
            grid, tg.v.x.values + 0.5 * np.cos(grid.x), tg.v.y.values + 0.5 * np.cos(grid.y)
        ),
    )
    s = qns_init(params, data)
    mass0 = integrate(s.n)
    mom0 = (integrate(s.m.x), integrate(s.m.y))
    for _ in range(100):
        s = qns_step(s, cfl_dt(s))
    scale = 4 * np.pi ** 2
    assert abs(integrate(s.n) - mass0) / mass0 < 1e-11
    assert abs(integrate(s.m.x) - mom0[0]) < 1e-10 * scale
    assert abs(integrate(s.m.y) - mom0[1]) < 1e-10 * scale


@pytest.mark.parametrize("amp", [0.0, 0.5])
def test_dissipation_rate_hand_value(grid32, amp):
    # u = (sin y, 0): |D(u)|^2 = cos^2(y)/2, and sin x integrates out of
    # n cos^2 y, so 2 eps int n |D(u)|^2 = 2 eps pi^2 for either density
    g = grid32
    params = LimitParams(0.1, 2.0)
    n = 1.0 + amp * np.sin(g.x)
    s = QnsState(n=ScalarField(g, n), m=vector_field(g, n * np.sin(g.y), np.zeros_like(n)),
                 time=0.0, params=params)
    assert dissipation_rate(s) == pytest.approx(2.0 * params.epsilon * np.pi ** 2, rel=1e-12)


def test_total_energy_examples(grid64):
    rest = qns_init(PARAMS, _zero_data(grid64))
    assert abs(total_energy(rest).e_total) < 1e-25

    tg = taylor_green(grid64)
    s = QnsState(
        n=ScalarField(grid64, np.ones_like(grid64.x)),
        m=tg.v,
        time=0.0,
        params=PARAMS,
    )
    e = total_energy(s)
    assert e.e_total == pytest.approx(np.pi ** 2, rel=1e-12)
    assert e.e_kinetic == pytest.approx(np.pi ** 2, rel=1e-12)

    const = QnsState(
        n=ScalarField(grid64, np.full_like(grid64.x, 1.1)),
        m=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
        time=0.0,
        params=PARAMS,
    )
    # H(1 + eps) = eps^2 for gamma = 2, so the 1/eps^2 weight cancels
    assert total_energy(const).e_total == pytest.approx(4 * np.pi ** 2, rel=1e-10)


def test_energy_ledger_inequality_short_run(grid64):
    params = LimitParams(0.1, 2.0)
    tg = taylor_green(grid64)
    data = InitialData(
        n1_0=ScalarField(grid64, 0.5 * np.sin(grid64.x)),
        u_0=vector_field(
            grid64,
            tg.v.x.values + 0.5 * np.cos(grid64.x),
            tg.v.y.values + 0.5 * np.cos(grid64.y),
        ),
    )
    s = qns_init(params, data)
    ledger = EnergyLedger()
    ledger.record(s)
    dt = 0.002
    for _ in range(50):
        s = qns_step(s, dt)
        ledger.record(s)
    assert ledger.inequality_ok(dt)
    d = [e.d_cumulative for e in ledger.entries]
    assert all(b >= a for a, b in zip(d, d[1:]))
    assert d[-1] > 0.0


def test_lawson_step_fourth_order(grid64):
    params = LimitParams(0.1, 2.0)
    tg = taylor_green(grid64)
    data = InitialData(
        n1_0=ScalarField(grid64, 0.5 * np.sin(grid64.x)),
        u_0=vector_field(
            grid64,
            tg.v.x.values + 0.5 * np.cos(grid64.x),
            tg.v.y.values + 0.5 * np.cos(grid64.y),
        ),
    )

    def advance(dt, t_end=0.05):
        s = qns_init(params, data)
        while s.time < t_end - 1e-12:
            s = qns_step(s, min(dt, t_end - s.time))
        return s.n.values

    h2 = grid64.spacing ** 2
    ref = advance(0.001)
    e1 = np.sqrt(((advance(0.004) - ref) ** 2).sum() * h2)
    e2 = np.sqrt(((advance(0.002) - ref) ** 2).sum() * h2)
    # fourth order gives 16 (measured 17.0); third order would give 8
    assert e1 / e2 >= 12.0


def _unfused_explicit_forces(g, n, mx, my, params):
    """The explicit-stage forces composed term by term: every dealias and
    every derivative its own round trip, frozen forces and flux
    divergences added in physical space."""

    def d(vals, order):
        return differentiate(ScalarField(g, vals), order).values

    def da(vals):
        return dealias(ScalarField(g, vals)).values

    eps, gamma = params.epsilon, params.gamma
    p_rem = da(n ** gamma - gamma * (n - 1.0) - 1.0)
    fx = -d(p_rem, (1, 0)) / (eps * eps)
    fy = -d(p_rem, (0, 1)) / (eps * eps)
    qf = bohm_force(ScalarField(g, n), DIVERGENCE)
    fx += eps * eps * qf.x.values
    fy += eps * eps * qf.y.values
    ux = da(mx / n)
    uy = da(my / n)
    fx -= d(da(mx * ux), (1, 0)) + d(da(mx * uy), (0, 1))
    fy -= d(da(my * ux), (1, 0)) + d(da(my * uy), (0, 1))
    sxx = da(n * d(ux, (1, 0)))
    sxy = da(n * 0.5 * (d(ux, (0, 1)) + d(uy, (1, 0))))
    syy = da(n * d(uy, (0, 1)))
    fx += 2.0 * eps * (d(sxx, (1, 0)) + d(sxy, (0, 1)))
    fy += 2.0 * eps * (d(sxy, (1, 0)) + d(syy, (0, 1)))
    return fx, fy


def _linear_forces(g, n, mx, my, params):
    """The n = 1 linear parts that the exact linear stage carries,
    composed term by term: eps^2 grad(lap n) and eps (lap m + grad div m)."""

    def d(vals, order):
        return differentiate(ScalarField(g, vals), order).values

    def da(vals):
        return dealias(ScalarField(g, vals)).values

    eps = params.epsilon
    nd, mxd, myd = da(n), da(mx), da(my)
    div = d(mxd, (1, 0)) + d(myd, (0, 1))
    fx = eps * eps * (d(nd, (3, 0)) + d(nd, (1, 2)))
    fy = eps * eps * (d(nd, (2, 1)) + d(nd, (0, 3)))
    fx += eps * (d(mxd, (2, 0)) + d(mxd, (0, 2)) + d(div, (1, 0)))
    fy += eps * (d(myd, (2, 0)) + d(myd, (0, 2)) + d(div, (0, 1)))
    return fx, fy


def test_fused_explicit_stage_matches_unfused(grid32):
    params = LimitParams(0.1, 3.0)
    rng = np.random.default_rng(2024)
    n = 1.0 + random_band_limited(grid32, 6, rng, 0.5).values
    assert 0.5 - 1e-12 <= n.min() and n.max() <= 1.5 + 1e-12
    mx = random_band_limited(grid32, 6, rng).values
    my = random_band_limited(grid32, 6, rng).values

    # the fused remainder plus the linear stage's part is the whole force;
    # the stage takes and gives band spectra
    c = grid32.band_c
    f, w = qns._spectra(grid32, 2), qns._Work(grid32)
    flow = qns._linear_flow(grid32, params, 0.01)
    qns._viscous_hats(grid32, params.epsilon, flow, to_spectral(mx)[:, :c],
                      to_spectral(my)[:, :c], f, w)
    fxh, fyh = qns._stress_hats(grid32, params, n, mx, my, f, w)
    lx, ly = _linear_forces(grid32, n, mx, my, params)
    fx, fy = to_physical(fxh) + lx, to_physical(fyh) + ly
    rx, ry = _unfused_explicit_forces(grid32, n, mx, my, params)
    scale = max(np.abs(rx).max(), np.abs(ry).max())
    assert scale > 0.0
    assert max(np.abs(fx - rx).max(), np.abs(fy - ry).max()) <= 1e-11 * scale


def _random_spectra(grid, seed):
    """Three random band spectra, zero outside the mask as a state's are."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_points, grid.band_c)
    spectra = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(3)]
    for a in spectra:
        a[grid.band_cut] = 0.0
    return spectra


def _band_tables(g):
    """kg2, kgx, kgy and the mask of the half plane, on the band's columns."""
    return (a[:, :g.band_c] for a in (g.kg2, g.kgx, g.kgy, g.dealias_mask))


@pytest.mark.parametrize("eps", [0.1, 0.5])
def test_linear_stage_is_per_mode_matrix_exponential(grid32, eps):
    from scipy.linalg import expm

    params = LimitParams(eps, 2.0)
    g = grid32
    t = 0.01
    nh, mxh, myh = _random_spectra(g, 7)
    got_n, got_mx, got_my = qns._linear_stage(
        g, qns._linear_flow(g, params, t), nh, mxh, myh, qns._spectra(g, 3), qns._spectra(g, 3)
    )

    kg2, kgx, kgy, mask = _band_tables(g)
    kabs = np.sqrt(kg2)
    safe = np.where(kabs > 0, kabs, 1.0)
    ex, ey = kgx / safe, kgy / safe
    c2 = 2.0 / eps ** 2 + eps ** 2 * kg2 * mask
    nu = eps * kg2 * mask
    gen = np.zeros(kabs.shape + (2, 2))
    gen[..., 0, 1] = -kabs
    gen[..., 1, 0] = kabs * c2
    gen[..., 1, 1] = -2.0 * nu
    prop = expm(gen * t)

    beta = 1j * (ex * mxh + ey * myh)
    a = nh.copy()
    a[0, 0] -= 1.0
    a_new = prop[..., 0, 0] * a + prop[..., 0, 1] * beta
    beta_new = prop[..., 1, 0] * a + prop[..., 1, 1] * beta
    a_new[0, 0] += 1.0
    decay = np.exp(-nu * t)
    b_new = -1j * beta_new
    b_old = ex * mxh + ey * myh
    want_mx = decay * (mxh - b_old * ex) + b_new * ex
    want_my = decay * (myh - b_old * ey) + b_new * ey

    for got, want in [(got_n, a_new), (got_mx, want_mx), (got_my, want_my)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_linear_stage_semigroup(grid32):
    params = LimitParams(0.1, 3.0)
    spectra = _random_spectra(grid32, 11)
    half = qns._linear_flow(grid32, params, 0.0125)
    full = qns._linear_flow(grid32, params, 0.025)
    tmp = qns._spectra(grid32, 3)
    twice = qns._linear_stage(grid32, half, *qns._linear_stage(
        grid32, half, *spectra, qns._spectra(grid32, 3), tmp), qns._spectra(grid32, 3), tmp)
    once = qns._linear_stage(grid32, full, *spectra, qns._spectra(grid32, 3), tmp)
    for a, b in zip(twice, once):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_linear_stage_rotates_at_acoustic_frequency(grid32):
    # with both terms on, w_k^2 = |k|^2 c_k^2 - nu^2 = p'(1)|k|^2/eps^2
    # exactly inside the mask, and half the trace of the per-mode flow
    # matrix on (n_hat, e . m_hat) is e^{-nu t} cos(w_k t); the flow is
    # that of the kept modes, and takes the rest to zero
    params = LimitParams(0.1, 3.0)
    g = grid32
    kg2, kgx, kgy, mask = _band_tables(g)
    kabs = np.sqrt(kg2)
    safe = np.where(kabs > 0, kabs, 1.0)
    ex, ey = kgx / safe, kgy / safe
    one = mask.astype(complex)
    zero = np.zeros(kabs.shape, dtype=complex)
    omega = np.sqrt(3.0) * kabs / params.epsilon
    nu = params.epsilon * kg2 * mask
    active = (kg2 > 0) & mask
    for t in (1e-3, 0.0125, 0.05):
        flow = qns._linear_flow(g, params, t)
        tmp = qns._spectra(g, 3)
        p11 = qns._linear_stage(g, flow, one, zero, zero, qns._spectra(g, 3), tmp)[0]
        _, mx, my = qns._linear_stage(g, flow, zero, ex * one, ey * one, qns._spectra(g, 3), tmp)
        p22 = ex * mx + ey * my
        want = np.exp(-nu * t) * np.cos(omega * t)
        assert np.abs(0.5 * (p11 + p22) - want)[active].max() <= 1e-12
        full = np.ones(kabs.shape, dtype=complex)
        for a in qns._linear_stage(g, flow, full, full, full, qns._spectra(g, 3), tmp):
            assert not a[~mask].any()


def test_fft_budget_per_step_and_record(grid32, fft_counts):
    counts = fft_counts
    tg = taylor_green(grid32)
    n1_0 = ScalarField(grid32, 0.5 * np.sin(grid32.x))
    u_0 = vector_field(
        grid32,
        tg.v.x.values + 0.5 * np.cos(grid32.x),
        tg.v.y.values + 0.5 * np.cos(grid32.y),
    )
    counts.update(fwd=0, inv=0)
    data = InitialData(n1_0=n1_0, u_0=u_0)
    assert counts["fwd"] == 0 and counts["inv"] == 0, counts

    counts.update(fwd=0, inv=0)
    acoustic_init(data, PARAMS)
    assert counts["fwd"] <= 2 and counts["inv"] <= 1, counts

    s = qns_init(PARAMS, data)

    # Lawson RK4: 7 / 7 for the first stage (it reads the state's fields),
    # 7 / 10 for each later one, 3 / 3 to and from the state's spectra;
    # each stage takes its transforms in four stacked calls and each
    # later stage one more for its state: 21 calls for 71 transforms
    counts.update(fwd=0, inv=0, calls=0)
    qns_step(s, cfl_dt(s))
    assert counts["fwd"] == 31 and counts["inv"] == 40 and counts["calls"] == 21, counts

    # a ledger entry read from stage 1 takes no transform of its own
    counts.update(fwd=0, inv=0, calls=0)
    ledger = EnergyLedger()
    qns_step(s, cfl_dt(s), ledger)
    assert counts["fwd"] == 31 and counts["inv"] == 40 and counts["calls"] == 21, counts
    assert ledger.entries == [total_energy(s)]

    counts.update(fwd=0, inv=0, calls=0)
    EnergyLedger().record(s)
    assert counts["fwd"] == 3 and counts["inv"] == 5 and counts["calls"] == 3, counts

    # a report: the gradients of Psi and of sqrt(n) - sqrt(b)
    ac = acoustic_init(data, PARAMS)
    counts.update(fwd=0, inv=0)
    relative_entropy(s, tg, ac)
    assert (counts["fwd"], counts["inv"]) == (2, 4), counts

    # per run: 31 / 40 per step, one standalone record (3 / 5) of the
    # final state, 2 / 4 per report and 2 / 2 for the acoustic companion
    # of each report after t = 0, and the set-up: qns_init 3 / 3 and
    # acoustic_init 2 / 1
    for eps in (0.2, 0.1, 0.05):
        counts.update(fwd=0, inv=0)
        res = run_single(RunConfig(grid_n=32, epsilon=eps, t_end=0.1,
                                   initial_profile="sine_density", profile_amplitude=0.5))
        steps, reports = sum(res.dt_limits.values()), len(res.reports)
        fwd = 31 * steps + 3 + 2 * reports + 2 * (reports - 1) + 5
        inv = 40 * steps + 5 + 4 * reports + 2 * (reports - 1) + 4
        assert (counts["fwd"], counts["inv"]) == (fwd, inv), (eps, counts)


@pytest.mark.parametrize("n", [48, 64])
def test_qns_step_y_passes_run_on_the_band(n, fft_shapes):
    # every fft along y of a step, forward and inverse, sees the c
    # columns kx < N/3 of the dealiased band (16 of 25 at N = 48, 22 of
    # 33 at N = 64): one per transform call, 21 in all
    s = _tg_sine_state(Grid2D(n))
    dt = cfl_dt(s)
    for shapes in fft_shapes.values():
        shapes.clear()
    qns_step(s, dt)
    c = int(np.count_nonzero(s.grid.dealias_mask[0]))
    assert c == {48: 16, 64: 22}[n]
    y_passes = fft_shapes["fft"] + fft_shapes["ifft"]
    assert len(y_passes) == 21 and {shape[-1] for shape in y_passes} == {c}, y_passes


def _tg_sine_state(grid):
    tg = taylor_green(grid)
    data = InitialData(
        n1_0=ScalarField(grid, 0.5 * np.sin(grid.x)),
        u_0=vector_field(
            grid,
            tg.v.x.values + 0.5 * np.cos(grid.x),
            tg.v.y.values + 0.5 * np.cos(grid.y),
        ),
    )
    return qns_init(PARAMS, data)


def _arrays(s):
    return s.n.values, s.m.x.values, s.m.y.values


@pytest.mark.parametrize("n", [32, 64])
def test_step_buffers_are_private_to_the_step(n):
    s0 = _tg_sine_state(Grid2D(n))
    before = [a.copy() for a in _arrays(s0)]
    dt = cfl_dt(s0)
    s1 = qns_step(s0, dt)
    for a, b in zip(_arrays(s0), before):
        assert np.array_equal(a, b)
    again = qns_step(s0, dt)
    for a, b in zip(_arrays(s1), _arrays(again)):
        assert np.array_equal(a, b)
    s2 = qns_step(s1, cfl_dt(s1))
    for a in _arrays(s1):
        for b in _arrays(s2) + _arrays(again):
            assert not np.shares_memory(a, b)


def test_step_memory_peak_n256(traced_fields):
    s = _tg_sine_state(Grid2D(256))
    dt = cfl_dt(s)
    qns._linear_flow.cache_clear()  # the flow is built inside the measured step
    s1, fields = traced_fields(lambda: qns_step(s, dt))
    assert s1.time == dt
    # measured 23.9 fields; the per-operation step of earlier versions
    # peaked at 25.6
    assert fields <= 25.0


def test_record_memory_peak_n256(traced_fields):
    s = _tg_sine_state(Grid2D(256))
    _, fields = traced_fields(lambda: EnergyLedger().record(s))
    # a pool of ten spectra and no stage forces: measured 10.3 fields
    # (12.35 when the record allocated a step's forces too)
    assert fields <= 10.4


def _vacuum_cases():
    """Each guarded entry point with an input whose density (or reference
    density) is non-positive or below the floor, and the time the error
    should carry."""
    grid = Grid2D(32)
    zero = np.zeros((32, 32))
    bad = np.ones((32, 32))
    bad[5, 9] = -0.25
    n_bad = ScalarField(grid, bad)
    s_bad = QnsState(n=n_bad, m=vector_field(grid, zero, zero), time=0.3, params=PARAMS)
    ones = ScalarField(grid, np.ones((32, 32)))
    s_one = QnsState(n=ones, m=s_bad.m, time=0.0, params=PARAMS)
    sigma = zero.copy()
    sigma[5, 9] = -30.0  # 1 + eps sigma = -2 at (5, 9)
    ac = AcousticState(sigma=ScalarField(grid, sigma), psi=ScalarField(grid, zero),
                       time=0.0, params=PARAMS)
    ac_03 = AcousticState(sigma=ScalarField(grid, zero), psi=ScalarField(grid, zero),
                          time=0.3, params=PARAMS)
    near = 1.0 + (1.0 - 5e-9) * np.sin(grid.x)  # min n = 5e-9, below the floor
    s_near = QnsState(n=ScalarField(grid, near), m=s_bad.m, time=0.0, params=PARAMS)
    return {
        "bohm_force": (lambda: bohm_force(n_bad), None),
        "velocity": (lambda: dissipation_rate(s_bad), 0.3),
        "qns_step": (lambda: qns_step(s_near, 1e-5), 0.0),
        "total_energy": (lambda: total_energy(s_bad), 0.3),
        "relative_entropy": (lambda: relative_entropy(s_one, taylor_green(grid), ac), 0.0),
        "relative_entropy state": (lambda: relative_entropy(s_bad, taylor_green(grid), ac_03), 0.3),
        "corollary_lhs": (lambda: corollary_lhs(s_bad, taylor_green(grid)), 0.3),
    }


@pytest.mark.parametrize("entry", list(_vacuum_cases()))
def test_vacuum_guard_reports_minimum_and_location(entry):
    call, time = _vacuum_cases()[entry]
    with pytest.raises(VacuumError) as err:
        call()
    e = err.value
    assert e.min_n is not None and e.min_n < 1e-8
    assert isinstance(e.location, tuple) and len(e.location) == 2
    if entry != "qns_step":
        assert e.location == (5, 9)
        assert e.min_n == (-2.0 if entry == "relative_entropy" else -0.25)
    assert e.time == time
