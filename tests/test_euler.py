import numpy as np
import pytest

from qnslab import (
    EulerReference,
    EulerSolverError,
    ScalarField,
    divergence,
    euler_residual,
    euler_solve,
    norm,
    pressure_recover,
    taylor_green,
    vector_field,
)


def test_taylor_green_divergence_free(grid64):
    tg = taylor_green(grid64)
    assert np.abs(divergence(tg.v).values).max() < 1e-12


def test_taylor_green_residual(grid64):
    assert euler_residual(taylor_green(grid64)) < 1e-10


def test_taylor_green_kinetic_norm(grid64):
    tg = taylor_green(grid64)
    assert norm(tg.v, 2) ** 2 == pytest.approx(2 * np.pi ** 2, rel=1e-12)


def test_pressure_recover_matches_steady_pressure(grid64):
    tg = taylor_green(grid64)
    pi = pressure_recover(tg.v)
    assert np.abs(pi.values - tg.pi.values).max() < 1e-10
    assert abs(pi.mean()) < 1e-14


def test_pressure_recover_trivial_fields(grid64):
    zero = vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x))
    assert np.abs(pressure_recover(zero).values).max() == 0.0
    rigid = vector_field(grid64, np.full_like(grid64.x, 0.7), np.full_like(grid64.x, -1.2))
    assert np.abs(pressure_recover(rigid).values).max() < 1e-11


def test_euler_residual_zero_state(grid64):
    zero = vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x))
    ref = EulerReference(v=zero, pi=ScalarField(grid64, np.zeros_like(grid64.x)), steady=True)
    assert euler_residual(ref) == 0.0


def test_euler_solve_zero_stays_zero(grid64):
    zero = vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x))
    traj = euler_solve(zero, t_end=0.05, dt=0.01)
    assert np.abs(traj[-1].v.x.values).max() == 0.0


def test_euler_solve_taylor_green_short_stationarity(grid64):
    tg = taylor_green(grid64)
    traj = euler_solve(tg.v, t_end=0.2, dt=2e-3, record_every=100)
    drift = norm(
        vector_field(
            grid64,
            traj[-1].v.x.values - tg.v.x.values,
            traj[-1].v.y.values - tg.v.y.values,
        ),
        2,
    )
    assert drift < 1e-8


def test_euler_solve_conserves_energy_and_enstrophy(grid64, rng):
    from qnslab import curl, helmholtz_project, random_band_limited

    w = vector_field(
        grid64,
        random_band_limited(grid64, 4, rng, 1.0).values,
        random_band_limited(grid64, 4, rng, 1.0).values,
    )
    v0, _ = helmholtz_project(w)
    traj = euler_solve(v0, t_end=0.3, dt=2e-3, record_every=50)
    e0 = 0.5 * norm(v0, 2) ** 2
    z0 = 0.5 * norm(curl(v0), 2) ** 2
    for ref in traj[1:]:
        e = 0.5 * norm(ref.v, 2) ** 2
        z = 0.5 * norm(curl(ref.v), 2) ** 2
        assert abs(e - e0) / e0 < 1e-8
        assert abs(z - z0) / z0 < 1e-8
        assert norm(divergence(ref.v), 2) < 1e-10 * norm(ref.v, 2)


def test_euler_solve_rejects_cfl_violation(grid64):
    tg = taylor_green(grid64)
    with pytest.raises(EulerSolverError, match="CFL"):
        euler_solve(tg.v, t_end=1.0, dt=0.2)


def test_euler_solve_rejects_divergent_initial_velocity(grid64):
    w = vector_field(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    with pytest.raises(EulerSolverError, match="solenoidal"):
        euler_solve(w, t_end=0.1, dt=1e-3)


def test_euler_solve_rejects_above_cutoff_content(grid64):
    k = 64 // 2 - 2
    w = vector_field(grid64, np.sin(k * grid64.y), np.zeros_like(grid64.x))
    assert np.abs(divergence(w).values).max() < 1e-10
    with pytest.raises(EulerSolverError, match="cutoff"):
        euler_solve(w, t_end=0.1, dt=1e-4)


def test_euler_residual_of_solver_output(grid64, rng):
    from qnslab import helmholtz_project, random_band_limited

    w = vector_field(
        grid64,
        random_band_limited(grid64, 3, rng, 1.0).values,
        random_band_limited(grid64, 3, rng, 1.0).values,
    )
    v0, _ = helmholtz_project(w)
    traj = euler_solve(v0, t_end=0.1, dt=1e-3, record_every=100)
    assert euler_residual(traj[-1], dt_probe=1e-4) < 1e-6


def _random_solenoidal(grid, rng, kmax):
    from qnslab import helmholtz_project, random_band_limited

    w = vector_field(
        grid,
        random_band_limited(grid, kmax, rng, 1.0).values,
        random_band_limited(grid, kmax, rng, 1.0).values,
    )
    return helmholtz_project(w)[0]


def _rk4_term_by_term(g, v0, dt, form):
    # reference: RK4 on the vorticity field, every stage composed from the
    # public transforms and derivatives (streamfunction from -lap psi = w),
    # with (v.grad)w in the convective form v.grad w or in the flux form
    # d_x d_y (vy^2 - vx^2) + (d_x^2 - d_y^2)(vx vy)
    from qnslab import curl, dealias, differentiate
    from qnslab.spectral import to_physical, to_spectral

    def velocity(w):
        psi_hat = np.divide(to_spectral(w.values), g.kg2,
                            out=np.zeros(g.kg2.shape, complex), where=g.kg2 != 0.0)
        psi = ScalarField(g, to_physical(psi_hat))
        return differentiate(psi, (0, 1)).values, -differentiate(psi, (1, 0)).values

    def rhs(w):
        vx, vy = velocity(w)
        if form == "convective":
            adv = vx * differentiate(w, (1, 0)).values + vy * differentiate(w, (0, 1)).values
            return -dealias(ScalarField(g, adv)).values
        squares = dealias(ScalarField(g, vy * vy - vx * vx))
        cross = dealias(ScalarField(g, vx * vy))
        return -(differentiate(squares, (1, 1)).values + differentiate(cross, (2, 0)).values
                 - differentiate(cross, (0, 2)).values)

    w0 = curl(v0)
    k1 = rhs(w0)
    k2 = rhs(ScalarField(g, w0.values + 0.5 * dt * k1))
    k3 = rhs(ScalarField(g, w0.values + 0.5 * dt * k2))
    k4 = rhs(ScalarField(g, w0.values + dt * k3))
    vx, vy = velocity(w0)
    return w0.values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), max(np.abs(vx).max(),
                                                                        np.abs(vy).max())


def _check_rk4_step(g, v0, dt, form):
    from qnslab import curl
    from qnslab.euler import _rk4_vorticity_step
    from qnslab.spectral import to_physical, to_spectral

    expected, vmax_expected = _rk4_term_by_term(g, v0, dt, form)
    w_hat, vmax, _ = _rk4_vorticity_step(g, to_spectral(curl(v0).values), dt)
    got = to_physical(w_hat)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert vmax == pytest.approx(vmax_expected, rel=1e-12)


def test_rk4_step_matches_term_by_term(grid32, rng):
    _check_rk4_step(grid32, _random_solenoidal(grid32, rng, kmax=4), 2e-2, "convective")


@pytest.mark.parametrize("n, form", [(48, "flux"), (48, "convective"), (64, "flux"),
                                     (64, "convective")])
def test_rk4_step_matches_term_by_term_on_the_full_band(n, form, rng):
    # data on every kept mode, |kx|, |ky| < N/3, so an off-by-one in the
    # band width shows.  No kept mode aliases, so both forms agree, also
    # at N = 48 where 3 divides N.
    from qnslab import Grid2D, euler

    g = Grid2D(n)
    c = int(np.count_nonzero(g.dealias_mask[0]))
    assert euler._multipliers(g)[0].shape[-1] == c
    _check_rk4_step(g, _random_solenoidal(g, rng, kmax=c - 1), 2e-3, form)


def test_euler_fft_budget_per_step(grid32, rng, monkeypatch, fft_counts):
    from qnslab import curl, euler
    from qnslab.spectral import to_spectral

    counts = fft_counts
    counts["rk4"] = 0

    def counting(fn, kind):
        def wrapped(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapped

    v0 = _random_solenoidal(grid32, rng, kmax=4)
    # the momentum flux stack is one forward call of 3 planes; the
    # pressure adds one inverse on the band
    counts.update(fwd=0, inv=0, calls=0)
    euler._flux_hats(v0)
    assert (counts["fwd"], counts["inv"], counts["calls"]) == (3, 0, 1), counts
    counts.update(fwd=0, inv=0, calls=0)
    euler.pressure_recover(v0)
    assert (counts["fwd"], counts["inv"], counts["calls"]) == (3, 1, 2), counts

    # per stage one call for the 2 forward transforms of the products and
    # one for the 2 inverse ones of v, at stage 1 with the guard's plane
    # of w: 4 * 2 = 8 forward, 3 + 2 + 2 + 2 = 9 inverse transforms
    w_hat = to_spectral(curl(v0).values)
    counts.update(fwd=0, inv=0, calls=0)
    euler._rk4_vorticity_step(grid32, w_hat, 1e-3)
    assert (counts["fwd"], counts["inv"], counts["calls"]) == (8, 9, 8), counts

    # per solver step: the difference of two runs with the same snapshots
    monkeypatch.setattr(euler, "_rk4_vorticity_step",
                        counting(euler._rk4_vorticity_step, "rk4"))
    totals = []
    for n_steps in (3, 5):
        counts.update(fwd=0, inv=0, calls=0, rk4=0)
        euler_solve(v0, t_end=n_steps * 1e-3, dt=1e-3, record_every=10 ** 6)
        assert counts["rk4"] == n_steps
        totals.append((counts["fwd"], counts["inv"], counts["calls"]))
    fwd, inv, calls = ((b - a) / 2 for a, b in zip(*totals))
    assert (fwd, inv, calls) == (8, 9, 8), (fwd, inv, calls)


@pytest.mark.parametrize("step, factor, trips", [(3, 11.0, True), (5, 11.0, True),
                                                 (3, 9.0, False)])
def test_euler_blow_up_guard(grid32, monkeypatch, step, factor, trips):
    # scale one step's result; step 5 is the last of 5, so only a check
    # after the final step can see it
    from qnslab import euler

    step_fn = euler._rk4_vorticity_step
    calls = [0]

    def scaled(*args, **kwargs):
        res = step_fn(*args, **kwargs)
        calls[0] += 1
        if calls[0] == step:
            res = (res[0] * factor,) + tuple(res[1:])
        return res

    monkeypatch.setattr(euler, "_rk4_vorticity_step", scaled)
    tg = taylor_green(grid32)
    if trips:
        with pytest.raises(EulerSolverError,
                           match=rf"blow-up guard tripped at t={step * 1e-3:g}:"):
            euler_solve(tg.v, t_end=5e-3, dt=1e-3)
    else:
        traj = euler_solve(tg.v, t_end=5e-3, dt=1e-3)
        assert traj[-1].time == pytest.approx(5e-3)


@pytest.mark.parametrize("t_end, dt, match", [
    (0.01, 0.0, "dt must be finite and > 0"),
    (0.01, -0.01, "dt must be finite and > 0"),
    (0.01, float("nan"), "dt must be finite and > 0"),
    (0.01, float("inf"), "dt must be finite and > 0"),
    (float("nan"), 1e-3, "t_end must be finite and >= 0"),
    (float("inf"), 1e-3, "t_end must be finite and >= 0"),
    (-0.01, 1e-3, "t_end must be finite and >= 0"),
    (0.0004, 1e-3, "not a whole number of steps"),
    (0.025, 0.01, "not a whole number of steps"),
])
def test_euler_solve_rejects_bad_step_data(grid32, t_end, dt, match):
    with pytest.raises(EulerSolverError, match=match):
        euler_solve(taylor_green(grid32).v, t_end=t_end, dt=dt)


def test_euler_solve_zero_time_returns_initial_state(grid32):
    tg = taylor_green(grid32)
    traj = euler_solve(tg.v, t_end=0.0, dt=1e-3)
    assert len(traj) == 1 and traj[0].time == 0.0


def test_euler_step_buffers_are_private(grid32, rng):
    from qnslab import curl, euler
    from qnslab.spectral import to_physical, to_spectral

    for arr in euler._multipliers(grid32):
        assert not arr.flags.writeable
    v0 = _random_solenoidal(grid32, rng, kmax=4)
    w_hat = to_spectral(curl(v0).values)
    before = w_hat.copy()
    first = euler._rk4_vorticity_step(grid32, w_hat, 1e-2)
    assert np.array_equal(w_hat, before)
    again = euler._rk4_vorticity_step(grid32, w_hat, 1e-2)
    assert np.array_equal(first[0], again[0]) and first[1:] == again[1:]
    assert not np.shares_memory(first[0], again[0])
    # the guard reads the band kx <= N/3 of w_hat, not its round-off tail
    assert first[2] == np.abs(to_physical(w_hat[:, :32 // 3 + 1])).max()

    v0_before = (v0.x.values.copy(), v0.y.values.copy())
    traj = euler_solve(v0, t_end=4e-2, dt=1e-2, record_every=1)
    assert np.array_equal(v0.x.values, v0_before[0]) and np.array_equal(v0.y.values, v0_before[1])
    # entry k is the state after k lone steps, bit for bit, from the
    # w_hat euler_solve takes from the velocity spectra
    w = 1j * (grid32.kgx * to_spectral(v0.y.values) - grid32.kgy * to_spectral(v0.x.values))
    for k, ref in enumerate(traj[1:], 1):
        w = euler._rk4_vorticity_step(grid32, w, 1e-2)[0]
        vx_h = euler._multipliers(grid32)[0][0] * w
        assert ref.time == k * 1e-2 and np.array_equal(ref.v.x.values, to_physical(vx_h))
    arrays = [a for ref in traj for a in (ref.v.x.values, ref.v.y.values, ref.pi.values)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_euler_step_y_passes_run_on_the_band(grid64, rng, fft_shapes):
    # every fft along y, forward and inverse, sees the N//3 + 1 = 22
    # columns kx <= N/3 of the dealiased band, not the 33 of the half plane
    from qnslab import curl, euler
    from qnslab.spectral import to_spectral

    w_hat = to_spectral(curl(_random_solenoidal(grid64, rng, kmax=4)).values)
    for shapes in fft_shapes.values():
        shapes.clear()
    euler._rk4_vorticity_step(grid64, w_hat, 1e-3)
    shapes = fft_shapes["fft"] + fft_shapes["ifft"]
    assert len(shapes) == 8 and {s[-1] for s in shapes} == {22}, shapes


@pytest.mark.parametrize("record_every", [0, -1, 2.5])
def test_euler_solve_rejects_bad_record_every(grid32, fft_counts, record_every):
    tg = taylor_green(grid32)
    fft_counts.update(fwd=0, inv=0, calls=0)
    with pytest.raises(EulerSolverError, match="record_every must be an integer >= 1"):
        euler_solve(tg.v, t_end=5e-3, dt=1e-3, record_every=record_every)
    assert fft_counts == {"fwd": 0, "inv": 0, "calls": 0}


def test_euler_solve_setup_takes_one_spectral_pass(grid64, fft_counts):
    # the divergence, the cutoff check and w_hat: 2 forward transforms and
    # 1 inverse one; the t = 0 snapshot adds the velocity's 2 inverse and
    # the pressure's 3 forward / 1 inverse
    tg = taylor_green(grid64)
    fft_counts.update(fwd=0, inv=0, calls=0)
    traj = euler_solve(tg.v, t_end=0.0, dt=1e-3)
    assert (fft_counts["fwd"], fft_counts["inv"]) == (5, 4), fft_counts
    assert np.abs(traj[0].v.x.values - tg.v.x.values).max() < 1e-14
