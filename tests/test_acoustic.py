import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from qnslab import (
    AcousticState,
    Grid2D,
    InitialData,
    LimitParams,
    ScalarField,
    acoustic_energy,
    acoustic_evolve,
    acoustic_init,
    gradient,
    mollify,
    norm,
    random_band_limited,
    vector_field,
)

PARAMS = LimitParams(0.1, 2.0)


def _state(grid, sigma, psi, params=PARAMS):
    return AcousticState(
        sigma=ScalarField(grid, sigma), psi=ScalarField(grid, psi), time=0.0, params=params
    )


def test_initial_data_bound_check(grid64, rng):
    n1 = random_band_limited(grid64, 4, rng, 0.5)
    u0 = vector_field(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    with pytest.raises(ValueError):
        InitialData(n1_0=n1, u_0=u0, eta=-0.1)


@pytest.mark.parametrize(
    "case, message",
    [("grids", "initial data fields must share one grid"),
     ("mollify-eta", "mollification width must be >= 0, got -0.1")],
)
def test_initial_data_and_mollify_refusals(grid64, grid32, case, message):
    zero = np.zeros_like(grid64.x)
    with pytest.raises(ValueError, match=message):
        if case == "grids":
            InitialData(n1_0=ScalarField(grid32, np.zeros_like(grid32.x)),
                        u_0=vector_field(grid64, zero, zero))
        else:
            mollify(ScalarField(grid64, zero), -0.1)


def test_acoustic_init_divergence_free_velocity(grid64):
    # solenoidal u0 has no gradient part, so Psi vanishes
    u0 = vector_field(
        grid64,
        np.sin(grid64.x) * np.cos(grid64.y),
        -np.cos(grid64.x) * np.sin(grid64.y),
    )
    data = InitialData(
        n1_0=ScalarField(grid64, np.zeros_like(grid64.x)), u_0=u0
    )
    s = acoustic_init(data, PARAMS)
    assert np.abs(s.psi.values).max() < 1e-12


def test_acoustic_init_pure_gradient_velocity(grid64):
    phi = np.sin(grid64.x) + 0.5 * np.cos(2 * grid64.y)
    u0 = gradient(ScalarField(grid64, phi))
    data = InitialData(n1_0=ScalarField(grid64, np.zeros_like(phi)), u_0=u0)
    s = acoustic_init(data, PARAMS)
    gp = gradient(s.psi)
    assert np.abs(gp.x.values - u0.x.values).max() < 1e-12
    assert np.abs(gp.y.values - u0.y.values).max() < 1e-12
    assert abs(s.psi.mean()) < 1e-14


def test_acoustic_init_per_mode_oracle(grid64):
    # u0 = (sin(x+y), 0): per-mode formula gives Psi = -cos(x+y)/2
    u0 = vector_field(grid64, np.sin(grid64.x + grid64.y), np.zeros_like(grid64.x))
    data = InitialData(n1_0=ScalarField(grid64, np.zeros_like(grid64.x)), u_0=u0)
    s = acoustic_init(data, PARAMS)

    n = grid64.n_points
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    uxh = np.fft.fft2(u0.x.values)
    uyh = np.fft.fft2(u0.y.values)
    psi_hat = np.zeros_like(uxh)
    for iy in range(n):
        for ix in range(n):
            kx, ky = ks[ix], ks[iy]
            k2 = kx * kx + ky * ky
            if k2 == 0:
                continue
            psi_hat[iy, ix] = -1j * (kx * uxh[iy, ix] + ky * uyh[iy, ix]) / k2
    oracle = np.fft.ifft2(psi_hat).real
    assert np.abs(s.psi.values - oracle).max() < 1e-12
    assert np.abs(oracle + 0.5 * np.cos(grid64.x + grid64.y)).max() < 1e-12


def test_mollify_identity_and_constants(grid64, rng):
    f = random_band_limited(grid64, 10, rng)
    assert np.array_equal(mollify(f, 0.0).values, f.values)
    c = ScalarField(grid64, np.full((64, 64), 2.5))
    assert np.abs(mollify(c, 0.8).values - 2.5).max() < 1e-13


def test_mollify_multiplier_value(grid64):
    f = ScalarField(grid64, np.cos(4 * grid64.x))
    out = mollify(f, 0.5)
    expected = np.exp(-0.5 ** 2 * 16 / 2)
    assert expected == pytest.approx(np.exp(-2.0))
    assert np.abs(out.values - expected * f.values).max() < 1e-13


def test_mollify_preserves_mean(grid64, rng):
    f = ScalarField(grid64, random_band_limited(grid64, 9, rng).values + 1.3)
    assert mollify(f, 0.7).mean() == pytest.approx(f.mean(), abs=1e-14)


def test_evolve_zero_state(grid64):
    s = _state(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x))
    st = acoustic_evolve(s, 0.5)
    assert np.abs(st.sigma.values).max() == 0.0
    assert np.abs(st.psi.values).max() == 0.0


def test_evolve_single_mode_closed_form(grid64):
    s = _state(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    t = 0.3
    st = acoustic_evolve(s, t)
    omega = np.sqrt(2.0) / 0.1  # sqrt(p'(1)) |k| / eps
    assert np.abs(st.sigma.values - np.cos(omega * t) * np.cos(grid64.x)).max() < 1e-10


def test_evolve_against_ode_oracle(grid64):
    s = _state(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    t = 0.53
    st = acoustic_evolve(s, t)

    def rhs(_, z):
        sr, si, pr, pi_ = z
        return [pr / 0.1, pi_ / 0.1, -2.0 * sr / 0.1, -2.0 * si / 0.1]

    sol = solve_ivp(rhs, (0, t), [0.5, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    sig_mode = complex(sol.y[0, -1], sol.y[1, -1])
    oracle = 2.0 * (sig_mode * np.exp(1j * grid64.x)).real
    assert np.abs(st.sigma.values - oracle).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(t1=st.floats(0.0, 0.4), t2=st.floats(0.0, 0.4), seed=st.integers(0, 999))
def test_evolve_semigroup(t1, t2, seed):
    g = Grid2D(32)
    r = np.random.default_rng(seed)
    s = _state(
        g,
        random_band_limited(g, 5, r, 0.5).values,
        random_band_limited(g, 5, r, 0.5).values,
    )
    once = acoustic_evolve(s, t1 + t2)
    twice = acoustic_evolve(acoustic_evolve(s, t1), t2)
    assert np.abs(once.sigma.values - twice.sigma.values).max() < 1e-12
    assert np.abs(once.psi.values - twice.psi.values).max() < 1e-12


def test_evolve_time_reversible(grid64, rng):
    s = _state(
        grid64,
        random_band_limited(grid64, 6, rng, 0.5).values,
        random_band_limited(grid64, 6, rng, 0.5).values,
    )
    back = acoustic_evolve(acoustic_evolve(s, 0.7), -0.7)
    assert np.abs(back.sigma.values - s.sigma.values).max() < 1e-12
    assert np.abs(back.psi.values - s.psi.values).max() < 1e-12


def test_evolve_preserves_means(grid64, rng):
    sig = random_band_limited(grid64, 6, rng, 0.5).values + 0.25
    s = _state(grid64, sig, random_band_limited(grid64, 6, rng, 0.5).values)
    st = acoustic_evolve(s, 1.3)
    assert st.sigma.mean() == pytest.approx(s.sigma.mean(), abs=1e-13)
    assert abs(st.psi.mean()) < 1e-13


def test_energy_zero_and_single_mode(grid64):
    zero = _state(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x))
    assert acoustic_energy(zero) == 0.0
    s = _state(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    assert acoustic_energy(s) == pytest.approx(2 * np.pi ** 2, rel=1e-13)


def test_energy_conserved_random_data(grid64, rng):
    for eps in (0.1, 0.01):
        params = LimitParams(eps, 2.0)
        s = _state(
            grid64,
            random_band_limited(grid64, 7, rng, 0.5).values,
            random_band_limited(grid64, 7, rng, 0.3).values,
            params,
        )
        e0 = acoustic_energy(s)
        for t in np.linspace(0.0, 10 * eps, 7)[1:]:
            assert abs(acoustic_energy(acoustic_evolve(s, t)) - e0) / e0 < 1e-12


def test_init_then_project_leaves_no_gradient_part(grid64, rng):
    from qnslab import helmholtz_project

    n1 = random_band_limited(grid64, 5, rng, 0.4)
    u0 = vector_field(
        grid64,
        random_band_limited(grid64, 5, rng, 0.8).values,
        random_band_limited(grid64, 5, rng, 0.8).values,
    )
    data = InitialData(n1_0=n1, u_0=u0)
    s = acoustic_init(data, PARAMS)
    gp = gradient(s.psi)
    residual = vector_field(
        grid64, u0.x.values - gp.x.values, u0.y.values - gp.y.values
    )
    _, q_left = helmholtz_project(residual)
    assert norm(q_left, 2) < 1e-10 * max(norm(u0, 2), 1e-30)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_single_mode_oracle_against_dop853_and_closed_form(eps):
    from qnslab.checks import _single_mode_oracle

    gamma, kabs, t = 2.0, 1.0, 0.37
    sig0, psi0 = 0.5 + 0.1j, -0.2 + 0.3j
    sig, psi = _single_mode_oracle(eps, gamma, kabs, sig0, psi0, t)

    omega = np.sqrt(gamma) * kabs / eps
    c, s = np.cos(omega * t), np.sin(omega * t)
    sig_closed = sig0 * c + psi0 * kabs * kabs / (eps * omega) * s
    psi_closed = psi0 * c - sig0 * gamma / (eps * omega) * s
    assert abs(sig - sig_closed) <= 1e-11 and abs(psi - psi_closed) <= 1e-11

    def rhs(_, z):
        sr, si, pr, pi_ = z
        return [kabs * kabs * pr / eps, kabs * kabs * pi_ / eps,
                -gamma * sr / eps, -gamma * si / eps]

    sol = solve_ivp(rhs, (0, t), [sig0.real, sig0.imag, psi0.real, psi0.imag],
                    rtol=1e-12, atol=1e-14, method="DOP853")
    z = sol.y[:, -1]
    assert abs(sig - complex(z[0], z[1])) <= 1e-11
    assert abs(psi - complex(z[2], z[3])) <= 1e-11


def test_evolve_takes_one_call_each_way(grid64, rng, fft_counts):
    s = _state(grid64, random_band_limited(grid64, 6, rng, 0.5).values,
               random_band_limited(grid64, 6, rng, 0.3).values)
    fft_counts.update(fwd=0, inv=0, calls=0)
    acoustic_evolve(s, 0.3)
    assert fft_counts == {"fwd": 2, "inv": 2, "calls": 2}, fft_counts


def test_acoustic_init_mollifies_the_spectra_it_takes(grid64, rng, fft_counts):
    # with a mollifier, Psi comes from the mollified velocity spectra:
    # one forward / inverse pair for sigma and 2 / 1 for Psi, no
    # separate pass per velocity component
    u0 = vector_field(grid64, random_band_limited(grid64, 8, rng, 0.5).values,
                      random_band_limited(grid64, 8, rng, 0.5).values)
    data = InitialData(n1_0=random_band_limited(grid64, 8, rng, 0.5), u_0=u0, eta=0.3)
    fft_counts.update(fwd=0, inv=0, calls=0)
    s = acoustic_init(data, PARAMS)
    assert (fft_counts["fwd"], fft_counts["inv"]) == (3, 2), fft_counts
    smooth = InitialData(n1_0=mollify(data.n1_0, 0.3),
                         u_0=vector_field(grid64, mollify(u0.x, 0.3).values,
                                          mollify(u0.y, 0.3).values))
    want = acoustic_init(smooth, PARAMS)
    assert np.array_equal(s.sigma.values, want.sigma.values)
    assert np.abs(s.psi.values - want.psi.values).max() <= 1e-14 * np.abs(want.psi.values).max()
