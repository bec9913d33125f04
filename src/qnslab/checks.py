"""Self-contained verification batteries behind the CLI subcommands.

Each check returns (passed, lines) so the CLI and the test suite share
one implementation.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from .acoustic import AcousticState, acoustic_energy, acoustic_evolve
from .constitutive import DIVERGENCE, POTENTIAL, LimitParams, bohm_force, p_prime_at_one
from .euler import euler_residual, euler_solve, taylor_green
from .spectral import Grid2D, ScalarField, norm, random_band_limited, vector_field


class SeededNormal:
    """Seeded standard-normal draws for the batteries' random fields, on
    the standard library's Mersenne Twister, random.Random(seed), which
    the interpreter has loaded already: importing numpy.random for them
    would cost a battery process about 5 MB resident and 9 ms."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        # random.Random seeds from |seed|, so -s would draw what s draws
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._random = random.Random(seed)

    def standard_normal(self, shape) -> np.ndarray:
        """Box-Muller on 53-bit uniforms from getrandbits: the first
        half of the uniforms gives the radii, the second the angles, and
        both outputs of each pair are used."""
        count = int(np.prod(shape))
        pairs = (count + 1) // 2
        bits = self._random.getrandbits(128 * pairs).to_bytes(16 * pairs, "little")
        u = (np.frombuffer(bits, dtype="<u8") >> np.uint64(11)) * 2.0 ** -53  # [0, 1)
        radius = np.sqrt(-2.0 * np.log1p(-u[:pairs]))  # 1 - u > 0: a finite log
        angle = 2.0 * np.pi * u[pairs:]
        draws = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))
        return draws[:count].reshape(shape)


def bohm_form_check(n_fields: int = 20, grid_n: int = 128, seed: int = 0):
    """Cross-validate the two algebraically equivalent quantum-force
    forms on n_fields random band-limited densities bounded away from
    vacuum, on an N = grid_n grid, to a relative sup error of 1e-8."""
    if n_fields < 1:
        raise ValueError(f"bohm_form_check needs n_fields >= 1, got {n_fields}")
    grid = Grid2D(grid_n)
    rng = SeededNormal(seed)
    worst = 0.0
    lines = []
    # Band limit 4: the forms differ by the sqrt's spectral tail beyond
    # the 2/3 cutoff, amplified by third derivatives; rougher densities
    # push the agreement floor above the tolerance.
    for i in range(n_fields):
        bump = random_band_limited(grid, kmax=4, rng=rng, amplitude=0.3)
        n = ScalarField(grid, 1.0 + bump.values)  # min n >= 0.7 > 0.5
        f_pot = bohm_force(n, POTENTIAL)
        f_div = bohm_force(n, DIVERGENCE)
        scale = max(norm(f_pot, np.inf), 1e-30)
        err = norm(vector_field(grid, f_pot.x.values - f_div.x.values,
                                f_pot.y.values - f_div.y.values), np.inf) / scale
        worst = max(worst, err)
        lines.append(f"  field {i:2d}: min n = {n.values.min():.3f}, rel sup error = {err:.3e}")
    passed = worst < 1e-8
    lines.append(f"worst relative sup error over {n_fields} fields: {worst:.3e} (tol 1e-08)")
    return passed, lines


def _single_mode_oracle(eps: float, gamma: float, kabs: float, sig0: complex,
                        psi0: complex, t: float):
    """Independent integration of the per-mode pair
    sigma' = |k|^2 psi / eps, psi' = -gamma sigma / eps by 2^16 steps of
    classical RK4.  The system is linear, z' = A z, so one step is the
    matrix P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and the whole
    integration is P^steps, formed by repeated squaring."""
    steps = 2 ** 16
    h = t / steps
    ha = h * np.array([[0.0, kabs * kabs / eps], [-gamma / eps, 0.0]])
    p = np.eye(2)
    term = np.eye(2)
    for order in range(1, 5):
        term = term @ ha / order
        p = p + term
    sig, psi = np.linalg.matrix_power(p, steps) @ np.array([sig0, psi0], dtype=complex)
    return complex(sig), complex(psi)


def acoustic_check(seed: int = 0):
    """Energy conservation of the exact flow on random data drawn from
    seed, plus a single-mode comparison against an independent ODE
    oracle, at N = 64."""
    lines = []
    passed = True
    grid = Grid2D(64)
    rng = SeededNormal(seed)

    for eps in (0.1, 0.01):
        params = LimitParams(epsilon=eps, gamma=2.0)
        sigma = random_band_limited(grid, kmax=6, rng=rng, amplitude=0.5)
        psi = random_band_limited(grid, kmax=6, rng=rng, amplitude=0.3)
        s0 = AcousticState(sigma=sigma, psi=psi, time=0.0, params=params)
        e0 = acoustic_energy(s0)
        drift = 0.0
        for frac in np.linspace(0.1, 1.0, 10):
            st = acoustic_evolve(s0, frac * 10.0 * eps)
            drift = max(drift, abs(acoustic_energy(st) - e0) / e0)
        ok = drift < 1e-12
        passed &= ok
        lines.append(
            f"  eps = {eps}: max |E(t)-E(0)|/E(0) over [0, 10 eps] = {drift:.3e} "
            f"({'ok' if ok else 'FAIL'})"
        )

    # single mode cos(x): sigma(t, x) = cos(omega t) cos(x) for gamma=2, eps=0.1
    eps, gamma = 0.1, 2.0
    params = LimitParams(epsilon=eps, gamma=gamma)
    s0 = AcousticState(
        sigma=ScalarField(grid, np.cos(grid.x)),
        psi=ScalarField(grid, np.zeros_like(grid.x)),
        time=0.0,
        params=params,
    )
    t = 0.37
    st = acoustic_evolve(s0, t)
    omega = np.sqrt(p_prime_at_one(gamma)) * 1.0 / eps
    closed = np.cos(omega * t) * np.cos(grid.x)
    err_closed = np.abs(st.sigma.values - closed).max()

    sig_r, psi_r = _single_mode_oracle(eps, gamma, 1.0, 0.5 + 0.0j, 0.0j, t)
    # mode +1 of cos(x) has coefficient 1/2; compare field value rebuilt from it
    oracle_field = 2.0 * (sig_r * np.exp(1j * grid.x)).real
    err_oracle = np.abs(st.sigma.values - oracle_field).max()
    ok = err_closed < 1e-10 and err_oracle < 1e-10
    passed &= ok
    lines.append(
        f"  single mode: closed-form error {err_closed:.3e}, ODE-oracle error "
        f"{err_oracle:.3e} ({'ok' if ok else 'FAIL'})"
    )
    return passed, lines


def euler_check():
    """Residual of the analytic vortex and its stationarity under the
    spectral solver, at N = 64 over t = 1.0 with dt = 1e-3."""
    lines = []
    grid = Grid2D(64)
    tg = taylor_green(grid)
    resid = euler_residual(tg)
    ok_resid = resid < 1e-10
    lines.append(f"  steady-vortex residual: {resid:.3e} (tol 1e-10)")

    vT = euler_solve(tg.v, t_end=1.0, dt=1e-3).v
    drift = norm(
        vector_field(grid, vT.x.values - tg.v.x.values, vT.y.values - tg.v.y.values), 2
    )
    ok_drift = drift < 1e-8
    lines.append(
        f"  stationarity over t = 1.0: ||v(t)-v(0)||_L2 = {drift:.3e} (tol 1e-8)"
    )
    return ok_resid and ok_drift, lines
