"""Incompressible Euler references: the steady Taylor-Green vortex and a
vorticity-streamfunction spectral solver for general solenoidal data."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    norm,
    to_physical,
    to_spectral,
    vector_field,
)


class EulerSolverError(RuntimeError):
    pass


@dataclass
class EulerReference:
    """Divergence-free velocity and mean-free pressure at one instant."""

    v: VectorField
    pi: ScalarField
    time: float = 0.0
    steady: bool = False

    def __post_init__(self):
        m = self.pi.mean()
        if m != 0.0:
            self.pi = ScalarField(self.pi.grid, self.pi.values - m)


def taylor_green(grid: Grid2D) -> EulerReference:
    """Steady vortex v = (sin x cos y, -cos x sin y), Pi = (cos 2x + cos 2y)/4.

    Substituting into (v.grad)v = -grad Pi gives (sin 2x, sin 2y)/2 on
    the left, fixing the pressure sign.
    """
    c = grid.coords
    sin_c, cos_c, cos_2c = np.sin(c), np.cos(c), np.cos(2 * c)
    # outer products of 1-D trig tables: [iy, ix] entries equal the
    # meshgrid expressions bit for bit
    v = vector_field(grid, np.outer(cos_c, sin_c), np.outer(sin_c, -cos_c))
    pi = ScalarField(grid, 0.25 * (cos_2c[None, :] + cos_2c[:, None]))
    return EulerReference(v=v, pi=pi, time=0.0, steady=True)


# Cached per grid size rather than stored on Grid2D, so grids that never
# step Euler (every QNS run) do not build them.
@lru_cache(maxsize=8)
def _multipliers(grid: Grid2D) -> tuple[np.ndarray, ...]:
    """Wavenumber-only arrays of the vorticity step, read-only: the
    Biot-Savart multipliers (i kgy, -i kgx) / |k|^2 (0 where kg2 == 0)
    taking w_hat to v_hat, the gradient multipliers i kgx, i kgy, and
    the negated 2/3-rule mask."""
    arrays = (1j * grid.kgy * grid.inv_kg2, -1j * grid.kgx * grid.inv_kg2,
              1j * grid.kgx, 1j * grid.kgy, -grid.dealias_mask.astype(float))
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _velocity_hats_from_vorticity(grid: Grid2D, w_hat: np.ndarray):
    bs_x, bs_y = _multipliers(grid)[:2]
    return bs_x * w_hat, bs_y * w_hat


def _vorticity_rhs(grid: Grid2D, w_hat: np.ndarray):
    """Spectrum of -(v.grad)w, dealiased, and the physical velocity
    (vx, vy) it was computed from: 1 forward and 4 inverse transforms."""
    bs_x, bs_y, d_x, d_y, neg_mask = _multipliers(grid)
    vx = to_physical(bs_x * w_hat)
    vy = to_physical(bs_y * w_hat)
    adv = vx * to_physical(d_x * w_hat)
    adv += vy * to_physical(d_y * w_hat)
    return to_spectral(adv) * neg_mask, vx, vy


def _advection_hats(v: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Dealiased spectra of the components of (v.grad)v, each velocity
    component transformed once: 4 forward / 4 inverse transforms."""
    g = v.grid
    vx, vy = v.x.values, v.y.values
    gx, gy = gradient(v.x), gradient(v.y)
    return (to_spectral(vx * gx.x.values + vy * gx.y.values) * g.dealias_mask,
            to_spectral(vx * gy.x.values + vy * gy.y.values) * g.dealias_mask)


def pressure_recover(v: VectorField) -> ScalarField:
    """Mean-free Pi with -lap Pi = div((v.grad)v), for solenoidal v."""
    g = v.grid
    adv_xh, adv_yh = _advection_hats(v)
    div_hat = adv_xh * (1j * g.kgx) + adv_yh * (1j * g.kgy)
    return ScalarField(g, to_physical(div_hat * g.inv_kg2))


def _rk4_vorticity_step(grid: Grid2D, w_hat: np.ndarray, dt: float):
    """One classical RK4 step of the vorticity transport equation.

    Returns the advanced spectrum and max|v| of the velocity at the
    start of the step (the stage-1 velocity), for the CFL check.
    """
    k1, vx, vy = _vorticity_rhs(grid, w_hat)
    k2 = _vorticity_rhs(grid, w_hat + 0.5 * dt * k1)[0]
    k3 = _vorticity_rhs(grid, w_hat + 0.5 * dt * k2)[0]
    k4 = _vorticity_rhs(grid, w_hat + dt * k3)[0]
    vmax = max(np.abs(vx).max(), np.abs(vy).max())
    return w_hat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), vmax


def euler_solve(
    v0: VectorField, t_end: float, dt: float, record_every: int = 10
) -> list[EulerReference]:
    """Evolve the vorticity transport equation with dealiased RK4.

    Returns the trajectory (initial state, every record_every-th step,
    final step), each entry with the pressure recovered from the
    velocity.  Refuses CFL-violating steps; aborts if the vorticity
    sup-norm grows tenfold (blow-up guard).
    """
    g = v0.grid
    div_norm = norm(divergence(v0), 2, 0)
    v_norm = norm(v0, 2, 0)
    if div_norm > 1e-10 * max(v_norm, 1e-30):
        raise EulerSolverError(f"initial velocity is not solenoidal: ||div v0|| = {div_norm:.3e}")
    v0x_h = to_spectral(v0.x.values)
    outside = np.abs(v0x_h[~g.dealias_mask]).max() + np.abs(to_spectral(v0.y.values)[~g.dealias_mask]).max()
    if outside > 1e-12 * max(np.abs(v0x_h).max(), 1e-30):
        raise EulerSolverError("initial velocity has content above the dealiasing cutoff")

    w_hat = to_spectral(curl(v0).values)
    w_inf0 = max(np.abs(to_physical(w_hat)).max(), 1e-30)

    def snapshot(t):
        vx_h, vy_h = _velocity_hats_from_vorticity(g, w_hat)
        v = vector_field(g, to_physical(vx_h), to_physical(vy_h))
        return EulerReference(v=v, pi=pressure_recover(v), time=t)

    traj = [snapshot(0.0)]
    n_steps = int(round(t_end / dt))
    t = 0.0
    for step in range(1, n_steps + 1):
        w_next, vmax = _rk4_vorticity_step(g, w_hat, dt)
        if vmax > 0 and dt > 0.5 * g.spacing / vmax:
            raise EulerSolverError(
                f"CFL violation at t={t:.6g}: dt={dt:g} exceeds 0.5*h/max|v|={0.5*g.spacing/vmax:.6g}"
            )
        w_hat = w_next
        t = step * dt
        w_inf = np.abs(to_physical(w_hat)).max()
        if w_inf > 10.0 * w_inf0:
            raise EulerSolverError(
                f"vorticity blow-up guard tripped at t={t:.6g}: "
                f"max|w| grew from {w_inf0:.3e} to {w_inf:.3e}"
            )
        if step % record_every == 0 or step == n_steps:
            traj.append(snapshot(t))
    return traj


def euler_residual(ref: EulerReference, dt_probe: float = 0.0) -> float:
    """L2 norm of d_t v + (v.grad)v + grad Pi.

    dt_probe = 0 treats the reference as steady; dt_probe > 0 estimates
    d_t v by a central difference of two solver micro-steps.
    """
    g = ref.v.grid
    adv_xh, adv_yh = _advection_hats(ref.v)
    gp = gradient(ref.pi)
    res_x = to_physical(adv_xh) + gp.x.values
    res_y = to_physical(adv_yh) + gp.y.values
    if dt_probe > 0.0:
        w_hat = to_spectral(curl(ref.v).values)
        w_fwd = _rk4_vorticity_step(g, w_hat, dt_probe)[0]
        w_bwd = _rk4_vorticity_step(g, w_hat, -dt_probe)[0]
        fx_h, fy_h = _velocity_hats_from_vorticity(g, w_fwd)
        bx_h, by_h = _velocity_hats_from_vorticity(g, w_bwd)
        res_x = res_x + (to_physical(fx_h) - to_physical(bx_h)) / (2.0 * dt_probe)
        res_y = res_y + (to_physical(fy_h) - to_physical(by_h)) / (2.0 * dt_probe)
    return norm(vector_field(g, res_x, res_y), 2, 0)
