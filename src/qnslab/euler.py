"""Incompressible Euler references: the steady Taylor-Green vortex and a
vorticity-streamfunction spectral solver for general solenoidal data.

A solver step is classical RK4 of the dealiased vorticity transport
equation, 8 forward and 9 inverse transforms in 8 calls.  Each stage
takes -(v.grad)w in Basdevant's flux form (J. Atmos. Sci. 38, 1981),
two velocity fields and two products in place of four derivative
fields: one call of the in-place 1-D pair spectral._to_physical_into
inverts vx and vy, and one stacked call of spectral.to_spectral takes
vy^2 - vx^2 and vx vy back; stage 1 adds w itself as a third inverse
plane, whose max|w| feeds the blow-up guard.  Every spectrum the step
holds lives on the dealiased band of Grid2D (22 of 33 columns at
N = 64), as in qns.qns_step, so every fft along y runs on those
columns.  No kept mode of a product aliases, so the flux form equals
the convective one v.grad w up to round-off.  euler_solve allocates the
working arrays once.  README's numerical notes give the step times.
pressure_recover and euler_residual take the velocity equation's
nonlinearity in the same flux form, from one stacked band forward of
(vx^2, vx vy, vy^2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    _to_physical_into,
    curl,
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
def _multipliers(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (2, N, c) band stacks of the vorticity step, built from
    Grid2D.band_d: Biot-Savart (i ky, -i kx) / |k|^2 (0 where kg2 == 0),
    taking w_hat to v_hat, and the flux form kx ky, kx^2 - ky^2, taking
    the spectra of vy^2 - vx^2 and vx vy to that of -(v.grad)w."""
    ddx, ddy = grid.band_d
    biot_savart = np.stack((ddy, -ddx)) * grid.inv_kg2[:, :grid.band_c]
    flux = np.stack((-ddx * ddy, ddy * ddy - ddx * ddx))
    for arr in (biot_savart, flux):
        arr.setflags(write=False)
    return biot_savart, flux


class _Work:
    """Working arrays of one euler_solve call, or of one step taken
    alone, every spectrum on the dealiased band (N, c): the
    stacked stage spectra, whose third plane carries w itself at stage 1
    (for the blow-up guard); the full half-plane scratch of the forward
    transforms; the fields vx, vy, w and the two products; the RK4 sum
    acc, the stage input s, which each stage overwrites with its k, and
    a scratch spectrum t.  They live no longer than that call."""

    def __init__(self, g: Grid2D):
        band = (g.n_points, g.band_c)
        self.spec = np.empty((3,) + band, complex)
        self.half = np.empty((2,) + g.kg2.shape, complex)
        self.phys = np.empty((5, g.n_points, g.n_points))
        self.acc, self.s, self.t = (np.empty(band, complex) for _ in range(3))


def _vorticity_rhs(grid: Grid2D, w_hat: np.ndarray, out: np.ndarray, work: _Work,
                   guard: bool = False) -> np.ndarray:
    """Write the band spectrum of -(v.grad)w, dealiased, into out (which
    may be the band spectrum w_hat), in Basdevant's flux form: for div v = 0,
        (v.grad)w = d_x d_y (vy^2 - vx^2) + (d_x^2 - d_y^2)(vx vy).
    One call for the 2 inverse transforms of v and one for the 2 forward
    transforms of the products.  The physical velocity (vx, vy) it used
    is left in work.phys[:2] and, with guard, w itself in work.phys[2]
    (3 inverse transforms)."""
    bs, flux = _multipliers(grid)
    planes = 3 if guard else 2
    spec, prod = work.spec, work.phys[3:]
    np.multiply(bs, w_hat, out=spec[:2])
    if guard:
        spec[2] = w_hat
    vx, vy = _to_physical_into(spec[:planes], work.phys[:planes])[:2]
    np.square(vy, out=prod[0])
    prod[0] -= np.square(vx, out=prod[1])
    np.multiply(vx, vy, out=prod[1])
    fluxes = to_spectral(prod, out=spec[:2], scratch=work.half)
    fluxes *= flux
    return np.add(fluxes[0], fluxes[1], out=out)


def _flux_hats(v: VectorField) -> np.ndarray:
    """Band spectra of (vx^2, vx vy, vy^2), 3 forward transforms in one
    call; its rows |ky| >= N/3 are left for band_d to zero."""
    g = v.grid
    vx, vy = v.x.values, v.y.values
    return to_spectral(np.stack((vx * vx, vx * vy, vy * vy)),
                       out=np.empty((3, g.n_points, g.band_c), complex),
                       scratch=np.empty((3,) + g.kg2.shape, complex))


def pressure_recover(v: VectorField) -> ScalarField:
    """Mean-free Pi with -lap Pi = d_i d_j (v_i v_j), which is
    div((v.grad)v) for solenoidal v, dealiased: the flux stack and one
    inverse on the band, 3 forward / 1 inverse transforms."""
    g = v.grid
    ddx, ddy = g.band_d
    fxx, fxy, fyy = _flux_hats(v)
    pi_hat = (ddx * ddx * fxx + 2.0 * ddx * ddy * fxy + ddy * ddy * fyy) * g.inv_kg2[:, :g.band_c]
    return ScalarField(g, _to_physical_into(pi_hat))


def _rk4_vorticity_step(grid: Grid2D, w_hat: np.ndarray, dt: float,
                        work: _Work | None = None, out: np.ndarray | None = None):
    """One classical RK4 step of the vorticity transport equation, of
    the band of w_hat (a full half plane or the band itself), written
    into out (a fresh band array by default).

    Returns the advanced band spectrum, max|v| of the velocity at the
    start of the step (the stage-1 velocity), for the CFL check, and
    max|w| at the start of the step, for the blow-up guard: 8 forward and
    9 inverse transforms in 8 calls.
    """
    work = _Work(grid) if work is None else work
    acc, s, t, phys = work.acc, work.s, work.t, work.phys
    w = w_hat[:, :acc.shape[-1]]
    _vorticity_rhs(grid, w, acc, work, guard=True)
    # the stage-1 products in phys[3:5] are spent: take |v| into them
    vmax = np.abs(phys[:2], out=phys[3:5]).max()
    w_inf = np.abs(phys[2], out=phys[2]).max()
    # acc gathers k1 + 2 k2 + 2 k3 + k4 in that order; s = w + c k
    np.multiply(acc, 0.5 * dt, out=s)
    s += w
    for c in (0.5 * dt, dt):
        _vorticity_rhs(grid, s, s, work)
        acc += np.multiply(s, 2.0, out=t)
        s *= c
        s += w
    acc += _vorticity_rhs(grid, s, s, work)
    acc *= dt / 6.0
    return np.add(w, acc, out=out), vmax, w_inf


def euler_solve(
    v0: VectorField, t_end: float, dt: float, record_every: int = 10
) -> list[EulerReference]:
    """Evolve the vorticity transport equation with dealiased RK4.

    Returns the trajectory (initial state, every record_every-th step,
    final step), each entry with the pressure recovered from the
    velocity.  Refuses a record_every that is not an integer >= 1, a dt
    that is not finite and positive, a t_end
    that is not finite and >= 0 or not a whole number of steps (within
    1e-9 relative), and CFL-violating steps; aborts if the vorticity
    sup-norm grows tenfold (blow-up guard).
    """
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise EulerSolverError(f"record_every must be an integer >= 1, got {record_every!r}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise EulerSolverError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise EulerSolverError(f"t_end must be finite and >= 0, got {t_end!r}")
    n_steps = round(t_end / dt)
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise EulerSolverError(f"t_end={t_end!r} is not a whole number of steps dt={dt!r}")
    g = v0.grid
    # the divergence, the cutoff check and w_hat from one pair of spectra
    vx_h, vy_h = to_spectral(v0.x.values), to_spectral(v0.y.values)
    div_norm = norm(ScalarField(g, to_physical(1j * (g.kgx * vx_h + g.kgy * vy_h))), 2)
    v_norm = norm(v0, 2)
    if div_norm > 1e-10 * max(v_norm, 1e-30):
        raise EulerSolverError(f"initial velocity is not solenoidal: ||div v0|| = {div_norm:.3e}")
    outside = np.abs(vx_h[~g.dealias_mask]).max() + np.abs(vy_h[~g.dealias_mask]).max()
    if outside > 1e-12 * max(np.abs(vx_h).max(), 1e-30):
        raise EulerSolverError("initial velocity has content above the dealiasing cutoff")

    (ddx, ddy), c = g.band_d, g.band_c
    w_hat = ddx * vy_h[:, :c] - ddy * vx_h[:, :c]

    def snapshot(w_hat, t):
        vx_h, vy_h = _multipliers(g)[0] * w_hat
        v = vector_field(g, to_physical(vx_h), to_physical(vy_h))
        return EulerReference(v=v, pi=pressure_recover(v), time=t)

    def accept(step, w_hat, w_inf):
        """The blow-up guard, then the snapshot if one is due, of the
        state after step."""
        t = step * dt
        if w_inf > 10.0 * w_inf0:
            raise EulerSolverError(
                f"vorticity blow-up guard tripped at t={t:.6g}: "
                f"max|w| grew from {w_inf0:.3e} to {w_inf:.3e}"
            )
        if step % record_every == 0 or step == n_steps:
            traj.append(snapshot(w_hat, t))

    traj = [snapshot(w_hat, 0.0)]
    # Each step's stage 1 measures max|w| of its input, so the state
    # after step k passes the guard (and is recorded) in step k + 1,
    # before that step's CFL check; the last state after the loop.  The
    # step writes into the spare spectrum, and the two swap roles.
    work, spare = _Work(g), np.empty_like(w_hat)
    for step in range(1, n_steps + 1):
        w_next, vmax, w_inf = _rk4_vorticity_step(g, w_hat, dt, work, out=spare)
        if step == 1:
            w_inf0 = max(w_inf, 1e-30)
        else:
            accept(step - 1, w_hat, w_inf)
        if vmax > 0 and dt > 0.5 * g.spacing / vmax:
            raise EulerSolverError(
                f"CFL violation at t={(step - 1) * dt:.6g}: dt={dt:g} exceeds "
                f"0.5*h/max|v|={0.5*g.spacing/vmax:.6g}"
            )
        w_hat, spare = w_next, w_hat
    if n_steps:
        accept(n_steps, w_hat, np.abs(to_physical(w_hat)).max())
    return traj


def euler_residual(ref: EulerReference, dt_probe: float = 0.0) -> float:
    """L2 norm of d_t v + (v.grad)v + grad Pi, the advection in the
    divergence form d_j(v_i v_j), dealiased, which equals (v.grad)v for
    solenoidal v: the flux stack and one inverse call of 2 transforms.

    dt_probe = 0 treats the reference as steady; dt_probe > 0 estimates
    d_t v by a central difference of two solver micro-steps.
    """
    g = ref.v.grid
    ddx, ddy = g.band_d
    fxx, fxy, fyy = _flux_hats(ref.v)
    res_x, res_y = _to_physical_into(np.stack((ddx * fxx + ddy * fxy, ddx * fxy + ddy * fyy)))
    gp = gradient(ref.pi)
    res_x += gp.x.values
    res_y += gp.y.values
    if dt_probe > 0.0:
        w_hat = to_spectral(curl(ref.v).values)
        w_fwd = _rk4_vorticity_step(g, w_hat, dt_probe)[0]
        w_bwd = _rk4_vorticity_step(g, w_hat, -dt_probe)[0]
        fx_h, fy_h = _multipliers(g)[0] * w_fwd
        bx_h, by_h = _multipliers(g)[0] * w_bwd
        res_x = res_x + (to_physical(fx_h) - to_physical(bx_h)) / (2.0 * dt_probe)
        res_y = res_y + (to_physical(fy_h) - to_physical(by_h)) / (2.0 * dt_probe)
    return norm(vector_field(g, res_x, res_y), 2)
