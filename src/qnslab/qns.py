"""Time integration of the Mach-scaled barotropic quantum Navier-Stokes
system on the torus.

The stiff linearized pressure wave (frequency sqrt(gamma)|k|/eps) is
integrated exactly per Fourier mode; everything else - advection, the
nonlinear pressure remainder, the quantum force, and the O(eps)
viscosity - is stepped with classical RK4 inside a Strang splitting.
The density only changes in the exact stage (the continuity equation is
linear in the momentum), so the explicit stage sees a frozen density.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acoustic import InitialData
from .constitutive import (
    LimitParams,
    N_FLOOR,
    VacuumError,
    _bohm_divergence_hats,
    _free_energy_values,
    p_prime_at_one,
)
from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    dealias_values,
    gradient,
    integrate,
    to_physical,
    to_spectral,
    vector_field,
)

CFL_SAFETY = 0.4

# Energy-inequality verdict: E(t) + dissipation <= E(0)*(1 + REL_SLACK)
# + SCHEME_COEFF * dt^2 * E(0).  The dt^2 term covers the Strang
# splitting's bounded energy wobble; max(E + D - E0) / (dt_max^2 E0)
# measures 0.48-0.54 at gamma = 2 and 0.68-1.13 at gamma = 3 on the
# headline ladder, so 50 is generous.
ENERGY_REL_SLACK = 1e-6
ENERGY_SCHEME_COEFF = 50.0


class NumericalAbort(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, msg, time=None):
        super().__init__(msg)
        self.time = time


class CflViolation(ValueError):
    pass


@dataclass
class QnsState:
    n: ScalarField
    m: VectorField
    time: float
    params: LimitParams

    @property
    def grid(self) -> Grid2D:
        return self.n.grid

    def velocity(self) -> VectorField:
        """u = m/n, dealiased, with the vacuum guard."""
        uxh, uyh = self._velocity_hats()
        return vector_field(self.grid, to_physical(uxh), to_physical(uyh))

    def _velocity_hats(self) -> tuple[np.ndarray, np.ndarray]:
        vals = self.n.values
        if vals.min() < N_FLOOR:
            raise VacuumError(
                f"velocity undefined: min n = {vals.min():.3e} below floor", time=self.time
            )
        mask = self.grid.dealias_mask
        return (
            to_spectral(self.m.x.values / vals) * mask,
            to_spectral(self.m.y.values / vals) * mask,
        )


@dataclass
class TermSwitches:
    """Test switches for the explicit-stage terms; production runs keep
    everything on."""

    advection: bool = True
    pressure_remainder: bool = True
    bohm: bool = True
    viscous: bool = True


ALL_TERMS = TermSwitches()


def qns_init(params: LimitParams, data: InitialData) -> QnsState:
    """State (n, m) = (1 + eps * n1_0, n * u_0), both dealiased."""
    g = data.n1_0.grid
    eps = params.epsilon
    sup = np.abs(data.n1_0.values).max()
    if eps * sup >= 0.5:
        raise VacuumError(
            f"initial density perturbation too large: eps*||n1_0||_inf = {eps * sup:.3f} >= 0.5"
        )
    n_vals = dealias_values(g, 1.0 + eps * data.n1_0.values)
    if n_vals.min() < 0.5:
        raise VacuumError(f"initial vacuum proximity refused: min n = {n_vals.min():.3f} < 0.5")
    mx = dealias_values(g, n_vals * data.u_0.x.values)
    my = dealias_values(g, n_vals * data.u_0.y.values)
    return QnsState(
        n=ScalarField(g, n_vals), m=vector_field(g, mx, my), time=0.0, params=params
    )


def cfl_dt(s: QnsState) -> float:
    """Stable step for the explicit sub-flows.

    safety * min(h/max|u|, h^2/(2 eps^2 pi^2), h^2/(2 eps max n)); the
    acoustic scale never appears because that sub-flow is exact.
    """
    g = s.grid
    eps = s.params.epsilon
    h = g.spacing
    umax = max(
        np.abs(s.m.x.values / s.n.values).max(),
        np.abs(s.m.y.values / s.n.values).max(),
    )
    advective = h / umax if umax > 0 else np.inf
    bohm = h * h / (2.0 * eps * eps * np.pi * np.pi)
    viscous = h * h / (2.0 * eps * s.n.values.max())
    return CFL_SAFETY * min(advective, bohm, viscous)


def _acoustic_half(
    g: Grid2D, n_vals, mx, my, eps: float, gamma: float, t: float
):
    """Exact rotation of the linear pair d_t(n-1) = -div m,
    d_t m = -(p'(1)/eps^2) grad(n-1), per Fourier mode."""
    c = np.sqrt(p_prime_at_one(gamma)) / eps
    a = to_spectral(n_vals)
    a[0, 0] -= 1.0
    mxh = to_spectral(mx)
    myh = to_spectral(my)

    kabs = np.sqrt(g.kg2)
    active = g.kg2 > 0.0
    kabs_safe = np.where(active, kabs, 1.0)
    ex = g.kgx / kabs_safe
    ey = g.kgy / kabs_safe

    b_l = ex * mxh + ey * myh
    btx = mxh - b_l * ex
    bty = myh - b_l * ey

    b = 1j * b_l / c
    omega = c * kabs
    cw = np.cos(omega * t)
    sw = np.sin(omega * t)
    a_new = a * cw - b * sw
    b_new = b * cw + a * sw
    b_l_new = -1j * c * b_new

    a_out = np.where(active, a_new, a)
    mx_out = np.where(active, btx + b_l_new * ex, mxh)
    my_out = np.where(active, bty + b_l_new * ey, myh)
    a_out[0, 0] += 1.0
    return to_physical(a_out), to_physical(mx_out), to_physical(my_out)


def _strain(g: Grid2D, uxh: np.ndarray, uyh: np.ndarray):
    """Components (dxx, dxy, dyy) of D(u) for a velocity given by its
    dealiased spectra."""
    return (
        to_physical(g.ddx * uxh),
        to_physical(0.5 * (g.ddy * uxh + g.ddx * uyh)),
        to_physical(g.ddy * uyh),
    )


def _frozen_force_hats(g, n_vals, params, switches):
    """Dealiased spectra of the momentum forces that depend on the
    density only (constant during the RK4 stage): nonlinear pressure
    remainder and quantum force."""
    eps = params.epsilon
    gamma = params.gamma
    fx = np.zeros(g.k2.shape, dtype=complex)
    fy = np.zeros(g.k2.shape, dtype=complex)
    if switches.pressure_remainder:
        p_rem = to_spectral(n_vals ** gamma - gamma * (n_vals - 1.0) - 1.0) / (eps * eps)
        fx -= g.ddx * p_rem
        fy -= g.ddy * p_rem
    if switches.bohm:
        qx, qy = _bohm_divergence_hats(g, n_vals)
        fx += eps * eps * qx
        fy += eps * eps * qy
    return fx, fy


def _explicit_rhs(g, n_vals, mx, my, frozen_fx, frozen_fy, eps, switches):
    """Momentum forces: the frozen spectra plus the divergence of the
    advective flux -m x u and the viscous stress 2 eps n D(u), each
    flux component transformed once."""
    fx, fy = frozen_fx, frozen_fy
    if switches.advection or switches.viscous:
        mask = g.dealias_mask
        uxh = to_spectral(mx / n_vals) * mask
        uyh = to_spectral(my / n_vals) * mask
        sxx = sxy = syx = syy = 0.0
        if switches.advection:
            ux = to_physical(uxh)
            uy = to_physical(uyh)
            sxx, sxy, syx, syy = -mx * ux, -mx * uy, -my * ux, -my * uy
        if switches.viscous:
            dxx, dxy, dyy = _strain(g, uxh, uyh)
            two_eps_n = 2.0 * eps * n_vals
            sxx = sxx + two_eps_n * dxx
            sxy = sxy + two_eps_n * dxy
            syx = syx + two_eps_n * dxy
            syy = syy + two_eps_n * dyy
        fx = fx + g.ddx * to_spectral(sxx) + g.ddy * to_spectral(sxy)
        fy = fy + g.ddx * to_spectral(syx) + g.ddy * to_spectral(syy)
    return to_physical(fx), to_physical(fy)


def qns_step(s: QnsState, dt: float, switches: TermSwitches = ALL_TERMS) -> QnsState:
    """One Strang step: exact acoustic half, RK4 on the remainder, exact
    acoustic half.  Aborts on vacuum or non-finite values."""
    limit = cfl_dt(s)
    if dt > limit * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:g} exceeds the stability bound {limit:g} at t = {s.time:g}")
    g = s.grid
    eps = s.params.epsilon
    gamma = s.params.gamma

    n_vals, mx, my = _acoustic_half(
        g, s.n.values, s.m.x.values, s.m.y.values, eps, gamma, 0.5 * dt
    )
    _check_state(n_vals, mx, my, s.time + 0.5 * dt)

    frozen_fx, frozen_fy = _frozen_force_hats(g, n_vals, s.params, switches)
    k1x, k1y = _explicit_rhs(g, n_vals, mx, my, frozen_fx, frozen_fy, eps, switches)
    k2x, k2y = _explicit_rhs(g, n_vals, mx + 0.5 * dt * k1x, my + 0.5 * dt * k1y,
                             frozen_fx, frozen_fy, eps, switches)
    k3x, k3y = _explicit_rhs(g, n_vals, mx + 0.5 * dt * k2x, my + 0.5 * dt * k2y,
                             frozen_fx, frozen_fy, eps, switches)
    k4x, k4y = _explicit_rhs(g, n_vals, mx + dt * k3x, my + dt * k3y,
                             frozen_fx, frozen_fy, eps, switches)
    mx = mx + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    my = my + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)

    n_vals, mx, my = _acoustic_half(g, n_vals, mx, my, eps, gamma, 0.5 * dt)
    t_new = s.time + dt
    _check_state(n_vals, mx, my, t_new)
    return QnsState(
        n=ScalarField(g, n_vals),
        m=vector_field(g, mx, my),
        time=t_new,
        params=s.params,
    )


def _check_state(n_vals, mx, my, t):
    if not (np.isfinite(n_vals).all() and np.isfinite(mx).all() and np.isfinite(my).all()):
        raise NumericalAbort(f"non-finite values detected at t = {t:.6g}", time=t)
    if n_vals.min() < N_FLOOR:
        iy, ix = np.unravel_index(int(n_vals.argmin()), n_vals.shape)
        raise VacuumError(
            f"vacuum event at t = {t:.6g}: min n = {n_vals.min():.3e} at (iy={iy}, ix={ix})",
            min_n=float(n_vals.min()),
            location=(int(iy), int(ix)),
            time=t,
        )


@dataclass
class EnergyEntry:
    t: float
    e_total: float
    e_kinetic: float
    e_internal: float
    e_quantum: float
    d_cumulative: float


def dissipation_rate(s: QnsState) -> float:
    """Instantaneous viscous dissipation 2 eps * int n |D(u)|^2."""
    g = s.grid
    dxx, dxy, dyy = _strain(g, *s._velocity_hats())
    dens = s.n.values * (dxx ** 2 + 2.0 * dxy ** 2 + dyy ** 2)
    return 2.0 * s.params.epsilon * integrate(ScalarField(g, dens))


def total_energy(s: QnsState, d_cumulative: float = 0.0) -> EnergyEntry:
    """Kinetic + internal + quantum energy of the state."""
    vals = s.n.values
    if vals.min() < N_FLOOR:
        raise VacuumError(f"total_energy: min n = {vals.min():.3e} below floor", time=s.time)
    g = s.grid
    eps = s.params.epsilon
    kin = 0.5 * integrate(
        ScalarField(g, (s.m.x.values ** 2 + s.m.y.values ** 2) / vals)
    )
    internal = integrate(
        ScalarField(g, _free_energy_values(vals, s.params.gamma, 0))
    ) / (eps * eps)
    gs = gradient(ScalarField(g, np.sqrt(vals)))
    quantum = 2.0 * eps * eps * integrate(
        ScalarField(g, gs.x.values ** 2 + gs.y.values ** 2)
    )
    return EnergyEntry(
        t=s.time,
        e_total=kin + internal + quantum,
        e_kinetic=kin,
        e_internal=internal,
        e_quantum=quantum,
        d_cumulative=d_cumulative,
    )


@dataclass
class EnergyLedger:
    """Time series of the energy budget with trapezoid-accumulated
    viscous dissipation."""

    entries: list[EnergyEntry] = field(default_factory=list)
    _last_rate: float = 0.0

    def record(self, s: QnsState) -> EnergyEntry:
        rate = dissipation_rate(s)
        if self.entries:
            prev = self.entries[-1]
            d_cum = prev.d_cumulative + 0.5 * (rate + self._last_rate) * (s.time - prev.t)
        else:
            d_cum = 0.0
        entry = total_energy(s, d_cumulative=d_cum)
        self.entries.append(entry)
        self._last_rate = rate
        return entry

    def inequality_ok(self, dt: float) -> bool:
        """Discrete energy inequality at every recorded time."""
        if not self.entries:
            return True
        e0 = self.entries[0].e_total
        tol = ENERGY_REL_SLACK * abs(e0) + ENERGY_SCHEME_COEFF * dt * dt * max(abs(e0), 1.0)
        return all(e.e_total + e.d_cumulative <= e0 + tol for e in self.entries)

    def max_violation(self) -> float:
        """Largest E(t) + D(t) - E(0) over the series (negative if the
        inequality holds strictly)."""
        if not self.entries:
            return 0.0
        e0 = self.entries[0].e_total
        return max(e.e_total + e.d_cumulative - e0 for e in self.entries)
