"""Time integration of the Mach-scaled barotropic quantum Navier-Stokes
system on the torus, always with all of its terms: pressure, the Bohm
quantum force, viscosity and advection.

The stiff linear part at (n, m) = (1, 0) - the pressure wave, the
Bogoliubov term eps^2 grad(lap n) of the quantum force and the viscous
eps (lap m + grad div m) - is integrated exactly per Fourier mode as a
damped rotation at the acoustic frequency sqrt(gamma)|k|/eps.  The
nonlinear remainder - advection, the nonlinear pressure remainder, the
quantum force less grad(lap n) and the viscous stress less its n = 1
part - moves the momentum only and is integrated by classical Lawson
(integrating-factor) RK4 over that exact flow.  Its step bounds scale
with the density perturbation max|n - 1| rather than with eps alone,
and its error is fourth order in dt.  The density moves between the
stages, so each stage recomputes every density force; all of them are
the divergence of one stress tensor, transformed once per component.

A step allocates its working arrays once, at its top, and every stage
operation writes into them through out= arguments; the last stage's
physical fields become the new state's arrays, and no array outlives
the step.  Both directions of every transform are the 1-D pairs of
spectral.to_spectral and spectral._to_physical_into, taken on stacks:
each stage makes two forward and two inverse calls, each later stage
one more inverse for its state, so a step takes its 31 / 40 transforms
in 21 calls (71 one transform at a time).  The stacks live in one pool
of spectra whose planes also hold the fields, so the step's traced
peak stays at 24 N x N fields at N = 256.

The energy entry of a state is computed in one place, _StageEnergy, from
the fields of a stage's first transforms (_gradients): grad s, and the
strain for the dissipation rate.  Stage 1 of a step reads it for the
state the step starts from, so a run records its states at no transform
of its own; total_energy, dissipation_rate and EnergyLedger.record take
those transforms for a state by itself, 3 forward / 5 inverse in three
calls.  The quantum energy is 2 eps^2 int |grad s|^2 for that grad s,
the dealiased gradient the Bohm stress uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .acoustic import InitialData
from .constitutive import (
    LimitParams,
    N_FLOOR,
    VacuumError,
    _free_energy_values,
    _stress_of_gradient,
    _require_positive,
    p_prime_at_one,
)
from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    _to_physical_into,
    dealias_values,
    integrate,
    to_spectral,
    vector_field,
)

CFL_SAFETY = 0.4

# Energy-inequality verdict: E(t) + dissipation <= E(0)*(1 + REL_SLACK)
# + SCHEME_COEFF * dt^2 * E(0).  The dt^2 term covers the time scheme's
# bounded energy wobble; with the Lawson RK4 step at the 0.5 eps acoustic
# cap, max(E + D - E0) / (dt_max^2 E0) measures 0.26-0.45 at gamma = 2
# and 0.41-0.56 at gamma = 3 on the headline ladder, so 50 is generous.
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


def cfl_bounds(s: QnsState) -> dict[str, float]:
    """Step bounds of the explicit remainder, before CFL_SAFETY.

    advective h/max|u|, bohm h^2/(2 eps^2 pi^2 delta) and viscous
    h^2/(2 eps delta) with delta = max|n - 1|: the exact linear stage
    carries the n = 1 parts of the quantum and viscous terms, so their
    remainders scale with the density perturbation.  A bound whose
    scale vanishes is infinite.
    """
    g = s.grid
    eps = s.params.epsilon
    h = g.spacing
    umax = max(
        np.abs(s.m.x.values / s.n.values).max(),
        np.abs(s.m.y.values / s.n.values).max(),
    )
    delta = np.abs(s.n.values - 1.0).max()
    return {
        "advective": _bound(h, umax),
        "bohm": _bound(h * h, 2.0 * eps * eps * np.pi * np.pi * delta),
        "viscous": _bound(h * h, 2.0 * eps * delta),
    }


def _bound(num: float, den: float) -> float:
    return float(num / den) if den > 0 else np.inf


def cfl_dt(s: QnsState) -> float:
    """Stable step for the explicit remainder: CFL_SAFETY times the
    smallest of cfl_bounds(s).  Neither the acoustic scale nor the n = 1
    quantum and viscous scales appear, because the linear stage is
    exact; the rest state has no bound at all (inf)."""
    return CFL_SAFETY * min(cfl_bounds(s).values())


@lru_cache(maxsize=1)
def _linear_flow(g: Grid2D, params: LimitParams, t: float):
    """Per-mode coefficients of the exact flow over time t of the
    system linearized at (n, m) = (1, 0).

    With a = n_hat - delta_0 and b = k . m_hat, the pair obeys
    d_t a = -i b and d_t b = -i |k|^2 c_k^2 a - 2 nu b, and the part of
    m_hat normal to k decays like e^{-nu t}; c_k^2 = p'(1)/eps^2 +
    eps^2 |k|^2 carries the Bogoliubov term of grad(lap n) and
    nu = eps |k|^2 the viscous eps (lap m + grad div m), both only inside
    the 2/3 mask.  The 2x2 generator G has trace -2 nu and determinant
    |k|^2 c_k^2, so exp(G t) = e^{-nu t} [cos(w t) I + sin(w t)/w (G + nu I)]
    with w^2 = |k|^2 c_k^2 - nu^2 = p'(1)|k|^2/eps^2 exactly: the damped
    rotation runs at the acoustic frequency, never overdamped.

    Returns the real arrays (decay, p11, sw, c2 sw, r) with exp(G t) =
    [[p11, -i sw], [-i |k|^2 c2 sw, p22]] and r = (p22 - decay)/|k|^2.
    Successive steps mostly share one dt, so the last flow is cached;
    its arrays are read-only.
    """
    eps = params.epsilon
    p1 = p_prime_at_one(params.gamma)
    c2 = p1 / (eps * eps) + eps * eps * g.kg2 * g.dealias_mask
    nu = eps * g.kg2 * g.dealias_mask
    w = np.sqrt(p1 * g.kg2) / eps
    decay = np.exp(-nu * t)
    cw = decay * np.cos(w * t)
    sw = decay * t * np.sinc(w * t / np.pi)  # e^{-nu t} sin(w t)/w
    r = (cw - nu * sw - decay) * g.inv_kg2
    flow = decay, cw + nu * sw, sw, c2 * sw, r
    for a in flow:
        a.setflags(write=False)
    return flow


def _linear_stage(g: Grid2D, flow, nh, mxh: np.ndarray, myh: np.ndarray, out, tmp):
    """Apply a _linear_flow to the spectra of n and m (nh may be the
    scalar 0).  Modes with kg = 0 (the mean included) map to themselves,
    so n_hat stands in for a = n_hat - delta_0.

    Written into out, three spectra that may be the inputs themselves,
    with three scratch spectra tmp."""
    decay, p11, sw, c2sw, r = flow
    on, ox, oy = out
    b, shift, t = tmp
    np.multiply(g.kgx, mxh, out=b)
    b += np.multiply(g.kgy, myh, out=t)
    # (b_new - decay b)/|k|^2: the change of the longitudinal momentum
    np.multiply(c2sw, nh, out=t)
    t *= 1j
    np.multiply(r, b, out=shift)
    shift -= t
    np.multiply(sw, b, out=t)
    t *= 1j
    np.multiply(p11, nh, out=on)
    on -= t
    np.multiply(decay, mxh, out=ox)
    ox += np.multiply(shift, g.kgx, out=t)
    np.multiply(decay, myh, out=oy)
    oy += np.multiply(shift, g.kgy, out=t)
    return on, ox, oy


def _spectra(g: Grid2D, count: int) -> np.ndarray:
    return np.empty((count,) + g.kg2.shape, complex)


def _fields(g: Grid2D, count: int) -> np.ndarray:
    return np.empty((count, g.n_points, g.n_points))


class _Work:
    """The scratch pool of one qns_step, or of one energy entry: ten
    half-plane spectra q.  The first N^2 reals of each plane q[i] also
    hold an N x N field r[i], so the fields a stage transforms reuse the
    planes of spectra it has done with, and a run of planes is a stack in
    either role.  The stage, the linear stage and the RK4 sums write into
    them; they live no longer than their step."""

    def __init__(self, g: Grid2D):
        n = g.n_points
        self.q = _spectra(g, 10)
        self.r = self.q.view(float).reshape(10, -1)[:, : n * n].reshape(10, n, n)


def _viscous_hats(g: Grid2D, eps: float, mxh: np.ndarray, myh: np.ndarray, f, w: _Work):
    """Start a stage's forces: the spectra f = (fx, fy) become
    -eps (lap m + grad div m), per mode eps (|k|^2 m + k (k . m)) inside
    the 2/3 mask.  The linear flow carries this viscous part at n = 1, so
    the stage subtracts it.  Reads mxh and myh, and w.q[3] is its scratch."""
    fx, fy = f
    b = np.multiply(g.kgx, mxh, out=w.q[3])
    b += np.multiply(g.kgy, myh, out=fy)
    np.multiply(g.kg2, mxh, out=fx)
    fx += np.multiply(g.kgx, b, out=fy)
    np.multiply(g.kg2, myh, out=fy)
    b *= g.kgy
    fy += b
    for fi in f:
        fi *= g.dealias_mask
        fi *= eps


def _gradients(g: Grid2D, n, mx, my, w: _Work):
    """The first transforms of a stage, for the physical state (n, mx, my):
    forward r6-8 (mx/n, my/n, sqrt n) -> q0-2 and inverse q2-5 -> r6-9,
    the returned fields (ddx s, ddy s, dxx, dyy).  The dealiased velocity
    spectra stay in q0-1, and the spectrum of the strain's
    dxy = (ddy ux + ddx uy)/2 is left in q2, with q5 as scratch."""
    q, r = w.q, w.r
    np.divide(mx, n, out=r[6])
    np.divide(my, n, out=r[7])
    np.sqrt(n, out=r[8])
    uxh, uyh, sh = to_spectral(r[6:9], out=q[:3])
    uxh *= g.dealias_mask
    uyh *= g.dealias_mask
    np.multiply(g.ddy, sh, out=q[3])
    np.multiply(g.ddx, sh, out=sh)
    np.multiply(g.ddx, uxh, out=q[4])
    np.multiply(g.ddy, uyh, out=q[5])
    fields = _to_physical_into(q[2:6], r[6:10])
    dxy = np.multiply(g.ddy, uxh, out=q[2])
    dxy += np.multiply(g.ddx, uyh, out=q[5])
    dxy *= 0.5
    return fields


def _stress_hats(g: Grid2D, params: LimitParams, n, mx, my, f, w: _Work, energy=None):
    """Finish a stage's forces: add to the spectra f = (fx, fy) the
    divergence of the stress tensor S of the physical state (n, mx, my):
    the advective flux -m x u, the viscous stress 2 eps n D(u), the
    pressure remainder -(n^gamma - gamma (n - 1) - 1)/eps^2 on the
    diagonal and the Bohm stress -4 eps^2 grad s x grad s, each of its
    four components transformed once.  7 forward / 7 inverse transforms in
    four stacked calls: forward (u_x, u_y, s), inverse (grad s, dxx, dyy),
    inverse (u_x, u_y, dxy), forward S.  Planes of w.q / w.r, by index:

        forward  r6-8 (mx/n, my/n, sqrt n)     -> q0-2 (ux, uy, s)
        inverse  q2-5 (ddx s, ddy s, dxx, dyy) -> r6-9, then dxy in q2,
                 S_xx in r8, S_yy in r9 and the Bohm xy term in r3
        inverse  q0-2 (ux, uy, dxy)            -> r5-7, then S_xy in r7
        forward  r6-9 (S_yx, S_xy, S_xx, S_yy) -> q0-3

    and the rest is scratch; the first two calls are _gradients.  energy,
    a _StageEnergy, is handed grad s and the strain before the stress
    scales them."""
    eps, gamma = params.epsilon, params.gamma
    q, r = w.q, w.r
    sx, sy, dxx, dyy = _gradients(g, n, mx, my, w)
    if energy is not None:
        energy.gradients(sx, sy, dxx, dyy)
    sxx, txy, syy = _stress_of_gradient(sx, sy, -4.0 * eps * eps, r[3])
    p = np.power(n, gamma, out=r[5])
    p -= np.multiply(n, gamma, out=r[4])
    p += gamma - 1.0
    p /= eps * eps
    sxx -= p
    syy -= p
    # the viscous stress 2 eps n D(u), summed into the strain's own plane
    for s, d in ((sxx, dxx), (syy, dyy)):
        d *= n
        d *= 2.0 * eps
        d += s
    sxx, syy = dxx, dyy
    ux, uy, dxy = _to_physical_into(q[:3], r[5:8])
    if energy is not None:
        energy.shear(dxy)
    dxy *= n
    dxy *= 2.0 * eps
    dxy += txy
    sxy = dxy
    # S is symmetric but for the advective flux -m x u
    my_ux = np.multiply(my, ux, out=r[0])
    syy -= np.multiply(my, uy, out=r[1])
    mx_uy = np.multiply(mx, uy, out=r[2])
    np.subtract(sxy, my_ux, out=r[6])  # S_yx, where uy was
    sxy -= mx_uy
    sxx -= np.multiply(mx, ux, out=r[1])
    syxh, sxyh, sxxh, syyh = to_spectral(r[6:10], out=q[:4])
    for fi, a, b in zip(f, (sxxh, syxh), (sxyh, syyh)):
        a *= g.ddx
        b *= g.ddy
        a += b
        fi += a
    return f


def _axpy(out: np.ndarray, a: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    """out = a + c x, for out distinct from a."""
    np.multiply(x, c, out=out)
    out += a
    return out


def qns_step(s: QnsState, dt: float, ledger: EnergyLedger | None = None) -> QnsState:
    """One classical Lawson RK4 step: RK4 on E(-t) u, with E the exact
    linear flow.  With h = dt and E = E(h/2),

        k1 = N(u),  k2 = N(E (u + h/2 k1)),  k3 = N(E u + h/2 k2),
        k4 = N(E (E u + h k3)),
        u' = E (E (u + h/6 k1) + h/3 (k2 + k3)) + h/6 k4,

    where N, the nonlinear remainder, moves the momentum only.  The state
    stays a spectrum between the stages, and every stage density - the
    input state's included - is checked.  Aborts on vacuum or
    non-finite values.

    With a ledger, the entry of s is read from the fields stage 1 forms
    for s anyway, and appended before a later stage can abort.

    The working arrays are allocated once, here, and every operation
    writes into them: the spectra of u (then E u), of the RK4 sum and of
    a stage's forces, a _Work for the stages and the linear stage, and
    three fields for each stage's physical state, which the last stage
    hands on as the new state's arrays.  s is not modified.  A dt that
    is not finite and positive is refused before any transform."""
    if not 0.0 < dt < np.inf:
        raise CflViolation(f"dt must be finite and > 0, got {dt!r}")
    limit = cfl_dt(s)
    if dt > limit * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:g} exceeds the stability bound {limit:g} at t = {s.time:g}")
    g, params = s.grid, s.params
    half = _linear_flow(g, params, 0.5 * dt)
    w = _Work(g)
    tmp = w.q[0]
    lin = v = w.q[:3]  # scratch of the linear stage; the spectra of a stage's state
    u = _spectra(g, 3)  # u, then E u
    acc = _spectra(g, 3)  # E k1, then the RK4 sum
    f = kx, ky = _spectra(g, 2)  # a stage's forces
    phys = _fields(g, 3)

    def forces_at(t, spectra):
        # (kx, ky) = N at the state of these spectra, which are destroyed
        _viscous_hats(g, params.epsilon, spectra[1], spectra[2], f, w)
        _check_state(*_to_physical_into(spectra, phys), t)
        _stress_hats(g, params, *phys, f, w)

    n, mx, my = s.n.values, s.m.x.values, s.m.y.values
    _check_state(n, mx, my, s.time)
    to_spectral(np.stack((n, mx, my), out=w.r[:3]), out=u)
    energy = None if ledger is None else _StageEnergy(s, phys)
    _viscous_hats(g, params.epsilon, u[1], u[2], f, w)  # k1
    _stress_hats(g, params, n, mx, my, f, w, energy)
    if energy is not None:
        ledger._append(energy)
    _linear_stage(g, half, *u, out=u, tmp=lin)  # E u
    _linear_stage(g, half, 0.0, kx, ky, out=acc, tmp=lin)  # E k1
    t = s.time + 0.5 * dt
    for vi, ui, ai in zip(v, u, acc):
        _axpy(vi, ui, 0.5 * dt, ai)  # E (u + h/2 k1)
        ai *= dt / 6.0
        ai += ui  # E (u + h/6 k1)
    forces_at(t, v)  # k2
    for ai, k in ((acc[1], kx), (acc[2], ky)):
        ai += np.multiply(k, dt / 3.0, out=tmp)
    np.copyto(v[0], u[0])
    _axpy(v[1], u[1], 0.5 * dt, kx)
    _axpy(v[2], u[2], 0.5 * dt, ky)
    forces_at(t, v)  # k3
    for ai, ui, k in ((acc[1], u[1], kx), (acc[2], u[2], ky)):
        ai += np.multiply(k, dt / 3.0, out=tmp)
        ui += np.multiply(k, dt, out=tmp)  # E u + h k3
    t = s.time + dt
    _linear_stage(g, half, *u, out=u, tmp=lin)
    forces_at(t, u)  # k4
    _linear_stage(g, half, *acc, out=acc, tmp=lin)
    for ai, k in ((acc[1], kx), (acc[2], ky)):
        ai += np.multiply(k, dt / 6.0, out=tmp)
    n, mx, my = _to_physical_into(acc, phys)
    _check_state(n, mx, my, t)
    return QnsState(n=ScalarField(g, n), m=vector_field(g, mx, my), time=t, params=params)


def _check_state(n_vals, mx, my, t):
    if not (np.isfinite(n_vals).all() and np.isfinite(mx).all() and np.isfinite(my).all()):
        raise NumericalAbort(f"non-finite values detected at t = {t:.6g}", time=t)
    _require_positive(n_vals, "qns_step", N_FLOOR, t)


@dataclass
class EnergyEntry:
    t: float
    e_total: float
    e_kinetic: float
    e_internal: float
    e_quantum: float
    d_cumulative: float = 0.0


class _StageEnergy:
    """The ledger entry of a state s and its dissipation rate, read from
    the fields _gradients forms for s: grad s for the quantum energy and
    the strain for the rate, with three N x N scratch fields."""

    def __init__(self, s: QnsState, fields):
        self.s, self.fields = s, fields

    def gradients(self, sx, sy, dxx, dyy):
        s, (a, b, _) = self.s, self.fields
        g, eps = s.grid, s.params.epsilon
        n, mx, my = s.n.values, s.m.x.values, s.m.y.values
        np.multiply(mx, mx, out=a)
        a += np.multiply(my, my, out=b)
        a /= n
        kin = 0.5 * integrate(ScalarField(g, a))
        h = _free_energy_values(n, s.params.gamma, 0, out=a, tmp=b)
        internal = integrate(ScalarField(g, h)) / (eps * eps)
        np.multiply(sx, sx, out=a)
        a += np.multiply(sy, sy, out=b)
        quantum = 2.0 * eps * eps * integrate(ScalarField(g, a))
        self.entry = EnergyEntry(t=s.time, e_total=kin + internal + quantum, e_kinetic=kin,
                                 e_internal=internal, e_quantum=quantum)
        np.multiply(dxx, dxx, out=a)
        np.multiply(dyy, dyy, out=b)

    def shear(self, dxy):
        # 2 eps int n (dxx^2 + 2 dxy^2 + dyy^2)
        dens, dyy2, dxy2 = self.fields
        np.multiply(dxy, dxy, out=dxy2)
        dxy2 *= 2.0
        dens += dxy2
        dens += dyy2
        dens *= self.s.n.values
        self.rate = 2.0 * self.s.params.epsilon * integrate(ScalarField(self.s.grid, dens))


def _state_energy(s: QnsState) -> _StageEnergy:
    """The _StageEnergy of s on its own: 3 forward / 5 inverse transforms
    in three calls, _gradients and the inverse of its dxy, with planes
    that _gradients leaves free as the scratch fields."""
    n = s.n.values
    _require_positive(n, "energy entry", N_FLOOR, s.time)
    w = _Work(s.grid)
    energy = _StageEnergy(s, (w.r[3], w.r[4], w.r[6]))
    energy.gradients(*_gradients(s.grid, n, s.m.x.values, s.m.y.values, w))
    energy.shear(_to_physical_into(w.q[2], w.r[7]))
    return energy


def dissipation_rate(s: QnsState) -> float:
    """Instantaneous viscous dissipation 2 eps * int n |D(u)|^2."""
    return _state_energy(s).rate


def total_energy(s: QnsState) -> EnergyEntry:
    """Kinetic + internal + quantum energy of the state.  The quantum
    energy is 2 eps^2 int |grad s|^2, with grad s = (ddx s, ddy s) of the
    dealiased s = sqrt(n) that the Bohm stress uses."""
    return _state_energy(s).entry


@dataclass
class EnergyLedger:
    """Time series of the energy budget with trapezoid-accumulated
    viscous dissipation.  In a run, qns_step(s, dt, ledger) appends the
    entry of each state s it starts from; record takes one on its own."""

    entries: list[EnergyEntry] = field(default_factory=list)
    _last_rate: float = 0.0

    def record(self, s: QnsState) -> EnergyEntry:
        """Append the entry of s: 3 forward / 5 inverse transforms."""
        return self._append(_state_energy(s))

    def _append(self, energy: _StageEnergy) -> EnergyEntry:
        entry, rate = energy.entry, energy.rate
        if self.entries:
            prev = self.entries[-1]
            entry.d_cumulative = (
                prev.d_cumulative + 0.5 * (rate + self._last_rate) * (entry.t - prev.t)
            )
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
