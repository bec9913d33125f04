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
physical fields become the new state's arrays.  Every spectrum it holds
lives on the dealiased band of Grid2D (22 of 33 columns at N = 64), so
every fft along y runs on those columns, every pass along x is a table
product for N <= 96 (spectral.TABLE_MAX_N), and every table it multiplies
by is complex with the mask folded in.  Each stage makes two forward and
two inverse stacked transform calls, each later stage one more inverse
for its state: a step takes its 31 / 40 transforms in 21 calls.

The energy entry of a state is computed in one place, _StageEnergy, from
the fields of a stage's first transforms (_gradients); stage 1 of a step
reads it for the state the step starts from, so a run records its
states at no transform of its own.
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
    TABLE_MAX_N,
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

    Returns the band arrays (decay, p11, -sw, -c2 sw, -r, nu), complex
    and zero outside the mask, with exp(G t) = [[p11, -i sw],
    [-i |k|^2 c2 sw, p22]] and r = (p22 - decay)/|k|^2: the signs fold in
    the i of the ddx, ddy _linear_stage takes for kx, ky.  The last flow
    is cached, as steps mostly share one dt; its arrays are read-only.
    """
    eps = params.epsilon
    p1 = p_prime_at_one(params.gamma)
    k2, inv_k2 = g.kg2[:, :g.band_c], g.inv_kg2[:, :g.band_c]
    c2 = p1 / (eps * eps) + eps * eps * k2
    nu = eps * k2
    w = np.sqrt(p1 * k2) / eps
    decay = np.exp(-nu * t)
    cw = decay * np.cos(w * t)
    sw = decay * t * np.sinc(w * t / np.pi)  # e^{-nu t} sin(w t)/w
    r = (cw - nu * sw - decay) * inv_k2
    flow = tuple(a.astype(complex) for a in (decay, cw + nu * sw, -sw, -(c2 * sw), -r, nu))
    for a in flow:
        a[g.band_cut] = 0.0
        a.setflags(write=False)
    return flow


def _linear_stage(g: Grid2D, flow, nh, mxh: np.ndarray, myh: np.ndarray, out, tmp):
    """Apply a _linear_flow to the band spectra of n and m (nh may be the
    scalar 0), into out, three spectra that may be the inputs, with three
    scratch spectra tmp.  Kept modes with kg = 0 (the mean included) map
    to themselves, so n_hat stands in for n_hat - delta_0."""
    decay, p11, m_sw, m_c2sw, m_r = flow[:5]
    ddx, ddy = g.band_d
    on, ox, oy = out
    d, shift, t = tmp
    np.multiply(ddx, mxh, out=d)  # i b, b = k . m_hat
    d += np.multiply(ddy, myh, out=t)
    # -i (b_new - decay b)/|k|^2: the change of the longitudinal momentum
    np.multiply(m_r, d, out=shift)
    shift += np.multiply(m_c2sw, nh, out=t)
    np.multiply(p11, nh, out=on)
    on += np.multiply(m_sw, d, out=t)
    np.multiply(decay, mxh, out=ox)
    ox += np.multiply(shift, ddx, out=t)
    np.multiply(decay, myh, out=oy)
    oy += np.multiply(shift, ddy, out=t)
    return on, ox, oy


def _spectra(g: Grid2D, count: int) -> np.ndarray:
    return np.empty((count, g.n_points, g.band_c), complex)


class _Work:
    """The scratch pool of one qns_step or energy entry: max(4 F + 4 H,
    3 B + 3 H + 3 F) reals (F, B, H: a field, band spectrum, half plane;
    B < F < H, 6 B <= 4 H).  These runs of planes lie in it, over each
    other only where they are never live at once; the half planes are
    the rfft's scratch of a band forward, so only a grid above
    TABLE_MAX_N writes them:

        q      6 band spectra  at 0: a stage's state, then its gradients
        half3  3 half planes   after q0-2: the forward scratch of x
        x      3 fields        after half3: mx/n, my/n, sqrt n - 1, or a state
        half4  4 half planes   at 0: the forward scratch of a1-4
        t      1 field         before a: a stage's scratch field
        a      5 fields        at the end: pressure, gradients, stress
        s      4 band spectra  the stress's spectra: over a1-4 above
                               TABLE_MAX_N, where the rfft has read a1-4
                               into half4, and at 0 at or below it, where
                               the table product reads a1-4 as it writes s
    """

    def __init__(self, g: Grid2D):
        n, c = g.n_points, g.band_c
        f, b, h = n * n, 2 * n * c, n * (n + 2)
        size = max(4 * f + 4 * h, 3 * b + 3 * h + 3 * f)
        pool = np.empty(size)

        def planes(at, count, reals, dtype=complex):  # reals per row
            return pool[at:at + count * n * reals].view(dtype).reshape(count, n, -1)

        self.q, self.half3 = planes(0, 6, 2 * c), planes(3 * b, 3, n + 2)
        self.x, self.half4 = planes(3 * b + 3 * h, 3, n, float), planes(0, 4, n + 2)
        self.t, self.a = planes(size - 6 * f, 1, n, float)[0], planes(size - 5 * f, 5, n, float)
        self.s = planes(0 if n <= TABLE_MAX_N else size - 4 * f, 4, 2 * c)


def _viscous_hats(g: Grid2D, eps: float, flow, mxh, myh, f, w: _Work):
    """Start a stage's forces: the band spectra f = (fx, fy) become
    -eps (lap m + grad div m), per mode eps (|k|^2 m + k (k . m)) inside
    the mask, eps |k|^2 the nu of the _linear_flow, which carries this
    part at n = 1.  Reads mxh and myh, and w.q[3] is its scratch."""
    (ddx, ddy), nu = g.band_d, flow[5]
    fx, fy = f
    d = np.multiply(ddx, mxh, out=w.q[3])  # i k . m_hat, then eps times it
    d += np.multiply(ddy, myh, out=fy)
    d *= eps
    np.multiply(nu, mxh, out=fx)
    fx -= np.multiply(ddx, d, out=fy)
    np.multiply(nu, myh, out=fy)
    d *= ddy
    fy -= d


def _gradients(g: Grid2D, n, mx, my, w: _Work):
    """The first transforms of a stage, for the physical state (n, mx, my):
    forward x (mx/n, my/n, sqrt n - 1) -> q0-2 and inverse q2-5 -> a1-4,
    the returned fields (ddx s, ddy s, dxx, dyy).  The dealiased velocity
    spectra stay in q0-1, and the spectrum of the strain's
    dxy = (ddy ux + ddx uy)/2 is left in q2, with q5 as scratch.  Only
    ddx and ddy of s = sqrt n are read, so s - 1 is transformed: a
    constant density then has an exactly zero gradient, which the band
    forward of s itself misses by round-off below TABLE_MAX_N.  The
    forward writes its scratch half3 only above TABLE_MAX_N."""
    q, x, (ddx, ddy) = w.q, w.x, g.band_d
    np.divide(mx, n, out=x[0])
    np.divide(my, n, out=x[1])
    np.sqrt(n, out=x[2])
    x[2] -= 1.0
    uxh, uyh, sh = to_spectral(x, out=q[:3], scratch=w.half3)
    q[:2, g.band_cut] = 0.0
    np.multiply(ddy, sh, out=q[3])
    np.multiply(ddx, sh, out=sh)
    np.multiply(ddx, uxh, out=q[4])
    np.multiply(ddy, uyh, out=q[5])
    fields = _to_physical_into(q[2:6], w.a[1:])
    dxy = np.multiply(ddy, uxh, out=q[2])
    dxy += np.multiply(ddx, uyh, out=q[5])
    dxy *= 0.5
    return fields


def _stress_hats(g: Grid2D, params: LimitParams, n, mx, my, f, w: _Work, energy=None):
    """Finish a stage's forces: add to the spectra f = (fx, fy) the
    divergence of the stress tensor S of the physical state (n, mx, my):
    the advective flux -m x u, the viscous stress 2 eps n D(u), the
    pressure remainder -(n^gamma - gamma (n - 1) - 1)/eps^2 on the
    diagonal and the Bohm stress -4 eps^2 grad s x grad s, each of its
    four components transformed once: 7 forward / 7 inverse transforms
    in four stacked calls, the first two _gradients, with t as scratch:

        forward  x (mx/n, my/n, sqrt n - 1)    -> q0-2 (ux, uy, s - 1)
        inverse  q2-5 (ddx s, ddy s, dxx, dyy) -> a1-4, then dxy in q2,
                 the pressure in a0, Bohm xy in t, S_xx, S_yy in a3-4
        inverse  q0-2 (ux, uy, dxy)            -> a0-2, then S_xy in a2
        forward  a1-4 (S_yx, S_xy, S_xx, S_yy) -> s0-3

    energy, a _StageEnergy, is handed grad s and the strain before the
    stress scales them."""
    eps, gamma = params.epsilon, params.gamma
    q, a, t = w.q, w.a, w.t
    sx, sy, dxx, dyy = _gradients(g, n, mx, my, w)
    if energy is not None:
        energy.gradients(sx, sy, dxx, dyy)
    p = np.power(n, gamma, out=a[0])
    p -= np.multiply(n, gamma, out=t)
    p += gamma - 1.0
    p /= eps * eps
    sxx, txy, syy = _stress_of_gradient(sx, sy, -4.0 * eps * eps, t)
    sxx -= p
    syy -= p
    # the viscous stress 2 eps n D(u), summed into the strain's own plane
    for s, d in ((sxx, dxx), (syy, dyy)):
        d *= n
        d *= 2.0 * eps
        d += s
    sxx, syy = dxx, dyy
    ux, uy, dxy = _to_physical_into(q[:3], a[:3])
    if energy is not None:
        energy.shear(dxy)
    dxy *= n
    dxy *= 2.0 * eps
    dxy += txy
    sxy = dxy
    # S is symmetric but for the advective flux -m x u
    syy -= np.multiply(my, uy, out=t)
    mx_uy = np.multiply(mx, uy, out=t)
    syx = np.multiply(my, ux, out=a[1])  # S_yx, where uy was
    np.subtract(sxy, syx, out=syx)
    sxy -= mx_uy
    sxx -= np.multiply(mx, ux, out=t)
    syxh, sxyh, sxxh, syyh = to_spectral(a[1:], out=w.s, scratch=w.half4)
    for fi, sx_h, sy_h in zip(f, (sxxh, syxh), (sxyh, syyh)):
        sx_h *= g.band_d[0]
        sy_h *= g.band_d[1]
        sx_h += sy_h
        fi += sx_h
    return f


def qns_step(s: QnsState, dt: float, ledger: EnergyLedger | None = None) -> QnsState:
    """One classical Lawson RK4 step: RK4 on E(-t) u, with E the exact
    linear flow.  With h = dt and E = E(h/2),

        k1 = N(u),  k2 = N(E (u + h/2 k1)),  k3 = N(E u + h/2 k2),
        k4 = N(E (E u + h k3)),
        u' = E (E (u + h/6 k1) + h/3 (k2 + k3)) + h/6 k4,

    where N, the nonlinear remainder, moves the momentum only.  The state
    stays a spectrum between the stages, and every stage density - the
    input state's included, before its step bound - is checked.  Aborts
    on vacuum or non-finite values.

    With a ledger, the entry of s is read from the fields stage 1 forms
    for s anyway, and appended before a later stage can abort.

    The working arrays are allocated once, here: the band spectra of u
    (then E u), of the RK4 sum and of a stage's forces, a _Work, and
    three fields for each stage's physical state, which the last stage
    hands on as the new state's arrays.  s is not modified.  A dt that
    is not finite and positive is refused before any transform.

    The step's first forward transforms (n - 1, mx, my), n - 1 exact for
    n in [0.5, 2], and adds 1 to the mean mode: the band forward of a
    constant leaves round-off in kx >= 1 below TABLE_MAX_N, and the rest
    state would not be an exact fixed point.  Every band forward of the
    step writes its half-plane scratch only above TABLE_MAX_N."""
    if not 0.0 < dt < np.inf:
        raise CflViolation(f"dt must be finite and > 0, got {dt!r}")
    n, mx, my = s.n.values, s.m.x.values, s.m.y.values
    _check_state(n, mx, my, s.time)
    limit = cfl_dt(s)
    if dt > limit * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:g} exceeds the stability bound {limit:g} at t = {s.time:g}")
    g, params = s.grid, s.params
    half = _linear_flow(g, params, 0.5 * dt)
    w = _Work(g)
    lin = v = w.q[:3]  # scratch of the linear stage; the spectra of a stage's state
    tmp = w.q[:2]
    u = _spectra(g, 3)  # u, then E u
    acc = _spectra(g, 3)  # E k1, then the RK4 sum
    f = _spectra(g, 2)  # a stage's forces, on the momentum
    phys = np.empty((3, g.n_points, g.n_points))

    def forces_at(t, spectra):
        # f = N at the state of these spectra, which are destroyed
        _viscous_hats(g, params.epsilon, half, spectra[1], spectra[2], f, w)
        _check_state(*_to_physical_into(spectra, phys), t)
        _stress_hats(g, params, *phys, f, w)

    x = np.stack((n, mx, my), out=w.x)
    x[0] -= 1.0
    to_spectral(x, out=u, scratch=w.half3)
    u[0, 0, 0] += 1.0
    energy = None if ledger is None else _StageEnergy(s, phys)
    _viscous_hats(g, params.epsilon, half, u[1], u[2], f, w)  # k1
    _stress_hats(g, params, n, mx, my, f, w, energy)
    if energy is not None:
        ledger._append(energy)
    _linear_stage(g, half, *u, out=u, tmp=lin)  # E u
    _linear_stage(g, half, 0.0, *f, out=acc, tmp=lin)  # E k1
    t = s.time + 0.5 * dt
    np.multiply(acc, 0.5 * dt, out=v)
    v += u  # E (u + h/2 k1)
    acc *= dt / 6.0
    acc += u  # E (u + h/6 k1)
    forces_at(t, v)  # k2
    acc[1:] += np.multiply(f, dt / 3.0, out=tmp)
    np.copyto(v[0], u[0])
    np.multiply(f, 0.5 * dt, out=v[1:])
    v[1:] += u[1:]
    forces_at(t, v)  # k3
    acc[1:] += np.multiply(f, dt / 3.0, out=tmp)
    u[1:] += np.multiply(f, dt, out=tmp)  # E u + h k3
    t = s.time + dt
    _linear_stage(g, half, *u, out=u, tmp=lin)
    forces_at(t, u)  # k4
    _linear_stage(g, half, *acc, out=acc, tmp=lin)
    acc[1:] += np.multiply(f, dt / 6.0, out=tmp)
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
    energy = _StageEnergy(s, (w.t, w.a[0], w.a[1]))
    energy.gradients(*_gradients(s.grid, n, s.m.x.values, s.m.y.values, w))
    energy.shear(_to_physical_into(w.q[2], w.a[2]))
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
