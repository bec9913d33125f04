"""Relative entropy, convergence-theorem norms, density-deviation
norms, and log-log rate fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acoustic import AcousticState
from .constitutive import _free_energy_values, _require_positive
from .euler import EulerReference
from .qns import QnsState
from .spectral import (
    ScalarField,
    gradient,
    helmholtz_project,
    integrate,
    vector_field,
)

# A report compares states at one time: the acoustic companion is evolved
# to the state's time exactly, and every profile's reference is steady.
TIME_TOL = 1e-9


@dataclass
class EntropyReport:
    t: float
    rel_entropy: float
    kinetic_part: float
    quantum_part: float
    internal_part: float
    theorem_lhs: tuple[float, float, float]


@dataclass
class RateFit:
    epsilons: list[float]
    values: list[float]
    slope: float
    intercept: float
    residual: float


def _check_alignment(s: QnsState, ref: EulerReference, ac: AcousticState):
    if not (s.grid == ref.v.grid == ac.grid):
        raise ValueError("state, reference and acoustic state must share one grid")
    if abs(s.time - ac.time) > TIME_TOL:
        raise ValueError(
            f"state and acoustic times differ: {s.time:.6g} vs {ac.time:.6g} (tol {TIME_TOL:g})"
        )
    if not ref.steady and abs(s.time - ref.time) > TIME_TOL:
        raise ValueError(
            f"state and reference times differ: {s.time:.6g} vs {ref.time:.6g} (tol {TIME_TOL:g})"
        )


def relative_entropy(s: QnsState, ref: EulerReference, ac: AcousticState) -> EntropyReport:
    """Modulated energy between the state and the corrected reference
    (v + grad Psi, b = 1 + eps sigma): kinetic + quantum + internal parts,
    and in the same pass the convergence estimate's squared norms
    ||sqrt(n)(u - v - grad Psi)||^2, ||(n - b)/eps||^2 and
    eps^2 ||grad(sqrt(n) - sqrt(b))||^2: the gradients of Psi and of
    sqrt(n) - sqrt(b), 2 forward / 4 inverse transforms.  The state, ac
    and an unsteady ref must agree in time to TIME_TOL, and n and b must
    be positive (VacuumError).

    The internal part is the Bregman gap of the free energy, hence
    nonnegative; the whole functional vanishes iff the state sits
    exactly on the corrected reference.
    """
    _check_alignment(s, ref, ac)
    g = s.grid
    eps, gamma = s.params.epsilon, s.params.gamma
    n = s.n.values
    b = 1.0 + eps * ac.sigma.values
    _require_positive(n, "relative_entropy state density", time=s.time)
    _require_positive(b, "reference density 1 + eps*sigma", time=s.time)
    gp = gradient(ac.psi)
    wx = s.m.x.values / n - ref.v.x.values - gp.x.values
    wy = s.m.y.values / n - ref.v.y.values - gp.y.values
    vel = integrate(ScalarField(g, n * (wx * wx + wy * wy)))
    dens = integrate(ScalarField(g, ((n - b) / eps) ** 2))
    gd = gradient(ScalarField(g, np.sqrt(n) - np.sqrt(b)))
    grad = eps * eps * integrate(ScalarField(g, gd.x.values ** 2 + gd.y.values ** 2))
    bregman = (
        _free_energy_values(n, gamma, 0)
        - _free_energy_values(b, gamma, 1) * (n - b)
        - _free_energy_values(b, gamma, 0)
    )
    internal = integrate(ScalarField(g, bregman)) / (eps * eps)

    # the kinetic and quantum parts are the theorem's velocity and
    # gradient norms scaled by 1/2 and 2: exact in binary floating point
    kinetic = 0.5 * vel
    quantum = 2.0 * grad
    return EntropyReport(
        t=s.time,
        rel_entropy=kinetic + quantum + internal,
        kinetic_part=kinetic,
        quantum_part=quantum,
        internal_part=internal,
        theorem_lhs=(vel, dens, grad),
    )


def theorem_lhs(s: QnsState, ref: EulerReference, ac: AcousticState) -> tuple[float, float, float]:
    """The three squared norms of the convergence estimate, as the
    relative_entropy report of the same arguments gives them."""
    return relative_entropy(s, ref, ac).theorem_lhs


def corollary_lhs(s: QnsState, ref: EulerReference) -> tuple[float, float, float]:
    """||P(sqrt(n) u) - v||^2, ||(n-1)/eps||^2, eps^2 ||grad sqrt(n)||^2."""
    if s.grid != ref.v.grid:
        raise ValueError("state and reference must share one grid")
    g = s.grid
    eps = s.params.epsilon
    n = s.n.values
    _require_positive(n, "corollary_lhs", time=s.time)
    root_n = np.sqrt(n)
    w = vector_field(g, root_n * s.m.x.values / n, root_n * s.m.y.values / n)
    p_part, _ = helmholtz_project(w)
    first = integrate(
        ScalarField(
            g,
            (p_part.x.values - ref.v.x.values) ** 2 + (p_part.y.values - ref.v.y.values) ** 2,
        )
    )
    second = integrate(ScalarField(g, ((n - 1.0) / eps) ** 2))
    gs = gradient(ScalarField(g, root_n))
    third = eps * eps * integrate(ScalarField(g, gs.x.values ** 2 + gs.y.values ** 2))
    return (first, second, third)


def density_deviation_norms(s: QnsState) -> dict[str, float]:
    """Small/large indicator splits of n - 1 and the full L^gamma and
    L^lambda norms (ties |n-1| = 1 go to the large part)."""
    g = s.grid
    h2 = g.spacing ** 2
    gamma = s.params.gamma
    lam = s.params.lam
    dev = s.n.values - 1.0
    small = np.abs(dev) < 1.0
    small_l2 = float(np.sqrt((dev[small] ** 2).sum() * h2))
    large_lg = float(((np.abs(dev[~small]) ** gamma).sum() * h2) ** (1.0 / gamma))
    full_lg = float(((np.abs(dev) ** gamma).sum() * h2) ** (1.0 / gamma))
    full_ll = float(((np.abs(dev) ** lam).sum() * h2) ** (1.0 / lam))
    return {
        "small_part_L2": small_l2,
        "large_part_Lgamma": large_lg,
        "full_Lgamma": full_lg,
        "full_Llambda": full_ll,
    }


def rate_fit(eps: list[float], vals: list[float]) -> RateFit:
    """Least-squares line through (log eps, log val); the residual is
    the RMS of the log-residuals."""
    eps = [float(e) for e in eps]
    vals = [float(v) for v in vals]
    if len(eps) != len(vals) or len(eps) < 3:
        raise ValueError(f"rate fit needs >= 3 matched points, got {len(eps)}/{len(vals)}")
    if not all(0.0 < v < np.inf for v in eps + vals):
        raise ValueError("rate fit requires finite positive epsilons and values")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    lx = np.log(np.array(eps))
    ly = np.log(np.array(vals))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return RateFit(
        epsilons=eps,
        values=vals,
        slope=float(slope),
        intercept=float(intercept),
        residual=float(np.sqrt(np.mean(resid ** 2))),
    )
