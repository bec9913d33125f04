"""Exact per-mode solution of the eps-scaled acoustic wave system.

The pair (sigma, Psi) obeys d_t sigma + (1/eps) lap Psi = 0 and
d_t grad Psi + (p'(1)/eps) grad sigma = 0.  Per Fourier mode this is a
rotation at frequency omega_k = sqrt(p'(1)) |k| / eps, so the flow is
evaluated in closed form at any time: no time stepping, exact energy
conservation, exact semigroup property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import LimitParams, p_prime_at_one
from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    gradient,
    gradient_potential,
    helmholtz_project,
    integrate,
    norm,
    to_physical,
    to_spectral,
)


@dataclass
class InitialData:
    """Initial density perturbation and velocity with a declared bound.

    bound_m defaults to the measured H1 + L2 size; an explicit bound is
    checked at construction.
    """

    n1_0: ScalarField
    u_0: VectorField
    eta: float = 0.0
    bound_m: float | None = None

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"mollification width must be >= 0, got {self.eta}")
        if self.n1_0.grid != self.u_0.grid:
            raise ValueError("initial data fields must share one grid")
        measured = norm(self.n1_0, 2, 1) + norm(self.u_0, 2, 0)
        if self.bound_m is None:
            self.bound_m = measured
        elif measured > self.bound_m * (1 + 1e-12):
            raise ValueError(
                f"initial data size {measured:.6g} exceeds declared bound {self.bound_m:.6g}"
            )


@dataclass
class AcousticState:
    sigma: ScalarField
    psi: ScalarField
    time: float
    params: LimitParams

    def __post_init__(self):
        # Psi is only defined up to a constant; fix the zero-mean gauge.
        m = self.psi.mean()
        if m != 0.0:
            self.psi = ScalarField(self.psi.grid, self.psi.values - m)

    @property
    def grid(self) -> Grid2D:
        return self.sigma.grid


def mollify(f: ScalarField, eta: float) -> ScalarField:
    """Smooth f by the spectral Gaussian multiplier exp(-eta^2 |k|^2 / 2).

    eta = 0 is the identity; the mean is preserved exactly.
    """
    if eta < 0:
        raise ValueError(f"mollification width must be >= 0, got {eta}")
    if eta == 0.0:
        return f.copy()
    g = f.grid
    mult = np.exp(-0.5 * eta * eta * g.k2)
    return ScalarField(g, to_physical(mult * to_spectral(f.values)))


def acoustic_init(data: InitialData, params: LimitParams) -> AcousticState:
    """Prepare (sigma, Psi) at t = 0: sigma is the mollified density
    perturbation, grad Psi the gradient part of the mollified velocity."""
    g = data.n1_0.grid
    sigma = mollify(data.n1_0, data.eta)
    u_m = VectorField(mollify(data.u_0.x, data.eta), mollify(data.u_0.y, data.eta))
    _, q_part = helmholtz_project(u_m)
    psi = gradient_potential(q_part)
    return AcousticState(sigma=sigma, psi=psi, time=0.0, params=params)


def acoustic_evolve(s: AcousticState, t: float) -> AcousticState:
    """Advance the state by time t via the exact per-mode rotation.

    Negative t runs the flow backwards (the rotation formula is valid
    for any real t), so evolve(evolve(s, t), -t) recovers s.
    """
    g = s.grid
    eps = s.params.epsilon
    c = np.sqrt(p_prime_at_one(s.params.gamma)) / eps

    sig_h = to_spectral(s.sigma.values)
    psi_h = to_spectral(s.psi.values)

    kabs = np.sqrt(g.kg2)
    omega = c * kabs
    cw = np.cos(omega * t)
    sw = np.sin(omega * t)

    # scaled pair (sigma_h, b) with b = |k| Psi_h / sqrt(p'(1)) rotates rigidly
    scale = kabs / (c * eps)  # = |k| / sqrt(p'(1))
    b = scale * psi_h
    sig_new = sig_h * cw + b * sw
    b_new = b * cw - sig_h * sw
    active = g.kg2 > 0.0
    psi_new = np.where(active, b_new / np.where(active, scale, 1.0), psi_h)
    sig_new = np.where(active, sig_new, sig_h)
    return AcousticState(
        sigma=ScalarField(g, to_physical(sig_new)),
        psi=ScalarField(g, to_physical(psi_new)),
        time=s.time + t,
        params=s.params,
    )


def acoustic_energy(s: AcousticState) -> float:
    """(1/2) integral of p'(1) sigma^2 + |grad Psi|^2, conserved by the flow."""
    pp1 = p_prime_at_one(s.params.gamma)
    gp = gradient(s.psi)
    dens = pp1 * s.sigma.values ** 2 + gp.x.values ** 2 + gp.y.values ** 2
    return 0.5 * integrate(ScalarField(s.grid, dens))

