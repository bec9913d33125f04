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
    _to_physical_into,
    gradient,
    integrate,
    to_physical,
    to_spectral,
)


@dataclass
class InitialData:
    """Initial density perturbation and velocity, with the width of the
    mollifier applied to the acoustic data."""

    n1_0: ScalarField
    u_0: VectorField
    eta: float = 0.0

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"mollification width must be >= 0, got {self.eta}")
        if self.n1_0.grid != self.u_0.grid:
            raise ValueError("initial data fields must share one grid")


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
    perturbation, Psi = lap^{-1} div u (mean-free) for the mollified
    velocity u, so grad Psi is the gradient part of u."""
    g, (dx, dy), eta = data.n1_0.grid, data.n1_0.grid.d, data.eta
    uh = to_spectral(np.stack((data.u_0.x.values, data.u_0.y.values)))
    if eta > 0.0:
        uh *= np.exp(-0.5 * eta * eta * g.k2)  # mollify's multiplier
    # lap^{-1} div u = (i k . u_hat) / -|k|^2
    psi_hat = (dx * uh[0] + dy * uh[1]) * -g.inv_kg2
    return AcousticState(sigma=mollify(data.n1_0, eta),
                         psi=ScalarField(g, to_physical(psi_hat)), time=0.0, params=params)


def acoustic_evolve(s: AcousticState, t: float) -> AcousticState:
    """Advance the state by time t via the exact per-mode rotation.

    Negative t runs the flow backwards (the rotation formula is valid
    for any real t), so evolve(evolve(s, t), -t) recovers s.
    """
    g = s.grid
    eps = s.params.epsilon
    c = np.sqrt(p_prime_at_one(s.params.gamma)) / eps

    sig_h, psi_h = to_spectral(np.stack((s.sigma.values, s.psi.values)))

    kabs = np.sqrt(g.kg2)
    omega = c * kabs
    cw = np.cos(omega * t)
    sw = np.sin(omega * t)

    # the scaled pair (sigma_h, |k| Psi_h / sqrt(p'(1))) rotates rigidly;
    # modes with kg2 = 0 have cw = 1 and sw = 0, so they stay put
    sig_new = sig_h * cw + (kabs / (c * eps)) * psi_h * sw
    psi_new = psi_h * cw - (c * eps) * np.sqrt(g.inv_kg2) * sig_h * sw
    sigma, psi = _to_physical_into(np.stack((sig_new, psi_new)))
    return AcousticState(
        sigma=ScalarField(g, sigma),
        psi=ScalarField(g, psi),
        time=s.time + t,
        params=s.params,
    )


def acoustic_energy(s: AcousticState) -> float:
    """(1/2) integral of p'(1) sigma^2 + |grad Psi|^2, conserved by the flow."""
    pp1 = p_prime_at_one(s.params.gamma)
    gp = gradient(s.psi)
    dens = pp1 * s.sigma.values ** 2 + gp.x.values ** 2 + gp.y.values ** 2
    return 0.5 * integrate(ScalarField(s.grid, dens))

