"""Limit parameters, the vacuum guard, the free energy, and the quantum
(Bohm) force."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    Grid2D,
    ScalarField,
    VectorField,
    _to_physical_into,
    dealias,
    differentiate,
    gradient,
    to_spectral,
    vector_field,
)

# Densities below this are numerically meaningless in the quantum force
# (division by sqrt(n)); callers abort rather than clip.
N_FLOOR = 1e-8

POTENTIAL = "potential"
DIVERGENCE = "divergence"


class VacuumError(RuntimeError):
    """Density dropped to (or below) the vacuum floor."""

    def __init__(self, msg, min_n=None, location=None, time=None):
        super().__init__(msg)
        self.min_n = min_n
        self.location = location
        self.time = time


@dataclass(frozen=True)
class LimitParams:
    """Mach number and adiabatic exponent, with the derived exponents; an epsilon
    outside (0, 1) or below about 7.5e-155, where 1/epsilon^2 overflows, is refused."""

    epsilon: float
    gamma: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 1.0 / self.epsilon / self.epsilon < np.inf:
            raise ValueError(f"epsilon = {self.epsilon} is too small: 1/epsilon^2 overflows")
        if not 1.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and exceed 1, got {self.gamma}")

    @property
    def lam(self) -> float:
        """min{2, gamma} (density-deviation integrability exponent)."""
        return min(2.0, self.gamma)

    @property
    def rate(self) -> float:
        """min{1 - 1/gamma, 1/gamma} (convergence-rate exponent)."""
        return min(1.0 - 1.0 / self.gamma, 1.0 / self.gamma)


def _require_positive(values: np.ndarray, what: str, floor: float = 0.0,
                      time: float | None = None) -> None:
    """The one vacuum guard: VacuumError, carrying the minimum, its grid
    point and the time when known, unless every value is > 0 and >= floor."""
    low = float(values.min())
    if low <= 0.0 or low < floor:
        iy, ix = np.unravel_index(int(values.argmin()), values.shape)
        when = "" if time is None else f" at t = {time:.6g}"
        raise VacuumError(
            f"{what} needs n > 0 and n >= {floor:g}{when}; min n = {low:.6e} at grid point "
            f"(iy={iy}, ix={ix})",
            min_n=low, location=(int(iy), int(ix)), time=time,
        )


def _free_energy_values(n, gamma: float, order: int, out=None, tmp=None):
    """The convex free energy H(n) = (n^g - g(n-1) - 1)/(g-1), or H', H''.

    H(1) = H'(1) = 0 and H''(1) = gamma = p'(1).  H is written into out,
    with tmp as scratch, when they are given (by default fresh arrays)."""
    if order == 0:
        h = np.power(n, gamma, out=out)
        h -= np.multiply(gamma, np.subtract(n, 1.0, out=tmp), out=tmp)
        h -= 1.0
        h /= gamma - 1.0
        return h
    if order == 1:
        return gamma * (n ** (gamma - 1.0) - 1.0) / (gamma - 1.0)
    if order == 2:
        return gamma * n ** (gamma - 2.0)
    raise ValueError(f"free energy order must be 0, 1 or 2, got {order}")


def p_prime_at_one(gamma: float) -> float:
    """Sound-speed coefficient p'(1); single source of truth is H''(1)."""
    return float(_free_energy_values(np.float64(1.0), gamma, 2))


def bohm_force(n: ScalarField, form: str = DIVERGENCE) -> VectorField:
    """Quantum force 2 n grad(lap(sqrt n)/sqrt n) in either of its forms.

    The divergence form grad(lap n) - 4 div(grad(sqrt n) x grad(sqrt n))
    is the production form; the potential form evaluates the expression
    literally and exists for cross-validation.  sqrt(n) is taken
    pointwise and dealiased before any differentiation; the result is
    dealiased.
    """
    vals = n.values
    _require_positive(vals, "bohm_force", N_FLOOR)
    g = n.grid
    if form == DIVERGENCE:
        return vector_field(g, *_to_physical_into(_bohm_divergence_hats(g, vals)))
    if form == POTENTIAL:
        s = dealias(ScalarField(g, np.sqrt(vals)))
        lap_s = ScalarField(g, differentiate(s, (2, 0)).values + differentiate(s, (0, 2)).values)
        ratio = dealias(ScalarField(g, lap_s.values / s.values))
        grad_ratio = gradient(ratio)
        return vector_field(
            g,
            dealias(ScalarField(g, 2.0 * vals * grad_ratio.x.values)).values,
            dealias(ScalarField(g, 2.0 * vals * grad_ratio.y.values)).values,
        )
    raise ValueError(f"unknown bohm force form {form!r} (use POTENTIAL or DIVERGENCE)")


def _bohm_divergence_hats(g: Grid2D, vals: np.ndarray) -> np.ndarray:
    """Band spectra (2, N, c) of the dealiased divergence-form quantum
    force grad(lap n) - 4 div(grad s x grad s), s = sqrt(n) dealiased,
    for a density already checked against the vacuum floor: the band
    columns of full-plane forwards (rfft2's bits) times Grid2D.band_d,
    as in dealias_values; n and the stress stack go in separate calls."""
    c, (dx, dy) = g.band_c, g.band_d
    lap_nh = -g.k2[:, :c] * to_spectral(vals)[:, :c]
    txx, txy, tyy = to_spectral(_bohm_stress(g, vals))[..., :c]
    return np.stack((dx * lap_nh + (dx * txx + dy * txy), dy * lap_nh + (dx * txy + dy * tyy)))


def _bohm_stress(g: Grid2D, vals: np.ndarray) -> np.ndarray:
    """Physical components (xx, xy, yy), stacked, of the Bohm stress
    -4 grad s x grad s, s = sqrt(n) dealiased, whose divergence is the
    quantum force less its linear part grad(lap n)."""
    sh = to_spectral(np.sqrt(vals))[:, :g.band_c]
    t = np.empty((3,) + vals.shape)
    _to_physical_into(g.band_d * sh, t[::2])
    _stress_of_gradient(t[0], t[2], -4.0, t[1])
    return t


def _stress_of_gradient(sx: np.ndarray, sy: np.ndarray, coeff: float, txy: np.ndarray):
    """coeff * grad s x grad s from grad s = (sx, sy), in place: xx is
    written into sx, yy into sy and xy into txy."""
    np.multiply(sx, coeff, out=txy)
    txy *= sy
    for f in (sx, sy):
        f *= f
        f *= coeff
    return sx, txy, sy
