"""Fourier-spectral machinery on the periodic square [0, 2pi)^2.

Fields live on a uniform N x N grid, indexed [iy, ix] (row-major, x
fastest).  Spectra are the real-to-complex half plane of shape
(N, N/2 + 1): ky runs over {-N/2+1, ..., N/2}, kx over {0, ..., N/2},
and Hermitian symmetry supplies the other half, so every inverse
transform is real by construction.  The forward transform is normalized
by 1/N^2 so the zero mode equals the field mean.  Both directions run
on pocketfft (numpy.fft) but for the x pass of a band transform on a
grid with N <= TABLE_MAX_N: forward onto the band or inverse from it,
that pass is one np.matmul (BLAS) with a cached cos/sin table, faster
there than the rfft or the zero-padded irfft.
Odd-order derivative multipliers zero the Nyquist mode, which is the
exact derivative of the real trigonometric interpolant at the grid
points.  The first-derivative symbol i k is built here alone, as
Grid2D.d on the full half plane and Grid2D.band_d on the band, and every
module takes its derivatives from these two.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# Largest N whose band transforms take their pass along x as one table
# product (_forward_table, _inverse_table).  With one BLAS thread on 4
# planes, the whole band inverse took 0.56 to 0.92 of the zero-padded
# irfft's time at N = 48 to 96, 0.66 to 0.97 at N = 128, and 1.16 to
# 1.92 times at N = 160 and 256 (BENCH_band_inverse_table.json).  The
# whole band forward took 0.46 to 0.71 of the rfft's time at N = 48 and
# 64, 0.86 to 1.12 at N = 96 (where the Euler step still gains 8 %) and
# 1.14 to 1.76 times at N = 128 to 256 (BENCH_band_forward_table.json).
# N = 128 stays on the rfft and the irfft, so every grid above 96 keeps
# its bits.
TABLE_MAX_N = 96

# A bound on a run's peak in N x N float64 fields: a run of the
# benchmark's highres_n256 size (N = 256) peaks at 31.3 traced fields
# (tracemalloc) in its first step, of which Grid2D holds 1.1.  It was
# set at 40 when that peak was 36.8, and a lower bound would admit
# larger grids than it does.
RUN_FIELDS = 40


class SpectralError(ValueError):
    pass


def check_grid_size(n_points, what: str = "grid size") -> int:
    """The one grid-size rule: N, returned, is an even integer >= 8 whose
    run, RUN_FIELDS N x N float64 fields, fits in physical memory, where
    os.sysconf reports it, so an oversized grid is refused before
    anything is allocated."""
    n = int(n_points)
    if n != n_points or n < 8 or n % 2 != 0:
        raise SpectralError(f"{what} must be an even integer >= 8, got {n_points}")
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        memory = 0
    need = RUN_FIELDS * 8 * n * n
    if 0 < memory < need:
        raise SpectralError(f"{what} = {n} needs {need / 2**30:.1f} GiB for a run of {RUN_FIELDS} "
                            f"fields, more than the {memory / 2**30:.1f} GiB of physical memory")
    return n


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Grid2D:
    """Uniform even-N periodic grid with precomputed half-plane
    wavenumber arrays of shape (N, N/2 + 1).

    ``coords`` are the 1-D grid coordinates; ``x`` and ``y`` their
    meshgrids, indexed [iy, ix].  A field separable in x and y is
    cheaper to build from ``coords`` by broadcasting.

    Attributes ending in ``g`` (``kgx``, ``kgy``, ``kg2``) are the
    first-derivative wavenumbers with the Nyquist column/row zeroed; the
    plain ``kx``, ``ky``, ``k2`` carry the +N/2 Nyquist label and are
    only ever used with even powers.  ``inv_kg2`` is 1/kg2, and 0 where
    kg2 == 0 (the mean and the Nyquist corners): the one inverse
    Laplacian, mean-free.  ``d`` is the one first-derivative symbol of
    the half plane, (i kgx, i kgy) as a complex row (1, N/2 + 1) and
    column (N, 1) that broadcast against a spectrum.  ``kx``, ``ky``,
    ``kgx`` and ``kgy`` are broadcast views of 1-D wavenumbers, so the
    planes a grid holds from the start are ``kg2``, ``inv_kg2`` and the
    boolean ``dealias_mask``, about 1.1 N x N fields.

    Both solvers keep their spectra on the dealiased band: the ``band_c``
    columns kx < N/3 outside which the mask is zero, its rows |ky| >= N/3
    the slice ``band_cut``.  ``band_d`` is the contiguous (2, N, c) stack
    of the band's columns of d with the 2/3-rule mask folded in, so one
    multiply dealiases and differentiates (complex times complex
    multiplies are faster than times float).  ``x``, ``y``, ``k2`` and
    ``band_d`` are built on first use, so a run at eta = 0, which reads
    none of the first three, never holds them.  All arrays are
    read-only, so a grid may be shared across threads.
    """

    def __init__(self, n_points: int):
        self.n_points = n = check_grid_size(n_points)
        self.spacing = TWO_PI / n

        self.coords = np.arange(n) * self.spacing

        ky1 = np.fft.fftfreq(n, 1.0 / n).astype(int)
        ky1[n // 2] = n // 2  # relabel Nyquist as +N/2
        kx1 = np.arange(n // 2 + 1)
        kgy1 = np.where(ky1 == n // 2, 0, ky1)
        kgx1 = np.where(kx1 == n // 2, 0, kx1)
        # broadcast views of the 1-D wavenumbers, which hold no plane of their own
        self.kx, self.ky = np.meshgrid(kx1, ky1, copy=False)
        self.kgx, self.kgy = np.meshgrid(kgx1, kgy1, copy=False)
        self.kg2 = np.add.outer(kgy1 ** 2, kgx1 ** 2).astype(float)
        self.inv_kg2 = np.divide(1.0, self.kg2, out=np.zeros(self.kg2.shape),
                                 where=self.kg2 != 0.0)
        self.d = (1j * self.kgx[:1], 1j * self.kgy[:, :1])

        # strict: with |k| <= N/3 kept, a grid that 3 divides would alias
        # the products at 2N/3 onto the kept modes |k| = N/3
        cutoff = n / 3.0
        self.dealias_mask = np.logical_and.outer(np.abs(ky1) < cutoff, kx1 < cutoff)
        self.band_c = c = int(np.count_nonzero(self.dealias_mask[0]))
        self.band_cut = slice(c, n - c + 1)

        for arr in (self.coords, self.kx, self.ky, self.kgx, self.kgy, self.kg2,
                    self.inv_kg2, self.dealias_mask, *self.d):
            arr.setflags(write=False)

    @cached_property
    def x(self):
        return _read_only(np.tile(self.coords, (self.n_points, 1)))

    @cached_property
    def y(self):
        return _read_only(np.repeat(self.coords[:, None], self.n_points, axis=1))

    @cached_property
    def k2(self):
        return _read_only(np.add.outer(self.ky[:, 0] ** 2, self.kx[0] ** 2).astype(float))

    @cached_property
    def band_d(self):
        c = self.band_c
        d = np.zeros((2, self.n_points, c), complex)
        for k, d_im in zip((self.kgx, self.kgy), d.imag):
            np.multiply(k[:, :c], self.dealias_mask[:, :c], out=d_im)
        return _read_only(d)

    def __eq__(self, other):
        return isinstance(other, Grid2D) and other.n_points == self.n_points

    def __hash__(self):
        return hash(self.n_points)

    def __repr__(self):
        return f"Grid2D(n_points={self.n_points})"


def to_spectral(values: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Half-plane forward transform, normalized so that fhat[0, 0] =
    mean(values), written into out when given; a stack of fields
    (..., N, N) becomes the stack of their spectra in one call.  out may
    hold only the first columns kx < c = out.shape[-1] (the band), and
    the fft along y then runs in place on those columns alone.

    Along x, a band (c <= N/2) on a grid with N <= TABLE_MAX_N takes one
    matrix product of values with _forward_table(N, c) into the float
    view of out: within 4e-15 of max|fhat| of rfft2's kept columns.  A
    zero plane goes to an exact zero spectrum; a constant plane does not,
    as it leaves round-off of about 2e-16 of the constant in kx >= 1,
    which the rfft cancels exactly, so a caller that needs a constant
    exactly transforms its deviation.  Otherwise an rfft: into out, which
    is rfft2 bit for bit, or for a band into a half-plane stack, giving
    the kept columns of rfft2 bit for bit.  That stack is scratch when
    given (a caller whose peak memory it sets keeps one) and allocated
    here otherwise; it is read only on this path."""
    n = values.shape[-1]
    if out is None or out.shape[-1] > n // 2:
        out = np.fft.rfft(values, axis=-1, norm="forward", out=out)
    elif n <= TABLE_MAX_N:
        np.matmul(values, _forward_table(n, out.shape[-1]), out=out.view(float))
    else:
        half = np.fft.rfft(values, axis=-1, norm="forward", out=scratch)
        return np.fft.fft(half[..., :out.shape[-1]], axis=-2, norm="forward", out=out)
    return np.fft.fft(out, axis=-2, norm="forward", out=out)


def to_physical(fhat: np.ndarray) -> np.ndarray:
    """Inverse of to_spectral: the real N x N field of a half-plane
    spectrum (a stack of them for a stack of spectra); fhat is kept."""
    return _to_physical_into(np.array(fhat, dtype=complex))


def _to_physical_into(fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """to_physical(fhat), written into out (by default a fresh array),
    for a stack as for to_spectral.  fhat is overwritten by its inverse
    along y, so nothing else is allocated, and may hold only the first
    c columns of a spectrum that vanishes beyond them (the band).

    Along x, a band spectrum on a grid with N <= TABLE_MAX_N takes one
    matrix product of its float view (..., N, 2c) with _inverse_table(N, c),
    which reads the c kept columns alone; it is within 4e-15 of max|field|
    of irfft2, and a mean-only spectrum inverts to an exactly constant
    field.  Otherwise an irfft, zero-padding a band: irfft2 bit for bit
    (irfft2 itself ignores out in NumPy 2.x and allocates a complex
    intermediate)."""
    np.fft.ifft(fhat, axis=-2, norm="forward", out=fhat)
    n, c = fhat.shape[-2:]
    if c > n // 2 or n > TABLE_MAX_N:
        return np.fft.irfft(fhat, n=n, axis=-1, norm="forward", out=out)
    return np.matmul(fhat.view(float), _inverse_table(n, c), out=out)


@lru_cache(maxsize=16)
def _forward_table(n: int, c: int) -> np.ndarray:
    """Read-only (N, 2c) table of the forward along x onto c columns
    kx = 0 .. c-1, held as interleaved (re, im) pairs: columns cos / N
    and -sin / N of 2 pi (j k mod N) / N.  It is the transpose of
    _inverse_table(n, c) divided by w_k N, which gives those bits, as
    w_k is 1 or 2."""
    weight = np.repeat(np.where(np.arange(c) == 0, n, 2 * n), 2)
    table = np.divide(_inverse_table(n, c).T, weight, order="C")
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _inverse_table(n: int, c: int) -> np.ndarray:
    """Read-only (2c, N) table of the real inverse along x of c columns
    kx = 0 .. c-1 held as interleaved (re, im) pairs: rows w_k cos and
    -w_k sin of 2 pi (j k mod N) / N, w_0 = 1 and w_k = 2 otherwise (the
    Hermitian partner), so the k = 0 sine row is exactly zero."""
    k = np.arange(c)
    angle = (TWO_PI / n) * (np.outer(k, np.arange(n)) % n)
    weight = np.where(k == 0, 1.0, 2.0)[:, None]
    table = np.empty((2 * c, n))
    np.multiply(weight, np.cos(angle), out=table[0::2])
    np.multiply(-weight, np.sin(angle), out=table[1::2])
    table.setflags(write=False)
    return table


@dataclass
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.grid.n_points
        if self.values.shape != (n, n):
            raise SpectralError(f"field shape {self.values.shape} does not match grid {n}x{n}")
        if not np.isfinite(self.values).all():
            raise SpectralError("field contains non-finite values")

    def mean(self) -> float:
        return float(self.values.mean())

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    x: ScalarField
    y: ScalarField

    def __post_init__(self):
        if self.x.grid != self.y.grid:
            raise SpectralError("vector field components must share one grid")

    @property
    def grid(self) -> Grid2D:
        return self.x.grid


def vector_field(grid: Grid2D, vx: np.ndarray, vy: np.ndarray) -> VectorField:
    return VectorField(ScalarField(grid, vx), ScalarField(grid, vy))


def differentiate(f: ScalarField, order: tuple[int, int]) -> ScalarField:
    """Exact spectral derivative d^(a+b) f / dx^a dy^b of the interpolant.

    Supports a + b <= 3.  The zero mode of any derivative with a + b >= 1
    vanishes identically.
    """
    a, b = int(order[0]), int(order[1])
    if a < 0 or b < 0 or a + b > 3:
        raise SpectralError(f"derivative order {order} unsupported (need a,b >= 0, a+b <= 3)")
    if a == 0 and b == 0:
        return f.copy()
    g, (dx, dy) = f.grid, f.grid.d
    mult = (dx if a % 2 else 1j * g.kx[:1]) ** a * (dy if b % 2 else 1j * g.ky[:, :1]) ** b
    return ScalarField(g, _to_physical_into(mult * to_spectral(f.values)))


def gradient(f: ScalarField) -> VectorField:
    """grad f: one forward transform, and both components inverted in one call."""
    (dx, dy), fhat = f.grid.d, to_spectral(f.values)
    return vector_field(f.grid, *_to_physical_into(np.stack((dx * fhat, dy * fhat))))


def divergence(w: VectorField) -> ScalarField:
    """div w: both components forward in one call, one inverse."""
    (dx, dy), (wxh, wyh) = w.grid.d, to_spectral(np.stack((w.x.values, w.y.values)))
    return ScalarField(w.grid, _to_physical_into(dx * wxh + dy * wyh))


def curl(w: VectorField) -> ScalarField:
    """Scalar curl d(wy)/dx - d(wx)/dy: one forward call, one inverse."""
    (dx, dy), (wxh, wyh) = w.grid.d, to_spectral(np.stack((w.x.values, w.y.values)))
    return ScalarField(w.grid, _to_physical_into(dx * wyh - dy * wxh))


def helmholtz_project(w: VectorField) -> tuple[VectorField, VectorField]:
    """Split w into its divergence-free and gradient parts, w = p + q.

    Per mode, q_hat = k (k . w_hat) / |k|^2 with the first-derivative
    wavenumbers, so div(q) = div(w) and curl(q) = 0 hold exactly under
    the same derivative convention.  The mean (and the degenerate
    Nyquist corners) go entirely to the divergence-free part.  Both
    components go forward in one call, and p and q come back in one.
    """
    g, (dx, dy) = w.grid, w.grid.d
    pq = np.empty((4,) + g.kg2.shape, complex)  # the spectra of p, then of q
    wh = to_spectral(np.stack((w.x.values, w.y.values)), out=pq[:2])
    # i k (i k . w_hat) = -k (k . w_hat)
    proj = (dx * wh[0] + dy * wh[1]) * -g.inv_kg2
    np.multiply(dx, proj, out=pq[2])
    np.multiply(dy, proj, out=pq[3])
    wh -= pq[2:]
    px, py, qx, qy = _to_physical_into(pq)
    return vector_field(g, px, py), vector_field(g, qx, qy)


def dealias(f: ScalarField) -> ScalarField:
    """Zero every mode with |kx| or |ky| at or above N/3 (the 2/3 rule)."""
    return ScalarField(f.grid, dealias_values(f.grid, f.values))


def dealias_values(grid: Grid2D, values: np.ndarray) -> np.ndarray:
    """dealias(f).values: the band columns of the full-plane forward, its
    rows cut zeroed, inverted from the band.  That forward is rfft2 at
    every N, so a constant plane has its mean mode alone and inverts to
    a constant field (the rest density 1 to exactly 1), where the band
    forward would leave round-off in kx >= 1 below TABLE_MAX_N; a zero
    plane stays exactly zero either way."""
    fhat = to_spectral(values)[:, :grid.band_c]
    fhat[grid.band_cut] = 0.0
    return _to_physical_into(fhat)


def norm(f: ScalarField | VectorField, p: float = 2.0) -> float:
    """Discrete L^p norm by uniform quadrature.  A vector field's
    components combine as (||f_x||_p^p + ||f_y||_p^p)^(1/p), and p = inf
    takes the larger sup-norm.  Refuses a p that is not >= 1, NaN included.
    """
    if not p >= 1:
        raise SpectralError(f"p must be >= 1, got {p}")
    pieces = [f.values] if isinstance(f, ScalarField) else [f.x.values, f.y.values]
    if np.isinf(p):
        return float(max(np.abs(v).max() for v in pieces))
    h2 = f.grid.spacing ** 2
    total = sum(float((np.abs(v) ** p).sum()) * h2 for v in pieces)
    return total ** (1.0 / p)


def integrate(f: ScalarField) -> float:
    """Quadrature of f over the torus."""
    return float(f.values.sum()) * f.grid.spacing ** 2


def random_band_limited(
    grid: Grid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> ScalarField:
    """Random real mean-free field supported on |kx|, |ky| <= kmax,
    scaled to the requested sup amplitude.  Of rng it reads only
    rng.standard_normal(shape), so a numpy Generator or the batteries'
    checks.SeededNormal will do."""
    noise = rng.standard_normal((grid.n_points, grid.n_points))
    fhat = to_spectral(noise)
    keep = (np.abs(grid.kx) <= kmax) & (np.abs(grid.ky) <= kmax)
    fhat *= keep
    fhat[0, 0] = 0.0
    vals = to_physical(fhat)
    peak = np.abs(vals).max()
    if peak > 0:
        vals = vals * (amplitude / peak)
    return ScalarField(grid, vals)
