import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnslab import (
    Grid2D,
    ScalarField,
    SpectralError,
    VectorField,
    dealias,
    differentiate,
    divergence,
    gradient,
    helmholtz_project,
    integrate,
    norm,
    random_band_limited,
    vector_field,
)
from qnslab.spectral import (
    TABLE_MAX_N,
    _forward_table,
    _inverse_table,
    _to_physical_into,
    dealias_values,
    to_physical,
    to_spectral,
)


def test_grid_rejects_odd_and_small():
    with pytest.raises(SpectralError):
        Grid2D(7)
    with pytest.raises(SpectralError):
        Grid2D(6)


@pytest.mark.parametrize(
    "case, message",
    [("shape", r"field shape \(32, 64\) does not match grid 64x64"),
     ("nan", "field contains non-finite values"),
     ("inf", "field contains non-finite values"),
     ("vector-grids", "vector field components must share one grid")],
)
def test_fields_refuse_what_they_cannot_hold(grid64, grid32, case, message):
    # the non-finite refusal is what turns an overflow in a run into its abort
    values = np.zeros((64, 64))
    with pytest.raises(SpectralError, match=message):
        if case == "shape":
            ScalarField(grid64, np.zeros((32, 64)))
        elif case in ("nan", "inf"):
            values[3, 5] = np.nan if case == "nan" else -np.inf
            ScalarField(grid64, values)
        else:
            VectorField(ScalarField(grid64, values), ScalarField(grid32, np.zeros((32, 32))))


def test_grid_spacing_covers_torus(grid64):
    assert grid64.spacing * grid64.n_points == pytest.approx(2 * np.pi, abs=1e-15)
    assert np.count_nonzero(grid64.k2 == 0) == 1


def test_derivative_of_sine(grid64):
    f = ScalarField(grid64, np.sin(grid64.x))
    d = differentiate(f, (1, 0))
    assert np.abs(d.values - np.cos(grid64.x)).max() < 1e-12


def test_derivative_of_constant_is_zero(grid64):
    f = ScalarField(grid64, np.full((64, 64), 3.7))
    for order in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 3)]:
        assert np.abs(differentiate(f, order).values).max() < 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_gradient_inverts_both_components_in_one_call(n, fft_counts):
    # the same bits as one inverse per component, in 2 calls, not 3
    g = Grid2D(n)
    f = random_band_limited(g, 8, np.random.default_rng(n))
    fhat = to_spectral(f.values)
    want = (to_physical(1j * g.kgx * fhat), to_physical(1j * g.kgy * fhat))
    fft_counts.update(fwd=0, inv=0, calls=0)
    grad = gradient(f)
    assert fft_counts == {"fwd": 1, "inv": 2, "calls": 2}, fft_counts
    assert np.array_equal(grad.x.values, want[0]) and np.array_equal(grad.y.values, want[1])


def _fd_stencil(values, axis, h, order):
    """8th-order periodic central differences, first or second derivative."""
    if order == 1:
        coeffs = {1: 4 / 5, 2: -1 / 5, 3: 4 / 105, 4: -1 / 280}
        out = np.zeros_like(values)
        for off, c in coeffs.items():
            out += c * (np.roll(values, -off, axis) - np.roll(values, off, axis))
        return out / h
    if order == 2:
        center = -205.0 / 72.0
        coeffs = {1: 8 / 5, 2: -1 / 5, 3: 8 / 315, 4: -1 / 560}
        out = center * values
        for off, c in coeffs.items():
            out += c * (np.roll(values, -off, axis) + np.roll(values, off, axis))
        return out / (h * h)
    raise ValueError(order)


def test_mixed_third_derivative_against_fine_grid_fd(grid64):
    # oracle: 8th-order finite differences at 8x resolution, subsampled
    fine = Grid2D(512)
    f_fine = np.sin(3 * fine.x) * np.cos(2 * fine.y)
    fd = _fd_stencil(_fd_stencil(f_fine, 1, fine.spacing, 2), 0, fine.spacing, 1)
    oracle = fd[::8, ::8]

    f = ScalarField(grid64, np.sin(3 * grid64.x) * np.cos(2 * grid64.y))
    spectral = differentiate(f, (2, 1)).values
    rel = np.abs(spectral - oracle).max() / np.abs(oracle).max()
    assert rel < 1e-8


def test_derivative_order_cap(grid64):
    f = ScalarField(grid64, np.sin(grid64.x))
    with pytest.raises(SpectralError):
        differentiate(f, (2, 2))
    with pytest.raises(SpectralError):
        differentiate(f, (-1, 0))


def test_derivative_has_zero_mean(grid64, rng):
    f = random_band_limited(grid64, 10, rng)
    shifted = ScalarField(grid64, f.values + 2.0)
    for order in [(1, 0), (0, 1), (2, 1)]:
        assert abs(differentiate(shifted, order).mean()) < 1e-13


def test_helmholtz_pure_gradient(grid64):
    w = vector_field(grid64, np.cos(grid64.x), np.zeros_like(grid64.x))
    p, q = helmholtz_project(w)
    assert np.abs(p.x.values).max() < 1e-12
    assert np.abs(p.y.values).max() < 1e-12
    assert np.abs(q.x.values - w.x.values).max() < 1e-12


def test_helmholtz_divergence_free(grid64):
    w = vector_field(
        grid64,
        np.sin(grid64.x) * np.cos(grid64.y),
        -np.cos(grid64.x) * np.sin(grid64.y),
    )
    p, q = helmholtz_project(w)
    assert np.abs(q.x.values).max() < 1e-12
    assert np.abs(p.x.values - w.x.values).max() < 1e-12


def _helmholtz_oracle(w):
    """Mode-by-mode projection with explicit loops, independent of the
    production implementation."""
    n = w.grid.n_points
    wx = np.fft.fft2(w.x.values)
    wy = np.fft.fft2(w.y.values)
    ks = np.fft.fftfreq(n, 1.0 / n).astype(int)
    qx = np.zeros_like(wx)
    qy = np.zeros_like(wy)
    for iy in range(n):
        for ix in range(n):
            kx, ky = ks[ix], ks[iy]
            k2 = kx * kx + ky * ky
            if k2 == 0:
                continue
            dot = kx * wx[iy, ix] + ky * wy[iy, ix]
            qx[iy, ix] = kx * dot / k2
            qy[iy, ix] = ky * dot / k2
    return (
        np.fft.ifft2(wx - qx).real,
        np.fft.ifft2(wy - qy).real,
        np.fft.ifft2(qx).real,
        np.fft.ifft2(qy).real,
    )


def test_helmholtz_against_per_mode_oracle(grid64):
    w = vector_field(grid64, np.sin(grid64.x + grid64.y), np.zeros_like(grid64.x))
    px, py, qx, qy = _helmholtz_oracle(w)
    p, q = helmholtz_project(w)
    assert np.abs(p.x.values - px).max() < 1e-12
    assert np.abs(p.y.values - py).max() < 1e-12
    assert np.abs(q.x.values - qx).max() < 1e-12
    assert np.abs(q.y.values - qy).max() < 1e-12


def test_helmholtz_is_projection_pair(grid64, rng):
    w = vector_field(
        grid64,
        random_band_limited(grid64, 9, rng).values,
        random_band_limited(grid64, 9, rng).values,
    )
    p, q = helmholtz_project(w)
    p2, q2 = helmholtz_project(p)
    assert np.abs(p2.x.values - p.x.values).max() < 1e-12
    assert np.abs(q2.x.values).max() < 1e-12
    assert np.abs(q2.y.values).max() < 1e-12


def test_helmholtz_divergence_of_p_part(grid64, rng):
    from qnslab import curl

    w = vector_field(
        grid64,
        random_band_limited(grid64, 15, rng).values + 0.3,
        random_band_limited(grid64, 15, rng).values,
    )
    p, q = helmholtz_project(w)
    assert norm(divergence(p), 2) < 1e-10 * norm(w, 2)
    assert norm(curl(q), 2) < 1e-10 * norm(w, 2)
    assert np.abs(p.x.values + q.x.values - w.x.values).max() < 1e-12
    assert np.abs(p.y.values + q.y.values - w.y.values).max() < 1e-12


def test_helmholtz_mean_goes_to_p(grid64):
    w = vector_field(grid64, np.full((64, 64), 1.5), np.full((64, 64), -0.5))
    p, q = helmholtz_project(w)
    assert np.abs(q.x.values).max() < 1e-14
    assert p.x.mean() == pytest.approx(1.5, abs=1e-13)


def test_norm_constant(grid64):
    f = ScalarField(grid64, np.ones((64, 64)))
    assert norm(f, 2) == pytest.approx(2 * np.pi, rel=1e-13)


def test_norm_sup(grid64):
    f = ScalarField(grid64, np.sin(grid64.x))
    assert norm(f, np.inf) == pytest.approx(1.0, abs=1e-13)


def test_norm_sine_l2(grid64):
    f = ScalarField(grid64, np.sin(grid64.x))
    assert norm(f, 2) == pytest.approx(np.pi * np.sqrt(2), rel=1e-13)


def test_norm_vector(grid64):
    w = vector_field(grid64, np.sin(grid64.x), np.sin(grid64.x))
    assert norm(w, 2) == pytest.approx(2 * np.pi, rel=1e-12)


def test_norm_rejects_bad_p(grid64):
    f = ScalarField(grid64, np.ones((64, 64)))
    with pytest.raises(SpectralError):
        norm(f, 0.5)


def test_dealias_keeps_band_limited(grid64, rng):
    f = random_band_limited(grid64, 12, rng)
    assert np.abs(dealias(f).values - f.values).max() < 1e-13


def test_dealias_idempotent(grid64, rng):
    noise = ScalarField(grid64, rng.standard_normal((64, 64)))
    once = dealias(noise)
    twice = dealias(once)
    assert np.abs(twice.values - once.values).max() < 1e-13


def test_dealias_kills_near_nyquist_mode(grid64):
    k = 64 // 2 - 1
    f = ScalarField(grid64, np.sin(k * grid64.x))
    assert np.abs(dealias(f).values).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(kmax=st.integers(1, 20), amp=st.floats(0.1, 5.0), seed=st.integers(0, 10_000))
def test_parseval(kmax, amp, seed):
    g = Grid2D(64)
    f = random_band_limited(g, kmax, np.random.default_rng(seed), amp)
    fhat = to_spectral(f.values)
    # half-plane spectrum: columns 0 < kx < N/2 stand for their mirror too
    weight = np.full(fhat.shape[1], 2.0)
    weight[[0, -1]] = 1.0
    spectral_side = 4 * np.pi ** 2 * float((weight * np.abs(fhat) ** 2).sum())
    assert norm(f, 2) ** 2 == pytest.approx(spectral_side, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mixed_partials_commute(seed):
    g = Grid2D(32)
    f = random_band_limited(g, 8, np.random.default_rng(seed))
    a = differentiate(differentiate(f, (1, 0)), (0, 1))
    b = differentiate(f, (1, 1))
    scale = max(np.abs(b.values).max(), 1e-30)
    assert np.abs(a.values - b.values).max() < 1e-12 * scale


def test_integrate_matches_mean(grid64, rng):
    f = random_band_limited(grid64, 5, rng)
    shifted = ScalarField(grid64, f.values + 0.7)
    assert integrate(shifted) == pytest.approx(0.7 * 4 * np.pi ** 2, rel=1e-12)


@pytest.mark.parametrize("n", [8, 16, 32, 64, 256])
def test_in_place_transforms_match_bit_for_bit(n):
    # both directions are the 1-D pairs of rfft2 / irfft2, bit for bit
    g = Grid2D(n)
    vals = np.random.default_rng(n).standard_normal((n, n))
    fhat = to_spectral(vals)
    assert np.array_equal(fhat, np.fft.rfft2(vals, norm="forward"))
    spec = np.empty(g.kg2.shape, complex)
    assert to_spectral(vals, out=spec) is spec
    assert np.array_equal(spec, fhat)
    field = np.empty((n, n))
    assert _to_physical_into(spec, field) is field  # spec is overwritten
    assert np.array_equal(field, to_physical(fhat))
    assert np.array_equal(field, np.fft.irfft2(fhat, s=(n, n), norm="forward"))
    # a stack: one call each way, each plane its own transform
    planes = np.random.default_rng(n + 1).standard_normal((3, n, n))
    stack = np.empty((3,) + g.kg2.shape, complex)
    assert to_spectral(planes, out=stack) is stack
    for got, v in zip(stack, planes):
        assert np.array_equal(got, np.fft.rfft2(v, norm="forward"))
    expected = [np.fft.irfft2(h, s=(n, n), norm="forward") for h in stack]
    fields = np.empty((3, n, n))
    assert _to_physical_into(stack, fields) is fields
    for got, want in zip(fields, expected):
        assert np.array_equal(got, want)


def _assert_band_inverse_matches(got, want):
    # the band inverse against irfft2 of the zero-padded half plane
    _assert_band_matches(got, want, got.shape[-1])


def _assert_band_matches(got, want, n):
    # a band transform against rfft2's kept columns or irfft2: bit for
    # bit above TABLE_MAX_N (rfft / irfft along x), within 4e-15 of
    # max|want| at or below it (the table product)
    if n > TABLE_MAX_N:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max() <= 4e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [48, 64, 256])
def test_band_transforms_match_the_full_half_plane(n):
    # a spectrum that vanishes outside the mask held on its c kept
    # columns: the inverse matches that of the full half plane, and the
    # forward onto the band the kept columns of the full one
    g = Grid2D(n)
    c = int(np.count_nonzero(g.dealias_mask[0]))
    rng = np.random.default_rng(n)
    full = to_spectral(random_band_limited(g, c - 1, rng).values) * g.dealias_mask
    assert not full[:, c:].any() and full[:, c - 1].any()
    band = np.ascontiguousarray(full[:, :c])
    field = np.empty((n, n))
    assert _to_physical_into(band, field) is field
    _assert_band_inverse_matches(field, to_physical(full))
    planes = rng.standard_normal((2, n, n))
    out = np.empty((2, n, c), complex)
    scratch = np.empty((2,) + g.kg2.shape, complex)
    assert to_spectral(planes, out=out, scratch=scratch) is out
    _assert_band_matches(out, to_spectral(planes)[..., :c], n)


@pytest.mark.parametrize("n", [32, 48, 64, 256])
def test_dealias_values_on_the_band_matches_the_full_plane(n):
    # the band path (forward onto c columns, rows |ky| >= N/3 zeroed,
    # inverse from the band) is the full-plane mask multiply
    g = Grid2D(n)
    values = np.random.default_rng(n).standard_normal((n, n))
    want = to_physical(to_spectral(values) * g.dealias_mask)
    _assert_band_inverse_matches(dealias_values(g, values), want)
    keep = g.dealias_mask[:, :g.band_c]
    assert keep.all(axis=1).sum() == 2 * g.band_c - 1 and not keep[g.band_cut].any()


def _padded_irfft2(band, n):
    full = np.zeros(band.shape[:-1] + (n // 2 + 1,), complex)
    full[..., :band.shape[-1]] = band
    return np.fft.irfft2(full, s=(n, n), norm="forward")


@pytest.mark.parametrize("n", [32, 48, 64, 96, 128, 256])
def test_band_inverse_against_irfft2_of_the_zero_padded_half_plane(n):
    # at or below TABLE_MAX_N the x-pass is the table product: a mean-only
    # spectrum gives an exactly constant field (the k = 0 sine row is
    # zero, so the imaginary part is dropped as irfft drops it)
    g = Grid2D(n)
    c = g.band_c
    rng = np.random.default_rng(n)
    band = rng.standard_normal((2, n, c)) + 1j * rng.standard_normal((2, n, c))
    want = _padded_irfft2(band, n)
    _assert_band_inverse_matches(_to_physical_into(band.copy()), want)
    if n > TABLE_MAX_N:
        return
    mean = np.zeros((n, c), complex)
    mean[0, 0] = 1.3 + 0.7j
    assert (_to_physical_into(mean) == 1.3).all()


@pytest.mark.parametrize("n", [32, 48, 64, 96, 128, 256])
def test_band_forward_against_rfft2(n):
    # at or below TABLE_MAX_N the x pass is the table product, which
    # leaves the scratch unread; above it the rfft goes into the scratch
    g = Grid2D(n)
    c = g.band_c
    planes = np.random.default_rng(n).standard_normal((3, n, n))
    want = np.fft.rfft2(planes, norm="forward")[..., :c]
    out = np.empty((3, n, c), complex)
    scratch = np.full((3,) + g.kg2.shape, np.nan, complex)
    assert to_spectral(planes, out=out, scratch=scratch) is out
    _assert_band_matches(out, want, n)
    assert np.isnan(scratch).all() == (n <= TABLE_MAX_N)


@pytest.mark.parametrize("n", [32, 48, 64, 96])
def test_band_forward_of_a_zero_plane_is_exact(n):
    # a zero plane goes to exact zeros; a constant plane leaves round-off
    # in kx >= 1, so the solvers transform deviations from a constant
    c = Grid2D(n).band_c
    zero = to_spectral(np.zeros((n, n)), out=np.full((n, c), np.nan, complex))
    assert (zero == 0.0).all()
    const = to_spectral(np.full((n, n), 1.3), out=np.empty((n, c), complex))
    assert const[0, 0] == pytest.approx(1.3, rel=4e-15, abs=0.0)
    assert np.abs(const[:, 1:]).max() <= 4e-15 * 1.3


def test_forward_table_is_read_only_and_cached():
    table = _forward_table(64, 22)
    assert table.shape == (64, 44) and not table.flags.writeable
    assert _forward_table(64, 22) is table and _forward_table(64, 16) is not table
    assert (table[:, 0] == 1.0 / 64).all() and (table[:, 1] == 0.0).all()
    with pytest.raises(ValueError):
        table[0, 2] = 0.0


def test_inverse_table_is_read_only_and_cached():
    table = _inverse_table(64, 22)
    assert table.shape == (44, 64) and not table.flags.writeable
    assert _inverse_table(64, 22) is table and _inverse_table(64, 16) is not table
    assert (table[0] == 1.0).all() and (table[1] == 0.0).all()
    with pytest.raises(ValueError):
        table[2, 0] = 0.0


@pytest.mark.parametrize("n, irfft_calls, rfft_calls", [(64, (0, 0), (0, 0)),
                                                        (256, (12, 4), (9, 4))])
def test_steps_take_their_x_passes_by_table_up_to_the_crossover(n, irfft_calls, rfft_calls,
                                                                 fft_shapes):
    # a QNS step inverts its 40 planes in 12 calls and forwards its 31 in
    # 9, an Euler step its 9 in 4 and its 8 in 4; at N = 64 none of them
    # is an irfft or an rfft, at N = 256 all of them are
    from qnslab import (InitialData, LimitParams, cfl_dt, curl, euler, qns_init, qns_step,
                        taylor_green)

    g = Grid2D(n)
    tg = taylor_green(g)
    s = qns_init(LimitParams(0.1, 2.0),
                 InitialData(n1_0=ScalarField(g, 0.5 * np.sin(g.x)), u_0=tg.v))
    w_hat = to_spectral(curl(tg.v).values)
    counts = {"irfft": [], "rfft": []}
    for step in (lambda: qns_step(s, cfl_dt(s)),
                 lambda: euler._rk4_vorticity_step(g, w_hat, 1e-3)):
        for name in counts:
            fft_shapes[name].clear()
        step()
        for name, calls in counts.items():
            calls.append(len(fft_shapes[name]))
    assert counts == {"irfft": list(irfft_calls), "rfft": list(rfft_calls)}


def test_band_forward_above_the_table_allocates_its_own_scratch():
    # a band forward above TABLE_MAX_N without scratch takes its rfft into
    # a half plane of its own: the same bits as with a caller's scratch
    g = Grid2D(256)
    planes = np.random.default_rng(5).standard_normal((2, 256, 256))
    mine = to_spectral(planes, out=np.empty((2, 256, g.band_c), complex))
    theirs = to_spectral(planes, out=np.empty((2, 256, g.band_c), complex),
                         scratch=np.empty((2,) + g.kg2.shape, complex))
    assert np.array_equal(mine, theirs)


def test_forward_table_has_the_bits_of_its_own_formula():
    # the forward table is the inverse table transposed and divided by
    # w_k N; with w_k = 1 or 2 that is cos / N and -sin / N exactly
    for n in range(8, TABLE_MAX_N + 1, 2):
        for c in {Grid2D(n).band_c, n // 2}:
            angle = (2.0 * np.pi / n) * (np.outer(np.arange(n), np.arange(c)) % n)
            want = np.empty((n, 2 * c))
            want[:, 0::2], want[:, 1::2] = np.cos(angle) / n, -np.sin(angle) / n
            table = _forward_table(n, c)
            assert table.flags.c_contiguous and np.array_equal(table, want), (n, c)


def test_one_derivative_symbol_for_every_module():
    # i k is built in spectral.py alone (Grid2D.d and Grid2D.band_d);
    # every other module takes its derivatives from those
    import re
    from pathlib import Path

    import qnslab

    for path in sorted(Path(qnslab.__file__).parent.glob("*.py")):
        if path.name != "spectral.py":
            hits = re.findall(r"\.(?:kgx|kgy|ddx|ddy)\b", path.read_text(encoding="utf-8"))
            assert not hits, (path.name, hits)
    assert not hasattr(Grid2D(8), "ddx") and not hasattr(Grid2D(8), "ddy")


def test_derivative_symbol_is_a_read_only_row_and_column(grid64):
    dx, dy = grid64.d
    assert dx.shape == (1, 33) and dy.shape == (64, 1)
    assert np.array_equal(np.broadcast_to(dx, (64, 33)), 1j * grid64.kgx)
    assert np.array_equal(np.broadcast_to(dy, (64, 33)), 1j * grid64.kgy)
    assert not dx.flags.writeable and not dy.flags.writeable
    c = grid64.band_c
    assert np.array_equal(grid64.band_d[0], (dx * grid64.dealias_mask)[:, :c])
    assert np.array_equal(grid64.band_d[1], (dy * grid64.dealias_mask)[:, :c])


@pytest.mark.parametrize("name, counts", [
    ("divergence", {"fwd": 2, "inv": 1, "calls": 2}),
    ("curl", {"fwd": 2, "inv": 1, "calls": 2}),
    ("helmholtz_project", {"fwd": 2, "inv": 4, "calls": 2}),
])
def test_vector_operators_take_one_call_each_way(grid64, rng, fft_counts, name, counts):
    import qnslab

    op = getattr(qnslab, name)
    w = vector_field(grid64, random_band_limited(grid64, 6, rng).values,
                     random_band_limited(grid64, 6, rng).values)
    fft_counts.update(fwd=0, inv=0, calls=0)
    op(w)
    assert fft_counts == counts, fft_counts


def test_stacked_operators_match_their_one_component_forms(grid64, rng):
    # divergence and curl against differentiate, p and q against the
    # per-mode formula with the real wavenumbers
    from qnslab import curl

    w = vector_field(grid64, random_band_limited(grid64, 10, rng).values,
                     random_band_limited(grid64, 10, rng).values)
    d = {o: differentiate(f, o).values for f, o in ((w.x, (1, 0)), (w.y, (0, 1)))}
    scale = max(np.abs(v).max() for v in d.values())
    assert np.abs(divergence(w).values - d[1, 0] - d[0, 1]).max() <= 1e-14 * scale
    cw = differentiate(w.y, (1, 0)).values - differentiate(w.x, (0, 1)).values
    assert np.abs(curl(w).values - cw).max() <= 1e-14 * np.abs(cw).max()
    g = grid64
    wxh, wyh = to_spectral(w.x.values), to_spectral(w.y.values)
    proj = (g.kgx * wxh + g.kgy * wyh) * g.inv_kg2
    p, q = helmholtz_project(w)
    assert np.array_equal(q.x.values, to_physical(g.kgx * proj))
    assert np.array_equal(q.y.values, to_physical(g.kgy * proj))
    assert np.array_equal(p.x.values, to_physical(wxh - g.kgx * proj))
    assert np.array_equal(p.y.values, to_physical(wyh - g.kgy * proj))


def test_grid_size_rule_covers_a_run(monkeypatch):
    # 1 MiB of physical memory holds one N = 64 field (32 KiB) but not a
    # run of RUN_FIELDS of them; an N = 32 run (320 KiB) fits.  Only the
    # rule runs: no grid of the refused size is built.
    import os

    from qnslab.spectral import RUN_FIELDS, check_grid_size

    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.__getitem__)
    assert RUN_FIELDS * 8 * 32 * 32 < 2**20 < RUN_FIELDS * 8 * 64 * 64
    assert check_grid_size(32) == 32
    with pytest.raises(SpectralError, match="for a run of"):
        check_grid_size(64)
    with pytest.raises(SpectralError):
        Grid2D(64)
