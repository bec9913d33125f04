import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnslab import (
    AcousticState,
    EulerReference,
    Grid2D,
    LimitParams,
    QnsState,
    ScalarField,
    corollary_lhs,
    density_deviation_norms,
    gradient,
    rate_fit,
    random_band_limited,
    relative_entropy,
    taylor_green,
    vector_field,
)

PARAMS = LimitParams(0.1, 2.0)


def _zero_ref(grid):
    zero = np.zeros((grid.n_points, grid.n_points))
    return EulerReference(
        v=vector_field(grid, zero, zero), pi=ScalarField(grid, zero), time=None
    )


def _zero_ac(grid, params=PARAMS):
    zero = np.zeros((grid.n_points, grid.n_points))
    return AcousticState(
        sigma=ScalarField(grid, zero), psi=ScalarField(grid, zero), time=0.0, params=params
    )


def _exact_reference_state(grid, rng, params=PARAMS):
    """QnsState sitting exactly on the corrected reference."""
    sigma = random_band_limited(grid, 4, rng, 0.6)
    psi = random_band_limited(grid, 4, rng, 0.5)
    psi = ScalarField(grid, psi.values - psi.values.mean())
    ref = taylor_green(grid)
    ac = AcousticState(sigma=sigma, psi=psi, time=0.0, params=params)
    gp = gradient(ac.psi)
    n = 1.0 + params.epsilon * sigma.values
    ux = ref.v.x.values + gp.x.values
    uy = ref.v.y.values + gp.y.values
    s = QnsState(
        n=ScalarField(grid, n),
        m=vector_field(grid, n * ux, n * uy),
        time=0.0,
        params=params,
    )
    return s, ref, ac


def test_entropy_vanishes_at_reference(grid64, rng):
    s, ref, ac = _exact_reference_state(grid64, rng)
    rep = relative_entropy(s, ref, ac)
    assert abs(rep.rel_entropy) < 1e-12
    assert rep.theorem_lhs[0] < 1e-12
    assert rep.theorem_lhs[1] < 1e-12
    assert rep.theorem_lhs[2] < 1e-12


def test_entropy_constant_density_case(grid64):
    # n = 1 + eps, sigma = 0, u = v: entropy = H(1+eps)/eps^2 * area = area
    ref = taylor_green(grid64)
    n = np.full_like(grid64.x, 1.1)
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, n * ref.v.x.values, n * ref.v.y.values),
        time=0.0,
        params=PARAMS,
    )
    rep = relative_entropy(s, ref, _zero_ac(grid64))
    assert rep.rel_entropy == pytest.approx(4 * np.pi ** 2, rel=1e-10)
    assert rep.internal_part == pytest.approx(4 * np.pi ** 2, rel=1e-10)


def test_entropy_parts_sum_and_nonnegative(grid64, rng):
    ref = taylor_green(grid64)
    ac = _zero_ac(grid64)
    for _ in range(20):
        n = 1.0 + 0.4 * random_band_limited(grid64, 5, rng, 1.0).values
        m = vector_field(
            grid64,
            random_band_limited(grid64, 5, rng, 1.0).values,
            random_band_limited(grid64, 5, rng, 1.0).values,
        )
        s = QnsState(n=ScalarField(grid64, n), m=m, time=0.0, params=PARAMS)
        rep = relative_entropy(s, ref, ac)
        assert rep.kinetic_part >= -1e-12
        assert rep.quantum_part >= -1e-12
        assert rep.internal_part >= -1e-12
        total = rep.kinetic_part + rep.quantum_part + rep.internal_part
        assert rep.rel_entropy == pytest.approx(total, rel=1e-12)


def test_report_parts_are_scaled_theorem_norms(grid64, rng):
    s, ref, ac = _exact_reference_state(grid64, rng)
    off = QnsState(
        n=ScalarField(grid64, s.n.values + 0.05 * random_band_limited(grid64, 4, rng).values),
        m=vector_field(grid64, s.m.x.values + 0.01, s.m.y.values - 0.02),
        time=0.0,
        params=PARAMS,
    )
    rep = relative_entropy(off, ref, ac)
    vel, dens, grad = relative_entropy(off, ref, ac).theorem_lhs
    assert rep.theorem_lhs == (vel, dens, grad)
    assert rep.kinetic_part == 0.5 * vel
    assert rep.quantum_part == 2 * grad
    assert rep.kinetic_part > 0 and rep.quantum_part > 0


def test_theorem_gradient_norm_matches_two_gradient_form(grid64, rng):
    # oracle: eps^2 ||grad sqrt(n) - grad sqrt(b)||^2 from two gradients,
    # the form the report replaced by one gradient of sqrt(n) - sqrt(b)
    eps = PARAMS.epsilon
    for _ in range(5):
        s, ref, ac = _exact_reference_state(grid64, rng)
        off = QnsState(
            n=ScalarField(grid64, s.n.values + 0.05 * random_band_limited(grid64, 6, rng).values),
            m=s.m, time=0.0, params=PARAMS,
        )
        gs = gradient(ScalarField(grid64, np.sqrt(off.n.values)))
        gb = gradient(ScalarField(grid64, np.sqrt(1.0 + eps * ac.sigma.values)))
        oracle = eps * eps * grid64.spacing ** 2 * float(
            ((gs.x.values - gb.x.values) ** 2 + (gs.y.values - gb.y.values) ** 2).sum())
        rep = relative_entropy(off, ref, ac)
        assert rep.theorem_lhs[2] == pytest.approx(oracle, rel=1e-12)
        assert rep.theorem_lhs[2] > 0
        assert relative_entropy(off, ref, ac).theorem_lhs == rep.theorem_lhs


def test_entropy_positive_off_reference(grid64, rng):
    s, ref, ac = _exact_reference_state(grid64, rng)
    bumped = QnsState(
        n=s.n,
        m=vector_field(grid64, s.m.x.values + 0.01, s.m.y.values),
        time=0.0,
        params=PARAMS,
    )
    assert relative_entropy(bumped, ref, ac).rel_entropy > 1e-8


def test_internal_part_matches_density_norm_for_gamma_two(grid64, rng):
    # H is quadratic at gamma = 2, so the Bregman gap IS the squared norm
    for _ in range(20):
        s, ref, ac = _exact_reference_state(grid64, rng)
        n_pert = ScalarField(grid64, s.n.values + 0.05 * random_band_limited(grid64, 4, rng).values)
        s2 = QnsState(n=n_pert, m=s.m, time=0.0, params=PARAMS)
        rep = relative_entropy(s2, ref, ac)
        assert rep.internal_part == pytest.approx(rep.theorem_lhs[1], rel=1e-12)


def test_theorem_lhs_constant_velocity_shift(grid64, rng):
    s, ref, ac = _exact_reference_state(grid64, rng)
    delta = 0.2
    shifted = QnsState(
        n=s.n,
        m=vector_field(grid64, s.m.x.values + delta * s.n.values, s.m.y.values),
        time=0.0,
        params=PARAMS,
    )
    vel, dens, grad = relative_entropy(shifted, ref, ac).theorem_lhs
    # first entry = delta^2 * integral(n) = delta^2 * 4 pi^2 (mean-free sigma)
    assert vel == pytest.approx(delta ** 2 * 4 * np.pi ** 2, rel=1e-12)
    assert dens < 1e-12
    assert grad < 1e-12


def test_theorem_lhs_density_entry(grid64):
    n = 1.0 + 0.1 * np.sin(grid64.x)
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, np.zeros_like(n), np.zeros_like(n)),
        time=0.0,
        params=PARAMS,
    )
    _, dens, _ = relative_entropy(s, _zero_ref(grid64), _zero_ac(grid64)).theorem_lhs
    assert dens == pytest.approx(2 * np.pi ** 2, rel=1e-12)


def test_theorem_lhs_dominated_by_entropy(grid64, rng):
    ref = taylor_green(grid64)
    ac = _zero_ac(grid64)
    for _ in range(10):
        n = 1.0 + 0.3 * random_band_limited(grid64, 5, rng, 1.0).values
        m = vector_field(
            grid64,
            random_band_limited(grid64, 5, rng, 1.0).values,
            random_band_limited(grid64, 5, rng, 1.0).values,
        )
        s = QnsState(n=ScalarField(grid64, n), m=m, time=0.0, params=PARAMS)
        rep = relative_entropy(s, ref, ac)
        vel, _, grad = rep.theorem_lhs
        assert vel <= 2 * rep.rel_entropy * (1 + 1e-12)
        assert grad <= rep.rel_entropy * (1 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(scale=st.floats(0.1, 4.0), seed=st.integers(0, 999))
def test_theorem_velocity_entry_scales_quadratically(scale, seed):
    grid = Grid2D(32)
    rng = np.random.default_rng(seed)
    ref = taylor_green(grid)
    ac = _zero_ac(grid)
    n = 1.0 + 0.2 * random_band_limited(grid, 4, rng, 1.0).values
    w = random_band_limited(grid, 4, rng, 1.0).values
    base = QnsState(
        n=ScalarField(grid, n),
        m=vector_field(grid, n * (ref.v.x.values + w), n * ref.v.y.values),
        time=0.0,
        params=PARAMS,
    )
    scaled = QnsState(
        n=ScalarField(grid, n),
        m=vector_field(grid, n * (ref.v.x.values + scale * w), n * ref.v.y.values),
        time=0.0,
        params=PARAMS,
    )
    v1 = relative_entropy(base, ref, ac).theorem_lhs[0]
    v2 = relative_entropy(scaled, ref, ac).theorem_lhs[0]
    assert v2 == pytest.approx(scale ** 2 * v1, rel=1e-9)


def test_corollary_trivial_and_gradient_blind(grid64):
    ref = taylor_green(grid64)
    ones = np.ones_like(grid64.x)
    s = QnsState(
        n=ScalarField(grid64, ones),
        m=ref.v,
        time=0.0,
        params=PARAMS,
    )
    first, second, third = corollary_lhs(s, ref)
    assert first < 1e-12
    assert second < 1e-12
    assert third < 1e-12

    # adding a gradient to u leaves the projected entry unchanged
    phi = gradient(ScalarField(grid64, np.sin(grid64.x) + np.cos(2 * grid64.y)))
    s2 = QnsState(
        n=ScalarField(grid64, ones),
        m=vector_field(grid64, ref.v.x.values + phi.x.values, ref.v.y.values + phi.y.values),
        time=0.0,
        params=PARAMS,
    )
    assert corollary_lhs(s2, ref)[0] < 1e-12


def test_corollary_density_and_gradient_entries(grid64):
    eps = PARAMS.epsilon
    n = 1.0 + eps * np.sin(grid64.x)
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, np.zeros_like(n), np.zeros_like(n)),
        time=0.0,
        params=PARAMS,
    )
    first, second, third = corollary_lhs(s, _zero_ref(grid64))
    assert second == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    # quadrature oracle for eps^2 || d/dx sqrt(1 + eps sin x) ||^2
    h2 = grid64.spacing ** 2
    dsqrt = eps * np.cos(grid64.x) / (2.0 * np.sqrt(n))
    oracle = eps ** 2 * (dsqrt ** 2).sum() * h2
    assert third == pytest.approx(oracle, rel=1e-10)
    assert first == pytest.approx(0.0, abs=1e-12)


def test_density_deviation_norms(grid64):
    ones = QnsState(
        n=ScalarField(grid64, np.ones_like(grid64.x)),
        m=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
        time=0.0,
        params=PARAMS,
    )
    out = density_deviation_norms(ones)
    assert all(v == 0.0 for v in out.values())

    eps = PARAMS.epsilon
    s = QnsState(
        n=ScalarField(grid64, 1.0 + eps * np.sin(grid64.x)),
        m=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
        time=0.0,
        params=PARAMS,
    )
    out = density_deviation_norms(s)
    assert out["large_part_Lgamma"] == 0.0
    assert out["small_part_L2"] == pytest.approx(eps * np.pi * np.sqrt(2), rel=1e-12)
    assert out["full_Llambda"] == pytest.approx(out["small_part_L2"], rel=1e-12)

    big = QnsState(
        n=ScalarField(grid64, 1.0 + 2.0 * np.abs(np.sin(grid64.x))),  # deviations >= 1 exist
        m=vector_field(grid64, np.zeros_like(grid64.x), np.zeros_like(grid64.x)),
        time=0.0,
        params=PARAMS,
    )
    out_big = density_deviation_norms(big)
    assert out_big["large_part_Lgamma"] > 0
    assert out_big["full_Lgamma"] >= out_big["large_part_Lgamma"]


def test_rate_fit_exact_power_laws():
    eps = [0.2, 0.1, 0.05, 0.025]
    fit = rate_fit(eps, [e ** 0.5 for e in eps])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.residual < 1e-12

    fit3 = rate_fit(eps, [3.0 * e for e in eps])
    assert fit3.slope == pytest.approx(1.0, abs=1e-12)
    assert fit3.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_rate_fit_with_noise():
    rng = np.random.default_rng(5)
    eps = [0.2, 0.1, 0.05, 0.025]
    vals = [e ** 0.5 * (1 + 0.01 * rng.standard_normal()) for e in eps]
    fit = rate_fit(eps, vals)
    assert abs(fit.slope - 0.5) < 0.02


def test_rate_fit_rejections():
    with pytest.raises(ValueError):
        rate_fit([0.2, 0.1], [1.0, 2.0])
    with pytest.raises(ValueError):
        rate_fit([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])  # increasing epsilons
    with pytest.raises(ValueError):
        rate_fit([0.2, 0.1, 0.05], [1.0, -1.0, 1.0])


def test_rate_fit_matches_the_polyfit_oracle():
    # np.polyfit, a LAPACK least-squares solve, is the reference for the closed form
    rng = np.random.default_rng(28)
    for trial in range(300):
        rungs = 3 + trial % 6
        if trial % 2:
            eps = 0.2 * 0.5 ** np.arange(rungs)
        else:
            eps = 0.3 * np.cumprod(rng.uniform(0.2, 0.9, rungs))
        vals = 1.7 * eps ** rng.uniform(-1.0, 5.0) * np.exp(0.05 * rng.standard_normal(rungs))
        fit = rate_fit(list(eps), list(vals))
        lx, ly = np.log(eps), np.log(vals)
        slope, intercept = np.polyfit(lx, ly, 1)
        residual = np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2))
        assert abs(fit.slope - slope) <= 1e-12
        assert abs(fit.intercept - intercept) <= 1e-12
        assert abs(fit.residual - residual) <= 1e-12


def test_rate_fit_refuses_epsilons_whose_logs_coincide():
    # strictly decreasing, yet one log: no line to fit
    eps = [1e300, np.nextafter(1e300, 0.0), np.nextafter(np.nextafter(1e300, 0.0), 0.0)]
    with pytest.raises(ValueError, match="logs are all equal"):
        rate_fit(eps, [1.0, 2.0, 3.0])


def test_rate_fits_leaves_out_what_rate_fit_cannot_take():
    from qnslab.diagnostics import rate_fits

    eps = [0.2, 0.1, 0.05]
    good = [e ** 0.5 for e in eps]
    columns = {"good": good, "nan": [1.0, np.nan, 1.0], "inf": [1.0, np.inf, 1.0],
               "zero": [1.0, 0.0, 1.0], "negative": [1.0, -1.0, 1.0], "short": good[:2],
               "long": good + [1.0]}
    fits = rate_fits(eps, columns)
    assert list(fits) == ["good"]
    assert fits["good"] == rate_fit(eps, good)
    assert rate_fits(eps[:2], {"two": good[:2]}) == {}
    # a ladder rate_fit refuses raises once a column is fittable, not before
    assert rate_fits(eps[::-1], {"nan": columns["nan"]}) == {}
    with pytest.raises(ValueError, match="strictly decreasing"):
        rate_fits(eps[::-1], columns)


def test_time_alignment_guard(grid64, rng):
    s, ref, ac = _exact_reference_state(grid64, rng)
    late = AcousticState(sigma=ac.sigma, psi=ac.psi, time=0.5, params=PARAMS)
    with pytest.raises(ValueError, match="times differ"):
        relative_entropy(s, ref, late)


@pytest.mark.parametrize(
    "case, message",
    [("ref-grid", "state, reference and acoustic state must share one grid"),
     ("acoustic-grid", "state, reference and acoustic state must share one grid"),
     ("unsteady-ref-time", "state and reference times differ: 0 vs 0.5"),
     ("corollary-grid", "state and reference must share one grid")],
)
def test_misaligned_inputs_are_refused(grid64, grid32, rng, case, message):
    s, ref, ac = _exact_reference_state(grid64, rng)
    with pytest.raises(ValueError, match=message):
        if case == "ref-grid":
            relative_entropy(s, _zero_ref(grid32), ac)
        elif case == "acoustic-grid":
            relative_entropy(s, ref, _zero_ac(grid32))
        elif case == "unsteady-ref-time":
            relative_entropy(s, EulerReference(v=ref.v, pi=ref.pi, time=0.5), ac)
        else:
            corollary_lhs(s, _zero_ref(grid32))


def test_reference_vacuum_guard(grid64):
    params = LimitParams(0.5, 2.0)
    sigma = ScalarField(grid64, -3.0 * np.abs(np.sin(grid64.x)) - 0.1)
    ac = AcousticState(
        sigma=sigma, psi=ScalarField(grid64, np.zeros_like(grid64.x)), time=0.0, params=params
    )
    n = np.ones_like(grid64.x)
    s = QnsState(
        n=ScalarField(grid64, n),
        m=vector_field(grid64, np.zeros_like(n), np.zeros_like(n)),
        time=0.0,
        params=params,
    )
    from qnslab import VacuumError

    with pytest.raises(VacuumError):
        relative_entropy(s, _zero_ref(grid64), ac)
