import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qnslab import (
    DIVERGENCE,
    POTENTIAL,
    LimitParams,
    ScalarField,
    VacuumError,
    bohm_force,
    integrate,
    p_prime_at_one,
    random_band_limited,
)
from qnslab.constitutive import _free_energy_values


def test_limit_params_derived_exponents():
    p = LimitParams(0.1, 2.0)
    assert p.lam == 2.0
    assert p.rate == 0.5
    p3 = LimitParams(0.1, 3.0)
    assert p3.lam == 2.0
    assert p3.rate == pytest.approx(1 / 3)
    p_low = LimitParams(0.1, 1.25)
    assert p_low.lam == 1.25
    assert p_low.rate == pytest.approx(0.2)


def test_limit_params_validation():
    with pytest.raises(ValueError):
        LimitParams(0.0, 2.0)
    with pytest.raises(ValueError):
        LimitParams(1.0, 2.0)
    with pytest.raises(ValueError):
        LimitParams(0.1, 1.0)


def test_free_energy_values():
    twos = np.full((64, 64), 2.0)
    assert np.abs(_free_energy_values(twos, 2.0, 0) - 1.0).max() < 1e-14

    ones = np.ones((64, 64))
    for order, expected in [(0, 0.0), (1, 0.0), (2, 1.7)]:
        assert np.abs(_free_energy_values(ones, 1.7, order) - expected).max() < 1e-14

    halves = np.full((64, 64), 0.5)
    oracle = (0.5 ** 1.4 + 0.7 - 1.0) / 0.4
    assert oracle == pytest.approx(0.1973, abs=5e-5)
    assert np.abs(_free_energy_values(halves, 1.4, 0) - oracle).max() < 1e-14


def test_p_prime_at_one_equals_gamma():
    for gamma in (1.2, 1.4, 2.0, 3.0):
        assert p_prime_at_one(gamma) == pytest.approx(gamma, rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.05, 4.0),
    b=st.floats(0.05, 4.0),
    gamma=st.floats(1.1, 3.5),
)
def test_free_energy_convexity(a, b, gamma):
    def h(x, order):
        return _free_energy_values(np.full((8, 8), x), gamma, order)[0, 0]

    gap = h(a, 0) - h(b, 1) * (a - b) - h(b, 0)
    assert gap >= -1e-12


def test_bohm_force_constant_density(grid64):
    c = ScalarField(grid64, np.full((64, 64), 1.3))
    for form in (POTENTIAL, DIVERGENCE):
        f = bohm_force(c, form)
        assert np.abs(f.x.values).max() < 1e-12
        assert np.abs(f.y.values).max() < 1e-12


def test_bohm_force_vacuum_guard(grid64):
    bad = np.ones((64, 64))
    bad[0, 0] = 1e-9
    with pytest.raises(VacuumError) as err:
        bohm_force(ScalarField(grid64, bad), DIVERGENCE)
    assert err.value.min_n == pytest.approx(1e-9)


def _bohm_symbolic_oracle_1d(amplitude=0.1):
    x = sympy.Symbol("x")
    n = 1 + amplitude * sympy.cos(x)
    s = sympy.sqrt(n)
    expr = 2 * n * sympy.diff(sympy.diff(s, x, 2) / s, x)
    return sympy.lambdify(x, sympy.simplify(expr), "numpy")


def test_bohm_force_against_symbolic_oracle(grid64):
    n = ScalarField(grid64, 1.0 + 0.1 * np.cos(grid64.x))
    oracle = _bohm_symbolic_oracle_1d(0.1)(grid64.x)
    for form in (POTENTIAL, DIVERGENCE):
        f = bohm_force(n, form)
        assert np.abs(f.x.values - oracle).max() < 1e-8
        assert np.abs(f.y.values).max() < 1e-8


def test_bohm_forms_agree_on_random_density():
    from qnslab import Grid2D

    g = Grid2D(128)
    rng = np.random.default_rng(7)
    bump = random_band_limited(g, 4, rng, 0.3)
    n = ScalarField(g, 1.0 + bump.values)
    assert n.values.min() > 0.5
    f_pot = bohm_force(n, POTENTIAL)
    f_div = bohm_force(n, DIVERGENCE)
    scale = max(np.abs(f_pot.x.values).max(), np.abs(f_pot.y.values).max())
    err = max(
        np.abs(f_pot.x.values - f_div.x.values).max(),
        np.abs(f_pot.y.values - f_div.y.values).max(),
    )
    assert err / scale < 1e-8


def test_bohm_force_has_zero_mean(grid64, rng):
    bump = random_band_limited(grid64, 6, rng, 0.3)
    n = ScalarField(grid64, 1.0 + bump.values)
    for form in (POTENTIAL, DIVERGENCE):
        f = bohm_force(n, form)
        scale = max(np.abs(f.x.values).max(), 1e-30)
        assert abs(integrate(f.x)) < 1e-10 * scale
        assert abs(integrate(f.y)) < 1e-10 * scale


def test_bohm_rejects_unknown_form(grid64):
    n = ScalarField(grid64, np.ones((64, 64)))
    with pytest.raises(ValueError):
        bohm_force(n, "mystery")


def _lions_two_sided_ratios(gamma, rng, grid, n_samples=12):
    """Empirical int H / (A + B) over a density corpus spanning small
    and order-one deviations."""
    h2 = grid.spacing ** 2
    ratios = []
    for i in range(n_samples):
        amp = 0.05 + 1.15 * i / (n_samples - 1)
        base = random_band_limited(grid, 6, rng, amp)
        n = np.exp(base.values)  # positive, deviations on both sides of 1
        dev = n - 1.0
        small = np.abs(dev) < 1.0
        a_part = (dev[small] ** 2).sum() * h2
        b_part = (np.abs(dev[~small]) ** gamma).sum() * h2
        h_int = (((n ** gamma - gamma * dev - 1.0) / (gamma - 1.0))).sum() * h2
        ratios.append(h_int / (a_part + b_part))
    return ratios


def test_lions_two_sided_bounds(grid32, rng):
    for gamma in (1.2, 1.5, 2.0, 2.5, 3.0):
        ratios = _lions_two_sided_ratios(gamma, rng, grid32)
        c1, c2 = min(ratios), max(ratios)
        assert 0 < c1 <= c2 < np.inf
        assert c1 >= 1e-3


def test_divergence_form_takes_five_calls(grid64, rng, fft_counts):
    # forward sqrt(n), inverse grad s, forward n, forward the three stress
    # components in one stack, inverse the force: 5 / 4 transforms
    n = ScalarField(grid64, 1.0 + random_band_limited(grid64, 4, rng, 0.3).values)
    fft_counts.update(fwd=0, inv=0, calls=0)
    bohm_force(n, DIVERGENCE)
    assert fft_counts == {"fwd": 5, "inv": 4, "calls": 5}, fft_counts
