import math

import numpy as np
import pytest

from perronlab.semigroup import (
    GridFunction,
    SemigroupGrid,
    boundary_defect,
    constant_one,
    generator_residual,
    grid_function,
    mu_pairing,
    semigroup_apply,
)


@pytest.fixture
def grid():
    return SemigroupGrid(64, 64, 2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        SemigroupGrid(30, 8, 1.0)  # not a multiple of 4
    with pytest.raises(ValueError):
        SemigroupGrid(8, 1, 1.0)
    with pytest.raises(ValueError):
        SemigroupGrid(8, 8, 0.0)


def test_grid_function_shapes(grid):
    f = constant_one(grid)
    assert f.circle.shape == (64,)
    assert f.ray.shape == (65,)
    with pytest.raises(ValueError):
        GridFunction(np.ones(3), np.ones(65), 1.0, grid)


def test_mu_pairing_samples_plus_minus_i(grid):
    f = grid_function(grid, lambda x: x.real + 2 * x.imag, lambda r: 0.0,
                      at_infinity=0.0)
    # mean of the values at i and -i: the imaginary parts cancel
    assert mu_pairing(f) == pytest.approx(0.0, abs=1e-12)
    g = grid_function(grid, lambda x: abs(x.imag), lambda r: 0.0, 0.0)
    assert mu_pairing(g) == pytest.approx(1.0)


def test_time_zero_is_identity(grid):
    f = grid_function(grid, lambda x: x.real ** 2, lambda r: math.exp(-r))
    g = semigroup_apply(grid, 0.0, f)
    assert g.sub(f).sup_norm() <= 1e-14


def test_time_bounds(grid):
    f = constant_one(grid)
    with pytest.raises(ValueError):
        semigroup_apply(grid, -0.1, f)
    with pytest.raises(ValueError):
        semigroup_apply(grid, 3.0, f)


def test_circle_part_rotates(grid):
    # one full grid step: exact shift of the sampled values
    t = 2 * math.pi / grid.M
    f = grid_function(grid, lambda x: x.real ** 3, lambda r: 0.0, 0.0)
    g = semigroup_apply(grid, t, f)
    assert np.abs(g.circle - np.roll(f.circle, 1)).max() <= 1e-12


def test_ray_transport_above_front(grid):
    f = grid_function(grid, lambda x: 0.0, lambda r: r, at_infinity=grid.L)
    t = 0.5
    g = semigroup_apply(grid, t, f)
    xs = grid.ray
    above = xs >= t
    assert np.abs(g.ray[above] - (xs[above] - t)).max() <= 1e-12


def test_constants_fixed_markov(grid):
    one = constant_one(grid)
    g = semigroup_apply(grid, 0.7, one)
    # exact in the circle and above the front; quadrature error below it
    assert g.sub(one).sup_norm() <= 0.05


def test_markov_defect_decreases_with_refinement():
    defects = []
    for M in (64, 128, 256):
        grid = SemigroupGrid(M, M, 2.0)
        one = constant_one(grid)
        defects.append(semigroup_apply(grid, 0.7, one).sub(one).sup_norm())
    assert defects[1] <= defects[0] / 1.6
    assert defects[2] <= defects[1] / 1.6


def test_semigroup_composition(grid):
    f = grid_function(grid, lambda x: x.real, lambda r: 0.0, 0.0)
    a = semigroup_apply(grid, 0.3, semigroup_apply(grid, 0.4, f))
    b = semigroup_apply(grid, 0.7, f)
    assert a.sub(b).sup_norm() <= 0.05


def test_generator_eigenfunction_residual(grid):
    f = grid_function(grid, lambda x: 1.0 / x, lambda r: 0.0, 0.0)
    resid = generator_residual(grid, f, 1j, h=1e-3)
    assert resid <= 0.05
    with pytest.raises(ValueError):
        generator_residual(grid, f, 1j, h=0.0)


def test_boundary_defect_discriminates(grid):
    # the first-harmonic eigenfunction satisfies the boundary relation
    good = grid_function(grid, lambda x: 1.0 / x, lambda r: 0.0, 0.0)
    assert boundary_defect(grid, good) <= 0.05
    bad = grid_function(grid, lambda x: 1.0 / x ** 2, lambda r: 0.0, 0.0)
    assert boundary_defect(grid, bad) >= 0.3


@pytest.mark.parametrize("M", [64, 256])
@pytest.mark.parametrize("t", [0.3, 1.5])
def test_trig_closed_form(M, t):
    # circle 1 + x^2, ray 1: the circle rotates to 1 + e^{2i(theta - t)};
    # mu pairs it to 1 - e^{-2is}, so a node at distance u behind the front
    # holds 1 - e^{-u} (e^{(1-2i)u} - 1) / (1 - 2i)
    grid = SemigroupGrid(M, M, 2.0)
    f = grid_function(grid, lambda x: 1 + x * x, lambda r: 1.0)
    g = semigroup_apply(grid, t, f, interp="trig")
    tol = t * (2 * math.pi / M) ** 2 + 1e-12
    assert np.abs(g.circle - (1 + np.exp(2j * (grid.angles - t)))).max() <= tol
    u = np.maximum(t - grid.ray, 0.0)
    exact = 1 - np.exp(-u) * (np.exp((1 - 2j) * u) - 1) / (1 - 2j)
    assert np.abs(g.ray - exact).max() <= tol
    assert g.infinity == f.infinity


def _trig_reference(grid, t, f):
    """Trigonometric interpolation by a Fourier sum at every point and a
    composite trapezoid per ray node behind the front."""
    M = grid.M
    a = np.fft.fft(f.circle) / M
    k = np.fft.fftfreq(M, d=1.0 / M)

    def circle_at(thetas):
        return np.array([np.sum(a * np.exp(1j * k * th)) for th in thetas])

    top, bottom = 0.5 * math.pi, 1.5 * math.pi
    ray = np.empty(grid.N + 1, dtype=complex)
    for j, x in enumerate(grid.ray):
        if x >= t:
            ray[j] = np.interp(x - t, grid.ray, f.ray.real) \
                + 1j * np.interp(x - t, grid.ray, f.ray.imag)
            continue
        u = t - x
        n = max(4, int(math.ceil(u * M / (2.0 * math.pi))) * 2)
        s = np.linspace(0.0, u, n + 1)
        mu = 0.5 * (circle_at(top - s) + circle_at(bottom - s))
        ray[j] = math.exp(-u) * (f.ray[0] + np.trapezoid(np.exp(s) * mu, s))
    return circle_at(grid.angles - t), ray


@pytest.mark.parametrize("t", [0.05, 0.7, 2.0])
def test_trig_matches_direct_reference(t):
    grid = SemigroupGrid(32, 32, 2.0)
    rng = np.random.default_rng(7)
    f = GridFunction(rng.normal(size=32) + 1j * rng.normal(size=32),
                     rng.normal(size=33) + 1j * rng.normal(size=33),
                     rng.normal(), grid)
    g = semigroup_apply(grid, t, f, interp="trig")
    circle, ray = _trig_reference(grid, t, f)
    assert np.abs(g.circle - circle).max() <= 1e-12
    assert np.abs(g.ray - ray).max() <= 1e-12


def test_trig_edge_times(grid):
    f = grid_function(grid, lambda x: x.real ** 3 + 1j * x.imag,
                      lambda r: math.cos(r))
    assert semigroup_apply(grid, 0.0, f, interp="trig").sub(f).sup_norm() \
        <= 1e-12
    g = semigroup_apply(grid, 2 * math.pi / grid.M, f, interp="trig")
    assert np.abs(g.circle - np.roll(f.circle, 1)).max() <= 1e-12


def test_unknown_interp_rejected(grid):
    with pytest.raises(ValueError):
        semigroup_apply(grid, 0.5, constant_one(grid), interp="cubic")
