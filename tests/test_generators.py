import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    BENCHMARK_1D_W2,
    InputFormatError,
    NotA1DLatticeError,
    NotA2DLatticeError,
    TooFewNodesError,
    benchmark_1d_exact_map,
    benchmark_1d_map_densities,
    dumbbell,
    gaussian_density_1d,
    gaussian_density_2d,
    lattice_1d_periodic,
    lattice_2d_periodic,
    random_connected_graph,
    seeded_random_density,
    uniform_density,
)


# -- gaussian profiles ------------------------------------------------------------


def test_gaussian_1d_normalized_and_positive():
    g = lattice_1d_periodic(64, 4.0, origin=-1.0)
    rho = gaussian_density_1d(g, 15.0, 1.4, 1e-4)
    assert rho.sum() == pytest.approx(1.0, abs=1e-14)
    assert rho.min() > 0.0
    # the bump sits near x = 1.4
    x = g.geometry.coordinates()
    assert abs(x[np.argmax(rho)] - 1.4) <= g.geometry.spacing


def test_gaussian_1d_offset_floor():
    g = lattice_1d_periodic(32, 4.0, origin=-1.0)
    rho = gaussian_density_1d(g, 200.0, 0.0, 1e-4)
    # far from the bump the floor r dominates: min >= r / (sum of raw values)
    assert rho.min() >= 1e-4 / (1.0 + 32 * 1e-4 + 32)


def test_gaussian_1d_needs_lattice():
    with pytest.raises(NotA1DLatticeError):
        gaussian_density_1d(dumbbell(3, 3), 1.0, 0.0, 0.1)


def test_gaussian_2d_normalized_and_centered():
    g = lattice_2d_periodic(16, 16, 4.0, origin=-1.0)
    rho = gaussian_density_2d(g, 10.0, 10.0, 0.5, 1.5, 1.0, 1e-4)
    assert rho.sum() == pytest.approx(1.0, abs=1e-14)
    assert rho.min() > 0.0
    xy = g.geometry.coordinates()
    peak = xy[np.argmax(rho)]
    assert abs(peak[0] - 0.5) <= g.geometry.spacing
    assert abs(peak[1] - 1.5) <= g.geometry.spacing


def test_gaussian_2d_needs_grid():
    g = lattice_1d_periodic(16, 1.0)
    with pytest.raises(NotA2DLatticeError):
        gaussian_density_2d(g, 1.0, 1.0, 0.0, 0.0)


# -- sinusoidal map benchmark ------------------------------------------------------


def test_benchmark_densities_shape_and_mass():
    g = lattice_1d_periodic(128, 1.0)
    mu, nu = benchmark_1d_map_densities(g)
    assert mu.sum() == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(nu, 1.0 / 128)
    # mu oscillates around uniform with relative amplitude ~1/32
    assert mu.max() / mu.min() == pytest.approx(33.0 / 31.0, rel=1e-3)


def test_benchmark_densities_need_lattice():
    with pytest.raises(NotA1DLatticeError):
        benchmark_1d_map_densities(dumbbell(4, 4))


def test_exact_map_fixed_points_and_range():
    # cos vanishes at x = 1/4 and 3/4, so those points do not move
    x = np.array([0.25, 0.75])
    np.testing.assert_allclose(benchmark_1d_exact_map(x), x, atol=1e-15)
    grid = np.linspace(0.0, 1.0, 513)
    out = benchmark_1d_exact_map(grid)
    assert np.all((out >= 0.0) & (out < 1.0))


def test_exact_map_pushes_sine_density_to_uniform():
    # change of variables: T pushes rho0 = 1 + sin(2 pi x)/32 forward to 1
    # exactly when T'(x) = rho0(x); check the derivative numerically
    x = np.linspace(0.0, 1.0, 2049)[:-1]
    h = 1e-6
    lift = lambda q: q - np.cos(2.0 * np.pi * q) / (64.0 * np.pi)  # noqa: E731
    deriv = (lift(x + h) - lift(x - h)) / (2.0 * h)
    rho0 = 1.0 + np.sin(2.0 * np.pi * x) / 32.0
    np.testing.assert_allclose(deriv, rho0, atol=1e-9)


def test_exact_map_displacement_is_mean_zero():
    x = np.linspace(0.0, 1.0, 4096, endpoint=False)
    lift = x - np.cos(2.0 * np.pi * x) / (64.0 * np.pi)
    assert abs((lift - x).mean()) < 1e-15


def test_benchmark_w2_closed_form():
    # W2^2 = int_0^1 u(x)^2 dx with u = -cos(2 pi x)/(64 pi)
    x = np.linspace(0.0, 1.0, 1 << 16, endpoint=False)
    u = -np.cos(2.0 * np.pi * x) / (64.0 * np.pi)
    assert np.sqrt(np.mean(u * u)) == pytest.approx(BENCHMARK_1D_W2, rel=1e-12)
    assert BENCHMARK_1D_W2 == pytest.approx(np.sqrt(0.5) / (64.0 * np.pi))


# -- seeded randomness --------------------------------------------------------------


def test_random_density_deterministic():
    np.testing.assert_array_equal(
        seeded_random_density(10, 123), seeded_random_density(10, 123)
    )


def test_random_density_seed_sensitivity():
    vectors = [seeded_random_density(8, s) for s in range(10)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert not np.array_equal(vectors[i], vectors[j])


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=50, deadline=None)
def test_random_density_mass_and_floor(n, seed):
    rho = seeded_random_density(n, seed)
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert rho.min() >= 0.05 / n


def test_negative_seed_is_rejected():
    with pytest.raises(InputFormatError, match="seed"):
        seeded_random_density(4, -1)
    with pytest.raises(InputFormatError, match="seed"):
        random_connected_graph(4, 0.3, -2)


def test_random_density_too_small():
    with pytest.raises(TooFewNodesError):
        seeded_random_density(1, 0)


def test_uniform_density():
    np.testing.assert_array_equal(uniform_density(4), np.full(4, 0.25))
    with pytest.raises(TooFewNodesError):
        uniform_density(1)


# -- random graphs -------------------------------------------------------------------


def test_random_graph_deterministic():
    a = random_connected_graph(10, 0.3, 7)
    b = random_connected_graph(10, 0.3, 7)
    assert a.edges == b.edges


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_random_graph_connected_unit_weights(n, seed):
    g = random_connected_graph(n, 0.3, seed)
    assert g.node_count == n
    assert g.edge_count >= n - 1
    np.testing.assert_array_equal(g.weights, np.ones(g.edge_count))


def test_random_graph_probability_extremes():
    tree = random_connected_graph(9, 0.0, 3)
    assert tree.edge_count == 8
    full = random_connected_graph(9, 1.0, 3)
    assert full.edge_count == 9 * 8 // 2


def test_random_graph_rejects_bad_arguments():
    with pytest.raises(TooFewNodesError):
        random_connected_graph(1, 0.3, 0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 1.5, 0)
