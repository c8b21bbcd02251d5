import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_ot import (
    ARITHMETIC_MEAN,
    DimensionMismatchError,
    InvalidDensityError,
    NegativeDensityError,
    TransportProblem,
    UPWIND,
    assemble_residual,
    build_from_edge_list,
    check_cfl,
    divergence,
    dumbbell,
    explicit_upwind_update,
    kruskal,
    level_fields,
    pack,
    pack_fields,
    random_connected_graph,
    seeded_random_density,
    state_size,
    unpack,
)


@pytest.fixture
def two_node():
    return build_from_edge_list([(1, 2, 1.0)])


def two_node_problem(steps=4, model=ARITHMETIC_MEAN):
    g = build_from_edge_list([(1, 2, 1.0)])
    return TransportProblem(g, np.array([0.6, 0.4]), np.array([0.4, 0.6]), steps, model=model)


# -- problem validation --------------------------------------------------------


def test_problem_basics(two_node):
    p = TransportProblem(two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 8)
    assert p.tau == pytest.approx(1.0 / 8.0)
    assert p.tree.tree_edges == [(1, 2)]


def test_problem_rejects_bad_mass(two_node):
    with pytest.raises(InvalidDensityError):
        TransportProblem(two_node, np.array([0.6, 0.5]), np.array([0.4, 0.6]), 4)


def test_problem_rejects_negative_density(two_node):
    with pytest.raises(NegativeDensityError):
        TransportProblem(two_node, np.array([1.1, -0.1]), np.array([0.4, 0.6]), 4)


def test_mean_model_requires_interior_endpoints(two_node):
    with pytest.raises(InvalidDensityError):
        TransportProblem(two_node, np.array([1.0, 0.0]), np.array([0.4, 0.6]), 4)


def test_upwind_model_allows_boundary_endpoints(two_node):
    p = TransportProblem(two_node, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 4, model=UPWIND)
    assert p.model is UPWIND


def test_problem_rejects_wrong_length(two_node):
    with pytest.raises(DimensionMismatchError):
        TransportProblem(two_node, np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.6]), 4)


def test_problem_rejects_zero_steps(two_node):
    with pytest.raises(ValueError):
        TransportProblem(two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 0)


@pytest.mark.parametrize("steps", [2.5, 2.7, float("nan"), float("inf")])
def test_problem_rejects_fractional_steps(two_node, steps):
    with pytest.raises(DimensionMismatchError, match="integer"):
        TransportProblem(two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), steps)


def test_problem_takes_integral_steps(two_node):
    p = TransportProblem(two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), np.int64(3))
    assert p.steps == 3 and type(p.steps) is int


def test_problem_rejects_foreign_tree(two_node):
    other = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValueError):
        TransportProblem(
            two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 4, tree=kruskal(other)
        )
    # the same edges with other weights: the gauge would take the tree's
    triangle = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0)])
    reweighted = build_from_edge_list([(1, 2, 4.0), (2, 3, 9.0), (1, 3, 2.0)])
    mu, nu = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
    with pytest.raises(DimensionMismatchError, match="different graph"):
        TransportProblem(triangle, mu, nu, 32, tree=kruskal(reweighted))
    same = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0)])
    TransportProblem(triangle, mu, nu, 32, tree=kruskal(same))


# -- operators ------------------------------------------------------------------


def test_divergence_two_node_example(two_node):
    div = divergence(two_node, np.array([0.5, 0.5]), np.array([1.0]), ARITHMETIC_MEAN)
    np.testing.assert_allclose(div, [0.5, -0.5])


def test_divergence_zero_velocity(two_node):
    div = divergence(two_node, np.array([0.3, 0.7]), np.array([0.0]), ARITHMETIC_MEAN)
    np.testing.assert_array_equal(div, [0.0, 0.0])


def test_divergence_stacks_levels():
    g = dumbbell(3, 3)
    rng = np.random.Generator(np.random.PCG64(8))
    rho = rng.random((4, g.node_count))
    v = rng.normal(0.0, 1.0, (4, g.edge_count))
    for model in (ARITHMETIC_MEAN, UPWIND):
        rows = [divergence(g, r, w, model) for r, w in zip(rho, v)]
        np.testing.assert_array_equal(divergence(g, rho, v, model), rows)
    with pytest.raises(DimensionMismatchError):
        divergence(g, rho, v[:3])
    with pytest.raises(DimensionMismatchError):
        divergence(g, rho[:, :-1], v)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_divergence_sums_to_zero(n, seed):
    g = random_connected_graph(n, 0.5, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    rho = rng.random(n)
    rho /= rho.sum()
    v = rng.normal(0.0, 2.0, g.edge_count)
    for model in (ARITHMETIC_MEAN, UPWIND):
        div = divergence(g, rho, v, model)
        flux_scale = np.abs(g.sqrt_weights * v).sum() + 1.0
        assert abs(div.sum()) <= 1e-14 * flux_scale


# -- residual -------------------------------------------------------------------


def test_residual_zero_at_stationary_point(two_node):
    mu = np.array([0.55, 0.45])
    p = TransportProblem(two_node, mu, mu.copy(), 5)
    # interior density rows all equal mu, velocities zero
    x = pack_fields(p, np.full((4, 1), mu[0]), np.zeros((6, 1)))
    f = assemble_residual(p, x)
    np.testing.assert_array_equal(f, np.zeros_like(f))


def test_residual_hand_solved_single_step():
    # M = 1: two equations in (v^1, v^2); first gives v^1 = 0.4, second v^2 = v^1
    p = two_node_problem(steps=1)
    x = np.array([0.4, 0.4])
    f = assemble_residual(p, x)
    np.testing.assert_allclose(f, np.zeros(2), atol=1e-15)
    # any other velocity leaves a residual
    assert np.abs(assemble_residual(p, np.array([0.3, 0.4]))).max() > 1e-3


def test_residual_shape_and_finiteness():
    g = dumbbell(3, 3)
    mu = seeded_random_density(6, 0)
    nu = seeded_random_density(6, 1)
    p = TransportProblem(g, mu, nu, 7)
    n = state_size(p)
    assert n == 2 * 7 * 5
    rng = np.random.Generator(np.random.PCG64(3))
    f = assemble_residual(p, rng.normal(0.0, 0.5, n))
    assert f.shape == (n,)
    assert np.all(np.isfinite(f))


def test_residual_defined_off_simplex():
    # iterates may leave the positive simplex; the residual must still evaluate
    p = two_node_problem(steps=3)
    x = pack_fields(p, [[-0.2], [1.4]], [[0.1], [0.2], [0.3], [0.4]])
    assert np.all(np.isfinite(assemble_residual(p, x)))


def test_pack_unpack_bitwise_round_trip():
    g = dumbbell(3, 4)
    p = TransportProblem(g, seeded_random_density(7, 2), seeded_random_density(7, 3), 6)
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.normal(0.0, 1.0, state_size(p))
    traj = unpack(p, x)
    np.testing.assert_array_equal(pack(p, traj), x)


def test_unpack_boundary_rows_exact():
    mu = seeded_random_density(7, 2)
    nu = seeded_random_density(7, 3)
    p = TransportProblem(dumbbell(3, 4), mu, nu, 6)
    traj = unpack(p, np.zeros(state_size(p)))
    np.testing.assert_array_equal(traj.densities[0], mu)
    np.testing.assert_array_equal(traj.densities[-1], nu)
    np.testing.assert_array_equal(traj.tree_velocities, np.zeros((7, 6)))


def test_unpack_rows_sum_to_one():
    p = TransportProblem(
        dumbbell(3, 4), seeded_random_density(7, 2), seeded_random_density(7, 3), 6
    )
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.normal(0.1, 0.2, state_size(p))
    traj = unpack(p, x)
    np.testing.assert_allclose(traj.densities.sum(axis=1), 1.0, atol=1e-12)


def test_unpack_edge_velocities_expand_tree_rows():
    g = dumbbell(3, 3)
    p = TransportProblem(g, seeded_random_density(6, 0), seeded_random_density(6, 1), 4)
    rng = np.random.Generator(np.random.PCG64(9))
    x = rng.normal(0.0, 1.0, state_size(p))
    traj = unpack(p, x)
    np.testing.assert_array_equal(
        traj.edge_velocities, p.tree.expand_velocities(traj.tree_velocities)
    )


def test_level_fields_expands_each_velocity_state_once():
    g = dumbbell(3, 3)
    p = TransportProblem(g, seeded_random_density(6, 0), seeded_random_density(6, 1), 4)
    rng = np.random.Generator(np.random.PCG64(13))
    x = rng.normal(0.0, 1.0, state_size(p))
    _, vel, edge = level_fields(p, x)
    np.testing.assert_array_equal(edge, p.tree.expand_velocities(vel))
    assert not edge.flags.writeable
    with pytest.raises(ValueError):
        edge[0, 0] = 1.0
    # the same velocities, bit for bit: the same array, once
    same = x.copy()
    same[10] += 1.0  # rho^2 at node 1, after v^1 and v^2
    assert level_fields(p, same)[2] is edge
    again = level_fields(p, same)[2]
    assert again is not edge
    np.testing.assert_array_equal(again, edge)
    edge = again
    # any other bits, a signed zero included, are expanded afresh
    for changed in (np.nextafter(x[0], np.inf), -0.0, 0.0):
        y = x.copy()
        y[0] = changed
        _, vel, other = level_fields(p, y)
        assert other is not edge
        np.testing.assert_array_equal(other, p.tree.expand_velocities(vel))
        edge = other


def test_trajectory_times_cover_unit_interval():
    p = two_node_problem(steps=5)
    traj = unpack(p, np.zeros(state_size(p)))
    np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, 6))
    assert traj.steps == 5


# -- explicit update ------------------------------------------------------------


def test_explicit_update_matches_density_residual():
    # F_i = 0 is exactly rho_next = explicit update, for the upwind model
    g = dumbbell(3, 3)
    rng = np.random.Generator(np.random.PCG64(17))
    rho = rng.random(6)
    rho /= rho.sum()
    v = rng.normal(0.0, 1.0, g.edge_count)
    tau = 0.05
    updated = explicit_upwind_update(g, rho, v, tau)
    step = rho - tau * divergence(g, rho, v, UPWIND)
    np.testing.assert_allclose(updated, step, atol=1e-14)


def test_explicit_update_conserves_mass():
    g = random_connected_graph(7, 0.5, 4)
    rho = seeded_random_density(7, 5)
    rng = np.random.Generator(np.random.PCG64(6))
    v = rng.normal(0.0, 1.0, g.edge_count)
    out = explicit_upwind_update(g, rho, v, 0.01)
    assert out.sum() == pytest.approx(1.0, abs=1e-14)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_explicit_update_nonnegative_under_cfl(n, seed):
    g = random_connected_graph(n, 0.5, seed)
    rng = np.random.Generator(np.random.PCG64(seed ^ 0x5EED))
    rho = rng.random(n)
    rho /= rho.sum()
    v = rng.normal(0.0, 2.0, g.edge_count)
    _, tau_star = check_cfl(g, v, 1.0)
    tau = 0.95 * tau_star if np.isfinite(tau_star) else 0.5
    margins, _ = check_cfl(g, v, tau)
    assert margins.min() >= 0.0
    out = explicit_upwind_update(g, rho, v, tau)
    assert out.min() >= 0.0  # exact, not approximate
