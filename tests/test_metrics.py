import numpy as np
import pytest

from graph_ot import (
    ARITHMETIC_MEAN,
    NotA1DLatticeError,
    Trajectory,
    TransportProblem,
    UPWIND,
    build_from_edge_list,
    dumbbell,
    hamiltonian_drift,
    lattice_1d_periodic,
    map_error_1d,
    newton_solve,
    seeded_random_density,
    uniform_density,
    w2_action,
    w2_initial,
)
from graph_ot.metrics import _effective_edges_per_level


def constant_two_node_trajectory(steps, velocity=0.4):
    """rho = (1/2, 1/2) at every level, constant edge velocity."""
    times = np.linspace(0.0, 1.0, steps + 1)
    rho = np.full((steps + 1, 2), 0.5)
    v = np.full((steps + 1, 1), velocity)
    return Trajectory(times, rho, v, v.copy())


@pytest.fixture(scope="module")
def two_node_graph():
    return build_from_edge_list([(1, 2, 1.0)])


# -- distance estimators ---------------------------------------------------------


@pytest.mark.parametrize("steps", [1, 2, 7, 32])
def test_w2_action_constant_example(two_node_graph, steps):
    # tau * M * theta * v^2 = 0.5 * 0.16 = 0.08 for every step count
    traj = constant_two_node_trajectory(steps)
    assert w2_action(traj, two_node_graph, ARITHMETIC_MEAN) == pytest.approx(0.08)


def test_w2_initial_constant_example(two_node_graph):
    traj = constant_two_node_trajectory(5)
    assert w2_initial(traj, two_node_graph, ARITHMETIC_MEAN) == pytest.approx(0.08)


def test_w2_action_zero_for_zero_velocity(two_node_graph):
    traj = constant_two_node_trajectory(4, velocity=0.0)
    assert w2_action(traj, two_node_graph, ARITHMETIC_MEAN) == 0.0
    assert w2_initial(traj, two_node_graph, ARITHMETIC_MEAN) == 0.0


def test_w2_action_ignores_final_level(two_node_graph):
    # left-Riemann sum: level M+1 carries no weight
    traj = constant_two_node_trajectory(4)
    traj.edge_velocities[-1] = 100.0
    traj.tree_velocities[-1] = 100.0
    assert w2_action(traj, two_node_graph, ARITHMETIC_MEAN) == pytest.approx(0.08)


def test_w2_action_upwind_uses_donor_density(two_node_graph):
    times = np.linspace(0.0, 1.0, 3)
    rho = np.tile([0.7, 0.3], (3, 1))
    v = np.full((3, 1), 2.0)  # donor is node 1
    traj = Trajectory(times, rho, v, v.copy())
    assert w2_action(traj, two_node_graph, UPWIND) == pytest.approx(0.7 * 4.0)


# -- hamiltonian drift ------------------------------------------------------------


def test_drift_zero_on_constant_energy(two_node_graph):
    traj = constant_two_node_trajectory(8)
    assert hamiltonian_drift(traj, two_node_graph, ARITHMETIC_MEAN) == 0.0


def test_drift_measured_against_first_level(two_node_graph):
    traj = constant_two_node_trajectory(2)
    traj.edge_velocities[1] = 0.8  # energy quadruples at one level
    drift = hamiltonian_drift(traj, two_node_graph, ARITHMETIC_MEAN)
    assert drift == pytest.approx(0.5 * 0.5 * (0.8**2 - 0.4**2))


def test_drift_small_on_solved_geodesic():
    g = dumbbell(3, 3)
    p = TransportProblem(g, seeded_random_density(6, 0), seeded_random_density(6, 1), 64)
    report = newton_solve(p)
    assert report.converged
    drift = hamiltonian_drift(report.trajectory, g, ARITHMETIC_MEAN)
    assert drift < 0.05 * report.w2_initial


# -- effective topology ------------------------------------------------------------


def velocity_trajectory(graph, steps, v_row):
    times = np.linspace(0.0, 1.0, steps + 1)
    rho = np.tile(uniform_density(graph.node_count), (steps + 1, 1))
    ve = np.tile(v_row, (steps + 1, 1))
    vt = np.zeros((steps + 1, graph.node_count - 1))
    return Trajectory(times, rho, vt, ve)


def test_effective_edges_strict_threshold():
    g = build_from_edge_list([(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
    traj = velocity_trajectory(g, 4, np.array([0.5, -0.2, 0.05]))
    v = traj.edge_velocities
    # canonical edge order (1,2), (1,3), (2,3)
    assert _effective_edges_per_level(v, g, 0.1)[0] == [[1, 2], [1, 3]]
    assert _effective_edges_per_level(v, g, 0.5)[0] == []  # strict: |v| == threshold drops
    assert _effective_edges_per_level(v, g, 0.2)[0] == [[1, 2]]
    assert _effective_edges_per_level(v, g, -1.0)[0] == [[1, 2], [1, 3], [2, 3]]
    # one row per level, 1..M+1
    assert _effective_edges_per_level(v, g, 0.1) == [[[1, 2], [1, 3]]] * 5


def test_effective_edges_nested_in_threshold():
    g = dumbbell(3, 3)
    rng = np.random.Generator(np.random.PCG64(2))
    traj = velocity_trajectory(g, 3, rng.normal(0.0, 1.0, g.edge_count))
    previous = None
    for threshold in [0.0, 0.3, 0.6, 1.2, 2.4]:
        level_2 = _effective_edges_per_level(traj.edge_velocities, g, threshold)[1]
        current = {tuple(e) for e in level_2}
        if previous is not None:
            assert current <= previous
        previous = current



# -- map recovery -------------------------------------------------------------------


def lattice_trajectory(graph, forward_velocities):
    """Level-1 edge field with prescribed +x velocities on a 1-d ring.

    forward_velocities[k] rides the edge from node k+1 to node k+2; the wrap
    edge (1, n) is canonically oriented 1 -> n, i.e. against +x.
    """
    geom = graph.geometry
    n = geom.grid_points
    v1 = np.zeros(graph.edge_count)
    for k in range(n - 1):
        v1[graph.edge_position(k + 1, k + 2)] = forward_velocities[k]
    v1[graph.edge_position(1, n)] = -forward_velocities[n - 1]
    times = np.linspace(0.0, 1.0, 3)
    rho = np.tile(uniform_density(n), (3, 1))
    ve = np.tile(v1, (3, 1))
    vt = np.zeros((3, n - 1))
    return Trajectory(times, rho, vt, ve)


def test_map_error_zero_velocity_identity():
    g = lattice_1d_periodic(16, 1.0)
    traj = lattice_trajectory(g, np.zeros(16))
    assert map_error_1d(traj, g, lambda x: x) == 0.0


def test_map_error_forward_reads_plus_x_edge():
    g = lattice_1d_periodic(8, 1.0)
    u = np.linspace(0.01, 0.08, 8)
    traj = lattice_trajectory(g, u)
    x = g.geometry.coordinates()
    exact = dict(zip(x, x + u))
    assert map_error_1d(traj, g, lambda q: np.array([exact[xi] for xi in q])) < 1e-15
    # a constant offset in the exact map shows up in the max norm
    assert map_error_1d(traj, g, lambda q: q) == pytest.approx(0.08)


def test_map_error_periodic_wrap():
    g = lattice_1d_periodic(10, 1.0)
    traj = lattice_trajectory(g, np.zeros(10))
    # shifting the exact map by a full period changes nothing
    assert map_error_1d(traj, g, lambda x: x + 1.0) < 1e-12
    # distance between 0.02 and 0.98 wraps to 0.04
    assert map_error_1d(traj, g, lambda x: x - 0.02) == pytest.approx(0.02)
    assert map_error_1d(traj, g, lambda x: x + 0.98) == pytest.approx(0.02)


def test_map_error_requires_lattice_geometry():
    g = dumbbell(3, 3)
    traj = velocity_trajectory(g, 2, np.zeros(g.edge_count))
    with pytest.raises(NotA1DLatticeError):
        map_error_1d(traj, g, lambda x: x)
