"""Post-processing of solved trajectories.

Two Wasserstein distance estimators, Hamiltonian drift along the discrete
geodesic, and 1-d transport-map recovery against an analytic map.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NotA1DLatticeError
from .graph import Lattice1D, WeightedGraph
from .mobility import Mobility
from .system import Trajectory

__all__ = [
    "w2_action",
    "w2_initial",
    "hamiltonian_drift",
    "map_error_1d",
]


# the velocities of a diverged solve may overflow when squared; its status
# says so, and its energies come out inf or NaN without a warning
_diverged_quietly = np.errstate(over="ignore", invalid="ignore")


def _level_energy(
    trajectory: Trajectory, graph: WeightedGraph, model: Mobility
) -> np.ndarray:
    """sum_edges theta * v^2 at every level, each undirected edge once."""
    rho = trajectory.densities
    v = trajectory.edge_velocities
    th = model.theta_values(rho[:, graph.tail], rho[:, graph.head], v)
    return np.sum(th * v * v, axis=1)


@_diverged_quietly
def w2_action(
    trajectory: Trajectory, graph: WeightedGraph, model: Mobility
) -> float:
    """Left-Riemann action a = sum_{m=1..M} tau * sum_edges theta(rho^m) v_m^2.

    sqrt(a) estimates the Wasserstein distance between the endpoints.
    """
    m = trajectory.steps
    tau = 1.0 / m
    return float(tau * _level_energy(trajectory, graph, model)[:m].sum())


@_diverged_quietly
def w2_initial(
    trajectory: Trajectory, graph: WeightedGraph, model: Mobility
) -> float:
    """Initial kinetic energy b = sum_edges theta(rho^1) (v^1)^2."""
    return float(_level_energy(trajectory, graph, model)[0])


@_diverged_quietly
def hamiltonian_drift(
    trajectory: Trajectory, graph: WeightedGraph, model: Mobility
) -> float:
    """max_m |H(rho^m, v^m) - H(rho^1, v^1)| over all M+1 levels."""
    energy = 0.5 * _level_energy(trajectory, graph, model)
    return float(np.abs(energy - energy[0]).max())


def _effective_edges_per_level(
    velocities: np.ndarray, graph: WeightedGraph, threshold: float
) -> list[list[list[int]]]:
    """Per row of ``velocities`` (levels by edges), the edges (i, j) whose
    velocity magnitude strictly exceeds ``threshold``, as [i, j] lists.

    One comparison over all levels; numpy converts each level's edges.
    """
    ends = np.column_stack([graph.tail, graph.head]) + 1
    return [ends[above].tolist() for above in np.abs(velocities) > threshold]


def _forward_edge_velocities(
    trajectory: Trajectory, graph: WeightedGraph
) -> np.ndarray:
    """Initial velocity on the edge leaving each node in +x direction.

    Entry k is the level-1 velocity on the edge from node k+1 to node k+2
    (1-based), oriented in increasing coordinate; the wrap edge (1, N) is
    canonically oriented against increasing x, hence the sign flip.
    """
    geom = graph.geometry
    n = geom.grid_points
    v1 = trajectory.edge_velocities[0]
    forward = np.empty(n)
    for k in range(n - 1):
        forward[k] = v1[graph.edge_position(k + 1, k + 2)]
    forward[n - 1] = -v1[graph.edge_position(1, n)]
    return forward


def map_error_1d(
    trajectory: Trajectory,
    graph: WeightedGraph,
    exact_map: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Max-norm error of the recovered transport map on a periodic 1-d lattice.

    The numerical map is T(x_i) = x_i + u_i with u_i the initial velocity
    of the edge leaving node i in +x direction; distances are measured with
    periodic wrap on the lattice circumference.  Edge velocities sit at
    midpoints, so u carries the O(dx/2 * |u'|) offset of first-order map
    benchmarks.
    """
    geom = graph.geometry
    if not isinstance(geom, Lattice1D):
        raise NotA1DLatticeError("map recovery needs a periodic 1-d lattice")

    x = geom.coordinates()
    mapped = x + _forward_edge_velocities(trajectory, graph)
    exact = np.asarray(exact_map(x), dtype=float)
    length = geom.length
    diff = np.abs(mapped - exact) % length
    return float(np.minimum(diff, length - diff).max())
