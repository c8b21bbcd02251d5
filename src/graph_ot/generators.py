"""Benchmark density profiles and seeded random inputs.

Every random quantity flows from numpy's PCG64 stream with an explicit
integer seed, so scenario inputs are reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import InputFormatError, NotA1DLatticeError, NotA2DLatticeError, TooFewNodesError
from .graph import Lattice1D, Lattice2D, WeightedGraph

__all__ = [
    "gaussian_density_1d",
    "gaussian_density_2d",
    "benchmark_1d_map_densities",
    "benchmark_1d_exact_map",
    "BENCHMARK_1D_W2",
    "seeded_random_density",
    "uniform_density",
    "random_connected_graph",
]


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InputFormatError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def gaussian_density_1d(
    graph: WeightedGraph, a: float, b: float, r: float
) -> np.ndarray:
    """Normalized samples of exp(-a (x - b)^2) + r on a 1-d lattice.

    r > 0 keeps the density strictly positive far from the bump.
    """
    geom = graph.geometry
    if not isinstance(geom, Lattice1D):
        raise NotA1DLatticeError("gaussian_density_1d needs a periodic 1-d lattice")
    x = geom.coordinates()
    values = np.exp(-a * (x - b) ** 2) + r
    return values / values.sum()


def gaussian_density_2d(
    graph: WeightedGraph,
    a: float,
    c: float,
    b: float,
    d: float,
    w: float = 1.0,
    eps: float = 0.0,
) -> np.ndarray:
    """Normalized samples of w exp(-a (x1-b)^2 - c (x2-d)^2) + eps on a grid."""
    geom = graph.geometry
    if not isinstance(geom, Lattice2D):
        raise NotA2DLatticeError("gaussian_density_2d needs a periodic 2-d lattice")
    xy = geom.coordinates()
    values = w * np.exp(-a * (xy[:, 0] - b) ** 2 - c * (xy[:, 1] - d) ** 2) + eps
    return values / values.sum()


def benchmark_1d_map_densities(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark endpoint pair: mu ~ 1 + sin(2 pi x)/32, nu uniform.

    Both are normalized node samples on a periodic 1-d lattice over [0, 1];
    the transport map between the continuum profiles is known in closed
    form (see ``benchmark_1d_exact_map``).
    """
    geom = graph.geometry
    if not isinstance(geom, Lattice1D):
        raise NotA1DLatticeError("the map benchmark needs a periodic 1-d lattice")
    x = geom.coordinates()
    values = 1.0 + np.sin(2.0 * np.pi * x) / 32.0
    mu = values / values.sum()
    nu = np.full(graph.node_count, 1.0 / graph.node_count)
    return mu, nu


def benchmark_1d_exact_map(x: np.ndarray) -> np.ndarray:
    """Optimal map for the sinusoidal benchmark: (x - cos(2 pi x)/(64 pi)) mod 1.

    The stationary flux f solves f' = rho0 - rho1 = sin(2 pi x)/32, so the
    mean-zero initial velocity is u(x) = -cos(2 pi x)/(64 pi) and the map is
    identity plus u.  (The plus-cos variant pushes the uniform density onto
    rho0, i.e. it is the inverse map.)
    """
    return (x - np.cos(2.0 * np.pi * x) / (64.0 * np.pi)) % 1.0


# closed-form distance for the sinusoidal benchmark: the displacement is
# u(x) = -cos(2 pi x)/(64 pi) against a near-uniform density, so
# W2^2 = int u^2 = (1/2) / (64 pi)^2 to leading order
BENCHMARK_1D_W2 = np.sqrt(0.5) / (64.0 * np.pi)


def seeded_random_density(node_count: int, seed: int) -> np.ndarray:
    """Deterministic random density: components uniform on (0.05, 1), normalized.

    Uses numpy's PCG64 stream, so a given (node_count, seed) pair yields the
    same vector everywhere.  The 0.05 floor bounds each normalized component
    below by 0.05/node_count.
    """
    if node_count < 2:
        raise TooFewNodesError("a density needs at least 2 components")
    raw = 0.05 + 0.95 * _rng(seed).random(node_count)
    return raw / raw.sum()


def uniform_density(node_count: int) -> np.ndarray:
    """The uniform density 1/N."""
    if node_count < 2:
        raise TooFewNodesError("a density needs at least 2 components")
    return np.full(node_count, 1.0 / node_count)


def random_connected_graph(
    node_count: int, extra_edge_probability: float = 0.3, seed: int = 0
) -> WeightedGraph:
    """Seeded random connected graph with unit weights.

    A random recursive tree guarantees connectivity; every remaining node
    pair is added independently with ``extra_edge_probability``.
    """
    if node_count < 2:
        raise TooFewNodesError("need at least 2 nodes")
    if not (0.0 <= extra_edge_probability <= 1.0):
        raise ValueError("extra_edge_probability must lie in [0, 1]")
    rng = _rng(seed)
    order = rng.permutation(node_count) + 1
    edges = set()
    for k in range(1, node_count):
        attach = order[rng.integers(k)]
        a, b = int(order[k]), int(attach)
        edges.add((min(a, b), max(a, b)))
    for a in range(1, node_count + 1):
        for b in range(a + 1, node_count + 1):
            if (a, b) not in edges and rng.random() < extra_edge_probability:
                edges.add((a, b))
    edge_list = sorted(edges)
    return WeightedGraph(node_count, edge_list, [1.0] * len(edge_list))
