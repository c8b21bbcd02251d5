"""The benchmark's workloads: the operations each one runs, made from a seed.

An operation is one ``run_scenario`` call.  The benchmark makes every input
itself (graph and density files, lattice offsets, bump parameters) and hands
the program only those inputs.  Each operation also carries the endpoint
densities the checker compares against and the checks its artifact must
pass.

Seeds perturb fixed reference inputs instead of drawing fresh ones.  Fresh
random endpoint densities changed single operations' Newton iteration
counts from seed to seed (check-cfl took 4 to 6), which spread the timings
by more than the changes the benchmark is meant to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import check

WORKLOADS = ("map1d-n256", "grid2d-16-damped", "scenario-suite")

# the three default gauge trees of tree-compare on the five-node example
FIVE_NODE_TREES = (
    ((1, 2), (2, 3), (3, 4), (4, 5)),
    ((2, 3), (3, 4), (4, 5), (1, 5)),
    ((2, 3), (1, 3), (1, 5), (4, 5)),
)

# relative size of the seeded perturbation of the reference densities
PERTURBATION = 0.01


@dataclass
class Operation:
    """One scenario call with the inputs it was given and its checks."""

    name: str
    spec_args: dict
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None
    checks: list[Callable[[dict], list[str]]] = field(default_factory=list)
    trees: tuple = ()

    @property
    def scenario(self) -> str:
        return self.spec_args["scenario"]

    def check(self, document: dict) -> list[str]:
        failures = check.check_geodesic(document, self.mu, self.nu)
        for extra in self.checks:
            failures += extra(document)
        return failures


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream])


def _reference_density(node_count: int, stream: int) -> np.ndarray:
    """Components uniform on (0.05, 1) from a fixed stream, normalized."""
    raw = 0.05 + 0.95 * _rng(2026, stream).random(node_count)
    return raw / raw.sum()


def _perturbed(reference: np.ndarray, seed: int, stream: int) -> np.ndarray:
    noise = _rng(seed, stream).uniform(-1.0, 1.0, reference.size)
    values = reference * (1.0 + PERTURBATION * noise)
    return values / values.sum()


def _write_density(path: Path, rho: np.ndarray) -> str:
    np.savetxt(path, rho, fmt="%.17g")
    return str(path)


def _write_graph(path: Path, edges: list[tuple[int, int]]) -> str:
    lines = ["i,j,omega"] + [f"{i},{j},1.0" for i, j in edges]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _random_connected_edges(node_count: int, extra: float, stream: int) -> list[tuple[int, int]]:
    """A random recursive tree plus independent extra edges, fixed stream."""
    rng = _rng(2026, stream)
    order = rng.permutation(node_count) + 1
    edges = set()
    for k in range(1, node_count):
        a, b = int(order[k]), int(order[rng.integers(k)])
        edges.add((min(a, b), max(a, b)))
    for a in range(1, node_count + 1):
        for b in range(a + 1, node_count + 1):
            if rng.random() < extra:
                edges.add((a, b))
    return sorted(edges)


def _gauss_1d(x: np.ndarray, a: float, b: float, r: float) -> np.ndarray:
    values = np.exp(-a * (x - b) ** 2) + r
    return values / values.sum()


def _lattice_1d(n: int, length: float, origin: float) -> np.ndarray:
    return origin + (length / n) * np.arange(n)


# -- workloads -------------------------------------------------------------------


def map1d_n256(seed: int, inputs: Path) -> list[Operation]:
    """The sinusoidal map benchmark on 256 nodes, M = 64, undamped.

    The seed shifts the lattice by a fraction of a spacing; the pair and its
    closed-form map are periodic, so every shift has the same answer.
    """
    n = 256
    origin = float(_rng(seed, 0).random()) / n
    x = _lattice_1d(n, 1.0, origin)
    mu = 1.0 + np.sin(2.0 * np.pi * x) / 32.0
    return [
        Operation(
            "map-benchmark",
            dict(scenario="map-benchmark", lattice1d=(n, 1.0), origin=origin, steps=64, theta="mean", damping=False),
            mu / mu.sum(),
            np.full(n, 1.0 / n),
            [check.check_map_benchmark],
        )
    ]


def grid2d_16_damped(seed: int, inputs: Path) -> list[Operation]:
    """benchmark-2d at its defaults; the seed is not used.

    Moving the grid by a fraction of a spacing changed the damped solve's
    iteration count (13 or 14) and, at one offset, ended with a negative
    density (exit 4), so this workload keeps the defaults.
    """
    side, n, origin = 4.0, 16, -1.0
    bumps = ((0.5, 1.5), (1.5, 1.3))
    xy = np.stack(np.meshgrid(_lattice_1d(n, side, origin), _lattice_1d(n, side, origin)), -1).reshape(-1, 2)
    ends = []
    for b, d in bumps:
        values = np.exp(-10.0 * (xy[:, 0] - b) ** 2 - 10.0 * (xy[:, 1] - d) ** 2) + 1e-4
        ends.append(values / values.sum())
    return [
        Operation(
            "benchmark-2d",
            dict(
                scenario="benchmark-2d",
                lattice2d=(n, side),
                origin=origin,
                mu_gauss2d=(10.0, 10.0, *bumps[0], 1.0, 1e-4),
                nu_gauss2d=(10.0, 10.0, *bumps[1], 1.0, 1e-4),
                steps=16,
                theta="mean",
                damping=True,
            ),
            ends[0],
            ends[1],
            [partial(check.check_translation, centre_mu=bumps[0], centre_nu=bumps[1], side=side)],
        )
    ]


def scenario_suite(seed: int, inputs: Path) -> list[Operation]:
    """Small solves at large M across the other scenarios, plus one solve
    with disjoint compact supports that the program cannot do yet."""
    ops = []

    def endpoints(name: str, node_count: int, stream: int):
        mu = _perturbed(_reference_density(node_count, stream), seed, stream)
        nu = _perturbed(_reference_density(node_count, stream + 1), seed, stream + 1)
        files = dict(
            mu_file=_write_density(inputs / f"{name}-mu.txt", mu),
            nu_file=_write_density(inputs / f"{name}-nu.txt", nu),
        )
        return mu, nu, files

    edges = _random_connected_edges(10, 0.3, 10)
    mu = _perturbed(_reference_density(10, 11), seed, 11)
    ops.append(
        Operation(
            "consensus",
            dict(
                scenario="consensus",
                graph_file=_write_graph(inputs / "consensus.csv", edges),
                mu_file=_write_density(inputs / "consensus-mu.txt", mu),
                nu_uniform=True,
                steps=256,
                theta="mean",
                damping=False,
            ),
            mu,
            np.full(10, 0.1),
        )
    )

    mu, nu, files = endpoints("dumbbell", 8, 20)
    ops.append(
        Operation(
            "dumbbell",
            dict(scenario="dumbbell", dumbbell_sizes=(4, 4), steps=128, theta="mean", damping=False, **files),
            mu,
            nu,
        )
    )

    mu, nu, files = endpoints("recover-topology", 30, 30)
    ops.append(
        Operation(
            "recover-topology",
            dict(scenario="recover-topology", complete=30, steps=128, theta="mean", damping=False, **files),
            mu,
            nu,
            [check.check_effective_edges],
        )
    )

    mu, nu, files = endpoints("check-cfl", 8, 40)
    ops.append(
        Operation(
            "check-cfl",
            dict(scenario="check-cfl", dumbbell_sizes=(4, 4), steps=128, theta="upwind", damping=False, **files),
            mu,
            nu,
            [check.check_cfl],
        )
    )

    mu, nu, files = endpoints("tree-compare", 5, 50)
    ops.append(
        Operation(
            "tree-compare",
            dict(scenario="tree-compare", steps=64, theta="mean", damping=False, **files),
            mu,
            nu,
            [check.check_tree_compare],
            FIVE_NODE_TREES,
        )
    )

    jitter = _rng(seed, 60).uniform(-0.01, 0.01, 2)
    gauss = [(15.0, 1.4 + jitter[0], 1e-4), (15.0, 1.7 + jitter[1], 1e-4)]
    x = _lattice_1d(64, 4.0, -1.0)
    ops.append(
        Operation(
            "benchmark-1d",
            dict(
                scenario="benchmark-1d",
                lattice1d=(64, 4.0),
                origin=-1.0,
                mu_gauss1d=gauss[0],
                nu_gauss1d=gauss[1],
                steps=32,
                theta="mean",
                damping=False,
            ),
            _gauss_1d(x, *gauss[0]),
            _gauss_1d(x, *gauss[1]),
        )
    )

    # disjoint compact supports on a ring: the upwind model is documented to
    # take densities with zeros, but this solve raises SingularJacobianError
    ring = 32
    mu = np.zeros(ring)
    mu[:8] = 1.0 / 8.0
    nu = np.roll(mu, ring // 2)
    ring_edges = [(i, i + 1) for i in range(1, ring)] + [(1, ring)]
    ops.append(
        Operation(
            "solve",
            dict(
                scenario="solve",
                graph_file=_write_graph(inputs / "ring.csv", ring_edges),
                mu_file=_write_density(inputs / "ring-mu.txt", mu),
                nu_file=_write_density(inputs / "ring-nu.txt", nu),
                steps=32,
                theta="upwind",
                damping=False,
            ),
            mu,
            nu,
        )
    )
    return ops


BUILDERS = {
    "map1d-n256": map1d_n256,
    "grid2d-16-damped": grid2d_16_damped,
    "scenario-suite": scenario_suite,
}


def build(workload: str, seed: int, inputs: Path) -> list[Operation]:
    inputs.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, inputs)


def build_problems(op: Operation, go) -> list:
    """Build, through graph_ot's public functions, what ``op`` builds before
    its first Newton iteration: graph, endpoint densities, trees, problems.

    ``go`` is the imported ``graph_ot`` package.  Only the sources the
    workloads above use are handled.
    """
    a = op.spec_args
    if "graph_file" in a:
        graph = go.read_edge_list(a["graph_file"])
    elif "lattice1d" in a:
        graph = go.lattice_1d_periodic(*a["lattice1d"], a["origin"])
    elif "lattice2d" in a:
        n, side = a["lattice2d"]
        graph = go.lattice_2d_periodic(n, n, side, a["origin"])
    elif "dumbbell_sizes" in a:
        graph = go.dumbbell(*a["dumbbell_sizes"])
    elif "complete" in a:
        graph = go.complete_graph(a["complete"])
    else:
        graph = go.five_node_example()

    def density(end: str):
        if f"{end}_file" in a:
            return go.read_density_file(a[f"{end}_file"], graph.node_count)
        if f"{end}_gauss1d" in a:
            return go.gaussian_density_1d(graph, *a[f"{end}_gauss1d"])
        if f"{end}_gauss2d" in a:
            return go.gaussian_density_2d(graph, *a[f"{end}_gauss2d"])
        return go.uniform_density(graph.node_count)

    if op.scenario == "map-benchmark":
        mu, nu = go.benchmark_1d_map_densities(graph)
    else:
        mu, nu = density("mu"), density("nu")
    trees = [go.SpanningTree(graph, t) for t in op.trees] or [None]
    model = go.get_mobility(a["theta"])
    return [go.TransportProblem(graph, mu, nu, a["steps"], model=model, tree=t) for t in trees]
