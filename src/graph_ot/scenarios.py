"""Scenario resolution, execution, and the trajectory artifact format.

A scenario bundles a graph source, endpoint densities, and solver options
into one reproducible run.  Every run writes a single JSON document with a
versioned schema: resolved config, graph summary, solver diagnostics, the
full trajectory arrays, and scenario-specific extras.  Arrays round-trip
bitwise through the writer and reader.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InputFormatError, InvalidDensityError, NegativeDensityError
from .graph import (
    Lattice1D,
    Lattice2D,
    WeightedGraph,
    build_from_edge_list,
    complete_graph,
    dumbbell,
    lattice_1d_periodic,
    lattice_2d_periodic,
    read_edge_list,
)
from .generators import (
    BENCHMARK_1D_W2,
    benchmark_1d_exact_map,
    benchmark_1d_map_densities,
    gaussian_density_1d,
    gaussian_density_2d,
    random_connected_graph,
    seeded_random_density,
    uniform_density,
)
from .metrics import effective_edges, hamiltonian_drift, map_error_1d
from .mobility import get_mobility
from .newton import SolveConfig, SolveReport, check_cfl, newton_solve
from .system import TransportProblem, Trajectory
from .tree import SpanningTree, read_tree_file

__all__ = [
    "ScenarioSpec",
    "ScenarioRun",
    "SCENARIOS",
    "five_node_example",
    "run_scenario",
    "read_density_file",
    "write_artifact",
    "read_artifact",
    "trajectory_from_artifact",
    "EXIT_OK",
    "EXIT_INPUT_ERROR",
    "EXIT_NOT_CONVERGED",
    "EXIT_INVARIANT_VIOLATION",
]

logger = logging.getLogger(__name__)

ARTIFACT_SCHEMA = "graph-ot/1"
_MASS_MONITOR_TOL = 1e-10

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_CONVERGED = 3
EXIT_INVARIANT_VIOLATION = 4


@dataclass
class ScenarioSpec:
    """Everything needed to run one scenario.

    Unset fields fall back to per-scenario defaults; at most one graph
    source and one density source per endpoint may be set, and only sources
    the scenario takes.  ``origin`` needs a lattice graph, given or default,
    and ``threshold`` is read by recover-topology alone.
    """

    scenario: str
    graph_file: str | None = None
    lattice1d: tuple[int, float] | None = None
    lattice2d: tuple[int, float] | None = None
    dumbbell_sizes: tuple[int, int] | None = None
    complete: int | None = None
    origin: float | None = None
    mu_file: str | None = None
    mu_gauss1d: tuple[float, float, float] | None = None
    mu_gauss2d: tuple[float, float, float, float, float, float] | None = None
    mu_random: bool = False
    mu_uniform: bool = False
    nu_file: str | None = None
    nu_gauss1d: tuple[float, float, float] | None = None
    nu_gauss2d: tuple[float, float, float, float, float, float] | None = None
    nu_random: bool = False
    nu_uniform: bool = False
    normalize: bool = False
    steps: int | None = None
    theta: str | None = None
    jacobian: str = SolveConfig.jacobian
    tolerance: float = SolveConfig.tolerance
    max_iterations: int = SolveConfig.max_iterations
    # None means the per-scenario default (see SCENARIOS)
    damping: bool | None = None
    tree_files: tuple[str, ...] = ()
    threshold: float | None = None
    seed: int = 0
    out: str | None = None


@dataclass
class ScenarioRun:
    """Result of run_scenario: exit code, artifact document, output path."""

    exit_code: int
    document: dict
    out_path: Path
    reports: list[SolveReport] = field(default_factory=list)


def five_node_example() -> WeightedGraph:
    """5-cycle with the extra chord (1, 3), unit weights."""
    return build_from_edge_list(
        [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (1, 5, 1.0), (1, 3, 1.0)]
    )


_FIVE_NODE_TREES = (
    ((1, 2), (2, 3), (3, 4), (4, 5)),
    ((2, 3), (3, 4), (4, 5), (1, 5)),
    ((2, 3), (1, 3), (1, 5), (4, 5)),
)


# -- input files --------------------------------------------------------------


def read_density_file(
    path: str | Path, node_count: int, normalize: bool = False
) -> np.ndarray:
    """Read a density vector: one decimal per line, # comments ignored.

    Without ``normalize`` the values must sum to 1 within 1e-8; the vector
    is then rescaled exactly either way so downstream mass checks hold.
    """
    path = Path(path)
    values = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: expected a decimal, got {text!r}"
            ) from None
    rho = np.array(values, dtype=float)
    if rho.shape != (node_count,):
        raise InputFormatError(
            f"{path}: expected {node_count} values, got {rho.shape[0]}"
        )
    if np.any(rho < 0.0):
        raise NegativeDensityError(f"{path}: densities must be nonnegative")
    total = float(rho.sum())
    if total <= 0.0:
        raise InvalidDensityError(f"{path}: densities sum to {total!r}")
    if not normalize and abs(total - 1.0) > 1e-8:
        raise InvalidDensityError(
            f"{path}: mass {total!r} differs from 1 by more than 1e-8 "
            f"(pass --normalize to rescale)"
        )
    return rho / total


# -- source resolution ---------------------------------------------------------

# the CLI flag of each graph and density source field of ScenarioSpec
_GRAPH_FLAGS = {
    "graph_file": "--graph",
    "lattice1d": "--lattice1d",
    "lattice2d": "--lattice2d",
    "dumbbell_sizes": "--dumbbell",
    "complete": "--complete",
}
_DENSITY_FLAGS = {
    f"{end}_{kind}": f"--{end}" if kind == "file" else f"--{end}-{kind}"
    for end in ("mu", "nu")
    for kind in ("file", "gauss1d", "gauss2d", "random", "uniform")
}
_SOURCE_FLAGS = {**_GRAPH_FLAGS, **_DENSITY_FLAGS}
# every field a scenario may refuse: the sources and --threshold
_REFUSABLE_FLAGS = {**_SOURCE_FLAGS, "threshold": "--threshold"}


def _given(spec: ScenarioSpec, name: str) -> bool:
    value = getattr(spec, name)
    return value is not None and value is not False


def _origin(spec: ScenarioSpec, default: float) -> float:
    return default if spec.origin is None else spec.origin


def _lattice1d(n, length, origin) -> tuple[WeightedGraph, dict]:
    g = lattice_1d_periodic(int(n), float(length), origin)
    return g, {"kind": "lattice1d", "grid_points": int(n), "length": float(length), "origin": origin}


def _lattice2d(n, side, origin) -> tuple[WeightedGraph, dict]:
    g = lattice_2d_periodic(int(n), int(n), float(side), origin)
    return g, {"kind": "lattice2d", "points_per_side": int(n), "side": float(side), "origin": origin}


def _dumbbell(left, right) -> tuple[WeightedGraph, dict]:
    return dumbbell(int(left), int(right)), {"kind": "dumbbell", "left": int(left), "right": int(right)}


def _complete(n) -> tuple[WeightedGraph, dict]:
    return complete_graph(int(n)), {"kind": "complete", "node_count": int(n)}


def _resolve_graph(spec: ScenarioSpec, default) -> tuple[WeightedGraph, dict]:
    """Build the user-selected graph, or the scenario's ``default(spec)``."""
    if sum(_given(spec, name) for name in _GRAPH_FLAGS) > 1:
        raise InputFormatError("give at most one graph source")
    if spec.graph_file is not None:
        return read_edge_list(spec.graph_file), {"kind": "file", "path": spec.graph_file}
    if spec.lattice1d is not None:
        return _lattice1d(*spec.lattice1d, _origin(spec, 0.0))
    if spec.lattice2d is not None:
        return _lattice2d(*spec.lattice2d, _origin(spec, 0.0))
    if spec.dumbbell_sizes is not None:
        return _dumbbell(*spec.dumbbell_sizes)
    if spec.complete is not None:
        return _complete(spec.complete)
    if default is None:
        raise InputFormatError(f"scenario {spec.scenario!r} needs a graph source")
    return default(spec)


def _gauss1d(graph: WeightedGraph, a, b, r) -> tuple[np.ndarray, dict]:
    return gaussian_density_1d(graph, a, b, r), {"kind": "gauss1d", "a": a, "b": b, "r": r}


def _gauss2d(graph: WeightedGraph, a, c, b, d, w, eps) -> tuple[np.ndarray, dict]:
    return (
        gaussian_density_2d(graph, a, c, b, d, w, eps),
        {"kind": "gauss2d", "a": a, "c": c, "b": b, "d": d, "w": w, "eps": eps},
    )


def _random(graph: WeightedGraph, seed: int) -> tuple[np.ndarray, dict]:
    return seeded_random_density(graph.node_count, seed), {"kind": "random", "seed": seed}


def _uniform(graph: WeightedGraph) -> tuple[np.ndarray, dict]:
    return uniform_density(graph.node_count), {"kind": "uniform"}


def _resolve_density(
    spec: ScenarioSpec, graph: WeightedGraph, endpoint: str
) -> tuple[np.ndarray | None, dict]:
    """Build one endpoint density from its selected source, or None."""
    file_ = getattr(spec, f"{endpoint}_file")
    gauss1d = getattr(spec, f"{endpoint}_gauss1d")
    gauss2d = getattr(spec, f"{endpoint}_gauss2d")
    random_ = getattr(spec, f"{endpoint}_random")
    uniform = getattr(spec, f"{endpoint}_uniform")
    sources = [file_ is not None, gauss1d is not None, gauss2d is not None, random_, uniform]
    if sum(sources) > 1:
        raise InputFormatError(f"give at most one source for {endpoint}")
    if file_ is not None:
        return (
            read_density_file(file_, graph.node_count, spec.normalize),
            {"kind": "file", "path": file_},
        )
    if gauss1d is not None:
        return _gauss1d(graph, *gauss1d)
    if gauss2d is not None:
        return _gauss2d(graph, *gauss2d)
    if random_:
        # mu and nu draw from different seeded streams so they differ
        return _random(graph, spec.seed if endpoint == "mu" else spec.seed + 1)
    if uniform:
        return _uniform(graph)
    return None, {}


def _map_densities(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    geom = graph.geometry
    if not isinstance(geom, Lattice1D) or geom.length != 1.0:
        raise InputFormatError("map-benchmark needs a 1-d lattice over [0, 1]")
    return benchmark_1d_map_densities(graph)


def _resolve_trees(
    spec: ScenarioSpec, several: bool, graph: WeightedGraph, graph_src: dict
) -> tuple[list[SpanningTree | None], dict]:
    """The gauge trees to solve under; None stands for the Kruskal default."""
    paths = spec.tree_files
    if several:
        if paths:
            return [read_tree_file(p, graph) for p in paths], {"kind": "files", "paths": list(paths)}
        if graph_src["kind"] == "five-node-example":
            trees = [SpanningTree(graph, edges) for edges in _FIVE_NODE_TREES]
            return trees, {"kind": "five-node-default-trees"}
        raise InputFormatError(
            f"{spec.scenario} on a custom graph needs at least one --tree file"
        )
    if len(paths) > 1:
        raise InputFormatError(
            f"scenario {spec.scenario!r} accepts a single --tree"
        )
    if paths:
        return [read_tree_file(paths[0], graph)], {"kind": "file", "path": paths[0]}
    return [None], {"kind": "kruskal"}


# -- artifact document ---------------------------------------------------------


def _geometry_block(graph: WeightedGraph) -> dict | None:
    geom = graph.geometry
    if isinstance(geom, Lattice1D):
        return {
            "kind": "lattice1d",
            "grid_points": geom.grid_points,
            "length": geom.length,
            "origin": geom.origin,
        }
    if isinstance(geom, Lattice2D):
        return {
            "kind": "lattice2d",
            "nx": geom.nx,
            "ny": geom.ny,
            "side": geom.side,
            "origin": geom.origin,
        }
    return None


def _solve_document(
    spec: ScenarioSpec,
    resolved: dict,
    damping: bool,
    problem: TransportProblem,
    report: SolveReport,
    wall_time: float,
) -> dict:
    """The artifact document of one solve, without extras and exit code."""
    graph, trajectory = problem.graph, report.trajectory
    return {
        "schema": ARTIFACT_SCHEMA,
        "scenario": spec.scenario,
        "config": {
            "scenario": spec.scenario,
            "steps": problem.steps,
            "tau": problem.tau,
            "theta": problem.model.kind,
            "jacobian": spec.jacobian,
            "tolerance": spec.tolerance,
            "max_iterations": spec.max_iterations,
            "damping": damping,
            "seed": spec.seed,
            "threshold": spec.threshold,
            "normalize": spec.normalize,
            **resolved,
        },
        "graph": {
            "node_count": graph.node_count,
            "edge_count": graph.edge_count,
            "edges": [list(e) for e in graph.edges],
            "weights": graph.weights.tolist(),
            "geometry": _geometry_block(graph),
        },
        "tree_edges": [list(e) for e in problem.tree.tree_edges],
        "solver": {
            "status": report.status,
            "converged": report.converged,
            "iterations": report.iterations,
            "residual_history": report.residual_history.tolist(),
            "damping_factors": report.damping_factors.tolist(),
            "positivity_ok": report.positivity_ok,
            "cfl_margin": report.cfl_margin,
            "jacobian_rcond": report.jacobian_rcond,
            "wall_time_seconds": wall_time,
        },
        "metrics": {
            "w2_action": report.w2_action,
            "w2_initial": report.w2_initial,
            "w2": float(np.sqrt(max(report.w2_action, 0.0))),
            "hamiltonian_drift": hamiltonian_drift(trajectory, graph, problem.model),
        },
        "trajectory": {
            "times": trajectory.times.tolist(),
            "densities": trajectory.densities.tolist(),
            "tree_velocities": trajectory.tree_velocities.tolist(),
            "edge_velocities": trajectory.edge_velocities.tolist(),
        },
    }


def trajectory_from_artifact(document: dict) -> Trajectory:
    """Rebuild the Trajectory arrays from a parsed artifact document."""
    block = document["trajectory"]
    return Trajectory(
        times=np.array(block["times"], dtype=float),
        densities=np.array(block["densities"], dtype=float),
        tree_velocities=np.array(block["tree_velocities"], dtype=float),
        edge_velocities=np.array(block["edge_velocities"], dtype=float),
    )


def write_artifact(document: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(document) + "\n")


def read_artifact(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _monitors_clean(report: SolveReport) -> bool:
    row_mass = report.trajectory.densities.sum(axis=1)
    mass_ok = bool(np.abs(row_mass - 1.0).max() <= _MASS_MONITOR_TOL)
    return mass_ok and report.positivity_ok


def _classify(reports: list[SolveReport]) -> int:
    if not all(r.converged for r in reports):
        return EXIT_NOT_CONVERGED
    if not all(_monitors_clean(r) for r in reports):
        return EXIT_INVARIANT_VIOLATION
    return EXIT_OK


# -- extras hooks ----------------------------------------------------------------
#
# Each takes the spec, the resolved source blocks and the solves, one
# (problem, report, wall time) per gauge tree, and returns the extras block.


def _results_row(solves: list, lattice: type, map_error: float | None = None) -> dict:
    problem, report, wall_time = solves[0]
    geom = problem.graph.geometry
    return {
        "dx": geom.spacing if isinstance(geom, lattice) else None,
        "w2": float(np.sqrt(max(report.w2_action, 0.0))),
        "map_error": map_error,
        "wall_time_seconds": wall_time,
    }


def _map_benchmark_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    problem, report, _ = solves[0]
    error = map_error_1d(report.trajectory, problem.graph, benchmark_1d_exact_map)
    return {
        "results_row": _results_row(solves, Lattice1D, error),
        "analytic_w2": float(BENCHMARK_1D_W2),
    }


def _tree_compare_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    per_tree = [
        {
            "tree_edges": [list(e) for e in problem.tree.tree_edges],
            "w2_action": report.w2_action,
            "w2_initial": report.w2_initial,
            "iterations": report.iterations,
            "converged": report.converged,
            "wall_time_seconds": wall_time,
        }
        for problem, report, wall_time in solves
    ]
    gaps = {"action": 0.0, "initial": 0.0, "densities": 0.0, "edge_velocities": 0.0}
    for (_, a, _), (_, b, _) in itertools.combinations(solves, 2):
        ta, tb = a.trajectory, b.trajectory
        gaps["action"] = max(gaps["action"], abs(a.w2_action - b.w2_action))
        gaps["initial"] = max(gaps["initial"], abs(a.w2_initial - b.w2_initial))
        gaps["densities"] = max(
            gaps["densities"], float(np.abs(ta.densities - tb.densities).max())
        )
        gaps["edge_velocities"] = max(
            gaps["edge_velocities"],
            float(np.abs(ta.edge_velocities - tb.edge_velocities).max()),
        )
    return {"per_tree": per_tree, "max_pairwise_gaps": gaps}


def _dumbbell_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    problem, report, _ = solves[0]
    left = resolved["graph_source"]["left"]
    bridge = (left, left + 1)
    mean_abs = np.abs(report.trajectory.edge_velocities).mean(axis=0)
    return {
        "bridge_edge": list(bridge),
        "bridge_mean_abs_velocity": float(mean_abs[problem.graph.edge_position(*bridge)]),
        "edge_mean_abs_velocity": mean_abs.tolist(),
        "overall_mean_abs_velocity": float(mean_abs.mean()),
        "min_density": float(report.trajectory.densities.min()),
    }


def _recover_topology_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    problem, report, _ = solves[0]
    threshold = spec.threshold if spec.threshold is not None else 1e-3
    per_level = [
        [list(e) for e in effective_edges(report.trajectory, problem.graph, level, threshold)]
        for level in range(1, problem.steps + 2)
    ]
    return {
        "threshold": threshold,
        "effective_edges_per_level": per_level,
        "effective_edge_count_per_level": [len(es) for es in per_level],
    }


def _consensus_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    problem, report, _ = solves[0]
    uniform = 1.0 / problem.graph.node_count
    deviation = np.abs(report.trajectory.densities - uniform).max(axis=1)
    return {
        "max_deviation_from_uniform_per_level": deviation.tolist(),
        "final_deviation_from_uniform": float(deviation[-1]),
    }


def _check_cfl_extras(spec: ScenarioSpec, resolved: dict, solves: list) -> dict:
    problem, report, _ = solves[0]
    margins = []
    tau_star = float("inf")
    for level_v in report.trajectory.edge_velocities[: problem.steps]:
        level_margins, level_tau_star = check_cfl(problem.graph, level_v, problem.tau)
        margins.append(float(level_margins.min()))
        tau_star = min(tau_star, level_tau_star)
    return {
        "tau": problem.tau,
        "tau_star": None if tau_star == float("inf") else tau_star,  # None: unbounded
        "min_margin_per_level": margins,
        "min_margin": min(margins) if margins else 1.0,
        "cfl_satisfied": bool(margins and min(margins) >= 0.0),
    }


# -- the scenario table ------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    """One scenario's defaults, used where the spec leaves an input unset.

    ``graph(spec)`` and ``mu``/``nu(spec, graph)`` return the input and its
    source block; None means the spec must give that input.  Rows reach the
    graph builders through lambdas, which look each module attribute up at
    call time, so a tracer that replaces one sees every call.
    """

    steps: int
    graph: Callable | None = None
    mu: Callable | None = None
    nu: Callable | None = None
    theta: str = "mean"
    damping: bool = False
    # fields of _REFUSABLE_FLAGS the scenario takes: by default every source
    takes: tuple[str, ...] = tuple(_SOURCE_FLAGS)
    extras: Callable | None = None
    several_trees: bool = False


_SEEDED_ENDPOINTS = dict(
    mu=lambda spec, g: _random(g, spec.seed),
    nu=lambda spec, g: _random(g, spec.seed + 1),
)

SCENARIOS = {
    "solve": _Scenario(steps=32),
    "benchmark-1d": _Scenario(
        steps=32,
        graph=lambda spec: _lattice1d(64, 4.0, _origin(spec, -1.0)),
        mu=lambda spec, g: _gauss1d(g, 15.0, 1.4, 1e-4),
        nu=lambda spec, g: _gauss1d(g, 15.0, 1.7, 1e-4),
        extras=lambda spec, resolved, solves: {"results_row": _results_row(solves, Lattice1D)},
    ),
    "benchmark-2d": _Scenario(
        steps=16,
        # desk-scale default; pass --lattice2d 64 4.0 for the full-size run
        graph=lambda spec: _lattice2d(16, 4.0, _origin(spec, -1.0)),
        mu=lambda spec, g: _gauss2d(g, 10.0, 10.0, 0.5, 1.5, 1.0, 1e-4),
        nu=lambda spec, g: _gauss2d(g, 10.0, 10.0, 1.5, 1.3, 1.0, 1e-4),
        # the concentrated endpoint profiles sit far from the linear-path guess
        damping=True,
        extras=lambda spec, resolved, solves: {"results_row": _results_row(solves, Lattice2D)},
    ),
    "map-benchmark": _Scenario(
        steps=64,
        graph=lambda spec: _lattice1d(128, 1.0, _origin(spec, 0.0)),
        mu=lambda spec, g: (_map_densities(g)[0], {"kind": "benchmark-map"}),
        nu=lambda spec, g: (_map_densities(g)[1], {"kind": "benchmark-map"}),
        takes=tuple(_GRAPH_FLAGS),
        extras=_map_benchmark_extras,
    ),
    "tree-compare": _Scenario(
        steps=64,
        graph=lambda spec: (five_node_example(), {"kind": "five-node-example"}),
        **_SEEDED_ENDPOINTS,
        extras=_tree_compare_extras,
        several_trees=True,
    ),
    "dumbbell": _Scenario(
        steps=128,
        graph=lambda spec: _dumbbell(4, 4),
        **_SEEDED_ENDPOINTS,
        takes=("dumbbell_sizes", *_DENSITY_FLAGS),
        extras=_dumbbell_extras,
    ),
    "recover-topology": _Scenario(
        steps=128,
        graph=lambda spec: _complete(10),
        **_SEEDED_ENDPOINTS,
        takes=("complete", *_DENSITY_FLAGS, "threshold"),
        extras=_recover_topology_extras,
    ),
    "consensus": _Scenario(
        steps=256,
        graph=lambda spec: (
            random_connected_graph(10, 0.3, spec.seed),
            {"kind": "random-connected", "node_count": 10, "extra_edge_probability": 0.3, "seed": spec.seed},
        ),
        mu=lambda spec, g: _random(g, spec.seed + 1),
        nu=lambda spec, g: _uniform(g),
        extras=_consensus_extras,
    ),
    "check-cfl": _Scenario(
        steps=128,
        graph=lambda spec: _dumbbell(4, 4),
        **_SEEDED_ENDPOINTS,
        theta="upwind",
        extras=_check_cfl_extras,
    ),
}


def _finish(spec: ScenarioSpec, document: dict, reports: list[SolveReport]) -> ScenarioRun:
    exit_code = _classify(reports)
    document["exit_code"] = exit_code
    out_path = Path(spec.out) if spec.out else Path(f"graph_ot_{spec.scenario}.json")
    write_artifact(document, out_path)
    logger.info("scenario %s -> %s (exit %d)", spec.scenario, out_path, exit_code)
    return ScenarioRun(exit_code, document, out_path, reports)


def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Resolve defaults, solve, and write the artifact; returns the outcome.

    Raises GraphOTError subclasses on invalid inputs; solver non-convergence
    and invariant violations are reported through the exit code instead.
    """
    try:
        scenario = SCENARIOS[spec.scenario]
    except KeyError:
        raise InputFormatError(
            f"unknown scenario {spec.scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    for name, flag in _REFUSABLE_FLAGS.items():
        if _given(spec, name) and name not in scenario.takes:
            raise InputFormatError(f"scenario {spec.scenario!r} does not accept {flag}")

    graph, graph_src = _resolve_graph(spec, scenario.graph)
    if spec.origin is not None and graph_src["kind"] not in ("lattice1d", "lattice2d"):
        raise InputFormatError(
            f"scenario {spec.scenario!r} does not accept --origin without a lattice"
        )
    mu, mu_src = _resolve_density(spec, graph, "mu")
    nu, nu_src = _resolve_density(spec, graph, "nu")
    if scenario.mu is None and (mu is None or nu is None):
        raise InputFormatError(f"scenario {spec.scenario!r} needs both --mu and --nu sources")
    if mu is None:
        mu, mu_src = scenario.mu(spec, graph)
    if nu is None:
        nu, nu_src = scenario.nu(spec, graph)
    trees, tree_src = _resolve_trees(spec, scenario.several_trees, graph, graph_src)
    resolved = {
        "graph_source": graph_src,
        "mu_source": mu_src,
        "nu_source": nu_src,
        "tree_source": tree_src,
    }

    model = get_mobility(spec.theta if spec.theta is not None else scenario.theta)
    damping = scenario.damping if spec.damping is None else spec.damping
    config = SolveConfig(
        tolerance=spec.tolerance,
        max_iterations=spec.max_iterations,
        jacobian=spec.jacobian,
        damping=damping,
    )
    steps = scenario.steps if spec.steps is None else spec.steps
    solves = []
    for tree in trees:
        problem = TransportProblem(graph, mu, nu, steps, model=model, tree=tree)
        start = time.monotonic()
        report = newton_solve(problem, config=config)
        solves.append((problem, report, time.monotonic() - start))

    document = _solve_document(spec, resolved, damping, *solves[0])
    if scenario.extras is not None:
        document["extras"] = scenario.extras(spec, resolved, solves)
    return _finish(spec, document, [report for _, report, _ in solves])
