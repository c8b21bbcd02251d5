"""Scenario resolution, execution, and the trajectory artifact format.

A scenario bundles a graph source, endpoint densities, and solver options
into one reproducible run.  Every run writes a single JSON document with a
versioned schema: resolved config, graph summary, solver diagnostics, the
full trajectory arrays, and scenario-specific extras.  Schema ``graph-ot/2``
writes each trajectory array as ``{"dtype": "<f8", "shape": [...], "data":
...}``, ``data`` being the base64 of its little-endian float64 bytes in C
order, the layout a NumPy ``.npy`` header records; every other field is a
plain JSON value.  The reader turns that layout back into arrays, so arrays
round-trip bitwise, and still reads ``graph-ot/1``, which wrote them as lists.
"""

from __future__ import annotations

import base64
import errno
import itertools
import json
import logging
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import InputFormatError, InvalidDensityError, NegativeDensityError
from .graph import (
    Lattice1D,
    Lattice2D,
    WeightedGraph,
    _data_lines,
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
from .metrics import _effective_edges_per_level, hamiltonian_drift, map_error_1d
from .mobility import MOBILITIES, get_mobility
from .newton import SolveConfig, SolveReport, _cfl_margins_all_levels, check_cfl, newton_solve
from .system import TransportProblem
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
    "EXIT_OK",
    "EXIT_INPUT_ERROR",
    "EXIT_NOT_CONVERGED",
    "EXIT_INVARIANT_VIOLATION",
]

logger = logging.getLogger(__name__)

ARTIFACT_SCHEMA = "graph-ot/2"
_MASS_MONITOR_TOL = 1e-10

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_CONVERGED = 3
EXIT_INVARIANT_VIOLATION = 4


def _option(default, flag: str, help: str, type=str, metavar=None, choices=None):
    """A ScenarioSpec field and the command-line option that sets it.

    ``type`` converts the option's one value.  A tuple of types takes one
    value per type and stores them as a tuple; a trailing ``...`` makes the
    option repeatable, each use appending its values.  ``bool`` makes a
    switch, with a ``--no-`` form when the field defaults to None.
    """
    return field(
        default=default,
        metadata={"flag": flag, "help": help, "type": type, "metavar": metavar, "choices": choices},
    )


_GAUSS1D = ("A", "B", "R")
_GAUSS2D = ("A", "C", "B", "D", "W", "EPS")
_GAUSS2D_HELP = "density W*exp(-A(x-B)^2-C(y-D)^2)+EPS, normalized"


@dataclass
class ScenarioSpec:
    """Everything needed to run one scenario, one field per run input.

    Each field but ``scenario`` carries, in its metadata, the command-line
    option that sets it: flag, value types, metavar and help text; the CLI
    parser is built from these.  Unset fields fall back to per-scenario
    defaults (None and False mean unset); at most one graph source and one
    density source per endpoint may be set, and only sources the scenario
    takes.  ``origin`` needs a lattice graph, given or default, and
    ``threshold`` is read by recover-topology alone.
    """

    scenario: str
    graph_file: str | None = _option(None, "--graph", "edge list file (i,j,omega)", metavar="FILE")
    lattice1d: tuple[int, float] | None = _option(
        None, "--lattice1d", "periodic 1-d lattice: N points over length LEN",
        (int, float), ("N", "LEN"),
    )
    lattice2d: tuple[int, float] | None = _option(
        None, "--lattice2d", "periodic N x N lattice over side SIDE", (int, float), ("N", "SIDE")
    )
    dumbbell_sizes: tuple[int, int] | None = _option(
        None, "--dumbbell", "two complete graphs joined by one bridge edge", (int, int), ("L", "R")
    )
    complete: int | None = _option(None, "--complete", "complete graph K_N", int, "N")
    origin: float | None = _option(
        None, "--origin", "lattice origin coordinate (lattice graphs only)", float, "X"
    )
    mu_file: str | None = _option(None, "--mu", "initial density, one value per line", metavar="FILE")
    nu_file: str | None = _option(None, "--nu", "final density, one value per line", metavar="FILE")
    mu_gauss1d: tuple[float, float, float] | None = _option(
        None, "--mu-gauss1d", "initial density exp(-A(x-B)^2)+R, normalized", (float,) * 3, _GAUSS1D
    )
    nu_gauss1d: tuple[float, float, float] | None = _option(
        None, "--nu-gauss1d", "final density exp(-A(x-B)^2)+R, normalized", (float,) * 3, _GAUSS1D
    )
    mu_gauss2d: tuple[float, float, float, float, float, float] | None = _option(
        None, "--mu-gauss2d", f"initial {_GAUSS2D_HELP}", (float,) * 6, _GAUSS2D
    )
    nu_gauss2d: tuple[float, float, float, float, float, float] | None = _option(
        None, "--nu-gauss2d", f"final {_GAUSS2D_HELP}", (float,) * 6, _GAUSS2D
    )
    mu_random: bool = _option(False, "--mu-random", "seeded random initial density", bool)
    nu_random: bool = _option(False, "--nu-random", "seeded random final density", bool)
    mu_uniform: bool = _option(False, "--mu-uniform", "uniform initial density", bool)
    nu_uniform: bool = _option(False, "--nu-uniform", "uniform final density", bool)
    normalize: bool = _option(
        False, "--normalize", "rescale file densities to unit mass instead of rejecting them", bool
    )
    steps: int | None = _option(None, "--steps", "time intervals", int, "M")
    theta: str | None = _option(
        None, "--theta", "mobility model (default per scenario)", choices=tuple(MOBILITIES)
    )
    tolerance: float = _option(
        SolveConfig.tolerance, "--tol", "residual tolerance (default %(default)g)", float, "EPS"
    )
    max_iterations: int = _option(
        SolveConfig.max_iterations, "--maxits", "iteration cap (default %(default)s)", int, "K"
    )
    damping: bool | None = _option(
        None, "--damping", "error-oriented damping of the Newton steps (default per scenario)", bool
    )
    tree_files: tuple[str, ...] = _option(
        (), "--tree", "spanning tree file (repeatable for tree-compare)", (str, ...), "FILE"
    )
    threshold: float | None = _option(
        None, "--threshold",
        "velocity threshold for effective-edge detection (recover-topology only; default 1e-3)",
        float, "T",
    )
    seed: int = _option(0, "--seed", "seed for generated inputs", int)
    out: str | None = _option(
        None, "--out", "artifact path (default graph_ot_<scenario>.json)", metavar="FILE"
    )


# the command-line flag of each ScenarioSpec field
_FLAGS = {f.name: f.metadata["flag"] for f in fields(ScenarioSpec) if f.metadata}


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
    for lineno, text in _data_lines(path):
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
            f"(pass {_FLAGS['normalize']} to rescale)"
        )
    return rho / total


# -- source resolution ---------------------------------------------------------

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


def _seeded(endpoint: str) -> Callable:
    """``(spec, graph)`` to the endpoint's seeded random density and source block.

    mu takes the seed and nu the next one, so the two draw from different
    streams and differ.
    """
    return lambda spec, g: _random(g, spec.seed if endpoint == "mu" else spec.seed + 1)


# One builder per source: ``(spec, value)`` to the graph and its source
# block for each graph source field, ``(spec, graph, endpoint, value)`` to
# the density and its block for each field ``<endpoint>_<kind>``.  Lambdas
# look the graph functions up at call time (see _Scenario).
_GRAPH_SOURCES = {
    "graph_file": lambda spec, path: (read_edge_list(path), {"kind": "file", "path": path}),
    "lattice1d": lambda spec, size: _lattice1d(*size, _origin(spec, 0.0)),
    "lattice2d": lambda spec, size: _lattice2d(*size, _origin(spec, 0.0)),
    "dumbbell_sizes": lambda spec, sizes: _dumbbell(*sizes),
    "complete": lambda spec, n: _complete(n),
}
_DENSITY_SOURCES = {
    "file": lambda spec, g, end, path: (
        read_density_file(path, g.node_count, spec.normalize),
        {"kind": "file", "path": path},
    ),
    "gauss1d": lambda spec, g, end, params: _gauss1d(g, *params),
    "gauss2d": lambda spec, g, end, params: _gauss2d(g, *params),
    "random": lambda spec, g, end, _: _seeded(end)(spec, g),
    "uniform": lambda spec, g, end, _: _uniform(g),
}
_DENSITY_FIELDS = tuple(f"{end}_{kind}" for end in ("mu", "nu") for kind in _DENSITY_SOURCES)
# every field a scenario may refuse: the sources and the threshold
_REFUSABLE = (*_GRAPH_SOURCES, *_DENSITY_FIELDS, "threshold")


def _resolve_graph(spec: ScenarioSpec, default) -> tuple[WeightedGraph, dict]:
    """Build the user-selected graph, or the scenario's ``default(spec)``."""
    given = [name for name in _GRAPH_SOURCES if _given(spec, name)]
    if len(given) > 1:
        raise InputFormatError("give at most one graph source")
    if given:
        return _GRAPH_SOURCES[given[0]](spec, getattr(spec, given[0]))
    if default is None:
        raise InputFormatError(f"scenario {spec.scenario!r} needs a graph source")
    return default(spec)


def _resolve_density(
    spec: ScenarioSpec, graph: WeightedGraph, endpoint: str
) -> tuple[np.ndarray | None, dict]:
    """Build one endpoint density from its selected source, or None."""
    given = [kind for kind in _DENSITY_SOURCES if _given(spec, f"{endpoint}_{kind}")]
    if len(given) > 1:
        raise InputFormatError(f"give at most one source for {endpoint}")
    if not given:
        return None, {}
    value = getattr(spec, f"{endpoint}_{given[0]}")
    return _DENSITY_SOURCES[given[0]](spec, graph, endpoint, value)


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
            f"{spec.scenario} on a custom graph needs at least one {_FLAGS['tree_files']} file"
        )
    if len(paths) > 1:
        raise InputFormatError(
            f"scenario {spec.scenario!r} accepts a single {_FLAGS['tree_files']}"
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
            "jacobian_refreshed": report.jacobian_refreshed.tolist(),
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
            "times": trajectory.times,
            "densities": trajectory.densities,
            "tree_velocities": trajectory.tree_velocities,
            "edge_velocities": trajectory.edge_velocities,
        },
    }


def _encode_array(value) -> dict:
    """A float64 array's JSON layout; json.dumps calls it for what it cannot write."""
    if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    data = np.ascontiguousarray(value, dtype="<f8")
    return {"dtype": "<f8", "shape": list(data.shape), "data": base64.b64encode(data).decode("ascii")}


def _decode_array(obj: dict):
    """The array an object in _encode_array's layout holds; any other object as it is."""
    if obj.keys() != {"dtype", "shape", "data"} or obj["dtype"] != "<f8":
        return obj
    data = bytearray(base64.b64decode(obj["data"]))  # a bytearray makes the array writable
    return np.frombuffer(data, dtype="<f8").reshape(obj["shape"])


def write_artifact(document: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(document, default=_encode_array) + "\n")


def read_artifact(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(), object_hook=_decode_array)


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
            "jacobian_refreshed": report.jacobian_refreshed.tolist(),
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
    per_level = _effective_edges_per_level(
        report.trajectory.edge_velocities, problem.graph, spec.threshold
    )
    return {
        "threshold": spec.threshold,
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
    v = report.trajectory.edge_velocities[: problem.steps]
    margins = _cfl_margins_all_levels(problem.graph, v, problem.tau).min(axis=1)
    # tau* falls as max |v| grows: the fastest level's bounds every level's
    _, tau_star = check_cfl(problem.graph, v[np.abs(v).max(axis=1).argmax()], problem.tau)
    return {
        "tau": problem.tau,
        "tau_star": None if tau_star == float("inf") else tau_star,  # None: unbounded
        "min_margin_per_level": margins.tolist(),
        "min_margin": float(margins.min()),
        "cfl_satisfied": bool(margins.min() >= 0.0),
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
    threshold: float | None = None  # read by the extras of the scenarios that take it
    # fields of _REFUSABLE the scenario takes: by default every source
    takes: tuple[str, ...] = (*_GRAPH_SOURCES, *_DENSITY_FIELDS)
    extras: Callable | None = None
    several_trees: bool = False


_SEEDED_ENDPOINTS = dict(mu=_seeded("mu"), nu=_seeded("nu"))

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
        # desk-scale default; the README gives the full-size run
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
        takes=tuple(_GRAPH_SOURCES),
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
        takes=("dumbbell_sizes", *_DENSITY_FIELDS),
        extras=_dumbbell_extras,
    ),
    "recover-topology": _Scenario(
        steps=128,
        graph=lambda spec: _complete(10),
        **_SEEDED_ENDPOINTS,
        threshold=1e-3,
        takes=("complete", *_DENSITY_FIELDS, "threshold"),
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


def _finish(
    spec: ScenarioSpec, document: dict, reports: list[SolveReport], out_path: Path
) -> ScenarioRun:
    exit_code = _classify(reports)
    document["exit_code"] = exit_code
    write_artifact(document, out_path)
    logger.info("scenario %s -> %s (exit %d)", spec.scenario, out_path, exit_code)
    return ScenarioRun(exit_code, document, out_path, reports)


def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Resolve defaults, solve, and write the artifact; returns the outcome.

    Raises GraphOTError subclasses on invalid inputs and OSError on a file
    it cannot read or an artifact directory that does not exist; solver
    non-convergence and invariant violations are reported through the exit
    code instead.
    """
    try:
        scenario = SCENARIOS[spec.scenario]
    except KeyError:
        raise InputFormatError(
            f"unknown scenario {spec.scenario!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    for name in _REFUSABLE:
        if _given(spec, name) and name not in scenario.takes:
            raise InputFormatError(f"scenario {spec.scenario!r} does not accept {_FLAGS[name]}")
    for name in ("origin", "threshold"):
        value = getattr(spec, name)
        if value is not None and not np.isfinite(value):
            raise InputFormatError(f"{_FLAGS[name]} must be finite, got {value}")
    for name in ("threshold", "seed"):
        value = getattr(spec, name)
        if value is not None and value < 0:
            raise InputFormatError(f"{_FLAGS[name]} must be >= 0, got {value}")
    out_path = Path(spec.out) if spec.out else Path(f"graph_ot_{spec.scenario}.json")
    # a solve can take minutes: find a directory the artifact cannot go to first
    if not out_path.parent.is_dir():
        raise FileNotFoundError(
            errno.ENOENT, f"no directory for the {_FLAGS['out']} artifact", str(out_path.parent)
        )

    graph, graph_src = _resolve_graph(spec, scenario.graph)
    if spec.origin is not None and graph_src["kind"] not in ("lattice1d", "lattice2d"):
        raise InputFormatError(
            f"scenario {spec.scenario!r} does not accept {_FLAGS['origin']} without a lattice"
        )
    mu, mu_src = _resolve_density(spec, graph, "mu")
    nu, nu_src = _resolve_density(spec, graph, "nu")
    if scenario.mu is None and (mu is None or nu is None):
        raise InputFormatError(
            f"scenario {spec.scenario!r} needs both {_FLAGS['mu_file']} and {_FLAGS['nu_file']} sources"
        )
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

    try:
        model = get_mobility(spec.theta if spec.theta is not None else scenario.theta)
    except KeyError as exc:
        raise InputFormatError(exc.args[0]) from None
    damping = scenario.damping if spec.damping is None else spec.damping
    if spec.threshold is None:  # the artifact's config and extras read the one value
        spec = replace(spec, threshold=scenario.threshold)
    config = SolveConfig(
        tolerance=spec.tolerance,
        max_iterations=spec.max_iterations,
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
    return _finish(spec, document, [report for _, report, _ in solves], out_path)
