"""Discrete geodesic equations between two densities on a weighted graph.

A geodesic from mu to nu is a time-dependent density rho(t) and edge
velocity field v(t) on [0, 1] satisfying

    d rho_i / dt = - sum_j sqrt(w_ij) v_ij theta_ij(rho),
    d v_f  / dt  = - (1/2) sqrt(w_f) (G_head(f) - G_tail(f)),
    G_i = sum_{k ~ i} v_ki^2 * d theta_ik / d rho_i,

with rho(0) = mu and rho(1) = nu.  Time is discretized into M steps of
length tau = 1/M with left-rectangle (explicit in the current level)
residuals; the gauge fixes velocities on a spanning tree and mass
conservation eliminates the last density component.  The resulting unknown
vector has length 2*M*(N-1) and the residual is square, so the two-point
boundary problem becomes a root-finding problem.

Both vectors are laid out level by level in time, each block of N-1
entries (tree edges for velocities, nodes 1..N-1 for densities):

    unknowns   [ v^1 ; v^2, rho^2 ; ... ; v^M, rho^M ; v^{M+1} ]
    residual   [ F_v^1, F_rho^1 ; ... ; F_v^M, F_rho^M ]

so residual level l and the unknowns of levels l and l+1 are contiguous
ranges, and the terminal density rows F_rho^M come last.  Only this module
and the Newton matrix in ``graph_ot.newton`` depend on the order: build a
state with ``pack_fields`` or ``pack`` and read it with ``unpack`` or
``level_fields``.  ``_potential_residual`` evaluates the same equations in
node potentials, in the same layout, for the Newton matrix's finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDensityError,
    NegativeDensityError,
)
from .graph import WeightedGraph
from .mobility import ARITHMETIC_MEAN, Mobility
from .tree import SpanningTree, kruskal

__all__ = [
    "TransportProblem",
    "Trajectory",
    "state_size",
    "pack_fields",
    "pack",
    "unpack",
    "level_fields",
    "recover_last_density",
    "divergence",
    "hamiltonian",
    "nodal_kinetic",
    "reduced_rhs",
    "assemble_residual",
    "explicit_upwind_update",
]

_MASS_TOL = 1e-12


@dataclass
class TransportProblem:
    """Endpoint densities, graph, gauge tree, mobility model and step count.

    ``tree`` defaults to the deterministic minimum spanning tree.  Treat
    instances as immutable once constructed.
    """

    graph: WeightedGraph
    mu: np.ndarray
    nu: np.ndarray
    steps: int
    model: Mobility = ARITHMETIC_MEAN
    tree: SpanningTree | None = None
    # the Newton matrix's per-level template, built by graph_ot.newton on
    # first use; it depends only on graph, tree and steps
    _jacobian_template: object = field(
        default=None, init=False, repr=False, compare=False
    )
    # the tree velocities level_fields last expanded, as bytes, with their
    # read-only edge velocities, kept until its next call
    _expansion: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = self.graph.node_count
        self.mu = np.array(self.mu, dtype=float)
        self.nu = np.array(self.nu, dtype=float)
        if self.mu.shape != (n,) or self.nu.shape != (n,):
            raise DimensionMismatchError(
                f"endpoint densities must have shape ({n},), "
                f"got {self.mu.shape} and {self.nu.shape}"
            )
        for name, rho in (("mu", self.mu), ("nu", self.nu)):
            if not np.all(np.isfinite(rho)):
                raise InvalidDensityError(f"{name} has non-finite entries")
            if np.any(rho < 0.0):
                raise NegativeDensityError(f"{name} has negative entries")
            if abs(rho.sum() - 1.0) > _MASS_TOL:
                raise InvalidDensityError(
                    f"{name} has mass {rho.sum()!r}, expected 1 within {_MASS_TOL}"
                )
            if self.model.requires_interior and np.any(rho <= 0.0):
                raise InvalidDensityError(
                    f"{name} must be strictly positive for the "
                    f"{self.model.kind!r} mobility"
                )
        if self.steps < 1:
            raise DimensionMismatchError(f"steps must be >= 1, got {self.steps}")
        self.steps = int(self.steps)
        if self.tree is None:
            self.tree = kruskal(self.graph)
        elif self.tree.graph is not self.graph and (
            self.tree.graph.node_count != n
            or self.tree.graph.edges != self.graph.edges
        ):
            raise DimensionMismatchError("tree was built for a different graph")

    @property
    def tau(self) -> float:
        return 1.0 / self.steps


@dataclass
class Trajectory:
    """Solved (or candidate) discrete geodesic.

    ``densities`` has shape (M+1, N) with rows summing to one,
    ``tree_velocities`` (M+1, N-1), ``edge_velocities`` (M+1, E) expanded
    through the gauge.  Row m (0-based) is time level m+1, i.e. t = m*tau.
    """

    times: np.ndarray
    densities: np.ndarray
    tree_velocities: np.ndarray
    edge_velocities: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.times) - 1


def state_size(problem: TransportProblem) -> int:
    return 2 * problem.steps * (problem.graph.node_count - 1)


def _split(problem: TransportProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(interior densities (M-1, N-1), tree velocities (M+1, N-1)) of x."""
    n1 = problem.graph.node_count - 1
    m = problem.steps
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * m * n1,):
        raise DimensionMismatchError(
            f"state must have shape ({2 * m * n1},), got {x.shape}"
        )
    levels = x[n1:-n1].reshape(m - 1, 2, n1)  # (v^l, rho^l) for l = 2..M
    vel = np.concatenate([x[None, :n1], levels[:, 0], x[None, -n1:]])
    return levels[:, 1], vel


def _full_densities(problem: TransportProblem, interior: np.ndarray) -> np.ndarray:
    """Stack boundary rows around interior rows and recover the last node."""
    m = problem.steps
    n = problem.graph.node_count
    rho = np.empty((m + 1, n))
    rho[0] = problem.mu
    rho[m] = problem.nu
    if m > 1:
        rho[1:m, : n - 1] = interior
        rho[1:m, n - 1] = 1.0 - interior.sum(axis=1)
    return rho


def pack_fields(
    problem: TransportProblem,
    interior_densities: np.ndarray,
    tree_velocities: np.ndarray,
) -> np.ndarray:
    """Lay two field blocks out as the unknown vector, level by level.

    ``interior_densities`` has shape (M-1, N-1) covering levels 2..M,
    ``tree_velocities`` (M+1, N-1) covering levels 1..M+1.
    """
    n1 = problem.graph.node_count - 1
    m = problem.steps
    interior = np.asarray(interior_densities, dtype=float)
    vel = np.asarray(tree_velocities, dtype=float)
    if interior.shape != (m - 1, n1):
        raise DimensionMismatchError(
            f"interior densities must have shape ({m - 1}, {n1}), got {interior.shape}"
        )
    if vel.shape != (m + 1, n1):
        raise DimensionMismatchError(
            f"tree velocities must have shape ({m + 1}, {n1}), got {vel.shape}"
        )
    levels = np.stack([vel[1:m], interior], axis=1)
    return np.concatenate([vel[0], levels.ravel(), vel[m]])


def pack(problem: TransportProblem, trajectory: Trajectory) -> np.ndarray:
    """Inverse of ``unpack``; drops derived quantities bit-exactly."""
    m = problem.steps
    n1 = problem.graph.node_count - 1
    return pack_fields(
        problem,
        trajectory.densities[1:m, :n1],
        trajectory.tree_velocities,
    )


def unpack(problem: TransportProblem, x: np.ndarray) -> Trajectory:
    """Expand an unknown vector into a full trajectory.

    Boundary density rows are copied from mu and nu exactly; the last
    density component of each interior row is one minus the rest; edge
    velocities come from the gauge expansion.
    """
    interior, vel = _split(problem, x)
    rho = _full_densities(problem, interior)
    edge_vel = problem.tree.expand_velocities(vel)
    times = np.linspace(0.0, 1.0, problem.steps + 1)
    return Trajectory(times, rho, vel, edge_vel)


def recover_last_density(partial: np.ndarray) -> np.ndarray:
    """Append the mass-eliminated component 1 - sum(partial).

    The result can have a negative last entry; positivity is monitored by
    the solver report, not enforced here.
    """
    partial = np.asarray(partial, dtype=float)
    if partial.ndim != 1:
        raise DimensionMismatchError("expected a 1-d partial density vector")
    return np.append(partial, 1.0 - partial.sum())


# -- pointwise operators ----------------------------------------------------


def divergence(
    graph: WeightedGraph,
    rho: np.ndarray,
    v_edges: np.ndarray,
    model: Mobility = ARITHMETIC_MEAN,
) -> np.ndarray:
    """Weighted divergence of the momentum field at one time level.

    div_i = sum_{j ~ i} sqrt(w_ij) v_ij theta_ij(rho); its components sum
    to zero exactly because each edge contributes antisymmetrically.
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v_edges, dtype=float)
    if rho.shape != (graph.node_count,):
        raise DimensionMismatchError(
            f"density must have shape ({graph.node_count},), got {rho.shape}"
        )
    if v.shape != (graph.edge_count,):
        raise DimensionMismatchError(
            f"edge velocities must have shape ({graph.edge_count},), got {v.shape}"
        )
    th = model.theta_values(rho[graph.tail], rho[graph.head], v)
    return graph.incidence @ (graph.sqrt_weights * v * th)


def hamiltonian(
    graph: WeightedGraph,
    rho: np.ndarray,
    v_edges: np.ndarray,
    model: Mobility = ARITHMETIC_MEAN,
) -> float:
    """Kinetic energy (1/2) sum_edges theta * v^2 at one time level."""
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v_edges, dtype=float)
    if rho.shape != (graph.node_count,):
        raise DimensionMismatchError(
            f"density must have shape ({graph.node_count},), got {rho.shape}"
        )
    if v.shape != (graph.edge_count,):
        raise DimensionMismatchError(
            f"edge velocities must have shape ({graph.edge_count},), got {v.shape}"
        )
    if np.any(rho < 0.0):
        raise NegativeDensityError("hamiltonian needs nonnegative densities")
    th = model.theta_values(rho[graph.tail], rho[graph.head], v)
    return 0.5 * float(np.sum(th * v * v))


def nodal_kinetic(
    graph: WeightedGraph,
    rho: np.ndarray,
    v_edges: np.ndarray,
    model: Mobility,
) -> np.ndarray:
    """G_i = sum_{k ~ i} v_ki^2 * d theta_ik / d rho_i, per node.

    Each incident edge is viewed from the node it meets, so the tail of an
    edge uses the partials of theta(rho_tail, rho_head, v) and the head
    those of theta(rho_head, rho_tail, -v).  Supports stacked level rows:
    rho of shape (..., N) with v_edges (..., E) gives (..., N).
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v_edges, dtype=float)
    rt, rh = rho[..., graph.tail], rho[..., graph.head]
    p_tail = model.theta_density_partials(rt, rh, v)[0]
    p_head = model.theta_density_partials(rh, rt, -v)[0]
    v2 = v * v
    flat_t = np.atleast_2d(v2 * p_tail)
    flat_h = np.atleast_2d(v2 * p_head)
    out = (graph.tail_matrix @ flat_t.T + graph.head_matrix @ flat_h.T).T
    return out.reshape(rho.shape)


def reduced_rhs(
    problem: TransportProblem,
    rho: np.ndarray,
    tree_velocities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (d rho_1..N-1 / dt, d v_tree / dt) at one state.

    This is the right-hand side of the gauge-reduced geodesic system; the
    discrete residuals are its explicit left-rectangle discretization.
    """
    g = problem.graph
    tree = problem.tree
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (g.node_count,):
        raise DimensionMismatchError(
            f"density must have shape ({g.node_count},), got {rho.shape}"
        )
    v_edges = tree.expand_velocities(tree_velocities)
    div = divergence(g, rho, v_edges, problem.model)
    kinetic = nodal_kinetic(g, rho, v_edges, problem.model)
    dv = -0.5 * tree.sqrt_weights * (kinetic[tree.head] - kinetic[tree.tail])
    return -div[: g.node_count - 1], dv


# -- residual assembly -------------------------------------------------------


def level_fields(
    problem: TransportProblem, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(densities (M+1, N), tree velocities (M+1, N-1), edge velocities).

    The edge velocities are read-only and kept for one more call: the next
    call with the same tree velocities, bit for bit, returns the same array
    instead of expanding them again, so the residual and the Jacobian at
    one iterate share one expansion.
    """
    interior, vel = _split(problem, x)
    rho = _full_densities(problem, interior)
    key = vel.tobytes()
    kept, problem._expansion = problem._expansion, None
    if kept is not None and kept[0] == key:
        return rho, vel, kept[1]
    edge_vel = problem.tree.expand_velocities(vel)
    edge_vel.flags.writeable = False
    problem._expansion = (key, edge_vel)
    return rho, vel, edge_vel


def _density_rows_and_kinetic(
    problem: TransportProblem, rho: np.ndarray, edge_velocities: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """F_rho (M, N-1) and the nodal kinetic sums G (M, N) of levels 1..M."""
    g = problem.graph
    m = problem.steps
    cur_rho = rho[:m]
    cur_v = edge_velocities[:m]
    th = problem.model.theta_values(
        cur_rho[:, g.tail], cur_rho[:, g.head], cur_v
    )
    flux = g.sqrt_weights * cur_v * th
    div = (g.incidence @ flux.T).T
    f_rho = rho[1:, : g.node_count - 1] - cur_rho[:, : g.node_count - 1]
    f_rho = f_rho + problem.tau * div[:, : g.node_count - 1]
    return f_rho, nodal_kinetic(g, cur_rho, cur_v, problem.model)


def assemble_residual(problem: TransportProblem, x: np.ndarray) -> np.ndarray:
    """Full nonlinear residual F(x); zero exactly at a discrete geodesic.

    Defined for any real state: interior densities may leave the simplex
    during Newton iterations and the mobility is evaluated there as well.
    """
    tree = problem.tree
    m = problem.steps
    rho, vel, edge_vel = level_fields(problem, x)
    f_rho, kinetic = _density_rows_and_kinetic(problem, rho, edge_vel)
    phi = 0.5 * problem.tau * tree.sqrt_weights * (
        kinetic[:, tree.head] - kinetic[:, tree.tail]
    )
    f_v = vel[1:] - vel[:m] + phi
    return np.stack([f_v, f_rho], axis=1).ravel()


def _potential_residual(problem: TransportProblem, s: np.ndarray) -> np.ndarray:
    """The residual in node potentials, evaluated from the potentials.

    ``s`` is laid out as the unknowns, with the node potentials S^l of
    nodes 1..N-1 in place of the tree velocities and node N's pinned to
    zero, so edge e moves at sqrt(w_e) (S_head - S_tail).  The velocity
    rows become the nodal rows S^{l+1} - S^l + (tau/2) (G - G_N); the
    density rows are those of ``assemble_residual``.  In exact arithmetic
    this is R F(C s) of ``graph_ot.newton``.  Evaluated from s, a change of
    one potential leaves every row outside its graph stencil exactly as it
    was, where the potentials recovered from the tree velocities C s would
    spread rounding over whole subtrees.
    """
    g = problem.graph
    m = problem.steps
    interior, potentials = _split(problem, s)
    rho = _full_densities(problem, interior)
    full = np.hstack([potentials, np.zeros((m + 1, 1))])
    edge_vel = g.sqrt_weights * (full[:, g.head] - full[:, g.tail])
    f_rho, kinetic = _density_rows_and_kinetic(problem, rho, edge_vel)
    nodal = potentials[1:] - potentials[:m] + 0.5 * problem.tau * (
        kinetic[:, :-1] - kinetic[:, -1:]
    )
    return np.stack([nodal, f_rho], axis=1).ravel()


def explicit_upwind_update(
    graph: WeightedGraph,
    rho: np.ndarray,
    v_edges: np.ndarray,
    tau: float,
) -> np.ndarray:
    """One explicit density step with upwind mobility in donor-cell form.

    rho_i' = rho_i (1 - tau sum_j sqrt(w) v_ij^+) + tau sum_j sqrt(w) v_ji^+ rho_j

    Every term is nonnegative when rho >= 0 and the local CFL bound
    tau * sum_j sqrt(w) v_ij^+ <= 1 holds, so nonnegativity is preserved
    without clipping.  Setting the density residual to zero with upwind
    mobility reproduces exactly this update.
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v_edges, dtype=float)
    sw = graph.sqrt_weights
    vp = np.maximum(v, 0.0)
    vm = np.maximum(-v, 0.0)
    outflow = graph.tail_matrix @ (sw * vp) + graph.head_matrix @ (sw * vm)
    inflow = graph.tail_matrix @ (sw * vm * rho[graph.head]) + graph.head_matrix @ (
        sw * vp * rho[graph.tail]
    )
    return rho * (1.0 - tau * outflow) + tau * inflow
