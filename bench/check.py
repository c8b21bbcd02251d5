"""Output checks for the benchmark, written apart from ``graph_ot``.

Every quantity here is recomputed with plain numpy from an artifact's graph
block and trajectory arrays, and from endpoint densities that the benchmark
made itself.  Nothing imports ``graph_ot``, so a fault in the solver's
residual, gauge or metrics code cannot hide itself from these checks.

Each ``check_*`` function returns a list of failure messages; an empty list
means the artifact passed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

# the solver stops at a residual norm of 1e-10; the recomputation adds
# roundoff and, on chords, sums tree-edge residuals along gauge paths
RESIDUAL_TOL = 1e-8
MASS_TOL = 1e-10
ENDPOINT_TOL = 1e-12
GRADIENT_TOL = 1e-9
METRIC_RTOL = 1e-9


class Fields:
    """The arrays of one artifact, with 0-based edge endpoints."""

    def __init__(self, document: dict):
        graph = document["graph"]
        edges = np.array(graph["edges"], dtype=np.intp) - 1
        self.node_count = int(graph["node_count"])
        self.tail = edges[:, 0]
        self.head = edges[:, 1]
        self.sqrt_w = np.sqrt(np.array(graph["weights"], dtype=float))
        self.theta = document["config"]["theta"]
        block = document["trajectory"]
        self.rho = np.array(block["densities"], dtype=float)
        self.v = np.array(block["edge_velocities"], dtype=float)
        self.v_tree = np.array(block["tree_velocities"], dtype=float)
        self.tree_edges = [tuple(e) for e in document["tree_edges"]]
        # 1-based (i, j) -> column of the edge arrays
        self.edge_index = {tuple(e): k for k, e in enumerate(graph["edges"])}
        self.steps = self.rho.shape[0] - 1
        self.tau = 1.0 / self.steps

    def node_sum(self, at_tail: np.ndarray, at_head: np.ndarray) -> np.ndarray:
        """Per-node sums of edge values (levels, E) credited to tails and heads."""
        out = np.zeros(at_tail.shape[:-1] + (self.node_count,))
        np.add.at(out, (..., self.tail), at_tail)
        np.add.at(out, (..., self.head), at_head)
        return out


def mobility(theta: str, rho_tail, rho_head, v):
    """Edge mobility: the endpoint mean, or the donor density for upwind."""
    if theta == "mean":
        return 0.5 * (rho_tail + rho_head)
    if theta == "upwind":
        return np.where(v >= 0.0, rho_tail, rho_head)
    raise ValueError(f"unknown mobility {theta!r}")


def mobility_slopes(theta: str, v):
    """d theta / d rho at the tail and at the head, each seen from its own node.

    The head sees the edge reversed, so for upwind it is the donor when the
    canonical velocity is <= 0; at v = 0 both ends count as donors.
    """
    if theta == "mean":
        half = np.full(np.shape(v), 0.5)
        return half, half
    return (v >= 0.0).astype(float), (v <= 0.0).astype(float)


def geodesic_residual(f: Fields) -> tuple[np.ndarray, np.ndarray]:
    """Continuity residual (M, N) and velocity residual (M, E).

    rho^{m+1} - rho^m + tau div(sqrt(w) v theta) = 0 at every node and
    v^{m+1} - v^m + (tau/2) sqrt(w) (G_head - G_tail) = 0 on every edge, with
    G_i = sum over edges at i of v^2 d theta / d rho_i.
    """
    rho, v = f.rho[:-1], f.v[:-1]
    flux = f.sqrt_w * v * mobility(f.theta, rho[:, f.tail], rho[:, f.head], v)
    div = f.node_sum(flux, -flux)
    f_rho = f.rho[1:] - rho + f.tau * div
    slope_tail, slope_head = mobility_slopes(f.theta, v)
    kinetic = f.node_sum(v * v * slope_tail, v * v * slope_head)
    f_v = f.v[1:] - v + 0.5 * f.tau * f.sqrt_w * (kinetic[:, f.head] - kinetic[:, f.tail])
    return f_rho, f_v


def cycle_defects(f: Fields) -> np.ndarray:
    """Per level and edge, v/sqrt(w) minus the potential difference across it.

    The potential is integrated along a breadth-first tree of the checker's
    own, so a zero defect on every edge means every sqrt(w)-weighted cycle
    sum vanishes, whatever gauge tree the solver used.
    """
    n = f.node_count
    jumps = f.v / f.sqrt_w
    incident: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
    for e, (a, b) in enumerate(zip(f.tail, f.head)):
        incident[a].append((b, e, 1.0))
        incident[b].append((a, e, -1.0))
    potential = np.full((jumps.shape[0], n), np.nan)
    potential[:, 0] = 0.0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w, e, sign in incident[u]:
            if np.isnan(potential[0, w]):
                potential[:, w] = potential[:, u] + sign * jumps[:, e]
                queue.append(w)
    return jumps - (potential[:, f.head] - potential[:, f.tail])


def level_energy(f: Fields) -> np.ndarray:
    """sum over edges of theta v^2 at every level."""
    th = mobility(f.theta, f.rho[:, f.tail], f.rho[:, f.head], f.v)
    return np.sum(th * f.v * f.v, axis=1)


def w2_action(f: Fields) -> float:
    return float(f.tau * level_energy(f)[:-1].sum())


def outflow(f: Fields) -> np.ndarray:
    """sum over edges at node i of sqrt(w) times the outward velocity, (M, N)."""
    v = f.v[:-1]
    return f.node_sum(f.sqrt_w * np.maximum(v, 0.0), f.sqrt_w * np.maximum(-v, 0.0))


def donor_cell_update(f: Fields) -> np.ndarray:
    """rho_i (1 - tau outflow_i) + tau inflow_i from every level but the last."""
    rho, v = f.rho[:-1], f.v[:-1]
    inflow = f.node_sum(
        f.sqrt_w * np.maximum(-v, 0.0) * rho[:, f.head],
        f.sqrt_w * np.maximum(v, 0.0) * rho[:, f.tail],
    )
    return rho * (1.0 - f.tau * outflow(f)) + f.tau * inflow


def _close(a: float, b: float, rtol: float = METRIC_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# -- checks --------------------------------------------------------------------


def check_geodesic(document: dict, mu: np.ndarray, nu: np.ndarray) -> list[str]:
    """Checks every converged artifact must pass."""
    f = Fields(document)
    n, e = f.node_count, f.tail.size
    m = f.steps
    if f.rho.shape != (m + 1, n) or f.v.shape != (m + 1, e) or f.v_tree.shape != (m + 1, n - 1):
        return [f"trajectory shapes {f.rho.shape}, {f.v.shape}, {f.v_tree.shape}"]
    failures = []
    mass = float(np.abs(f.rho.sum(axis=1) - 1.0).max())
    if mass > MASS_TOL:
        failures.append(f"level mass off 1 by {mass:.3e}")
    for name, row, want in (("mu", f.rho[0], mu), ("nu", f.rho[-1], nu)):
        gap = float(np.abs(row - want).max())
        if gap > ENDPOINT_TOL:
            failures.append(f"endpoint {name} off by {gap:.3e}")
    if f.rho.min() < 0.0:
        failures.append(f"negative density {f.rho.min():.3e}")
    f_rho, f_v = geodesic_residual(f)
    norm = float(np.sqrt(np.sum(f_rho**2) + np.sum(f_v**2)))
    if not norm <= RESIDUAL_TOL:
        failures.append(f"geodesic residual {norm:.3e}")
    defect = float(np.abs(cycle_defects(f)).max())
    if not defect <= GRADIENT_TOL:
        failures.append(f"velocities are not gradients: cycle defect {defect:.3e}")
    on_tree = f.v[:, [f.edge_index[t] for t in f.tree_edges]]
    if not np.allclose(on_tree, f.v_tree, rtol=1e-14, atol=0.0):
        failures.append("tree velocities differ from edge velocities on the tree")
    energy = level_energy(f)
    metrics = document["metrics"]
    if not _close(w2_action(f), metrics["w2_action"]):
        failures.append(f"w2_action {metrics['w2_action']!r} != {w2_action(f)!r}")
    if not _close(float(energy[0]), metrics["w2_initial"]):
        failures.append(f"w2_initial {metrics['w2_initial']!r} != {energy[0]!r}")
    return failures


def check_map_benchmark(document: dict) -> list[str]:
    """W2 and the transport map against the closed form of the sinusoidal pair.

    mu ~ 1 + sin(2 pi x)/32 and nu = 1 on [0, 1) are joined by the map
    T(x) = x - cos(2 pi x)/(64 pi), so W2 = sqrt(1/2)/(64 pi) to leading
    order.  The map read from the forward edge of each node carries the
    first-order offset (dx/2) max|u'| = dx/64.
    """
    f = Fields(document)
    geometry = document["graph"]["geometry"]
    n, length, origin = geometry["grid_points"], geometry["length"], geometry["origin"]
    dx = length / n
    failures = []
    w2 = np.sqrt(w2_action(f))
    w2_exact = np.sqrt(0.5) / (64.0 * np.pi)
    if abs(w2 - w2_exact) > 0.01 * w2_exact:
        failures.append(f"W2 {w2:.6e} not within 1% of {w2_exact:.6e}")

    forward = np.array(
        [f.v[0, f.edge_index[(k, k + 1)]] for k in range(1, n)] + [-f.v[0, f.edge_index[(1, n)]]]
    )
    x = origin + dx * np.arange(n)
    exact = x - np.cos(2.0 * np.pi * x) / (64.0 * np.pi)
    diff = np.abs(x + forward - exact) % length
    error = float(np.minimum(diff, length - diff).max())
    if not 0.5 * dx / 64.0 <= error <= 1.5 * dx / 64.0:
        failures.append(f"map error {error:.3e} outside [0.5, 1.5] x dx/64 = {dx / 64.0:.3e}")
    reported = document["extras"]["results_row"]["map_error"]
    if not _close(error, reported):
        failures.append(f"reported map error {reported!r} != {error!r}")
    return failures


def check_translation(
    document: dict, centre_mu: tuple[float, float], centre_nu: tuple[float, float], side: float
) -> list[str]:
    """W2 within 5% of the torus distance between two equal bumps' centres."""
    f = Fields(document)
    delta = np.abs(np.subtract(centre_nu, centre_mu)) % side
    distance = float(np.hypot(*np.minimum(delta, side - delta)))
    w2 = float(np.sqrt(w2_action(f)))
    if abs(w2 - distance) > 0.05 * distance:
        return [f"W2 {w2:.6f} not within 5% of the translation distance {distance:.6f}"]
    return []


def check_tree_compare(document: dict) -> list[str]:
    """Gauge gaps: every tree gives the same distances and, to O(tau), paths."""
    rows = document["extras"]["per_tree"]
    gaps = document["extras"]["max_pairwise_gaps"]
    tau = document["config"]["tau"]
    failures = []
    if not all(row["converged"] for row in rows):
        failures.append("a gauge tree did not converge")
    for key, field in (("action", "w2_action"), ("initial", "w2_initial")):
        values = [row[field] for row in rows]
        gap = max(values) - min(values)
        if gap > 1e-6:
            failures.append(f"{field} differs by {gap:.3e} between trees")
        if abs(gap - gaps[key]) > 1e-15 + 1e-12 * gap:
            failures.append(f"reported {key} gap {gaps[key]!r} != {gap!r}")
    bound = 10.0 * (tau + 1e-10 / tau)
    for key in ("densities", "edge_velocities"):
        if gaps[key] > bound:
            failures.append(f"{key} gap {gaps[key]:.3e} above {bound:.3e}")
    return failures


def check_cfl(document: dict) -> list[str]:
    """CFL margins >= 0 and a nonnegative donor-cell update at every level."""
    f = Fields(document)
    failures = []
    margins = 1.0 - f.tau * outflow(f)
    lowest = margins.min(axis=1)
    if lowest.min() < 0.0:
        failures.append(f"CFL margin {lowest.min():.3e} < 0")
    reported = np.array(document["extras"]["min_margin_per_level"])
    if reported.shape != lowest.shape or np.abs(reported - lowest).max() > 1e-12:
        failures.append("reported CFL margins differ from the recomputed ones")
    update = donor_cell_update(f)
    if update.min() < 0.0:
        failures.append(f"donor-cell update goes negative: {update.min():.3e}")
    return failures


def check_effective_edges(document: dict) -> list[str]:
    """Per-level counts of edges with |v| above the threshold match the artifact."""
    f = Fields(document)
    extras = document["extras"]
    counts = (np.abs(f.v) > extras["threshold"]).sum(axis=1).tolist()
    if counts != extras["effective_edge_count_per_level"]:
        return ["effective edge counts differ from the recomputed ones"]
    return []
