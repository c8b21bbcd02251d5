"""Finite connected weighted graphs and the standard graph families.

Nodes are labeled 1..N in every public interface.  Each undirected edge is
stored exactly once in canonical orientation (i, j) with i < j; a positive
edge velocity elsewhere in the package always means flow from i to j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    EdgeNotInGraphError,
    InputFormatError,
    NodeOutOfRangeError,
    NonpositiveWeightError,
    NonSquareGridError,
    SelfLoopError,
    TooFewNodesError,
)

__all__ = [
    "Lattice1D",
    "Lattice2D",
    "WeightedGraph",
    "build_from_edge_list",
    "lattice_1d_periodic",
    "lattice_2d_periodic",
    "dumbbell",
    "complete_graph",
    "read_edge_list",
]


@dataclass(frozen=True)
class Lattice1D:
    """Geometry tag for a periodic 1-d lattice over [origin, origin+length]."""

    grid_points: int
    length: float
    origin: float = 0.0

    @property
    def spacing(self) -> float:
        return self.length / self.grid_points

    def coordinates(self) -> np.ndarray:
        """Node coordinates x_i = origin + (i-1)*spacing for i = 1..N."""
        return self.origin + self.spacing * np.arange(self.grid_points)


@dataclass(frozen=True)
class Lattice2D:
    """Geometry tag for a periodic square grid over [origin, origin+side]^2.

    Node numbering is row-major: the node at column ix, row iy (0-based)
    carries the label iy*nx + ix + 1.
    """

    nx: int
    ny: int
    side: float
    origin: float = 0.0

    @property
    def spacing(self) -> float:
        return self.side / self.nx

    def coordinates(self) -> np.ndarray:
        """(N, 2) array of node coordinates in row-major node order."""
        ix = np.arange(self.nx * self.ny) % self.nx
        iy = np.arange(self.nx * self.ny) // self.nx
        return self.origin + self.spacing * np.column_stack([ix, iy]).astype(float)


class WeightedGraph:
    """Connected simple graph with strictly positive symmetric edge weights.

    Parameters
    ----------
    node_count : int
        Number of nodes; labels run 1..node_count.
    edges : sequence of (int, int)
        Undirected edges.  Both orientations and repeated entries are
        accepted as long as repeated weights agree exactly.
    weights : sequence of float
        One weight per entry of ``edges``.
    geometry : Lattice1D or Lattice2D, optional
        Coordinate information attached by the lattice builders.
    """

    def __init__(
        self,
        node_count: int,
        edges: Sequence[tuple[int, int]],
        weights: Sequence[float],
        geometry: Lattice1D | Lattice2D | None = None,
    ):
        if node_count < 2:
            raise TooFewNodesError(f"need at least 2 nodes, got {node_count}")
        if len(edges) != len(weights):
            raise DuplicateEdgeError(
                f"{len(edges)} edges but {len(weights)} weights"
            )

        canonical: dict[tuple[int, int], float] = {}
        for (a, b), w in zip(edges, weights):
            a, b = int(a), int(b)
            if not (1 <= a <= node_count) or not (1 <= b <= node_count):
                raise NodeOutOfRangeError(
                    f"edge ({a},{b}) outside 1..{node_count}"
                )
            if a == b:
                raise SelfLoopError(f"self loop at node {a}")
            w = float(w)
            if not np.isfinite(w) or w <= 0.0:
                raise NonpositiveWeightError(
                    f"edge ({a},{b}) has weight {w!r}; weights must be > 0"
                )
            key = (a, b) if a < b else (b, a)
            if key in canonical and canonical[key] != w:
                raise DuplicateEdgeError(
                    f"edge {key} listed twice with weights "
                    f"{canonical[key]!r} and {w!r}"
                )
            canonical[key] = w

        self.node_count = int(node_count)
        self.edges: list[tuple[int, int]] = sorted(canonical)
        self.weights = np.array([canonical[e] for e in self.edges], dtype=float)
        self.geometry = geometry

        # 0-based endpoint arrays for vectorized assembly
        self.tail = np.array([i - 1 for i, _ in self.edges], dtype=np.intp)
        self.head = np.array([j - 1 for _, j in self.edges], dtype=np.intp)
        self.sqrt_weights = np.sqrt(self.weights)

        self._edge_index = {e: k for k, e in enumerate(self.edges)}
        self._adjacency: list[list[int]] = [[] for _ in range(node_count)]
        for i, j in self.edges:
            self._adjacency[i - 1].append(j)
            self._adjacency[j - 1].append(i)
        for nbrs in self._adjacency:
            nbrs.sort()

        self._check_connected()

    # -- basic queries ---------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return max(len(n) for n in self._adjacency)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self._edge_index

    def edge_position(self, i: int, j: int) -> int:
        """Index of the undirected edge {i, j} in the canonical edge order."""
        key = (min(i, j), max(i, j))
        try:
            return self._edge_index[key]
        except KeyError:
            raise EdgeNotInGraphError(f"no edge {key}") from None

    def _check_connected(self) -> None:
        seen = np.zeros(self.node_count, dtype=bool)
        stack = [1]
        seen[0] = True
        while stack:
            u = stack.pop()
            for w in self._adjacency[u - 1]:
                if not seen[w - 1]:
                    seen[w - 1] = True
                    stack.append(w)
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0]) + 1
            raise DisconnectedGraphError(
                f"node {missing} is not reachable from node 1"
            )

    # -- incidence operators ---------------------------------------------

    @cached_property
    def tail_matrix(self) -> sp.csr_matrix:
        """N x E matrix with a 1 at (tail(e), e)."""
        ones = np.ones(self.edge_count)
        return sp.csr_matrix(
            (ones, (self.tail, np.arange(self.edge_count))),
            shape=(self.node_count, self.edge_count),
        )

    @cached_property
    def head_matrix(self) -> sp.csr_matrix:
        """N x E matrix with a 1 at (head(e), e)."""
        ones = np.ones(self.edge_count)
        return sp.csr_matrix(
            (ones, (self.head, np.arange(self.edge_count))),
            shape=(self.node_count, self.edge_count),
        )

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """Signed N x E incidence matrix: +1 at tails, -1 at heads."""
        return (self.tail_matrix - self.head_matrix).tocsr()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"WeightedGraph(N={self.node_count}, E={self.edge_count}, "
            f"geometry={self.geometry!r})"
        )


# -- graph families -------------------------------------------------------


def build_from_edge_list(
    entries: Iterable[tuple[int, int, float]],
    node_count: int | None = None,
) -> WeightedGraph:
    """Build a graph from (i, j, weight) triples.

    ``node_count`` defaults to the largest label that appears; labels must
    then cover 1..N or connectivity fails.
    """
    entries = list(entries)
    if not entries:
        raise TooFewNodesError("empty edge list")
    edges = [(int(i), int(j)) for i, j, _ in entries]
    weights = [float(w) for _, _, w in entries]
    if node_count is None:
        node_count = max(max(i, j) for i, j in edges)
    return WeightedGraph(node_count, edges, weights)


def lattice_1d_periodic(
    grid_points: int, domain_length: float, origin: float = 0.0
) -> WeightedGraph:
    """Periodic 1-d lattice with uniform weight spacing**-2.

    The interval [origin, origin+domain_length] is split into ``grid_points``
    cells; node i sits at origin + (i-1)*spacing and the wrap edge (1, N)
    closes the cycle.  The weight 1/spacing^2 makes graph quantities
    consistent with their continuum counterparts as the lattice refines.
    """
    if grid_points < 3:
        raise TooFewNodesError("a periodic lattice needs at least 3 points")
    if domain_length <= 0:
        raise NonpositiveWeightError("domain length must be positive")
    spacing = domain_length / grid_points
    w = 1.0 / spacing**2
    edges = [(i, i + 1) for i in range(1, grid_points)] + [(1, grid_points)]
    geometry = Lattice1D(grid_points, float(domain_length), float(origin))
    return WeightedGraph(grid_points, edges, [w] * grid_points, geometry)


def lattice_2d_periodic(
    nx: int, ny: int, side_length: float, origin: float = 0.0
) -> WeightedGraph:
    """Periodic square grid with uniform weight spacing**-2.

    Node numbering is row-major (see Lattice2D).  Both extents must agree
    because the domain is square.
    """
    if nx != ny:
        raise NonSquareGridError(f"square domain requires nx == ny, got {nx} x {ny}")
    if nx < 3:
        raise TooFewNodesError("a periodic grid needs at least 3 points per side")
    if side_length <= 0:
        raise NonpositiveWeightError("side length must be positive")
    spacing = side_length / nx
    w = 1.0 / spacing**2

    def label(ix: int, iy: int) -> int:
        return iy * nx + ix + 1

    edges = []
    for iy in range(ny):
        for ix in range(nx):
            edges.append((label(ix, iy), label((ix + 1) % nx, iy)))
            edges.append((label(ix, iy), label(ix, (iy + 1) % ny)))
    geometry = Lattice2D(nx, ny, float(side_length), float(origin))
    return WeightedGraph(nx * ny, edges, [w] * len(edges), geometry)


def dumbbell(left_size: int, right_size: int) -> WeightedGraph:
    """Two complete clusters joined by the single bridge (L, L+1), unit weights.

    Nodes 1..L form one clique, L+1..L+R the other; the bridge is the only
    edge between them, so all mass moving between clusters crosses it.
    """
    if left_size < 2 or right_size < 2:
        raise TooFewNodesError("each cluster needs at least 2 nodes")
    edges = []
    for a in range(1, left_size + 1):
        for b in range(a + 1, left_size + 1):
            edges.append((a, b))
    for a in range(left_size + 1, left_size + right_size + 1):
        for b in range(a + 1, left_size + right_size + 1):
            edges.append((a, b))
    edges.append((left_size, left_size + 1))
    n = left_size + right_size
    return WeightedGraph(n, edges, [1.0] * len(edges))


def complete_graph(node_count: int) -> WeightedGraph:
    """Complete graph on ``node_count`` nodes with unit weights."""
    if node_count < 2:
        raise TooFewNodesError("a complete graph needs at least 2 nodes")
    edges = [
        (a, b)
        for a in range(1, node_count + 1)
        for b in range(a + 1, node_count + 1)
    ]
    return WeightedGraph(node_count, edges, [1.0] * len(edges))


# -- text format ----------------------------------------------------------


def _data_lines(path: Path) -> list[tuple[int, str]]:
    lines = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        lines.append((lineno, text))
    return lines


def _read_edges(path: Path, headers: Sequence[tuple[str, ...]]) -> list[tuple]:
    """Rows of a CSV edge file whose first data line is one of ``headers``.

    Each row is (i, j) or (i, j, omega), as wide as the file's header, with
    integer nodes and a float weight.  Blank lines and lines starting with
    ``#`` are ignored; every error names the file and the line.
    """
    lines = _data_lines(path)
    if not lines:
        raise InputFormatError(f"{path}: no data lines")
    lineno, header = lines[0]
    fields = tuple(f.strip().lower() for f in header.split(","))
    if fields not in headers:
        accepted = " or ".join(f"'{','.join(h)}'" for h in headers)
        raise InputFormatError(
            f"{path}:{lineno}: expected header {accepted}, got {header!r}"
        )
    rows = []
    for lineno, text in lines[1:]:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != len(fields):
            raise InputFormatError(
                f"{path}:{lineno}: expected '{','.join(fields)}', got {text!r}"
            )
        try:
            rows.append((int(parts[0]), int(parts[1]), *map(float, parts[2:])))
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from None
    return rows


def read_edge_list(path: str | Path) -> WeightedGraph:
    """Read a graph from the ``i,j,omega`` CSV edge-list format.

    Blank lines and lines starting with ``#`` are ignored.  The first data
    line must be the header ``i,j,omega``.
    """
    path = Path(path)
    entries = _read_edges(path, [("i", "j", "omega")])
    if not entries:
        raise InputFormatError(f"{path}: header but no edges")
    return build_from_edge_list(entries)
