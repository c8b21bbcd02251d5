"""Spanning trees and the gauge that reduces edge velocities to tree velocities.

Edge velocities that are the gradient of a nodal potential S,
v_e = sqrt(w_e) (S_head - S_tail), are fixed by their values on any
spanning tree.  With node N's potential pinned to zero, the tree velocities
are v = T S, T the (N-1) x (N-1) tree incidence scaled by sqrt(w).  Each
tree factors T once: recovering a potential is one solve with that factor,
and expanding tree velocities to all edges is that solve and one
difference per edge.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatchError,
    EdgeNotInGraphError,
    NodeOutOfRangeError,
    NotATreeError,
)
from .graph import WeightedGraph, _read_edges

__all__ = ["SpanningTree", "kruskal", "read_tree_file"]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:  # path compression
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class SpanningTree:
    """Oriented spanning tree of a weighted graph and its factored gauge.

    Tree edges keep the canonical (low, high) orientation of the parent
    graph.  ``recover_potential`` integrates tree velocities into a nodal
    potential, and ``expand_velocities`` maps tree velocities to their
    potential's velocities on all edges.

    The unscaled incidence, +1 at each tree edge's head and -1 at its tail,
    is ordered breadth first from node N, each node with the tree edge to
    its parent; in that order it is lower triangular, and SuperLU factors it
    in natural order without fill.  A solve divides the velocities by
    sqrt(w) first, so each potential is its parent's plus v_f / sqrt(w_f),
    as a walk from node N adds them.

    Parameters
    ----------
    graph : WeightedGraph
    tree_edges : sequence of (int, int)
        Exactly N-1 distinct graph edges forming a spanning tree; either
        orientation is accepted and normalized.
    """

    def __init__(self, graph: WeightedGraph, tree_edges: Sequence[tuple[int, int]]):
        n = graph.node_count
        canonical = []
        for a, b in tree_edges:
            a, b = int(a), int(b)
            if not graph.has_edge(a, b):
                raise EdgeNotInGraphError(f"tree edge ({a},{b}) not in graph")
            canonical.append((min(a, b), max(a, b)))
        if len(set(canonical)) != len(canonical):
            raise NotATreeError("tree edge listed twice")
        if len(canonical) != n - 1:
            raise NotATreeError(
                f"spanning tree needs {n - 1} edges, got {len(canonical)}"
            )
        uf = _UnionFind(n)
        for a, b in canonical:
            if not uf.union(a - 1, b - 1):
                raise NotATreeError(f"tree edges contain a cycle through ({a},{b})")

        self.graph = graph
        self.tree_edges: list[tuple[int, int]] = sorted(canonical)

        # 0-based endpoints and weights in tree-edge order
        self.tail = np.array([i - 1 for i, _ in self.tree_edges], dtype=np.intp)
        self.head = np.array([j - 1 for _, j in self.tree_edges], dtype=np.intp)
        pos = [graph.edge_position(i, j) for i, j in self.tree_edges]
        self._graph_positions = np.array(pos, dtype=np.intp)
        self.sqrt_weights = graph.sqrt_weights[self._graph_positions]

        n1 = n - 1
        links = sp.csr_matrix((np.ones(n1), (self.tail, self.head)), shape=(n, n))
        order = csgraph.breadth_first_order(
            links, n1, directed=False, return_predecessors=False
        )
        # each node's place in breadth-first order from node N, whose column
        # is dropped: its -1 picks the zero potential that _solve appends
        self._position = np.empty(n, dtype=np.intp)
        self._position[order] = np.arange(-1, n1)
        ends = self._position[np.concatenate([self.head, self.tail])]
        # a tree edge's row is the place of its end farther from node N
        rows = np.maximum(ends[:n1], ends[n1:])
        self._edges = np.argsort(rows)
        inner = ends >= 0
        incidence = sp.csc_matrix(
            (
                np.repeat([1.0, -1.0], n1)[inner],
                (np.tile(rows, 2)[inner], ends[inner]),
            ),
            shape=(n1, n1),
        )
        self._lu = spla.splu(
            incidence,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )

    def _levels(self, tree_velocities: np.ndarray) -> np.ndarray:
        """Tree velocities as a (levels, N-1) array; a vector is one level."""
        v = np.asarray(tree_velocities, dtype=float)
        n1 = self.graph.node_count - 1
        if v.ndim not in (1, 2) or v.shape[-1] != n1:
            raise DimensionMismatchError(
                f"expected shape ({n1},) or (levels, {n1}), got {v.shape}"
            )
        return v.reshape(-1, n1)

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """(levels, N) potentials of (levels, N-1) tree velocities: column k
        for the node at place k of ``_position``, the last for node N's 0."""
        s = self._lu.solve((v[:, self._edges] / self.sqrt_weights[self._edges]).T)
        return np.hstack([s.T, np.zeros((len(v), 1))])

    # -- public operations --------------------------------------------------

    def expand_velocities(self, tree_velocities: np.ndarray) -> np.ndarray:
        """Map tree-edge velocities to all-edge velocities via the gauge.

        Edge e gets sqrt(w_e) (S_head - S_tail) for the potential S of the
        tree velocities; tree edges keep their own velocity exactly.
        Accepts a vector of length N-1 or an array of shape (levels, N-1);
        the result has matching leading shape with last axis E.
        """
        g = self.graph
        v = self._levels(tree_velocities)
        s = self._solve(v)
        out = s[:, self._position[g.head]] - s[:, self._position[g.tail]]
        out *= g.sqrt_weights
        # a difference of two potentials loses the digits they share
        out[:, self._graph_positions] = v
        return out[0] if np.ndim(tree_velocities) == 1 else out

    def recover_potential(self, tree_velocities: np.ndarray, base: int = 1) -> np.ndarray:
        """Integrate tree velocities into a potential S with S[base] = 0.

        Along each tree edge f = (i, j), S_j - S_i = v_f / sqrt(w_f).  The
        result is unique because the tree is connected and acyclic.  Accepts
        a vector of length N-1 or an array of shape (levels, N-1); the
        result has matching leading shape with last axis N.
        """
        g = self.graph
        if not (1 <= base <= g.node_count):
            raise NodeOutOfRangeError(f"base {base} outside 1..{g.node_count}")
        potential = self._solve(self._levels(tree_velocities))[:, self._position]
        potential -= potential[:, base - 1 : base]
        return potential[0] if np.ndim(tree_velocities) == 1 else potential

    @property
    def expansion(self) -> sp.csr_matrix:
        """The E x (N-1) matrix of ``expand_velocities``, formed on demand.

        Column f expands the unit velocity on tree edge f; exact zeros are
        dropped.  Formed densely, for diagnostics on small graphs.
        """
        return sp.csr_matrix(self.expand_velocities(np.eye(len(self.tree_edges))).T)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpanningTree(edges={self.tree_edges})"


def kruskal(graph: WeightedGraph) -> SpanningTree:
    """Minimum spanning tree with the deterministic tie-break (w, i, j).

    Edges are scanned in ascending order of (weight, lower node, higher
    node), so equal-weight graphs always yield the same tree.
    """
    order = sorted(
        range(graph.edge_count),
        key=lambda e: (graph.weights[e], graph.edges[e]),
    )
    uf = _UnionFind(graph.node_count)
    chosen = []
    for e in order:
        i, j = graph.edges[e]
        if uf.union(i - 1, j - 1):
            chosen.append((i, j))
            if len(chosen) == graph.node_count - 1:
                break
    return SpanningTree(graph, chosen)


def read_tree_file(path: str | Path, graph: WeightedGraph) -> SpanningTree:
    """Read an explicit spanning tree as a CSV edge list.

    Accepts the header ``i,j`` or ``i,j,omega``; weights are taken from the
    graph, so a third column is validated for format only.
    """
    rows = _read_edges(Path(path), [("i", "j"), ("i", "j", "omega")])
    return SpanningTree(graph, [(i, j) for i, j, *_ in rows])
