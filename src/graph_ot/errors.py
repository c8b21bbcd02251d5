"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GraphOTError",
    "GraphConstructionError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "NonpositiveWeightError",
    "DisconnectedGraphError",
    "TooFewNodesError",
    "NonSquareGridError",
    "EdgeNotInGraphError",
    "NodeOutOfRangeError",
    "NotATreeError",
    "DimensionMismatchError",
    "NegativeDensityError",
    "InvalidDensityError",
    "NotA1DLatticeError",
    "NotA2DLatticeError",
    "InputFormatError",
]


class GraphOTError(Exception):
    """Base class for every error raised by this package."""


class GraphConstructionError(GraphOTError, ValueError):
    """Invalid graph specification."""


class SelfLoopError(GraphConstructionError):
    """An edge joins a node to itself."""


class DuplicateEdgeError(GraphConstructionError):
    """The same node pair appears twice with conflicting weights."""


class NonpositiveWeightError(GraphConstructionError):
    """Edge weights must be strictly positive."""


class DisconnectedGraphError(GraphConstructionError):
    """The edge set does not connect all nodes."""


class TooFewNodesError(GraphConstructionError):
    """A graph family was requested below its minimum size."""


class NonSquareGridError(GraphConstructionError):
    """A square periodic grid requires equal extents in both directions."""


class EdgeNotInGraphError(GraphOTError, LookupError):
    """A queried node pair is not an edge of the graph."""


class NodeOutOfRangeError(GraphOTError, IndexError):
    """A node label lies outside 1..node_count."""


class NotATreeError(GraphOTError, ValueError):
    """An explicit edge selection is not a spanning tree of the graph."""


class DimensionMismatchError(GraphOTError, ValueError):
    """An array argument has the wrong length or shape."""


class NegativeDensityError(GraphOTError, ValueError):
    """Densities must be componentwise nonnegative."""


class InvalidDensityError(GraphOTError, ValueError):
    """A density vector violates normalization or positivity requirements."""


class NotA1DLatticeError(GraphOTError, ValueError):
    """The operation needs a graph built by the periodic 1-d lattice family."""


class NotA2DLatticeError(GraphOTError, ValueError):
    """The operation needs a graph built by the periodic 2-d lattice family."""


class SingularJacobianError(GraphOTError, RuntimeError):
    """The Newton matrix could not be factored.

    Raised by the condensed factor inside ``graph_ot.newton``;
    ``newton_solve`` reports it as the status ``singular_jacobian``.
    """


class InputFormatError(GraphOTError, ValueError):
    """A text input file or a run option does not follow the documented format."""
