"""Wasserstein geodesics on finite weighted graphs.

Solves the dynamical optimal transport problem between two probability
densities on a connected graph: a kinetic-energy minimizing path subject
to the graph continuity equation.  The two-point boundary value problem
is discretized in time and solved by Newton's method on a reduced set of
unknowns (one eliminated density per level, spanning-tree velocities).
"""

from .errors import *
from .graph import *
from .tree import *
from .mobility import *
from .system import *
from .newton import *
from .metrics import *
from .generators import *
from .scenarios import *
from . import errors, graph, tree, mobility, system, newton, metrics, generators, scenarios

__version__ = "0.1.0"

# each public name is listed once, in the __all__ of the module defining it
__all__ = sorted(
    name
    for module in (errors, graph, tree, mobility, system, newton, metrics, generators, scenarios)
    for name in module.__all__
)
