"""Edge mobility models: how densities on the two endpoints weight an edge.

Both models are positively 1-homogeneous in (rho_i, rho_j) and satisfy the
maximum principle min(rho_i, rho_j) <= theta <= max(rho_i, rho_j).  The
arithmetic mean ignores the velocity; the upwind value takes the density of
the node the flow leaves, which is what makes explicit density updates
positivity preserving under a CFL bound.

All methods broadcast over numpy arrays.  They skip validation so the
solver can evaluate residuals at iterates with negative interior
densities.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Mobility",
    "ArithmeticMean",
    "Upwind",
    "ARITHMETIC_MEAN",
    "UPWIND",
    "MOBILITIES",
    "get_mobility",
]


class Mobility:
    """Base class: a scalar edge weight theta(rho_i, rho_j, v_ij)."""

    kind: str = ""
    requires_interior: bool = False

    def theta_values(self, rho_i, rho_j, v_ij):
        raise NotImplementedError

    def theta_density_partials(self, rho_i, rho_j, v_ij):
        """(d theta / d rho_i, d theta / d rho_j), broadcast like the inputs."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class ArithmeticMean(Mobility):
    """theta = (rho_i + rho_j) / 2, independent of the velocity."""

    kind = "mean"
    # the velocity equation divides by nothing, but geodesics through zero
    # density are degenerate for this model, so endpoints must be interior
    requires_interior = True

    def theta_values(self, rho_i, rho_j, v_ij):
        return 0.5 * (np.asarray(rho_i, dtype=float) + np.asarray(rho_j, dtype=float))

    def theta_density_partials(self, rho_i, rho_j, v_ij):
        shape = np.broadcast(rho_i, rho_j, v_ij).shape
        half = np.full(shape, 0.5)
        return half, half.copy()


class Upwind(Mobility):
    """theta = rho_i when v_ij >= 0 else rho_j (donor-cell selection).

    The tie v_ij = 0 takes the rho_i branch; that is one valid generalized
    derivative selection at the kink and keeps theta * v == rho_i*max(v,0)
    + rho_j*min(v,0) exactly.
    """

    kind = "upwind"
    requires_interior = False

    def theta_values(self, rho_i, rho_j, v_ij):
        return np.where(np.asarray(v_ij, dtype=float) >= 0.0, rho_i, rho_j)

    def theta_density_partials(self, rho_i, rho_j, v_ij):
        take_tail = np.asarray(v_ij, dtype=float) >= 0.0
        shape = np.broadcast(rho_i, rho_j, v_ij).shape
        p_i = np.broadcast_to(take_tail, shape).astype(float)
        return p_i, 1.0 - p_i


ARITHMETIC_MEAN = ArithmeticMean()
UPWIND = Upwind()

MOBILITIES: dict[str, Mobility] = {
    ARITHMETIC_MEAN.kind: ARITHMETIC_MEAN,
    UPWIND.kind: UPWIND,
}


def get_mobility(name: str) -> Mobility:
    try:
        return MOBILITIES[name]
    except KeyError:
        raise KeyError(
            f"unknown mobility {name!r}; choose from {sorted(MOBILITIES)}"
        ) from None

