"""Newton solver for the discrete geodesic residual.

The residual uses the explicit left-rectangle rule: residual level l couples
only time levels l and l+1, and its coefficient on level l+1 is the
identity.  Once the first-level tree velocities v^1 are fixed, a Newton step
is a forward sweep in time.  Each step is therefore solved by block
elimination in time, the condensing step of multiple shooting.  In time
order, the columns of levels 2..M+1 against every row but the terminal
density rows form a lower triangular block, factored without fill; the
(N-1) x (N-1) Schur complement on v^1 is factored densely.

The analytic Jacobian has the same entries at every level, shifted by N-1
rows and columns, and they depend only on the graph, the spanning tree and
M.  The first analytic assembly of a problem therefore builds one level's
entries as a template, cached on the TransportProblem, with a sparse
operator from six per-edge terms to the entry values.  Each assembly
evaluates those terms for all M levels as (M, E) arrays and lays the levels
out in CSR order in one vectorized pass.

Three Jacobian modes are offered: exact analytic assembly, a forward
finite-difference assembly that exploits the same level-local sparsity, and
a chord mode that factors the analytic Jacobian once at the initial iterate
and reuses it.  All three solve through the same block elimination.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import metrics
from .errors import DimensionMismatchError, SingularJacobianError
from .graph import WeightedGraph
from .system import (
    TransportProblem,
    Trajectory,
    assemble_residual,
    density_residual_level,
    level_fields,
    pack_fields,
    residual_fields,
    state_size,
    unpack,
    velocity_residual_level,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "JACOBIAN_MODES",
    "default_initial_guess",
    "assemble_jacobian_analytic",
    "assemble_jacobian_fd",
    "newton_solve",
    "check_cfl",
]

logger = logging.getLogger(__name__)

JACOBIAN_MODES = ("analytic", "fd", "chord")


@dataclass
class SolveConfig:
    """Newton iteration controls.

    ``fd_step`` is a base factor: the forward-difference step for unknown j
    is fd_step * (1 + |x_j|).  ``damping`` halves a rejected step up to 30
    times until the residual norm decreases, and stops the solve when none
    of those steps does; plain Newton when off.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100
    jacobian: str = "analytic"  # one of JACOBIAN_MODES
    fd_step: float = 1e-7
    damping: bool = False
    rcond_warn: float = 1e-12

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.jacobian not in JACOBIAN_MODES:
            raise ValueError(
                f"jacobian must be one of {JACOBIAN_MODES}, got {self.jacobian!r}"
            )
        if self.fd_step <= 0:
            raise ValueError("fd_step must be > 0")


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``status`` is "converged", "max_iterations_exceeded",
    "nonfinite_residual" or "line_search_failed" (damping on, and neither
    the Newton step nor any of its 30 halvings lowered the residual; the
    solve keeps the last iterate, so ``residual_history`` strictly
    decreases).  ``converged`` is true iff the final residual norm is below
    the tolerance.  ``cfl_margin`` is the worst local margin
    1 - tau * sum sqrt(w) v^+ over nodes and the M update levels (relevant
    for the upwind model).  ``jacobian_rcond`` is a reciprocal-condition
    estimate from the first factored Jacobian, 0 when its factorization met
    a zero pivot, None when no factorization happened.
    """

    trajectory: Trajectory
    converged: bool
    status: str
    iterations: int
    residual_history: np.ndarray
    positivity_ok: bool
    cfl_margin: float
    w2_action: float
    w2_initial: float
    jacobian_rcond: float | None = None


def default_initial_guess(problem: TransportProblem) -> np.ndarray:
    """Linear density interpolation between the endpoints, zero velocities.

    Interior rows stay on the simplex by convexity; when mu == nu the guess
    already has zero residual.
    """
    m = problem.steps
    n1 = problem.graph.node_count - 1
    s = (np.arange(1, m) / m)[:, None]
    interior = (1.0 - s) * problem.mu[:n1] + s * problem.nu[:n1]
    return pack_fields(problem, interior, np.zeros((m + 1, n1)))


# -- Jacobian assembly -------------------------------------------------------


# Per-edge terms of one level, each a block of E rows of the template
# operator: the flux partials sqrt(w) v dtheta/drho at the tail and at the
# head, the momentum weight sqrt(w) theta, the kinetic partials
# 2 v dtheta/drho seen from the tail and from the head, and head minus tail
# of the latter.
_FLUX_TAIL, _FLUX_HEAD, _WEIGHT, _KIN_TAIL, _KIN_HEAD, _KIN_DIFF = range(6)
_EDGE_TERMS = 6

# column classes of a template entry: density columns of the previous level
# (absent at level 1), of the next level (absent at level M), velocity columns
_PREV, _NEXT, _VELOCITY = 0, 1, 2


@dataclass(frozen=True)
class _JacobianTemplate:
    """The Jacobian entries of one time level, shared by all M levels.

    Level l (0-based) shifts every entry by l*(N-1) rows and columns, so
    entry k sits in column ``cols[k] + offsets[l]``.  Its value is
    ``constants[k]`` plus the level's edge terms times column k of
    ``operator``.  Entries are sorted by row and column with the density
    rows first, so laying the levels out one after another within each row
    block gives CSR order.
    """

    cols: np.ndarray
    offsets: np.ndarray
    constants: np.ndarray
    operator: sp.csr_matrix  # (_EDGE_TERMS * E, entries)
    structural: np.ndarray  # stored even where the value is zero
    prev_level: np.ndarray
    next_level: np.ndarray
    density_entries: int
    row_starts: np.ndarray  # first entry of each density row, then velocity row


def _row_entries(matrix: sp.csr_matrix, rows: np.ndarray):
    """The stored entries of each of ``rows`` (repeats allowed).

    Returns (owner, column, value), owner being the position in ``rows``.
    """
    start = matrix.indptr[rows]
    count = matrix.indptr[rows + 1] - start
    owner = np.repeat(np.arange(rows.size), count)
    first = np.cumsum(count) - count  # where each row's entries start in the result
    pos = np.arange(int(count.sum())) + np.repeat(start - first, count)
    return owner, matrix.indices[pos], matrix.data[pos]


def _build_jacobian_template(problem: TransportProblem) -> _JacobianTemplate:
    """Entries of one level with their dependence on the edge terms.

    Includes the chain-rule terms through the eliminated density
    rho_N = 1 - sum rho_i and through the gauge expansion.  The velocity
    residual has no density derivative because both supported mobility
    models have density-independent partials; a model with curved partials
    would need an extra block here.
    """
    g = problem.graph
    tree = problem.tree
    m = problem.steps
    n1 = g.node_count - 1
    ne = g.edge_count
    tau = problem.tau
    idx = np.arange(n1)
    edge = np.arange(ne)
    col_v0 = (m - 1) * n1
    row_v0 = m * n1

    # identities: +I on the next level, -I on the same level
    const_rows = np.concatenate([idx, idx, row_v0 + idx, row_v0 + idx])
    const_cols = np.concatenate([idx, idx - n1, col_v0 + n1 + idx, col_v0 + idx])
    const_cls = np.repeat([_NEXT, _PREV, _VELOCITY, _VELOCITY], n1)
    const_vals = np.repeat([1.0, -1.0, 1.0, -1.0], n1)

    # density residual: tau * flux derivative on the same level's densities
    er = np.concatenate([g.tail, g.tail, g.head, g.head])
    ec = np.concatenate([g.tail, g.head, g.tail, g.head])
    flux_tail, flux_head = _FLUX_TAIL * ne + edge, _FLUX_HEAD * ne + edge
    et = np.concatenate([flux_tail, flux_head, flux_tail, flux_head])
    ev = np.repeat([tau, -tau], 2 * ne)
    own = er < n1
    er, ec, et, ev = er[own], ec[own], et[own], ev[own]
    direct = ec < n1
    # a unit increase of any interior density lowers rho_N by one
    last = ~direct
    hits = int(last.sum())
    flux_rows = np.concatenate([er[direct], np.repeat(er[last], n1)])
    flux_cols = np.concatenate([ec[direct], np.tile(idx, hits)]) - n1
    flux_terms = np.concatenate([et[direct], np.repeat(et[last], n1)])
    flux_coef = np.concatenate([ev[direct], -np.repeat(ev[last], n1)])

    # density residual: velocity derivative d(v*theta)/dv = theta(.,.,v),
    # the rows of incidence . diag(sqrt(w) theta) . expansion
    i, e, sign = _row_entries(g.incidence, idx)
    pair_rows = [i]
    pair_edges = [e]
    pair_terms = [_WEIGHT * ne + e]
    pair_coef = [tau * sign]

    # velocity residual: the kinetic sums' derivative, the rows of
    # sel . diag(2 v dtheta/drho) . expansion with sel picking head minus
    # tail of tree edge f.  Tree edge f meets both of its own ends; its two
    # terms enter as one, their difference, which is exactly zero where
    # they are equal, as it is in the sparse product.
    s = 0.5 * tau * tree.sqrt_weights
    for node, end_sign in ((tree.head, s), (tree.tail, -s)):
        for incident, block in (
            (g.tail_matrix, _KIN_TAIL),
            (g.head_matrix, _KIN_HEAD),
        ):
            f, e, _ = _row_entries(incident, node)
            other = (g.tail[e] != tree.tail[f]) | (g.head[e] != tree.head[f])
            f, e = f[other], e[other]
            pair_rows.append(row_v0 + f)
            pair_edges.append(e)
            pair_terms.append(block * ne + e)
            pair_coef.append(end_sign[f])
    f, e, _ = _row_entries(g.tail_matrix, tree.tail)
    mine = g.head[e] == tree.head[f]
    f, e = f[mine], e[mine]
    pair_rows.append(row_v0 + f)
    pair_edges.append(e)
    pair_terms.append(_KIN_DIFF * ne + e)
    pair_coef.append(s[f])

    pair_rows, pair_edges, pair_terms, pair_coef = (
        np.concatenate(a) for a in (pair_rows, pair_edges, pair_terms, pair_coef)
    )
    k, c, factor = _row_entries(tree.expansion, pair_edges)

    rows = np.concatenate([const_rows, flux_rows, pair_rows[k]])
    cols = np.concatenate([const_cols, flux_cols, col_v0 + c])
    cls = np.concatenate(
        [const_cls, np.full(flux_rows.size, _PREV), np.full(k.size, _VELOCITY)]
    )
    width = col_v0 + 3 * n1
    key = (rows * 3 + cls) * width + cols + n1
    entry, inverse = np.unique(key, return_inverse=True)
    rows = entry // (3 * width)
    cls = entry // width % 3
    n_const = const_rows.size
    n_direct = n_const + flux_rows.size

    constants = np.zeros(entry.size)
    constants[inverse[:n_const]] = const_vals
    structural = np.zeros(entry.size, dtype=bool)
    structural[inverse[:n_direct]] = True
    operator = sp.csr_matrix(
        (
            np.concatenate([flux_coef, pair_coef[k] * factor]),
            (np.concatenate([flux_terms, pair_terms[k]]), inverse[n_const:]),
        ),
        shape=(_EDGE_TERMS * ne, entry.size),
    )
    return _JacobianTemplate(
        cols=entry % width - n1,
        offsets=n1 * np.arange(m)[:, None],
        constants=constants,
        operator=operator,
        structural=structural,
        prev_level=cls == _PREV,
        next_level=cls == _NEXT,
        density_entries=int(np.searchsorted(rows, n1)),
        row_starts=np.flatnonzero(np.diff(rows, prepend=-1)),
    )


def assemble_jacobian_analytic(problem: TransportProblem, x: np.ndarray) -> sp.csr_matrix:
    """Exact sparse Jacobian of the residual at x.

    Fills the problem's cached template with the edge terms of all M levels
    at once.  Entries of the identity and density-flux blocks are stored
    even when zero; entries reached only through the gauge expansion are
    stored where their value is nonzero.
    """
    t = problem._jacobian_template
    if t is None:
        t = problem._jacobian_template = _build_jacobian_template(problem)
    g = problem.graph
    model = problem.model
    m = problem.steps
    n1 = g.node_count - 1
    sw = g.sqrt_weights

    rho, _, ve = level_fields(problem, x)
    v = ve[:m]
    rt, rh = rho[:m, g.tail], rho[:m, g.head]
    th = model.theta_values(rt, rh, v)
    p_tail, p_head = model.theta_density_partials(rt, rh, v)
    p_head_own = model.theta_density_partials(rh, rt, -v)[0]
    a = 2.0 * v * p_tail
    b = 2.0 * v * p_head_own
    terms = np.hstack([sw * v * p_tail, sw * v * p_head, sw * th, a, b, b - a])

    values = t.constants + terms @ t.operator
    keep = t.structural | (values != 0.0)
    keep[0, t.prev_level] = False
    keep[-1, t.next_level] = False
    cols = t.cols + t.offsets
    counts = np.add.reduceat(keep, t.row_starts, axis=1, dtype=np.intp)

    d = t.density_entries
    data = np.concatenate([values[:, :d][keep[:, :d]], values[:, d:][keep[:, d:]]])
    indices = np.concatenate([cols[:, :d][keep[:, :d]], cols[:, d:][keep[:, d:]]])
    row_counts = np.concatenate([counts[:, :n1].ravel(), counts[:, n1:].ravel()])
    indptr = np.concatenate([[0], np.cumsum(row_counts)])
    size = state_size(problem)
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def assemble_jacobian_fd(
    problem: TransportProblem, x: np.ndarray, fd_step: float = 1e-7
) -> sp.csr_matrix:
    """Forward finite-difference Jacobian with the level-local sparsity.

    Perturbing an unknown at time level l touches residual levels l-1 and l
    only, so each column recomputes at most three residual blocks instead of
    the full residual.
    """
    g = problem.graph
    tree = problem.tree
    m = problem.steps
    n1 = g.node_count - 1
    x = np.asarray(x, dtype=float)

    rho, vt, ve = level_fields(problem, x)
    base_rho, base_v = residual_fields(problem, rho, vt, ve)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    idx = np.arange(n1)
    col_v0 = (m - 1) * n1
    row_v0 = m * n1

    def add_block(row0: int, col: int, diff: np.ndarray):
        nz = np.flatnonzero(diff)
        if nz.size:
            rows.append(row0 + nz)
            cols.append(np.full(nz.size, col, dtype=np.intp))
            vals.append(diff[nz])

    # density unknowns live at levels 2..M
    for lv in range(2, m + 1):
        for i in range(n1):
            col = (lv - 2) * n1 + i
            h = fd_step * (1.0 + abs(x[col]))
            rho_p = rho[lv - 1].copy()
            rho_p[i] += h
            rho_p[n1] -= h  # mass elimination
            new = density_residual_level(problem, rho[lv - 2], rho_p, ve[lv - 2])
            add_block((lv - 2) * n1, col, (new - base_rho[lv - 2]) / h)
            new = density_residual_level(problem, rho_p, rho[lv], ve[lv - 1])
            add_block((lv - 1) * n1, col, (new - base_rho[lv - 1]) / h)
            new = velocity_residual_level(
                problem, rho_p, vt[lv - 1], vt[lv], ve[lv - 1]
            )
            add_block(row_v0 + (lv - 1) * n1, col, (new - base_v[lv - 1]) / h)

    # velocity unknowns live at levels 1..M+1
    for lv in range(1, m + 2):
        for f in range(n1):
            col = col_v0 + (lv - 1) * n1 + f
            h = fd_step * (1.0 + abs(x[col]))
            vt_p = vt[lv - 1].copy()
            vt_p[f] += h
            if lv <= m:
                ve_p = tree.expand_velocities(vt_p)
                new = density_residual_level(problem, rho[lv - 1], rho[lv], ve_p)
                add_block((lv - 1) * n1, col, (new - base_rho[lv - 1]) / h)
                new = velocity_residual_level(
                    problem, rho[lv - 1], vt_p, vt[lv], ve_p
                )
                add_block(row_v0 + (lv - 1) * n1, col, (new - base_v[lv - 1]) / h)
            if lv >= 2:
                new = velocity_residual_level(
                    problem, rho[lv - 2], vt[lv - 2], vt_p, ve[lv - 2]
                )
                add_block(row_v0 + (lv - 2) * n1, col, (new - base_v[lv - 2]) / h)

    size = state_size(problem)
    if rows:
        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size),
        ).tocsr()
    else:  # pragma: no cover - degenerate size-0 problems don't occur
        matrix = sp.csr_matrix((size, size))
    matrix.sum_duplicates()
    return matrix


# -- linear algebra helpers --------------------------------------------------


# largest dense block of A12^-1 A11 held at once while forming the Schur
# complement; the full block is (2M-1)(N-1) x (N-1)
_SCHUR_CHUNK_BYTES = 32 * 2**20

# LAPACK's LU without scipy.linalg.lu_factor's warning on a zero pivot
_getrf = scipy.linalg.get_lapack_funcs("getrf", dtype=np.float64)


def _time_order(m: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column orders (new position -> old index) that split J in time.

    Rows run F_rho^1, F_v^1, ..., F_rho^{M-1}, F_v^{M-1}, F_v^M, with the
    terminal rows F_rho^M last; columns run v^1, then rho^l, v^l for
    l = 2..M, then v^{M+1}.
    """
    block = n1 * np.arange(m + 1)[:, None] + np.arange(n1)
    rho_rows, v_rows = block[:m], m * n1 + block[:m]
    rows = np.concatenate(
        [np.stack([rho_rows[:-1], v_rows[:-1]], axis=1).ravel(), v_rows[-1], rho_rows[-1]]
    )
    rho_cols, v_cols = block[: m - 1], (m - 1) * n1 + block
    cols = np.concatenate(
        [v_cols[0], np.stack([rho_cols, v_cols[1:m]], axis=1).ravel(), v_cols[m]]
    )
    return rows, cols


class _CondensedFactor:
    """Block elimination of the Newton matrix in time.

    In the order of ``_time_order`` the Jacobian is [[A11, A12], [A21, A22]]
    with A12 square and lower triangular: each residual level touches only
    its own level and the next, whose coefficient is the identity.  Once the
    first-level tree velocities v^1 are fixed, the system is a forward sweep
    in time.  A12 is factored as it stands, without fill, and the (N-1) x
    (N-1) Schur complement K = A21 - A22 A12^-1 A11 densely.

    An exactly zero column of K makes J exactly singular and raises
    SingularJacobianError with rcond 0.  Any other zero pivot of K, or a
    non-finite K, leaves the factor ``singular``: every solve then returns
    NaN, so the step is reported as non-finite instead of raised.
    """

    def __init__(self, problem: TransportProblem, matrix: sp.spmatrix):
        m = problem.steps
        n1 = problem.graph.node_count - 1
        size = 2 * m * n1
        self.rows, self.cols = _time_order(m, n1)
        top = size - n1
        coo = matrix.tocoo()
        # argsort inverts a permutation: old index -> new position
        r, c = np.argsort(self.rows)[coo.row], np.argsort(self.cols)[coo.col]

        def block(keep, row0, col0, shape):
            entries = (coo.data[keep], (r[keep] - row0, c[keep] - col0))
            return sp.csc_matrix(entries, shape=shape)

        upper, left = r < top, c < n1
        self.a11 = block(upper & left, 0, 0, (top, n1))
        a12 = block(upper & ~left, 0, n1, (top, top))
        a21 = block(~upper & left, top, 0, (n1, n1))
        self.a22 = block(~upper & ~left, top, n1, (n1, top))
        try:
            # natural order with diagonal pivots keeps the triangle: no fill
            self.a12_lu = spla.splu(
                a12,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularJacobianError(
                f"Jacobian factorization failed: {exc}"
            ) from exc

        schur = a21.toarray()
        chunk = max(1, _SCHUR_CHUNK_BYTES // (8 * top))
        for j in range(0, n1, chunk):
            columns = self.a11[:, j : j + chunk].toarray()
            schur[:, j : j + chunk] -= self.a22 @ self.a12_lu.solve(columns)

        zero_columns = np.flatnonzero(~schur.any(axis=0))
        if zero_columns.size:
            raise SingularJacobianError(
                f"Jacobian is exactly singular: {zero_columns.size} of {n1} "
                "Schur-complement columns are zero",
                rcond=0.0,
            )
        self.singular = not np.isfinite(schur).all()
        if not self.singular:
            self.schur, self.pivots, info = _getrf(schur, overwrite_a=True)
            self.singular = info != 0

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """J^-1 b, or J^-T b for ``trans="T"``; b may hold several columns."""
        b = np.asarray(b, dtype=float)
        if self.singular:
            return np.full(b.shape, np.nan)
        n1 = self.a11.shape[1]
        x = np.empty_like(b)
        if trans == "N":
            c = b[self.rows]
            head, tail = c[:-n1], c[-n1:]
            y1 = self._schur_solve(tail - self.a22 @ self.a12_lu.solve(head), 0)
            y2 = self.a12_lu.solve(head - self.a11 @ y1)
            x[self.cols] = np.concatenate([y1, y2])
        else:
            d = b[self.cols]
            head, tail = d[:n1], d[n1:]
            z = self.a12_lu.solve(tail, trans="T")
            w2 = self._schur_solve(head - self.a11.T @ z, 1)
            w1 = self.a12_lu.solve(tail - self.a22.T @ w2, trans="T")
            x[self.rows] = np.concatenate([w1, w2])
        return x

    def _schur_solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        return scipy.linalg.lu_solve(
            (self.schur, self.pivots), b, trans=trans, check_finite=False
        )


def _rcond_estimate(matrix: sp.csr_matrix, lu: _CondensedFactor) -> float | None:
    """1 / (norm1(J) * est(norm1(J^-1))) from the existing factorization.

    A factor with a zero pivot has found J singular: 0.
    """
    if lu.singular:
        return 0.0
    try:
        norm1 = spla.norm(matrix, 1)
        if norm1 == 0.0:
            return 0.0
        n = matrix.shape[0]
        inverse = spla.LinearOperator(
            (n, n),
            matvec=lu.solve,
            matmat=lu.solve,
            rmatvec=lambda b: lu.solve(b, trans="T"),
            dtype=float,
        )
        inv_norm1 = spla.onenormest(inverse)
        return float(1.0 / (norm1 * inv_norm1))
    except Exception:  # estimation is best-effort diagnostics only
        logger.debug("reciprocal-condition estimate failed", exc_info=True)
        return None


# -- the solver ---------------------------------------------------------------


def newton_solve(
    problem: TransportProblem,
    x0: np.ndarray | None = None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the discrete geodesic equations by (quasi-)Newton iteration.

    Stops when the Euclidean residual norm drops below the tolerance or the
    iteration budget is exhausted.  Divergence and non-finite residuals are
    reported through the status, never raised; an exactly singular Jacobian
    raises SingularJacobianError with rcond 0.
    """
    if config is None:
        config = SolveConfig()
    if x0 is None:
        x = default_initial_guess(problem)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (state_size(problem),):
            raise DimensionMismatchError(
                f"x0 must have shape ({state_size(problem)},), got {x.shape}"
            )

    residual = assemble_residual(problem, x)
    history = [float(np.linalg.norm(residual))]
    iterations = 0
    rcond: float | None = None
    chord_lu = None

    while True:
        if not np.isfinite(history[-1]):
            status = "nonfinite_residual"
            break
        if history[-1] < config.tolerance:
            status = "converged"
            break
        if iterations >= config.max_iterations:
            status = "max_iterations_exceeded"
            break

        if config.jacobian == "chord":
            if chord_lu is None:
                matrix = assemble_jacobian_analytic(problem, x)
                chord_lu = _CondensedFactor(problem, matrix)
                rcond = _rcond_estimate(matrix, chord_lu)
            lu = chord_lu
        else:
            if config.jacobian == "fd":
                matrix = assemble_jacobian_fd(problem, x, config.fd_step)
            else:
                matrix = assemble_jacobian_analytic(problem, x)
            lu = _CondensedFactor(problem, matrix)
            if rcond is None:
                rcond = _rcond_estimate(matrix, lu)

        step = lu.solve(-residual)
        if config.damping:
            alpha = 1.0
            for _ in range(31):
                trial = x + alpha * step
                trial_residual = assemble_residual(problem, trial)
                trial_norm = float(np.linalg.norm(trial_residual))
                if np.isfinite(trial_norm) and trial_norm < history[-1]:
                    break
                alpha *= 0.5
            else:
                # no halving lowers the residual: keep the last iterate
                status = "line_search_failed"
                break
            x, residual = trial, trial_residual
        else:
            x = x + step
            residual = assemble_residual(problem, x)
        iterations += 1
        history.append(float(np.linalg.norm(residual)))

    if rcond is not None and rcond < config.rcond_warn:
        logger.warning(
            "Jacobian reciprocal-condition estimate %.3e below %.1e",
            rcond,
            config.rcond_warn,
        )

    trajectory = unpack(problem, x)
    m = problem.steps
    margins = _cfl_margins_all_levels(
        problem.graph, trajectory.edge_velocities[:m], problem.tau
    )
    report = SolveReport(
        trajectory=trajectory,
        converged=status == "converged",
        status=status,
        iterations=iterations,
        residual_history=np.array(history),
        positivity_ok=bool(trajectory.densities.min() >= 0.0),
        cfl_margin=float(margins.min()),
        w2_action=metrics.w2_action(trajectory, problem.graph, problem.model),
        w2_initial=metrics.w2_initial(trajectory, problem.graph, problem.model),
        jacobian_rcond=rcond,
    )
    logger.info(
        "newton_solve: status=%s iterations=%d residual=%.3e",
        report.status,
        report.iterations,
        history[-1],
    )
    return report


def _cfl_margins_all_levels(
    graph: WeightedGraph, edge_velocities: np.ndarray, tau: float
) -> np.ndarray:
    sw = graph.sqrt_weights
    vp = np.maximum(edge_velocities, 0.0)
    vm = np.maximum(-edge_velocities, 0.0)
    load = (graph.tail_matrix @ (sw * vp).T + graph.head_matrix @ (sw * vm).T).T
    return 1.0 - tau * load


def check_cfl(
    graph: WeightedGraph, v_edges: np.ndarray, tau: float
) -> tuple[np.ndarray, float]:
    """Local CFL margins and the global sufficient time-step bound.

    Returns (margins, tau_star): margin_i = 1 - tau * sum_j sqrt(w) v_ij^+
    and tau_star = 1 / (d_max * sqrt(w_max) * max|v|), reported as inf for a
    zero field.  Nonnegative margins everywhere guarantee the explicit
    upwind update preserves nonnegativity; tau <= tau_star implies that for
    every node.
    """
    v = np.asarray(v_edges, dtype=float)
    if v.shape != (graph.edge_count,):
        raise DimensionMismatchError(
            f"edge velocities must have shape ({graph.edge_count},), got {v.shape}"
        )
    margins = _cfl_margins_all_levels(graph, v[None, :], tau)[0]
    vmax = float(np.abs(v).max()) if v.size else 0.0
    if vmax == 0.0:
        tau_star = float("inf")
    else:
        tau_star = 1.0 / (graph.max_degree * float(graph.sqrt_weights.max()) * vmax)
    return margins, tau_star
