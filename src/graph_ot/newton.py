"""Newton solver for the discrete geodesic residual.

The residual uses the explicit left-rectangle rule: residual level l couples
only time levels l and l+1, and its coefficient on level l+1 is the
identity.  Once the first level is fixed, a Newton step is a forward sweep
in time.  Each step is therefore solved by block elimination in time, the
condensing step of multiple shooting.  The unknowns and the residual are
laid out level by level (see ``graph_ot.system``), so the columns of levels
2..M+1 against every row but the terminal density rows, which come last,
are one contiguous lower triangular block, factored without fill; the
(N-1) x (N-1) Schur complement on the first level is factored densely.
That Schur complement is formed by a forward sweep over the time levels,
one sparse x dense product per level, run by scipy's CSR kernel into two
cache-sized column panels that each factorization allocates once (see
``_CondensedFactor``).

The state and the residual keep the spanning-tree gauge, but each Newton
step is solved in node potentials S, node N's pinned to zero.  Tree edge f
carries v_f = sqrt(w_f) (S_head - S_tail), so per level C = diag(T, I) maps
(S, rho) to (v, rho), with T the tree incidence scaled by sqrt(w), and
R = diag(T^-1, I) maps the velocity rows F_v to the nodal rows
S^{l+1} - S^l + (tau/2)(G - G_N).  C and R are taken from ``problem.tree``,
which holds T factored (see ``graph_ot.tree``).  The matrix factored is
J^ = R J C, the Jacobian of s -> R F(C s): every edge velocity is a
difference of two potentials, so J^ follows the graph stencil whatever the
tree, where J carries each edge's whole tree path.  The step is
C J^-1 (-R F), J's step in exact arithmetic, since Newton's method is
affine invariant.

J^ has the same entries at every level, shifted by 2(N-1) rows and columns,
and they depend only on the graph and M.  The first analytic assembly of a
problem therefore builds one level's entries as a template, cached on the
TransportProblem, with a sparse operator from five per-edge terms to the
entry values.  Each assembly evaluates those terms for all M levels as
(M, E) arrays and lays the levels out in CSR order in one vectorized pass.
J^ stores exactly its nonzero entries: at v = 0 every flux and kinetic
entry vanishes, and the level sweep then multiplies through none of them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
# Y += A X for a CSR A and dense row-major X and Y, the kernel behind
# scipy's CSR @ dense; private to scipy, so tests pin its behaviour
from scipy.sparse._sparsetools import csr_matvecs

from . import metrics
from .errors import DimensionMismatchError, InputFormatError, SingularJacobianError
from .graph import WeightedGraph
from .system import (
    TransportProblem,
    Trajectory,
    _split,
    assemble_residual,
    level_fields,
    pack_fields,
    state_size,
    unpack,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "default_initial_guess",
    "assemble_jacobian_analytic",
    "newton_solve",
    "check_cfl",
]

logger = logging.getLogger(__name__)

# a factor whose Schur complement has a reciprocal condition number below
# this is logged.  Healthy factors read 4.1e-8 and up (the 32x32 grid); the
# undamped far-apart 1-d pair reads 2.65e-61 at the factor whose step
# overflows
_RCOND_WARN = 1e-12
# the error-oriented damping gives up once its factor falls below this
_LAMBDA_MIN = 1e-8
# a full step whose contraction |dxbar| / |dx| is below this keeps its factor
# for the next step.  Higher, the linear steps of a kept factor cost more
# than the factorizations they save: at 0.25 recover-topology takes 13
# steps where 0.1 takes 5, with 2 factorizations each.  Lower saves none:
# at 0.05 check-cfl factors 5 times where 0.1 factors 4
_THETA_MAX = 0.1


@dataclass
class SolveConfig:
    """Newton iteration controls.

    ``damping`` damps each Newton step by Deuflhard's error-oriented
    NLEQ-ERR (see ``newton_solve``); plain Newton when off.
    ``max_iterations`` caps the accepted steps, kept-factor steps included.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100
    damping: bool = False

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise InputFormatError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if not float(self.max_iterations).is_integer() or self.max_iterations < 1:
            raise InputFormatError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations}"
            )
        self.max_iterations = int(self.max_iterations)


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``status`` is "converged", "max_iterations_exceeded",
    "nonfinite_residual", "line_search_failed" (damping on, and the damping
    factor fell below 1e-8 before a trial passed the natural monotonicity
    test; the solve keeps the last iterate) or "singular_jacobian" (the
    Jacobian at the last iterate is exactly singular or could not be
    factored; the solve stops there).  ``converged`` is true iff the final
    residual norm is below the tolerance.  The damped residual norm need
    not fall at every step: the damping bounds the Newton correction, not
    the residual.  ``damping_factors`` holds the factor lambda of each
    accepted step, all 1 without damping.  ``cfl_margin`` is the worst
    local margin 1 - tau * sum sqrt(w) v^+ over nodes and the M update
    levels (relevant for the upwind model).  ``jacobian_rcond`` is the
    1-norm reciprocal condition number of the Schur complement K of the
    first matrix factored, the dense (N-1) x (N-1) matrix the solver
    inverts (see ``_CondensedFactor``), as LAPACK's gecon estimates it; 0
    when that matrix was found singular, None when no factorization
    happened.
    """

    trajectory: Trajectory
    converged: bool
    status: str
    iterations: int
    residual_history: np.ndarray
    damping_factors: np.ndarray
    jacobian_refreshed: np.ndarray
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


# -- node potentials ---------------------------------------------------------


def _from_potentials(problem: TransportProblem, s: np.ndarray) -> np.ndarray:
    """C s: the potential blocks of s mapped to tree velocities."""
    interior, potentials = _split(problem, s)
    tree = problem.tree
    full = np.hstack([potentials, np.zeros((len(potentials), 1))])
    velocities = tree.sqrt_weights * (full[:, tree.head] - full[:, tree.tail])
    return pack_fields(problem, interior, velocities)


def _to_nodal_rows(problem: TransportProblem, residual: np.ndarray) -> np.ndarray:
    """R F: every velocity block F_v of the residual mapped by T^-1."""
    m = problem.steps
    n = problem.graph.node_count
    rows = np.array(residual, dtype=float).reshape(m, 2, n - 1)
    rows[:, 0] = problem.tree.recover_potential(rows[:, 0], base=n)[:, :-1]
    return rows.ravel()


# -- Jacobian assembly -------------------------------------------------------


# Per-edge terms of one level, each a block of E rows of the template
# operator: the flux partials sqrt(w) v dtheta/drho at the tail and at the
# head, the momentum weight sqrt(w) theta, and the kinetic partials
# 2 v dtheta/drho seen from the tail and from the head.
_FLUX_TAIL, _FLUX_HEAD, _WEIGHT, _KIN_TAIL, _KIN_HEAD = range(5)
_EDGE_TERMS = 5

@dataclass(frozen=True)
class _JacobianTemplate:
    """The entries of J^ at one time level, shared by all M levels.

    Residual level l (0-based) holds rows 2(N-1)l .. 2(N-1)(l+1) - 1, the
    nodal rows before F_rho.  Its entries lie in the same range of columns
    shifted back by N-1: the potentials and densities of time level l+1,
    then those of level l+2, except that the first level's potentials S^1
    take columns 0..N-2, where the fixed densities mu would be.  Entry k of
    level l sits in column ``columns[k] + 2(N-1) l``, plus N-1 for S^1;
    ``columns`` holds one level, in the index dtype of the CSR matrix the
    assembly returns.  Entry k's value is ``constants[k]`` plus the level's
    edge terms times column k of ``operator``.  Entries are sorted by row
    and column, so the levels laid out one after another are in CSR order.
    The template holds every entry that can be nonzero at some state; the
    assembly stores those that are nonzero at the state it is given.
    """

    columns: np.ndarray  # level 0's, S^1 unshifted: -(N-1) .. 3(N-1) - 1
    constants: np.ndarray
    operator: sp.csr_matrix  # (_EDGE_TERMS * E, entries)
    own_density: np.ndarray  # columns of mu at the first level
    next_density: np.ndarray  # columns of nu at the last level
    row_starts: np.ndarray  # first entry of each row


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
    """Entries of one level of J^ with their dependence on the edge terms.

    Includes the chain-rule terms through the eliminated density
    rho_N = 1 - sum rho_i and through the edge gradient
    v_e = sqrt(w_e) (S_head - S_tail), S_N = 0.  The nodal rows have no
    density derivative because both supported mobility models have
    density-independent partials; a model with curved partials would need
    an extra block here.
    """
    g = problem.graph
    m = problem.steps
    n1 = g.node_count - 1
    ne = g.edge_count
    tau = problem.tau
    idx = np.arange(n1)
    edge = np.arange(ne)
    # rows: nodal, then F_rho; columns the level's potentials and densities,
    # then the next level's
    rho_row = n1
    s_own, rho_own, s_next, rho_next = -n1, 0, n1, 2 * n1

    # identities: +I on the next level, -I on the same level
    const_rows = np.concatenate([idx, idx, rho_row + idx, rho_row + idx])
    const_cols = np.concatenate(
        [s_next + idx, s_own + idx, rho_next + idx, rho_own + idx]
    )
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
    flux_rows = rho_row + np.concatenate([er[direct], np.repeat(er[last], n1)])
    flux_cols = rho_own + np.concatenate([ec[direct], np.tile(idx, hits)])
    flux_terms = np.concatenate([et[direct], np.repeat(et[last], n1)])
    flux_coef = np.concatenate([ev[direct], -np.repeat(ev[last], n1)])

    # density residual: velocity derivative d(v*theta)/dv = theta(.,.,v),
    # the rows of incidence . diag(sqrt(w) theta)
    i, e, sign = _row_entries(g.incidence, idx)
    pair_rows = [rho_row + i]
    pair_edges = [e]
    pair_terms = [_WEIGHT * ne + e]
    pair_coef = [tau * sign]

    # nodal rows: (tau/2) d(G_i - G_N)/dv, where every edge that meets node
    # i adds 2 v dtheta/drho seen from i's end to G_i; node N's row is
    # subtracted from every row
    for incident, block in ((g.tail_matrix, _KIN_TAIL), (g.head_matrix, _KIN_HEAD)):
        i, e, _ = _row_entries(incident, idx)
        _, e_last, _ = _row_entries(incident, np.array([n1]))
        e = np.concatenate([e, np.tile(e_last, n1)])
        pair_rows += [i, np.repeat(idx, e_last.size)]
        pair_edges.append(e)
        pair_terms.append(block * ne + e)
        pair_coef.append(np.repeat([0.5 * tau, -0.5 * tau], [i.size, n1 * e_last.size]))

    pair_rows, pair_edges, pair_terms, pair_coef = (
        np.concatenate(a) for a in (pair_rows, pair_edges, pair_terms, pair_coef)
    )
    # each edge velocity is the difference of its ends' potentials
    gradient = (sp.diags(-g.sqrt_weights) @ g.incidence.T).tocsr()[:, :n1]
    k, c, factor = _row_entries(gradient, pair_edges)

    rows = np.concatenate([const_rows, flux_rows, pair_rows[k]])
    cols = np.concatenate([const_cols, flux_cols, s_own + c])
    width = 4 * n1
    entry, inverse = np.unique(rows * width + cols - s_own, return_inverse=True)
    rows, cols = entry // width, entry % width + s_own
    n_const = const_rows.size

    constants = np.zeros(entry.size)
    constants[inverse[:n_const]] = const_vals
    operator = sp.csr_matrix(
        (
            np.concatenate([flux_coef, pair_coef[k] * factor]),
            (np.concatenate([flux_terms, pair_terms[k]]), inverse[n_const:]),
        ),
        shape=(_EDGE_TERMS * ne, entry.size),
    )
    # the CSR index dtype of a matrix of this size with up to M x entries
    largest = max(state_size(problem), m * entry.size)
    index = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
    return _JacobianTemplate(
        columns=cols.astype(index),
        constants=constants,
        operator=operator,
        own_density=(cols >= rho_own) & (cols < s_next),
        next_density=cols >= rho_next,
        row_starts=np.flatnonzero(np.diff(rows, prepend=-1)),
    )


def assemble_jacobian_analytic(problem: TransportProblem, x: np.ndarray) -> sp.csr_matrix:
    """Exact sparse Newton matrix J^ = R J C at the state x.

    J^ is the Jacobian of s -> R F(C s), the residual in node potentials
    (see the module docstring); x stays in the tree gauge.  Fills the
    problem's cached template with the edge terms of all M levels at once,
    and stores exactly the entries whose value is nonzero.
    """
    t = problem._jacobian_template
    if t is None:
        t = problem._jacobian_template = _build_jacobian_template(problem)
    g = problem.graph
    model = problem.model
    m = problem.steps
    sw = g.sqrt_weights

    rho, _, ve = level_fields(problem, x)
    v = ve[:m]
    rt, rh = rho[:m, g.tail], rho[:m, g.head]
    th = model.theta_values(rt, rh, v)
    p_tail, p_head = model.theta_density_partials(rt, rh, v)
    p_head_own = model.theta_density_partials(rh, rt, -v)[0]
    del rho, rt, rh
    terms = np.empty((_EDGE_TERMS, g.edge_count, m))
    terms[_FLUX_TAIL] = (sw * v * p_tail).T
    terms[_FLUX_HEAD] = (sw * v * p_head).T
    terms[_WEIGHT] = (sw * th).T
    terms[_KIN_TAIL] = (2.0 * v * p_tail).T
    terms[_KIN_HEAD] = (2.0 * v * p_head_own).T
    del th, p_tail, p_head, p_head_own

    # operator^T times the terms laid out level-minor, which scipy's kernel
    # reads as they stand: terms @ operator would first copy them
    values = (t.operator.T @ terms.reshape(-1, m)).T
    del terms
    values += t.constants
    keep = values != 0.0
    keep[0, t.own_density] = False
    keep[-1, t.next_density] = False
    counts = np.add.reduceat(keep, t.row_starts, axis=1, dtype=np.intp)
    indptr = np.zeros(counts.size + 1, dtype=t.columns.dtype)
    np.cumsum(counts, out=indptr[1:])
    data = values[keep]
    del values
    indices = np.broadcast_to(t.columns, keep.shape)[keep]
    del keep
    # level l's entries lie 2(N-1) l columns on; S^1 takes the columns of mu
    n1 = g.node_count - 1
    width = 2 * n1
    indices += np.repeat(
        np.arange(0, m * width, width, dtype=indices.dtype), np.diff(indptr[::width])
    )
    first = indices[: indptr[width]]
    first[first < 0] += n1
    size = state_size(problem)
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


# -- linear algebra helpers --------------------------------------------------


# largest column panel of one level's 2(N-1) rows of A12^-1 A11 that the
# level sweep holds at once while forming the Schur complement.  Timed at
# 32x32, M=32, 2 MiB panels form K in 355 ms, against 352 ms at 1 MiB,
# 367 ms at 512 KiB and 530 ms in one 16 MiB panel; at 64x64, M=16 in
# 2.8-3.2 s, against 3.3-3.5 s at 1 MiB and 4.4 s at 32 MiB
_SCHUR_CHUNK_BYTES = 2 * 2**20

# LAPACK's LU (without scipy.linalg.lu_factor's warning on a zero pivot),
# 1-norm, and reciprocal condition number from an LU and the 1-norm
_getrf, _lange, _gecon = scipy.linalg.get_lapack_funcs(
    ("getrf", "lange", "gecon"), dtype=np.float64
)


def _level_blocks(a11: sp.csr_matrix, a12: sp.csr_matrix):
    """The strict lower part of A12, negated.

    One CSR triple (indptr, indices, data) in A12's index dtype, each
    entry's column shifted into the level before its row's, so that a
    level's rows are a slice of indptr against one level's columns.  Raises
    ValueError unless A12 and A11 have the pattern ``_sweep_schur`` needs.
    """
    top, n1 = a11.shape
    width = 2 * n1
    col = a12.indices
    count = np.diff(a12.indptr)
    level = np.repeat(np.arange(top, dtype=col.dtype), count)  # each entry's row
    on_diagonal = col == level
    diagonal = level[on_diagonal]
    level //= width
    # off the diagonal, every entry must lie in the level before its row's
    valid = col // width + 1 == level
    valid |= on_diagonal
    if (
        a11.indptr[min(width, top)] != a11.nnz
        or not valid.all()
        or not np.array_equal(diagonal, np.arange(top))
        or not (a12.data[on_diagonal] == 1.0).all()
    ):
        raise ValueError(
            "the level sweep needs A12 block lower bidiagonal in time, with "
            "the identity on its diagonal, and A11 within the rows of the "
            "first level"
        )
    del level, valid  # entry-sized; held on, they would set the sweep's peak
    below = np.logical_not(on_diagonal, out=on_diagonal)
    count -= 1  # the diagonal entry of each row
    indptr = np.zeros(top + 1, dtype=col.dtype)
    np.cumsum(count, out=indptr[1:])
    data = a12.data[below]
    np.negative(data, out=data)
    indices = col[below]
    indices %= width
    return indptr, indices, data


def _sweep_schur(
    a11: sp.csr_matrix, levels: tuple, a21: sp.csr_matrix, a22: sp.csr_matrix
) -> np.ndarray:
    """K = A21 - A22 A12^-1 A11 by block forward substitution in time.

    Level k = 0, 1, ... holds rows and columns 2(N-1)k .. 2(N-1)(k+1) - 1
    of A12, N-1 of them at the last level.  A12 is block lower bidiagonal,
    with the identity on its diagonal and one sub-diagonal block L_k per
    level, and A11 lies in the rows of level 0: ``levels`` is
    ``_level_blocks(a11, a12)``, which checks that pattern.

    Y_0 = A11 and Y_k = -L_k Y_{k-1}, one sparse x dense product per level,
    and only the levels that A22 touches are multiplied into K.  K is
    formed in column panels of at most ``_SCHUR_CHUNK_BYTES`` per level,
    which stay near the cache and bound the sweep's memory whatever the
    graph.  A panel of Y moves between two buffers allocated once, and each
    product runs scipy's CSR kernel ``csr_matvecs`` (Y += A X) on slices of
    the one CSR triple ``levels``, so the loop over the levels allocates
    nothing.  The negated columns of A22 accumulate into K from zero,
    and A21 is added last: each entry is the sum ``A21 - A22 @ Y`` would
    form, term by term in the same order, whenever A22 touches one level,
    as the terminal density rows of the Newton matrix do.

    In one panel, K is the panel, in C order.  In several, each panel
    accumulates in a buffer of its own, copied into its columns of a K in
    Fortran order, which LAPACK's LU overwrites in place where it would
    copy a C-ordered K: a second K, 134 MB at 64x64.  One panel's K is at
    most 1 MB, and its copy comes once the sweep's buffers are gone.
    """
    top, n1 = a11.shape
    width = 2 * n1
    touched = np.unique(a22.indices // width).tolist()
    ptr, indices, data = levels
    if not touched:
        return a21.toarray()
    a22_levels = {k: -a22[:, k * width : (k + 1) * width] for k in touched}

    rows = min(width, top)  # of level 0: all of A12's rows when M = 1
    chunk = min(n1, max(1, _SCHUR_CHUNK_BYTES // (8 * width)))
    y, spare = np.empty(rows * chunk), np.empty(rows * chunk)
    schur = np.zeros((n1, n1), order="C" if chunk == n1 else "F")
    panel = schur.ravel() if chunk == n1 else np.empty(n1 * chunk)
    for j in range(0, n1, chunk):
        c = min(chunk, n1 - j)
        first = y[: rows * c].reshape(rows, c)
        a11[:rows, j : j + c].toarray(out=first)
        target = panel[: n1 * c]
        target[:] = 0.0
        for k in range(touched[-1] + 1):
            r0, r1 = k * width, min((k + 1) * width, top)
            size = (r1 - r0) * c
            if k:
                y, spare = spare, y
                y[:size] = 0.0
                csr_matvecs(
                    r1 - r0, width, c, ptr[r0 : r1 + 1], indices, data,
                    spare[: width * c], y[:size],
                )
            if k in a22_levels:
                a22_k = a22_levels[k]
                csr_matvecs(
                    n1, r1 - r0, c, a22_k.indptr, a22_k.indices, a22_k.data,
                    y[:size], target,
                )
        if chunk < n1:
            schur[:, j : j + c] = target.reshape(n1, c)
    a21 = a21.tocoo()
    np.add.at(schur, (a21.row, a21.col), a21.data)
    return schur


class _CondensedFactor:
    """Block elimination of the Newton matrix in time.

    The unknowns and the residual are laid out level by level, the first
    level's N-1 unknowns first and the terminal density rows F_rho^M last
    (see ``graph_ot.system``).  Split N-1 columns from the start and N-1
    rows from the end, the matrix as it stands is [[A11, A12], [A21, A22]],
    and the four blocks are slices of it.  A12 is square and lower
    triangular with the identity on its diagonal: each residual level
    touches only its own level and the next, whose coefficient is the
    identity.  Once the first level is fixed, the system is a forward sweep
    in time.  A12 is factored as it stands, without fill, and the
    (N-1) x (N-1) Schur complement K = A21 - A22 A12^-1 A11 densely.

    SuperLU factors A12 in natural order with diagonal pivots, which keeps
    the triangle, and with panel size 1.  Panels block the updates of a
    column by the columns before it, and in a lower triangle no column
    updates another, so the factor and its solves are bit for bit those of
    the default panel size, without the panel workspace, which lowers a
    factorization's peak memory.

    ``_sweep_schur`` forms K by sweeping the time levels, one sparse x
    dense product each, holding one level's 2(N-1) rows of a column panel
    of A12^-1 A11.  That is several times faster than SuperLU solves with
    A12's factor on chunks of A11's columns on the 1-d map and the 2-d
    benchmark, level with them on K10 and faster from the 32-node ring up.
    Only on sparse graphs of 10 nodes or fewer does its fixed cost per
    level make it slower, by 1-2 ms, which no workload resolves, so it is
    the only way K is formed.  A12's factor serves every solve.

    The factor assembles J^ at the state x itself, through
    ``assemble_jacobian_analytic``: a J^ passed in would stay referenced by
    the call until the factor is built.  So it holds one copy of the
    matrix's entries at a time: J^ until it is split into the four blocks,
    A12's CSR slice until its CSC and ``_level_blocks``' negated triple are
    made, then the CSC until SuperLU has factored it.  The sweep holds
    SuperLU's factor, the triple, two panel buffers and K.  Solves need
    A11, A22 and the two factors.

    ``rcond`` is K's 1-norm reciprocal condition number, from LAPACK's
    gecon on K's LU and ||K||_1, taken by lange just before the LU
    overwrites K: O((N-1)^2) on top of the O((N-1)^3) LU, and no second K.

    An exactly zero column of K makes the matrix exactly singular and
    raises SingularJacobianError.  Any other zero pivot of K,
    or a non-finite K, leaves the factor ``singular``, with ``rcond`` 0:
    every solve then returns NaN, so the step is reported as non-finite
    instead of raised.
    """

    def __init__(self, problem: TransportProblem, x: np.ndarray):
        m = problem.steps
        n1 = problem.graph.node_count - 1
        top = 2 * m * n1 - n1
        matrix = assemble_jacobian_analytic(problem, x)
        self.a11, a12 = matrix[:top, :n1], matrix[:top, n1:]
        a21, self.a22 = matrix[top:, :n1], matrix[top:, n1:]
        del matrix
        levels = _level_blocks(self.a11, a12)
        a12 = a12.tocsc()
        try:
            # natural order with diagonal pivots keeps the triangle: no fill;
            # a triangle has no column updates for a panel to block
            self.a12_lu = spla.splu(
                a12,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                panel_size=1,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularJacobianError(
                f"Jacobian factorization failed: {exc}"
            ) from exc
        del a12

        schur = _sweep_schur(self.a11, levels, a21, self.a22)
        del levels, a21
        zero_columns = np.flatnonzero(~schur.any(axis=0))
        if zero_columns.size:
            raise SingularJacobianError(
                f"Jacobian is exactly singular: {zero_columns.size} of {n1} "
                "Schur-complement columns are zero"
            )
        self.singular = not np.isfinite(schur).all()
        self.rcond = 0.0
        if not self.singular:
            norm1 = _lange("1", schur)
            self.schur, self.pivots, info = _getrf(schur, overwrite_a=True)
            self.singular = info != 0
            if not self.singular:
                self.rcond = float(_gecon(self.schur, norm1, norm="1")[0])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """J^-1 b; b may hold several columns."""
        b = np.asarray(b, dtype=float)
        if self.singular:
            return np.full(b.shape, np.nan)
        n1 = self.a11.shape[1]
        head, tail = b[:-n1], b[-n1:]
        y1 = scipy.linalg.lu_solve(
            (self.schur, self.pivots),
            tail - self.a22 @ self.a12_lu.solve(head),
            check_finite=False,
        )
        y2 = self.a12_lu.solve(head - self.a11 @ y1)
        return np.concatenate([y1, y2])


# -- the solver ---------------------------------------------------------------


def _residual(problem: TransportProblem, x: np.ndarray) -> tuple[np.ndarray, float]:
    """F(x) and its norm.

    A state far from the root may overflow; the solver reports that through
    its status, so numpy stays quiet.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = assemble_residual(problem, x)
        return residual, float(np.linalg.norm(residual))


def _correction(
    problem: TransportProblem, lu: _CondensedFactor, residual: np.ndarray
) -> np.ndarray:
    """-J^-1 F with J's factor, solved in potentials: C J^-1 (-R F)."""
    return _from_potentials(problem, lu.solve(_to_nodal_rows(problem, -residual)))


def _trial(
    problem: TransportProblem, lu: _CondensedFactor, x: np.ndarray, step: np.ndarray, lam: float
):
    """The trial x + lam step, its residual and residual norm, and its
    simplified correction -J^-1 F(trial), solved with the held factor ``lu``."""
    trial = x + lam * step
    residual, norm = _residual(problem, trial)
    with np.errstate(over="ignore", invalid="ignore"):
        return trial, residual, norm, _correction(problem, lu, residual)


def newton_solve(
    problem: TransportProblem,
    x0: np.ndarray | None = None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the discrete geodesic equations by Newton iteration.

    ``x0`` defaults to ``default_initial_guess``; build another with
    ``pack_fields`` or ``pack``, which know the unknowns' layout.  Stops
    when the Euclidean residual norm drops below the tolerance or the
    iteration budget is exhausted.  Divergence, non-finite residuals and an
    exactly singular Jacobian are reported through the status, never
    raised; the report then holds the last iterate.

    Every step is a trial x + lambda dx judged by one rule, Deuflhard's
    affine-invariant natural monotonicity test (*Newton Methods for
    Nonlinear Problems*, Springer 2004, sec. 3.3): its simplified correction
    dxbar = -J^-1 F(x + lambda dx), solved with the held factor, must be
    shorter than (1 - lambda/4) |dx|.  There are three kinds of step:

    - An undamped Newton step dx = -J(x)^-1 F(x) is the trial at lambda = 1,
      taken without the test.
    - A damped Newton step (NLEQ-ERR) starts at the factor predicted from
      the last accepted step, lambda_{k-1} |dx_{k-1}| |dxbar_k| /
      (|dxbar_k - dx_k| |dx_k|) capped at 1, or at 1 for the first step,
      dxbar_k being the simplified correction of the accepted trial.  A
      failed trial retries at min(mu', lambda/2), mu' = lambda^2 |dx| /
      (2 |dxbar - (1 - lambda) dx|) being Deuflhard's corrected estimate, or
      at lambda/2 after a non-finite trial.  A non-finite step, or a
      predicted or corrected factor below ``_LAMBDA_MIN``, ends the solve
      with "line_search_failed".
    - A kept-factor step is simplified Newton (Deuflhard 2004, ch. 2;
      Kelley, *Iterative Methods for Linear and Nonlinear Equations*, SIAM
      1995, the Shamanskii method).  After a full step (lambda = 1) whose
      contraction theta = |dxbar| / |dx| is below ``_THETA_MAX``, the next
      step is that dxbar, the trial at lambda = 1 with the same factor, and
      nothing is assembled or factored.  A kept-factor step that fails the
      test is rejected: the solver keeps x, refactors there and takes a
      Newton step.

    One factor is alive at a time.  Each factor whose K reads an rcond
    below ``_RCOND_WARN`` is logged; the report keeps the first factor's.
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

    residual, norm = _residual(problem, x)
    history = [norm]
    factors: list[float] = []
    refreshed: list[bool] = []
    iterations = 0
    rcond: float | None = None
    # the last accepted step: its length lambda |dx| and its simplified
    # correction, the next step while the held factor is kept
    previous = None
    keep_factor = False

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

        fresh = not keep_factor
        if fresh:
            lu = None  # one factor alive at a time: the last one goes first
            try:
                lu = _CondensedFactor(problem, x)
            except SingularJacobianError:
                status = "singular_jacobian"
                if rcond is None:
                    rcond = 0.0
                break
            if rcond is None:
                rcond = lu.rcond
            if lu.rcond < _RCOND_WARN:
                logger.warning(
                    "Schur-complement reciprocal-condition number %.3e below %.1e "
                    "at step %d",
                    lu.rcond,
                    _RCOND_WARN,
                    iterations + 1,
                )
            step = _correction(problem, lu, residual)
        else:
            step = previous[1]
        lam = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            step_norm = np.linalg.norm(step)
        damped = config.damping and fresh
        if damped and previous is not None:
            last_length, simplified = previous
            gap = np.linalg.norm(simplified - step) * step_norm
            if gap > 0.0:
                lam = min(1.0, last_length * np.linalg.norm(simplified) / gap)

        # one trial per step, but a damped step retries down to _LAMBDA_MIN,
        # and makes no trial at all along a non-finite step
        passed = False
        while lam >= _LAMBDA_MIN and (np.isfinite(step_norm) or not damped):
            trial, trial_residual, trial_norm, simplified = _trial(problem, lu, x, step, lam)
            with np.errstate(over="ignore", invalid="ignore"):
                simplified_norm = np.linalg.norm(simplified)
            passed = simplified_norm < (1.0 - 0.25 * lam) * step_norm
            if passed or not damped:
                break
            if np.isfinite(simplified_norm):
                gap = np.linalg.norm(simplified - (1.0 - lam) * step)
                lam = min(0.5 * step_norm * lam**2 / gap if gap > 0.0 else np.inf, 0.5 * lam)
            else:
                lam *= 0.5
        if not passed and not fresh:
            keep_factor = False  # a kept-factor step failed: refactor at x
            continue
        if not passed and damped:
            status = "line_search_failed"  # the report keeps the last iterate
            break

        x, residual, norm = trial, trial_residual, trial_norm
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = simplified_norm / step_norm
        previous = (lam * step_norm, simplified)
        keep_factor = lam == 1.0 and theta < _THETA_MAX
        iterations += 1
        history.append(norm)
        factors.append(lam)
        refreshed.append(fresh)

    trajectory = unpack(problem, x)
    m = problem.steps
    margins, _ = check_cfl(problem.graph, trajectory.edge_velocities[:m], problem.tau)
    report = SolveReport(
        trajectory=trajectory,
        converged=status == "converged",
        status=status,
        iterations=iterations,
        residual_history=np.array(history),
        damping_factors=np.array(factors),
        jacobian_refreshed=np.array(refreshed, dtype=bool),
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


def check_cfl(
    graph: WeightedGraph, v_edges: np.ndarray, tau: float
) -> tuple[np.ndarray, float]:
    """Local CFL margins and the global sufficient time-step bound.

    Returns (margins, tau_star): margin_i = 1 - tau * sum_j sqrt(w) v_ij^+
    and tau_star = 1 / (d_max * sqrt(w_max) * max|v|), reported as inf for a
    zero field.  Nonnegative margins everywhere guarantee the explicit
    upwind update preserves nonnegativity; tau <= tau_star implies that for
    every node.  Accepts one level's edge velocities, shape (E,), or one
    row per level, shape (levels, E); the margins then have shape (N,) or
    (levels, N), and max|v| is taken over every level.
    """
    v = np.asarray(v_edges, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != graph.edge_count:
        raise DimensionMismatchError(
            f"edge velocities must have shape ({graph.edge_count},) or "
            f"(levels, {graph.edge_count}), got {v.shape}"
        )
    rows = np.atleast_2d(v)
    sw = graph.sqrt_weights
    vp = np.maximum(rows, 0.0)
    vm = np.maximum(-rows, 0.0)
    load = (graph.tail_matrix @ (sw * vp).T + graph.head_matrix @ (sw * vm).T).T
    margins = 1.0 - tau * load
    vmax = float(np.abs(v).max()) if v.size else 0.0
    if vmax == 0.0:
        tau_star = float("inf")
    else:
        tau_star = 1.0 / (graph.max_degree * float(sw.max()) * vmax)
    return (margins[0] if v.ndim == 1 else margins), tau_star
