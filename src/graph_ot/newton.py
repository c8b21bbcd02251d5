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
buffers that each factorization allocates once (see ``_CondensedFactor``).

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

Two Jacobian modes are offered: exact analytic assembly, and forward
differences of s -> R F(C s), evaluated from the potentials themselves,
with the columns coloured by time level, at most 4(N-1) residual
evaluations per Jacobian and nothing taken from the template.  Both solve
through the same block elimination.
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
    _potential_residual,
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
    "JACOBIAN_MODES",
    "default_initial_guess",
    "assemble_jacobian_analytic",
    "assemble_jacobian_fd",
    "newton_solve",
    "check_cfl",
]

logger = logging.getLogger(__name__)

JACOBIAN_MODES = ("analytic", "fd")

# base factor of the forward-difference step: unknown j moves by
# _FD_STEP * (1 + |x_j|)
_FD_STEP = 1e-7
# a first-Jacobian reciprocal-condition estimate below this is logged
_RCOND_WARN = 1e-12
# the error-oriented damping gives up once its factor falls below this
_LAMBDA_MIN = 1e-8


@dataclass
class SolveConfig:
    """Newton iteration controls.

    ``damping`` runs Deuflhard's error-oriented damping (NLEQ-ERR): a step
    x + lambda dx is accepted when its simplified correction
    J(x)^-1 F(x + lambda dx), solved with the factor of the step, is shorter
    than (1 - lambda/4) |dx|, lambda being predicted from the last step and
    corrected after each rejected trial (see ``newton_solve``).  Plain
    Newton when off.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100
    jacobian: str = "analytic"  # one of JACOBIAN_MODES
    damping: bool = False

    def __post_init__(self):
        if not 0.0 < self.tolerance < np.inf:
            raise InputFormatError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise InputFormatError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.jacobian not in JACOBIAN_MODES:
            raise InputFormatError(
                f"jacobian must be one of {JACOBIAN_MODES}, got {self.jacobian!r}"
            )


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
    levels (relevant for the upwind model).  ``jacobian_rcond`` is a
    reciprocal-condition estimate of the first matrix factored, the Newton
    matrix in node potentials J^ = R J C (see the module docstring), 0 when
    it was found singular, None when no factorization happened.
    """

    trajectory: Trajectory
    converged: bool
    status: str
    iterations: int
    residual_history: np.ndarray
    damping_factors: np.ndarray
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


def _to_potentials(problem: TransportProblem, x: np.ndarray) -> np.ndarray:
    """C^-1 x: the tree velocities of the unknowns replaced by potentials."""
    interior, velocities = _split(problem, x)
    n = problem.graph.node_count
    potentials = problem.tree.recover_potential(velocities, base=n)[:, :-1]
    return pack_fields(problem, interior, potentials)


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
    then those of level l+2.  So entry k sits in column
    ``cols[k] + offsets[l]``, ``cols`` starting at -(N-1), with one
    exception: the first level's potentials S^1 take columns 0..N-2, where
    the fixed densities mu would be.  Entry k's value is ``constants[k]``
    plus the level's edge terms times column k of ``operator``.  Entries
    are sorted by row and column, so the levels laid out one after another
    are in CSR order.
    """

    cols: np.ndarray
    offsets: np.ndarray
    constants: np.ndarray
    operator: sp.csr_matrix  # (_EDGE_TERMS * E, entries)
    structural: np.ndarray  # stored even where the value is zero
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
        cols=cols,
        offsets=2 * n1 * np.arange(m)[:, None],
        constants=constants,
        operator=operator,
        structural=structural,
        own_density=(cols >= rho_own) & (cols < s_next),
        next_density=cols >= rho_next,
        row_starts=np.flatnonzero(np.diff(rows, prepend=-1)),
    )


def assemble_jacobian_analytic(problem: TransportProblem, x: np.ndarray) -> sp.csr_matrix:
    """Exact sparse Newton matrix J^ = R J C at the state x.

    J^ is the Jacobian of s -> R F(C s), the residual in node potentials
    (see the module docstring); x stays in the tree gauge.  Fills the
    problem's cached template with the edge terms of all M levels at once.
    Entries of the identity and density-flux blocks are stored even when
    zero; entries reached through the potentials' edge gradient are stored
    where their value is nonzero.
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
    terms = np.hstack(
        [sw * v * p_tail, sw * v * p_head, sw * th, 2.0 * v * p_tail, 2.0 * v * p_head_own]
    )

    values = t.constants + terms @ t.operator
    keep = t.structural | (values != 0.0)
    keep[0, t.own_density] = False
    keep[-1, t.next_density] = False
    cols = t.cols + t.offsets
    cols[0, t.cols < 0] += n1  # S^1 takes the place of mu
    counts = np.add.reduceat(keep, t.row_starts, axis=1, dtype=np.intp)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    size = state_size(problem)
    return sp.csr_matrix((values[keep], cols[keep], indptr), shape=(size, size))


def assemble_jacobian_fd(problem: TransportProblem, x: np.ndarray) -> sp.csr_matrix:
    """Forward differences of the residual in potentials, coloured by time level.

    The same Newton matrix J^ as ``assemble_jacobian_analytic``, at the
    state x in the tree gauge: differences of s -> R F(C s) at s = C^-1 x,
    evaluated by ``_potential_residual`` from s itself, so that each column
    touches only the rows of its graph stencil.  Residual level l involves
    only the unknowns of levels l and l+1, so one evaluation perturbs one
    node of one field at every other time level and reads each perturbed
    column off the two residual levels it touches: at most 4(N-1)
    evaluations beyond the base residual.  The colouring uses no part of
    the analytic template, so the result stays an independent check of it.
    The step for unknown j is _FD_STEP * (1 + |s_j|); only nonzero
    differences are stored.
    """
    m = problem.steps
    n1 = problem.graph.node_count - 1
    s = _to_potentials(problem, x)
    base = _potential_residual(problem, s).reshape(m, 2, n1)
    steps = _FD_STEP * (1.0 + np.abs(s))

    # the column of each unknown by time level 1..M+1, field (potential,
    # density) and node: S^1 first, and -1 marks the fixed endpoint densities
    unknowns = np.arange(-n1, (2 * m + 1) * n1).reshape(m + 1, 2, n1)
    unknowns[0] = [np.arange(n1), np.full(n1, -1)]
    unknowns[m, 1] = -1
    rows = np.arange(2 * m * n1).reshape(m, 2, n1)  # level, field, node
    level = np.arange(m)

    entries = []
    for columns in (unknowns[:, 1], unknowns[:, 0]):
        for parity in (0, 1):
            # residual level l sees the perturbed one of levels l and l+1;
            # where that is a fixed endpoint density its differences are zero
            touched = columns[level + (level + parity) % 2]
            for i in range(n1):
                perturbed = columns[parity::2, i]
                perturbed = perturbed[perturbed >= 0]
                if not perturbed.size:
                    continue
                shifted = s.copy()
                shifted[perturbed] += steps[perturbed]
                diff = _potential_residual(problem, shifted).reshape(m, 2, n1) - base
                col = touched[:, i]
                vals = diff / steps[col][:, None, None]
                nz = np.nonzero(vals)
                entries.append((rows[nz], col[nz[0]], vals[nz]))

    r, c, v = (np.concatenate(a) for a in zip(*entries))
    size = state_size(problem)
    return sp.csr_matrix((v, (r, c)), shape=(size, size))


# -- linear algebra helpers --------------------------------------------------


# largest column panel of one level's 2(N-1) rows of A12^-1 A11 that the
# level sweep holds at once while forming the Schur complement
_SCHUR_CHUNK_BYTES = 32 * 2**20

# LAPACK's LU without scipy.linalg.lu_factor's warning on a zero pivot
_getrf = scipy.linalg.get_lapack_funcs("getrf", dtype=np.float64)


def _level_blocks(a11: sp.csr_matrix, a12: sp.csr_matrix):
    """The diagonal D of A12 and its strict lower part scaled by -D^-1.

    The lower part is one CSR triple (indptr, indices, data) in A12's index
    dtype, each entry's column shifted into the level before its row's, so
    that a level's rows are a slice of indptr against one level's columns.
    Raises ValueError unless A12 and A11 have the pattern ``_sweep_schur``
    needs.
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
    if a11.indptr[min(width, top)] != a11.nnz or not valid.all():
        raise ValueError(
            "the level sweep needs A12 block lower bidiagonal in time, with "
            "diagonal matrices on its diagonal blocks, and A11 within the "
            "rows of the first level"
        )
    del level, valid  # entry-sized; held on, they would set the sweep's peak
    below = np.logical_not(on_diagonal, out=on_diagonal)
    count -= np.bincount(diagonal, minlength=top).astype(count.dtype)
    indptr = np.zeros(top + 1, dtype=col.dtype)
    np.cumsum(count, out=indptr[1:])
    d = a12.diagonal()
    data = a12.data[below]
    np.negative(data, out=data)
    data /= np.repeat(d, count)
    indices = col[below]
    indices %= width
    return d, (indptr, indices, data)


def _sweep_schur(
    a11: sp.csr_matrix, a12: sp.csr_matrix, a21: sp.csr_matrix, a22: sp.csr_matrix
) -> np.ndarray:
    """K = A21 - A22 A12^-1 A11 by block forward substitution in time.

    Level k = 0, 1, ... holds rows and columns 2(N-1)k .. 2(N-1)(k+1) - 1
    of A12, N-1 of them at the last level.  A12 must be block lower
    bidiagonal: a diagonal matrix D_k on each diagonal block and one
    sub-diagonal block L_k per level; A11 must lie in the rows of level 0.
    Any other pattern raises ValueError.  A zero in D makes A12 singular,
    which its SuperLU factor has already reported.

    Y_0 = D_0^-1 A11 and Y_k = -D_k^-1 L_k Y_{k-1}, one sparse x dense
    product per level, and only the levels that A22 touches are multiplied
    into K.  A column panel of Y moves between two buffers allocated once,
    and each product runs scipy's CSR kernel ``csr_matvecs`` (Y += A X) on
    slices of ``_level_blocks``' one CSR triple, so the loop over the
    levels allocates nothing.  The negated columns of A22 accumulate into K
    from zero, or into one panel of K when K is formed in column chunks,
    and A21 is added last: each entry is the sum ``A21 - A22 @ Y`` would
    form, term by term in the same order, whenever A22 touches one level,
    as the terminal density rows of the Newton matrix do.
    """
    top, n1 = a11.shape
    width = 2 * n1
    touched = np.unique(a22.indices // width).tolist()
    d, (ptr, indices, data) = _level_blocks(a11, a12)
    if not touched:
        return a21.toarray()
    a22_levels = {k: -a22[:, k * width : (k + 1) * width] for k in touched}

    rows = min(width, top)  # of level 0: all of A12's rows when M = 1
    chunk = min(n1, max(1, _SCHUR_CHUNK_BYTES // (8 * width)))
    y, spare = np.empty(rows * chunk), np.empty(rows * chunk)
    schur = np.zeros((n1, n1))
    panel = schur.ravel() if chunk == n1 else np.empty(n1 * chunk)
    for j in range(0, n1, chunk):
        c = min(chunk, n1 - j)
        first = y[: rows * c].reshape(rows, c)
        a11[:rows, j : j + c].toarray(out=first)
        first /= d[:rows, None]
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

    ``_sweep_schur`` forms K by sweeping the time levels, one sparse x
    dense product each, holding one level's 2(N-1) rows of A12^-1 A11.
    Per factorization it forms K of the 1-d map problem (n=256, M=64) in
    48 ms and of the 16x16 2-d benchmark in 19 ms, against 348 and 113 ms
    by SuperLU solves with A12's factor on chunks of A11's columns (one
    BLAS thread, shared 2-core VM, numpy 2.4, scipy 1.17).  It is level
    with those solves on K10 and faster from the 32-node ring up.  Only on
    sparse graphs of 10 nodes or fewer does its fixed cost per level make
    it slower, by 1-2 ms, which no workload resolves, so it is the only
    way K is formed.  A12's factor serves every solve.

    An exactly zero column of K makes the matrix exactly singular and
    raises SingularJacobianError with rcond 0.  Any other zero pivot of K,
    or a non-finite K, leaves the factor ``singular``: every solve then
    returns NaN, so the step is reported as non-finite instead of raised.
    """

    def __init__(self, problem: TransportProblem, matrix: sp.spmatrix):
        m = problem.steps
        n1 = problem.graph.node_count - 1
        top = 2 * m * n1 - n1
        matrix = sp.csr_matrix(matrix)
        self.a11, a12 = matrix[:top, :n1], matrix[:top, n1:]
        a21, self.a22 = matrix[top:, :n1], matrix[top:, n1:]
        try:
            # natural order with diagonal pivots keeps the triangle: no fill
            self.a12_lu = spla.splu(
                a12.tocsc(),
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularJacobianError(
                f"Jacobian factorization failed: {exc}"
            ) from exc

        schur = _sweep_schur(self.a11, a12, a21, self.a22)
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
        if trans == "N":
            head, tail = b[:-n1], b[-n1:]
            y1 = self._schur_solve(tail - self.a22 @ self.a12_lu.solve(head), 0)
            y2 = self.a12_lu.solve(head - self.a11 @ y1)
            return np.concatenate([y1, y2])
        head, tail = b[:n1], b[n1:]
        z = self.a12_lu.solve(tail, trans="T")
        w2 = self._schur_solve(head - self.a11.T @ z, 1)
        w1 = self.a12_lu.solve(tail - self.a22.T @ w2, trans="T")
        return np.concatenate([w1, w2])

    def _schur_solve(self, b: np.ndarray, trans: int) -> np.ndarray:
        return scipy.linalg.lu_solve(
            (self.schur, self.pivots), b, trans=trans, check_finite=False
        )


def _rcond_estimate(matrix: sp.csr_matrix, lu: _CondensedFactor) -> float | None:
    """1 / (norm1(J) * est(norm1(J^-1))) from the existing factorization.

    A factor with a zero pivot has found J singular: 0.  The estimate runs
    from a fixed seed and leaves the caller's global generator as it was.
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
        # onenormest draws its start vectors from numpy's global generator;
        # a fixed seed makes jacobian_rcond reproducible
        state = np.random.get_state()
        np.random.seed(0)
        try:
            inv_norm1 = spla.onenormest(inverse)
        finally:
            np.random.set_state(state)
        return float(1.0 / (norm1 * inv_norm1))
    except Exception:  # estimation is best-effort diagnostics only
        logger.debug("reciprocal-condition estimate failed", exc_info=True)
        return None


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


def _damped_step(
    problem: TransportProblem,
    lu: _CondensedFactor,
    x: np.ndarray,
    step: np.ndarray,
    lam: float,
):
    """One step of the error-oriented damping from x along the correction.

    A trial x + lam step passes the natural monotonicity test when its
    simplified correction, solved with the factor ``lu`` of the step, is
    shorter than (1 - lam/4) |step|.  A failed trial retries at
    min(mu', lam/2), mu' = lam^2 |step| / (2 |simplified - (1 - lam) step|)
    being Deuflhard's corrected estimate; a non-finite trial at lam/2.
    Returns (lam, trial, its residual and residual norm, its simplified
    correction), or None once lam falls below ``_LAMBDA_MIN``.
    """
    step_norm = np.linalg.norm(step)
    if not np.isfinite(step_norm):
        return None
    while lam >= _LAMBDA_MIN:
        trial = x + lam * step
        residual, norm = _residual(problem, trial)
        with np.errstate(over="ignore", invalid="ignore"):
            simplified = _correction(problem, lu, residual)
            simplified_norm = np.linalg.norm(simplified)
        if not np.isfinite(simplified_norm):
            lam *= 0.5
            continue
        if simplified_norm < (1.0 - 0.25 * lam) * step_norm:
            return lam, trial, residual, norm, simplified
        gap = np.linalg.norm(simplified - (1.0 - lam) * step)
        corrected = 0.5 * step_norm * lam**2 / gap if gap > 0.0 else np.inf
        lam = min(corrected, 0.5 * lam)
    return None


def newton_solve(
    problem: TransportProblem,
    x0: np.ndarray | None = None,
    config: SolveConfig | None = None,
) -> SolveReport:
    """Solve the discrete geodesic equations by (quasi-)Newton iteration.

    ``x0`` defaults to ``default_initial_guess``; build another with
    ``pack_fields`` or ``pack``, which know the unknowns' layout.  Stops
    when the Euclidean residual norm drops below the tolerance or the
    iteration budget is exhausted.  Divergence, non-finite residuals and an
    exactly singular Jacobian are reported through the status, never
    raised; the report then holds the last iterate.

    With damping, each step is damped by Deuflhard's error-oriented
    NLEQ-ERR (*Newton Methods for Nonlinear Problems*, Springer 2004,
    sec. 3.3), which is affine invariant like Newton's method itself.  The
    first factor is 1; step k's is predicted from the last accepted step,
    lambda_{k-1} |dx_{k-1}| |dxbar_k| / (|dxbar_k - dx_k| |dx_k|), dxbar_k
    being the simplified correction of the accepted trial, and capped at
    1.  Trials are then checked and corrected by ``_damped_step``.  A
    predicted factor below ``_LAMBDA_MIN`` also ends the solve with
    "line_search_failed".
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
    iterations = 0
    rcond: float | None = None
    # the last accepted damped step: its length lambda |dx| and the
    # simplified correction of its trial
    previous = None

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

        if config.jacobian == "fd":
            matrix = assemble_jacobian_fd(problem, x)
        else:
            matrix = assemble_jacobian_analytic(problem, x)
        try:
            lu = _CondensedFactor(problem, matrix)
        except SingularJacobianError:
            status = "singular_jacobian"
            if rcond is None:
                rcond = 0.0
            break
        if rcond is None:
            rcond = _rcond_estimate(matrix, lu)

        step = _correction(problem, lu, residual)
        lam = 1.0
        if config.damping:
            if previous is not None:
                last_length, simplified = previous
                gap = np.linalg.norm(simplified - step) * np.linalg.norm(step)
                if gap > 0.0:
                    lam = min(1.0, last_length * np.linalg.norm(simplified) / gap)
            accepted = _damped_step(problem, lu, x, step, lam)
            if accepted is None:
                # no acceptable damping factor: keep the last iterate
                status = "line_search_failed"
                break
            lam, x, residual, norm, simplified = accepted
            previous = (lam * np.linalg.norm(step), simplified)
        else:
            x = x + step
            residual, norm = _residual(problem, x)
        iterations += 1
        history.append(norm)
        factors.append(lam)

    if rcond is not None and rcond < _RCOND_WARN:
        logger.warning(
            "Jacobian reciprocal-condition estimate %.3e below %.1e",
            rcond,
            _RCOND_WARN,
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
        damping_factors=np.array(factors),
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
