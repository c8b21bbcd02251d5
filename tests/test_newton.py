import gc
import logging
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graph_ot.newton
from graph_ot import (
    ARITHMETIC_MEAN,
    DimensionMismatchError,
    InputFormatError,
    SolveConfig,
    SpanningTree,
    TransportProblem,
    UPWIND,
    assemble_jacobian_analytic,
    assemble_residual,
    benchmark_1d_map_densities,
    build_from_edge_list,
    check_cfl,
    complete_graph,
    default_initial_guess,
    dumbbell,
    five_node_example,
    gaussian_density_1d,
    gaussian_density_2d,
    kruskal,
    lattice_1d_periodic,
    lattice_2d_periodic,
    level_fields,
    newton_solve,
    pack,
    pack_fields,
    seeded_random_density,
    state_size,
    unpack,
)
from graph_ot.errors import SingularJacobianError
from graph_ot.newton import _CondensedFactor, _correction, _from_potentials, _to_nodal_rows
from graph_ot.scenarios import _FIVE_NODE_TREES
from graph_ot.system import _split

# base factor of the forward-difference step: unknown j moves by
# FD_STEP * (1 + |x_j|)
FD_STEP = 1e-7


def two_node_problem(model=ARITHMETIC_MEAN, steps=16):
    g = build_from_edge_list([(1, 2, 1.0)])
    return TransportProblem(g, np.array([0.6, 0.4]), np.array([0.4, 0.6]), steps, model=model)


def dumbbell_problem(model=ARITHMETIC_MEAN, steps=8):
    g = dumbbell(3, 3)
    mu = seeded_random_density(6, 0)
    nu = seeded_random_density(6, 1)
    return TransportProblem(g, mu, nu, steps, model=model)


# -- configuration -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": 0.0},
        {"tolerance": -1e-10},
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"max_iterations": 0},
        {"max_iterations": 2.5},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InputFormatError):
        SolveConfig(**kwargs)


def test_config_defaults():
    cfg = SolveConfig()
    assert cfg.tolerance == 1e-10
    assert cfg.max_iterations == 100
    assert cfg.damping is False


# -- initial guess --------------------------------------------------------------


def test_default_guess_is_linear_interpolation():
    p = two_node_problem(steps=2)
    x = default_initial_guess(p)
    # level by level: v^1, then v^2 and the one interior density at
    # s = 1/2, then v^3; every velocity is zero
    np.testing.assert_array_equal(x, [0.0, 0.0, 0.5, 0.0])


def test_default_guess_rows_on_simplex():
    p = dumbbell_problem(steps=6)
    traj = unpack(p, default_initial_guess(p))
    np.testing.assert_allclose(traj.densities.sum(axis=1), 1.0, atol=1e-15)
    assert traj.densities.min() >= 0.0
    np.testing.assert_array_equal(traj.tree_velocities, 0.0)


# -- basic solves ---------------------------------------------------------------


def test_identical_endpoints_converge_immediately():
    g = build_from_edge_list([(1, 2, 1.0)])
    mu = np.array([0.55, 0.45])
    p = TransportProblem(g, mu, mu.copy(), 8)
    report = newton_solve(p)
    assert report.converged
    assert report.status == "converged"
    assert report.iterations == 0
    assert report.residual_history.shape == (1,)
    assert report.residual_history[0] == 0.0
    assert report.w2_action == 0.0
    assert report.w2_initial == 0.0
    np.testing.assert_array_equal(report.trajectory.edge_velocities, 0.0)


def test_two_node_mean_closed_form():
    # theta = 1/2 identically on two nodes, so the system is linear: the
    # geodesic has constant velocity 0.4 and linear density decay
    p = two_node_problem(steps=16)
    report = newton_solve(p)
    assert report.converged
    assert report.iterations == 1
    traj = report.trajectory
    np.testing.assert_allclose(traj.tree_velocities, 0.4, atol=1e-13)
    np.testing.assert_allclose(traj.densities[:, 0], np.linspace(0.6, 0.4, 17), atol=1e-13)
    assert report.w2_action == pytest.approx(0.08, abs=1e-13)
    assert report.w2_initial == pytest.approx(0.08, abs=1e-13)
    assert report.positivity_ok


def shoot_two_node_upwind(v1, steps):
    """Forward recursion oracle for the 2-node upwind geodesic from (0.6, 0.4).

    Written directly from the left-rectangle equations, independent of the
    residual assembly code: rho' = rho - tau v theta, v' = v - (tau/2)(G2 - G1)
    with theta the donor density and G_i = v^2 on the donor side only.
    """
    rho, v = 0.6, v1
    tau = 1.0 / steps
    for _ in range(steps):
        theta = rho if v >= 0.0 else 1.0 - rho
        g1, g2 = (v * v, 0.0) if v >= 0.0 else (0.0, v * v)
        rho, v = rho - tau * v * theta, v - 0.5 * tau * (g2 - g1)
    return rho


def test_two_node_upwind_matches_shooting_oracle():
    steps = 16
    lo, hi = 0.0, 2.0
    for _ in range(200):  # bisection on the initial velocity
        mid = 0.5 * (lo + hi)
        if shoot_two_node_upwind(mid, steps) > 0.4:
            lo = mid
        else:
            hi = mid
    v1_oracle = 0.5 * (lo + hi)

    p = two_node_problem(model=UPWIND, steps=steps)
    report = newton_solve(p)
    assert report.converged
    assert report.trajectory.tree_velocities[0, 0] == pytest.approx(v1_oracle, abs=1e-9)

    # the whole trajectory must follow the same recursion
    rho, v = 0.6, v1_oracle
    tau = 1.0 / steps
    for m in range(steps):
        assert report.trajectory.densities[m, 0] == pytest.approx(rho, abs=1e-9)
        assert report.trajectory.tree_velocities[m, 0] == pytest.approx(v, abs=1e-9)
        theta = rho if v >= 0.0 else 1.0 - rho
        g1, g2 = (v * v, 0.0) if v >= 0.0 else (0.0, v * v)
        rho, v = rho - tau * v * theta, v - 0.5 * tau * (g2 - g1)
    assert report.trajectory.densities[steps, 0] == pytest.approx(0.4, abs=1e-12)


def test_dumbbell_solve_report_fields():
    report = newton_solve(dumbbell_problem())
    assert report.converged
    assert report.status == "converged"
    assert 1 <= report.iterations <= 20
    assert report.residual_history.shape == (report.iterations + 1,)
    assert report.residual_history[-1] < 1e-10
    assert report.w2_action > 0.0
    assert report.w2_initial > 0.0
    assert np.isfinite(report.cfl_margin)
    assert report.jacobian_rcond is not None
    assert 0.0 < report.jacobian_rcond <= 1.0


def test_residual_history_starts_at_initial_guess():
    p = dumbbell_problem()
    x0 = default_initial_guess(p)
    report = newton_solve(p, x0=x0)
    assert report.residual_history[0] == pytest.approx(
        float(np.linalg.norm(assemble_residual(p, x0)))
    )


def test_x0_shape_is_checked():
    with pytest.raises(DimensionMismatchError):
        newton_solve(two_node_problem(), x0=np.zeros(7))


def test_quadratic_convergence_tail():
    report = newton_solve(dumbbell_problem())
    h = report.residual_history
    below = np.flatnonzero(h < 1e-2)
    assert below.size >= 2
    k = below[0]
    assert h[k + 1] < 0.1 * h[k]  # far better than linear contraction


# -- Jacobian against differences -----------------------------------------------


@pytest.mark.parametrize("model", [ARITHMETIC_MEAN, UPWIND])
def test_fd_jacobian_matches_analytic(model):
    p = dumbbell_problem(model=model, steps=5)
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(5):
        x = default_initial_guess(p) + rng.normal(0.0, 0.1, state_size(p))
        if model is UPWIND:
            # keep velocities away from the upwind switching set
            x = velocities_clear_of_zero(p, x)
        ja = assemble_jacobian_analytic(p, x).toarray()
        jf = column_fd(p, x)
        scale = np.abs(ja).max()
        assert np.abs(ja - jf).max() <= 1e-5 * max(scale, 1.0)


def velocities_clear_of_zero(p, x):
    """x with every tree velocity of magnitude below 1e-3 set to 1e-3."""
    rho, vel, _ = level_fields(p, x)
    vel[np.abs(vel) < 1e-3] = 1e-3
    return pack_fields(p, rho[1 : p.steps, :-1], vel)


def positions(p):
    """Where the unknowns and the residual entries sit, by level and node.

    Returns (rho_cols, v_cols, rho_rows, v_rows): the columns of the
    densities and of the tree velocities of levels 1..M+1, found by packing
    the unknowns' own numbers with pack_fields (-1 marks the fixed endpoint
    densities), and the rows of the density and velocity residuals of
    levels 1..M, which the residual lays out as (F_v^l, F_rho^l) level by
    level.
    """
    m, n1 = p.steps, p.graph.node_count - 1
    ids = np.arange(2 * m * n1)
    nd = (m - 1) * n1
    where = np.argsort(
        pack_fields(p, ids[:nd].reshape(m - 1, n1), ids[nd:].reshape(m + 1, n1))
    )
    rho_cols = np.full((m + 1, n1), -1)
    rho_cols[1:m] = where[:nd].reshape(m - 1, n1)
    v_cols = where[nd:].reshape(m + 1, n1)
    v_rows, rho_rows = np.arange(2 * m * n1).reshape(m, 2, n1).transpose(1, 0, 2)
    return rho_cols, v_cols, rho_rows, v_rows


def loop_jacobian(problem, x):
    """Level-by-level assembly with scipy products: the reference for the
    template assembly, which must store the same pattern."""
    g, tree, model = problem.graph, problem.tree, problem.model
    m, tau, sw = problem.steps, problem.tau, g.sqrt_weights
    n1 = g.node_count - 1
    rho, _, ve = level_fields(problem, x)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.intp))
        cols.append(np.asarray(c, dtype=np.intp))
        vals.append(np.asarray(v, dtype=float))

    idx = np.arange(n1)
    ones = np.ones(n1)
    rho_cols, v_cols, rho_rows, v_rows = positions(problem)
    sel = sp.csr_matrix(
        (
            np.concatenate([0.5 * tau * tree.sqrt_weights, -0.5 * tau * tree.sqrt_weights]),
            (np.concatenate([idx, idx]), np.concatenate([tree.head, tree.tail])),
        ),
        shape=(n1, g.node_count),
    )
    for lv in range(1, m + 1):
        r, v = rho[lv - 1], ve[lv - 1]
        rt, rh = r[g.tail], r[g.head]
        th = model.theta_values(rt, rh, v)
        p_tail, p_head = model.theta_density_partials(rt, rh, v)
        p_head_own = model.theta_density_partials(rh, rt, -v)[0]
        row_d, row_v = rho_rows[lv - 1], v_rows[lv - 1]
        if lv + 1 <= m:
            add(row_d, rho_cols[lv], ones)
        if lv >= 2:
            c0 = rho_cols[lv - 1]
            add(row_d, c0, -ones)
            ct, ch = sw * v * p_tail, sw * v * p_head
            er = np.concatenate([g.tail, g.tail, g.head, g.head])
            ec = np.concatenate([g.tail, g.head, g.tail, g.head])
            ev = np.concatenate([ct, ch, -ct, -ch])
            keep = er < n1
            er, ec, ev = er[keep], ec[keep], ev[keep]
            direct = ec < n1
            add(row_d[er[direct]], c0[ec[direct]], tau * ev[direct])
            last = ~direct
            add(
                row_d[np.repeat(er[last], n1)],
                c0[np.tile(idx, int(last.sum()))],
                -tau * np.repeat(ev[last], n1),
            )
        flux_v = (g.incidence @ sp.diags(sw * th) @ tree.expansion)[:n1].tocoo()
        add(row_d[flux_v.row], v_cols[lv - 1][flux_v.col], tau * flux_v.data)
        add(row_v, v_cols[lv], ones)
        add(row_v, v_cols[lv - 1], -ones)
        dg = g.tail_matrix @ sp.diags(2.0 * v * p_tail) + g.head_matrix @ sp.diags(
            2.0 * v * p_head_own
        )
        blk = (sel @ dg @ tree.expansion).tocoo()
        add(row_v[blk.row], v_cols[lv - 1][blk.col], blk.data)
    size = state_size(problem)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


def stencil_jacobian(problem, x):
    """Level-by-level assembly of J^ = R J C with scipy products: the
    reference for the template assembly's values.  It stores the identity
    and density-flux entries even where they are zero, the template
    assembly only nonzeros.

    In potentials, node N's pinned, every edge velocity is sqrt(w) times
    the difference of its ends' potentials, so the velocity derivatives go
    through the edge gradient, and node N's kinetic row is subtracted from
    every nodal row."""
    g, model = problem.graph, problem.model
    m, tau, sw = problem.steps, problem.tau, g.sqrt_weights
    n1 = g.node_count - 1
    rho, _, ve = level_fields(problem, x)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.intp))
        cols.append(np.asarray(c, dtype=np.intp))
        vals.append(np.asarray(v, dtype=float))

    idx = np.arange(n1)
    ones = np.ones(n1)
    rho_cols, s_cols, rho_rows, h_rows = positions(problem)
    gradient = (sp.diags(sw) @ (g.head_matrix - g.tail_matrix).T).tocsr()[:, :n1]
    pinned = sp.hstack([sp.identity(n1), -np.ones((n1, 1))]).tocsr()  # G_i - G_N
    for lv in range(1, m + 1):
        r, v = rho[lv - 1], ve[lv - 1]
        rt, rh = r[g.tail], r[g.head]
        th = model.theta_values(rt, rh, v)
        p_tail, p_head = model.theta_density_partials(rt, rh, v)
        p_head_own = model.theta_density_partials(rh, rt, -v)[0]
        row_d, row_h = rho_rows[lv - 1], h_rows[lv - 1]
        if lv + 1 <= m:
            add(row_d, rho_cols[lv], ones)
        if lv >= 2:
            c0 = rho_cols[lv - 1]
            add(row_d, c0, -ones)
            ct, ch = sw * v * p_tail, sw * v * p_head
            er = np.concatenate([g.tail, g.tail, g.head, g.head])
            ec = np.concatenate([g.tail, g.head, g.tail, g.head])
            ev = np.concatenate([ct, ch, -ct, -ch])
            keep = er < n1
            er, ec, ev = er[keep], ec[keep], ev[keep]
            direct = ec < n1
            add(row_d[er[direct]], c0[ec[direct]], tau * ev[direct])
            last = ~direct
            add(
                row_d[np.repeat(er[last], n1)],
                c0[np.tile(idx, int(last.sum()))],
                -tau * np.repeat(ev[last], n1),
            )
        flux_s = (g.incidence @ sp.diags(sw * th) @ gradient)[:n1].tocoo()
        add(row_d[flux_s.row], s_cols[lv - 1][flux_s.col], tau * flux_s.data)
        add(row_h, s_cols[lv], ones)
        add(row_h, s_cols[lv - 1], -ones)
        dg = g.tail_matrix @ sp.diags(2.0 * v * p_tail) + g.head_matrix @ sp.diags(
            2.0 * v * p_head_own
        )
        blk = (0.5 * tau * pinned @ dg @ gradient).tocoo()
        add(row_h[blk.row], s_cols[lv - 1][blk.col], blk.data)
    size = state_size(problem)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


def tree_incidence(p):
    """T, dense: v_f = sqrt(w_f) (S_head - S_tail) with S_N = 0."""
    n1 = p.graph.node_count - 1
    t = np.zeros((n1, n1 + 1))
    f = np.arange(n1)
    t[f, p.tree.head] = p.tree.sqrt_weights
    t[f, p.tree.tail] = -p.tree.sqrt_weights
    return t[:, :n1]


def in_potentials(p, jacobian):
    """R J C, dense, for a tree-gauge Jacobian J: T on every velocity block
    of the columns and T^-1 on every velocity block of the rows."""
    size = state_size(p)
    t = tree_incidence(p)
    c, r = np.eye(size), np.eye(size)
    _, v_cols, _, v_rows = positions(p)
    for cols in v_cols:
        c[np.ix_(cols, cols)] = t
    for rows in v_rows:
        r[np.ix_(rows, rows)] = np.linalg.inv(t)
    return r @ jacobian @ c


def capped_iterates(p, report, config):
    """The initial guess and the final iterates of ``config``'s solve capped
    at k = 1, ..., ``report.iterations`` steps: the solve's accepted iterates."""
    iterates = [default_initial_guess(p)]
    for k in range(1, report.iterations + 1):
        capped = SolveConfig(damping=config.damping, tolerance=config.tolerance, max_iterations=k)
        iterates.append(pack(p, newton_solve(p, config=capped).trajectory))
    np.testing.assert_array_equal(iterates[-1], pack(p, report.trajectory))
    return iterates


def ring_problem(model=ARITHMETIC_MEAN, steps=6):
    # the one chord, (7, 8), expands over every tree edge
    g = lattice_1d_periodic(8, 1.0)
    return TransportProblem(
        g, seeded_random_density(8, 2), seeded_random_density(8, 3), steps, model=model
    )


def k8_problem(model=ARITHMETIC_MEAN, steps=4):
    # node 8 meets every other node, so each density row carries the
    # dense mass-elimination terms
    g = complete_graph(8)
    return TransportProblem(
        g, seeded_random_density(8, 4), seeded_random_density(8, 5), steps, model=model
    )


@pytest.mark.parametrize(
    "make, model",
    [
        (dumbbell_problem, ARITHMETIC_MEAN),
        (dumbbell_problem, UPWIND),
        (ring_problem, ARITHMETIC_MEAN),
        (ring_problem, UPWIND),
        (k8_problem, ARITHMETIC_MEAN),
    ],
)
def test_analytic_jacobian_stores_the_loop_pattern(make, model):
    p = make(model=model)
    config = SolveConfig(max_iterations=5)
    iterates = capped_iterates(p, newton_solve(p, config=config), config)
    assert len(iterates) >= 3
    for x in iterates:
        ref = stencil_jacobian(p, x)
        ja = assemble_jacobian_analytic(p, x)
        assert abs(ja - ref).max() <= 1e-14 * abs(ref).max()
        assert ja.data.all()  # J^ stores no zero
    # the first iterate has v = 0, where every flux entry is zero: the loop
    # stores those zeros, the template assembly drops them
    first = iterates[0]
    assert assemble_jacobian_analytic(p, first).nnz < stencil_jacobian(p, first).nnz


def upwind_iterate(p, rng, ties):
    """An iterate with mixed-sign velocities at least 1e-3 from zero, or with
    some tree velocities exactly zero while every other edge stays clear of
    the upwind switch."""
    while True:
        x = default_initial_guess(p) + rng.normal(0.0, 0.05, state_size(p))
        rho, vel, _ = level_fields(p, x)
        vel[np.abs(vel) < 1e-3] = 1e-3
        if ties:
            vel[:, ::3] = 0.0
        x = pack_fields(p, rho[1 : p.steps, :-1], vel)
        edge = p.tree.expand_velocities(vel)
        tree_edge = np.diff(p.tree.expansion.indptr) == 1
        clear = np.abs(edge[:, ~tree_edge]).min() >= 1e-3
        if clear and (edge > 0).any() and (edge < 0).any():
            return x


def edge_case_iterates(p, ties, count=4):
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(count):
        if p.model is UPWIND:
            yield upwind_iterate(p, rng, ties)
        else:
            yield default_initial_guess(p) + rng.normal(0.0, 0.05, state_size(p))


EDGE_CASES = [
    (lambda: dumbbell_problem(steps=1), False),
    (lambda: dumbbell_problem(steps=2), False),
    (lambda: dumbbell_problem(model=UPWIND, steps=1), False),
    (lambda: dumbbell_problem(model=UPWIND, steps=4), False),
    (lambda: dumbbell_problem(model=UPWIND, steps=4), True),
    (k8_problem, False),
    (lambda: k8_problem(model=UPWIND), False),
    (ring_problem, False),
    (lambda: ring_problem(model=UPWIND), False),
]
EDGE_IDS = [
    "M=1",
    "M=2",
    "upwind M=1",
    "upwind mixed signs",
    "upwind ties",
    "K8",
    "K8 upwind",
    "periodic lattice",
    "periodic lattice upwind",
]
edge_cases = pytest.mark.parametrize("make, ties", EDGE_CASES, ids=EDGE_IDS)


@edge_cases
def test_analytic_jacobian_matches_fd_edge_cases(make, ties):
    p = make()
    for x in edge_case_iterates(p, ties):
        ja = assemble_jacobian_analytic(p, x).toarray()
        if ties:
            # J^ takes the v >= 0 branch at a tie.  A potential's forward
            # step lowers the velocity of every edge it is the tail of, so
            # the differences in potentials leave that branch; those of a
            # tree velocity raise only its own edge, so compare R J C
            jf = in_potentials(p, tree_column_fd(p, x))
        else:
            jf = column_fd(p, x)
        scale = max(float(np.abs(ja).max()), 1.0)
        assert np.abs(ja - jf).max() <= 1e-5 * scale


@edge_cases
def test_level_layout_splits_j_without_reordering(make, ties):
    p = make()
    m, n1 = p.steps, p.graph.node_count - 1
    for x in edge_case_iterates(p, ties, count=2):
        # all rows but the terminal densities against all columns but v^1
        a12 = assemble_jacobian_analytic(p, x)[:-n1, n1:]
        assert sp.triu(a12, k=1).nnz == 0
        assert np.all(a12.diagonal() == 1.0)
    rng = np.random.Generator(np.random.PCG64(13))
    interior = rng.normal(size=(m - 1, n1))
    vel = rng.normal(size=(m + 1, n1))
    x = pack_fields(p, interior, vel)
    traj = unpack(p, x)
    np.testing.assert_array_equal(traj.densities[1:m, :n1], interior)
    np.testing.assert_array_equal(traj.tree_velocities, vel)
    np.testing.assert_array_equal(pack(p, traj), x)


def tree_column_fd(problem, x):
    """Plain forward differences of the tree-gauge residual, one column at
    a time."""
    base = assemble_residual(problem, x)
    jacobian = np.zeros((base.size, x.size))
    for j in range(x.size):
        h = FD_STEP * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        jacobian[:, j] = (assemble_residual(problem, xp) - base) / h
    return jacobian


def column_fd(problem, x):
    """Plain forward differences of the residual in potentials,
    s -> R F(C s), at s = C^-1 x, one column at a time."""
    interior, velocities = _split(problem, x)
    n = problem.graph.node_count
    potentials = problem.tree.recover_potential(velocities, base=n)[:, :-1]
    s = pack_fields(problem, interior, potentials)

    def residual(s):
        state = _from_potentials(problem, s)
        return _to_nodal_rows(problem, assemble_residual(problem, state))

    base = residual(s)
    jacobian = np.zeros((base.size, s.size))
    for j in range(s.size):
        h = FD_STEP * (1.0 + abs(s[j]))
        shifted = s.copy()
        shifted[j] += h
        jacobian[:, j] = (residual(shifted) - base) / h
    return jacobian


@edge_cases
def test_condensed_factor_matches_full_lu(make, ties, monkeypatch):
    p = make()
    size = state_size(p)
    n1 = p.graph.node_count - 1
    rng = np.random.Generator(np.random.PCG64(12))
    for x in edge_case_iterates(p, ties, count=3):
        factors = [_CondensedFactor(p, x)]
        with monkeypatch.context() as patch:
            # K formed two columns at a time
            patch.setattr(graph_ot.newton, "_SCHUR_CHUNK_BYTES", 32 * n1)
            factors.append(_CondensedFactor(p, x))
        full = spla.splu(assemble_jacobian_analytic(p, x).tocsc())
        for b in (rng.normal(size=size), rng.normal(size=(size, 3))):
            want = full.solve(b)
            for factor in factors:
                got = factor.solve(b)
                assert got.shape == b.shape
                gap = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert gap <= 1e-10, gap


def factor_and_schur(p, x, monkeypatch):
    """The condensed factor at x, and K as it forms it."""
    seen = []
    getrf = graph_ot.newton._getrf

    def recording(a, overwrite_a=False):
        seen.append(a.copy())
        return getrf(a, overwrite_a=overwrite_a)

    with monkeypatch.context() as patch:
        patch.setattr(graph_ot.newton, "_getrf", recording)
        factor = _CondensedFactor(p, x)
    return factor, seen[0]


def schur_complement(p, x, monkeypatch):
    """K as the condensed factor forms it at x."""
    return factor_and_schur(p, x, monkeypatch)[1]


def with_loop_zeros(p, x):
    """J^ at x with the entries the loop assembly stores even where they are
    zero, those of the identity and density-flux blocks: J^'s own values,
    and explicit zeros where J^ stores nothing."""
    ja = assemble_jacobian_analytic(p, x)
    padded = stencil_jacobian(p, x)
    entries = padded.tocoo()
    padded.data = np.asarray(ja[entries.row, entries.col]).ravel()
    assert np.count_nonzero(padded.data) == ja.nnz  # every entry of J^ is kept
    return padded


@pytest.mark.parametrize(
    "make",
    [dumbbell_problem, lambda: dumbbell_problem(model=UPWIND), k8_problem],
    ids=["dumbbell", "dumbbell upwind", "K8"],
)
def test_explicit_zeros_never_change_a_factor(make, monkeypatch):
    # J^ stores only nonzeros; with the loop's explicit zeros put back, K
    # and the Newton step come out bit for bit the same
    p = make()
    first = default_initial_guess(p)
    second = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    # at v = 0 every flux entry is zero, and put back
    assert with_loop_zeros(p, first).nnz > assemble_jacobian_analytic(p, first).nnz
    for x in (first, second):
        padded = with_loop_zeros(p, x)
        lean, lean_schur = factor_and_schur(p, x, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(graph_ot.newton, "assemble_jacobian_analytic", lambda *_: padded)
            fat, fat_schur = factor_and_schur(p, x, monkeypatch)
        b = _to_nodal_rows(p, -assemble_residual(p, x))
        assert lean_schur.tobytes() == fat_schur.tobytes()
        assert lean.solve(b).tobytes() == fat.solve(b).tobytes()


def gaussian_line_problem():
    g = lattice_1d_periodic(48, 4.0, -1.0)
    mu = gaussian_density_1d(g, 15.0, 1.4, 1e-4)
    nu = gaussian_density_1d(g, 15.0, 1.7, 1e-4)
    return TransportProblem(g, mu, nu, 16)


def gaussian_grid_problem():
    g = lattice_2d_periodic(6, 6, 4.0, -1.0)
    mu = gaussian_density_2d(g, 2, 2, 0.5, 1.5, 1, 1e-2)
    nu = gaussian_density_2d(g, 2, 2, 1.5, 1.3, 1, 1e-2)
    return TransportProblem(g, mu, nu, 8)


@pytest.mark.parametrize(
    "make", [gaussian_line_problem, gaussian_grid_problem], ids=["1-d lattice", "2-d grid"]
)
def test_schur_complement_same_by_sweep_and_superlu(make, monkeypatch):
    p = make()
    first = default_initial_guess(p)
    second = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    for x in (first, second):
        a11, a12, a21, a22 = condensed_blocks(p, x)
        by_superlu = a21.toarray() - a22 @ spla.splu(a12.tocsc()).solve(a11.toarray())
        by_sweep = schur_complement(p, x, monkeypatch)
        gap = np.abs(by_sweep - by_superlu).max() / np.abs(by_superlu).max()
        assert gap <= 1e-12


def condensed_blocks(p, x):
    """A11, A12, A21 and A22 of J^ at x, as ``_CondensedFactor`` slices them."""
    n1 = p.graph.node_count - 1
    top = state_size(p) - n1
    j = assemble_jacobian_analytic(p, x)
    return j[:top, :n1], j[:top, n1:], j[top:, :n1], j[top:, n1:]


def sweep_schur(a11, a12, a21, a22):
    """K by the level sweep, from A12's negated level triple."""
    levels = graph_ot.newton._level_blocks(a11, a12)
    return graph_ot.newton._sweep_schur(a11, levels, a21, a22)


def textbook_schur(a11, a12, a21, a22):
    """K = A21 - A22 A12^-1 A11 by the level recursion in sparse algebra:
    Y_0 = D_0^-1 A11, Y_k = -D_k^-1 L_k Y_{k-1}, K -= A22_k Y_k."""
    top, n1 = a11.shape
    width = 2 * n1
    d = a12.diagonal()
    lower = sp.tril(a12, k=-1, format="csr")
    lower.data = -lower.data / np.repeat(d, np.diff(lower.indptr))
    y = a11[:width].toarray() / d[:width, None]
    schur = a21.toarray()
    for k in range(-(-top // width)):
        r0, r1 = k * width, min((k + 1) * width, top)
        if k:
            y = lower[r0:r1, r0 - width : r0] @ y
        schur -= a22[:, r0:r1] @ y
    return schur


sweep_problems = pytest.mark.parametrize(
    "make, steps",
    [
        (gaussian_line_problem, None),
        (gaussian_line_problem, 1),
        (gaussian_line_problem, 2),
        (gaussian_grid_problem, None),
        (gaussian_grid_problem, 1),
        (dumbbell_problem, None),
        (lambda: dumbbell_problem(model=UPWIND), None),
        (k8_problem, None),
    ],
    ids=[
        "1-d lattice",
        "1-d lattice M=1",
        "1-d lattice M=2",
        "2-d grid",
        "2-d grid M=1",
        "dumbbell",
        "dumbbell upwind",
        "K8",
    ],
)


def with_steps(make, steps):
    p = make()
    return p if steps is None else TransportProblem(p.graph, p.mu, p.nu, steps)


@sweep_problems
def test_sweep_equals_textbook_recursion_bitwise(make, steps):
    # the buffered sweep adds the same terms in the same order as the
    # recursion written in sparse products
    p = with_steps(make, steps)
    first = default_initial_guess(p)
    second = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    for x in (first, second):
        blocks = condensed_blocks(p, x)
        assert np.array_equal(sweep_schur(*blocks), textbook_schur(*blocks))


@sweep_problems
def test_schur_complement_same_in_narrow_panels(make, steps, monkeypatch):
    # K formed in column chunks, the last narrower than the others, equals
    # K formed in one panel exactly
    p = with_steps(make, steps)
    n1 = p.graph.node_count - 1
    x = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    whole = schur_complement(p, x, monkeypatch)
    for columns in (n1 // 2 + 1, 2, 1):
        assert columns == 1 or n1 % columns  # a narrower last panel
        monkeypatch.setattr(graph_ot.newton, "_SCHUR_CHUNK_BYTES", 16 * n1 * columns)
        assert np.array_equal(schur_complement(p, x, monkeypatch), whole)


def test_schur_complement_in_panels_is_factored_in_place(monkeypatch):
    # formed two columns at a time, K is in Fortran order, which LAPACK's LU
    # overwrites in place where it would copy a C-ordered K
    p = gaussian_grid_problem()
    n1 = p.graph.node_count - 1
    monkeypatch.setattr(graph_ot.newton, "_SCHUR_CHUNK_BYTES", 32 * n1)
    getrf = graph_ot.newton._getrf
    in_place = []

    def recording(a, overwrite_a=False):
        lu, pivots, info = getrf(a, overwrite_a=overwrite_a)
        in_place.append(np.shares_memory(lu, a))
        return lu, pivots, info

    monkeypatch.setattr(graph_ot.newton, "_getrf", recording)
    _CondensedFactor(p, default_initial_guess(p))
    assert in_place == [True]


def test_sweep_level_loop_allocates_nothing(monkeypatch):
    # between two kernel calls of the level loop nothing of a panel's size
    # is allocated, and the kernel writes into the same buffers, at 8 and at
    # 64 levels; no sparse product runs at all
    kernel = graph_ot.newton.csr_matvecs
    g = lattice_2d_periodic(5, 5, 4.0, -1.0)
    mu = gaussian_density_2d(g, 2, 2, 0.5, 1.5, 1, 1e-2)
    nu = gaussian_density_2d(g, 2, 2, 1.5, 1.3, 1, 1e-2)
    problems = {steps: TransportProblem(g, mu, nu, steps) for steps in (8, 64)}
    blocks = {m: condensed_blocks(p, default_initial_guess(p)) for m, p in problems.items()}
    panel_bytes = 8 * 2 * 24 * 24
    products = []
    monkeypatch.setattr(
        sp._compressed._cs_matrix,
        "_matmul_multivector",
        lambda self, other: products.append(self.shape),
    )
    seen = {}
    for steps in (8, 64):
        calls, outputs, bumps = [], set(), []

        def recording(*args):
            current, peak = tracemalloc.get_traced_memory()
            bumps.append(peak - current)
            tracemalloc.reset_peak()
            outputs.add(args[-1].__array_interface__["data"][0])
            calls.append(args[0])
            return kernel(*args)

        monkeypatch.setattr(graph_ot.newton, "csr_matvecs", recording)
        tracemalloc.start()
        try:
            sweep_schur(*blocks[steps])
        finally:
            tracemalloc.stop()
        assert len(calls) == steps - 1  # one per level but the last, and K's
        assert max(bumps[1:]) < panel_bytes
        seen[steps] = len(outputs)
    assert seen[8] == seen[64] <= 3
    assert not products


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_csr_matvecs_accumulates(index_dtype):
    # the kernel the level sweep runs: Y += A X, row by row over the stored
    # entries, which into a zero Y is A @ X bit for bit
    kernel = graph_ot.newton.csr_matvecs
    rng = np.random.Generator(np.random.PCG64(7))
    for rows, cols, vecs in ((1, 1, 1), (7, 5, 3), (40, 30, 9)):
        block = sp.csr_matrix(rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.3))
        ptr, idx = block.indptr.astype(index_dtype), block.indices.astype(index_dtype)
        x = rng.normal(size=(cols, vecs))
        y = np.zeros((rows, vecs))
        kernel(rows, cols, vecs, ptr, idx, block.data, x.ravel(), y.ravel())
        assert np.array_equal(y, block @ x)
        # on integers every sum is exact, so accumulation shows as Y + A X
        ints = block.copy()
        ints.data = rng.integers(-9, 10, size=block.nnz).astype(float)
        x = rng.integers(-9, 10, size=(cols, vecs)).astype(float)
        y0 = rng.integers(-99, 100, size=(rows, vecs)).astype(float)
        y = y0.copy()
        kernel(rows, cols, vecs, ptr, idx, ints.data, x.ravel(), y.ravel())
        assert np.array_equal(y, y0 + ints @ x)


@pytest.mark.parametrize(
    "make", [gaussian_line_problem, gaussian_grid_problem], ids=["1-d lattice", "2-d grid"]
)
def test_triangular_factor_without_panels_solves_bitwise_alike(make, monkeypatch):
    # A12 is factored with SuperLU's panel size 1: a lower triangle in
    # natural order has no column updates for a panel to block, and its
    # factor and solves are bit for bit those of the default panel size
    calls = []
    splu = spla.splu

    def recording(matrix, **kwargs):
        calls.append(kwargs)
        return splu(matrix, **kwargs)

    p = make()
    x = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    a12 = condensed_blocks(p, x)[1].tocsc()
    with monkeypatch.context() as patch:
        patch.setattr(graph_ot.newton.spla, "splu", recording)
        _CondensedFactor(p, x)
    assert len(calls) == 1 and calls[0]["panel_size"] == 1
    options = {k: v for k, v in calls[0].items() if k != "panel_size"}
    lean, default = splu(a12, panel_size=1, **options), splu(a12, **options)
    assert lean.nnz == default.nnz
    for a, b in ((lean.L, default.L), (lean.U, default.U)):
        assert (a != b).nnz == 0
    rng = np.random.Generator(np.random.PCG64(17))
    for columns in (None, 2, 3):
        b = rng.normal(size=a12.shape[0] if columns is None else (a12.shape[0], columns))
        assert np.array_equal(lean.solve(b), default.solve(b))


def lattice_2d_problem(side, steps):
    g = lattice_2d_periodic(side, side, 4.0, -1.0)
    mu = gaussian_density_2d(g, 10, 10, 0.5, 1.5, 1, 1e-4)
    nu = gaussian_density_2d(g, 10, 10, 1.5, 1.3, 1, 1e-4)
    return TransportProblem(g, mu, nu, steps)


@pytest.mark.parametrize(
    "make",
    [
        lambda: lattice_2d_problem(16, 16),
        lambda: TransportProblem(
            complete_graph(30), seeded_random_density(30, 1), seeded_random_density(30, 2), 32
        ),
    ],
    ids=["16x16 grid", "K30"],
)
def test_assembly_peak_stays_near_the_matrix(make):
    # after a step, the assembly allocates at most 2.5 times the bytes of
    # the J^ it returns, that J^ included.  At the initial guess, where most
    # entries are zero and dropped, J^ is smaller but the temporaries keep
    # the template's size: the peak there is at most the one after a step
    p = make()
    first = default_initial_guess(p)
    second = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    peaks = []
    for x in (first, second):
        assemble_jacobian_analytic(p, x)  # the template, built once per problem
        tracemalloc.start()
        try:
            jacobian = assemble_jacobian_analytic(p, x)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    held = jacobian.data.nbytes + jacobian.indices.nbytes + jacobian.indptr.nbytes
    assert peaks[1] <= 2.5 * held, peaks[1] / held
    assert peaks[0] <= peaks[1], peaks


@pytest.mark.parametrize("damping", [False, True], ids=["undamped", "damped"])
def test_newton_solve_holds_one_factor_at_a_time(damping, monkeypatch):
    # the last iteration's factor and matrix are gone before the next
    # matrix is assembled
    factors, matrices = [], []
    assemble = graph_ot.newton.assemble_jacobian_analytic

    def recording_assembly(problem, x):
        assert all(ref() is None for ref in factors + matrices)
        matrix = assemble(problem, x)
        matrices.append(weakref.ref(matrix))
        return matrix

    class RecordingFactor(_CondensedFactor):
        def __init__(self, problem, x):
            assert all(ref() is None for ref in factors)
            super().__init__(problem, x)
            factors.append(weakref.ref(self))

    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", recording_assembly)
    monkeypatch.setattr(graph_ot.newton, "_CondensedFactor", RecordingFactor)
    report = newton_solve(dumbbell_problem(), config=SolveConfig(damping=damping))
    assert report.converged and report.iterations >= 3
    assert len(factors) == len(matrices) == report.jacobian_refreshed.sum() >= 2


@pytest.mark.parametrize("damping", [False, True], ids=["undamped", "damped"])
def test_newton_matrix_is_gone_before_superlu_runs(damping, monkeypatch):
    # J^ is split into its four blocks and dropped before SuperLU factors
    # A12, at every factorization
    p = dumbbell_problem()  # its tree factors through splu too
    matrices, gone = [], []
    assemble, splu = graph_ot.newton.assemble_jacobian_analytic, spla.splu

    def recording_assembly(problem, x):
        matrix = assemble(problem, x)
        matrices.append(weakref.ref(matrix))
        return matrix

    def checking_splu(matrix, **kwargs):
        gone.append(matrices[-1]() is None)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", recording_assembly)
    monkeypatch.setattr(graph_ot.newton.spla, "splu", checking_splu)
    report = newton_solve(p, config=SolveConfig(damping=damping))
    assert report.converged and report.jacobian_rcond > 0.0
    assert len(gone) == len(matrices) == report.jacobian_refreshed.sum() >= 2
    assert all(gone)


def test_sweep_holds_no_copy_of_the_triangular_block(monkeypatch):
    # at the sweep's first kernel call no sparse matrix of J^'s or A12's
    # shape is reachable: A12's CSR slice went once its level triple and
    # CSC were made, and the CSC once SuperLU had factored it
    p = gaussian_grid_problem()
    n1 = p.graph.node_count - 1
    size = state_size(p)
    kernel = graph_ot.newton.csr_matvecs
    held = []

    def recording(*args):
        if not held:
            gc.collect()
            held.append(
                [
                    (o.format, o.shape)
                    for o in gc.get_objects()
                    if sp.issparse(o) and o.shape in ((size, size), (size - n1, size - n1))
                ]
            )
        return kernel(*args)

    monkeypatch.setattr(graph_ot.newton, "csr_matvecs", recording)
    _CondensedFactor(p, default_initial_guess(p))
    assert held == [[]]


@pytest.mark.parametrize(
    "make, ties",
    EDGE_CASES + [(gaussian_grid_problem, False)],
    ids=EDGE_IDS + ["6x6 periodic grid"],
)
def test_step_in_potentials_equals_tree_gauge_step(make, ties):
    # C J^-1 R F, as newton_solve takes it, against a sparse LU of the
    # tree-gauge reference J
    p = make()
    for x in edge_case_iterates(p, ties, count=3):
        residual = assemble_residual(p, x)
        want = spla.splu(loop_jacobian(p, x).tocsc()).solve(residual)
        factor = _CondensedFactor(p, x)
        rows = graph_ot.newton._to_nodal_rows(p, residual)
        got = graph_ot.newton._from_potentials(p, factor.solve(rows))
        gap = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert gap <= 1e-10


def path_tree(graph, nodes):
    return SpanningTree(graph, list(zip(nodes[:-1], nodes[1:])))


@pytest.mark.parametrize("model", [ARITHMETIC_MEAN, UPWIND], ids=["mean", "upwind"])
@pytest.mark.parametrize(
    "graph, trees",
    [
        (five_node_example(), [lambda g, e=e: SpanningTree(g, e) for e in _FIVE_NODE_TREES]),
        (complete_graph(8), [kruskal, lambda g: path_tree(g, range(1, 9))]),
    ],
    ids=["five-node example", "K8"],
)
def test_newton_matrix_is_gauge_independent(graph, trees, model):
    # unit weights and potentials on a grid of 1/16 make every tree's
    # velocities and their expansion exact, so each tree sees the same state
    n, m = graph.node_count, 4
    mu, nu = seeded_random_density(n, 6), seeded_random_density(n, 7)
    rng = np.random.Generator(np.random.PCG64(3))
    # distinct and nonzero on every level: no edge velocity is zero
    potentials = np.zeros((m + 1, n))
    potentials[:, :-1] = [(rng.permutation(n - 1) + 1) / 16.0 for _ in range(m + 1)]
    analytic, fd = [], []
    for make_tree in trees:
        tree = make_tree(graph)
        p = TransportProblem(graph, mu, nu, m, model=model, tree=tree)
        interior = level_fields(p, default_initial_guess(p))[0][1:m, :-1]
        vel = potentials[:, tree.head] - potentials[:, tree.tail]
        x = pack_fields(p, interior, vel)
        np.testing.assert_array_equal(
            unpack(p, x).edge_velocities, potentials[:, graph.head] - potentials[:, graph.tail]
        )
        analytic.append(assemble_jacobian_analytic(p, x))
        fd.append(column_fd(p, x))
    first = analytic[0]
    scale = max(float(np.abs(first.data).max()), 1.0)
    for ja, jf in zip(analytic[1:], fd[1:]):
        np.testing.assert_array_equal(ja.indptr, first.indptr)
        np.testing.assert_array_equal(ja.indices, first.indices)
        np.testing.assert_array_equal(ja.data, first.data)
        assert np.abs(jf - fd[0]).max() <= 1e-5 * scale


def snake_tree(graph, side):
    """The row-by-row boustrophedon path through a periodic grid: the tree
    whose paths are longest."""
    nodes = []
    for row in range(side):
        cols = range(side) if row % 2 == 0 else reversed(range(side))
        nodes += [row * side + col + 1 for col in cols]
    return path_tree(graph, nodes)


@pytest.mark.parametrize("side", [8, 16])
def test_newton_matrix_follows_the_graph_stencil(side):
    # entries per level stay under a bound that no tree enters: J^ holds
    # no tree path; the tree-gauge J held 35 N (8x8) and 59 N (16x16) per
    # level at these states with the default tree, twice that with the snake
    g = lattice_2d_periodic(side, side, 4.0, -1.0)
    mu = gaussian_density_2d(g, 2, 2, 0.5, 1.5, 1, 1e-2)
    nu = gaussian_density_2d(g, 2, 2, 1.5, 1.3, 1, 1e-2)
    rng = np.random.Generator(np.random.PCG64(5))
    for tree in (None, snake_tree(g, side)):
        p = TransportProblem(g, mu, nu, 4, tree=tree)
        interior = level_fields(p, default_initial_guess(p))[0][1:4, :-1]
        x = pack_fields(p, interior, rng.normal(size=(5, g.node_count - 1)))
        jacobian = assemble_jacobian_analytic(p, x)
        assert jacobian.nnz / p.steps < 30 * g.node_count


def doctored(p, row_level, col_level, field, node=2):
    """J at the initial guess with one entry set to 0.25: the first velocity
    row of residual level ``row_level`` on ``node`` of ``field`` at time
    level ``col_level`` (both 1-based).  Residual level l should touch only
    time levels l and l+1, and its first row has the diagonal entry 1 on
    node 1 of the velocities at level l+1."""
    rho_cols, v_cols, _, v_rows = positions(p)
    col = (rho_cols if field == "rho" else v_cols)[col_level - 1, node - 1]
    j = assemble_jacobian_analytic(p, default_initial_guess(p)).tolil()
    j[v_rows[row_level - 1, 0], col] = 0.25
    return j.tocsr()


@pytest.mark.parametrize(
    "row_level, col_level, field, node",
    [(2, 3, "rho", 2), (3, 2, "v", 2), (2, 4, "v", 2), (2, 1, "v", 2), (2, 3, "v", 1)],
    ids=[
        "off-diagonal in a diagonal block",
        "two levels back",
        "above the diagonal",
        "A11 below the first level",
        "non-unit diagonal",
    ],
)
def test_sweep_rejects_other_block_patterns(row_level, col_level, field, node, monkeypatch):
    p = dumbbell_problem(steps=4)
    matrix = doctored(p, row_level, col_level, field, node)
    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", lambda problem, x: matrix)
    with pytest.raises(ValueError, match="block lower bidiagonal"):
        _CondensedFactor(p, default_initial_guess(p))


def exact_rcond(p, x):
    """The 1-norm rcond of K = A21 - A22 A12^-1 A11 at x, formed densely
    from J^'s four blocks."""
    a11, a12, a21, a22 = (block.toarray() for block in condensed_blocks(p, x))
    schur = a21 - a22 @ np.linalg.solve(a12, a11)
    return 1.0 / (np.linalg.norm(schur, 1) * np.linalg.norm(np.linalg.inv(schur), 1))


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_node_problem(steps=4),
        dumbbell_problem,
        lambda: dumbbell_problem(model=UPWIND),
        ring_problem,
        k8_problem,
    ],
    ids=["two nodes", "dumbbell", "dumbbell upwind", "periodic lattice", "K8"],
)
def test_rcond_estimate_bounds_the_exact_value(make):
    p = make()
    exact = exact_rcond(p, default_initial_guess(p))
    rcond = newton_solve(p).jacobian_rcond
    assert exact * (1.0 - 1e-12) <= rcond <= 3.0 * exact


@pytest.mark.parametrize(
    "make", [gaussian_line_problem, gaussian_grid_problem, k8_problem],
    ids=["1-d lattice", "2-d grid", "K8"],
)
def test_rcond_same_in_panels(make, monkeypatch):
    # after a step K is no longer symmetric, so its 1-norm rcond is not its
    # inf-norm one; K formed two columns at a time, in Fortran order, has
    # the rcond of K formed in one panel, bit for bit
    p = make()
    n1 = p.graph.node_count - 1
    x = pack(p, newton_solve(p, config=SolveConfig(max_iterations=1)).trajectory)
    whole = _CondensedFactor(p, x).rcond
    exact = exact_rcond(p, x)
    assert exact * (1.0 - 1e-12) <= whole <= 3.0 * exact
    monkeypatch.setattr(graph_ot.newton, "_SCHUR_CHUNK_BYTES", 32 * n1)
    assert _CondensedFactor(p, x).rcond == whole


@pytest.mark.parametrize(
    "schur",
    [
        lambda n1: np.full((n1, n1), np.nan),
        lambda n1: np.diag(np.r_[np.inf, np.ones(n1 - 1)]),
        lambda n1: np.ones((n1, n1)),  # no zero column, but a zero pivot
    ],
    ids=["nan", "inf", "zero pivot"],
)
def test_singular_factor_reports_rcond_zero(schur, monkeypatch):
    p = dumbbell_problem()
    n1 = p.graph.node_count - 1
    monkeypatch.setattr(graph_ot.newton, "_sweep_schur", lambda *blocks: schur(n1))
    factor = _CondensedFactor(p, default_initial_guess(p))
    assert factor.singular and factor.rcond == 0.0


def test_rcond_estimate_is_reproducible():
    p = k8_problem()
    rconds = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        rconds.append(newton_solve(p).jacobian_rcond)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])
    assert rconds[0] == rconds[1]


def test_splu_factors_only_the_triangular_block(monkeypatch):
    shapes = []
    splu = spla.splu

    def recording(matrix, **kwargs):
        shapes.append(matrix.shape)
        return splu(matrix, **kwargs)

    # scipy's module, through which graph_ot.tree factors too
    monkeypatch.setattr(graph_ot.newton.spla, "splu", recording)
    p = dumbbell_problem()
    n1 = p.graph.node_count - 1
    # the tree factors its incidence once, when it is built
    assert shapes == [(n1, n1)]
    shapes.clear()
    top = state_size(p) - n1
    for config in (SolveConfig(), SolveConfig()):
        report = newton_solve(p, config=config)
        assert report.converged
        assert shapes == [(top, top)] * int(report.jacobian_refreshed.sum())
        shapes.clear()


@pytest.mark.parametrize("damping", [False, True], ids=["undamped", "damped"])
def test_residual_and_jacobian_share_one_expansion(damping, monkeypatch):
    # the first residual, then one expansion per iterate, which its residual
    # and the next Jacobian share (no damped trial is rejected here), and one
    # for the report
    calls = []
    expand = SpanningTree.expand_velocities

    def counting(tree, velocities):
        calls.append(velocities.shape)
        return expand(tree, velocities)

    monkeypatch.setattr(SpanningTree, "expand_velocities", counting)
    report = newton_solve(dumbbell_problem(), config=SolveConfig(damping=damping))
    assert report.converged
    assert len(calls) == report.iterations + 2


def test_jacobian_template_is_built_once_and_assembly_repeats(monkeypatch):
    built = []
    build = graph_ot.newton._build_jacobian_template

    def counting(problem):
        built.append(problem)
        return build(problem)

    monkeypatch.setattr(graph_ot.newton, "_build_jacobian_template", counting)
    p = dumbbell_problem(model=UPWIND)
    report = newton_solve(p)
    assert report.iterations >= 2
    x = pack(p, report.trajectory)
    first = assemble_jacobian_analytic(p, x)
    second = assemble_jacobian_analytic(p, x)
    np.testing.assert_array_equal(first.indptr, second.indptr)
    np.testing.assert_array_equal(first.indices, second.indices)
    np.testing.assert_array_equal(first.data, second.data)
    assert len(built) == 1 and built[0] is p
    other = dumbbell_problem(model=UPWIND)
    assemble_jacobian_analytic(other, x)
    assert len(built) == 2 and built[1] is other


def test_jacobian_template_holds_one_level_of_columns():
    # the template keeps one level's column indices whatever M; each level
    # adds its offset, and the first its S^1 shift, as J^ is assembled
    g = lattice_2d_periodic(6, 6, 4.0, -1.0)
    mu = gaussian_density_2d(g, 2, 2, 0.5, 1.5, 1, 1e-2)
    nu = gaussian_density_2d(g, 2, 2, 1.5, 1.3, 1, 1e-2)
    sizes = set()
    for steps in (1, 4, 16):
        p = TransportProblem(g, mu, nu, steps)
        assemble_jacobian_analytic(p, default_initial_guess(p))
        template = p._jacobian_template
        assert template.columns.shape == template.constants.shape
        sizes.add(template.columns.size)
    assert len(sizes) == 1


def test_fd_jacobian_exact_on_linear_system():
    # the 2-node mean residual is linear, so forward differences are exact
    # up to rounding
    p = two_node_problem(steps=4)
    x = default_initial_guess(p)
    ja = assemble_jacobian_analytic(p, x).toarray()
    jf = column_fd(p, x)
    np.testing.assert_allclose(jf, ja, atol=1e-8)


def test_damping_solves_standard_problem():
    p = dumbbell_problem()
    rd = newton_solve(p, config=SolveConfig(damping=True))
    assert rd.converged
    ra = newton_solve(p)
    np.testing.assert_allclose(
        pack(p, rd.trajectory), pack(p, ra.trajectory), atol=1e-8
    )


def test_damped_and_undamped_solves_agree():
    # where plain Newton converges, the damped solve reaches the same root
    p = dumbbell_problem()
    rd = newton_solve(p, config=SolveConfig(damping=True))
    ru = newton_solve(p)
    assert rd.converged and ru.converged
    assert rd.w2_action == pytest.approx(ru.w2_action, rel=1e-12)
    np.testing.assert_allclose(
        pack(p, rd.trajectory), pack(p, ru.trajectory), rtol=0, atol=1e-10
    )


def test_undamped_damping_factors_are_one():
    report = newton_solve(dumbbell_problem())
    np.testing.assert_array_equal(report.damping_factors, np.ones(report.iterations))


def test_damped_retries_follow_the_corrected_factor(monkeypatch):
    # the far-apart pair on [-1, 3] fails a damped trial at lambda ~ 0.49 and
    # retries at ~ 0.12; its end iterate is not positive (a known defect),
    # so only the retry rule and convergence are checked
    g = lattice_1d_periodic(64, 4.0, -1.0)
    p = TransportProblem(
        g, gaussian_density_1d(g, 15.0, 0.5, 1e-4), gaussian_density_1d(g, 15.0, 2.0, 1e-4), 32
    )
    trials = []
    trial = graph_ot.newton._trial

    def recording_trial(problem, lu, x, step, lam):
        result = trial(problem, lu, x, step, lam)
        trials.append((x, step, lam, result[3]))
        return result

    monkeypatch.setattr(graph_ot.newton, "_trial", recording_trial)
    report = newton_solve(p, config=SolveConfig(damping=True))
    assert report.converged

    # a retry is a trial along the same step from the same iterate
    retried = [
        (failed, retry[2])
        for failed, retry in zip(trials, trials[1:])
        if retry[0] is failed[0] and retry[1] is failed[1]
    ]
    assert any(failed[2] < 0.6 for failed, _ in retried)
    for (_, step, lam, simplified), lam_retry in retried:
        step_norm = np.linalg.norm(step)
        assert np.linalg.norm(simplified) >= (1.0 - 0.25 * lam) * step_norm
        gap = np.linalg.norm(simplified - (1.0 - lam) * step)
        corrected = 0.5 * step_norm * lam**2 / gap
        assert lam_retry == pytest.approx(min(corrected, 0.5 * lam), rel=1e-12)


def test_solve_is_bitwise_deterministic():
    first = newton_solve(dumbbell_problem())
    second = newton_solve(dumbbell_problem())
    np.testing.assert_array_equal(
        pack(dumbbell_problem(), first.trajectory),
        pack(dumbbell_problem(), second.trajectory),
    )
    np.testing.assert_array_equal(first.residual_history, second.residual_history)
    assert first.w2_action == second.w2_action


# -- failure modes --------------------------------------------------------------


def test_singular_jacobian_is_reported():
    # zero initial velocity with upwind mobility and a zero donor density
    # gives a structurally zero column
    g = build_from_edge_list([(1, 2, 1.0)])
    p = TransportProblem(g, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1, model=UPWIND)
    with pytest.raises(SingularJacobianError):
        _CondensedFactor(p, np.zeros(2))
    report = newton_solve(p, x0=np.zeros(2))
    assert report.status == "singular_jacobian"
    assert not report.converged
    assert report.jacobian_rcond == 0.0
    assert report.iterations == 0
    np.testing.assert_array_equal(pack(p, report.trajectory), np.zeros(2))
    assert report.residual_history.shape == (1,)


def test_far_apart_pair_diverges_without_raising(caplog):
    # at velocities near 1e5 the Schur complement's entries reach 1e144 and
    # its pivots cancel; the step must come out non-finite, not raise
    g = lattice_1d_periodic(64, 4.0, -1.0)
    mu = gaussian_density_1d(g, 15.0, 0.0, 1e-6)
    nu = gaussian_density_1d(g, 15.0, 2.0, 1e-6)
    p = TransportProblem(g, mu, nu, 32)
    with np.errstate(all="ignore"), caplog.at_level(logging.WARNING, logger="graph_ot.newton"):
        report = newton_solve(p)
    assert report.status == "nonfinite_residual"
    assert not report.converged
    # K's rcond falls from 1.5e-8 at the first factor to 2.6e-61 at the
    # second, whose step overflows: only the second is logged
    warned = [r.message for r in caplog.records if "reciprocal-condition" in r.message]
    assert len(warned) == 1 and warned[0].endswith("at step 2"), warned
    assert report.jacobian_rcond > graph_ot.newton._RCOND_WARN


def test_max_iterations_exceeded():
    p = dumbbell_problem()
    report = newton_solve(p, config=SolveConfig(tolerance=1e-30, max_iterations=2))
    assert not report.converged
    assert report.status == "max_iterations_exceeded"
    assert report.iterations == 2
    assert report.residual_history.shape == (3,)


def assert_steps_pass_monotonicity(p, iterates, report):
    """Every accepted step x_k -> x_k+1 is lambda_k times the correction
    -J^-1 F(x_k), solved with the factor of the last refreshed iterate, and
    passed the natural monotonicity test with that factor:
    |J^-1 F(x_k+1)| < (1 - lambda_k/4) |dx_k|."""
    lu = None
    for x, x_next, lam, fresh in zip(
        iterates, iterates[1:], report.damping_factors, report.jacobian_refreshed
    ):
        if fresh:
            lu = _CondensedFactor(p, x)
        step = _correction(p, lu, assemble_residual(p, x))
        np.testing.assert_allclose(x_next, x + lam * step, rtol=0, atol=1e-15)
        simplified = _correction(p, lu, assemble_residual(p, x_next))
        assert np.linalg.norm(simplified) < (1.0 - 0.25 * lam) * np.linalg.norm(step)


def test_line_search_failure_keeps_last_iterate():
    # at a residual of a few 1e-16 the simplified correction is rounding
    # noise: the reused step fails the monotonicity test, and after the
    # refactorization no damping factor down to 1e-8 passes it
    p = dumbbell_problem()
    config = SolveConfig(damping=True, tolerance=1e-30, max_iterations=20)
    report = newton_solve(p, config=config)
    assert report.status == "line_search_failed"
    assert not report.converged
    assert report.iterations < 20
    assert report.residual_history.shape == (report.iterations + 1,)
    # replay the solve one iteration at a time, capped at k iterations:
    # every accepted step passed the natural monotonicity test, and the
    # failed step kept the last accepted iterate
    assert_steps_pass_monotonicity(p, capped_iterates(p, report, config), report)


# -- factor reuse ----------------------------------------------------------------


@pytest.mark.parametrize("damping", [False, True], ids=["undamped", "damped"])
def test_without_reuse_every_step_is_a_newton_step(damping, monkeypatch):
    # with theta_max = 0 the solver refactors at every iterate, and its
    # iterates are those of Newton's method replayed by hand
    monkeypatch.setattr(graph_ot.newton, "_THETA_MAX", 0.0)
    p = dumbbell_problem()
    report = newton_solve(p, config=SolveConfig(damping=damping))
    assert report.converged and report.iterations >= 3
    assert report.jacobian_refreshed.all()
    x = default_initial_guess(p)
    for lam, norm in zip(report.damping_factors, report.residual_history[1:]):
        lu = _CondensedFactor(p, x)
        x = x + lam * _correction(p, lu, assemble_residual(p, x))
        assert np.linalg.norm(assemble_residual(p, x)) == norm
    np.testing.assert_array_equal(x, pack(p, report.trajectory))


def test_undamped_kept_factor_steps_replay():
    # at the default theta_max, replayed one iteration at a time: every
    # refreshed step is the full Newton step, and every kept step is the
    # last simplified correction, kept after a contraction below theta_max,
    # and passed the 3/4 test with the held factor; a refreshed step after
    # such a contraction means that correction failed the test
    p = dumbbell_problem()
    config = SolveConfig()
    report = newton_solve(p, config=config)
    assert report.converged
    assert report.jacobian_refreshed.sum() >= 2 and not report.jacobian_refreshed.all()
    np.testing.assert_array_equal(report.damping_factors, 1.0)
    iterates = capped_iterates(p, report, config)
    theta_max = graph_ot.newton._THETA_MAX
    for k, (x, x_next) in enumerate(zip(iterates, iterates[1:])):
        fresh = report.jacobian_refreshed[k]
        keep = k > 0 and np.linalg.norm(simplified) / np.linalg.norm(step) < theta_max
        if keep and fresh:
            rejected = _correction(p, lu, assemble_residual(p, x + simplified))
            assert not np.linalg.norm(rejected) < 0.75 * np.linalg.norm(simplified)
        if fresh:
            lu = _CondensedFactor(p, x)
            step = _correction(p, lu, assemble_residual(p, x))
        else:
            assert keep
            step = simplified
        np.testing.assert_array_equal(x_next, x + step)
        simplified = _correction(p, lu, assemble_residual(p, x_next))
        if not fresh:
            assert np.linalg.norm(simplified) < 0.75 * np.linalg.norm(step)


def test_map_problem_factors_once(monkeypatch):
    g = lattice_1d_periodic(64, 1.0)
    p = TransportProblem(g, *benchmark_1d_map_densities(g), 64)
    assembled = []
    assemble = graph_ot.newton.assemble_jacobian_analytic

    def counting(problem, x):
        assembled.append(x)
        return assemble(problem, x)

    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", counting)
    report = newton_solve(p)
    assert report.converged
    assert len(assembled) == report.jacobian_refreshed.sum() == 1
    assert report.iterations > 1
    monkeypatch.setattr(graph_ot.newton, "_THETA_MAX", 0.0)
    newton = newton_solve(p)
    assert newton.converged and newton.jacobian_refreshed.sum() == newton.iterations > 1
    assert report.w2_action == pytest.approx(newton.w2_action, rel=1e-10, abs=0.0)


def test_reused_step_that_fails_the_test_is_rejected(monkeypatch):
    # with the factor kept at every contraction below 1, some reused steps
    # of this damped solve fail the monotonicity test at lambda = 1
    monkeypatch.setattr(graph_ot.newton, "_THETA_MAX", 1.0)
    g = lattice_1d_periodic(16, 4.0, -1.0)
    mu = gaussian_density_1d(g, 15.0, 0.0, 1e-6)
    nu = gaussian_density_1d(g, 15.0, 1.0, 1e-6)
    p = TransportProblem(g, mu, nu, 16)
    config = SolveConfig(damping=True)
    events = []
    residual, assemble = graph_ot.newton._residual, graph_ot.newton.assemble_jacobian_analytic

    def recording_residual(problem, x):
        events.append(("residual", np.array(x)))
        return residual(problem, x)

    def recording_assembly(problem, x):
        events.append(("assembly", np.array(x)))
        return assemble(problem, x)

    monkeypatch.setattr(graph_ot.newton, "_residual", recording_residual)
    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", recording_assembly)
    report = newton_solve(p, config=config)
    monkeypatch.setattr(graph_ot.newton, "_residual", residual)
    monkeypatch.setattr(graph_ot.newton, "assemble_jacobian_analytic", assemble)
    assert report.converged
    reused = np.flatnonzero(~report.jacobian_refreshed)
    assert reused.size
    # a factor is kept only after a full step
    assert (report.damping_factors[reused - 1] == 1.0).all()
    assert (report.damping_factors < 1.0).any()
    iterates = capped_iterates(p, report, config)

    def position(x):
        found = [k for k, it in enumerate(iterates) if np.array_equal(it, x)]
        return found[0] if found else None

    # a trial whose residual is followed by an assembly elsewhere was a
    # reused step, rejected
    rejected = [
        (trial, x)
        for (kind, trial), (next_kind, x) in zip(events, events[1:])
        if kind == "residual" and next_kind == "assembly" and not np.array_equal(trial, x)
    ]
    assert rejected
    for trial, x in rejected:
        # never accepted; the solver kept x, refactored there and stepped on
        assert position(trial) is None
        # from x, reached by a full step, only the reused step was tried
        k = position(x)
        assert k is not None and 1 <= k < report.iterations
        assert report.damping_factors[k - 1] == 1.0
        assert report.jacobian_refreshed[k]
    assert_steps_pass_monotonicity(p, iterates, report)


def test_nonfinite_residual_reported_not_raised():
    p = two_node_problem()
    # squared velocities overflow
    x0 = pack_fields(p, np.zeros((15, 1)), np.full((17, 1), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        report = newton_solve(p, x0=x0)
    assert report.status == "nonfinite_residual"
    assert not report.converged
    assert report.iterations == 0


def test_ill_conditioning_warning_logged(caplog, monkeypatch):
    g = build_from_edge_list([(1, 2, 1.0)])
    p = TransportProblem(g, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 2, model=UPWIND)
    # K is 1 x 1 here, so its rcond is exactly 1
    monkeypatch.setattr(graph_ot.newton, "_RCOND_WARN", 1.5)
    with caplog.at_level(logging.WARNING, logger="graph_ot.newton"):
        newton_solve(p)
    assert any("reciprocal-condition" in r.message for r in caplog.records)


def test_singular_first_factor_logs_no_estimate(caplog):
    # disjoint supports on a ring, upwind: the first factorization finds J
    # exactly singular, so nothing was estimated and nothing is logged as
    # an estimate, while the report records rcond 0
    ring = 32
    g = build_from_edge_list([(i, i % ring + 1, 1.0) for i in range(1, ring + 1)])
    mu = np.zeros(ring)
    mu[:8] = 1.0 / 8.0
    p = TransportProblem(g, mu, np.roll(mu, ring // 2), 32, model=UPWIND)
    with caplog.at_level(logging.DEBUG, logger="graph_ot.newton"):
        report = newton_solve(p)
    assert report.status == "singular_jacobian" and report.iterations == 0
    assert report.jacobian_rcond == 0.0
    assert not any("reciprocal-condition" in r.message for r in caplog.records)


# -- cfl ------------------------------------------------------------------------


def assert_stacked_cfl_matches_rows(graph, rows, tau):
    """check_cfl on (levels, E) gives each row's margins bit for bit, and
    the smallest of the rows' tau*."""
    margins, tau_star = check_cfl(graph, rows, tau)
    per_row = [check_cfl(graph, row, tau) for row in rows]
    np.testing.assert_array_equal(margins, np.array([m for m, _ in per_row]), strict=True)
    assert tau_star == min(t for _, t in per_row)
    return margins, tau_star


def test_cfl_zero_field():
    g = dumbbell(3, 3)
    margins, tau_star = check_cfl(g, np.zeros(g.edge_count), 0.5)
    np.testing.assert_array_equal(margins, np.ones(6))
    assert tau_star == np.inf
    margins, tau_star = assert_stacked_cfl_matches_rows(g, np.zeros((3, g.edge_count)), 0.5)
    np.testing.assert_array_equal(margins, np.ones((3, 6)))
    assert tau_star == np.inf


def test_cfl_global_bound_star():
    # max degree 4, unit weights, max speed 2: tau* = 1/8
    g = build_from_edge_list([(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)])
    v = np.array([2.0, -1.0, 0.5, -2.0])
    _, tau_star = check_cfl(g, v, 0.01)
    assert tau_star == pytest.approx(1.0 / 8.0)
    # over several levels the fastest one bounds tau*
    _, tau_star = assert_stacked_cfl_matches_rows(g, np.array([0.25 * v, v, np.zeros(4)]), 0.01)
    assert tau_star == pytest.approx(1.0 / 8.0)


def test_cfl_margin_star_three():
    g = build_from_edge_list([(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    margins, _ = check_cfl(g, np.array([1.0, 1.0, 1.0]), 0.25)
    # center pays for all three outgoing edges, leaves have no outflow
    np.testing.assert_allclose(margins, [0.25, 1.0, 1.0, 1.0])
    # reversed, each leaf pays for its one edge into the center
    out_and_in = np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]])
    margins, _ = assert_stacked_cfl_matches_rows(g, out_and_in, 0.25)
    np.testing.assert_allclose(margins, [[0.25, 1.0, 1.0, 1.0], [1.0, 0.75, 0.75, 0.75]])


def test_cfl_rejects_wrong_shape():
    g = dumbbell(3, 3)
    for shape in [(g.edge_count + 1,), (2, g.edge_count + 1), (2, 2, g.edge_count), ()]:
        with pytest.raises(DimensionMismatchError):
            check_cfl(g, np.zeros(shape), 0.1)
