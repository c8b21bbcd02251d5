import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import graph_ot.newton
from graph_ot import (
    ARITHMETIC_MEAN,
    DimensionMismatchError,
    SingularJacobianError,
    SolveConfig,
    TransportProblem,
    UPWIND,
    assemble_jacobian_analytic,
    assemble_jacobian_fd,
    assemble_residual,
    build_from_edge_list,
    check_cfl,
    complete_graph,
    default_initial_guess,
    dumbbell,
    gaussian_density_1d,
    lattice_1d_periodic,
    level_fields,
    newton_solve,
    pack,
    seeded_random_density,
    state_size,
)
from graph_ot.newton import _CondensedFactor


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
        {"max_iterations": 0},
        {"jacobian": "exact"},
        {"fd_step": 0.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs)


def test_config_defaults():
    cfg = SolveConfig()
    assert cfg.tolerance == 1e-10
    assert cfg.max_iterations == 100
    assert cfg.jacobian == "analytic"
    assert cfg.damping is False


# -- initial guess --------------------------------------------------------------


def test_default_guess_is_linear_interpolation():
    p = two_node_problem(steps=2)
    x = default_initial_guess(p)
    # single interior level at s = 1/2, then three zero velocity levels
    np.testing.assert_array_equal(x, [0.5, 0.0, 0.0, 0.0])


def test_default_guess_rows_on_simplex():
    p = dumbbell_problem(steps=6)
    from graph_ot import unpack

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


# -- jacobian modes -------------------------------------------------------------


@pytest.mark.parametrize("model", [ARITHMETIC_MEAN, UPWIND])
def test_fd_jacobian_matches_analytic(model):
    p = dumbbell_problem(model=model, steps=5)
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(5):
        x = default_initial_guess(p) + rng.normal(0.0, 0.1, state_size(p))
        if model.velocity_dependent:
            # keep velocities away from the upwind switching set
            vel = x[4 * 5 :]
            vel[np.abs(vel) < 1e-3] = 1e-3
        ja = assemble_jacobian_analytic(p, x).toarray()
        jf = assemble_jacobian_fd(p, x).toarray()
        scale = np.abs(ja).max()
        assert np.abs(ja - jf).max() <= 1e-5 * max(scale, 1.0)


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
    col_v0, row_v0 = (m - 1) * n1, m * n1
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
        row_d, row_v = (lv - 1) * n1, row_v0 + (lv - 1) * n1
        if lv + 1 <= m:
            add(row_d + idx, (lv - 1) * n1 + idx, ones)
        if lv >= 2:
            c0 = (lv - 2) * n1
            add(row_d + idx, c0 + idx, -ones)
            ct, ch = sw * v * p_tail, sw * v * p_head
            er = np.concatenate([g.tail, g.tail, g.head, g.head])
            ec = np.concatenate([g.tail, g.head, g.tail, g.head])
            ev = np.concatenate([ct, ch, -ct, -ch])
            keep = er < n1
            er, ec, ev = er[keep], ec[keep], ev[keep]
            direct = ec < n1
            add(row_d + er[direct], c0 + ec[direct], tau * ev[direct])
            last = ~direct
            add(
                row_d + np.repeat(er[last], n1),
                c0 + np.tile(idx, int(last.sum())),
                -tau * np.repeat(ev[last], n1),
            )
        flux_v = (g.incidence @ sp.diags(sw * th) @ tree.expansion)[:n1].tocoo()
        add(row_d + flux_v.row, col_v0 + (lv - 1) * n1 + flux_v.col, tau * flux_v.data)
        add(row_v + idx, col_v0 + lv * n1 + idx, ones)
        add(row_v + idx, col_v0 + (lv - 1) * n1 + idx, -ones)
        dg = g.tail_matrix @ sp.diags(2.0 * v * p_tail) + g.head_matrix @ sp.diags(
            2.0 * v * p_head_own
        )
        blk = (sel @ dg @ tree.expansion).tocoo()
        add(row_v + blk.row, col_v0 + (lv - 1) * n1 + blk.col, blk.data)
    size = state_size(problem)
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    matrix.sum_duplicates()
    return matrix


def solver_iterates(problem, **config):
    """Every iterate at which newton_solve assembles a Jacobian."""
    seen = []
    assemble = graph_ot.newton.assemble_jacobian_analytic

    def record(p, x):
        seen.append(np.array(x))
        return assemble(p, x)

    graph_ot.newton.assemble_jacobian_analytic = record
    try:
        newton_solve(problem, config=SolveConfig(**config))
    finally:
        graph_ot.newton.assemble_jacobian_analytic = assemble
    return seen


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
    iterates = solver_iterates(p, max_iterations=6)
    assert len(iterates) >= 3
    for x in iterates:
        ref = loop_jacobian(p, x)
        ja = assemble_jacobian_analytic(p, x)
        np.testing.assert_array_equal(ja.indptr, ref.indptr)
        np.testing.assert_array_equal(ja.indices, ref.indices)
        assert np.abs(ja.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
    # the first iterate has v = 0: the flux-density entries are stored zeros
    assert np.count_nonzero(assemble_jacobian_analytic(p, iterates[0]).data == 0.0)


def upwind_iterate(p, rng, ties):
    """An iterate with mixed-sign velocities at least 1e-3 from zero, or with
    some tree velocities exactly zero while every other edge stays clear of
    the upwind switch."""
    n1 = p.graph.node_count - 1
    while True:
        x = default_initial_guess(p) + rng.normal(0.0, 0.05, state_size(p))
        vel = x[(p.steps - 1) * n1 :].reshape(p.steps + 1, n1)
        vel[np.abs(vel) < 1e-3] = 1e-3
        if ties:
            vel[:, ::3] = 0.0
        edge = p.tree.expand_velocities(vel)
        tree_edge = np.diff(p.tree.expansion.indptr) == 1
        clear = np.abs(edge[:, ~tree_edge]).min() >= 1e-3
        if clear and (edge > 0).any() and (edge < 0).any():
            return x


def edge_case_iterates(p, ties, count=4):
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(count):
        if p.model.velocity_dependent:
            yield upwind_iterate(p, rng, ties)
        else:
            yield default_initial_guess(p) + rng.normal(0.0, 0.05, state_size(p))


edge_cases = pytest.mark.parametrize(
    "make, ties",
    [
        (lambda: dumbbell_problem(steps=1), False),
        (lambda: dumbbell_problem(steps=2), False),
        (lambda: dumbbell_problem(model=UPWIND, steps=1), False),
        (lambda: dumbbell_problem(model=UPWIND, steps=4), False),
        (lambda: dumbbell_problem(model=UPWIND, steps=4), True),
        (k8_problem, False),
        (lambda: k8_problem(model=UPWIND), False),
        (ring_problem, False),
        (lambda: ring_problem(model=UPWIND), False),
    ],
    ids=[
        "M=1",
        "M=2",
        "upwind M=1",
        "upwind mixed signs",
        "upwind ties",
        "K8",
        "K8 upwind",
        "periodic lattice",
        "periodic lattice upwind",
    ],
)


@edge_cases
def test_analytic_jacobian_matches_fd_edge_cases(make, ties):
    p = make()
    for x in edge_case_iterates(p, ties):
        ja = assemble_jacobian_analytic(p, x).toarray()
        jf = assemble_jacobian_fd(p, x).toarray()
        scale = max(float(np.abs(ja).max()), 1.0)
        assert np.abs(ja - jf).max() <= 1e-5 * scale


@edge_cases
def test_condensed_factor_matches_full_lu(make, ties, monkeypatch):
    p = make()
    size = state_size(p)
    top = size - (p.graph.node_count - 1)
    rng = np.random.Generator(np.random.PCG64(12))
    for x in edge_case_iterates(p, ties, count=3):
        for matrix in (assemble_jacobian_analytic(p, x), assemble_jacobian_fd(p, x)):
            factors = [_CondensedFactor(p, matrix)]
            with monkeypatch.context() as patch:
                # the Schur complement built two columns at a time
                patch.setattr(graph_ot.newton, "_SCHUR_CHUNK_BYTES", 16 * top)
                factors.append(_CondensedFactor(p, matrix))
            full = spla.splu(matrix.tocsc())
            for b in (rng.normal(size=size), rng.normal(size=(size, 3))):
                for trans in ("N", "T"):
                    want = full.solve(b, trans=trans)
                    for factor in factors:
                        got = factor.solve(b, trans=trans)
                        assert got.shape == b.shape
                        gap = np.linalg.norm(got - want) / np.linalg.norm(want)
                        assert gap <= 1e-10, (trans, gap)


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
    jacobian = assemble_jacobian_analytic(p, default_initial_guess(p)).toarray()
    exact = 1.0 / (
        np.linalg.norm(jacobian, 1) * np.linalg.norm(np.linalg.inv(jacobian), 1)
    )
    np.random.seed(5)  # onenormest draws from numpy's global generator
    rcond = newton_solve(p).jacobian_rcond
    assert exact * (1.0 - 1e-12) <= rcond <= 3.0 * exact


def test_splu_factors_only_the_triangular_block(monkeypatch):
    shapes = []
    splu = spla.splu

    def recording(matrix, **kwargs):
        shapes.append(matrix.shape)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(graph_ot.newton.spla, "splu", recording)
    for config in (SolveConfig(), SolveConfig(jacobian="fd"), SolveConfig(jacobian="chord")):
        p = dumbbell_problem()
        report = newton_solve(p, config=config)
        assert report.converged
        top = state_size(p) - (p.graph.node_count - 1)
        assert shapes and set(shapes) == {(top, top)}
        shapes.clear()


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


def test_fd_jacobian_exact_on_linear_system():
    # the 2-node mean residual is linear, so forward differences are exact
    # up to rounding
    p = two_node_problem(steps=4)
    x = default_initial_guess(p)
    ja = assemble_jacobian_analytic(p, x).toarray()
    jf = assemble_jacobian_fd(p, x).toarray()
    np.testing.assert_allclose(jf, ja, atol=1e-8)


def test_fd_solve_agrees_with_analytic():
    p = dumbbell_problem()
    ra = newton_solve(p, config=SolveConfig(jacobian="analytic"))
    rf = newton_solve(p, config=SolveConfig(jacobian="fd"))
    assert rf.converged
    np.testing.assert_allclose(
        pack(p, rf.trajectory), pack(p, ra.trajectory), atol=1e-9
    )


def test_chord_converges_to_same_solution_more_slowly():
    p = dumbbell_problem()
    tol = 1e-10
    ra = newton_solve(p, config=SolveConfig(tolerance=tol))
    rc = newton_solve(p, config=SolveConfig(tolerance=tol, jacobian="chord"))
    assert rc.converged
    assert rc.iterations >= ra.iterations
    gap = np.linalg.norm(pack(p, rc.trajectory) - pack(p, ra.trajectory))
    assert gap <= 10.0 * tol


def test_damping_solves_standard_problem():
    p = dumbbell_problem()
    rd = newton_solve(p, config=SolveConfig(damping=True))
    assert rd.converged
    ra = newton_solve(p)
    np.testing.assert_allclose(
        pack(p, rd.trajectory), pack(p, ra.trajectory), atol=1e-8
    )


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


def test_singular_jacobian_is_raised():
    # zero initial velocity with upwind mobility and a zero donor density
    # gives a structurally zero column
    g = build_from_edge_list([(1, 2, 1.0)])
    p = TransportProblem(g, np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1, model=UPWIND)
    with pytest.raises(SingularJacobianError) as exc:
        newton_solve(p, x0=np.zeros(2))
    assert exc.value.rcond == 0.0


def test_far_apart_pair_diverges_without_raising():
    # at velocities near 1e5 the Schur complement's entries reach 1e144 and
    # its pivots cancel; the step must come out non-finite, not raise
    g = lattice_1d_periodic(64, 4.0, -1.0)
    mu = gaussian_density_1d(g, 15.0, 0.0, 1e-6)
    nu = gaussian_density_1d(g, 15.0, 2.0, 1e-6)
    p = TransportProblem(g, mu, nu, 32)
    with np.errstate(all="ignore"):
        report = newton_solve(p)
    assert report.status == "nonfinite_residual"
    assert not report.converged


def test_max_iterations_exceeded():
    p = dumbbell_problem()
    report = newton_solve(p, config=SolveConfig(tolerance=1e-30, max_iterations=2))
    assert not report.converged
    assert report.status == "max_iterations_exceeded"
    assert report.iterations == 2
    assert report.residual_history.shape == (3,)


def test_line_search_failure_keeps_last_iterate():
    # at a residual of a few 1e-16 no halving of the step lowers it further
    p = dumbbell_problem()
    report = newton_solve(
        p, config=SolveConfig(damping=True, tolerance=1e-30, max_iterations=12)
    )
    assert report.status == "line_search_failed"
    assert not report.converged
    assert report.iterations < 12
    assert np.all(np.diff(report.residual_history) < 0.0)
    assert report.residual_history.shape == (report.iterations + 1,)


def test_nonfinite_residual_reported_not_raised():
    p = two_node_problem()
    x0 = np.zeros(state_size(p))
    x0[15:] = 1e200  # squared velocities overflow
    with np.errstate(over="ignore", invalid="ignore"):
        report = newton_solve(p, x0=x0)
    assert report.status == "nonfinite_residual"
    assert not report.converged
    assert report.iterations == 0


def test_ill_conditioning_warning_logged(caplog):
    g = build_from_edge_list([(1, 2, 1.0)])
    p = TransportProblem(g, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 2, model=UPWIND)
    with caplog.at_level(logging.WARNING, logger="graph_ot.newton"):
        newton_solve(p, config=SolveConfig(rcond_warn=1.0))
    assert any("reciprocal-condition" in r.message for r in caplog.records)


# -- cfl ------------------------------------------------------------------------


def test_cfl_zero_field():
    g = dumbbell(3, 3)
    margins, tau_star = check_cfl(g, np.zeros(g.edge_count), 0.5)
    np.testing.assert_array_equal(margins, np.ones(6))
    assert tau_star == np.inf


def test_cfl_global_bound_star():
    # max degree 4, unit weights, max speed 2: tau* = 1/8
    g = build_from_edge_list([(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)])
    _, tau_star = check_cfl(g, np.array([2.0, -1.0, 0.5, -2.0]), 0.01)
    assert tau_star == pytest.approx(1.0 / 8.0)


def test_cfl_margin_star_three():
    g = build_from_edge_list([(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    margins, _ = check_cfl(g, np.array([1.0, 1.0, 1.0]), 0.25)
    # center pays for all three outgoing edges, leaves have no outflow
    np.testing.assert_allclose(margins, [0.25, 1.0, 1.0, 1.0])


def test_cfl_rejects_wrong_shape():
    g = dumbbell(3, 3)
    with pytest.raises(DimensionMismatchError):
        check_cfl(g, np.zeros(g.edge_count + 1), 0.1)
