"""End-to-end acceptance checks, one test per shipped guarantee.

Each criterion gets exactly one test so `pytest -v` reads as a checklist.
Expensive solves are shared through module-scoped fixtures; every reference
number is frozen here together with its tolerance.
"""

import numpy as np
import pytest

from graph_ot import (
    ARITHMETIC_MEAN,
    ScenarioSpec,
    SolveConfig,
    TransportProblem,
    UPWIND,
    assemble_jacobian_analytic,
    assemble_residual,
    benchmark_1d_exact_map,
    benchmark_1d_map_densities,
    build_from_edge_list,
    check_cfl,
    complete_graph,
    default_initial_guess,
    divergence,
    dumbbell,
    explicit_upwind_update,
    hamiltonian_drift,
    lattice_1d_periodic,
    level_fields,
    map_error_1d,
    newton_solve,
    pack,
    pack_fields,
    random_connected_graph,
    run_scenario,
    seeded_random_density,
    state_size,
)
from graph_ot.newton import (
    _THETA_MAX,
    _CondensedFactor,
    _correction,
    _from_potentials,
    _to_nodal_rows,
)

# reference values for the sinusoidal 1-d benchmark, indexed by grid size;
# W2 targets carry 2% windows, map errors a factor-3 window
W2_TARGETS = {16: 3.54e-3, 32: 3.52e-3, 64: 3.52e-3, 128: 3.52e-3}
MAP_ERROR_TARGETS = {16: 9.78e-4, 32: 4.89e-4, 64: 2.44e-4, 128: 1.22e-4}
ANALYTIC_W2 = np.sqrt(0.5) / (64.0 * np.pi)  # ~3.517e-3


@pytest.fixture(scope="module")
def map_solutions():
    """The four benchmark resolutions at M = 64, mean mobility."""
    runs = {}
    for n in (16, 32, 64, 128):
        graph = lattice_1d_periodic(n, 1.0)
        mu, nu = benchmark_1d_map_densities(graph)
        problem = TransportProblem(graph, mu, nu, 64)
        report = newton_solve(problem)
        assert report.converged, f"benchmark solve failed at n={n}"
        runs[n] = (graph, problem, report)
    return runs


@pytest.fixture(scope="module")
def drift_solution_m128():
    graph = lattice_1d_periodic(64, 1.0)
    mu, nu = benchmark_1d_map_densities(graph)
    report = newton_solve(TransportProblem(graph, mu, nu, 128))
    assert report.converged
    return graph, report


@pytest.fixture(scope="module")
def k10_solution():
    graph = complete_graph(10)
    mu = seeded_random_density(10, 0)
    nu = seeded_random_density(10, 1)
    problem = TransportProblem(graph, mu, nu, 128)
    report = newton_solve(problem)
    assert report.converged
    return graph, problem, report


@pytest.fixture(scope="module")
def dumbbell_solution():
    graph = dumbbell(4, 4)
    mu = seeded_random_density(8, 0)
    nu = seeded_random_density(8, 1)
    problem = TransportProblem(graph, mu, nu, 128)
    report = newton_solve(problem)
    assert report.converged
    return graph, problem, report


@pytest.fixture(scope="module")
def tree_compare_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "tree_compare.json"
    run = run_scenario(ScenarioSpec(scenario="tree-compare", steps=64, out=str(out)))
    assert run.exit_code == 0
    return run


def test_criterion_1_map_benchmark_table(map_solutions):
    # W2 within 2% of the reference column; map error within a factor of 3,
    # halving dx halves the map error (first-order rate window [1.7, 2.3])
    errors = {}
    for n, (graph, problem, report) in map_solutions.items():
        w2 = np.sqrt(report.w2_action)
        target = W2_TARGETS[n]
        assert abs(w2 - target) <= 0.02 * target, f"W2 off at n={n}: {w2:.6e}"

        err = map_error_1d(report.trajectory, graph, benchmark_1d_exact_map)
        ref = MAP_ERROR_TARGETS[n]
        assert ref / 3.0 <= err <= 3.0 * ref, f"map error off at n={n}: {err:.6e}"
        errors[n] = err

    for coarse, fine in ((16, 32), (32, 64), (64, 128)):
        ratio = errors[coarse] / errors[fine]
        assert 1.7 <= ratio <= 2.3, f"refinement ratio {ratio:.3f} at n={fine}"


def test_criterion_2_closed_form_distance(map_solutions):
    # finest grid against the closed-form distance of the sinusoidal pair
    _, _, report = map_solutions[128]
    w2 = np.sqrt(report.w2_action)
    assert abs(w2 - ANALYTIC_W2) <= 0.01 * ANALYTIC_W2


def test_criterion_3_tree_gauge_independence(tree_compare_run):
    extras = tree_compare_run.document["extras"]
    per_tree = extras["per_tree"]
    assert len(per_tree) == 3
    actions = [row["w2_action"] for row in per_tree]
    initials = [row["w2_initial"] for row in per_tree]
    for values in (actions, initials):
        assert max(values) - min(values) <= 1e-6

    # trajectories agree within C (tau + eps / tau), C = 10 at M = 64
    tau, eps = 1.0 / 64.0, 1e-10
    bound = 10.0 * (tau + eps / tau)
    gaps = extras["max_pairwise_gaps"]
    assert gaps["densities"] <= bound
    assert gaps["edge_velocities"] <= bound


def test_criterion_4_positivity_under_cfl(dumbbell_solution):
    # 200 seeded tuples: one explicit upwind step under the local CFL bound
    # never produces a negative component (exact check, no tolerance)
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 11))
        graph = random_connected_graph(n, float(rng.uniform(0.0, 0.8)), int(rng.integers(1 << 30)))
        rho = seeded_random_density(n, int(rng.integers(1 << 30)))
        v = rng.normal(0.0, float(rng.uniform(0.5, 4.0)), graph.edge_count)
        margins_at_one, _ = check_cfl(graph, v, 1.0)
        load = (1.0 - margins_at_one).max()
        tau = float(rng.uniform(0.0, 1.0)) * (1.0 / load if load > 0.0 else 1.0)
        margins, _ = check_cfl(graph, v, tau)
        assert margins.min() >= 0.0
        updated = explicit_upwind_update(graph, rho, v, tau)
        assert updated.min() >= 0.0, f"negative density after update #{checked}"
        assert updated.sum() == pytest.approx(1.0, abs=1e-12)
        checked += 1

    # and the mean-mobility dumbbell geodesic stays strictly positive
    _, _, report = dumbbell_solution
    assert report.trajectory.densities.min() > 0.0


def potential_residual_fd(p, x, step=1e-7):
    """Forward differences, one column at a time, of the residual in node
    potentials s -> R F(C s), at the potentials s = C^-1 x of x."""
    rho, vel, _ = level_fields(p, x)
    potentials = p.tree.recover_potential(vel, base=p.graph.node_count)[:, :-1]
    s = pack_fields(p, rho[1 : p.steps, :-1], potentials)

    def residual(s):
        return _to_nodal_rows(p, assemble_residual(p, _from_potentials(p, s)))

    base = residual(s)
    columns = []
    for j in range(s.size):
        h = step * (1.0 + abs(s[j]))
        shifted = s.copy()
        shifted[j] += h
        columns.append((residual(shifted) - base) / h)
    return np.stack(columns, axis=1)


def test_criterion_5_jacobian_correctness():
    rng = np.random.Generator(np.random.PCG64(7))
    two_node = build_from_edge_list([(1, 2, 1.0)])
    eight_node = dumbbell(4, 4)
    problems = [
        TransportProblem(two_node, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 8),
        TransportProblem(
            eight_node, seeded_random_density(8, 0), seeded_random_density(8, 1), 8
        ),
    ]

    for problem in problems:
        for model in (ARITHMETIC_MEAN, UPWIND):
            p = TransportProblem(
                problem.graph, problem.mu, problem.nu, problem.steps, model=model
            )
            for _ in range(10):
                x = default_initial_guess(p) + rng.normal(0.0, 0.05, state_size(p))
                if model is UPWIND:
                    # stay away from the switching set |v| <= 1e-6
                    rho, vel, _ = level_fields(p, x)
                    vel[np.abs(vel) < 1e-3] = 1e-3
                    x = pack_fields(p, rho[1 : p.steps, :-1], vel)
                ja = assemble_jacobian_analytic(p, x).toarray()
                jf = potential_residual_fd(p, x)
                scale = max(float(np.abs(ja).max()), 1.0)
                worst = float(np.abs(ja - jf).max())
                assert worst <= 1e-5 * scale, (
                    f"Jacobian mismatch {worst:.3e} on {p.graph.node_count} nodes, "
                    f"{model.kind}"
                )


def test_criterion_6_quadratic_convergence(map_solutions):
    # dx = 1/32 run with the analytic Jacobian.  The solver keeps its factor
    # while the iteration contracts fast, so its own residual history is
    # linear in that tail.  The quadratic rate is asserted for one fresh
    # Newton step from each iterate the solver reaches after its first
    # step, and every reused step contracts at theta < _THETA_MAX; the
    # default guess converges in <= 20 steps
    _, problem, report = map_solutions[32]
    assert report.iterations <= 20
    assert report.jacobian_refreshed[0]
    iterates = [default_initial_guess(problem)] + [
        pack(problem, newton_solve(problem, config=SolveConfig(max_iterations=k)).trajectory)
        for k in range(1, report.iterations + 1)
    ]
    np.testing.assert_array_equal(iterates[-1], pack(problem, report.trajectory))
    assert len(iterates) >= 3

    # the unknowns themselves are stored with half-ulp rounding, which bounds
    # the attainable residual norm near eps * ||x|| regardless of the
    # iteration; the quadratic estimate is asserted up to that floor
    attainable = 4.0 * np.finfo(float).eps * float(np.linalg.norm(iterates[-1]))
    pre_floor = 0
    for x in iterates[1:]:
        residual = assemble_residual(problem, x)
        r = float(np.linalg.norm(residual))
        factor = _CondensedFactor(problem, x)
        x_next = x + _correction(problem, factor, residual)
        r_next = float(np.linalg.norm(assemble_residual(problem, x_next)))
        assert r_next <= 10.0 * r * r + attainable
        # a step that starts above the floor meets the bare quadratic bound
        if 10.0 * r * r > attainable:
            assert r_next <= 10.0 * r * r
            pre_floor += 1
    assert pre_floor >= 2

    steps = [np.linalg.norm(b - a) for a, b in zip(iterates, iterates[1:])]
    for k in np.flatnonzero(~report.jacobian_refreshed):
        assert steps[k] < _THETA_MAX * steps[k - 1]


def test_criterion_7_conservation_invariants(
    map_solutions, drift_solution_m128, k10_solution, dumbbell_solution
):
    # every accepted trajectory conserves mass levelwise
    trajectories = [report.trajectory for _, _, report in map_solutions.values()]
    trajectories.append(drift_solution_m128[1].trajectory)
    trajectories.append(k10_solution[2].trajectory)
    trajectories.append(dumbbell_solution[2].trajectory)
    for trajectory in trajectories:
        row_mass = trajectory.densities.sum(axis=1)
        assert np.abs(row_mass - 1.0).max() <= 1e-10

    # discrete divergence sums to zero against the flux scale
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(50):
        n = int(rng.integers(2, 12))
        graph = random_connected_graph(n, 0.4, int(rng.integers(1 << 30)))
        rho = seeded_random_density(n, int(rng.integers(1 << 30)))
        v = rng.normal(0.0, 2.0, graph.edge_count)
        for model in (ARITHMETIC_MEAN, UPWIND):
            div = divergence(graph, rho, v, model)
            th = model.theta_values(rho[graph.tail], rho[graph.head], v)
            flux_scale = float(np.abs(graph.sqrt_weights * v * th).sum())
            assert abs(div.sum()) <= 1e-12 * max(flux_scale, 1e-300)

    # halving the time step halves the Hamiltonian drift on the dx=1/64 run
    graph64, _, report64 = map_solutions[64]
    drift64 = hamiltonian_drift(report64.trajectory, graph64, ARITHMETIC_MEAN)
    graph128, report128 = drift_solution_m128
    drift128 = hamiltonian_drift(report128.trajectory, graph128, ARITHMETIC_MEAN)
    ratio = drift64 / drift128
    assert 1.5 <= ratio <= 2.5, f"drift ratio {ratio:.3f}"


def shoot_two_node_mean(v1, steps):
    """Forward left-rectangle recursion for the 2-node mean-mobility system."""
    rho, v = 0.6, v1
    tau = 1.0 / steps
    path = [rho]
    for _ in range(steps):
        theta = 0.5 * (rho + (1.0 - rho))
        g1 = v * v * 0.5  # d theta / d rho is 1/2 on both sides
        g2 = v * v * 0.5
        rho, v = rho - tau * v * theta, v - 0.5 * tau * (g2 - g1)
        path.append(rho)
    return np.array(path)


def test_criterion_8_shooting_oracle():
    steps = 16
    lo, hi = 0.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shoot_two_node_mean(mid, steps)[-1] > 0.4:
            lo = mid
        else:
            hi = mid
    v1_oracle = 0.5 * (lo + hi)
    oracle_path = shoot_two_node_mean(v1_oracle, steps)

    graph = build_from_edge_list([(1, 2, 1.0)])
    problem = TransportProblem(graph, np.array([0.6, 0.4]), np.array([0.4, 0.6]), steps)
    report = newton_solve(problem)
    assert report.converged
    assert abs(report.trajectory.tree_velocities[0, 0] - v1_oracle) <= 1e-6
    np.testing.assert_allclose(report.trajectory.densities[:, 0], oracle_path, atol=1e-6)
    np.testing.assert_allclose(
        report.trajectory.densities[:, 1], 1.0 - oracle_path, atol=1e-6
    )


def test_criterion_9_topology_recovery(k10_solution):
    graph, problem, report = k10_solution
    trajectory = report.trajectory
    all_edges = set(graph.edges)
    speeds = np.abs(trajectory.edge_velocities)
    thresholds = np.linspace(0.0, float(speeds.max()), 10)
    for level in range(problem.steps + 1):
        previous = None
        for threshold in thresholds:
            current = {e for e, above in zip(graph.edges, speeds[level] > threshold) if above}
            assert current <= all_edges
            if previous is not None:
                assert current <= previous  # antitone in the threshold
            previous = current

    np.testing.assert_array_equal(trajectory.densities[0], problem.mu)
    np.testing.assert_array_equal(trajectory.densities[-1], problem.nu)


def test_dumbbell_bottleneck(dumbbell_solution):
    graph, _, report = dumbbell_solution
    mean_abs = np.abs(report.trajectory.edge_velocities).mean(axis=0)
    bridge = mean_abs[graph.edge_position(4, 5)]
    assert bridge >= mean_abs.mean()


def test_2d_lattice_refinement(tmp_path):
    # the 2-d benchmark at n = M = 16 and 32: doubling n and M shrinks the
    # gap between the two W2 estimators and the Hamiltonian drift by a
    # factor measured at 2.7 and 3.0, held to the window [2.3, 3.5]
    gaps, drifts = {}, {}
    for n in (16, 32):
        spec = ScenarioSpec(
            "benchmark-2d", lattice2d=(n, 4.0), origin=-1.0, steps=n, out=str(tmp_path / f"{n}.json")
        )
        run = run_scenario(spec)
        solver, metrics = run.document["solver"], run.document["metrics"]
        assert run.document["config"]["damping"] is True
        assert run.exit_code == 0 and solver["converged"], f"n={n}: {solver['status']}"
        assert solver["positivity_ok"], f"negative density at n={n}"
        assert solver["cfl_margin"] >= 0.0, f"CFL margin {solver['cfl_margin']} at n={n}"
        gaps[n] = abs(metrics["w2_action"] - metrics["w2_initial"])
        drifts[n] = metrics["hamiltonian_drift"]
    assert 2.3 <= gaps[16] / gaps[32] <= 3.5, f"W2 estimator gaps {gaps}"
    assert 2.3 <= drifts[16] / drifts[32] <= 3.5, f"Hamiltonian drifts {drifts}"
