import base64
import json
import warnings

import numpy as np
import pytest

from graph_ot import (
    EXIT_INPUT_ERROR,
    EXIT_INVARIANT_VIOLATION,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    InputFormatError,
    InvalidDensityError,
    NegativeDensityError,
    ScenarioSpec,
    build_from_edge_list,
    five_node_example,
    newton_solve,
    read_artifact,
    read_density_file,
    run_scenario,
    write_artifact,
)
from graph_ot.scenarios import _classify


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")


def assert_bitwise(actual, expected):
    """Equal shapes, dtypes and bits: NaN matches NaN, -0.0 does not match 0.0."""
    assert actual.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64), strict=True)


TRAJECTORY_ARRAYS = ("times", "densities", "tree_velocities", "edge_velocities")


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.csv"
    write_lines(path, "i,j,omega", "1,2,1.0", "2,3,1.0", "1,3,2.0")
    return path


@pytest.fixture
def density_files(tmp_path):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    write_lines(mu, "0.5", "0.3", "0.2")
    write_lines(nu, "0.2", "0.3", "0.5")
    return mu, nu


# -- density files ---------------------------------------------------------------


def test_density_file_comments_and_blanks(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "# header comment", "", "0.25", "  0.75  ", "# trailing")
    np.testing.assert_array_equal(read_density_file(path, 2), [0.25, 0.75])


def test_density_file_bad_token_reports_line(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "0.5", "half")
    with pytest.raises(InputFormatError, match=r"rho\.txt:2"):
        read_density_file(path, 2)


def test_density_file_wrong_count(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "0.5", "0.5")
    with pytest.raises(InputFormatError, match="expected 3 values"):
        read_density_file(path, 3)


def test_density_file_negative_entry(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "1.2", "-0.2")
    with pytest.raises(NegativeDensityError):
        read_density_file(path, 2)


def test_density_file_mass_gate(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "0.6", "0.5")
    with pytest.raises(InvalidDensityError, match="normalize"):
        read_density_file(path, 2)
    rho = read_density_file(path, 2, normalize=True)
    np.testing.assert_allclose(rho, [6.0 / 11.0, 5.0 / 11.0])
    assert rho.sum() == pytest.approx(1.0, abs=1e-16)


def test_density_file_always_rescales_exactly(tmp_path):
    # values summing to 1 within 1e-8 but not exactly still get rescaled,
    # so the strict endpoint mass gate (1e-12) accepts the result
    path = tmp_path / "rho.txt"
    write_lines(path, "0.500000001", "0.5")
    rho = read_density_file(path, 2)
    assert abs(rho.sum() - 1.0) < 1e-12


def test_density_file_zero_sum(tmp_path):
    path = tmp_path / "rho.txt"
    write_lines(path, "0.0", "0.0")
    with pytest.raises(InvalidDensityError):
        read_density_file(path, 2, normalize=True)


# -- the solve scenario ------------------------------------------------------------


def test_solve_scenario_end_to_end(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    out = tmp_path / "run.json"
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(triangle_file),
            mu_file=str(mu),
            nu_file=str(nu),
            steps=8,
            out=str(out),
        )
    )
    assert run.exit_code == EXIT_OK
    assert run.out_path == out
    doc = run.document
    assert doc["schema"] == "graph-ot/2"
    assert doc["scenario"] == "solve"
    assert doc["exit_code"] == EXIT_OK
    assert doc["config"]["steps"] == 8
    assert doc["config"]["theta"] == "mean"
    assert doc["config"]["damping"] is False
    assert doc["graph"]["node_count"] == 3
    assert doc["graph"]["edges"] == [[1, 2], [1, 3], [2, 3]]
    assert doc["solver"]["status"] == "converged"
    assert doc["solver"]["residual_history"][-1] < 1e-10
    assert doc["metrics"]["w2"] == pytest.approx(np.sqrt(doc["metrics"]["w2_action"]))
    assert len(doc["trajectory"]["densities"]) == 9
    # artifact on disk equals the in-memory document, its arrays bit for bit
    written = read_artifact(out)
    trajectory = written.pop("trajectory")
    assert written == {key: value for key, value in doc.items() if key != "trajectory"}
    assert trajectory.keys() == doc["trajectory"].keys() == set(TRAJECTORY_ARRAYS)
    for name in TRAJECTORY_ARRAYS:
        assert_bitwise(trajectory[name], doc["trajectory"][name])


def test_solve_artifact_round_trips_bitwise(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    out = tmp_path / "run.json"
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(triangle_file),
            mu_file=str(mu),
            nu_file=str(nu),
            steps=6,
            out=str(out),
        )
    )
    written = read_artifact(out)["trajectory"]
    solved = run.reports[0].trajectory
    for name in TRAJECTORY_ARRAYS:
        assert_bitwise(written[name], getattr(solved, name))


def test_lattice2d_artifact_round_trips_bitwise(tmp_path):
    out = tmp_path / "grid.json"
    run = run_scenario(ScenarioSpec("benchmark-2d", lattice2d=(6, 4.0), steps=4, out=str(out)))
    written = read_artifact(out)["trajectory"]
    solved = run.reports[0].trajectory
    assert written["densities"].shape == (5, 36)
    assert written["edge_velocities"].shape == (5, 72)
    assert written["tree_velocities"].shape == (5, 35)
    for name in TRAJECTORY_ARRAYS:
        assert_bitwise(written[name], getattr(solved, name))


def test_solve_requires_graph(density_files):
    mu, nu = density_files
    with pytest.raises(InputFormatError, match="graph source"):
        run_scenario(ScenarioSpec(scenario="solve", mu_file=str(mu), nu_file=str(nu)))


def test_solve_requires_both_densities(tmp_path, triangle_file, density_files):
    mu, _ = density_files
    with pytest.raises(InputFormatError, match="both"):
        run_scenario(
            ScenarioSpec(scenario="solve", graph_file=str(triangle_file), mu_file=str(mu))
        )


def test_conflicting_graph_sources(triangle_file, density_files):
    mu, nu = density_files
    with pytest.raises(InputFormatError, match="one graph source"):
        run_scenario(
            ScenarioSpec(
                scenario="solve",
                graph_file=str(triangle_file),
                lattice1d=(8, 1.0),
                mu_file=str(mu),
                nu_file=str(nu),
            )
        )


def test_conflicting_density_sources(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    with pytest.raises(InputFormatError, match="one source for mu"):
        run_scenario(
            ScenarioSpec(
                scenario="solve",
                graph_file=str(triangle_file),
                mu_file=str(mu),
                mu_uniform=True,
                nu_file=str(nu),
            )
        )


def test_unknown_scenario():
    with pytest.raises(InputFormatError, match="unknown scenario"):
        run_scenario(ScenarioSpec(scenario="teleport"))


def test_unknown_mobility(tmp_path):
    spec = ScenarioSpec("dumbbell", theta="harmonic", out=str(tmp_path / "a.json"))
    match = r"unknown mobility 'harmonic'; choose from \['mean', 'upwind'\]"
    with pytest.raises(InputFormatError, match=match):
        run_scenario(spec)
    assert not (tmp_path / "a.json").exists()


def test_default_artifact_name(tmp_path, monkeypatch, triangle_file, density_files):
    monkeypatch.chdir(tmp_path)
    mu, nu = density_files
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(triangle_file),
            mu_file=str(mu),
            nu_file=str(nu),
            steps=4,
        )
    )
    assert run.out_path.name == "graph_ot_solve.json"
    assert (tmp_path / "graph_ot_solve.json").exists()


def test_fractional_iteration_cap_is_rejected(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    out = tmp_path / "capped.json"
    spec = ScenarioSpec(
        scenario="solve",
        graph_file=str(triangle_file),
        mu_file=str(mu),
        nu_file=str(nu),
        max_iterations=2.5,
        out=str(out),
    )
    with pytest.raises(InputFormatError, match="max_iterations"):
        run_scenario(spec)
    assert not out.exists()


def test_non_convergence_exit_code(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(triangle_file),
            mu_file=str(mu),
            nu_file=str(nu),
            steps=8,
            tolerance=1e-30,
            max_iterations=1,
            out=str(tmp_path / "bad.json"),
        )
    )
    assert run.exit_code == EXIT_NOT_CONVERGED
    assert run.document["solver"]["status"] == "max_iterations_exceeded"
    # the artifact is still written for post-mortems
    assert run.out_path.exists()


# -- classification ------------------------------------------------------------------


def fresh_report():
    g = build_from_edge_list([(1, 2, 1.0)])
    from graph_ot import TransportProblem

    p = TransportProblem(g, np.array([0.6, 0.4]), np.array([0.4, 0.6]), 4)
    return newton_solve(p)


def test_classify_ok():
    assert _classify([fresh_report()]) == EXIT_OK


def test_classify_prefers_nonconvergence():
    report = fresh_report()
    report.converged = False
    report.positivity_ok = False
    assert _classify([report]) == EXIT_NOT_CONVERGED


def test_classify_flags_positivity_violation():
    report = fresh_report()
    report.positivity_ok = False
    assert _classify([report]) == EXIT_INVARIANT_VIOLATION


def test_classify_flags_mass_violation():
    report = fresh_report()
    report.trajectory.densities[2, 0] += 1e-6
    assert _classify([report]) == EXIT_INVARIANT_VIOLATION


def test_classify_checks_every_report():
    good, bad = fresh_report(), fresh_report()
    bad.converged = False
    assert _classify([good, bad]) == EXIT_NOT_CONVERGED


# -- scenario defaults and extras -----------------------------------------------------


def test_five_node_example_shape():
    g = five_node_example()
    assert g.node_count == 5
    assert g.edges == [(1, 2), (1, 3), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_dumbbell_scenario_extras(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="dumbbell",
            dumbbell_sizes=(3, 3),
            steps=8,
            out=str(tmp_path / "d.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    extras = run.document["extras"]
    assert extras["bridge_edge"] == [3, 4]
    assert extras["bridge_mean_abs_velocity"] > 0.0
    assert len(extras["edge_mean_abs_velocity"]) == 7
    assert extras["min_density"] >= 0.0


def test_check_cfl_scenario_extras(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="check-cfl",
            dumbbell_sizes=(3, 3),
            steps=8,
            out=str(tmp_path / "c.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    assert run.document["config"]["theta"] == "upwind"
    extras = run.document["extras"]
    assert extras["tau"] == pytest.approx(1.0 / 8.0)
    assert len(extras["min_margin_per_level"]) == 8
    assert extras["min_margin"] == pytest.approx(min(extras["min_margin_per_level"]))
    assert extras["cfl_satisfied"] == (extras["min_margin"] >= 0.0)
    assert extras["tau_star"] is None or extras["tau_star"] > 0.0


def test_tree_compare_scenario_defaults(tmp_path):
    run = run_scenario(
        ScenarioSpec(scenario="tree-compare", steps=8, out=str(tmp_path / "t.json"))
    )
    assert run.exit_code == EXIT_OK
    extras = run.document["extras"]
    assert len(extras["per_tree"]) == 3
    trees = {tuple(map(tuple, row["tree_edges"])) for row in extras["per_tree"]}
    assert len(trees) == 3
    gaps = extras["max_pairwise_gaps"]
    # gauge choice must not change the solution
    assert gaps["action"] < 1e-10
    assert gaps["densities"] < 1e-8
    assert gaps["edge_velocities"] < 1e-8


def test_tree_compare_custom_graph_needs_tree(triangle_file):
    with pytest.raises(InputFormatError, match="--tree"):
        run_scenario(
            ScenarioSpec(scenario="tree-compare", graph_file=str(triangle_file), steps=4)
        )


def test_tree_compare_accepts_tree_files(tmp_path, triangle_file):
    tree_a = tmp_path / "a.csv"
    tree_b = tmp_path / "b.csv"
    write_lines(tree_a, "i,j", "1,2", "2,3")
    write_lines(tree_b, "i,j", "1,3", "2,3")
    run = run_scenario(
        ScenarioSpec(
            scenario="tree-compare",
            graph_file=str(triangle_file),
            tree_files=(str(tree_a), str(tree_b)),
            steps=8,
            out=str(tmp_path / "t.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    assert len(run.document["extras"]["per_tree"]) == 2
    assert run.document["extras"]["max_pairwise_gaps"]["densities"] < 1e-8


def test_recover_topology_scenario(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="recover-topology",
            complete=5,
            steps=8,
            threshold=1e-3,
            out=str(tmp_path / "r.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    extras = run.document["extras"]
    assert extras["threshold"] == 1e-3
    assert len(extras["effective_edges_per_level"]) == 9
    counts = extras["effective_edge_count_per_level"]
    assert all(0 <= c <= 10 for c in counts)
    assert counts == [len(es) for es in extras["effective_edges_per_level"]]


def test_consensus_scenario(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="consensus", complete=4, steps=8, out=str(tmp_path / "u.json")
        )
    )
    assert run.exit_code == EXIT_OK
    assert run.document["config"]["nu_source"] == {"kind": "uniform"}
    extras = run.document["extras"]
    deviations = extras["max_deviation_from_uniform_per_level"]
    assert len(deviations) == 9
    assert extras["final_deviation_from_uniform"] == pytest.approx(deviations[-1])
    assert deviations[-1] < 1e-12  # endpoint is exactly uniform


def test_benchmark_1d_scenario_small(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="benchmark-1d",
            lattice1d=(16, 4.0),
            origin=-1.0,
            steps=8,
            out=str(tmp_path / "b1.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    row = run.document["extras"]["results_row"]
    assert row["dx"] == pytest.approx(0.25)
    assert row["w2"] > 0.0
    assert row["map_error"] is None


def test_map_benchmark_scenario_small(tmp_path):
    run = run_scenario(
        ScenarioSpec(
            scenario="map-benchmark",
            lattice1d=(16, 1.0),
            steps=8,
            out=str(tmp_path / "m.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    row = run.document["extras"]["results_row"]
    assert row["dx"] == pytest.approx(1.0 / 16.0)
    assert row["map_error"] < 0.02
    assert run.document["extras"]["analytic_w2"] == pytest.approx(
        np.sqrt(0.5) / (64.0 * np.pi)
    )


def test_map_benchmark_rejects_wrong_domain():
    with pytest.raises(InputFormatError, match=r"\[0, 1\]"):
        run_scenario(ScenarioSpec(scenario="map-benchmark", lattice1d=(16, 2.0)))


def test_benchmark_2d_scenario_small(tmp_path):
    # the default sharp profiles need the full grid; a desk-size run uses
    # smooth bumps instead
    run = run_scenario(
        ScenarioSpec(
            scenario="benchmark-2d",
            lattice2d=(6, 4.0),
            origin=-1.0,
            steps=4,
            mu_gauss2d=(2.0, 2.0, 0.5, 1.5, 1.0, 1e-3),
            nu_gauss2d=(2.0, 2.0, 1.5, 1.3, 1.0, 1e-3),
            out=str(tmp_path / "b2.json"),
        )
    )
    assert run.exit_code == EXIT_OK
    assert run.document["config"]["damping"] is True  # per-scenario default
    assert run.document["extras"]["results_row"]["dx"] == pytest.approx(4.0 / 6.0)


def test_benchmark_2d_defaults_damped(tmp_path):
    # the 16x16 grid at its defaults starts far from its root; the damped
    # solve reaches the same root as the residual-monotone search of before,
    # in fewer steps
    run = run_scenario(ScenarioSpec(scenario="benchmark-2d", out=str(tmp_path / "b2.json")))
    assert run.exit_code == EXIT_OK
    solver = run.document["solver"]
    assert solver["status"] == "converged"
    assert solver["iterations"] <= 9
    assert run.document["metrics"]["w2_action"] == pytest.approx(1.0926242634633596, rel=1e-10)
    factors = solver["damping_factors"]
    assert len(factors) == solver["iterations"]
    assert all(0.0 < lam <= 1.0 for lam in factors)
    assert factors[0] < 1.0 and factors[-1] == 1.0


def test_far_apart_pair_reports_negative_density(tmp_path):
    # the damped solve used to creep for 100 iterations; the root it now
    # reaches has a negative density, which the run reports
    run = run_scenario(
        ScenarioSpec(
            scenario="benchmark-1d",
            mu_gauss1d=(15.0, 0.0, 1e-6),
            nu_gauss1d=(15.0, 2.0, 1e-6),
            damping=True,
            out=str(tmp_path / "far.json"),
        )
    )
    assert run.exit_code == EXIT_INVARIANT_VIOLATION
    solver = run.document["solver"]
    assert solver["status"] == "converged"
    assert solver["iterations"] <= 40
    assert solver["positivity_ok"] is False
    assert solver["cfl_margin"] < 0.0


def test_diverged_solve_writes_its_artifact_quietly(tmp_path):
    # without damping the far-apart pair overflows; the status reports it,
    # and neither the solver nor the metrics warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = run_scenario(
            ScenarioSpec(
                scenario="benchmark-1d",
                mu_gauss1d=(15.0, 0.0, 1e-6),
                nu_gauss1d=(15.0, 2.0, 1e-6),
                damping=False,
                out=str(tmp_path / "far.json"),
            )
        )
    assert run.exit_code == EXIT_NOT_CONVERGED
    assert run.document["solver"]["status"] == "nonfinite_residual"


def test_damping_override_wins(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(triangle_file),
            mu_file=str(mu),
            nu_file=str(nu),
            steps=4,
            damping=True,
            out=str(tmp_path / "s.json"),
        )
    )
    assert run.document["config"]["damping"] is True


def test_single_tree_limit(tmp_path, triangle_file, density_files):
    mu, nu = density_files
    tree_a = tmp_path / "a.csv"
    tree_b = tmp_path / "b.csv"
    write_lines(tree_a, "i,j", "1,2", "2,3")
    write_lines(tree_b, "i,j", "1,3", "2,3")
    with pytest.raises(InputFormatError, match="single --tree"):
        run_scenario(
            ScenarioSpec(
                scenario="solve",
                graph_file=str(triangle_file),
                mu_file=str(mu),
                nu_file=str(nu),
                tree_files=(str(tree_a), str(tree_b)),
            )
        )


def test_write_artifact_format(tmp_path):
    path = tmp_path / "doc.json"
    write_artifact({"schema": "graph-ot/1", "x": [1.5]}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert read_artifact(path) == {"schema": "graph-ot/1", "x": [1.5]}


def test_artifact_arrays_round_trip_every_float_bitwise(tmp_path):
    path = tmp_path / "doc.json"
    special = np.array([[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1.0 / 3.0]])
    write_artifact({"schema": "graph-ot/2", "x": special}, path)
    stored = json.loads(path.read_text())["x"]
    assert {key: stored[key] for key in ("dtype", "shape")} == {"dtype": "<f8", "shape": [3, 2]}
    assert base64.b64decode(stored["data"]) == special.astype("<f8").tobytes()
    x = read_artifact(path)["x"]
    assert_bitwise(x, special)
    x[0, 0] = 2.0  # decoded arrays are writable


def test_artifact_writer_refuses_arrays_it_cannot_store_bitwise(tmp_path):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_artifact({"x": np.arange(3)}, tmp_path / "doc.json")


def test_version_1_artifact_reads_as_before(tmp_path):
    # graph-ot/1 wrote the trajectory arrays as nested lists of text floats
    document = {
        "schema": "graph-ot/1",
        "trajectory": {
            "times": [0.0, 0.5, 1.0],
            "densities": [[0.5, 0.5], [0.375, 0.625], [0.25, 0.75]],
            "tree_velocities": [[0.25], [0.25], [0.25]],
            "edge_velocities": [[0.25], [0.25], [0.25]],
        },
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(document) + "\n")
    assert read_artifact(path) == document
