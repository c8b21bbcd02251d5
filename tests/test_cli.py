import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from graph_ot import SolveConfig, read_artifact
import graph_ot.cli
import graph_ot.scenarios
from graph_ot.cli import _spec_from_args, build_parser, main


def write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def solve_args(tmp_path):
    graph = tmp_path / "triangle.csv"
    write_lines(graph, "i,j,omega", "1,2,1.0", "2,3,1.0", "1,3,2.0")
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    write_lines(mu, "0.5", "0.3", "0.2")
    write_lines(nu, "0.2", "0.3", "0.5")
    out = tmp_path / "run.json"
    return [
        "solve",
        "--graph", str(graph),
        "--mu", str(mu),
        "--nu", str(nu),
        "--steps", "8",
        "--out", str(out),
    ], out


def stderr_error(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.splitlines()[-1])["error"]


# -- parsing ---------------------------------------------------------------------


def test_parser_knows_every_scenario():
    parser = build_parser()
    names = [
        "solve", "benchmark-1d", "benchmark-2d", "map-benchmark", "tree-compare",
        "dumbbell", "recover-topology", "consensus", "check-cfl",
    ]
    for name in names:
        args = parser.parse_args([name])
        assert args.scenario == name


def test_lattice_arguments_convert_to_int_float():
    parser = build_parser()
    args = parser.parse_args(["map-benchmark", "--lattice1d", "128", "1.0"])
    spec = _spec_from_args(args)
    assert spec.lattice1d == (128, 1.0)
    assert spec.lattice2d is None


def test_spec_carries_solver_options(tmp_path):
    parser = build_parser()
    args = parser.parse_args(
        [
            "dumbbell", "--dumbbell", "4", "5", "--steps", "16", "--theta", "upwind",
            "--tol", "1e-8", "--maxits", "50",
            "--no-damping", "--seed", "3", "--out", str(tmp_path / "x.json"),
        ]
    )
    spec = _spec_from_args(args)
    assert spec.dumbbell_sizes == (4, 5)
    assert spec.steps == 16
    assert spec.theta == "upwind"
    assert spec.tolerance == 1e-8
    assert spec.max_iterations == 50
    assert spec.damping is False
    assert spec.seed == 3


def test_damping_flag_tri_state():
    parser = build_parser()
    assert _spec_from_args(parser.parse_args(["solve"])).damping is None
    assert _spec_from_args(parser.parse_args(["solve", "--damping"])).damping is True
    assert _spec_from_args(parser.parse_args(["solve", "--no-damping"])).damping is False


def test_solver_defaults_come_from_solve_config(solve_args):
    args, _ = solve_args
    spec = _spec_from_args(build_parser().parse_args(args))
    defaults = SolveConfig()
    assert spec.tolerance == defaults.tolerance
    assert spec.max_iterations == defaults.max_iterations


# -- happy path -------------------------------------------------------------------


def test_solve_run_summary_and_artifact(capsys, solve_args):
    argv, out = solve_args
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert re.fullmatch(
        r"solve: converged in \d+ iterations, w2=\d\.\d{6}e[+-]\d+, artifact=.*\n",
        stdout,
    )
    doc = read_artifact(out)
    assert doc["exit_code"] == 0
    assert doc["scenario"] == "solve"


def test_damping_flag_recorded(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["dumbbell", "--dumbbell", "3", "3", "--steps", "6", "--damping",
                 "--out", str(out)]) == 0
    assert read_artifact(out)["config"]["damping"] is True


def test_normalize_flag(tmp_path, capsys, solve_args):
    argv, out = solve_args
    mu_path = argv[4]
    write_lines(Path(mu_path), "5", "3", "2")
    assert main(argv) == 2
    assert stderr_error(capsys)["type"] == "InvalidDensityError"
    assert main(argv + ["--normalize"]) == 0
    first = read_artifact(out)["trajectory"]["densities"][0]
    expected = np.array([0.5, 0.3, 0.2])
    np.testing.assert_array_equal(first.view(np.uint64), expected.view(np.uint64), strict=True)


def test_main_fixes_the_mmap_threshold(monkeypatch, capsys, solve_args):
    calls = []

    class LibC:
        def mallopt(self, *args):
            calls.append(args)

    monkeypatch.setattr(graph_ot.cli.ctypes, "CDLL", lambda name: LibC())
    argv, _ = solve_args
    assert main(argv) == 0
    assert calls == [(-3, 131072)]


@pytest.mark.parametrize("error", [AttributeError, OSError])
def test_main_runs_without_mallopt(monkeypatch, capsys, solve_args, error):
    def cdll(name):
        raise error("no mallopt")

    monkeypatch.setattr(graph_ot.cli.ctypes, "CDLL", cdll)
    argv, out = solve_args
    assert main(argv) == 0
    assert read_artifact(out)["exit_code"] == 0


# -- error surface -----------------------------------------------------------------


def test_missing_scenario_is_usage_error(capsys):
    assert main([]) == 2
    error = stderr_error(capsys)
    assert error["exit_code"] == 2


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["teleport"]) == 2
    assert "teleport" in stderr_error(capsys)["message"]


def test_bad_option_value_is_usage_error(capsys):
    assert main(["solve", "--steps", "eight"]) == 2
    assert "eight" in stderr_error(capsys)["message"]


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--lattice1d", ["16.5", "4.0"]),
        ("--lattice1d", ["64", "abc"]),
        ("--lattice2d", ["x", "4"]),
    ],
)
def test_bad_lattice_size_is_usage_error(capsys, flag, values):
    assert main(["benchmark-1d", flag, *values]) == 2
    error = stderr_error(capsys)
    assert error["exit_code"] == 2
    assert flag in error["message"]


@pytest.mark.parametrize(
    "option, error",
    [
        (["--tol", "0"], "InputFormatError"),
        (["--tol", "nan"], "InputFormatError"),
        (["--maxits", "0"], "InputFormatError"),
        (["--steps", "0"], "DimensionMismatchError"),
    ],
    ids=["tol 0", "tol nan", "maxits 0", "steps 0"],
)
def test_bad_solver_value_is_input_error(option, error, tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert main(["dumbbell", "--out", str(out)] + option) == 2
    reported = stderr_error(capsys)
    assert reported["type"] == error
    assert reported["exit_code"] == 2
    assert option[1] in reported["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["dumbbell", "--seed", "-1"], "seed"),
        (["benchmark-1d", "--seed", "-1", "--steps", "4"], "--seed"),
        (["benchmark-1d", "--origin", "inf"], "--origin"),
        (["benchmark-1d", "--origin", "nan"], "--origin"),
        (["recover-topology", "--threshold", "nan"], "--threshold"),
        (["recover-topology", "--threshold", "inf"], "--threshold"),
        (["recover-topology", "--threshold", "-1"], "--threshold"),
    ],
    ids=[
        "seed -1", "undrawn seed -1", "origin inf", "origin nan",
        "threshold nan", "threshold inf", "threshold -1",
    ],
)
def test_bad_run_input_is_input_error(argv, name, tmp_path, capsys):
    out = tmp_path / "bad.json"
    assert main(argv + ["--out", str(out)]) == 2
    reported = stderr_error(capsys)
    assert reported["type"] == "InputFormatError"
    assert reported["exit_code"] == 2
    assert name in reported["message"]
    assert not out.exists()


def test_missing_graph_file(tmp_path, capsys):
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    write_lines(mu, "1.0")
    write_lines(nu, "1.0")
    code = main(
        ["solve", "--graph", str(tmp_path / "nope.csv"), "--mu", str(mu), "--nu", str(nu)]
    )
    assert code == 2
    assert stderr_error(capsys)["type"] == "FileNotFoundError"


def test_missing_output_directory_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    def newton_solve(*args, **kwargs):
        raise AssertionError("solved with nowhere to write the artifact")

    monkeypatch.setattr(graph_ot.scenarios, "newton_solve", newton_solve)
    missing = tmp_path / "no" / "such"
    argv = ["benchmark-2d", "--lattice2d", "32", "4.0", "--origin", "-1", "--steps", "32"]
    assert main(argv + ["--out", str(missing / "x.json")]) == 2
    error = stderr_error(capsys)
    assert error["type"] == "FileNotFoundError"
    assert str(missing) in error["message"]
    assert not missing.exists()


def test_missing_density_source(tmp_path, capsys):
    graph = tmp_path / "g.csv"
    write_lines(graph, "i,j,omega", "1,2,1.0")
    assert main(["solve", "--graph", str(graph)]) == 2
    assert stderr_error(capsys)["type"] == "InputFormatError"


def test_non_convergence_exit_code(capsys, solve_args):
    argv, out = solve_args
    assert main(argv + ["--tol", "1e-30", "--maxits", "1"]) == 3
    stdout = capsys.readouterr().out
    assert "max_iterations_exceeded" in stdout
    assert read_artifact(out)["exit_code"] == 3


def test_singular_jacobian_exit_code(tmp_path, capsys):
    graph = tmp_path / "pair.csv"
    write_lines(graph, "i,j,omega", "1,2,1.0")
    mu = tmp_path / "mu.txt"
    nu = tmp_path / "nu.txt"
    write_lines(mu, "0.0", "1.0")
    write_lines(nu, "1.0", "0.0")
    out = tmp_path / "s.json"
    code = main(
        [
            "solve", "--graph", str(graph), "--mu", str(mu), "--nu", str(nu),
            "--steps", "1", "--theta", "upwind", "--out", str(out),
        ]
    )
    assert code == 3
    assert capsys.readouterr().out.startswith("solve: singular_jacobian in 0 iterations")
    document = read_artifact(out)
    assert document["exit_code"] == 3
    assert document["solver"]["status"] == "singular_jacobian"
    assert document["solver"]["jacobian_rcond"] == 0.0


# -- logging ------------------------------------------------------------------------


def test_invalid_log_level_warns(monkeypatch, capsys, solve_args):
    argv, _ = solve_args
    monkeypatch.setenv("GRAPH_OT_LOG", "chatty")
    assert main(argv) == 0
    assert "ignoring GRAPH_OT_LOG" in capsys.readouterr().err


def test_log_level_configures_logging(monkeypatch, solve_args):
    argv, _ = solve_args
    monkeypatch.setenv("GRAPH_OT_LOG", "info")
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: calls.append(kw))
    assert main(argv) == 0
    assert calls and calls[0]["level"] == logging.INFO


def test_no_log_env_leaves_logging_alone(monkeypatch, solve_args):
    argv, _ = solve_args
    monkeypatch.delenv("GRAPH_OT_LOG", raising=False)
    calls = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: calls.append(kw))
    assert main(argv) == 0
    assert not calls
