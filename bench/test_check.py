"""Tests of the benchmark's output checker.

    python -m pytest bench

Each test solves one small problem with graph_ot, confirms the checker
accepts the artifact, and then feeds it a damaged copy that it must reject.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graph_ot as go  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402


def solve(op: workloads.Operation, tmp: Path, **overrides) -> dict:
    args = {**op.spec_args, **overrides}
    run = go.run_scenario(go.ScenarioSpec(**args, out=str(tmp / f"{op.name}.json")))
    assert run.exit_code == 0
    return go.read_artifact(run.out_path)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("suite")
    return {op.name: op for op in workloads.build("scenario-suite", 7, tmp)}, tmp


@pytest.fixture(scope="module")
def dumbbell(suite):
    ops, tmp = suite
    op = ops["dumbbell"]
    return op, solve(op, tmp, steps=16)


def with_trajectory(document: dict, field: str, change) -> dict:
    damaged = copy.deepcopy(document)
    values = np.array(damaged["trajectory"][field])
    change(values)
    damaged["trajectory"][field] = values.tolist()
    return damaged


def test_solved_artifact_passes(dumbbell):
    op, document = dumbbell
    assert op.check(document) == []


def test_moved_mass_breaks_the_residual(dumbbell):
    op, document = dumbbell

    def move(rho):
        rho[5, 0] += 1e-6
        rho[5, 1] -= 1e-6

    failures = op.check(with_trajectory(document, "densities", move))
    assert any("geodesic residual" in f for f in failures)
    assert not any("mass" in f for f in failures)


def test_lost_mass_is_seen(dumbbell):
    op, document = dumbbell

    def lose(rho):
        rho[3, 2] -= 1e-6

    assert any("level mass" in f for f in op.check(with_trajectory(document, "densities", lose)))


def test_wrong_endpoint_is_seen(dumbbell):
    op, document = dumbbell
    assert any("endpoint nu" in f for f in check.check_geodesic(document, op.mu, op.nu[::-1]))


def test_velocity_off_the_gradients_is_seen(dumbbell):
    op, document = dumbbell
    tree = {tuple(e) for e in document["tree_edges"]}
    chord = next(k for k, e in enumerate(document["graph"]["edges"]) if tuple(e) not in tree)

    def bend(v):
        v[4, chord] += 1e-6

    failures = op.check(with_trajectory(document, "edge_velocities", bend))
    assert any("not gradients" in f for f in failures)


def test_map_benchmark_against_the_closed_form(tmp_path):
    (op,) = workloads.map1d_n256(3, tmp_path)
    document = solve(op, tmp_path, lattice1d=(32, 1.0), origin=op.spec_args["origin"] * 8, steps=32)
    assert check.check_map_benchmark(document) == []

    def slow(v):
        v[0] *= 1.1

    assert check.check_map_benchmark(with_trajectory(document, "edge_velocities", slow))


def test_translation_distance(tmp_path):
    (op,) = workloads.grid2d_16_damped(0, tmp_path)
    document = solve(op, tmp_path, steps=8)
    assert check.check_translation(document, (0.5, 1.5), (1.5, 1.3), 4.0) == []
    assert check.check_translation(document, (0.5, 1.5), (2.5, 1.3), 4.0)


def test_cfl_margins_and_donor_cell_update(suite):
    ops, tmp = suite
    document = solve(ops["check-cfl"], tmp, steps=32)
    assert check.check_cfl(document) == []

    def rush(v):
        v[:] *= 100.0

    failures = check.check_cfl(with_trajectory(document, "edge_velocities", rush))
    assert any("CFL margin" in f for f in failures)


def test_tree_compare_gauge_gaps(suite):
    ops, tmp = suite
    document = solve(ops["tree-compare"], tmp, steps=16)
    assert check.check_tree_compare(document) == []
    damaged = copy.deepcopy(document)
    damaged["extras"]["per_tree"][1]["w2_action"] += 1e-3
    assert any("w2_action differs" in f for f in check.check_tree_compare(damaged))


def test_effective_edges(suite):
    ops, tmp = suite
    document = solve(ops["recover-topology"], tmp, steps=8)
    assert check.check_effective_edges(document) == []
    damaged = copy.deepcopy(document)
    damaged["extras"]["effective_edge_count_per_level"][0] += 1
    assert check.check_effective_edges(damaged)
