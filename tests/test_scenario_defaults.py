"""Each scenario's defaults, pinned through the artifact's ``config`` block.

Every scenario runs with nothing but its name (``solve`` also gets a graph
and two density files, for which it has no defaults) and one Newton
iteration; the resolved config must equal the literal below, so a change
to any default shows up here.
"""

import pytest

from graph_ot import SCENARIOS, InputFormatError, ScenarioSpec, run_scenario

# fields every scenario copies from ScenarioSpec's own defaults
COMMON = {
    "tolerance": 1e-10,
    "max_iterations": 1,
    "seed": 0,
    "threshold": None,
    "normalize": False,
}
KRUSKAL = {"kind": "kruskal"}
SEEDED = {"mu_source": {"kind": "random", "seed": 0}, "nu_source": {"kind": "random", "seed": 1}}
DUMBBELL_4_4 = {"kind": "dumbbell", "left": 4, "right": 4}

EXPECTED = {
    "benchmark-1d": {
        "steps": 32,
        "tau": 1.0 / 32.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {"kind": "lattice1d", "grid_points": 64, "length": 4.0, "origin": -1.0},
        "mu_source": {"kind": "gauss1d", "a": 15.0, "b": 1.4, "r": 1e-4},
        "nu_source": {"kind": "gauss1d", "a": 15.0, "b": 1.7, "r": 1e-4},
        "tree_source": KRUSKAL,
    },
    "benchmark-2d": {
        "steps": 16,
        "tau": 1.0 / 16.0,
        "theta": "mean",
        "damping": True,
        "graph_source": {"kind": "lattice2d", "points_per_side": 16, "side": 4.0, "origin": -1.0},
        "mu_source": {"kind": "gauss2d", "a": 10.0, "c": 10.0, "b": 0.5, "d": 1.5, "w": 1.0, "eps": 1e-4},
        "nu_source": {"kind": "gauss2d", "a": 10.0, "c": 10.0, "b": 1.5, "d": 1.3, "w": 1.0, "eps": 1e-4},
        "tree_source": KRUSKAL,
    },
    "map-benchmark": {
        "steps": 64,
        "tau": 1.0 / 64.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {"kind": "lattice1d", "grid_points": 128, "length": 1.0, "origin": 0.0},
        "mu_source": {"kind": "benchmark-map"},
        "nu_source": {"kind": "benchmark-map"},
        "tree_source": KRUSKAL,
    },
    "tree-compare": {
        "steps": 64,
        "tau": 1.0 / 64.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {"kind": "five-node-example"},
        "tree_source": {"kind": "five-node-default-trees"},
        **SEEDED,
    },
    "dumbbell": {
        "steps": 128,
        "tau": 1.0 / 128.0,
        "theta": "mean",
        "damping": False,
        "graph_source": DUMBBELL_4_4,
        "tree_source": KRUSKAL,
        **SEEDED,
    },
    "recover-topology": {
        "steps": 128,
        "threshold": 1e-3,
        "tau": 1.0 / 128.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {"kind": "complete", "node_count": 10},
        "tree_source": KRUSKAL,
        **SEEDED,
    },
    "consensus": {
        "steps": 256,
        "tau": 1.0 / 256.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {
            "kind": "random-connected",
            "node_count": 10,
            "extra_edge_probability": 0.3,
            "seed": 0,
        },
        "mu_source": {"kind": "random", "seed": 1},
        "nu_source": {"kind": "uniform"},
        "tree_source": KRUSKAL,
    },
    "check-cfl": {
        "steps": 128,
        "tau": 1.0 / 128.0,
        "theta": "upwind",
        "damping": False,
        "graph_source": DUMBBELL_4_4,
        "tree_source": KRUSKAL,
        **SEEDED,
    },
}


def test_every_scenario_is_pinned():
    assert list(SCENARIOS) == [
        "solve",
        "benchmark-1d",
        "benchmark-2d",
        "map-benchmark",
        "tree-compare",
        "dumbbell",
        "recover-topology",
        "consensus",
        "check-cfl",
    ]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_scenario_defaults(tmp_path, name):
    run = run_scenario(
        ScenarioSpec(scenario=name, max_iterations=1, out=str(tmp_path / "a.json"))
    )
    assert run.document["config"] == {"scenario": name, **COMMON, **EXPECTED[name]}


def test_solve_defaults(tmp_path):
    graph, mu, nu = tmp_path / "g.csv", tmp_path / "mu.txt", tmp_path / "nu.txt"
    graph.write_text("i,j,omega\n1,2,1.0\n2,3,1.0\n1,3,2.0\n")
    mu.write_text("0.5\n0.3\n0.2\n")
    nu.write_text("0.2\n0.3\n0.5\n")
    run = run_scenario(
        ScenarioSpec(
            scenario="solve",
            graph_file=str(graph),
            mu_file=str(mu),
            nu_file=str(nu),
            max_iterations=1,
            out=str(tmp_path / "a.json"),
        )
    )
    assert run.document["config"] == {
        "scenario": "solve",
        **COMMON,
        "steps": 32,
        "tau": 1.0 / 32.0,
        "theta": "mean",
        "damping": False,
        "graph_source": {"kind": "file", "path": str(graph)},
        "mu_source": {"kind": "file", "path": str(mu)},
        "nu_source": {"kind": "file", "path": str(nu)},
        "tree_source": KRUSKAL,
    }


# -- sources and options a scenario does not take ------------------------------------


@pytest.mark.parametrize(
    "name, source, flag",
    [
        ("dumbbell", {"graph_file": "f.csv"}, "--graph"),
        ("recover-topology", {"lattice1d": (8, 1.0)}, "--lattice1d"),
        ("map-benchmark", {"mu_uniform": True}, "--mu-uniform"),
        ("dumbbell", {"origin": 0.3}, "--origin without a lattice"),
        ("solve", {"complete": 5, "origin": 0.3}, "--origin without a lattice"),
        ("dumbbell", {"threshold": 0.5}, "--threshold"),
        ("benchmark-1d", {"threshold": 0.5}, "--threshold"),
    ],
)
def test_ignored_source_is_rejected(tmp_path, name, source, flag):
    with pytest.raises(InputFormatError, match=f"'{name}' does not accept {flag}$"):
        run_scenario(ScenarioSpec(scenario=name, out=str(tmp_path / "a.json"), **source))
    assert not (tmp_path / "a.json").exists()


def test_map_benchmark_default_lattice_takes_origin(tmp_path):
    run = run_scenario(
        ScenarioSpec("map-benchmark", origin=0.3, max_iterations=1, out=str(tmp_path / "a.json"))
    )
    assert run.document["config"]["graph_source"]["origin"] == 0.3
    assert run.document["graph"]["geometry"]["origin"] == 0.3
