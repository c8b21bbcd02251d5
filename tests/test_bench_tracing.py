"""The benchmark's traced mode still sees every layer it reports.

``bench/spans.py`` traces a run by replacing module attributes of
``graph_ot.scenarios``, ``graph_ot.newton``, ``graph_ot.system`` and
``graph_ot.metrics`` for its length.  A refactor that binds one of those
names earlier, or stops calling it through the module, silently zeroes a
per-layer metric; this test runs two scenarios under a full tracer and
requires a span of each layer from each run, and per-layer metrics that
count what each run did: one factorization for each step that the
artifact records as having refreshed the Jacobian.
"""

import sys
from pathlib import Path

from graph_ot import ScenarioSpec, run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

LAYERS = {
    "graph.build",
    "tree.build",
    "newton.solve",
    "newton.assembly",
    "newton.lu_factor",
    "newton.lu_solve",
    "system.residual",
    "metrics",
    "scenarios.artifact_write",
}


def test_traced_run_records_every_layer(tmp_path):
    tracer = spans.Tracer(None)
    tracer.install()
    starts = []
    refreshes = []
    try:
        for name in ("tree-compare", "dumbbell"):
            starts.append(len(tracer.spans))
            run = run_scenario(ScenarioSpec(name, steps=4, out=str(tmp_path / f"{name}.json")))
            # tree-compare records each tree's solve, the first in "solver"
            solves = run.document["extras"].get("per_tree", [run.document["solver"]])
            refreshes.append(sum(sum(solve["jacobian_refreshed"]) for solve in solves))
    finally:
        tracer.uninstall()
    for first, end, refreshed in zip(starts, starts[1:] + [len(tracer.spans)], refreshes):
        seen = {span.name for span in tracer.spans[first:end]}
        assert LAYERS <= seen, sorted(LAYERS - seen)
        metrics = spans.layer_metrics(tracer.spans[:end], first)
        assert metrics["tree.expansion_nnz"] > 0
        # one factorization per Newton matrix: the tree's factor of its
        # incidence is tree.build's, not newton.lu_factor's
        assert metrics["newton.lu_factor_calls"] == metrics["newton.assembly_calls"] > 0
        assert metrics["newton.lu_factor_calls"] == refreshed
