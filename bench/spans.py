"""Spans around the calls into each layer of graph_ot, recorded from outside.

``Tracer.install`` replaces, for the length of a run, the names through
which ``run_scenario`` and ``newton_solve`` reach each layer: module
attributes such as ``graph_ot.newton.assemble_residual``, and a stand-in for
``scipy.sparse.linalg`` inside ``graph_ot.newton`` so that ``splu``, the
factor's ``solve`` and ``onenormest`` are seen without touching scipy
itself.  Each call becomes a span (name, start, end, parent, attributes)
kept in memory; ``layer_metrics`` turns the spans of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

SCENARIO_NAMES = (
    "map-benchmark",
    "benchmark-2d",
    "consensus",
    "dumbbell",
    "recover-topology",
    "check-cfl",
    "tree-compare",
    "benchmark-1d",
    "solve",
)

GRAPH_BUILDERS = (
    "lattice_1d_periodic",
    "lattice_2d_periodic",
    "dumbbell",
    "complete_graph",
    "read_edge_list",
    "build_from_edge_list",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: int, start: int):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class _Forward:
    """Stands in for an object, replacing some attributes and forwarding the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans around wrapped calls; ``layers`` picks what to wrap.

    ``layers=None`` wraps every layer.  The untraced run wraps only
    ``newton.solve``, one span per solve, to measure ``solve_s``.
    """

    def __init__(self, layers: set[str] | None = None):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span around each call; ``attrs(result, args)`` runs after."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs.update(attrs(result, args))
            return result

        return traced

    def open(self, name: str, **attrs) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter_ns())
        span.attrs.update(attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def _patch(self, owner, attr: str, name: str, attrs=None) -> None:
        if self.layers is not None and name not in self.layers:
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def install(self) -> None:
        import graph_ot.metrics
        import graph_ot.newton
        import graph_ot.scenarios
        import graph_ot.system

        scenarios, newton = graph_ot.scenarios, graph_ot.newton
        self._patch(
            scenarios, "newton_solve", "newton.solve",
            lambda report, _: {"iterations": report.iterations},
        )
        self._patch(
            newton, "assemble_jacobian_analytic", "newton.assembly",
            lambda matrix, _: {"nnz": int(matrix.nnz)},
        )
        self._patch(newton, "assemble_residual", "system.residual")
        for fn in ("w2_action", "w2_initial"):
            self._patch(graph_ot.metrics, fn, "metrics")
        self._patch(scenarios, "hamiltonian_drift", "metrics")
        self._patch(
            scenarios, "write_artifact", "scenarios.artifact_write",
            lambda _, args: {"bytes": Path(args[1]).stat().st_size},
        )
        for fn in GRAPH_BUILDERS:
            self._patch(scenarios, fn, "graph.build")
        tree_nnz = lambda tree, _: {"nnz": int(tree.expansion.nnz)}  # noqa: E731
        self._patch(graph_ot.system, "kruskal", "tree.build", tree_nnz)
        self._patch(scenarios, "SpanningTree", "tree.build", tree_nnz)

        if self.layers is None:
            spla = newton.spla

            def splu(*args, **kwargs):
                lu = spla.splu(*args, **kwargs)
                return _Forward(lu, solve=self.wrap("newton.lu_solve", lu.solve))

            self._undo.append((newton, "spla", spla))
            newton.spla = _Forward(
                spla,
                # nnz is the fill of L + U, read without forming either
                splu=self.wrap("newton.lu_factor", splu, lambda lu, _: {"nnz": int(lu.nnz)}),
                onenormest=self.wrap("newton.rcond", spla.onenormest),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON list; times in ns from the first span."""
        t0 = self.spans[0].start if self.spans else 0
        rows = [
            {"name": s.name, "start_ns": s.start - t0, "end_ns": s.end - t0, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metrics(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer metrics of ``spans[first:]``, the spans of one pass.

    Times are self times: a span's duration less that of its children.
    ``newton.rcond_s`` is the exception: it keeps the factor solves made by
    ``onenormest``, which ``newton.lu_solve_*`` leaves out.  A residual
    evaluated right after another one inside the same solve is a line-search
    trial beyond the first of its step.
    """
    own = spans[first:]
    child_time = {}
    previous_child = {}
    trial = set()
    for k, span in enumerate(own, start=first):
        if span.parent >= first:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
            before = previous_child.get(span.parent)
            if span.name == "system.residual" and before is not None and spans[before].name == "system.residual":
                trial.add(k)
            previous_child[span.parent] = k

    out = {
        "graph.build_s": 0.0,
        "tree.build_s": 0.0,
        "tree.expansion_nnz": 0,
        "newton.iterations": 0,
        "newton.self_s": 0.0,
        "system.residual_calls": 0,
        "system.residual_s": 0.0,
        "newton.assembly_calls": 0,
        "newton.assembly_s": 0.0,
        "newton.jacobian_nnz": 0,
        "newton.lu_factor_calls": 0,
        "newton.lu_factor_s": 0.0,
        "newton.lu_fill_nnz": 0,
        "newton.lu_solve_calls": 0,
        "newton.lu_solve_s": 0.0,
        "newton.line_search_trials": 0,
        "newton.line_search_s": 0.0,
        "newton.rcond_s": 0.0,
        "metrics.calls": 0,
        "metrics.s": 0.0,
        "scenarios.artifact_write_s": 0.0,
        "scenarios.artifact_bytes": 0,
        **{f"scenarios.{name}.wall_s": 0.0 for name in SCENARIO_NAMES},
        "traced.wall_s": 0.0,
    }
    for k, span in enumerate(own, start=first):
        self_s = span.seconds - child_time.get(k, 0.0)
        name = span.name
        if name == "graph.build":
            out["graph.build_s"] += self_s
        elif name == "tree.build":
            out["tree.build_s"] += self_s
            out["tree.expansion_nnz"] = max(out["tree.expansion_nnz"], span.attrs.get("nnz", 0))
        elif name == "newton.solve":
            out["newton.iterations"] += span.attrs.get("iterations", 0)
            out["newton.self_s"] += self_s
        elif name == "system.residual":
            out["system.residual_calls"] += 1
            out["system.residual_s"] += self_s
            if k in trial:
                out["newton.line_search_trials"] += 1
                out["newton.line_search_s"] += self_s
        elif name == "newton.assembly":
            out["newton.assembly_calls"] += 1
            out["newton.assembly_s"] += self_s
            out["newton.jacobian_nnz"] = max(out["newton.jacobian_nnz"], span.attrs.get("nnz", 0))
        elif name == "newton.lu_factor":
            out["newton.lu_factor_calls"] += 1
            out["newton.lu_factor_s"] += self_s
            out["newton.lu_fill_nnz"] = max(out["newton.lu_fill_nnz"], span.attrs.get("nnz", 0))
        elif name == "newton.lu_solve" and spans[span.parent].name != "newton.rcond":
            out["newton.lu_solve_calls"] += 1
            out["newton.lu_solve_s"] += self_s
        elif name == "newton.rcond":
            out["newton.rcond_s"] += span.seconds
        elif name == "metrics":
            out["metrics.calls"] += 1
            out["metrics.s"] += self_s
        elif name == "scenarios.artifact_write":
            out["scenarios.artifact_write_s"] += self_s
            out["scenarios.artifact_bytes"] += span.attrs.get("bytes", 0)
        elif name == "scenarios.run":
            out[f"scenarios.{span.attrs['scenario']}.wall_s"] += span.seconds
        elif name == "pass":
            out["traced.wall_s"] += span.seconds
    return out
