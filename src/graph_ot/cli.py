"""Command-line entry point.

Usage: graph-ot <scenario> [options].  Each run writes one JSON artifact
and prints a one-line summary; failures print a machine-readable error
object to stderr.  Exit codes: 0 converged with clean invariant monitors,
2 bad input, 3 solver failure, 4 invariant violation.  The GRAPH_OT_LOG
environment variable sets the logging level (e.g. DEBUG, INFO).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import GraphOTError
from .newton import SolveConfig
from .scenarios import (
    EXIT_INPUT_ERROR,
    SCENARIOS,
    ScenarioSpec,
    run_scenario,
)


def _emit_error(exc: BaseException, exit_code: int) -> None:
    payload = {
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code,
        }
    }
    print(json.dumps(payload), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Argparse with machine-readable usage errors (exit code 2)."""

    def error(self, message):
        _emit_error(ValueError(message), EXIT_INPUT_ERROR)
        raise SystemExit(EXIT_INPUT_ERROR)


class _LatticeSize(argparse.Action):
    """Stores a lattice's (point count, length) as (int, float)."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, (int(values[0]), float(values[1])))
        except ValueError:
            raise argparse.ArgumentError(
                self, f"expected an integer and a number, got {' '.join(values)}"
            ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graph-ot",
        description="Wasserstein geodesics on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="scenario")
    defaults = SolveConfig()
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        graph = p.add_argument_group("graph source (at most one)")
        graph.add_argument("--graph", metavar="FILE", help="edge list file (i,j,omega)")
        graph.add_argument(
            "--lattice1d",
            nargs=2,
            action=_LatticeSize,
            metavar=("N", "LEN"),
            help="periodic 1-d lattice: N points over length LEN",
        )
        graph.add_argument(
            "--lattice2d",
            nargs=2,
            action=_LatticeSize,
            metavar=("N", "SIDE"),
            help="periodic N x N lattice over side SIDE",
        )
        graph.add_argument(
            "--dumbbell",
            nargs=2,
            type=int,
            metavar=("L", "R"),
            help="two complete graphs joined by one bridge edge",
        )
        graph.add_argument("--complete", type=int, metavar="N", help="complete graph K_N")
        graph.add_argument(
            "--origin", type=float, metavar="X",
            help="lattice origin coordinate (lattice graphs only)",
        )

        dens = p.add_argument_group("endpoint densities (at most one source each)")
        dens.add_argument("--mu", metavar="FILE", help="initial density, one value per line")
        dens.add_argument("--nu", metavar="FILE", help="final density, one value per line")
        dens.add_argument(
            "--mu-gauss1d", nargs=3, type=float, metavar=("A", "B", "R"),
            help="initial density exp(-A(x-B)^2)+R, normalized",
        )
        dens.add_argument(
            "--nu-gauss1d", nargs=3, type=float, metavar=("A", "B", "R"),
            help="final density exp(-A(x-B)^2)+R, normalized",
        )
        dens.add_argument(
            "--mu-gauss2d", nargs=6, type=float,
            metavar=("A", "C", "B", "D", "W", "EPS"),
            help="initial density W*exp(-A(x-B)^2-C(y-D)^2)+EPS, normalized",
        )
        dens.add_argument(
            "--nu-gauss2d", nargs=6, type=float,
            metavar=("A", "C", "B", "D", "W", "EPS"),
            help="final density W*exp(-A(x-B)^2-C(y-D)^2)+EPS, normalized",
        )
        dens.add_argument("--mu-random", action="store_true", help="seeded random initial density")
        dens.add_argument("--nu-random", action="store_true", help="seeded random final density")
        dens.add_argument("--mu-uniform", action="store_true", help="uniform initial density")
        dens.add_argument("--nu-uniform", action="store_true", help="uniform final density")
        dens.add_argument(
            "--normalize",
            action="store_true",
            help="rescale file densities to unit mass instead of rejecting them",
        )

        solver = p.add_argument_group("solver")
        solver.add_argument("--steps", type=int, metavar="M", help="time intervals")
        solver.add_argument(
            "--theta", choices=("mean", "upwind"), help="mobility model (default per scenario)"
        )
        solver.add_argument(
            "--tol", type=float, default=defaults.tolerance, metavar="EPS",
            help=f"residual tolerance (default {defaults.tolerance:g})",
        )
        solver.add_argument(
            "--maxits", type=int, default=defaults.max_iterations, metavar="K",
            help=f"iteration cap (default {defaults.max_iterations})",
        )
        solver.add_argument(
            "--damping",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="error-oriented damping of the Newton steps (default per scenario)",
        )
        solver.add_argument(
            "--tree", action="append", metavar="FILE", default=[],
            help="spanning tree file (repeatable for tree-compare)",
        )
        solver.add_argument(
            "--threshold", type=float, metavar="T",
            help="velocity threshold for effective-edge detection (recover-topology only)",
        )
        solver.add_argument("--seed", type=int, default=0, help="seed for generated inputs")
        solver.add_argument("--out", metavar="FILE", help="artifact path (default graph_ot_<scenario>.json)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(
        scenario=args.scenario,
        graph_file=args.graph,
        lattice1d=args.lattice1d,
        lattice2d=args.lattice2d,
        dumbbell_sizes=tuple(args.dumbbell) if args.dumbbell else None,
        complete=args.complete,
        origin=args.origin,
        mu_file=args.mu,
        mu_gauss1d=tuple(args.mu_gauss1d) if args.mu_gauss1d else None,
        mu_gauss2d=tuple(args.mu_gauss2d) if args.mu_gauss2d else None,
        mu_random=args.mu_random,
        mu_uniform=args.mu_uniform,
        nu_file=args.nu,
        nu_gauss1d=tuple(args.nu_gauss1d) if args.nu_gauss1d else None,
        nu_gauss2d=tuple(args.nu_gauss2d) if args.nu_gauss2d else None,
        nu_random=args.nu_random,
        nu_uniform=args.nu_uniform,
        normalize=args.normalize,
        steps=args.steps,
        theta=args.theta,
        tolerance=args.tol,
        max_iterations=args.maxits,
        damping=args.damping,
        tree_files=tuple(args.tree),
        threshold=args.threshold,
        seed=args.seed,
        out=args.out,
    )


def _configure_logging() -> None:
    level_name = os.environ.get("GRAPH_OT_LOG", "").strip()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"graph-ot: ignoring GRAPH_OT_LOG={level_name!r}", file=sys.stderr)
        return
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    spec = _spec_from_args(args)
    try:
        run = run_scenario(spec)
    except (GraphOTError, OSError) as exc:
        _emit_error(exc, EXIT_INPUT_ERROR)
        return EXIT_INPUT_ERROR
    solver = run.document["solver"]
    metrics = run.document["metrics"]
    print(
        f"{spec.scenario}: {solver['status']} in {solver['iterations']} iterations, "
        f"w2={metrics['w2']:.6e}, artifact={run.out_path}"
    )
    return run.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
