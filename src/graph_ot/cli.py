"""Command-line entry point.

Usage: graph-ot <scenario> [options].  Each run writes one JSON artifact
and prints a one-line summary; failures print a machine-readable error
object to stderr.  Exit codes: 0 converged with clean invariant monitors,
2 bad input, 3 solver failure, 4 invariant violation.  The GRAPH_OT_LOG
environment variable sets the logging level (e.g. DEBUG, INFO).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from dataclasses import Field, fields

from .errors import GraphOTError
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


class _Values(argparse.Action):
    """Stores an option's values as a tuple, each converted by its type.

    ``repeat`` appends each use's values to those already stored.
    """

    def __init__(self, option_strings, dest, types, repeat=False, **kwargs):
        super().__init__(option_strings, dest, nargs=len(types), **kwargs)
        self.types, self.repeat = types, repeat

    def __call__(self, parser, namespace, values, option_string=None):
        converted = []
        for convert, value in zip(self.types, values):
            try:
                converted.append(convert(value))
            except ValueError:
                raise argparse.ArgumentError(
                    self, f"invalid {convert.__name__} value: {value!r}"
                ) from None
        stored = getattr(namespace, self.dest) if self.repeat else ()
        setattr(namespace, self.dest, (*stored, *converted))


# the help group of each run of ScenarioSpec fields, keyed by its first field
_GROUPS = {
    "graph_file": "graph source (at most one)",
    "mu_file": "endpoint densities (at most one source each)",
    "steps": "solver",
}


def _add_option(group, spec_field: Field) -> None:
    """Add the option a ScenarioSpec field's metadata states (see _option)."""
    meta = spec_field.metadata
    kind = meta["type"]
    options = {"dest": spec_field.name, "default": spec_field.default, "help": meta["help"]}
    if kind is bool:
        tri_state = spec_field.default is None
        options["action"] = argparse.BooleanOptionalAction if tri_state else "store_true"
    elif isinstance(kind, tuple):
        repeat = kind[-1] is Ellipsis
        types = kind[:-1] if repeat else kind
        options.update(action=_Values, types=types, repeat=repeat, metavar=meta["metavar"])
    else:
        options.update(type=kind, metavar=meta["metavar"], choices=meta["choices"])
    group.add_argument(meta["flag"], **options)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per scenario, with one option per ScenarioSpec field."""
    parser = _Parser(
        prog="graph-ot",
        description="Wasserstein geodesics on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="scenario")
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        for spec_field in fields(ScenarioSpec):
            if spec_field.name in _GROUPS:
                group = p.add_argument_group(_GROUPS[spec_field.name])
            if spec_field.metadata:
                _add_option(group, spec_field)
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(**vars(args))


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


def _fix_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at its default of 128 KiB.

    glibc raises the threshold after the first large free, so later factors
    and Jacobians come from the heap and their freed space stays resident.
    Fixed, every large block is returned to the system when freed.  Without
    glibc this does nothing.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


def main(argv: list[str] | None = None) -> int:
    _fix_mmap_threshold()
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
