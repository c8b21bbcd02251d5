"""Benchmark of the graph_ot Newton solver, run from the root of a checkout.

    python3 bench/run.py --workload map1d-n256 --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process through
``graph_ot.scenarios.run_scenario``: builds its inputs from the seed, then
runs whole passes over the workload's operations until ``--seconds`` of
passes have been measured, timing the set-up several times before each
pass.  Every artifact is checked by ``check.py`` after its pass.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.

``--workload all`` runs each workload in a fresh process, one after the
other, and prints a table of all of them.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process and one BLAS thread (SuperLU is serial in any case); set
# before numpy loads, which reads these once
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _fix_mmap_threshold() -> None:
    """Keep glibc from raising its mmap threshold as large blocks are freed.

    By default the threshold grows after the first large free, so later
    factors and Jacobians come from the heap and their freed space stays
    resident: on grid2d-16-damped the resident size then grew by ~12 MB a
    Newton iteration and its peak varied from 200 to 265 MB between
    identical runs.  With the threshold fixed at glibc's default of 128 KiB
    every large block is returned when freed, and peak_rss_mb follows the
    memory the solver holds (about 153 MB there, within 2% run to run).
    Without glibc this is a no-op.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


_fix_mmap_threshold()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# set-up takes milliseconds, and the host's speed drifts over seconds, so
# the set-up is repeated this many times before every pass and the median
# is taken over the whole run
SETUP_REPEATS = 7

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print()
    for name, row in rows.items():
        print(f"{name}: attempted {row['attempted']}, failed {row['failed']}, correct {row['correct']}")
        for metric, m in row["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{k}": m for w, r in rows.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def run_passes(ops, specs, tracer, go, seconds: float):
    """Whole passes over ``ops`` until ``seconds`` of pass time are measured.

    Returns the passes as (first span, end span, wall seconds), the set-up
    times, and the counts of attempted and failed operations and of failed
    checks.
    """
    passes, setup_times = [], []
    attempted = failed = check_failures = 0
    measured = 0.0
    while not passes or measured < seconds:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            for op in ops:
                workloads.build_problems(op, go)
            setup_times.append(time.perf_counter() - start)
        gc.collect()  # every pass starts from the same heap
        first = len(tracer.spans)
        outcomes = []
        whole = tracer.open("pass")
        for op, spec in zip(ops, specs):
            span = tracer.open("scenarios.run", scenario=op.scenario)
            try:
                outcomes.append(go.run_scenario(spec).exit_code)
            except Exception as exc:  # any fault is one failed operation
                outcomes.append(f"{type(exc).__name__}: {exc}")
            finally:
                tracer.close(span)
        tracer.close(whole)
        measured += whole.seconds
        passes.append((first, len(tracer.spans), whole.seconds))
        print(f"pass {len(passes)}: {whole.seconds:.3f} s")

        for op, spec, outcome in zip(ops, specs, outcomes):
            attempted += 1
            if outcome != 0:
                failed += 1
                if len(passes) == 1:
                    fault = outcome if isinstance(outcome, str) else f"exit code {outcome}"
                    print(f"FAILED {op.name}: {fault}")
                continue
            problems = op.check(go.read_artifact(spec.out))
            if problems:
                failed += 1
                check_failures += 1
                print(f"CHECK FAILED {op.name}: {'; '.join(problems)}")
    return passes, setup_times, attempted, failed, check_failures


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import graph_ot as go

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, out / "inputs")
    specs = [go.ScenarioSpec(**op.spec_args, out=str(out / f"{op.name}.json")) for op in ops]

    # fill lazy imports and first-call caches outside the timed passes
    go.run_scenario(go.ScenarioSpec("tree-compare", steps=4, out=str(out / "warm-up.json")))

    tracer = spans.Tracer(None if args.trace else {"newton.solve"})
    tracer.install()
    try:
        passes, setup_times, attempted, failed, check_failures = run_passes(
            ops, specs, tracer, go, args.seconds
        )
    finally:
        tracer.uninstall()

    if args.trace:
        tracer.dump(out / f"trace-seed{args.seed}.json")
        per_pass = [spans.layer_metrics(tracer.spans[:end], first) for first, end, _ in passes]
        metrics = {
            name: {"value": statistics.median(p[name] for p in per_pass), "unit": spans.unit(name)}
            for name in per_pass[0]
        }
    else:
        solve = [
            sum(s.seconds for s in tracer.spans[first:end] if s.name == "newton.solve")
            for first, end, _ in passes
        ]
        values = {
            "wall_s": statistics.median(w for _, _, w in passes),
            "setup_s": statistics.median(setup_times),
            "solve_s": statistics.median(solve),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}

    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes of {len(ops)} operations")
    result = {"correct": check_failures == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "graph_ot").is_dir():
        print(f"no graph_ot sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
