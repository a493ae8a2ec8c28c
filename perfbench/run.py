"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload deploy_opamp --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run sets the workload up several times (the median
is ``setup_s``), runs one timed pass and prints every end-to-end metric.
With ``--trace 1`` it runs the pass once untraced and once with spans
around every layer boundary, requires both to return identical outputs,
and prints the per-layer metrics.  Both modes compare a fixed probe set
with the stored reference rows.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when an output check fails and 2 when there is no program
to run.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.environment import (BLAS_THREADS, MissingProgram,  # noqa: E402
                                   check_imported_from, prepare_environment)

#: Set-ups per run; ``setup_s`` adds their median to the import time.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(result, factor: float, setup_s: float) -> dict:
    """The end-to-end metrics of one pass as ``name -> (value, unit)``.

    Task timings are scaled by the speed probe's ``factor``; ``wall_s`` is
    the sum of the task timings (the pass minus the probe's pauses).
    """
    task_ms = sorted(1e3 * factor * t for t in result.task_s)
    wall_s = sum(task_ms) / 1e3
    p50, p90 = (statistics.quantiles(task_ms, n=10, method="inclusive")[i]
                for i in (4, 8)) if len(task_ms) > 1 else (task_ms[0],) * 2
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "sims_per_s": (result.sims / wall_s, "1/s"),
        "env_steps_per_s": (result.steps / wall_s, "1/s"),
        "train_env_steps": (result.train_env_steps, "count"),
        "target_ms_p50": (p50, "ms"),
        "target_ms_p90": (p90, "ms"),
        "reached_frac": (result.reached_frac, "ratio"),
        "sims_to_success": (result.sims_to_success, "count"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def timed_setup(workload_cls, seed: int, seconds: float):
    started = time.perf_counter()
    workload = workload_cls(seed, seconds)
    workload.setup()
    return workload, time.perf_counter() - started


def timed_run(workload, pace=lambda: None):
    started = time.perf_counter()
    result = workload.run(pace)
    return result, time.perf_counter() - started


def traced_metrics(workload_cls, args, untraced, untraced_wall_s):
    """Set up afresh, run the pass traced and return its per-layer metrics,
    the traced workload and any problems."""
    from perfbench import tracing, workloads

    traced, _ = timed_setup(workload_cls, args.seed, args.seconds)
    with tracing.Tracer() as tracer:
        result, wall_s = timed_run(traced)
    problems = []
    if workloads.digest(result.outputs) != workloads.digest(
            untraced.outputs):
        problems.append("traced pass returned other outputs than the "
                        "untraced pass")
    metrics = tracing.layer_metrics(tracer, wall_s, untraced_wall_s,
                                    result.sims, result.cached)
    self_sum = sum(tracer.self_s.values())
    unattributed = metrics["unattributed_s"][0]
    print(json.dumps({"spans": tracer.table(),
                      "span_count": len(tracer.spans),
                      "missing_boundaries": tracer.missing,
                      "traced_wall_s": wall_s, "self_sum_s": self_sum,
                      "unattributed_s": unattributed}, sort_keys=True))
    if not math.isclose(self_sum + unattributed, wall_s, rel_tol=1e-9):
        problems.append("span self times do not add up to the wall")
    return metrics, traced, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cleared = prepare_environment(ROOT)
        from perfbench import harness, speed, workloads
        check_imported_from(ROOT)
    except (MissingProgram, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_T0
    workload_cls = workloads.WORKLOADS[args.workload]
    meta = harness.run_metadata(args.workload, args.seed, cleared,
                                BLAS_THREADS)
    print(json.dumps({"meta": meta}, sort_keys=True), flush=True)

    probe = speed.SpeedProbe()
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        workload = None   # one live build at a time: the mesh holds ~1 GB
        gc.collect()
        probe.sample()
        workload, seconds = timed_setup(workload_cls, args.seed, args.seconds)
        setups.append(seconds)
    setup_s = import_s + statistics.median(setups)

    result, wall_s = timed_run(workload, probe) if not args.trace else \
        timed_run(workload)
    if args.trace:
        workload = None
        gc.collect()
        metrics, workload, problems = traced_metrics(workload_cls, args,
                                                     result, wall_s)
    else:
        factor = probe.factor()
        metrics = end_to_end(result, factor, setup_s * factor)
        problems = []
        print(json.dumps({"raw_wall_s": wall_s,
                          "raw_task_sum_s": sum(result.task_s),
                          "raw_setup_s": setup_s, "import_s": import_s,
                          "setup_runs_s": setups, "speed_factor": factor,
                          "speed_samples": len(probe.samples),
                          "tasks": result.tasks}, sort_keys=True))
    problems += workload.check()

    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
        print(f"{args.workload:18s} {name:36s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"perfbench: MISMATCH: {problem}", file=sys.stderr)
    record = {
        "correct": not problems,
        "attempted": result.tasks,
        "failed": 0,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(record), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
