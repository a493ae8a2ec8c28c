"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads deploy_opamp,mesh_walk --seeds 1-10
    python3 perfbench/sweep.py --workloads all --seeds 1-10 --trace-seed 1 \
        --out perfbench/BASELINE.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to a third of the metric's bound from
``BENCHMARK.json``.  ``--out`` merges the runs, the summary and, with
``--trace-seed``, one traced per-layer table per workload into a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if spec["command"][0] == "python3"
           else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["process_s"] = elapsed
    record["meta"] = json.loads(lines[0])["meta"]
    if trace:
        record["trace"] = next(json.loads(line) for line in lines
                               if line.startswith('{"missing_boundaries"'))
    return record


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    names = list(why) if args.workloads == "all" else \
        args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    out = json.loads(args.out.read_text()) if args.out and \
        args.out.exists() else {}
    for name in names:
        runs = []
        for seed in seeds:
            record = run_once(spec, name, seed, 0)
            runs.append({"seed": seed, "process_s": record["process_s"],
                         **{k: v["value"]
                            for k, v in record["metrics"].items()}})
            print(f"{name} seed {seed}: {record['process_s']:.1f} s",
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            summary[metric] = summarise([r[metric] for r in runs])
            s = summary[metric]
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:18s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f} (bound/3 {bound / 3:.4f}){flag}")
        entry = {"why": why[name], "seeds": seeds, "runs": runs,
                 "summary": summary, "meta": record["meta"]}
        if args.trace_seed is not None:
            traced = run_once(spec, name, args.trace_seed, 1)
            entry["per_layer"] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"]
                            for k, v in traced["metrics"].items()},
                "spans": traced["trace"]["spans"],
                "traced_wall_s": traced["trace"]["traced_wall_s"],
                "self_sum_s": traced["trace"]["self_sum_s"],
            }
        out[name] = {**out.get(name, {}), **entry}
        if args.out:
            args.out.write_text(json.dumps(out, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
