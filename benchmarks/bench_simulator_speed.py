"""Simulation-substrate microbenchmarks (paper §III-B / §III-D text claims).

* schematic simulation cost per sizing (paper: 25 ms for the op-amp,
  2.4 s for the Spectre OTA),
* PEX+PVT simulation cost and its ratio to schematic (paper: 91 s,
  ~38x slower),
* action-space cardinalities (paper: 1e14 op-amp, ~1e11 OTA).

These use the pytest-benchmark timer properly (many rounds) since a single
evaluation is fast.
"""

import time

import numpy as np
import pytest

from repro.analysis import ascii_table
from repro.pex import PexSimulator
from repro.topologies import (
    NegGmOta,
    SchematicSimulator,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)

from benchmarks._harness import publish, publish_json


def _walker(simulator, seed=0):
    """Step a random one-increment walk (the RL access pattern, exercising
    the warm-start path rather than repeated identical solves)."""
    rng = np.random.default_rng(seed)
    space = simulator.parameter_space
    state = {"x": space.center.copy()}

    def step():
        state["x"] = space.clip(state["x"] + rng.integers(-1, 2, len(space)))
        return simulator.evaluate(state["x"])

    return step


@pytest.mark.parametrize("topo_cls", [TransimpedanceAmplifier, TwoStageOpAmp,
                                      NegGmOta])
def test_schematic_simulation_speed(benchmark, topo_cls):
    simulator = SchematicSimulator(topo_cls(), cache=False)
    result = benchmark.pedantic(_walker(simulator), iterations=20, rounds=3,
                                warmup_rounds=1)
    assert result  # returned a spec dict


def test_pex_simulation_speed_and_ratio(benchmark):
    import time

    schematic = SchematicSimulator(NegGmOta(), cache=False)
    pex = PexSimulator(NegGmOta, cache=False)

    sch_step = _walker(schematic, seed=1)
    pex_step = _walker(pex, seed=1)
    sch_step()  # warm the DC start
    pex_step()

    n = 10
    t0 = time.perf_counter()
    for _ in range(n):
        sch_step()
    t_sch = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        pex_step()
    t_pex = (time.perf_counter() - t0) / n

    table = ascii_table(
        ["environment", "per-sim cost", "relative"],
        [["schematic (ngm OTA)", f"{1e3 * t_sch:.2f} ms", "1.0x"],
         ["PEX + 3 PVT corners", f"{1e3 * t_pex:.2f} ms",
          f"{t_pex / t_sch:.1f}x"]],
        title="Simulation cost (paper: 2.4 s schematic vs 91 s PEX, ~38x)")
    publish("simulator_speed.txt", table)
    benchmark.pedantic(pex_step, iterations=5, rounds=2)
    assert t_pex > t_sch


def test_batch_throughput(benchmark):
    """Batched design evaluation vs sequential evaluate calls.

    The vectorised engine solves a stacked (B, n, n) Newton system with
    per-design convergence masking and measures the whole batch with one
    stacked AC sweep; this bench publishes evaluations/second at batch
    sizes 1/16/64 against the same 64 designs evaluated sequentially —
    the acceptance metric of the vectorised-MNA rework.
    """
    import time

    simulator = SchematicSimulator(TwoStageOpAmp(), cache=False)
    rng = np.random.default_rng(7)
    space = simulator.parameter_space
    designs = np.stack([space.sample(rng) for _ in range(64)])
    simulator.evaluate_batch(designs[:8])  # warm code paths + batch seed

    def measure_batch(size, repeats=3):
        subset = designs[:size]
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulator.evaluate_batch(subset)
            best = min(best, time.perf_counter() - t0)
        return best

    t_batch = {size: measure_batch(size) for size in (1, 16, 64)}
    best_seq = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for row in designs:
            simulator.evaluate(row)
        best_seq = min(best_seq, time.perf_counter() - t0)

    speedup = best_seq / t_batch[64]
    rows = [["sequential x64", f"{1e3 * best_seq:.1f} ms",
             f"{64 / best_seq:,.0f}", "1.0x"]]
    for size in (1, 16, 64):
        rows.append([f"evaluate_batch({size})",
                     f"{1e3 * t_batch[size]:.1f} ms",
                     f"{size / t_batch[size]:,.0f}",
                     f"{(best_seq / 64) / (t_batch[size] / size):.1f}x"])
    table = ascii_table(
        ["mode", "wall time", "evals/sec", "per-eval speedup"],
        rows,
        title=(f"Batched vs sequential evaluation (two-stage op-amp); "
               f"batch(64) is {speedup:.1f}x faster than 64 sequential "
               "calls"))
    publish("batch_throughput.txt", table)
    publish_json("batch_throughput", {
        "topology": "two_stage_opamp",
        "single_eval_ms": 1e3 * best_seq / 64,
        "sequential_evals_per_s": 64 / best_seq,
        "batch_evals_per_s": {str(size): size / t_batch[size]
                              for size in (1, 16, 64)},
        "batch64_speedup_vs_sequential": speedup,
    })
    benchmark.pedantic(lambda: simulator.evaluate_batch(designs),
                       iterations=1, rounds=3)
    assert len(simulator.evaluate_batch(designs)) == 64


def corner_stack_speed(n_designs: int = 16, topo_cls=TransimpedanceAmplifier,
                       repeats: int = 3) -> dict:
    """Time the corner-stacked PEX sweep against the per-corner loop.

    Returns the measured dict (also usable by the CI smoke with
    ``n_designs=1``).
    """
    pex = PexSimulator(topo_cls, cache=False)
    rng = np.random.default_rng(7)
    designs = np.stack([pex.parameter_space.sample(rng)
                        for _ in range(n_designs)])
    pex.evaluate_batch(designs[:min(2, n_designs)])  # warm plans + seeds

    best_stack = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        pex.evaluate_batch(designs)
        best_stack = min(best_stack, time.perf_counter() - t0)
    best_loop = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for row in designs:
            pex.evaluate_percorner(row)
        best_loop = min(best_loop, time.perf_counter() - t0)
    return {
        "topology": topo_cls.name,
        "n_designs": n_designs,
        "n_corners": len(pex.corners),
        "stacked_ms": 1e3 * best_stack,
        "percorner_loop_ms": 1e3 * best_loop,
        "speedup": best_loop / best_stack,
    }


def test_corner_stack_speed():
    """Corner-stacked PEX sweep vs the per-corner loop (acceptance: >= 3x
    on the full-corner sweep)."""
    results = [corner_stack_speed(16, cls)
               for cls in (TransimpedanceAmplifier, NegGmOta)]
    rows = [[r["topology"], f"{r['percorner_loop_ms']:.1f} ms",
             f"{r['stacked_ms']:.1f} ms", f"{r['speedup']:.1f}x"]
            for r in results]
    table = ascii_table(
        ["topology (16 designs x 3 corners)", "per-corner loop",
         "corner-stacked", "speedup"],
        rows, title="PEX full-corner sweep: stacked vs per-corner loop")
    publish("corner_stack.txt", table)
    publish_json("corner_sweep", {r["topology"]: r for r in results})
    assert all(r["speedup"] > 1.0 for r in results)


def test_action_space_cardinalities(benchmark):
    rows = [
        ["TIA", f"{TransimpedanceAmplifier().parameter_space.cardinality:.3e}",
         "~1e6 (paper: unstated)"],
        ["two-stage op-amp",
         f"{TwoStageOpAmp().parameter_space.cardinality:.3e}",
         "1e14 (paper: 1e14)"],
        ["negative-gm OTA", f"{NegGmOta().parameter_space.cardinality:.3e}",
         "~1e12 (paper: ~1e11)"],
    ]
    table = ascii_table(["topology", "cardinality", "expected"], rows,
                        title="Sizing-grid cardinalities")
    publish("cardinalities.txt", table)
    benchmark(lambda: TwoStageOpAmp().parameter_space.cardinality)
    assert TwoStageOpAmp().parameter_space.cardinality == 10 ** 14
