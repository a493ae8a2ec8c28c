"""One-design benchmark smoke: a fast CI-grade sanity pass.

Times one schematic evaluation and a one-design PEX full-corner sweep
(stacked vs per-corner loop) and prints the two timings — enough signal
to catch a perf regression of 10x without paying for the full benchmark
suite.  It writes no file: the tracked
``benchmarks/results/BENCH_simulator.json`` stays as committed.

Run as ``python benchmarks/smoke.py`` (paths are set up below).
"""

import pathlib
import sys
import time

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                str(pathlib.Path(__file__).resolve().parent.parent)]


def main() -> int:
    import numpy as np

    from benchmarks.bench_simulator_speed import corner_stack_speed
    from repro.topologies import SchematicSimulator, TwoStageOpAmp

    simulator = SchematicSimulator(TwoStageOpAmp(), cache=False)
    center = simulator.parameter_space.center
    simulator.evaluate(center)  # warm the structure caches
    t0 = time.perf_counter()
    specs = simulator.evaluate(center + 1)
    single_ms = 1e3 * (time.perf_counter() - t0)
    assert np.isfinite(list(specs.values())).all()

    corner = corner_stack_speed(n_designs=1, repeats=2)
    print(f"single schematic eval: {single_ms:.2f} ms")
    print(f"1-design corner sweep: stacked {corner['stacked_ms']:.2f} ms, "
          f"loop {corner['percorner_loop_ms']:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
