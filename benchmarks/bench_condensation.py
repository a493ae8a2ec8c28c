"""Condensed mesh interior on power-grid meshes.

Times :mod:`repro.sim.condense` on the
:class:`~repro.topologies.power_grid.PowerGridOta` scenario family, on the
leg ``auto`` picks for each mesh (the sparse leg, which condenses the
mesh out of the measured AC sweep and of the gmin-0 DC Newton steps).
Four rows per mesh:

* ``reduce`` — the one-time AC reduction: the port admittances over the
  topology's AC grid, one ``splu`` of the interior per frequency point;
* ``dc factor`` — the one-time DC factor: ``splu`` of the interior block
  plus the DC port correction;
* ``condensed`` — the median warm evaluation (restamp, warm-started DC
  Newton, measurement) along a one-step walk from the grid centre, with
  DC Newton and the AC sweep condensed onto the mesh boundary;
* ``full eval`` — the median of the same walk with the condensation
  switched off: every Newton step and every AC frequency point factors
  the whole system with ``splu``.

Run directly (one BLAS thread, as perfbench runs, keeps timings
comparable)::

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_condensation.py

Default scale runs the 30x30 (917 unknowns), 45x45 (2,042), 71x71
(5,058) and 122x122 (14,901) meshes; ``AUTOCKT_FULL=1`` adds 223x223
(49,746).  Results go to
``benchmarks/results/condensation.txt`` (narrative) and the
``condensation`` section of ``BENCH_simulator.json`` (record).
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                str(pathlib.Path(__file__).resolve().parent)]

import numpy as np

from _harness import FULL_SCALE, publish, publish_json
from repro.sim import MnaSystem
from repro.topologies import PowerGridOta


def _walk(space, n: int, rng) -> list[dict]:
    """Sizings of an ``n``-point walk from the grid centre, each one step
    along one random axis from the last."""
    point = np.asarray(space.center)
    walk = []
    for _ in range(n):
        step = np.zeros_like(point)
        step[rng.integers(len(space))] = rng.choice((-1, 1))
        point = space.clip(point + step)
        walk.append(space.values(point))
    return walk


def _warm_evals(topo, walk: list[dict]) -> list[float]:
    """Seconds per warm evaluation along ``walk``; its first point seeds
    the trajectory and is not timed."""
    topo.reset_warm_start()
    topo.simulate(walk[0])
    seconds = []
    for values in walk[1:]:
        t0 = time.perf_counter()
        topo.simulate(values)
        seconds.append(time.perf_counter() - t0)
    return seconds


def _bench(grid_n: int, n_condensed: int, n_full: int, rng) -> dict:
    """One mesh's record: one-time costs, then warm evaluations with and
    without the condensation."""
    topo = PowerGridOta(grid_n=grid_n, n_amps=4)
    walk = _walk(topo.parameter_space, n_condensed + 1, rng)
    system = topo._plan.restamp(walk[0])
    t0 = time.perf_counter()
    system.condensation.port_correction(topo.AC_FREQUENCIES)
    t_reduce = time.perf_counter() - t0
    t0 = time.perf_counter()
    system.condensation.dc_factor()
    t_dc_factor = time.perf_counter() - t0

    condensed = _warm_evals(topo, walk)
    condensation = MnaSystem.condensation
    MnaSystem.condensation = property(lambda self: None)
    try:
        full = _warm_evals(topo, walk[:n_full + 1])
    finally:
        MnaSystem.condensation = condensation
    t_condensed, t_full = np.median(condensed), np.median(full)
    return {"scenario": f"power_grid_{grid_n}x{grid_n}",
            "unknowns": system.size, "engine": system.engine,
            "reduce_ms": t_reduce * 1e3,
            "dc_factor_ms": t_dc_factor * 1e3,
            "condensed_eval_ms": t_condensed * 1e3,
            "condensed_evals": len(condensed),
            "full_eval_ms": t_full * 1e3,
            "full_evals": len(full),
            "eval_speedup": t_full / t_condensed}


def main() -> None:
    rng = np.random.default_rng(0)
    #: (grid_n, condensed evals, full evals): the full path re-factors
    #: the whole mesh per Newton step and per frequency point, so it gets
    #: few evaluations.
    configs = [(30, 20, 5), (45, 20, 4), (71, 20, 3), (122, 20, 2)]
    if FULL_SCALE:
        configs.append((223, 10, 1))
    record = {"configs": [_bench(*config, rng) for config in configs]}

    lines = ["condensed mesh interior — power-grid meshes (median warm "
             "one-step evaluations)",
             f"{'mesh':<10} {'unknowns':>8} {'reduce':>10} "
             f"{'dc factor':>10} {'condensed':>10} {'full eval':>10} "
             f"{'speedup':>8}"]
    for c in record["configs"]:
        lines.append(
            f"{c['scenario'].removeprefix('power_grid_'):<10} "
            f"{c['unknowns']:>8d} "
            f"{c['reduce_ms']:>8.1f}ms {c['dc_factor_ms']:>8.1f}ms "
            f"{c['condensed_eval_ms']:>8.1f}ms "
            f"{c['full_eval_ms']:>8.1f}ms {c['eval_speedup']:>7.2f}x")
    publish("condensation.txt", "\n".join(lines))
    publish_json("condensation", record)


if __name__ == "__main__":
    main()
