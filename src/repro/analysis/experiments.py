"""Registry of the paper's experiments.

Maps every table and figure of the paper's evaluation to its description,
the paper's reported values, and the benchmark that regenerates it.  Used
by documentation tooling and sanity-checked by the test suite so the
bench inventory can't silently drift from the claimed coverage.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One table or figure of the paper."""

    key: str
    title: str
    paper_result: str
    bench: str
    modules: tuple[str, ...]


EXPERIMENTS: dict[str, Experiment] = {
    exp.key: exp for exp in [
        Experiment(
            "table1", "TIA sample efficiency & generalisation",
            "GA 376 sims; AutoCkt 15 sims; 487/500 targets reached",
            "benchmarks/bench_table1_tia.py",
            ("repro.topologies.tia", "repro.core.agent",
             "repro.baselines.genetic")),
        Experiment(
            "table2", "Two-stage op-amp sample efficiency & generalisation",
            "GA 1063; random agent 38/1000; AutoCkt 27 sims, 963/1000",
            "benchmarks/bench_table2_opamp.py",
            ("repro.topologies.two_stage", "repro.core",
             "repro.baselines")),
        Experiment(
            "table3", "Negative-gm OTA sample efficiency & generalisation",
            "GA 406; random agent 4/500; AutoCkt 10 sims, 500/500",
            "benchmarks/bench_table3_ngm.py",
            ("repro.topologies.ngm_ota", "repro.core", "repro.baselines")),
        Experiment(
            "table4", "PEX transfer learning",
            "BagNet 220 sims; AutoCkt schematic 10; AutoCkt PEX 23, "
            "40/40 LVS passed",
            "benchmarks/bench_table4_pex.py",
            ("repro.core.transfer", "repro.pex", "repro.baselines.bagnet")),
        Experiment(
            "fig5", "TIA training reward curve",
            "mean episode reward rises past 0",
            "benchmarks/bench_fig5_tia_reward.py",
            ("repro.rl.ppo", "repro.core.agent")),
        Experiment(
            "fig7", "Op-amp reward vs environment steps",
            "~1e4 steps to mean reward 0; 1.3 h wall clock on 8 cores",
            "benchmarks/bench_fig7_opamp_reward.py",
            ("repro.rl.ppo", "repro.core.agent")),
        Experiment(
            "fig8", "Reached/unreached op-amp target distribution",
            "unreached targets cluster at low bias-current bounds",
            "benchmarks/bench_fig8_opamp_coverage.py",
            ("repro.core.deploy",)),
        Experiment(
            "fig10", "Trajectory-length optimisation",
            "success saturates near H = 30 steps",
            "benchmarks/bench_fig10_trajectory_length.py",
            ("repro.core.deploy",)),
        Experiment(
            "fig11", "Negative-gm OTA training reward curve",
            "mean episode reward rises past 0",
            "benchmarks/bench_fig11_ngm_reward.py",
            ("repro.rl.ppo", "repro.core.agent")),
        Experiment(
            "fig12", "Negative-gm OTA reached-target distribution",
            "no unreached targets (500/500)",
            "benchmarks/bench_fig12_ngm_coverage.py",
            ("repro.core.deploy",)),
        Experiment(
            "fig14", "PEX trajectory + schematic-vs-PEX histogram",
            "convergence in ~11 steps; systematic % differences over 50 designs",
            "benchmarks/bench_fig14_pex_trajectory.py",
            ("repro.core.transfer", "repro.pex.extraction")),
        Experiment(
            "speed", "Simulation-cost claims",
            "25 ms schematic op-amp sim; PEX ~38x slower than schematic",
            "benchmarks/bench_simulator_speed.py",
            ("repro.sim", "repro.pex")),
        Experiment(
            "ablation_targets", "Sparse-subsample size sweep",
            "50 targets chosen by hyperparameter sweep",
            "benchmarks/bench_ablation_targets.py",
            ("repro.core.sampler",)),
        Experiment(
            "ablation_reward", "Reward-shaping comparison",
            "dense Eq. (1) shaping (implied by design)",
            "benchmarks/bench_ablation_reward.py",
            ("repro.core.reward",)),
        Experiment(
            "ablation_pm_range", "Phase-margin range vs transfer",
            "training on PM range [60, 75] transfers better than fixed 60",
            "benchmarks/bench_ablation_pm_range.py",
            ("repro.core.transfer", "repro.topologies.ngm_ota")),
        Experiment(
            "ablation_baselines", "Per-target optimiser zoo",
            "GA is representative: SA/CEM/random search also pay "
            "per-target restart costs (extension beyond the paper)",
            "benchmarks/bench_ablation_baselines.py",
            ("repro.baselines.annealing", "repro.baselines.cem",
             "repro.baselines.random_search")),
        Experiment(
            "parallel_scaling", "Parallel-environment wall clock",
            "Ray parallelism: 1.3 h on 8 cores for the op-amp (§III-B)",
            "benchmarks/bench_parallel_scaling.py",
            ("repro.rl.parallel",)),
        Experiment(
            "measurement_pipeline",
            "Stacked vs per-design measurement (declarative pipeline)",
            "Beyond the paper: one declarative spec graph per topology "
            "serves the scalar and stacked paths alike; the OTA chain, "
            "which used to fall back to a per-design measurement loop, "
            "measures whole batches through per-design sparse sweep "
            "factorisations",
            "benchmarks/bench_measurement.py",
            ("repro.measure.pipeline", "repro.topologies.base",
             "repro.topologies.ota_chain")),
        Experiment(
            "sparse_engine", "Sparse vs dense engine on large netlists",
            "Beyond the paper: the OTA repeater chain scenario family "
            "(>=200 MNA unknowns) runs >=3x faster on the SuperLU "
            "backend, enabling post-layout mesh and interconnect "
            "workloads the dense engine cannot scale to",
            "benchmarks/bench_sparse_engine.py",
            ("repro.sim.sparse", "repro.sim.engine",
             "repro.topologies.ota_chain")),
        Experiment(
            "condensation", "Condensed mesh interior at mesh scale",
            "Beyond the paper: the power-grid OTA scenario family "
            "(5k-50k MNA unknowns) pays one AC reduction and one DC "
            "interior factor per structure, then runs its warm "
            "evaluations with DC Newton and the AC sweep condensed onto "
            "the mesh boundary, next to the same loop on the full system",
            "benchmarks/bench_condensation.py",
            ("repro.sim.condense", "repro.sim.engine",
             "repro.topologies.power_grid")),
    ]
}


def experiment(key: str) -> Experiment:
    """Look up one experiment; raises KeyError with the valid keys."""
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise KeyError(f"unknown experiment {key!r}; valid: "
                       f"{sorted(EXPERIMENTS)}") from None


def coverage_table() -> str:
    """Markdown table of every experiment (used to build EXPERIMENTS.md)."""
    lines = ["| key | experiment | paper result | bench |",
             "|---|---|---|---|"]
    for exp in EXPERIMENTS.values():
        lines.append(f"| {exp.key} | {exp.title} | {exp.paper_result} | "
                     f"`{exp.bench}` |")
    return "\n".join(lines)
