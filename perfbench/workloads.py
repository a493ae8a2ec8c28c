"""The benchmark's five closed-loop workloads.

Each workload drives the program through its public API with one caller:
the next simulation is issued only after the previous one returned.
Inputs are made from the seed and sized from the run length, so one
``(seed, seconds)`` pair always means the same inputs:

* ``deploy_opamp`` and ``transfer_ngm_pex`` draw held-out targets as a
  Latin hypercube over the spec space (every target is uniform over the
  space, but the set covers it evenly, which keeps reached fractions and
  step counts within a few percent from seed to seed);
* ``mesh_walk`` draws a one-grid-step random walk.

Two workloads use fixed inputs, because their paper metrics scatter too
much between seeds at this size to gate a change on: ``train_opamp``
trains at a fixed seed (steps to reward 0 vary by a fifth between
training seeds) and ``ga_opamp`` uses a fixed target set and GA seeds
(per-target GA effort has a coefficient of variation near 1).

A *task* is the unit whose wall-clock the run reports as ``target_ms_*``:
one target for ``deploy_opamp``, ``transfer_ngm_pex`` and ``ga_opamp``,
one PPO iteration for ``train_opamp`` and one walk step for
``mesh_walk``.  ``run(pace)`` calls ``pace()`` between tasks, outside the
task timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time

import numpy as np

from repro.baselines import GAConfig, GeneticOptimizer
from repro.core import (AutoCkt, AutoCktConfig, deploy_agent,
                        transfer_deploy)
from repro.pex import PexSimulator
from repro.rl import PPOConfig
from repro.topologies import (NegGmOta, PowerGridOta, SchematicSimulator,
                              TwoStageOpAmp)

from perfbench.harness import check_reference, load_policy

#: Power-grid mesh size: 71x71 mesh + 4 buffers = 5,058 unknowns, which
#: the ``auto`` engine routes to the iterative (Krylov) leg.
MESH_GRID_N = 71
MESH_AMPS = 4
#: Training seed of ``train_opamp``: stops at 25,800 env steps.
TRAIN_SEED = 2
TRAIN_MAX_ITERATIONS = 100
DEPLOY_MAX_STEPS = 30
GA_POPULATIONS = (20, 40)
GA_BUDGET = 1500
GA_INPUT_SEED = 0


def opamp_simulator(cache: bool = True) -> SchematicSimulator:
    return SchematicSimulator(TwoStageOpAmp(), cache=cache)


def ngm_pex_simulator(cache: bool = True) -> PexSimulator:
    return PexSimulator(NegGmOta, cache=cache)


def mesh_simulator(topology=None, cache: bool = True) -> SchematicSimulator:
    topology = topology or PowerGridOta(grid_n=MESH_GRID_N, n_amps=MESH_AMPS)
    return SchematicSimulator(topology, cache=cache)


def _warm(simulator) -> None:
    """Evaluate the grid centre once: builds the stamped structure (and,
    on the PEX path, the extracted netlists) that every later evaluation
    reuses.  Every workload starts its trajectories there."""
    simulator.evaluate(simulator.parameter_space.center)


def latin_hypercube_targets(spec_space, n: int,
                            rng: np.random.Generator) -> list[dict]:
    """``n`` targets, one per stratum of every spec's (log) range."""
    columns = [(rng.permutation(n) + rng.random(n)) / n
               for _ in spec_space.specs]
    targets = [{} for _ in range(n)]
    for spec, u in zip(spec_space.specs, columns):
        if spec.log_scale:
            lo, hi = math.log10(spec.low), math.log10(spec.high)
            values = 10.0 ** (lo + u * (hi - lo))
        else:
            values = spec.low + u * (spec.high - spec.low)
        for target, value in zip(targets, values.tolist()):
            target[spec.name] = value
    return targets


def random_walk(space, n: int, seed: int) -> list[np.ndarray]:
    """``n`` points from the centre, each one grid step from the last.

    The walk never revisits a point (the centre included), so every step
    is a fresh simulation and the pass's work does not depend on how often
    a seed's walk happens to double back onto memoised designs.
    """
    rng = np.random.default_rng(seed)
    point = space.center.copy()
    visited = {tuple(point.tolist())}
    walk = []
    for _ in range(n):
        options = []
        for axis in range(len(space)):
            for delta in (-1, 1):
                candidate = point.copy()
                candidate[axis] += delta
                if (space.contains(candidate)
                        and tuple(candidate.tolist()) not in visited):
                    options.append(candidate)
        point = options[rng.integers(len(options))]
        visited.add(tuple(point.tolist()))
        walk.append(point)
    return walk


def digest(obj) -> str:
    """Stable short hash of a workload's outputs (repr of floats is exact)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _timed(items, fn, pace) -> tuple[list[float], list]:
    """Apply ``fn`` to each item; return per-item seconds and results."""
    task_s, results = [], []
    for item in items:
        pace()
        started = time.perf_counter()
        results.append(fn(item))
        task_s.append(time.perf_counter() - started)
    return task_s, results


@dataclasses.dataclass
class PassResult:
    """What one timed pass of a workload produced."""

    task_s: list[float]       # wall-clock per task
    steps: int                # optimiser steps, each one simulator call
    sims: int                 # SimulationCounter total charged
    cached: int               # ... of which memo hits
    reached_frac: float
    sims_to_success: float
    train_env_steps: int
    outputs: object           # compared for identity across passes

    @property
    def tasks(self) -> int:
        return len(self.task_s)


class Workload:
    """One workload: ``setup`` builds, ``run`` is the timed pass,
    ``check`` compares a fixed probe set with the stored reference."""

    name = ""
    why = ""
    #: Tasks per second of ``--seconds`` (measured on a 2-core x86 VM),
    #: so a run's inputs take about ``--seconds`` there.
    rate = 1.0

    def __init__(self, seed: int, seconds: float):
        self.seed = int(seed)
        self.n_tasks = max(1, math.ceil(self.rate * seconds))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, pace) -> PassResult:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def simulators(self) -> list:
        """Every simulator the timed pass charges."""
        return [self.simulator]

    def _counts(self) -> np.ndarray:
        return np.array([(s.counter.total, s.counter.cached)
                         for s in self.simulators()]).sum(axis=0)


class _TargetChase(Workload):
    """A stored policy chases held-out targets, one at a time."""

    def _targets(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.targets = latin_hypercube_targets(self.simulator.spec_space,
                                               self.n_tasks, rng)
        self.target_seeds = [int(s) for s in
                             rng.integers(2**31, size=self.n_tasks)]

    def _chase(self, item):
        raise NotImplementedError

    def run(self, pace) -> PassResult:
        before = self._counts()
        task_s, outcomes = _timed(zip(self.targets, self.target_seeds),
                                  self._chase, pace)
        sims, cached = (self._counts() - before).tolist()
        reached = [o.sims_used for o, _ in outcomes if o.success]
        steps = sum(o.steps for o, _ in outcomes)
        outputs = [(o.success, o.steps, o.sims_used,
                    tuple(int(i) for i in o.final_indices),
                    sorted(o.final_specs.items()), extra)
                   for o, extra in outcomes]
        return PassResult(
            task_s=task_s, steps=steps, sims=sims, cached=cached,
            reached_frac=len(reached) / len(outcomes),
            sims_to_success=float(np.mean(reached)) if reached else math.nan,
            train_env_steps=steps, outputs=outputs)


class DeployOpamp(_TargetChase):
    name = "deploy_opamp"
    why = ("Paper Table II loop: a trained op-amp policy chases held-out "
           "targets (<=30 steps), one scalar evaluate per step: the "
           "scalar dense path.")
    rate = 30.0

    def setup(self) -> None:
        self.policy = load_policy("opamp")
        self.simulator = opamp_simulator()
        _warm(self.simulator)
        self._targets()

    def _chase(self, item):
        target, seed = item
        report = deploy_agent(self.policy, self.simulator, [target],
                              max_steps=DEPLOY_MAX_STEPS, seed=seed)
        return report.outcomes[0], None

    def check(self) -> list[str]:
        return check_reference(
            "opamp", SchematicSimulator(self.simulator.topology, cache=False))


class TransferNgmPex(_TargetChase):
    name = "transfer_ngm_pex"
    why = ("Paper Table IV: a schematic-trained ngm-OTA policy deployed "
           "through PEX extraction and 3 signoff corners; the only "
           "workload that exercises repro.pex.")
    rate = 12.0

    def setup(self) -> None:
        self.policy = load_policy("ngm")
        self.simulator = ngm_pex_simulator()
        _warm(self.simulator)
        self._targets()

    def _chase(self, item):
        target, seed = item
        report = transfer_deploy(self.policy, self.simulator, [target],
                                 max_steps=DEPLOY_MAX_STEPS, seed=seed)
        return report.deployment.outcomes[0], report.lvs_results[0]

    def check(self) -> list[str]:
        return check_reference("ngm_pex", ngm_pex_simulator(cache=False))


class GaOpamp(Workload):
    name = "ga_opamp"
    why = ("Paper GA baseline: per-target restart over populations 20 and "
           "40, budget 1500; pure batched evaluation with no RL, batches "
           "of 18-40 random genomes.")
    rate = 3.0

    def setup(self) -> None:
        self.simulator = opamp_simulator()
        _warm(self.simulator)
        rng = np.random.default_rng(GA_INPUT_SEED)
        self.targets = self.simulator.spec_space.sample_targets(
            self.n_tasks, rng)
        self.ga_seeds = [int(s) for s in
                         rng.integers(2**31, size=self.n_tasks)]

    def _solve(self, item):
        target, seed = item
        ga = GeneticOptimizer(self.simulator,
                              GAConfig(max_simulations=GA_BUDGET), seed=seed)
        return ga.solve_with_population_sweep(
            target, populations=GA_POPULATIONS, max_simulations=GA_BUDGET)

    def run(self, pace) -> PassResult:
        before = self._counts()
        task_s, results = _timed(zip(self.targets, self.ga_seeds),
                                 self._solve, pace)
        sims, cached = (self._counts() - before).tolist()
        reached = [r.simulations for r in results if r.success]
        outputs = [(r.success, r.simulations, r.generations,
                    tuple(int(i) for i in r.best_indices),
                    sorted(r.best_specs.items())) for r in results]
        return PassResult(
            task_s=task_s, steps=sims, sims=sims, cached=cached,
            reached_frac=len(reached) / len(results),
            sims_to_success=float(np.mean(reached)) if reached else math.nan,
            train_env_steps=sims, outputs=outputs)

    def check(self) -> list[str]:
        return check_reference(
            "opamp", SchematicSimulator(self.simulator.topology, cache=False))


class TrainOpamp(Workload):
    name = "train_opamp"
    why = ("Paper training loop: PPO (10 envs x 60 steps, 3x50 tanh, 50 "
           "targets) until mean episode reward >= 0; the only workload "
           "where repro.rl updates a policy.")
    rate = 0.0   # one training run, whatever the run length

    def setup(self) -> None:
        self._simulators = []

        def factory():
            simulator = SchematicSimulator(TwoStageOpAmp())
            self._simulators.append(simulator)
            return simulator

        config = AutoCktConfig(ppo=PPOConfig(seed=TRAIN_SEED),
                               n_train_targets=50,
                               max_iterations=TRAIN_MAX_ITERATIONS,
                               stop_reward=0.0, stop_patience=1,
                               seed=TRAIN_SEED)
        self.agent = AutoCkt(factory, config=config)

    def simulators(self) -> list:
        return self._simulators

    def run(self, pace) -> PassResult:
        starts, ends = [], []

        def on_iteration(trainer, history):
            ends.append(time.perf_counter())
            pace()
            starts.append(time.perf_counter())
            return False

        starts.append(time.perf_counter())
        history = self.agent.train(callback=on_iteration)
        sims, cached = self._counts().tolist()
        steps = self.agent.training_env_steps
        weights = b"".join(a.tobytes()
                           for a in self.agent.policy.pi.state_arrays())
        outputs = (history.mean_reward, history.success_rate, steps,
                   hashlib.sha256(weights).hexdigest())
        return PassResult(
            task_s=[e - s for s, e in zip(starts, ends)], steps=steps,
            sims=sims, cached=cached,
            reached_frac=history.success_rate[-1],
            sims_to_success=history.mean_length[-1],
            train_env_steps=steps, outputs=outputs)

    def check(self) -> list[str]:
        return check_reference("opamp", opamp_simulator(cache=False))


class MeshWalk(Workload):
    name = "mesh_walk"
    why = ("PowerGridOta 71x71 (5,058 unknowns, iterative leg): a one-step "
           "random walk of scalar evaluates from the centre; the only "
           "sparse/Krylov workload.")
    rate = 1.8

    def setup(self) -> None:
        self.simulator = mesh_simulator()
        _warm(self.simulator)
        self.walk = random_walk(self.simulator.parameter_space,
                                self.n_tasks, self.seed)

    def run(self, pace) -> PassResult:
        failure = self.simulator.failure_measurements()
        before = self._counts()
        task_s, rows = _timed(self.walk, self.simulator.evaluate, pace)
        sims, cached = (self._counts() - before).tolist()
        valid = sum(1 for r in rows if r != failure)
        return PassResult(
            task_s=task_s, steps=len(rows), sims=sims, cached=cached,
            reached_frac=valid / len(rows),
            sims_to_success=sims / max(valid, 1),
            train_env_steps=len(rows),
            outputs=[sorted(r.items()) for r in rows])

    def check(self) -> list[str]:
        return check_reference(
            "mesh", SchematicSimulator(self.simulator.topology, cache=False))


WORKLOADS = {cls.name: cls for cls in
             (TrainOpamp, DeployOpamp, GaOpamp, TransferNgmPex, MeshWalk)}
