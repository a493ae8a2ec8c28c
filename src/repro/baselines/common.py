"""Shared machinery for the per-target search baselines.

Every baseline in this package answers the same question the paper's
tables ask: *given one target specification, how many simulations does the
algorithm need before some sizing meets it?*  :class:`TargetObjective`
wraps a simulator + target + Eq. (1) reward into a budget-enforcing
fitness function so each algorithm only implements its search logic, and
:class:`SearchResult` is the common outcome record.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.reward import RewardSpec, compute_reward
from repro.errors import TrainingError
from repro.sim.faults import FaultStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topologies.base import CircuitSimulator


@dataclasses.dataclass
class SearchResult:
    """Outcome of one per-target search run.

    ``simulations`` is the paper's sample-efficiency metric — the number
    of simulator evaluations consumed before success (or until the budget
    ran out).
    """

    success: bool
    simulations: int
    best_fitness: float
    best_indices: np.ndarray
    best_specs: dict[str, float]


class BudgetExhausted(Exception):
    """Internal control flow: the simulation budget ran out mid-search."""


class GoalReached(Exception):
    """Internal control flow: an evaluation met the target."""


class TargetObjective:
    """Budget-enforcing fitness function for one target specification.

    Calling the objective evaluates a sizing, tracks the incumbent, and
    raises :class:`GoalReached` / :class:`BudgetExhausted` to stop the
    search; :meth:`result` converts the final state into a
    :class:`SearchResult` either way.
    """

    def __init__(self, simulator: "CircuitSimulator",
                 target: dict[str, float], budget: int,
                 reward: RewardSpec | None = None):
        if budget < 1:
            raise TrainingError(f"search budget must be >= 1, got {budget}")
        self.simulator = simulator
        self.target = dict(target)
        self.budget = int(budget)
        self.reward = reward or RewardSpec()
        self.simulations = 0
        self.best_fitness = -np.inf
        self.best_indices: np.ndarray | None = None
        self.best_specs: dict[str, float] = {}
        self.succeeded = False
        #: Cumulative supervision counters folded in from each batch's
        #: :class:`~repro.sim.faults.BatchReport`: quarantined designs
        #: score their pessimistic failure measurements through Eq. (1)
        #: like any other individual (and stay charged to the budget),
        #: so the search keeps going — these counters are how a run
        #: reports what it survived.
        self.fault_stats = FaultStats()

    def _absorb_report(self) -> None:
        """Fold the simulator's last batch report into ``fault_stats``."""
        self.fault_stats.absorb(
            getattr(self.simulator, "last_batch_report", None))

    def __call__(self, indices: np.ndarray) -> float:
        """Evaluate one sizing; returns its Eq. (1) fitness."""
        if self.simulations >= self.budget:
            raise BudgetExhausted
        indices = self.simulator.parameter_space.clip(np.asarray(indices))
        specs = self.simulator.evaluate(indices)
        self._absorb_report()
        self.simulations += 1
        breakdown = compute_reward(specs, self.target,
                                   self.simulator.spec_space, self.reward)
        if breakdown.reward > self.best_fitness:
            self.best_fitness = breakdown.reward
            self.best_indices = indices.copy()
            self.best_specs = specs
        if breakdown.goal_reached:
            self.succeeded = True
            self.best_indices = indices.copy()
            self.best_specs = specs
            self.best_fitness = breakdown.reward
            raise GoalReached
        if self.simulations >= self.budget:
            raise BudgetExhausted
        return breakdown.reward

    def evaluate_population(self, population) -> np.ndarray:
        """Evaluate a whole population through the batched engine (which
        stacks the designs into one solve).

        Returns the fitness array (one entry per individual) and keeps the
        scalar call's control flow: :class:`GoalReached` is raised when an
        individual meets the target and :class:`BudgetExhausted` once the
        budget is consumed.  Every simulated individual is charged to
        ``simulations`` — a population method commits to its whole
        generation before looking at the outcomes, so the sample-efficiency
        metric stays equal to the simulator's own invocation counter.
        The population is truncated to the remaining budget, which keeps
        the budget exact.
        """
        if self.simulations >= self.budget:
            raise BudgetExhausted
        space = self.simulator.parameter_space
        population = [space.clip(np.asarray(p)) for p in population]
        remaining = self.budget - self.simulations
        evaluated = population[:remaining]
        # The whole generation is committed (and charged) up front.
        self.simulations += len(evaluated)
        fitness = np.empty(len(population))
        batch_specs = self.simulator.evaluate_batch(np.stack(evaluated))
        self._absorb_report()
        for i, specs in enumerate(batch_specs):
            indices = evaluated[i]
            breakdown = compute_reward(specs, self.target,
                                       self.simulator.spec_space,
                                       self.reward)
            fitness[i] = breakdown.reward
            if breakdown.reward > self.best_fitness:
                self.best_fitness = breakdown.reward
                self.best_indices = indices.copy()
                self.best_specs = specs
            if breakdown.goal_reached:
                self.succeeded = True
                self.best_indices = indices.copy()
                self.best_specs = specs
                self.best_fitness = breakdown.reward
                raise GoalReached
        if len(evaluated) < len(population) or self.simulations >= self.budget:
            raise BudgetExhausted
        return fitness

    def result(self) -> SearchResult:
        """The search outcome given everything evaluated so far."""
        space = self.simulator.parameter_space
        indices = (self.best_indices if self.best_indices is not None
                   else space.center)
        return SearchResult(
            success=self.succeeded,
            simulations=self.simulations,
            best_fitness=float(self.best_fitness),
            best_indices=np.asarray(indices),
            best_specs=dict(self.best_specs),
        )
