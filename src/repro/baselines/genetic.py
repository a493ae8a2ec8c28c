"""Vanilla genetic algorithm baseline.

The paper's GA rows: for every target specification the GA is restarted
from scratch (its central weakness — "they require re-starting the
algorithm from scratch if any change is made to the goal"), evolving
integer sizing vectors with tournament selection, uniform crossover and
per-gene +/- step mutation.  Fitness is the same Eq. (1) hard-constraint
reward the RL agent optimises, and sample efficiency is the number of
simulator calls until the first individual meets the target.  The paper
reports "the best result obtained when sweeping initial population sizes";
:meth:`GeneticOptimizer.solve_with_population_sweep` does exactly that.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.reward import RewardSpec, compute_reward
from repro.errors import TrainingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topologies.base import CircuitSimulator


@dataclasses.dataclass
class GAConfig:
    """Genetic-algorithm hyperparameters."""

    population: int = 40
    tournament: int = 3
    crossover_rate: float = 0.7
    mutation_rate: float = 0.15
    mutation_span: int = 4          # max +/- grid steps per mutated gene
    elite: int = 2
    max_simulations: int = 4000

    def __post_init__(self):
        if self.population < 4:
            raise TrainingError("GA population must be >= 4")
        if self.elite >= self.population:
            raise TrainingError("elite must be smaller than the population")


@dataclasses.dataclass
class GAResult:
    """Outcome of one GA run against one target."""

    success: bool
    simulations: int
    generations: int
    best_fitness: float
    best_indices: np.ndarray
    best_specs: dict[str, float]


class GeneticOptimizer:
    """Per-target GA over a sizing grid."""

    def __init__(self, simulator: "CircuitSimulator",
                 config: GAConfig | None = None,
                 reward: RewardSpec | None = None, seed: int = 0):
        self.simulator = simulator
        self.config = config or GAConfig()
        self.reward = reward or RewardSpec()
        self.rng = np.random.default_rng(seed)

    # -- fitness ---------------------------------------------------------------
    def _fitness_many(self, genomes: list[np.ndarray], target: dict[str, float],
                      budget_left: int):
        """Batched fitness of several genomes (one stacked simulation).

        Only the first ``budget_left`` genomes are evaluated; returns a
        list of ``(reward, goal_reached, specs)`` triples in order.
        """
        genomes = genomes[:max(budget_left, 0)]
        if not genomes:
            return []
        out = []
        for specs in self.simulator.evaluate_batch(np.stack(genomes)):
            breakdown = compute_reward(specs, target,
                                       self.simulator.spec_space,
                                       self.reward)
            out.append((breakdown.reward, breakdown.goal_reached, specs))
        return out

    # -- GA operators ------------------------------------------------------------
    def _tournament_pick(self, fitness: np.ndarray) -> int:
        contenders = self.rng.integers(0, len(fitness), size=self.config.tournament)
        return int(contenders[np.argmax(fitness[contenders])])

    def _crossover(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.rng.random() >= self.config.crossover_rate:
            return a.copy()
        mask = self.rng.random(len(a)) < 0.5
        return np.where(mask, a, b)

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        cfg = self.config
        out = genome.copy()
        for i in range(len(out)):
            if self.rng.random() < cfg.mutation_rate:
                out[i] += self.rng.integers(-cfg.mutation_span,
                                            cfg.mutation_span + 1)
        return self.simulator.parameter_space.clip(out)

    # -- driver -----------------------------------------------------------------
    def solve(self, target: dict[str, float],
              max_simulations: int | None = None) -> GAResult:
        """Evolve until an individual meets ``target`` or the budget runs out."""
        cfg = self.config
        space = self.simulator.parameter_space
        budget = max_simulations or cfg.max_simulations

        population = [space.sample(self.rng) for _ in range(cfg.population)]
        sims = 0
        generations = 0
        best_fit = -np.inf
        best_x = population[0]
        best_specs: dict[str, float] = {}

        fitness = np.empty(cfg.population)
        evals = self._fitness_many(population, target, budget - sims)
        sims += len(evals)  # the whole batch is simulated (and charged)
        for i, (fit, ok, specs) in enumerate(evals):
            fitness[i] = fit
            genome = population[i]
            if fit > best_fit:
                best_fit, best_x, best_specs = fit, genome.copy(), specs
            if ok:
                return GAResult(True, sims, generations, fit, genome.copy(), specs)
        if len(evals) < cfg.population:
            # Budget cut the initial evaluation short.
            return GAResult(False, sims, generations, best_fit, best_x, best_specs)

        while sims < budget:
            generations += 1
            order = np.argsort(fitness)[::-1]
            next_pop = [population[i].copy() for i in order[:cfg.elite]]
            elite_fitness = fitness[order[:cfg.elite]].copy()
            while len(next_pop) < cfg.population:
                mother = population[self._tournament_pick(fitness)]
                father = population[self._tournament_pick(fitness)]
                child = self._mutate(self._crossover(mother, father))
                next_pop.append(child)
            population = next_pop
            fitness = np.empty(cfg.population)
            fitness[:cfg.elite] = elite_fitness  # elites keep their fitness
            offspring = population[cfg.elite:]
            evals = self._fitness_many(offspring, target, budget - sims)
            sims += len(evals)
            for j, (fit, ok, specs) in enumerate(evals):
                i = cfg.elite + j
                fitness[i] = fit
                if fit > best_fit:
                    best_fit, best_x = fit, population[i].copy()
                    best_specs = specs
                if ok:
                    return GAResult(True, sims, generations, fit,
                                    population[i].copy(), specs)
            if len(evals) < len(offspring):
                break
        return GAResult(False, sims, generations, best_fit, best_x, best_specs)

    def solve_with_population_sweep(self, target: dict[str, float],
                                    populations=(20, 40, 80),
                                    max_simulations: int | None = None) -> GAResult:
        """The paper's protocol: sweep initial population sizes and keep the
        best (fewest simulations among successful runs)."""
        best: GAResult | None = None
        for pop in populations:
            config = dataclasses.replace(self.config, population=pop)
            runner = GeneticOptimizer(self.simulator, config, self.reward,
                                      seed=int(self.rng.integers(2**31)))
            result = runner.solve(target, max_simulations=max_simulations)
            if best is None or _better(result, best):
                best = result
        assert best is not None
        return best


def _better(a: GAResult, b: GAResult) -> bool:
    if a.success != b.success:
        return a.success
    if a.success:
        return a.simulations < b.simulations
    return a.best_fitness > b.best_fitness
