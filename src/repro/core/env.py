"""The sizing environment (paper §II-A).

Observation: ``[norm(o), norm(o*), norm(x)]`` — the normalised current
specs, target specs, and parameter indices (paper Fig. 2 feeds the network
the observed performance, the target, and the current parameters).

Action: ``MultiDiscrete([3] * N)`` — per parameter decrement (0), keep (1)
or increment (2), clipped at the grid boundary.

Episode: parameters start at the grid centre K/2; each step simulates the
new sizing and pays the Eq. (1) reward; the episode ends at goal
(hard-constraint slack >= -0.01, +10 bonus) or after H steps.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from repro.core.reward import RewardSpec, compute_reward
from repro.errors import TrainingError
from repro.rl.env import Env
from repro.rl.spaces import Box, MultiDiscrete

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.topologies.base import CircuitSimulator


@dataclasses.dataclass
class SizingEnvConfig:
    """Environment options.

    ``max_steps`` is the paper's trajectory length H (30 for the op-amp,
    swept in Fig. 10).  ``random_start`` replaces the centre start with a
    uniform random grid point (used by ablations only).
    """

    max_steps: int = 30
    reward: RewardSpec = dataclasses.field(default_factory=RewardSpec)
    random_start: bool = False

    def __post_init__(self):
        if self.max_steps < 1:
            raise TrainingError("max_steps must be >= 1")


class SizingEnv(Env):
    """Gym-style environment around a :class:`CircuitSimulator`.

    Parameters
    ----------
    simulator:
        Evaluates grid-index vectors into measured specs.  Each env
        instance should own its simulator (warm-start state is per
        instance).
    training_targets:
        The sparse target subsample O* (a list of target dicts).  When
        provided, :meth:`reset` draws uniformly from it; when None, each
        reset samples a fresh random target from the spec space
        (deployment-style).
    """

    def __init__(self, simulator: "CircuitSimulator",
                 training_targets: list[dict[str, float]] | None = None,
                 config: SizingEnvConfig | None = None, seed: int = 0):
        self.simulator = simulator
        self.space = simulator.parameter_space
        self.specs = simulator.spec_space
        self.config = config or SizingEnvConfig()
        self.training_targets = training_targets
        self.rng = np.random.default_rng(seed)

        n = len(self.space)
        m = len(self.specs)
        self.observation_space = Box(-np.inf, np.inf, shape=(2 * m + n,))
        self.action_space = MultiDiscrete([3] * n)

        self._indices: np.ndarray | None = None
        self._observed: dict[str, float] | None = None
        self._target: dict[str, float] | None = None
        #: ``specs.normalize(_target)``, fixed for the whole episode.
        self._target_obs: np.ndarray | None = None
        self._steps = 0

    # -- episode control ----------------------------------------------------
    def reset(self, target: dict[str, float] | None = None) -> np.ndarray:
        """Start an episode; ``target`` overrides the training-set draw."""
        if target is not None:
            self._target = dict(target)
        elif self.training_targets:
            pick = self.rng.integers(len(self.training_targets))
            self._target = dict(self.training_targets[pick])
        else:
            self._target = self.specs.sample_target(self.rng)
        self._target_obs = self.specs.normalize(self._target)
        if self.config.random_start:
            self._indices = self.space.sample(self.rng)
        else:
            self._indices = self.space.center.copy()
        self._steps = 0
        # One episode's final operating point must not seed the next
        # episode's first solve: a reset is a jump across the grid, and
        # warm state leaking between designs would make a trajectory's
        # numerics depend on which episode ran before it.
        getattr(self.simulator, "reset_warm_start", lambda: None)()
        self._observed = self.simulator.evaluate(self._indices)
        return self._observation()

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        return self.finish_step(self.simulator.evaluate(
            self.begin_step(action)))

    def begin_step(self, action) -> np.ndarray:
        """Apply ``action`` and return the grid indices to evaluate.

        Together with :meth:`finish_step` this splits :meth:`step` around
        the simulator call, so a :class:`~repro.rl.env.VectorEnv` can
        gather every env's indices and run them as one
        ``evaluate_batch`` — the batched-engine path for RL rollouts.
        """
        if self._indices is None or self._target is None:
            raise TrainingError("step() before reset()")
        action = np.asarray(action, dtype=np.int64)
        if not self.action_space.contains(action):
            raise TrainingError(f"invalid action {action!r}")
        self._indices = self.space.clip(self._indices + (action - 1))
        return self._indices

    def finish_step(self, observed: dict[str, float]
                    ) -> tuple[np.ndarray, float, bool, dict]:
        """Consume the specs of the sizing chosen by :meth:`begin_step`."""
        if self._indices is None or self._target is None:
            raise TrainingError("finish_step() before reset()")
        self._observed = observed
        breakdown = compute_reward(self._observed, self._target, self.specs,
                                   self.config.reward)
        self._steps += 1
        done = breakdown.goal_reached or self._steps >= self.config.max_steps
        info = {
            "success": breakdown.goal_reached,
            "specs": dict(self._observed),
            "target": dict(self._target),
            "indices": self._indices.copy(),
            "hard_term": breakdown.hard_term,
            "soft_term": breakdown.soft_term,
            "steps": self._steps,
        }
        return self._observation(), breakdown.reward, done, info

    # -- views ---------------------------------------------------------------
    @property
    def target(self) -> dict[str, float] | None:
        return dict(self._target) if self._target is not None else None

    @property
    def indices(self) -> np.ndarray | None:
        return None if self._indices is None else self._indices.copy()

    @property
    def observed(self) -> dict[str, float] | None:
        return dict(self._observed) if self._observed is not None else None

    def _observation(self) -> np.ndarray:
        if self._observed is None or self._target_obs is None:
            raise TrainingError("observation before reset()")
        return np.concatenate([
            self.specs.normalize(self._observed),
            self._target_obs,
            self.space.normalize(self._indices),
        ])
