"""Environment interface and synchronous vectorisation.

The subset of the Gym API the paper's training loop needs, plus a
:class:`VectorEnv` that steps several environments per policy query (the
paper uses Ray to "run multiple environments in parallel"; in-process
batching gives the same sample efficiency — the policy network is queried
with a batch — without process overhead, since each env step is already a
fast in-process simulation here).

When a shared ``batch_simulator`` is given, every vectorised step is one
``evaluate_batch`` call, so rollouts inherit the stacked engine and its
in-process quarantine of faulting designs without any changes here.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import TrainingError
from repro.rl.spaces import Space
from repro.sim.faults import FaultStats


class Env:
    """One episodic environment."""

    observation_space: Space
    action_space: Space

    def reset(self) -> np.ndarray:
        """Start a new episode; returns the initial observation."""
        raise NotImplementedError

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply ``action``; returns (obs, reward, done, info)."""
        raise NotImplementedError


@dataclasses.dataclass
class EpisodeStats:
    """Summary of one finished episode."""

    reward: float
    length: int
    success: bool


class VectorEnv:
    """Synchronous batch of identically-spaced environments with auto-reset.

    Parameters
    ----------
    envs:
        The environments to step together.
    batch_simulator:
        Optional :class:`~repro.topologies.base.CircuitSimulator` shared
        by every env.  When given (and every env supports the
        ``begin_step``/``finish_step`` split), each :meth:`step` gathers
        all envs' sizing indices and evaluates them in one
        ``evaluate_batch`` call — the batched-engine path that makes a
        vectorised rollout step cost far less than N sequential
        simulations.  Each call's
        :class:`~repro.sim.faults.BatchReport` is folded into
        :attr:`fault_stats`, so faults the simulator absorbed
        (bisected sub-batches, quarantined designs) stay visible.
    """

    def __init__(self, envs: list[Env], batch_simulator=None):
        if not envs:
            raise TrainingError("VectorEnv needs at least one env")
        self.envs = envs
        self.observation_space = envs[0].observation_space
        self.action_space = envs[0].action_space
        self._ep_reward = np.zeros(len(envs))
        self._ep_length = np.zeros(len(envs), dtype=np.int64)
        self._batch_sim = batch_simulator
        #: Cumulative supervision counters of the batched path.
        self.fault_stats = FaultStats()
        if batch_simulator is not None and not all(
                hasattr(env, "begin_step") and hasattr(env, "finish_step")
                for env in envs):
            raise TrainingError(
                "batch_simulator requires envs with begin_step/finish_step")

    def __len__(self) -> int:
        return len(self.envs)

    def reset(self) -> np.ndarray:
        """Reset every env; returns the stacked initial observations."""
        self._ep_reward[:] = 0.0
        self._ep_length[:] = 0
        return np.stack([env.reset() for env in self.envs])

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, list[dict],
                                                 list[EpisodeStats]]:
        """Step every env; finished envs are reset and their stats returned.

        The observation returned for a finished env is the *new* episode's
        first observation (standard auto-reset), while ``infos[i]`` carries
        the terminal info dict of the finished episode.
        """
        if len(actions) != len(self.envs):
            raise TrainingError(
                f"got {len(actions)} actions for {len(self.envs)} envs")
        if self._batch_sim is not None:
            return self._step_batched(actions)
        return self._step_loop([env.step(a) for env, a
                                in zip(self.envs, actions)])

    def _step_batched(self, actions: np.ndarray):
        """One stacked simulator call for every env's next sizing."""
        indices = np.stack([env.begin_step(action)
                            for env, action in zip(self.envs, actions)])
        specs = self._batch_sim.evaluate_batch(indices)
        self.fault_stats.absorb(
            getattr(self._batch_sim, "last_batch_report", None))
        return self._step_loop([env.finish_step(s) for env, s
                                in zip(self.envs, specs)])

    def _step_loop(self, outcomes):
        """Episode accounting: accumulates the per-env episode
        reward/length, emits :class:`EpisodeStats` and auto-resets
        finished envs."""
        obs_list, rewards, dones, infos = [], [], [], []
        finished: list[EpisodeStats] = []
        for i, (env, (obs, reward, done, info)) in enumerate(
                zip(self.envs, outcomes)):
            self._ep_reward[i] += reward
            self._ep_length[i] += 1
            if done:
                finished.append(EpisodeStats(
                    reward=float(self._ep_reward[i]),
                    length=int(self._ep_length[i]),
                    success=bool(info.get("success", False))))
                self._ep_reward[i] = 0.0
                self._ep_length[i] = 0
                obs = env.reset()
            obs_list.append(obs)
            rewards.append(reward)
            dones.append(done)
            infos.append(info)
        return (np.stack(obs_list), np.asarray(rewards, dtype=float),
                np.asarray(dones, dtype=bool), infos, finished)
