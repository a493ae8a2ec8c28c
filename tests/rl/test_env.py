"""Env interface, VectorEnv auto-reset semantics and fault accounting."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.rl.env import Env, VectorEnv
from repro.rl.spaces import Box, MultiDiscrete


class CountdownEnv(Env):
    """Finishes after ``n`` steps with reward 1 at the end."""

    def __init__(self, n=3):
        self.n = n
        self.observation_space = Box(-np.inf, np.inf, shape=(1,))
        self.action_space = MultiDiscrete([3])
        self.t = 0
        self.resets = 0

    def reset(self):
        self.t = 0
        self.resets += 1
        return np.array([0.0])

    def step(self, action):
        self.t += 1
        done = self.t >= self.n
        reward = 1.0 if done else -0.1
        return np.array([float(self.t)]), reward, done, {"success": done}


class TestVectorEnv:
    def test_needs_envs(self):
        with pytest.raises(TrainingError):
            VectorEnv([])

    def test_reset_shape(self):
        vec = VectorEnv([CountdownEnv(), CountdownEnv()])
        obs = vec.reset()
        assert obs.shape == (2, 1)

    def test_auto_reset_and_episode_stats(self):
        vec = VectorEnv([CountdownEnv(n=2), CountdownEnv(n=3)])
        vec.reset()
        all_finished = []
        for _ in range(6):
            obs, rewards, dones, infos, finished = vec.step(
                np.zeros((2, 1), dtype=int))
            all_finished.extend(finished)
        # env0 finishes every 2 steps (3 times), env1 every 3 steps (2 times)
        assert len(all_finished) == 5
        ep0 = [s for s in all_finished if s.length == 2]
        assert len(ep0) == 3
        assert all(s.success for s in all_finished)
        assert ep0[0].reward == pytest.approx(-0.1 + 1.0)

    def test_obs_after_done_is_fresh_reset(self):
        env = CountdownEnv(n=1)
        vec = VectorEnv([env])
        vec.reset()
        obs, _, dones, _, _ = vec.step(np.zeros((1, 1), dtype=int))
        assert dones[0]
        assert obs[0, 0] == 0.0  # new episode's first observation
        assert env.resets == 2

    def test_action_count_checked(self):
        vec = VectorEnv([CountdownEnv()])
        vec.reset()
        with pytest.raises(TrainingError):
            vec.step(np.zeros((2, 1), dtype=int))


class TestBatchedFaultAccounting:
    def test_quarantined_design_lands_in_fault_stats(self, monkeypatch):
        """A design whose batched solve faults is quarantined by the
        shared simulator: the step returns finite results for every env,
        and the fault lands in the env's fault_stats."""
        from repro.core.env import SizingEnv, SizingEnvConfig
        from repro.errors import EvaluationFault
        from repro.topologies import FiveTransistorOta, SchematicSimulator

        shared = SchematicSimulator(FiveTransistorOta(), cache=False)
        envs = [SizingEnv(shared, config=SizingEnvConfig(max_steps=5),
                          seed=100 + i) for i in range(4)]
        vec = VectorEnv(envs, batch_simulator=shared)
        n_params = len(vec.action_space.nvec)
        stay = np.ones((4, n_params), dtype=np.int64)
        moves = stay.copy()
        for i in range(4):
            moves[i, i % n_params] = 2     # env i steps up parameter i
        # Every env starts at the grid centre, so env 2's next sizing is
        # the centre plus one step of its parameter.
        space = shared.parameter_space
        poisoned = space.values(space.clip(space.center + moves[2] - 1))
        engine = shared._inprocess_batch

        def faulty(values_list):
            if poisoned in values_list:
                raise EvaluationFault("injected solve fault")
            return engine(values_list)

        monkeypatch.setattr(shared, "_inprocess_batch", faulty)
        vec.reset()
        vec.step(stay)                  # clean step at the centre
        assert vec.fault_stats == {"faults": 0, "retries": 0,
                                   "quarantined": 0}
        obs, rewards, _, infos, _ = vec.step(moves)
        assert np.all(np.isfinite(obs)) and np.all(np.isfinite(rewards))
        assert infos[2]["specs"] == shared.failure_measurements()
        assert vec.fault_stats["quarantined"] == 1
        assert vec.fault_stats["faults"] >= 1
        obs, *_ = vec.step(stay)        # the env keeps rolling
        assert np.all(np.isfinite(obs))
