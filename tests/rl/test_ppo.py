"""PPO: learning on reference tasks and mechanical invariants."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.rl.env import Env
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import Box, MultiDiscrete


class BanditEnv(Env):
    """One-step bandit: action 2 on the single dimension pays 1."""

    def __init__(self, seed=0):
        self.observation_space = Box(-np.inf, np.inf, shape=(1,))
        self.action_space = MultiDiscrete([3])

    def reset(self):
        return np.zeros(1)

    def step(self, action):
        reward = 1.0 if int(action[0]) == 2 else 0.0
        return np.zeros(1), reward, True, {"success": reward > 0}


class CorridorEnv(Env):
    """Walk right along a 1-D corridor; reaching the end pays +10."""

    N = 8

    def __init__(self, seed=0):
        self.observation_space = Box(-np.inf, np.inf, shape=(1,))
        self.action_space = MultiDiscrete([3])
        self.pos = 0
        self.t = 0

    def reset(self):
        self.pos = 0
        self.t = 0
        return np.array([self.pos / self.N])

    def step(self, action):
        self.pos = int(np.clip(self.pos + int(action[0]) - 1, 0, self.N))
        self.t += 1
        done = self.pos == self.N or self.t >= 20
        reward = 10.0 if self.pos == self.N else -0.1
        return np.array([self.pos / self.N]), reward, done, {
            "success": self.pos == self.N}


def _config(**kw):
    base = dict(n_envs=4, n_steps=16, epochs=4, minibatch_size=32,
                lr=5e-3, hidden=(16, 16), seed=0)
    base.update(kw)
    return PPOConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(TrainingError):
            PPOConfig(n_envs=0)
        with pytest.raises(TrainingError):
            PPOConfig(gamma=1.5)
        with pytest.raises(TrainingError):
            PPOConfig(clip_ratio=0.0)
        # Configurations whose every minibatch would be skipped.
        for field, bad in (("epochs", dict(epochs=0)),
                           ("minibatch_size", dict(minibatch_size=1)),
                           ("minibatch_size", dict(minibatch_size=0)),
                           ("batch_size", dict(n_envs=1, n_steps=1))):
            with pytest.raises(TrainingError, match=f"^{field}"):
                PPOConfig(**bad)
        PPOConfig(n_envs=1, n_steps=2, epochs=1, minibatch_size=2)

    def test_batch_size(self):
        assert _config().batch_size == 64


class TestLearning:
    def test_solves_bandit(self):
        trainer = PPOTrainer([lambda i=i: BanditEnv(i) for i in range(4)],
                             config=_config())
        history = trainer.train(max_iterations=40, stop_reward=0.95,
                                stop_patience=2)
        assert history.final_mean_reward > 0.9

    def test_solves_corridor_beats_random(self):
        trainer = PPOTrainer([lambda i=i: CorridorEnv(i) for i in range(4)],
                             config=_config(n_steps=40, lr=3e-3))
        history = trainer.train(max_iterations=80, stop_reward=8.0,
                                stop_patience=2)
        # A random walker rarely covers 8 steps right within 20 moves;
        # trained success rate must be near 1.
        assert history.success_rate[-1] > 0.8
        assert history.final_mean_reward > 5.0

    def test_reward_curve_monotone_trend(self):
        trainer = PPOTrainer([lambda i=i: CorridorEnv(i) for i in range(4)],
                             config=_config(n_steps=40, lr=3e-3))
        history = trainer.train(max_iterations=60, stop_reward=None)
        first = np.mean(history.mean_reward[:5])
        last = np.mean(history.mean_reward[-5:])
        assert last > first + 3.0


class TestMechanics:
    def test_history_bookkeeping(self):
        trainer = PPOTrainer([lambda: BanditEnv()], config=_config(n_envs=1))
        history = trainer.train(max_iterations=3, stop_reward=None)
        assert history.iterations == [1, 2, 3]
        assert history.env_steps == [16, 32, 48]
        assert len(history.reward_curve()) == 3
        assert history.wall_time_s > 0

    def test_callback_stops_training(self):
        trainer = PPOTrainer([lambda: BanditEnv()], config=_config(n_envs=1))
        history = trainer.train(max_iterations=50, stop_reward=None,
                                callback=lambda t, h: len(h.iterations) >= 2)
        assert history.stopped_early
        assert len(history.iterations) == 2

    def test_max_env_steps_budget(self):
        trainer = PPOTrainer([lambda: BanditEnv()], config=_config(n_envs=1))
        trainer.train(max_iterations=100, stop_reward=None, max_env_steps=50)
        assert trainer.total_env_steps <= 64  # one iteration past the budget

    def test_single_factory_replicated(self):
        trainer = PPOTrainer([lambda: BanditEnv()], config=_config(n_envs=4))
        assert len(trainer.vec) == 4

    def test_factory_count_mismatch_raises(self):
        with pytest.raises(TrainingError):
            PPOTrainer([lambda: BanditEnv(), lambda: BanditEnv()],
                       config=_config(n_envs=4))

    def test_update_reduces_entropy_on_bandit(self):
        trainer = PPOTrainer([lambda: BanditEnv()], config=_config(n_envs=1))
        history = trainer.train(max_iterations=25, stop_reward=None)
        assert history.entropy[-1] < history.entropy[0]
