"""Sizing environment mechanics (on a fast fake simulator)."""

import numpy as np
import pytest

from repro.core.env import SizingEnv, SizingEnvConfig
from repro.core.reward import GOAL_BONUS
from repro.core.specs import Spec, SpecKind, SpecSpace
from repro.errors import TrainingError
from repro.sim.cache import SimulationCounter
from repro.topologies import GridParam, ParameterSpace
from repro.topologies.base import CircuitSimulator


class QuadraticSimulator(CircuitSimulator):
    """Analytic stand-in circuit: two specs driven by two parameters.

    ``speed`` rises with x0, ``power`` rises with x1 — monotone, smooth,
    instant, so env tests don't pay for MNA solves.
    """

    def __init__(self):
        self.parameter_space = ParameterSpace([
            GridParam("x0", 0, 20, 1),
            GridParam("x1", 0, 20, 1),
        ])
        self.spec_space = SpecSpace([
            Spec("speed", 1.0, 400.0, SpecKind.LOWER_BOUND),
            Spec("power", 1.0, 400.0, SpecKind.UPPER_BOUND),
        ])
        self.counter = SimulationCounter()

    def evaluate(self, indices):
        indices = self.parameter_space.clip(indices)
        self.counter.fresh += 1
        return {"speed": 1.0 + float(indices[0]) ** 2,
                "power": 1.0 + float(indices[1]) ** 2}


@pytest.fixture
def env():
    return SizingEnv(QuadraticSimulator(),
                     config=SizingEnvConfig(max_steps=10), seed=0)


class TestReset:
    def test_starts_at_center(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        assert env.indices.tolist() == [10, 10]

    def test_observation_layout(self, env):
        obs = env.reset(target={"speed": 101.0, "power": 101.0})
        assert obs.shape == (2 * 2 + 2,)
        # middle block is the normalised target
        assert obs[2] == pytest.approx(env.specs["speed"].normalize(101.0))

    def test_random_target_without_training_set(self, env):
        env.reset()
        assert env.target is not None
        assert 1.0 <= env.target["speed"] <= 400.0

    def test_training_targets_drawn(self):
        targets = [{"speed": 50.0, "power": 300.0},
                   {"speed": 99.0, "power": 120.0}]
        env = SizingEnv(QuadraticSimulator(), training_targets=targets, seed=3)
        seen = set()
        for _ in range(20):
            env.reset()
            seen.add(env.target["speed"])
        assert seen == {50.0, 99.0}

    def test_random_start_config(self):
        env = SizingEnv(QuadraticSimulator(),
                        config=SizingEnvConfig(max_steps=5, random_start=True),
                        seed=1)
        starts = {tuple(env.reset() is not None and env.indices)
                  for _ in range(5)}
        assert len(starts) > 1


class TestStep:
    def test_step_before_reset_raises(self, env):
        with pytest.raises(TrainingError):
            env.step(np.array([1, 1]))

    def test_finish_step_before_reset_raises(self, env):
        # A raised error, not an assert: ``python -O`` strips asserts.
        with pytest.raises(TrainingError, match="before reset"):
            env.finish_step({"speed": 101.0, "power": 101.0})

    def test_target_block_follows_each_reset(self, env):
        first = {"speed": 150.0, "power": 200.0}
        second = {"speed": 50.0, "power": 300.0}
        obs = env.reset(target=first)
        assert np.array_equal(obs[2:4], env.specs.normalize(first))
        obs, _, _, _ = env.step(np.array([2, 1]))
        assert np.array_equal(obs[2:4], env.specs.normalize(first))
        obs = env.reset(target=second)
        assert np.array_equal(obs[2:4], env.specs.normalize(second))

    def test_invalid_action_rejected(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        with pytest.raises(TrainingError):
            env.step(np.array([3, 0]))

    def test_increment_decrement_semantics(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        env.step(np.array([2, 0]))  # x0 up, x1 down
        assert env.indices.tolist() == [11, 9]
        env.step(np.array([1, 1]))  # hold
        assert env.indices.tolist() == [11, 9]

    def test_boundary_clipping(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        for _ in range(15):
            env.step(np.array([2, 0]))
        assert env.indices.tolist() == [20, 0]

    def test_success_terminates_with_bonus(self, env):
        # Target already satisfied at the centre: 101 >= 100? speed=101,
        # target 90 -> met; power=101 <= 150 -> met.
        env.reset(target={"speed": 90.0, "power": 150.0})
        obs, reward, done, info = env.step(np.array([1, 1]))
        assert done
        assert info["success"]
        assert reward >= GOAL_BONUS

    def test_horizon_truncates(self, env):
        env.reset(target={"speed": 399.0, "power": 2.0})  # infeasible corner
        done = False
        steps = 0
        while not done:
            obs, reward, done, info = env.step(np.array([1, 1]))
            steps += 1
        assert steps == 10
        assert not info["success"]

    def test_reward_improves_towards_target(self, env):
        env.reset(target={"speed": 300.0, "power": 390.0})
        _, r_up, _, _ = env.step(np.array([2, 1]))     # towards more speed
        env.reset(target={"speed": 300.0, "power": 390.0})
        _, r_down, _, _ = env.step(np.array([0, 1]))   # away from it
        assert r_up > r_down

    def test_info_payload(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        _, _, _, info = env.step(np.array([2, 2]))
        assert set(info) >= {"success", "specs", "target", "indices",
                             "hard_term", "soft_term", "steps"}
        assert info["steps"] == 1

    def test_each_step_is_one_simulation(self, env):
        env.reset(target={"speed": 150.0, "power": 200.0})
        before = env.simulator.counter.total
        env.step(np.array([1, 1]))
        env.step(np.array([1, 1]))
        assert env.simulator.counter.total == before + 2
