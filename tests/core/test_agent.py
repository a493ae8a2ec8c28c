"""AutoCkt facade: training loop wiring (fake simulator for speed)."""

import numpy as np
import pytest

from repro.core import AutoCkt, AutoCktConfig, SizingEnvConfig
from repro.errors import TrainingError
from repro.rl.ppo import PPOConfig

from tests.core.test_env import QuadraticSimulator


def _tiny_config(**kw):
    base = dict(
        ppo=PPOConfig(n_envs=4, n_steps=20, epochs=4, minibatch_size=32,
                      lr=3e-3, hidden=(16, 16), seed=0),
        env=SizingEnvConfig(max_steps=12),
        n_train_targets=20,
        max_iterations=40,
        stop_reward=5.0,
        stop_patience=2,
        seed=0,
    )
    base.update(kw)
    return AutoCktConfig(**base)


@pytest.fixture(scope="module")
def trained_agent():
    agent = AutoCkt(QuadraticSimulator, config=_tiny_config())
    agent.train()
    return agent


class TestTraining:
    def test_learns_the_quadratic_task(self, trained_agent):
        history = trained_agent.history
        assert history.final_mean_reward > 0.0
        assert trained_agent.training_env_steps > 0

    def test_deploy_beats_random(self, trained_agent):
        from repro.baselines import random_agent_deployment
        targets = trained_agent.sampler.fresh_targets(40, seed=5)
        trained = trained_agent.deploy(targets, seed=5)
        random = random_agent_deployment(QuadraticSimulator(), targets,
                                         max_steps=12, seed=5)
        assert trained.generalization > random.generalization

    def test_deploy_with_int_samples_fresh(self, trained_agent):
        report = trained_agent.deploy(10, seed=11)
        assert report.n_targets == 10

    def test_describe(self, trained_agent):
        text = trained_agent.describe()
        assert "2 specs" in text
        assert "trained" in text

    def test_cardinality(self, trained_agent):
        assert trained_agent.action_space_cardinality() == 21 * 21


class TestPersistence:
    def test_save_load_roundtrip(self, trained_agent, tmp_path):
        path = str(tmp_path / "agent.npz")
        trained_agent.save_policy(path)
        fresh = AutoCkt(QuadraticSimulator, config=_tiny_config())
        fresh.load_policy(path)
        targets = trained_agent.sampler.fresh_targets(20, seed=3)
        a = trained_agent.deploy(targets, seed=3, deterministic=True)
        b = fresh.deploy(targets, seed=3, deterministic=True)
        assert a.n_reached == b.n_reached

    def test_deploy_before_train_raises(self):
        agent = AutoCkt(QuadraticSimulator, config=_tiny_config())
        with pytest.raises(TrainingError):
            agent.deploy(5)

    def test_save_before_train_raises(self, tmp_path):
        agent = AutoCkt(QuadraticSimulator, config=_tiny_config())
        with pytest.raises(TrainingError):
            agent.save_policy(str(tmp_path / "x.npz"))


class TestFaultAccounting:
    def test_quarantined_design_lands_in_trainer_fault_stats(self):
        """A design quarantined on the default lockstep rollout path must
        show up in ``PPOTrainer.fault_stats``, not vanish silently.

        A clean run records the first rollout batch; its first design
        off the grid centre (the reset point, memo-cached before any
        batch) is then poisoned: the second run's batched engine raises
        whenever a batch holds it.  The first batch is identical in the
        second run, so the poisoned design is evaluated and quarantined.
        """
        from repro.errors import EvaluationFault
        from repro.topologies import FiveTransistorOta, SchematicSimulator

        cfg = AutoCktConfig(max_iterations=1, stop_reward=None,
                            env=SizingEnvConfig(max_steps=3),
                            n_train_targets=3)
        cfg.ppo.n_envs, cfg.ppo.n_steps, cfg.ppo.epochs = 3, 3, 1
        batches = []

        class Recording(SchematicSimulator):
            def evaluate_batch(self, indices_2d):
                batches.append(np.array(indices_2d))
                return super().evaluate_batch(indices_2d)

        clean = AutoCkt(lambda: Recording(FiveTransistorOta()), config=cfg)
        clean.train()
        assert clean.trainer.fault_stats.get("quarantined", 0) == 0
        space = clean.parameter_space
        row = next(r for r in batches[0]
                   if not np.array_equal(r, space.center))
        poisoned_values = space.values(row)

        class Poisoned(SchematicSimulator):
            def _inprocess_batch(self, values_list):
                if poisoned_values in values_list:
                    raise EvaluationFault("injected solve fault")
                return super()._inprocess_batch(values_list)

        poisoned = AutoCkt(lambda: Poisoned(FiveTransistorOta()), config=cfg)
        poisoned.train()
        assert poisoned.trainer.fault_stats["quarantined"] >= 1
        assert poisoned.trainer.fault_stats["faults"] >= 1
