"""Multiprocess vector env: parity with the in-process VectorEnv."""

import multiprocessing

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.rl import ParallelVectorEnv, PPOConfig, PPOTrainer, VectorEnv
from repro.rl.parallel import resolve_context

from tests.rl.test_ppo import BanditEnv, CorridorEnv


@pytest.fixture
def parallel_corridor():
    vec = ParallelVectorEnv([lambda i=i: CorridorEnv(i) for i in range(3)])
    yield vec
    vec.close()


class TestLifecycle:
    def test_spaces_probed_from_worker(self, parallel_corridor):
        assert parallel_corridor.observation_space.shape == (1,)
        assert list(parallel_corridor.action_space.nvec) == [3]

    def test_len(self, parallel_corridor):
        assert len(parallel_corridor) == 3

    def test_close_idempotent(self):
        vec = ParallelVectorEnv([lambda: BanditEnv()])
        vec.close()
        vec.close()

    def test_use_after_close_raises(self):
        vec = ParallelVectorEnv([lambda: BanditEnv()])
        vec.close()
        with pytest.raises(TrainingError):
            vec.reset()

    def test_context_manager(self):
        with ParallelVectorEnv([lambda: BanditEnv()]) as vec:
            assert vec.reset().shape == (1, 1)
        with pytest.raises(TrainingError):
            vec.reset()

    def test_empty_factories_rejected(self):
        with pytest.raises(TrainingError):
            ParallelVectorEnv([])

    def test_resolve_context(self):
        assert resolve_context("spawn") == "spawn"
        assert resolve_context() in ("fork", "spawn")

    def test_broken_factory_raises_training_error(self):
        """An env factory that raises kills worker 0 before it reports
        its spaces: the caller gets a TrainingError naming the worker,
        not a raw pipe error, and no worker process is left behind."""
        def broken():
            raise RuntimeError("env factory failed")

        with pytest.raises(TrainingError, match="worker 0 died"):
            ParallelVectorEnv([broken, lambda: BanditEnv()])
        assert multiprocessing.active_children() == []


class TestStepSemantics:
    def test_matches_inprocess_vector_env(self):
        """Deterministic envs must produce identical rollouts through both
        implementations."""
        serial = VectorEnv([CorridorEnv(i) for i in range(2)])
        with ParallelVectorEnv([lambda i=i: CorridorEnv(i)
                                for i in range(2)]) as parallel:
            obs_s = serial.reset()
            obs_p = parallel.reset()
            np.testing.assert_array_equal(obs_s, obs_p)
            rng = np.random.default_rng(0)
            for _ in range(40):
                actions = rng.integers(0, 3, size=(2, 1))
                s = serial.step(actions)
                p = parallel.step(actions)
                np.testing.assert_array_equal(s[0], p[0])  # obs
                np.testing.assert_array_equal(s[1], p[1])  # rewards
                np.testing.assert_array_equal(s[2], p[2])  # dones
                assert [f.reward for f in s[4]] == [f.reward for f in p[4]]
                assert [f.length for f in s[4]] == [f.length for f in p[4]]

    def test_auto_reset_and_stats(self, parallel_corridor):
        parallel_corridor.reset()
        finished = []
        for _ in range(30):
            actions = np.full((3, 1), 2)  # always walk right
            _, _, _, _, stats = parallel_corridor.step(actions)
            finished.extend(stats)
        assert finished
        assert all(f.success for f in finished)
        assert all(f.length == CorridorEnv.N for f in finished)

    def test_action_count_mismatch(self, parallel_corridor):
        parallel_corridor.reset()
        with pytest.raises(TrainingError):
            parallel_corridor.step(np.zeros((2, 1), dtype=int))

    def test_info_dicts_forwarded(self, parallel_corridor):
        parallel_corridor.reset()
        _, _, _, infos, _ = parallel_corridor.step(np.full((3, 1), 2))
        assert all("success" in info for info in infos)


class TestWorkerFailure:
    def test_worker_death_midstep_heals_with_truncated_episode(self):
        """An env worker killed mid-rollout is respawned in place: its
        slot reports one synthetic truncated episode and the vector env
        keeps stepping — never a raw pipe error, hang, or teardown."""
        vec = ParallelVectorEnv([lambda i=i: CorridorEnv(i)
                                 for i in range(3)])
        try:
            vec.reset()
            vec._group.processes[0].kill()
            vec._group.processes[0].join(timeout=5.0)
            obs, rewards, dones, infos, finished = vec.step(
                np.ones((3, 1), dtype=np.int64))
            assert obs.shape == (3, 1)
            assert dones[0] and rewards[0] == 0.0
            assert infos[0].get("worker_fault")
            assert any(f.length == 0 and not f.success for f in finished)
            assert vec.fault_events
            # The healed group keeps working (worker 0 included).
            obs, _, _, infos, _ = vec.step(np.full((3, 1), 2))
            assert not any(info.get("worker_fault") for info in infos)
        finally:
            vec.close()

    def test_worker_death_before_reset_heals(self):
        vec = ParallelVectorEnv([lambda: BanditEnv()])
        try:
            for process in vec._group.processes:
                process.kill()
                process.join(timeout=5.0)
            assert vec.reset().shape == (1, 1)
            assert len(vec.fault_events) == 1
        finally:
            vec.close()

    def test_repeatedly_dying_worker_is_fatal(self):
        """A worker that dies again without ever answering (broken
        factory) must stop the churn with a clear TrainingError."""
        vec = ParallelVectorEnv([lambda: BanditEnv()])
        vec.reset()
        vec._group.processes[0].kill()
        vec._group.processes[0].join(timeout=5.0)
        vec.step(np.zeros((1, 1), dtype=np.int64))   # healed once
        vec._group.processes[0].kill()               # dies again before
        vec._group.processes[0].join(timeout=5.0)    # any success
        with pytest.raises(TrainingError, match="twice"):
            vec.step(np.zeros((1, 1), dtype=np.int64))
        assert vec._group.closed


class TestPPOThroughParallelEnv:
    def test_bandit_learned(self):
        config = PPOConfig(n_envs=4, n_steps=16, epochs=4, minibatch_size=32,
                           lr=5e-3, hidden=(16, 16), seed=0)
        with ParallelVectorEnv([lambda i=i: BanditEnv(i)
                                for i in range(4)]) as vec:
            trainer = PPOTrainer([], config=config, vec_env=vec)
            history = trainer.train(max_iterations=30, stop_reward=0.95,
                                    stop_patience=2)
        assert history.mean_reward[-1] > 0.9

    def test_vec_env_size_checked(self):
        config = PPOConfig(n_envs=4, n_steps=8, hidden=(8,))
        with ParallelVectorEnv([lambda: BanditEnv()]) as vec:
            with pytest.raises(TrainingError):
                PPOTrainer([], config=config, vec_env=vec)
