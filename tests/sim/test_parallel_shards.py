"""Shard pool: multicore batched evaluation must reproduce the in-process
engine exactly."""

import os
import signal

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.sim.parallel import ShardPool, resolve_context, shard_count
from repro.topologies import SchematicSimulator, TwoStageOpAmp


@pytest.fixture
def shards_env(monkeypatch):
    def set_shards(n):
        monkeypatch.setenv("REPRO_SHARDS", str(n))
    return set_shards


@pytest.fixture(scope="module")
def opamp_batch():
    sim = SchematicSimulator(TwoStageOpAmp(), cache=False)
    rng = np.random.default_rng(5)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(12)])
    return sim, designs


class TestKnob:
    def test_shard_count_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert shard_count() == 4
        monkeypatch.setenv("REPRO_SHARDS", "0")
        with pytest.warns(RuntimeWarning, match=r"REPRO_SHARDS='0'.*using 1"):
            assert shard_count() == 1
        monkeypatch.setenv("REPRO_SHARDS", "banana")
        with pytest.warns(RuntimeWarning,
                          match=r"REPRO_SHARDS='banana'.*using 1"):
            assert shard_count() == 1
        monkeypatch.delenv("REPRO_SHARDS")
        assert shard_count() == 1

    def test_resolve_context(self):
        assert resolve_context("spawn") == "spawn"
        assert resolve_context() in ("fork", "spawn")

    def test_single_process_fallback_spawns_nothing(self, shards_env,
                                                    opamp_batch):
        sim, designs = opamp_batch
        shards_env(1)
        sim._pool = None
        sim.evaluate_batch(designs[:4])
        assert sim._pool is None


class TestShardedEvaluation:
    def test_bitwise_equal_to_in_process_engine(self, shards_env,
                                                opamp_batch):
        """Every shard worker must compute exactly what the in-process
        engine computes for the same work: pooled results are compared
        bitwise against the in-process batched engine run on the same
        shard decomposition."""
        sim, designs = opamp_batch
        n_shards = 3
        shards_env(n_shards)
        try:
            sharded = sim.evaluate_batch(designs)
            values = [sim.parameter_space.values(row) for row in designs]
            bounds = np.linspace(0, len(designs), n_shards + 1).astype(int)
            in_process = []
            for lo, hi in zip(bounds, bounds[1:]):
                in_process.extend(sim.topology.simulate_batch(values[lo:hi]))
            assert sharded == in_process  # bitwise: dict float equality
        finally:
            sim.close_shard_pool()

    def test_matches_full_batch_within_solver_tolerance(self, shards_env,
                                                        opamp_batch):
        """Against the undecomposed full-batch solve, results agree to
        solver tolerance (stragglers that enter the gmin/source fallback
        chains see different stacked-operand shapes)."""
        sim, designs = opamp_batch
        shards_env(1)
        base = sim.evaluate_batch(designs)
        shards_env(2)
        try:
            sharded = sim.evaluate_batch(designs)
        finally:
            sim.close_shard_pool()
        for a, b in zip(base, sharded):
            for name in a:
                assert b[name] == pytest.approx(a[name], rel=1e-6), name

    def test_pool_persists_across_calls(self, shards_env, opamp_batch):
        sim, designs = opamp_batch
        shards_env(2)
        try:
            sim.evaluate_batch(designs[:4])
            pool = sim._pool
            assert pool is not None and len(pool) == 2
            sim.evaluate_batch(designs[4:8])
            assert sim._pool is pool  # reused, not respawned
        finally:
            sim.close_shard_pool()
        assert sim._pool is None

    def test_block_regrowth_keeps_results_correct(self, shards_env):
        """Growing batches force the parent to reallocate its shared
        blocks; the workers' attachment-cache eviction must never close a
        block of the request in flight (regression: a closed block's
        buffer silently degraded to unshared memory and workers evaluated
        garbage sizings while reporting success)."""
        from repro.topologies import FiveTransistorOta

        sim = SchematicSimulator(FiveTransistorOta(), cache=False)
        rng = np.random.default_rng(8)
        designs = np.stack([sim.parameter_space.sample(rng)
                            for _ in range(200)])
        shards_env(1)
        sizes = (65, 130, 200)   # two regrowths -> four retired block names
        base = {n: sim.evaluate_batch(designs[:n]) for n in sizes}
        shards_env(2)
        try:
            for n in sizes:
                sharded = sim.evaluate_batch(designs[:n])
                for a, b in zip(base[n], sharded):
                    for name in a:
                        assert b[name] == pytest.approx(a[name], rel=1e-6)
        finally:
            sim.close_shard_pool()

    def test_pex_sharding_bitwise(self, shards_env):
        from repro.pex import PexSimulator
        from repro.pex.corners import typical_only
        from repro.topologies import NegGmOta

        pex = PexSimulator(NegGmOta, corners=typical_only(), cache=False)
        rng = np.random.default_rng(2)
        designs = np.stack([pex.parameter_space.sample(rng)
                            for _ in range(4)])
        values = [pex.parameter_space.values(row) for row in designs]
        shards_env(2)
        try:
            sharded = pex.evaluate_batch(designs)
            in_process = (pex._evaluate_fresh_batch(values[:2])
                          + pex._evaluate_fresh_batch(values[2:]))
            assert sharded == in_process
        finally:
            pex.close_shard_pool()


class TestEmptyBatch:
    def test_pool_empty_batch_round_trips(self, opamp_batch):
        """B=0 must flow through evaluate_values as a (0, n_specs) array
        with a clean 0-design report (regression: np.atleast_2d turned
        the empty batch into one garbage design row), and leave the pool
        ready for the next batch."""
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 2,
                         sim.parameter_space.names, sim.spec_space.names)
        try:
            empty = np.zeros((0, len(sim.parameter_space.names)))
            out = pool.evaluate_values(empty)
            assert out.shape == (0, len(sim.spec_space.names))
            assert pool.last_report.clean
            assert len(pool.last_report.attempts) == 0
            arr = np.array([[sim.parameter_space.values(row)[n]
                             for n in sim.parameter_space.names]
                            for row in designs[:2]])
            assert pool.evaluate_values(arr).shape == (
                2, len(sim.spec_space.names))
        finally:
            pool.close()

    def test_simulator_empty_batch(self, shards_env, opamp_batch):
        """evaluate_batch([]) returns [] with a clean 0-design report —
        in-process and through a shard pool alike."""
        sim, _ = opamp_batch
        empty = np.zeros((0, len(sim.parameter_space.names)), dtype=np.int64)
        for shards in (1, 2):
            shards_env(shards)
            try:
                assert sim.evaluate_batch(empty) == []
                assert sim.evaluate_batch([]) == []
                report = sim.last_batch_report
                assert report.clean and len(report.attempts) == 0
            finally:
                sim.close_shard_pool()


class TestWorkerFailure:
    """The supervised pool's healing contract: worker loss is invisible
    in the results (respawn + bitwise-identical re-run), never a
    teardown."""

    def _values(self, sim, designs):
        return np.array([[sim.parameter_space.values(row)[n]
                          for n in sim.parameter_space.names]
                         for row in designs])

    def test_worker_death_midbatch_heals_bitwise(self, opamp_batch):
        """SIGKILL of a shard worker mid-batch: supervision still returns
        specs bitwise-equal to the fault-free run, on a respawned
        worker, with the pool alive and the fault on the report.  The
        test drives the two halves of ``evaluate_values`` so the kill
        lands between dispatch and supervision."""
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 2,
                         sim.parameter_space.names, sim.spec_space.names)
        try:
            arr = self._values(sim, designs[:6])
            baseline = pool.evaluate_values(arr)
            # Freeze worker 0 before dispatching so it cannot answer
            # before the kill lands — the death is mid-batch for sure.
            os.kill(pool._group.processes[0].pid, signal.SIGSTOP)
            pool._dispatch_batch(arr)
            pool._group.processes[0].kill()
            out = pool._supervise()
            np.testing.assert_array_equal(out, baseline)
            report = pool.last_report
            assert not pool.closed
            assert pool.respawns >= 1
            assert report.respawns >= 1
            assert any(f.kind == "worker-death" for f in report.faults)
            assert not report.quarantined.any()
            # The healed pool keeps working.
            np.testing.assert_array_equal(pool.evaluate_values(arr),
                                          baseline)
        finally:
            pool.close()

    def test_worker_death_before_submit_heals(self, opamp_batch):
        """Submitting into a pool whose workers all died respawns them
        transparently instead of raising."""
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 2,
                         sim.parameter_space.names, sim.spec_space.names)
        try:
            arr = self._values(sim, designs[:6])
            baseline = pool.evaluate_values(arr)
            for process in pool._group.processes:
                process.kill()
                process.join(timeout=5.0)
            np.testing.assert_array_equal(pool.evaluate_values(arr),
                                          baseline)
            assert not pool.closed
            assert pool.respawns >= 2
        finally:
            pool.close()

    def test_simulator_heals_killed_workers_in_place(self, shards_env,
                                                     opamp_batch):
        """evaluate_batch survives external worker kills: the same pool
        heals and the batch completes with identical results."""
        sim, designs = opamp_batch
        shards_env(2)
        try:
            base = sim.evaluate_batch(designs[:4])
            pool = sim._pool
            for process in pool._group.processes:
                process.kill()
                process.join(timeout=5.0)
            assert sim.evaluate_batch(designs[:4]) == base
            assert sim._pool is pool and not pool.closed
            report = sim.last_batch_report
            assert report is not None and report.respawns >= 1
        finally:
            sim.close_shard_pool()


class TestPoolLifecycle:
    def test_close_idempotent_and_use_after_close(self, opamp_batch):
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 2,
                         sim.parameter_space.names, sim.spec_space.names)
        values = np.array([[v for v in sim.parameter_space.values(
            designs[0]).values()]])
        out = pool.evaluate_values(
            np.array([[sim.parameter_space.values(designs[0])[n]
                       for n in sim.parameter_space.names]]))
        assert out.shape == (1, len(sim.spec_space.names))
        pool.close()
        pool.close()
        with pytest.raises(TrainingError):
            pool.evaluate_values(values)

    def test_interrupted_batch_closes_pool(self, opamp_batch):
        """An exception escaping supervision leaves replies owed in the
        worker pipes; the pool must close rather than let them reach the
        next batch."""
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 2,
                         sim.parameter_space.names, sim.spec_space.names)
        arr = np.array([[sim.parameter_space.values(row)[n]
                         for n in sim.parameter_space.names]
                        for row in designs[:4]])

        def interrupted():
            raise KeyboardInterrupt

        pool._service = interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.evaluate_values(arr)
            assert pool.closed
        finally:
            pool.close()

    def test_worker_error_quarantines_not_kills(self, monkeypatch,
                                                opamp_batch):
        sim, _ = opamp_batch
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        pool = ShardPool(sim.shard_factory(), 1,
                         sim.parameter_space.names, sim.spec_space.names)
        try:
            with pytest.raises(TrainingError):
                # Wrong column count is rejected parent-side...
                pool.evaluate_values(np.zeros((2, 3)))
            # ...and degenerate sizings that crash the worker's solve are
            # bisected out and quarantined (NaN rows on a raw pool with
            # no failure_row) instead of raising or killing the pool.
            out = pool.evaluate_values(
                np.zeros((2, len(sim.parameter_space.names))))
            assert np.isnan(out).all()
            assert not pool.closed
        finally:
            pool.close()


@pytest.mark.slow
class TestSpawnSafety:
    def test_pool_under_spawn_start_method(self, opamp_batch):
        """Factories are picklable, so the pool works under spawn (the
        start method of fork-less platforms)."""
        sim, designs = opamp_batch
        pool = ShardPool(sim.shard_factory(), 1,
                         sim.parameter_space.names, sim.spec_space.names,
                         context="spawn")
        try:
            arr = np.array([[sim.parameter_space.values(designs[0])[n]
                             for n in sim.parameter_space.names]])
            out = pool.evaluate_values(arr)
            specs = sim.topology.simulate_batch(
                [sim.parameter_space.values(designs[0])])[0]
            expected = [specs[n] for n in sim.spec_space.names]
            np.testing.assert_array_equal(out[0], expected)
        finally:
            pool.close()
