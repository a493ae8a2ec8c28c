"""evaluate_batch must match looped evaluate spec for spec."""

import numpy as np
import pytest

from repro.topologies import (
    FiveTransistorOta,
    NegGmOta,
    SchematicSimulator,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)


@pytest.mark.parametrize("topo_cls", [TwoStageOpAmp, FiveTransistorOta,
                                      NegGmOta, TransimpedanceAmplifier])
def test_batch_matches_looped_evaluate(topo_cls):
    """Spec-for-spec agreement between the stacked engine and cold
    sequential evaluation (both paths converge to |F| < itol, so specs
    agree to solver tolerance)."""
    sim = SchematicSimulator(topo_cls(), cache=False)
    rng = np.random.default_rng(42)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(10)])
    batch = sim.evaluate_batch(designs)
    for row, batched in zip(designs, batch):
        sim.topology.reset_warm_start()
        scalar = sim.evaluate(row)
        assert set(batched) == set(scalar)
        for name in scalar:
            assert batched[name] == pytest.approx(scalar[name], rel=2e-3), (
                topo_cls.__name__, name)


def test_batch_counts_simulations():
    sim = SchematicSimulator(TwoStageOpAmp(), cache=False)
    rng = np.random.default_rng(0)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(6)])
    sim.reset_counter()
    sim.evaluate_batch(designs)
    assert sim.counter.fresh == 6
    assert sim.counter.cached == 0


def test_batch_uses_and_fills_cache():
    sim = SchematicSimulator(TwoStageOpAmp(), cache=True)
    rng = np.random.default_rng(1)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(5)])
    sim.reset_counter()
    first = sim.evaluate_batch(designs)
    assert sim.counter.snapshot() == {"fresh": 5, "cached": 0, "total": 5}
    second = sim.evaluate_batch(designs)
    assert sim.counter.snapshot() == {"fresh": 5, "cached": 5, "total": 10}
    for a, b in zip(first, second):
        assert a == b


def test_batch_duplicate_rows_count_like_sequential_cache_hits():
    sim = SchematicSimulator(TwoStageOpAmp(), cache=True)
    row = sim.parameter_space.center
    sim.reset_counter()
    results = sim.evaluate_batch(np.stack([row, row, row]))
    assert sim.counter.fresh == 1
    assert sim.counter.cached == 2
    assert results[0] == results[1] == results[2]


def test_uncached_duplicate_rows_each_charged_fresh():
    """Without the memo there is no dedupe: the historical uncached
    policy solves (and charges) every row, duplicates included."""
    sim = SchematicSimulator(FiveTransistorOta(), cache=False)
    designs = np.stack([sim.parameter_space.center] * 3)
    results = sim.evaluate_batch(designs)
    assert sim.counter.snapshot() == {"fresh": 3, "cached": 0, "total": 3}
    assert results[0] == results[1] == results[2]


def test_default_loop_for_simulators_without_batch_engine():
    """CircuitSimulator's default evaluate_batch is the sequential loop —
    any simulator (e.g. PexSimulator) accepts batch calls."""
    from repro.pex import PexSimulator
    from repro.pex.corners import typical_only

    pex = PexSimulator(FiveTransistorOta, corners=typical_only(),
                       cache=False)
    rng = np.random.default_rng(3)
    designs = np.stack([pex.parameter_space.sample(rng) for _ in range(2)])
    batch = pex.evaluate_batch(designs)
    assert len(batch) == 2
    for row, spec in zip(designs, batch):
        assert set(spec) == set(pex.spec_space.names)


def test_vector_env_batched_stepping_matches_sequential():
    """VectorEnv with a shared batch simulator must produce the same
    rollouts as per-env sequential stepping."""
    from repro.core.env import SizingEnv, SizingEnvConfig
    from repro.rl.env import VectorEnv

    def make(batch_sim):
        sims = batch_sim or [
            SchematicSimulator(FiveTransistorOta(), cache=True)
            for _ in range(3)]
        if batch_sim:
            envs = [SizingEnv(batch_sim, training_targets=None,
                              config=SizingEnvConfig(max_steps=4), seed=i)
                    for i in range(3)]
        else:
            envs = [SizingEnv(s, training_targets=None,
                              config=SizingEnvConfig(max_steps=4), seed=i)
                    for i, s in enumerate(sims)]
        return envs

    shared = SchematicSimulator(FiveTransistorOta(), cache=True)
    batched = VectorEnv(make(shared), batch_simulator=shared)
    sequential = VectorEnv(make(None))
    rng = np.random.default_rng(0)
    obs_b = batched.reset()
    obs_s = sequential.reset()
    np.testing.assert_allclose(obs_b, obs_s, rtol=1e-9)
    for _ in range(4):
        actions = rng.integers(0, 3, size=(3, len(batched.action_space.nvec)))
        ob, rb, db, ib, _ = batched.step(actions)
        os_, rs, ds, is_, _ = sequential.step(actions)
        np.testing.assert_allclose(rb, rs, rtol=1e-5, atol=1e-9)
        np.testing.assert_array_equal(db, ds)
