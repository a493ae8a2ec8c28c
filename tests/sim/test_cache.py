"""Simulation cache and counters."""

import numpy as np
import pytest

from repro.sim import SimulationCache, SimulationCounter
from repro.sim.cache import sizing_key, sizing_keys
from repro.topologies import FiveTransistorOta


class TestCounter:
    def test_accumulates(self):
        c = SimulationCounter()
        c.fresh += 3
        c.cached += 2
        assert c.total == 5
        assert c.snapshot() == {"fresh": 3, "cached": 2, "total": 5}

    def test_reset(self):
        c = SimulationCounter()
        c.fresh = 7
        c.reset()
        assert c.total == 0


class TestCache:
    def test_miss_then_hit(self):
        cache = SimulationCache(maxsize=4)
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or "v")
        assert value == "v"
        value = cache.get_or_compute("k", lambda: calls.append(1) or "other")
        assert value == "v"
        assert len(calls) == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = SimulationCache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: None)   # refresh a
        cache.get_or_compute("c", lambda: 3)      # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_clear(self):
        cache = SimulationCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.hit_rate == 0.0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            SimulationCache(maxsize=0)

    def test_tuple_keys(self):
        cache = SimulationCache()
        cache.get_or_compute((1, 2, 3), lambda: "x")
        assert (1, 2, 3) in cache
        assert (1, 2, 4) not in cache


class TestKeyUnification:
    def test_one_quantizer_everywhere(self):
        space = FiveTransistorOta().parameter_space
        idx = space.center
        assert space.as_key(idx) == sizing_key(idx)
        assert sizing_key(np.asarray(idx, dtype=np.int32)) == sizing_key(idx)
        assert sizing_key([float(i) for i in idx]) == sizing_key(idx)

    def test_batch_keys_are_the_row_keys(self):
        space = FiveTransistorOta().parameter_space
        rows = np.stack([space.center, space.clip(space.center + 1)])
        keys = sizing_keys(rows)
        assert keys == [sizing_key(row) for row in rows]
        assert all(type(i) is int for key in keys for i in key)
        assert sizing_keys(rows.astype(np.int32)) == keys
        assert sizing_keys(rows[:0]) == []
