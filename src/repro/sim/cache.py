"""Simulation caching and counting.

The paper's headline metric is *sample efficiency*: the number of
simulator invocations needed to reach a target specification.  Every
simulator wrapper in this package routes its evaluations through a
:class:`SimulationCounter`, and optionally a :class:`SimulationCache`
(an LRU keyed on the parameter vector), so that the benchmark harness can
report exactly the quantity the paper's tables report.

Whether a cache hit counts as a simulation is a policy decision: the
genetic-algorithm baselines re-simulate duplicates in the paper (a vanilla
GA has no memo table), so counting policies are explicit here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

import numpy as np

T = TypeVar("T")


def sizing_key(indices) -> tuple[int, ...]:
    """Canonical quantized key of one sizing (a tuple of grid indices).

    The *single* quantization helper shared by every key consumer: the
    per-simulator memo (``ParameterSpace.as_key`` delegates here) and
    the batch front-end's dedupe keys.  One helper means a memo key and
    a dedupe key can never drift apart for the same sizing.
    """
    return tuple(int(i) for i in np.asarray(indices, dtype=np.int64).ravel())


def sizing_keys(indices_2d) -> list[tuple[int, ...]]:
    """:func:`sizing_key` of every row of a ``(B, P)`` index matrix, from
    one ``tolist()`` (the batch front-end's per-row key cost)."""
    return [tuple(row)
            for row in np.asarray(indices_2d, dtype=np.int64).tolist()]


class SimulationCounter:
    """Counts simulator invocations, separating fresh solves from cache hits."""

    def __init__(self):
        self.fresh = 0
        self.cached = 0

    @property
    def total(self) -> int:
        return self.fresh + self.cached

    def reset(self) -> None:
        """Zero the counters."""
        self.fresh = 0
        self.cached = 0

    def snapshot(self) -> dict[str, int]:
        """Current counts as a plain dict."""
        return {"fresh": self.fresh, "cached": self.cached,
                "total": self.total}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimulationCounter(fresh={self.fresh}, "
                f"cached={self.cached})")


class SimulationCache:
    """Bounded LRU cache for simulation results.

    >>> cache = SimulationCache(maxsize=2)
    >>> cache.get_or_compute((1, 2), lambda: "a")
    'a'
    >>> cache.hits, cache.misses
    (0, 1)
    >>> cache.get_or_compute((1, 2), lambda: "never called")
    'a'
    >>> cache.hits
    1
    """

    def __init__(self, maxsize: int = 100_000):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get_or_compute(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing and storing it on miss."""
        if key in self._data:
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]  # type: ignore[return-value]
        self.misses += 1
        value = compute()
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop every cached entry and zero the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
