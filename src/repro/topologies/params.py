"""Discretised parameter grids.

The paper writes every action space in ``[start, end, increment]`` array
notation — e.g. transistor width ``[2, 10, 2] * um`` — and the agent moves
on the resulting integer grid.  :class:`GridParam` is one such axis;
:class:`ParameterSpace` is the product grid with index/value conversions,
the centre starting point (the paper initialises every trajectory at grid
centre K/2), and the cardinality the paper quotes (10^14 for the two-stage
op-amp).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import TopologyError


@dataclasses.dataclass(frozen=True)
class GridParam:
    """One discretised design parameter: ``values = start, start+step, ..., stop``.

    ``scale`` multiplies the grid values into SI units (e.g. ``1e-6`` for a
    grid expressed in micrometres), keeping topology definitions readable
    in the paper's own notation.
    """

    name: str
    start: float
    stop: float
    step: float
    scale: float = 1.0
    unit: str = ""

    def __post_init__(self):
        if not self.name:
            raise TopologyError("parameter name must be non-empty")
        if self.step <= 0.0:
            raise TopologyError(f"param {self.name}: step must be positive")
        if self.stop < self.start:
            raise TopologyError(f"param {self.name}: stop < start")

    @property
    def count(self) -> int:
        """Number of grid points K."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def value(self, index: int) -> float:
        """Physical (SI) value at grid ``index``; raises on out-of-range."""
        if not 0 <= index < self.count:
            raise TopologyError(
                f"param {self.name}: index {index} outside [0, {self.count})")
        return (self.start + index * self.step) * self.scale

    def index_of(self, value: float) -> int:
        """Nearest grid index for a physical value (clipped to the grid)."""
        raw = (value / self.scale - self.start) / self.step
        return int(np.clip(round(raw), 0, self.count - 1))

    @property
    def center_index(self) -> int:
        """The paper's K/2 starting point."""
        return self.count // 2

    def all_values(self) -> np.ndarray:
        """All physical values on the grid."""
        return (self.start + np.arange(self.count) * self.step) * self.scale


class ParameterSpace:
    """The product grid of several :class:`GridParam` axes."""

    def __init__(self, params: list[GridParam] | tuple[GridParam, ...]):
        if not params:
            raise TopologyError("parameter space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise TopologyError(f"duplicate parameter names: {names}")
        self.params: tuple[GridParam, ...] = tuple(params)
        self.counts = np.array([p.count for p in self.params], dtype=np.int64)
        self._last = self.counts - 1
        # Vectorised value conversion (the per-evaluation hot path).
        self._starts = np.array([p.start for p in self.params])
        self._steps = np.array([p.step for p in self.params])
        self._scales = np.array([p.scale for p in self.params])
        self._names = tuple(p.name for p in self.params)

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names, in grid order."""
        return tuple(p.name for p in self.params)

    def __len__(self) -> int:
        return len(self.params)

    def __iter__(self):
        return iter(self.params)

    def __getitem__(self, name: str) -> GridParam:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(name)

    @property
    def cardinality(self) -> int:
        """Total number of sizings (the paper quotes ~1e14 for the op-amp)."""
        return int(np.prod(self.counts.astype(object)))

    @property
    def center(self) -> np.ndarray:
        """Centre start indices (paper: parameters initialised to K/2)."""
        return np.array([p.center_index for p in self.params], dtype=np.int64)

    def clip(self, indices: np.ndarray) -> np.ndarray:
        """Clip an index vector onto the grid (the paper's boundary rule)."""
        return np.minimum(np.maximum(np.asarray(indices, dtype=np.int64), 0),
                          self._last)

    def contains(self, indices: np.ndarray) -> bool:
        """True when ``indices`` is a valid on-grid index vector."""
        indices = np.asarray(indices)
        return (indices.shape == (len(self),)
                and bool(np.all(indices >= 0))
                and bool(np.all(indices < self.counts)))

    def values(self, indices: np.ndarray
               ) -> dict[str, float] | list[dict[str, float]]:
        """Physical values for an index vector, as a ``name -> value``
        dict; for a ``(B, P)`` index matrix, one dict per row (one array
        expression and one range check for the whole batch)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.shape[-1:] != (len(self),) or indices.ndim > 2:
            raise TopologyError(
                f"index vector has shape {indices.shape}, expected "
                f"({len(self)},) or (B, {len(self)})")
        if np.any(indices < 0) or np.any(indices >= self.counts):
            raise TopologyError(f"indices {indices} outside the grid")
        vals = ((self._starts + indices * self._steps) * self._scales).tolist()
        if indices.ndim == 1:
            return dict(zip(self._names, vals))
        return [dict(zip(self._names, row)) for row in vals]

    def indices_of(self, values: dict[str, float]) -> np.ndarray:
        """Nearest index vector for a dict of physical values."""
        try:
            return np.array([p.index_of(values[p.name]) for p in self.params],
                            dtype=np.int64)
        except KeyError as missing:
            raise TopologyError(f"values missing parameter {missing}") from None

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform random index vector (used by the GA baselines)."""
        return rng.integers(0, self.counts)

    def normalize(self, indices: np.ndarray) -> np.ndarray:
        """Map an index vector to [-1, 1]^N for observations."""
        indices = np.asarray(indices, dtype=float)
        span = np.maximum(self.counts - 1, 1)
        return 2.0 * indices / span - 1.0

    def as_key(self, indices: np.ndarray) -> tuple[int, ...]:
        """Hashable cache key for an index vector.

        Delegates to :func:`repro.sim.cache.sizing_key` — the one
        quantization helper shared with the batch dedupe keys, so the
        two can never drift apart.
        """
        from repro.sim.cache import sizing_key
        return sizing_key(indices)
