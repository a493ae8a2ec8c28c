"""Observation/action spaces (the Gym subset the reproduction needs)."""

from __future__ import annotations

import numpy as np

from repro.errors import SpaceError


class Space:
    """Base class: a set with a shape, sampling and membership test."""

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one element of the space."""
        raise NotImplementedError

    def contains(self, x) -> bool:
        """Membership test."""
        raise NotImplementedError


class Box(Space):
    """Continuous box in R^shape with per-dimension bounds."""

    def __init__(self, low, high, shape: tuple[int, ...] | None = None):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        if shape is not None:
            low = np.broadcast_to(low, shape).copy()
            high = np.broadcast_to(high, shape).copy()
        if low.shape != high.shape:
            raise SpaceError("low/high shapes differ")
        if np.any(low > high):
            raise SpaceError("Box needs low <= high everywhere")
        self.low = low
        self.high = high
        self.shape = low.shape

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Gaussian draw clipped into the box."""
        finite = np.isfinite(self.low) & np.isfinite(self.high)
        gaussian = rng.standard_normal(self.shape)
        lo = np.where(finite, self.low, 0.0)
        hi = np.where(finite, self.high, 1.0)
        return np.where(finite, rng.uniform(lo, hi), gaussian)

    def contains(self, x) -> bool:
        """Shape and bound check."""
        x = np.asarray(x, dtype=float)
        return (x.shape == self.shape
                and bool(np.all(x >= self.low - 1e-12))
                and bool(np.all(x <= self.high + 1e-12)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Box(shape={self.shape})"


class Discrete(Space):
    """{0, 1, ..., n-1}."""

    def __init__(self, n: int):
        if n < 1:
            raise SpaceError("Discrete needs n >= 1")
        self.n = int(n)
        self.shape = ()

    def sample(self, rng: np.random.Generator) -> int:
        """Uniform integer in [0, n)."""
        return int(rng.integers(self.n))

    def contains(self, x) -> bool:
        """Integer range check."""
        try:
            xi = int(x)
        except (TypeError, ValueError):
            return False
        return 0 <= xi < self.n and float(x) == xi

    def __repr__(self) -> str:  # pragma: no cover
        return f"Discrete({self.n})"


class MultiDiscrete(Space):
    """Product of Discrete spaces; the paper's per-parameter
    {decrement, keep, increment} action space is ``MultiDiscrete([3]*N)``."""

    def __init__(self, nvec):
        self.nvec = np.asarray(nvec, dtype=np.int64)
        if self.nvec.ndim != 1 or len(self.nvec) == 0 or np.any(self.nvec < 1):
            raise SpaceError("MultiDiscrete needs a 1-D vector of sizes >= 1")
        self.shape = (len(self.nvec),)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Independent uniform integer per dimension."""
        return rng.integers(0, self.nvec)

    def contains(self, x) -> bool:
        """Per-dimension integer range check."""
        x = np.asarray(x)
        if x.shape != self.shape:
            return False
        if x.dtype.kind not in "iu":   # not a (signed or unsigned) integer
            if not (x == np.floor(x)).all():
                return False
            x = x.astype(np.int64)
        return bool((x >= 0).all() and (x < self.nvec).all())

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiDiscrete({self.nvec.tolist()})"
