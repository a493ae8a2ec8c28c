"""Design specifications: kinds, sampling ranges and normalisation.

The paper defines the specification space as ``y in R^M`` "normalized to a
fixed range" (§II).  A :class:`Spec` describes one axis of that space: its
name, the sampling range used both for drawing random targets and for
normalising observations, whether meeting it means being above or below
the target (or inside a window), and whether it lives on a linear or
logarithmic scale (bandwidths and noise span decades; gains and phase
margins do not).

Spec kinds
----------
``LOWER_BOUND``
    Met when the measured value is >= the target (gain, UGBW, phase margin).
``UPPER_BOUND``
    Met when the measured value is <= the target (settling time, noise).
``RANGE``
    Met when the value lies inside ``[target - window, target + window]``
    style bounds; used for the negative-gm OTA's phase-margin range of
    paper §III-C/D.  The target is the window's low edge and
    ``range_width`` its extent.
``MINIMIZE``
    An upper-bound spec that is *also* softly minimised in the reward (the
    paper's o_th terms in Eq. 1) — bias current in §III-B.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from repro.errors import SpaceError


class SpecKind(enum.Enum):
    LOWER_BOUND = "lower"
    UPPER_BOUND = "upper"
    RANGE = "range"
    MINIMIZE = "minimize"

    @property
    def is_soft(self) -> bool:
        """True when the spec contributes a soft (always-on) reward term."""
        return self is SpecKind.MINIMIZE


@dataclasses.dataclass(frozen=True)
class Spec:
    """One axis of the design-specification space.

    Parameters
    ----------
    name:
        Measurement key produced by the topology (e.g. ``"gain"``).
    low, high:
        Sampling range for random targets; also the normalisation window.
    kind:
        How "meeting" the spec is judged (see module docstring).
    log_scale:
        Normalise (and sample) in log10 space; use for specs spanning
        multiple decades.
    range_width:
        Only for ``RANGE`` specs: the window extent above the sampled
        target (e.g. phase margin sampled in [60, 75] with the window being
        [target_low, high]).
    unit:
        Human-readable unit for reports.
    """

    name: str
    low: float
    high: float
    kind: SpecKind
    log_scale: bool = False
    range_width: float | None = None
    unit: str = ""

    def __post_init__(self):
        if not self.name:
            raise SpaceError("spec name must be non-empty")
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise SpaceError(f"spec {self.name}: bounds must be finite")
        if self.low >= self.high:
            raise SpaceError(f"spec {self.name}: low must be < high")
        if self.log_scale and self.low <= 0.0:
            raise SpaceError(f"spec {self.name}: log scale needs positive bounds")
        if self.kind is SpecKind.RANGE and (self.range_width is None
                                            or self.range_width <= 0.0):
            raise SpaceError(f"spec {self.name}: RANGE kind needs range_width > 0")

    # -- normalisation -------------------------------------------------------
    def normalize(self, value: float) -> float:
        """Map a raw measurement to roughly [-1, 1] over the sampling range.

        Values outside the range extrapolate linearly and are clipped to
        [-3, 3] so broken designs produce a bounded observation.
        """
        lo, hi = self.low, self.high
        if self.log_scale:
            value = math.log10(max(value, 1e-30))
            lo, hi = math.log10(lo), math.log10(hi)
        t = 2.0 * (value - lo) / (hi - lo) - 1.0
        return float(min(max(t, -3.0), 3.0))

    def denormalize(self, t: float) -> float:
        """Inverse of :meth:`normalize` (for t within [-1, 1])."""
        lo, hi = self.low, self.high
        if self.log_scale:
            lo, hi = math.log10(lo), math.log10(hi)
        value = lo + (t + 1.0) / 2.0 * (hi - lo)
        return float(10.0 ** value) if self.log_scale else float(value)

    # -- sampling -----------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one random target uniformly over the (possibly log) range."""
        if self.log_scale:
            return float(10.0 ** rng.uniform(math.log10(self.low),
                                             math.log10(self.high)))
        return float(rng.uniform(self.low, self.high))


def failure_measurements(spec_space: "SpecSpace") -> dict[str, float]:
    """Pessimistic spec values charged to designs that produced none.

    Non-convergent solves, measurement failures and designs quarantined
    after a solve fault (see :mod:`repro.sim.faults`) all pay the same
    penalty: each lower-bound spec reports far below its sampling range,
    each upper-bound/minimise spec far above it, and range specs report zero
    — so optimisers always receive a numeric, heavily penalised result
    and the reward surface stays finite.  This is the single source of
    the penalty row; :meth:`repro.topologies.base.Topology.failure_measurement`
    and ``CircuitSimulator.failure_measurements`` both delegate here.
    """
    failed: dict[str, float] = {}
    for spec in spec_space:
        if spec.kind is SpecKind.LOWER_BOUND:
            failed[spec.name] = (spec.low * 1e-3 if spec.low > 0
                                 else -abs(spec.high))
        elif spec.kind is SpecKind.RANGE:
            failed[spec.name] = 0.0
        else:
            failed[spec.name] = spec.high * 1e3
    return failed


class SpecSpace:
    """An ordered collection of :class:`Spec` axes.

    Provides vectorised normalisation for observations, uniform random
    target sampling (the paper's ``O*`` construction) and pretty reporting.
    """

    def __init__(self, specs: list[Spec] | tuple[Spec, ...]):
        if not specs:
            raise SpaceError("spec space needs at least one spec")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate spec names: {names}")
        self.specs: tuple[Spec, ...] = tuple(specs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, name: str) -> Spec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def normalize(self, values: dict[str, float]) -> np.ndarray:
        """Normalise a measurement dict into an (M,) observation slice."""
        try:
            return np.array([s.normalize(values[s.name]) for s in self.specs])
        except KeyError as missing:
            raise SpaceError(f"measurement missing spec {missing}") from None

    def sample_target(self, rng: np.random.Generator) -> dict[str, float]:
        """Draw one random target specification o*."""
        return {s.name: s.sample(rng) for s in self.specs}

    def sample_targets(self, n: int, rng: np.random.Generator) -> list[dict[str, float]]:
        """Draw ``n`` independent random targets (the paper's O* with n=50)."""
        if n < 1:
            raise SpaceError("need at least one target")
        return [self.sample_target(rng) for _ in range(n)]

    def describe_target(self, target: dict[str, float]) -> str:
        """One-line human-readable rendering of a target spec."""
        parts = []
        relation = {SpecKind.LOWER_BOUND: ">=", SpecKind.UPPER_BOUND: "<=",
                    SpecKind.RANGE: "in", SpecKind.MINIMIZE: "<="}
        for spec in self.specs:
            value = target[spec.name]
            if spec.kind is SpecKind.RANGE:
                parts.append(f"{spec.name} in [{value:.4g}, "
                             f"{value + spec.range_width:.4g}]{spec.unit}")
            else:
                parts.append(f"{spec.name} {relation[spec.kind]} "
                             f"{value:.4g}{spec.unit}")
        return ", ".join(parts)
