"""Exception hierarchy for the AutoCkt reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch framework problems without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class NetlistError(ReproError):
    """Malformed netlist: unknown nodes, duplicate names, bad element values."""


class ConvergenceError(ReproError):
    """A nonlinear solve (DC operating point, transient step) failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class AnalysisError(ReproError):
    """An analysis (AC, noise, transient) was asked for something impossible,
    e.g. a sweep with no points or a transfer function from a missing node."""


class MeasurementError(ReproError):
    """A spec could not be extracted from simulation data (e.g. the gain never
    crosses unity so no UGBW exists)."""


class TopologyError(ReproError):
    """A circuit topology was built with out-of-range or ill-shaped parameters."""


class SpaceError(ReproError):
    """An RL space was constructed or sampled inconsistently."""


class TrainingError(ReproError):
    """RL training could not proceed (bad config, empty rollout, NaN loss)."""


class EvaluationFault(TrainingError):
    """A batched evaluation hit a solve fault rather than a configuration
    error.

    Subclasses :class:`TrainingError` so every caller that catches
    training failures keeps working.  ``CircuitSimulator`` bisects a
    batch that raises it until the faulting design is isolated, and
    quarantines that design with pessimistic ``failure_measurements()``
    while the rest of the batch keeps its normal results.
    """


class LvsError(ReproError):
    """Layout-versus-schematic comparison failed structurally (not a mismatch
    verdict, which is a normal result, but an inability to run the check)."""
