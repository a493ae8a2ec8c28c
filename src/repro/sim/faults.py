"""Supervision records of batched evaluation.

``CircuitSimulator`` evaluates every batch of fresh designs in process
and isolates a design whose solve faults by bisection: the faulting
design is quarantined (charged the simulator's pessimistic
``failure_measurements()``) and the rest of the batch keeps its normal
results.  This module holds the records of that supervision:
per-fault :class:`FaultRecord` entries, the per-batch
:class:`BatchReport` that ``CircuitSimulator`` publishes as
``last_batch_report``, and the :class:`FaultStats` counters the RL
environment and the baselines fold those reports into.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """One supervision event: what failed, where, and what it cost.

    ``kind`` is ``"solve-error"`` (a sub-batch raised and was
    bisected) or ``"quarantine"`` (a single design kept failing and was
    charged failure measurements); ``rows`` are the affected design rows
    in fresh-batch coordinates; ``attempt`` is the attempt number that
    failed; ``detail`` carries the error text when there is one.
    """

    kind: str
    rows: tuple[int, ...]
    attempt: int
    detail: str = ""


@dataclasses.dataclass
class BatchReport:
    """Structured supervision record for one batched evaluation.

    Arrays are indexed by design row: ``attempts`` counts solve
    attempts that touched the row (1 = clean first try), ``latency``
    is seconds from submit to the row's final result, and
    ``quarantined`` marks rows charged pessimistic failure
    measurements.  ``faults`` lists every supervision event in
    occurrence order; ``retries`` counts the bisections (each re-runs a
    failed sub-batch as two halves).
    """

    n_designs: int
    faults: list[FaultRecord] = dataclasses.field(default_factory=list)
    retries: int = 0
    attempts: np.ndarray = None
    latency: np.ndarray = None
    quarantined: np.ndarray = None

    def __post_init__(self):
        """Allocate the per-row arrays when not provided."""
        if self.attempts is None:
            self.attempts = np.zeros(self.n_designs, dtype=np.int64)
        if self.latency is None:
            self.latency = np.zeros(self.n_designs, dtype=np.float64)
        if self.quarantined is None:
            self.quarantined = np.zeros(self.n_designs, dtype=bool)

    @property
    def clean(self) -> bool:
        """True when the batch saw no fault of any kind."""
        return (not self.faults and self.retries == 0
                and not self.quarantined.any())

    @property
    def n_quarantined(self) -> int:
        """Number of designs charged failure measurements."""
        return int(self.quarantined.sum())

    def translate(self, row_map: dict[int, list[int]],
                  n_designs: int) -> "BatchReport":
        """Re-index a fresh-batch report into caller-batch coordinates.

        The cache front-end dedupes before evaluation, so fresh row
        ``i`` may serve several caller rows; ``row_map`` maps each fresh
        row to its caller rows.  Rows served purely from cache keep
        zeroed entries (they were never at risk).
        """
        out = BatchReport(n_designs, retries=self.retries)
        for i in range(self.n_designs):
            for r in row_map.get(i, ()):
                out.attempts[r] = self.attempts[i]
                out.latency[r] = self.latency[i]
                out.quarantined[r] = self.quarantined[i]
        for fault in self.faults:
            rows = tuple(sorted(r for i in fault.rows
                                for r in row_map.get(i, ())))
            out.faults.append(dataclasses.replace(fault, rows=rows))
        return out


class FaultStats(dict):
    """Cumulative supervision counters folded from successive reports.

    A plain ``faults`` / ``retries`` / ``quarantined``
    count dict; :meth:`absorb` adds one :class:`BatchReport` to it.
    Absorbing is guarded by report identity: an evaluation that
    publishes no new report (a scalar ``evaluate``) leaves the previous
    one in place, and reading it again must not double-count its
    faults.
    """

    def __init__(self):
        super().__init__(faults=0, retries=0, quarantined=0)
        self._seen = None

    def absorb(self, report: BatchReport | None) -> None:
        """Fold ``report`` in (no-op for None or the report last seen)."""
        if report is None or report is self._seen:
            return
        self._seen = report
        self["faults"] += len(report.faults)
        self["retries"] += report.retries
        self["quarantined"] += report.n_quarantined
