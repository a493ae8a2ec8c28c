"""Deterministic fault injection and supervision records (chaos plane).

The supervised :class:`~repro.sim.parallel.ShardPool` promises that a
dead, hung or crashing worker never costs the caller a batch: the work
is retried on a respawned worker, poison designs are bisected out and
quarantined, and everything else comes back bitwise identical to the
fault-free run.  Those recovery paths are worthless untested — and
untestable with real faults, which strike nondeterministically.  This
module is the deterministic stand-in: a ``REPRO_FAULTS`` profile names
exactly which worker misbehaves, how, and on which evaluation, so the
chaos suite can pin every recovery path in ordinary unit tests.

Profile syntax (comma-separated directives)::

    REPRO_FAULTS="kill@1"            # worker 0 SIGKILLs itself on eval 1
    REPRO_FAULTS="exc@2#1"           # worker 1 raises on its 2nd eval
    REPRO_FAULTS="hang@1"            # worker 0 sleeps forever on eval 1
    REPRO_FAULTS="delay@1:0.2"       # worker 0 delays reply 1 by 0.2 s
    REPRO_FAULTS="poison@3f2a9c0d11ee"   # design digest always raises

``kill``/``exc``/``hang``/``delay`` are *event* directives: they count a
worker's ``eval`` requests (1-based) and fire once — a respawned worker
does not inherit them, otherwise recovery would re-trigger the fault
forever.  ``poison`` is a *content* directive: it follows the design
(matched by :func:`design_digest` of its sizing-value row) wherever the
supervisor moves it, which is exactly how a genuinely crashing design
behaves.  Directives default to worker 0; suffix ``#W`` targets worker
``W``.  The profile applies only to shard workers — the parent pops the
variable before evaluating in process, except for ``poison`` entries,
which the in-process recovery path honours too (so quarantine is
testable without any pool).

Alongside injection this module holds the supervision data plane shared
by the pool and the in-process fallback: :class:`SupervisorConfig` (the
``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF`` knobs),
per-fault :class:`FaultRecord` entries, the per-batch
:class:`BatchReport` that ``CircuitSimulator`` republishes as
``last_batch_report``, and the :class:`FaultStats` counters the RL
environment and the baselines fold those reports into.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import signal
import time

import numpy as np

from repro.errors import PoisonDesignFault, SolveFault, TrainingError
from repro.knobs import at_least, env_knob

#: Environment variable holding the fault-injection profile (default none).
FAULTS_ENV = "REPRO_FAULTS"

#: Environment variable: per-attempt shard deadline in seconds (0 = off).
TIMEOUT_ENV = "REPRO_TIMEOUT"

#: Environment variable: extra attempts per shard node before bisection.
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable: base backoff (seconds) between retry attempts.
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"

#: Event directive kinds (one-shot, per original worker incarnation).
_EVENT_KINDS = ("kill", "exc", "hang", "delay")


@dataclasses.dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout policy of the supervised shard pool.

    Parameters
    ----------
    timeout:
        Per-attempt deadline in seconds, measured from dispatch of a
        shard to the worker; 0 disables deadline enforcement (the
        default — healthy solves vary too much across machines for a
        universal number).
    retries:
        Extra attempts granted to each shard node before the supervisor
        bisects it (a node's children start with a fresh attempt
        budget, so an N-row shard gets O(log N) * (retries+1) chances
        before any single design is quarantined).
    backoff:
        Base sleep between attempts; attempt *k* of a node waits
        ``backoff * 2**(k-1)`` seconds (exponential).
    """

    timeout: float = 0.0
    retries: int = 2
    backoff: float = 0.05

    def __post_init__(self):
        """Reject negative policy values."""
        if self.timeout < 0 or self.retries < 0 or self.backoff < 0:
            raise TrainingError(
                "supervisor timeout/retries/backoff must be >= 0")

    @classmethod
    def from_env(cls) -> "SupervisorConfig":
        """Policy from ``REPRO_TIMEOUT``/``REPRO_RETRIES``/
        ``REPRO_RETRY_BACKOFF`` (malformed or negative values warn and
        fall back to the defaults).
        """
        return cls(timeout=env_knob(TIMEOUT_ENV, at_least(float, 0),
                                    cls.timeout),
                   retries=env_knob(RETRIES_ENV, at_least(int, 0),
                                    cls.retries),
                   backoff=env_knob(BACKOFF_ENV, at_least(float, 0),
                                    cls.backoff))

    def backoff_delay(self, attempt: int) -> float:
        """Seconds of exponential backoff before retry ``attempt``
        (1-based); 0.0 when backoff is disabled.  The shard supervisor
        turns this into a per-job ``not_before`` timestamp instead of
        sleeping, so one flaky shard's backoff never stalls replies from
        healthy workers."""
        if self.backoff > 0 and attempt >= 1:
            return self.backoff * (2.0 ** (attempt - 1))
        return 0.0


@dataclasses.dataclass(frozen=True)
class FaultDirective:
    """One parsed ``REPRO_FAULTS`` token.

    ``kind`` is one of ``kill``/``exc``/``hang``/``delay`` (event
    directives firing once on the ``at``-th eval of worker ``worker``)
    or ``poison`` (content directive matching the design whose sizing
    row hashes to ``digest``).  ``arg`` carries the delay seconds for
    ``delay`` directives.
    """

    kind: str
    at: int = 0
    worker: int = 0
    arg: float = 0.0
    digest: str = ""


def parse_fault_profile(text: str) -> tuple[FaultDirective, ...]:
    """Parse a ``REPRO_FAULTS`` profile string into directives.

    Raises :class:`TrainingError` on malformed tokens — a chaos profile
    that silently parses to nothing would make the chaos CI leg
    vacuous.
    """
    directives = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            head, _, tail = token.partition("@")
            kind = head.strip()
            if kind == "poison":
                digest = tail.strip()
                if not digest:
                    raise ValueError("poison needs a digest")
                directives.append(FaultDirective("poison", digest=digest))
                continue
            if kind not in _EVENT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
            tail, _, worker_part = tail.partition("#")
            worker = int(worker_part) if worker_part else 0
            at_part, _, arg_part = tail.partition(":")
            at = int(at_part)
            if at < 1 or worker < 0:
                raise ValueError("eval index must be >= 1, worker >= 0")
            arg = float(arg_part) if arg_part else 0.0
            if kind == "delay" and arg <= 0:
                raise ValueError("delay needs seconds, e.g. delay@1:0.2")
            directives.append(FaultDirective(kind, at=at, worker=worker,
                                             arg=arg))
        except ValueError as exc:
            raise TrainingError(
                f"bad {FAULTS_ENV} token {token!r}: {exc}") from None
    return tuple(directives)


def active_profile() -> tuple[FaultDirective, ...]:
    """Directives of the current ``REPRO_FAULTS`` value (empty if unset)."""
    raw = os.environ.get(FAULTS_ENV, "")
    if not raw.strip():
        return ()
    return parse_fault_profile(raw)


def worker_directives(profile: tuple[FaultDirective, ...], worker: int,
                      respawned: bool = False) -> tuple[FaultDirective, ...]:
    """Directives worker slot ``worker`` should enforce.

    Event directives bind to the worker's *original* incarnation only —
    a respawned worker inherits just the poison (content) directives, so
    recovery cannot re-trigger the fault that killed its predecessor.
    """
    return tuple(d for d in profile
                 if d.kind == "poison"
                 or (not respawned and d.worker == worker))


def design_digest(row: np.ndarray) -> str:
    """Content digest of one sizing-value row (12 hex chars).

    Hashes the float64 byte representation of the physical sizing
    values, so the digest follows the design through any shard
    decomposition, retry, or bisection — and is the same in process and
    in a worker.
    """
    row = np.ascontiguousarray(row, dtype=np.float64)
    return hashlib.sha1(row.tobytes()).hexdigest()[:12]


def check_poison(rows: np.ndarray,
                 directives: tuple[FaultDirective, ...]) -> None:
    """Raise :class:`PoisonDesignFault` if any row is a poisoned design."""
    poisons = {d.digest for d in directives if d.kind == "poison"}
    if not poisons:
        return
    for row in np.atleast_2d(rows):
        digest = design_digest(row)
        if digest in poisons:
            raise PoisonDesignFault(
                f"injected poison design {digest}")


class FaultInjector:
    """Per-worker fault enforcement, driven by parsed directives.

    One instance lives in each shard worker (and one in the parent for
    the in-process recovery path, poison directives only).  The worker
    loop calls :meth:`on_eval` with the sizing rows of every ``eval``
    request *before* solving; the injector counts requests, fires
    matching one-shot event directives, and checks the rows against the
    poison set.  The return value is the reply delay in seconds
    requested by a ``delay`` directive (0.0 otherwise).
    """

    def __init__(self, directives: tuple[FaultDirective, ...]):
        self._events = [d for d in directives if d.kind != "poison"]
        self._poison = tuple(d for d in directives if d.kind == "poison")
        self._count = 0

    def on_eval(self, rows: np.ndarray) -> float:
        """Apply directives for one eval request; returns reply delay."""
        self._count += 1
        delay = 0.0
        for directive in list(self._events):
            if directive.at != self._count:
                continue
            self._events.remove(directive)   # one-shot
            if directive.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif directive.kind == "hang":
                time.sleep(3600.0)
            elif directive.kind == "exc":
                raise SolveFault(
                    f"injected solve exception at eval {self._count}")
            elif directive.kind == "delay":
                delay = directive.arg
        check_poison(rows, self._poison)
        return delay


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """One supervision event: what failed, where, and what it cost.

    ``kind`` is ``"worker-death"``, ``"timeout"``, ``"solve-error"`` or
    ``"quarantine"``; ``worker`` is the shard-worker slot (-1 for the
    in-process path); ``rows`` are the affected design rows in
    fresh-batch coordinates; ``attempt`` is the attempt number that
    failed; ``detail`` carries the worker's error text when there is
    one.
    """

    kind: str
    worker: int
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
    occurrence order; ``respawns`` and ``retries`` count worker
    replacements and re-dispatches.

    Iterative-engine batches additionally account their linear solves:
    ``krylov_solves`` / ``krylov_iterations`` count preconditioned
    Krylov solves and their summed inner iterations,
    ``krylov_fallbacks`` the solves that degraded to the direct sparse
    path (non-convergence), and ``krylov_residual`` the worst relative
    true residual accepted.  All zero on the dense/sparse legs, and for
    work dispatched to shard workers (whose solve counters live in their
    own processes).
    """

    n_designs: int
    faults: list[FaultRecord] = dataclasses.field(default_factory=list)
    respawns: int = 0
    retries: int = 0
    attempts: np.ndarray = None
    latency: np.ndarray = None
    quarantined: np.ndarray = None
    krylov_solves: int = 0
    krylov_iterations: int = 0
    krylov_fallbacks: int = 0
    krylov_residual: float = 0.0

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
        return (not self.faults and self.respawns == 0
                and self.retries == 0 and not self.quarantined.any())

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
        out = BatchReport(n_designs, respawns=self.respawns,
                          retries=self.retries,
                          krylov_solves=self.krylov_solves,
                          krylov_iterations=self.krylov_iterations,
                          krylov_fallbacks=self.krylov_fallbacks,
                          krylov_residual=self.krylov_residual)
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

    A plain ``faults`` / ``retries`` / ``respawns`` / ``quarantined``
    count dict; :meth:`absorb` adds one :class:`BatchReport` to it.
    Absorbing is guarded by report identity: an evaluation that
    publishes no new report (a scalar ``evaluate``) leaves the previous
    one in place, and reading it again must not double-count its
    faults.
    """

    def __init__(self):
        super().__init__(faults=0, retries=0, respawns=0, quarantined=0)
        self._seen = None

    def absorb(self, report: BatchReport | None) -> None:
        """Fold ``report`` in (no-op for None or the report last seen)."""
        if report is None or report is self._seen:
            return
        self._seen = report
        self["faults"] += len(report.faults)
        self["retries"] += report.retries
        self["respawns"] += report.respawns
        self["quarantined"] += report.n_quarantined
