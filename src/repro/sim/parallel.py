"""Multicore batch-evaluation sharding (the production-scale axis).

The batched engine amortises Python/numpy dispatch within one process;
this module spreads stacked evaluation across *processes*.  A
:class:`ShardPool` owns N persistent workers, each holding its own
simulator replica built from a picklable factory (spawn-safe — nothing
relies on forked closures).  Work travels through
``multiprocessing.shared_memory`` blocks: the parent writes the stacked
sizing-value array into one block, workers write their spec rows into
another, and only tiny ``("eval", bounds)`` control messages cross the
pipes — no per-call pickling of the stacked arrays.

The knob is the ``REPRO_SHARDS`` environment variable (default 1 =
single-process, no workers are ever spawned).  ``CircuitSimulator``
consults it inside ``evaluate_batch``, so ``VectorEnv`` rollouts, the
CEM/GA/random-search population loops and plain batched evaluation all
scale across cores without code changes; results are bitwise identical
to the in-process engine because every worker runs the same batched
solve from the same canonical warm seeds.

:meth:`ShardPool.evaluate_values` is the one entry point: one batch
in, one spec array out, with exactly one batch in flight.  The pool
keeps a single shared block pair, grown when a larger batch arrives.

Failure contract (the supervised pool): a worker that dies mid-batch
(OOM, native crash, SIGKILL) is detected while the batch is supervised
— the supervisor respawns the worker slot, re-queues everything the
dead worker still owed, and re-runs the lost shard.  Because every worker
computes from the same canonical warm seeds, the re-run is bitwise
identical to what the dead worker would have produced, so callers never
see the fault in their results.  A shard that *keeps* failing is
bisected until the offending design is isolated and quarantined: its
spec row is charged the simulator's pessimistic
``failure_measurements()`` (the same penalty a non-convergent design
pays) and the rest of the batch completes normally.  Per-attempt
deadlines (``REPRO_TIMEOUT``) turn hangs into retryable timeouts; retry
counts and backoff come from ``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF``
(:class:`~repro.sim.faults.SupervisorConfig`).  Every supervision event
is recorded on the batch's :class:`~repro.sim.faults.BatchReport`
(:attr:`ShardPool.last_report`).  Only unrecoverable infrastructure
failures (a worker slot that cannot be respawned, protocol corruption)
still tear the pool down.

Deterministic chaos testing rides the same wire: the ``REPRO_FAULTS``
profile (:mod:`repro.sim.faults`) tells a specific worker to kill
itself, hang, delay or raise on a specific eval request, so every
recovery path above is pinned by ordinary unit tests.

:class:`WorkerGroup` is the generic pipe/process plumbing, shared with
:class:`repro.rl.parallel.ParallelVectorEnv`; it owns per-slot
:meth:`WorkerGroup.respawn` and an always-clean idempotent
:meth:`WorkerGroup.close`.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import math
import multiprocessing as mp
import os
import time
import weakref
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from repro.errors import TrainingError
from repro.knobs import at_least, env_knob
from repro.sim.faults import (FAULTS_ENV, BatchReport, FaultInjector,
                              FaultRecord, SupervisorConfig, active_profile,
                              worker_directives)

#: Environment variable selecting the worker count (1 = in-process).
SHARDS_ENV = "REPRO_SHARDS"

#: Seconds a (re)spawned worker gets to report ready before the pool
#: declares the slot unrecoverable (generous: spawn-method workers
#: re-import the package from scratch).
_HANDSHAKE_TIMEOUT = 120.0


def shard_count() -> int:
    """Worker count requested via ``REPRO_SHARDS`` (>= 1; anything else
    warns and runs in-process)."""
    return env_knob(SHARDS_ENV, at_least(int, 1), 1)


def resolve_context(name: str | None = None) -> str:
    """Pick a multiprocessing start method.

    ``fork`` where the platform offers it (cheapest, tolerates closure
    factories), ``spawn`` otherwise — and any explicit ``fork`` request is
    downgraded to ``spawn`` on fork-less platforms instead of failing.
    """
    available = mp.get_all_start_methods()
    if name:
        if name == "fork" and "fork" not in available:
            return "spawn"
        return name
    return "fork" if "fork" in available else "spawn"


class WorkerGroup:
    """Daemon worker processes, one pipe each, with orderly shutdown.

    The shared plumbing behind :class:`ShardPool` and
    :class:`repro.rl.parallel.ParallelVectorEnv`: workers receive
    ``(pipe_end, *args)`` and speak a ``(command, payload)`` protocol in
    which ``("close", None)`` is answered once and ends the worker.
    ``args_list`` must be picklable under the resolved start method.

    The group keeps its spawn recipe, so a supervisor can
    :meth:`respawn` a dead slot in place; :meth:`close` is idempotent
    and never raises on already-dead children (every per-worker step is
    individually guarded, with a terminate/kill escalation for stuck or
    hung workers).
    """

    def __init__(self, target, args_list, context: str | None = None):
        if not args_list:
            raise TrainingError("WorkerGroup needs at least one worker")
        self._target = target
        self._args_list = list(args_list)
        self._ctx = mp.get_context(resolve_context(context))
        self.remotes = []
        self.processes = []
        for args in self._args_list:
            remote, process = self._spawn(args)
            self.remotes.append(remote)
            self.processes.append(process)
        self.closed = False

    def _spawn(self, args):
        """Start one worker process; returns its (remote, process)."""
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(target=self._target,
                                    args=(child, *args), daemon=True)
        process.start()
        child.close()
        return parent, process

    def __len__(self) -> int:
        return len(self.remotes)

    def respawn(self, index: int, args=None):
        """Replace worker ``index`` with a fresh process (same recipe).

        The old process is reaped (terminate, then kill if stuck) and
        its pipe closed — any replies it buffered die with the pipe, so
        a respawned slot can never deliver stale acknowledgements.
        ``args`` optionally replaces the slot's spawn arguments (the
        shard supervisor uses this to strip one-shot fault directives
        from replacement workers).  Returns the new parent pipe end.
        """
        if self.closed:
            raise TrainingError("cannot respawn a worker in a closed group")
        try:
            self.remotes[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._reap(self.processes[index])
        if args is not None:
            self._args_list[index] = args
        remote, process = self._spawn(self._args_list[index])
        self.remotes[index] = remote
        self.processes[index] = process
        return remote

    @staticmethod
    def _reap(process) -> None:
        """Join a worker process, escalating terminate -> kill."""
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - stuck worker guard
            process.kill()
            process.join(timeout=2.0)

    def close(self) -> None:
        """Shut every worker down and reap it (idempotent, never raises).

        Every per-worker step is guarded individually: a child that
        already died (so its pipe raises on send), never answers the
        close handshake (hung in a solve), or ignores SIGTERM cannot
        prevent the remaining workers from being torn down cleanly.
        """
        if self.closed:
            return
        self.closed = True
        for remote in self.remotes:
            try:
                remote.send(("close", None))
            except (BrokenPipeError, OSError):
                continue
        for remote in self.remotes:
            try:
                if remote.poll(1.0):   # hung workers never answer
                    remote.recv()
            except (EOFError, OSError):
                pass
            try:
                remote.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for process in self.processes:
            self._reap(process)


def _attach(cache: dict, name: str) -> shared_memory.SharedMemory:
    """Worker-side shared-memory attachment, cached by block name.

    The parent owns the block lifecycle (create/unlink); workers only
    attach and close.  Worker-side attachment must not reach any resource
    tracker: depending on spawn order the worker either shares the
    parent's tracker (whose registry the parent's ``unlink`` retires
    exactly once) or runs its own (which would mistake the parent's live
    block for a leak at worker exit) — so registration is suppressed for
    the duration of the attach (Python < 3.13 lacks ``track=False``)."""
    shm = cache.get(name)
    if shm is None:
        from multiprocessing import resource_tracker
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        cache[name] = shm
    return shm


def _attach_pair(cache: dict, in_name: str, out_name: str):
    """Attach the request's block pair, closing any retired block.

    The parent keeps one block pair and replaces it only to grow it, and
    a batch completes before the next is dispatched — so every cached
    name absent from the current request belongs to a retired pair.
    The current pair is never closed: a closed block's ``.buf`` is gone,
    and ``np.ndarray`` over it would silently read unshared memory."""
    for name in [n for n in cache if n not in (in_name, out_name)]:
        cache.pop(name).close()
    return _attach(cache, in_name), _attach(cache, out_name)


def _shard_worker(remote, worker_index, factory, param_names, spec_names,
                  directives=()) -> None:
    """Worker loop: one simulator replica, evaluates value-array shards.

    Each ``eval`` request is tagged with a parent-issued ``req_id`` that
    is echoed in the ``("ok", req_id)`` / ``("error", (req_id, text))``
    reply, so the supervisor can sanity-check reply/job pairing across
    respawns.  Fault injection (``directives``, parsed from the parent's
    ``REPRO_FAULTS`` profile) runs through a
    :class:`~repro.sim.faults.FaultInjector` before each solve; the
    worker's own environment copy of the profile is dropped so nested
    evaluation never double-injects.
    """
    os.environ[SHARDS_ENV] = "1"    # no nested sharding in workers
    os.environ.pop(FAULTS_ENV, None)   # injection comes via directives
    simulator = factory()
    injector = FaultInjector(tuple(directives))
    remote.send(("ready", tuple(simulator.spec_space.names)))
    attachments: dict[str, shared_memory.SharedMemory] = {}
    P, S = len(param_names), len(spec_names)
    try:
        while True:
            cmd, payload = remote.recv()
            if cmd == "eval":
                req_id, in_name, out_name, lo, hi, B = payload
                try:
                    shm_in, shm_out = _attach_pair(attachments, in_name,
                                                   out_name)
                    vals = np.ndarray((B, P), dtype=np.float64,
                                      buffer=shm_in.buf)
                    out = np.ndarray((B, S), dtype=np.float64,
                                     buffer=shm_out.buf)
                    delay = injector.on_eval(vals[lo:hi])
                    values_list = [
                        {name: float(v) for name, v in zip(param_names, row)}
                        for row in vals[lo:hi]]
                    # The raw engine, not the recovering wrapper: faults
                    # escape to the parent supervisor, which owns retry,
                    # bisection and quarantine policy.
                    specs = simulator._inprocess_batch(values_list)
                    for r, spec in zip(range(lo, hi), specs):
                        out[r] = [spec[name] for name in spec_names]
                    if delay > 0:
                        time.sleep(delay)
                    remote.send(("ok", req_id))
                except Exception as exc:  # surface, don't kill the pool
                    remote.send(("error",
                                 (req_id, f"{type(exc).__name__}: {exc}")))
            elif cmd == "close":
                remote.send(None)
                break
            else:  # pragma: no cover - protocol misuse guard
                raise RuntimeError(f"unknown command {cmd!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass
    finally:
        for shm in attachments.values():
            shm.close()
        remote.close()


class _BlockPair:
    """One shared-memory (values-in, specs-out) block pair.

    A :class:`ShardPool` keeps one pair for its batches and replaces it
    only when a batch outgrows its capacity."""

    def __init__(self, n_params: int, n_specs: int, rows: int):
        self.cap_rows = rows
        self.shm_in = shared_memory.SharedMemory(
            create=True, size=rows * n_params * 8)
        self.shm_out = shared_memory.SharedMemory(
            create=True, size=rows * n_specs * 8)

    def release(self) -> None:
        """Close and unlink both blocks (idempotent per block)."""
        for shm in (self.shm_in, self.shm_out):
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class _ShardJob:
    """One dispatched contiguous row range ``[lo, hi)`` of the batch.

    Jobs are the supervisor's unit of retry: a worker death, timeout or
    solve error fails exactly one job, which is then re-dispatched (with
    backoff) until its attempt budget runs out and it is bisected into
    two child jobs — down to single-row jobs, which quarantine instead.
    ``attempts`` counts failures so far; ``deadline`` is the wall-clock
    limit of the *running* attempt (infinite while the job waits behind
    others in the worker's pipe — it is re-armed on promotion to the
    queue head, so queueing time is never charged against the solve).
    ``not_before`` is the retry-backoff gate: a failed job parks on the
    pool's deferred list until this wall-clock time instead of blocking
    the service loop, so one flaky shard's backoff never delays replies
    from healthy workers.
    """

    __slots__ = ("lo", "hi", "worker", "req_id", "attempts", "deadline",
                 "not_before")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self.worker = -1
        self.req_id = -1
        self.attempts = 0
        self.deadline = math.inf
        self.not_before = 0.0


class ShardPool:
    """Persistent, supervised multicore shard pool over one simulator
    family.

    Parameters
    ----------
    factory:
        Picklable zero-argument callable building the worker's simulator
        (see ``CircuitSimulator.shard_factory``).
    n_shards:
        Worker count.
    param_names / spec_names:
        Wire format: sizing values and spec results travel as float64
        arrays in these column orders.
    context:
        Multiprocessing start method (None resolves portably).
    supervisor:
        Retry/timeout policy; defaults to
        :meth:`~repro.sim.faults.SupervisorConfig.from_env` (knobs
        ``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / ``REPRO_RETRY_BACKOFF``).
    failure_row:
        Spec row (in ``spec_names`` order) written for quarantined
        designs — the simulator's pessimistic ``failure_measurements``.
        None (raw pools) quarantines to NaN rows.
    """

    def __init__(self, factory, n_shards: int, param_names, spec_names,
                 context: str | None = None,
                 supervisor: SupervisorConfig | None = None,
                 failure_row=None):
        if n_shards < 1:
            raise TrainingError("ShardPool needs at least one shard")
        self.param_names = tuple(param_names)
        self.spec_names = tuple(spec_names)
        self._supervisor = supervisor or SupervisorConfig.from_env()
        self._profile = active_profile()
        self._factory = factory
        self._failure_row = (None if failure_row is None else
                             np.asarray(failure_row, dtype=np.float64))
        self._group = WorkerGroup(
            _shard_worker,
            [(w, factory, self.param_names, self.spec_names,
              worker_directives(self._profile, w))
             for w in range(n_shards)],
            context=context)
        for remote in self._group.remotes:
            try:
                if not remote.poll(_HANDSHAKE_TIMEOUT):
                    raise TrainingError(
                        "shard worker did not report ready in time")
                cmd, names = remote.recv()
            except (EOFError, OSError):
                self._group.close()
                raise TrainingError(
                    "shard worker died during the handshake") from None
            except TrainingError:
                self._group.close()
                raise
            if cmd != "ready" or names != self.spec_names:
                self._group.close()
                raise TrainingError(
                    f"shard worker handshake failed: {cmd} {names!r}")
        self._pair: _BlockPair | None = None
        #: Per-worker mirror of the jobs queued in its pipe, FIFO.
        self._pending: list[collections.deque[_ShardJob]] = [
            collections.deque() for _ in range(n_shards)]
        #: Jobs parked for retry backoff (dispatched once their
        #: ``not_before`` passes) — the non-blocking replacement for
        #: sleeping in the service loop.
        self._deferred: list[_ShardJob] = []
        self._req_ids = itertools.count(1)
        #: The batch in flight: its row count, jobs still owed, and
        #: dispatch time (the origin of every row's latency).
        self._n_rows = 0
        self._unresolved = 0
        self._submitted = 0.0
        #: Supervision record of the current (or most recent) batch.
        self.last_report: BatchReport | None = None
        self.respawns = 0
        self.retries = 0
        # Exit hook through a weak reference: the atexit registry must not
        # keep abandoned pools (and their workers) alive until exit —
        # dropped pools get reaped by __del__/GC, live ones at shutdown.
        atexit.register(ShardPool._atexit_close, weakref.ref(self))

    @staticmethod
    def _atexit_close(pool_ref) -> None:
        """Interpreter-exit cleanup through a weak reference."""
        pool = pool_ref()
        if pool is not None:
            pool.close()

    def __len__(self) -> int:
        return len(self._group)

    @property
    def closed(self) -> bool:
        return self._group.closed

    def _out(self) -> np.ndarray:
        """The batch's ``(B, S)`` spec rows, viewed in the shared block."""
        return np.ndarray((self._n_rows, len(self.spec_names)),
                          dtype=np.float64, buffer=self._pair.shm_out.buf)

    # -- supervision core -----------------------------------------------------
    def _fatal(self, message: str):
        """Unrecoverable infrastructure failure: tear down and raise."""
        self.close()
        raise TrainingError(message)

    def _deadline(self) -> float:
        """Wall-clock limit for an attempt starting now (inf = no limit)."""
        timeout = self._supervisor.timeout
        return time.perf_counter() + timeout if timeout > 0 else math.inf

    def _eval_message(self, job: _ShardJob) -> tuple:
        """The ``eval`` command asking a worker for ``job``'s rows."""
        return ("eval", (job.req_id, self._pair.shm_in.name,
                         self._pair.shm_out.name, int(job.lo), int(job.hi),
                         self._n_rows))

    def _dispatch(self, worker: int, job: _ShardJob) -> None:
        """Send one job to ``worker`` and mirror it in the pending queue.

        A send that hits a dead pipe triggers a respawn of the slot and
        one resend; a second failure is unrecoverable.
        """
        job.worker = worker
        job.req_id = next(self._req_ids)
        message = self._eval_message(job)
        try:
            self._group.remotes[worker].send(message)
        except (BrokenPipeError, OSError):
            self.last_report.faults.append(FaultRecord(
                "worker-death", worker, tuple(range(job.lo, job.hi)),
                job.attempts, "shard worker died before accepting work"))
            self._respawn_worker(worker)
            try:
                self._group.remotes[worker].send(message)
            except (BrokenPipeError, OSError):
                self._fatal("respawned shard worker died before accepting "
                            "work; pool closed")
        queue = self._pending[worker]
        job.deadline = self._deadline() if not queue else math.inf
        queue.append(job)

    def _respawn_worker(self, worker: int) -> None:
        """Replace a dead/hung worker slot and re-queue what it owed.

        The replacement inherits only the content (poison) fault
        directives — one-shot event directives died with the original
        incarnation, so recovery cannot re-trigger the fault forever.
        Jobs the dead worker had queued are re-sent in order (same
        req_ids: the old pipe died with any stale replies).  The respawn
        is charged to the batch in flight.
        """
        remote = self._group.respawn(
            worker, args=(worker, self._factory, self.param_names,
                          self.spec_names,
                          worker_directives(self._profile, worker,
                                            respawned=True)))
        if not remote.poll(_HANDSHAKE_TIMEOUT):
            self._fatal("respawned shard worker did not report ready")
        try:
            cmd, names = remote.recv()
        except (EOFError, OSError):
            self._fatal("respawned shard worker died during handshake")
        if cmd != "ready" or names != self.spec_names:
            self._fatal(f"respawned shard worker handshake failed: {cmd}")
        self.respawns += 1
        self.last_report.respawns += 1
        for job in self._pending[worker]:
            remote.send(self._eval_message(job))
        self._promote(worker)

    def _promote(self, worker: int) -> None:
        """(Re-)arm the deadline of the worker's new queue head."""
        queue = self._pending[worker]
        if queue:
            queue[0].deadline = self._deadline()

    def _resolve(self, job: _ShardJob) -> None:
        """Mark one job done and record its rows' attempts/latency."""
        self._unresolved -= 1
        report = self.last_report
        report.latency[job.lo:job.hi] = time.perf_counter() - self._submitted
        report.attempts[job.lo:job.hi] = job.attempts + 1

    def _quarantine(self, job: _ShardJob) -> None:
        """Charge a single-row job the failure row and resolve it."""
        row = (self._failure_row if self._failure_row is not None
               else np.full(len(self.spec_names), np.nan))
        self._out()[job.lo] = row
        self.last_report.quarantined[job.lo] = True
        self.last_report.faults.append(FaultRecord(
            "quarantine", job.worker, (job.lo,), job.attempts,
            "design quarantined after repeated faults"))
        self._resolve(job)

    def _retry_or_split(self, job: _ShardJob) -> None:
        """Retry a failed job, bisect it, or quarantine its last row.

        Retry backoff never sleeps here: the job is parked on the
        deferred list with a ``not_before`` timestamp and re-dispatched
        by the service loop once it passes — replies from healthy
        workers keep being read (and their armed deadlines keep being
        honoured) while a flaky shard backs off."""
        if job.attempts <= self._supervisor.retries:
            self.last_report.retries += 1
            self.retries += 1
            delay = self._supervisor.backoff_delay(job.attempts)
            if delay > 0:
                job.not_before = time.perf_counter() + delay
                self._deferred.append(job)
            else:
                self._dispatch(job.worker, job)
        elif job.hi - job.lo > 1:
            mid = (job.lo + job.hi) // 2
            self._unresolved += 1   # one job becomes two
            for lo, hi in ((job.lo, mid), (mid, job.hi)):
                self._dispatch(job.worker, _ShardJob(lo, hi))
        else:
            self._quarantine(job)

    def _handle_death(self, worker: int, kind: str, detail: str) -> None:
        """A worker died (or was killed on deadline): respawn and retry."""
        queue = self._pending[worker]
        failed = queue.popleft() if queue else None
        if failed is not None:
            failed.attempts += 1
            self.last_report.faults.append(FaultRecord(
                kind, worker, tuple(range(failed.lo, failed.hi)),
                failed.attempts, detail))
        self._respawn_worker(worker)
        if failed is not None:   # the rest of the queue was re-sent above
            self._retry_or_split(failed)

    def _handle_solve_error(self, job: _ShardJob, detail: str) -> None:
        """A worker reported an exception for one job: retry/bisect it."""
        job.attempts += 1
        self.last_report.faults.append(FaultRecord(
            "solve-error", job.worker, tuple(range(job.lo, job.hi)),
            job.attempts, detail))
        self._retry_or_split(job)

    def _handle_reply(self, worker: int) -> None:
        """Process whatever the worker's pipe holds: reply or EOF."""
        remote = self._group.remotes[worker]
        try:
            cmd, payload = remote.recv()
        except (EOFError, OSError):
            self._handle_death(worker, "worker-death",
                               "shard worker died mid-evaluation")
            return
        queue = self._pending[worker]
        if not queue:
            self._fatal(f"unexpected reply {cmd!r} from idle shard worker "
                        f"{worker}; pool closed")
        job = queue.popleft()
        self._promote(worker)
        if cmd == "ok" and payload == job.req_id:
            self._resolve(job)
        elif cmd == "error" and payload[0] == job.req_id:
            self._handle_solve_error(job, payload[1])
        else:
            self._fatal(f"shard worker {worker} protocol corruption "
                        f"({cmd!r}); pool closed")

    def _handle_timeout(self, worker: int) -> None:
        """The worker's running attempt blew its deadline: kill + retry.

        One last zero-timeout poll first — the reply may have raced the
        deadline, in which case it is simply taken (killing a worker
        that just delivered would waste a clean result)."""
        remote = self._group.remotes[worker]
        if remote.poll(0):
            self._handle_reply(worker)
            return
        process = self._group.processes[worker]
        process.kill()
        process.join(timeout=5.0)
        self._handle_death(
            worker, "timeout",
            f"shard worker blew the {self._supervisor.timeout:.3g}s "
            f"per-attempt deadline")

    def _flush_deferred(self, now: float) -> None:
        """Dispatch every backoff-parked job whose ``not_before`` passed."""
        if not self._deferred:
            return
        due = [job for job in self._deferred if job.not_before <= now]
        for job in due:
            self._deferred.remove(job)
            self._dispatch(job.worker, job)

    def _service(self) -> None:
        """One supervision step towards resolving the batch in flight.

        Waits on every worker with jobs queued and processes whatever
        arrives first.  Backoff-parked jobs are flushed on the way in
        and bound the wait, so a retry becomes due promptly without
        ever blocking the loop."""
        self._flush_deferred(time.perf_counter())
        workers = [w for w, queue in enumerate(self._pending) if queue]
        if not workers:
            if not self._deferred:  # pragma: no cover - invariant guard
                self._fatal("shard batch lost its jobs; pool closed")
            # Everything the batch still owes is parked for backoff:
            # nothing can arrive before the earliest gate, so sleep to
            # it and re-dispatch.
            wake = min(job.not_before for job in self._deferred)
            time.sleep(max(0.0, wake - time.perf_counter()))
            self._flush_deferred(time.perf_counter())
            return
        conns = {self._group.remotes[w]: w for w in workers}
        timeout = None
        if self._supervisor.timeout > 0:
            deadline = min(self._pending[w][0].deadline for w in workers)
            if deadline < math.inf:
                timeout = max(0.0, deadline - time.perf_counter())
        if self._deferred:
            wake = min(job.not_before for job in self._deferred)
            until_wake = max(0.0, wake - time.perf_counter())
            timeout = (until_wake if timeout is None
                       else min(timeout, until_wake))
        ready = mp_connection.wait(list(conns), timeout)
        if ready:
            for conn in ready:
                self._handle_reply(conns[conn])
            return
        now = time.perf_counter()
        self._flush_deferred(now)
        for worker in workers:
            queue = self._pending[worker]
            if queue and queue[0].deadline <= now:
                self._handle_timeout(worker)

    def _dispatch_batch(self, values_array: np.ndarray) -> None:
        """First half of :meth:`evaluate_values`: send the batch out.

        Rows are split into contiguous shards, one per worker; the
        values are written into the pool's block pair (grown when the
        batch outgrows it) and the ``eval`` commands fire without
        waiting.  An empty batch (``B`` = 0) dispatches nothing and
        touches no shared block (zero-size blocks are illegal).  Shape
        errors raise before any state changes.
        """
        if self._group.closed:
            raise TrainingError("ShardPool is closed")
        values_array = np.ascontiguousarray(values_array, dtype=np.float64)
        if values_array.ndim != 2:
            raise TrainingError(
                f"evaluate_values needs a (B, P) array, got shape "
                f"{values_array.shape}")
        B, P = values_array.shape
        if B and P != len(self.param_names):
            raise TrainingError(
                f"got {P} parameters, expected {len(self.param_names)}")
        self.last_report = BatchReport(B)
        self._n_rows = B
        self._submitted = time.perf_counter()
        bounds = np.linspace(0, B, len(self._group) + 1).astype(int)
        spans = [(w, int(lo), int(hi))
                 for w, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                 if hi > lo]
        self._unresolved = len(spans)
        if not B:
            return
        if self._pair is None or self._pair.cap_rows < B:
            if self._pair is not None:
                self._pair.release()
            self._pair = _BlockPair(P, len(self.spec_names), max(B, 64))
        np.ndarray((B, P), dtype=np.float64,
                   buffer=self._pair.shm_in.buf)[:] = values_array
        for worker, lo, hi in spans:
            self._dispatch(worker, _ShardJob(lo, hi))

    def _supervise(self) -> np.ndarray:
        """Second half of :meth:`evaluate_values`: heal until done.

        Worker deaths, timeouts and solve errors are healed per the
        supervisor policy and recorded on :attr:`last_report`; only
        unrecoverable infrastructure failures raise.  Returns a copy of
        the batch's ``(B, S)`` spec rows."""
        while self._unresolved > 0:
            self._service()
        if not self._n_rows:
            return np.zeros((0, len(self.spec_names)), dtype=np.float64)
        return self._out().copy()

    # -- public API -----------------------------------------------------------
    def evaluate_values(self, values_array: np.ndarray) -> np.ndarray:
        """Evaluate ``(B, P)`` stacked sizing values; returns ``(B, S)``.

        Blocks until every row is resolved; the batch's supervision
        record is left on :attr:`last_report`.  A batch interrupted
        mid-supervision (any exception escaping the supervisor) tears
        the pool down, so no stale reply can reach the next batch.
        """
        self._dispatch_batch(values_array)
        try:
            return self._supervise()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut the workers down and release the shared blocks
        (idempotent)."""
        if self._group.closed:
            return
        self._group.close()
        for queue in self._pending:
            queue.clear()
        self._deferred.clear()
        self._unresolved = 0
        if self._pair is not None:
            self._pair.release()
            self._pair = None

    def __del__(self):  # pragma: no cover - interpreter teardown best effort
        try:
            self.close()
        except Exception:
            pass
