"""Multiprocess environment execution (the reproduction's Ray stand-in).

The paper "utilize[s] the capabilities of Ray to run multiple environments
in parallel", quoting 1.3 hours of wall clock on an 8-core CPU for the
two-stage op-amp.  :class:`ParallelVectorEnv` reproduces that axis with
the standard library: each environment lives in its own worker process and
the main process batches policy queries across workers.  The process/pipe
plumbing is :class:`WorkerGroup`, and the start method resolves portably
(:func:`resolve_context`): ``fork`` where the platform has it (closure
factories welcome), ``spawn`` everywhere else, in which case the
environment factories must be picklable (a topology class, a
``functools.partial``, or any module-level callable qualifies; lambdas
closing over live simulators do not).

The interface matches :class:`~repro.rl.env.VectorEnv` exactly — same
``reset`` / ``step`` signatures, same auto-reset semantics with
:class:`~repro.rl.env.EpisodeStats` for finished episodes — so
:class:`~repro.rl.ppo.PPOTrainer` accepts either implementation.

Failure contract: a worker that dies mid-rollout (crash, OOM, kill) is
respawned in place with a fresh environment; its slot reports one
synthetic truncated episode (``done`` True, zero reward,
``info["worker_fault"]``) and training continues — the healed faults
are listed in ``fault_events``.  Only a worker that dies *again* before
delivering a single successful reply (a broken factory) tears the group
down with a :class:`~repro.errors.TrainingError`, and so does a worker
that dies before reporting its spaces.

Parallelism only pays when a single environment step is expensive (PEX
simulation, big transient sweeps); for the microsecond-scale schematic
steps in this reproduction the in-process :class:`VectorEnv`, which
evaluates all envs' sizings in one stacked solve, is usually faster.
``benchmarks/bench_parallel_scaling.py`` quantifies the crossover.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable

import numpy as np

from repro.errors import TrainingError
from repro.rl.env import Env, EpisodeStats


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

    The plumbing behind :class:`ParallelVectorEnv`: workers receive
    ``(pipe_end, *args)`` and speak a ``(command, payload)`` protocol in
    which ``("close", None)`` is answered once and ends the worker.
    ``args_list`` must be picklable under the resolved start method.

    The group keeps its spawn recipe, so a dead slot can be
    :meth:`respawn`-ed in place; :meth:`close` is idempotent and never
    raises on already-dead children (every per-worker step is
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

    def respawn(self, index: int):
        """Replace worker ``index`` with a fresh process (same recipe).

        The old process is reaped (terminate, then kill if stuck) and
        its pipe closed — any replies it buffered die with the pipe, so
        a respawned slot can never deliver stale replies.  Returns the
        new parent pipe end.
        """
        if self.closed:
            raise TrainingError("cannot respawn a worker in a closed group")
        try:
            self.remotes[index].close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._reap(self.processes[index])
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
        close handshake (hung), or ignores SIGTERM cannot prevent the
        remaining workers from being torn down cleanly.
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


def _worker(remote, env_fn: Callable[[], Env]) -> None:
    """Worker loop: owns one env, tracks episode stats, auto-resets."""
    env = env_fn()
    ep_reward = 0.0
    ep_length = 0
    try:
        while True:
            cmd, payload = remote.recv()
            if cmd == "reset":
                ep_reward = 0.0
                ep_length = 0
                remote.send(env.reset())
            elif cmd == "step":
                obs, reward, done, info = env.step(payload)
                ep_reward += reward
                ep_length += 1
                stats = None
                if done:
                    stats = EpisodeStats(
                        reward=float(ep_reward), length=int(ep_length),
                        success=bool(info.get("success", False)))
                    ep_reward = 0.0
                    ep_length = 0
                    obs = env.reset()
                remote.send((obs, float(reward), bool(done), info, stats))
            elif cmd == "spaces":
                remote.send((env.observation_space, env.action_space))
            elif cmd == "close":
                remote.send(None)
                break
            else:  # pragma: no cover - protocol misuse guard
                raise RuntimeError(f"unknown command {cmd!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown races
        pass
    finally:
        remote.close()


class ParallelVectorEnv:
    """Synchronous batch of environments, one per worker process.

    Parameters
    ----------
    env_fns:
        One zero-argument environment factory per worker.  With the fork
        start method the factories may close over unpicklable state; under
        spawn (the fallback on fork-less platforms, or when requested)
        they must be picklable.
    context:
        Multiprocessing start method; None picks ``fork`` where available
        and ``spawn`` otherwise (an explicit ``"fork"`` request is also
        downgraded to ``spawn`` on platforms without fork).
    """

    def __init__(self, env_fns: list[Callable[[], Env]],
                 context: str | None = None):
        if not env_fns:
            raise TrainingError("ParallelVectorEnv needs at least one env factory")
        self._group = WorkerGroup(_worker, [(fn,) for fn in env_fns],
                                  context=context)
        self._remotes = self._group.remotes
        try:
            self._remotes[0].send(("spaces", None))
            self.observation_space, self.action_space = (
                self._remotes[0].recv())
        except (EOFError, OSError):
            self._group.close()
            raise TrainingError(
                "environment worker 0 died before reporting its spaces "
                "(does its env factory raise?)") from None
        #: Human-readable record of every worker fault healed so far.
        self.fault_events: list[str] = []
        # Workers healed since their last successful reply: a second
        # death before any success means the factory (or machine) is
        # broken — healing again would churn forever.
        self._suspect: set[int] = set()

    def __len__(self) -> int:
        return len(self._remotes)

    def _ensure_open(self) -> None:
        """Refuse to touch a closed worker group."""
        if self._group.closed:
            raise TrainingError("ParallelVectorEnv is closed")

    def _heal(self, index: int, detail: str) -> np.ndarray:
        """Respawn a dead worker and reset its env; returns the fresh obs.

        Healing is bounded: a worker that dies again before delivering a
        single successful reply points at a broken factory (or machine),
        so the second death tears the group down with a clear
        :class:`TrainingError` instead of churning respawns forever.
        """
        if index in self._suspect:
            self.close()
            raise TrainingError(
                f"environment worker {index} died twice in a row "
                f"({detail}); vector env closed")
        self._suspect.add(index)
        self.fault_events.append(f"worker {index}: {detail}")
        remote = self._group.respawn(index)
        try:
            remote.send(("reset", None))
            return remote.recv()
        except (BrokenPipeError, EOFError, OSError):
            self.close()
            raise TrainingError(
                f"environment worker {index} failed to respawn; "
                "vector env closed") from None

    def reset(self) -> np.ndarray:
        """Reset every worker; returns the stacked initial observations.

        A worker found dead (crash, OOM, kill) is respawned and reset in
        place — the caller only sees fresh observations."""
        self._ensure_open()
        obs: list = [None] * len(self._remotes)
        for i, remote in enumerate(self._remotes):
            try:
                remote.send(("reset", None))
            except (BrokenPipeError, OSError):
                obs[i] = self._heal(i, "died before reset")
        for i in range(len(self._remotes)):
            if obs[i] is None:
                try:
                    obs[i] = self._remotes[i].recv()
                    self._suspect.discard(i)
                except (EOFError, OSError):
                    obs[i] = self._heal(i, "died during reset")
        return np.stack(obs)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, list[dict],
                                                 list[EpisodeStats]]:
        """Step every worker; identical contract to ``VectorEnv.step``.

        A worker that dies mid-step is respawned with a fresh env and its
        slot reports a synthetic truncated episode — ``done`` True,
        zero reward, ``info["worker_fault"]`` set and an
        :class:`EpisodeStats` marking the episode unsuccessful — so the
        trainer's bookkeeping stays consistent and training continues."""
        self._ensure_open()
        if len(actions) != len(self._remotes):
            raise TrainingError(
                f"got {len(actions)} actions for {len(self._remotes)} envs")
        outcomes: list = [None] * len(self._remotes)
        for i, action in enumerate(actions):
            try:
                self._remotes[i].send(("step", action))
            except (BrokenPipeError, OSError):
                outcomes[i] = self._fault_outcome(i, "died before step")
        for i in range(len(self._remotes)):
            if outcomes[i] is None:
                try:
                    outcomes[i] = self._remotes[i].recv()
                    self._suspect.discard(i)
                except (EOFError, OSError):
                    outcomes[i] = self._fault_outcome(i, "died mid-step")
        obs_list, rewards, dones, infos = [], [], [], []
        finished: list[EpisodeStats] = []
        for obs, reward, done, info, stats in outcomes:
            obs_list.append(obs)
            rewards.append(reward)
            dones.append(done)
            infos.append(info)
            if stats is not None:
                finished.append(stats)
        return (np.stack(obs_list), np.asarray(rewards, dtype=float),
                np.asarray(dones, dtype=bool), infos, finished)

    def _fault_outcome(self, index: int, detail: str):
        """Heal one worker and synthesise its truncated step outcome."""
        obs = self._heal(index, detail)
        info = {"worker_fault": True, "success": False}
        return (obs, 0.0, True, info,
                EpisodeStats(reward=0.0, length=0, success=False))

    def close(self) -> None:
        """Shut down the workers (idempotent)."""
        self._group.close()

    def __enter__(self) -> "ParallelVectorEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown best effort
        try:
            self.close()
        except Exception:
            pass
