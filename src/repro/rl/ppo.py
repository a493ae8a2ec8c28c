"""Proximal Policy Optimization (clipped surrogate) in numpy.

Faithful to the algorithm the paper trains with (PPO via RLlib):
synchronous rollouts from a vector of environments, GAE(lambda)
advantages, several epochs of minibatched updates on the clipped
surrogate with entropy bonus, a separate value network trained by MSE,
global gradient-norm clipping, and Adam.

Gradients are computed analytically (see
:mod:`repro.rl.distributions` for the categorical-head derivatives) and
verified against finite differences in the test suite.

The stopping rule mirrors the paper: "training terminates once the mean
reward has reached 0, meaning all target specifications are consistently
satisfied" — :meth:`PPOTrainer.train` stops once the mean episode reward
over an iteration crosses ``stop_reward`` for ``stop_patience``
consecutive iterations.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.errors import TrainingError
from repro.rl.buffer import RolloutBuffer
from repro.rl.env import Env, VectorEnv
from repro.rl.nn import Adam, clip_grad_norm
from repro.rl.policy import ActorCritic
from repro.rl.schedules import Schedule


@dataclasses.dataclass
class PPOConfig:
    """Hyperparameters.  Defaults follow RLlib-era PPO practice scaled to
    the paper's setting (trajectories of ~30 steps, 3x50 tanh nets)."""

    n_envs: int = 10
    n_steps: int = 60               # rollout length per env per iteration
    epochs: int = 10
    minibatch_size: int = 64
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    lr: float = 3e-4
    vf_coef: float = 0.5
    ent_coef: float = 0.003
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True
    hidden: tuple[int, ...] = (50, 50, 50)
    seed: int = 0
    #: Optional anneals over training progress (fraction of max_iterations);
    #: when None the static ``lr`` / ``ent_coef`` apply throughout.
    lr_schedule: Schedule | None = None
    ent_schedule: Schedule | None = None

    def __post_init__(self):
        if self.n_envs < 1 or self.n_steps < 1:
            raise TrainingError("n_envs and n_steps must be >= 1")
        if not 0.0 < self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise TrainingError("bad gamma/lambda")
        if self.clip_ratio <= 0.0:
            raise TrainingError("clip_ratio must be positive")
        # Minibatches of fewer than two samples are skipped, so each of
        # these would train nothing and report NaN losses.
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.minibatch_size < 2:
            raise TrainingError(
                f"minibatch_size must be >= 2, got {self.minibatch_size}")
        if self.batch_size < 2:
            raise TrainingError(
                f"batch_size (n_envs * n_steps) must be >= 2, got "
                f"{self.batch_size}")

    @property
    def batch_size(self) -> int:
        """Samples per rollout, ``n_envs * n_steps``."""
        return self.n_envs * self.n_steps


@dataclasses.dataclass
class TrainingHistory:
    """Per-iteration training statistics (the data behind Figs. 5/7/11)."""

    iterations: list[int] = dataclasses.field(default_factory=list)
    env_steps: list[int] = dataclasses.field(default_factory=list)
    mean_reward: list[float] = dataclasses.field(default_factory=list)
    success_rate: list[float] = dataclasses.field(default_factory=list)
    mean_length: list[float] = dataclasses.field(default_factory=list)
    entropy: list[float] = dataclasses.field(default_factory=list)
    policy_loss: list[float] = dataclasses.field(default_factory=list)
    value_loss: list[float] = dataclasses.field(default_factory=list)
    stopped_early: bool = False
    wall_time_s: float = 0.0

    def record(self, iteration: int, env_steps: int, mean_reward: float,
               success_rate: float, mean_length: float, entropy: float,
               policy_loss: float, value_loss: float) -> None:
        """Append one iteration's statistics."""
        self.iterations.append(iteration)
        self.env_steps.append(env_steps)
        self.mean_reward.append(mean_reward)
        self.success_rate.append(success_rate)
        self.mean_length.append(mean_length)
        self.entropy.append(entropy)
        self.policy_loss.append(policy_loss)
        self.value_loss.append(value_loss)

    @property
    def final_mean_reward(self) -> float:
        """Mean episode reward of the last iteration (-inf before any)."""
        return self.mean_reward[-1] if self.mean_reward else float("-inf")

    def reward_curve(self) -> list[tuple[int, float]]:
        """(env_steps, mean_reward) series — the paper's reward figures."""
        return list(zip(self.env_steps, self.mean_reward))

    def to_dict(self) -> dict:
        """JSON-safe field dict (checkpointing, bench caches)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainingHistory":
        """Inverse of :meth:`to_dict`; unknown keys are ignored so old
        checkpoints stay loadable as fields are added."""
        history = cls()
        for field in dataclasses.fields(cls):
            if field.name in data:
                setattr(history, field.name, data[field.name])
        return history


class PPOTrainer:
    """Clipped-surrogate PPO over a synchronous vector of environments."""

    def __init__(self, env_fns, config: PPOConfig | None = None,
                 policy: ActorCritic | None = None, vec_env=None):
        """``vec_env`` overrides the default in-process :class:`VectorEnv`
        (pass a :class:`~repro.rl.parallel.ParallelVectorEnv` for
        multiprocess rollouts); when given, ``env_fns`` is ignored."""
        self.config = config or PPOConfig()
        if vec_env is not None:
            if len(vec_env) != self.config.n_envs:
                raise TrainingError(
                    f"vec_env has {len(vec_env)} envs for "
                    f"n_envs={self.config.n_envs}")
            self.vec = vec_env
        else:
            envs: list[Env] = [fn() for fn in env_fns]
            if len(envs) != self.config.n_envs:
                # Allow passing exactly one factory and replicating it.
                if len(envs) == 1 and self.config.n_envs > 1:
                    envs = envs + [env_fns[0]()
                                   for _ in range(self.config.n_envs - 1)]
                else:
                    raise TrainingError(
                        f"{len(envs)} env factories for n_envs={self.config.n_envs}")
            self.vec = VectorEnv(envs)
        obs_dim = int(np.prod(self.vec.observation_space.shape))
        nvec = self.vec.action_space.nvec
        self.policy = policy or ActorCritic(obs_dim, nvec,
                                            hidden=self.config.hidden,
                                            seed=self.config.seed)
        params = self.policy.pi.parameters() + self.policy.vf.parameters()
        self.optimizer = Adam(params, lr=self.config.lr)
        self.rng = np.random.default_rng(self.config.seed)
        self.total_env_steps = 0
        self._last_mean_reward = float("-inf")
        self._ent_coef = self.config.ent_coef
        #: Mirror of the vector env's cumulative supervision counters
        #: (faults/retries/quarantines, healed env workers) — updated
        #: after every rollout so operators can see what training
        #: survived.  Deliberately kept out of
        #: :class:`TrainingHistory` (whose schema benchmark artifacts
        #: pin).
        self.fault_stats: dict[str, int] = {}

    def _absorb_vec_faults(self) -> None:
        """Mirror the vector env's cumulative fault counters, if any."""
        stats = getattr(self.vec, "fault_stats", None)
        if stats is not None:
            self.fault_stats.update(stats)
        events = getattr(self.vec, "fault_events", None)
        if events is not None:
            self.fault_stats["env_worker_faults"] = len(events)

    # -- rollout ---------------------------------------------------------------
    def collect_rollout(self, obs: np.ndarray) -> tuple[RolloutBuffer, np.ndarray, list]:
        """Collect one on-policy rollout; returns (buffer, next obs, finished-episode stats)."""
        cfg = self.config
        buffer = RolloutBuffer(cfg.n_steps, cfg.n_envs,
                               int(np.prod(self.vec.observation_space.shape)),
                               len(self.vec.action_space.nvec))
        finished = []
        for _ in range(cfg.n_steps):
            actions, log_probs, values = self.policy.act(obs, self.rng)
            next_obs, rewards, dones, _, done_stats = self.vec.step(actions)
            buffer.add(obs, actions, rewards, dones, values, log_probs)
            finished.extend(done_stats)
            obs = next_obs
            self.total_env_steps += cfg.n_envs
        last_values = self.policy.value(obs)
        buffer.compute_gae(last_values, cfg.gamma, cfg.gae_lambda)
        self._absorb_vec_faults()
        return buffer, obs, finished

    # -- update -------------------------------------------------------------------
    def update(self, buffer: RolloutBuffer) -> dict[str, float]:
        """Run the PPO epochs on one rollout; returns mean loss stats."""
        cfg = self.config
        batch = buffer.flattened()
        n = len(batch["obs"])
        advantages = batch["advantages"]
        if cfg.normalize_advantages:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

        policy_losses, value_losses, entropies = [], [], []
        for _ in range(cfg.epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start:start + cfg.minibatch_size]
                if len(idx) < 2:
                    continue
                stats = self._minibatch_step(
                    batch["obs"][idx], batch["actions"][idx],
                    batch["log_probs"][idx], advantages[idx],
                    batch["returns"][idx])
                policy_losses.append(stats[0])
                value_losses.append(stats[1])
                entropies.append(stats[2])
        return {"policy_loss": float(np.mean(policy_losses)),
                "value_loss": float(np.mean(value_losses)),
                "entropy": float(np.mean(entropies))}

    def _minibatch_step(self, obs, actions, logp_old, adv, returns):
        cfg = self.config
        b = len(obs)
        self.policy.pi.zero_grad()
        self.policy.vf.zero_grad()

        dist = self.policy.distribution(obs)
        logp = dist.log_prob(actions)
        ratio = np.exp(np.clip(logp - logp_old, -20.0, 20.0))
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * adv
        policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
        entropy = dist.entropy()
        mean_entropy = float(np.mean(entropy))

        # d policy_loss / d logp: gradient flows only where the unclipped
        # branch is selected by the min (elsewhere the clip is active and
        # its derivative w.r.t. the ratio is zero).
        active = (unclipped <= clipped).astype(float)
        dlogp = -(active * ratio * adv) / b
        dlogits = dlogp[:, None] * dist.grad_log_prob(actions)
        # entropy bonus: loss includes -ent_coef * mean(H)
        dlogits += (-self._ent_coef / b) * dist.grad_entropy()
        self.policy.pi.backward(dlogits)

        values = self.policy.vf.forward(obs)[:, 0]
        verr = values - returns
        value_loss = float(np.mean(verr ** 2))
        dv = (cfg.vf_coef * 2.0 * verr / b)[:, None]
        self.policy.vf.backward(dv)

        clip_grad_norm([self.policy.pi, self.policy.vf], cfg.max_grad_norm)
        self.optimizer.step()
        return policy_loss, value_loss, mean_entropy

    # -- training loop ---------------------------------------------------------------
    def train(self, max_iterations: int = 100, stop_reward: float | None = 0.0,
              stop_patience: int = 1, callback=None,
              max_env_steps: int | None = None) -> TrainingHistory:
        """Run PPO until the stop rule fires or the budget runs out.

        Parameters
        ----------
        stop_reward:
            Stop once the iteration's mean episode reward is at or above
            this value for ``stop_patience`` consecutive iterations (the
            paper stops at 0).  ``None`` disables early stopping.
        callback:
            Optional ``fn(trainer, history) -> bool``; return True to stop.
        """
        history = TrainingHistory()
        started = time.perf_counter()
        obs = self.vec.reset()
        hits = 0
        for iteration in range(1, max_iterations + 1):
            fraction = (iteration - 1) / max(max_iterations - 1, 1)
            if self.config.lr_schedule is not None:
                self.optimizer.lr = self.config.lr_schedule.value(fraction)
            if self.config.ent_schedule is not None:
                self._ent_coef = self.config.ent_schedule.value(fraction)
            buffer, obs, finished = self.collect_rollout(obs)
            stats = self.update(buffer)

            if finished:
                mean_reward = float(np.mean([s.reward for s in finished]))
                success = float(np.mean([s.success for s in finished]))
                mean_len = float(np.mean([s.length for s in finished]))
            else:
                mean_reward = self._last_mean_reward
                success, mean_len = 0.0, float(self.config.n_steps)
            self._last_mean_reward = mean_reward
            history.record(iteration, self.total_env_steps, mean_reward,
                           success, mean_len, stats["entropy"],
                           stats["policy_loss"], stats["value_loss"])
            if callback is not None and callback(self, history):
                history.stopped_early = True
                break
            if stop_reward is not None and mean_reward >= stop_reward:
                hits += 1
                if hits >= stop_patience:
                    history.stopped_early = True
                    break
            else:
                hits = 0
            if max_env_steps is not None and self.total_env_steps >= max_env_steps:
                break
        history.wall_time_s = time.perf_counter() - started
        return history
