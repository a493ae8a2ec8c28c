"""Actor-critic policy: the paper's 3-layer, 50-neuron tanh network.

Two separate MLPs (policy and value — RLlib's default for PPO), a factored
categorical head over the ``MultiDiscrete`` action space, and npz
save/load so trained agents can be shipped and transfer-deployed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.rl.distributions import MultiCategorical
from repro.rl.nn import MLP


class ActorCritic:
    """Policy + value networks over a flat observation vector.

    Parameters
    ----------
    obs_dim:
        Observation dimensionality.
    nvec:
        Action-space sizes (``[3] * N`` for sizing).
    hidden:
        Hidden layer widths; the paper uses ``(50, 50, 50)``.
    seed:
        Initialisation seed.
    """

    def __init__(self, obs_dim: int, nvec, hidden: tuple[int, ...] = (50, 50, 50),
                 seed: int = 0):
        self.obs_dim = int(obs_dim)
        self.nvec = np.asarray(nvec, dtype=np.int64)
        self.hidden = tuple(int(h) for h in hidden)
        if self.obs_dim < 1 or len(self.nvec) < 1:
            raise TrainingError("bad policy dimensions")
        rng = np.random.default_rng(seed)
        sizes = [self.obs_dim, *self.hidden]
        self.pi = MLP([*sizes, int(self.nvec.sum())], rng, out_gain=0.01)
        self.vf = MLP([*sizes, 1], rng, out_gain=1.0)

    # -- inference ----------------------------------------------------------
    def distribution(self, obs: np.ndarray) -> MultiCategorical:
        """Action distribution at (a batch of) observations."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        return MultiCategorical(self.pi.forward(obs), self.nvec)

    def value(self, obs: np.ndarray) -> np.ndarray:
        """Value estimates for (a batch of) observations."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        return self.vf.forward(obs)[:, 0]

    def act(self, obs: np.ndarray, rng: np.random.Generator,
            deterministic: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched action selection: returns (actions, log_probs, values)."""
        dist = self.distribution(obs)
        actions = dist.mode() if deterministic else dist.sample(rng)
        return actions, dist.log_prob(actions), self.value(obs)

    def act_single(self, obs: np.ndarray, rng: np.random.Generator,
                   deterministic: bool = False) -> np.ndarray:
        """Action for one observation (deployment).

        Runs only the policy net and the sampler: it draws from ``rng``
        exactly as ``act(obs[None, :], rng, deterministic)[0][0]`` does,
        so it returns the same action, without the value net and the
        log-probability that deployment never reads.
        """
        dist = self.distribution(obs[None, :])
        return (dist.mode() if deterministic else dist.sample(rng))[0]

    # -- serialisation --------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Weights and architecture as a flat array dict (npz-ready)."""
        arrays = {"meta_obs_dim": np.array(self.obs_dim),
                  "meta_nvec": self.nvec,
                  "meta_hidden": np.array(self.hidden)}
        for i, a in enumerate(self.pi.state_arrays()):
            arrays[f"pi_{i}"] = a
        for i, a in enumerate(self.vf.state_arrays()):
            arrays[f"vf_{i}"] = a
        return arrays

    @classmethod
    def from_arrays(cls, data) -> "ActorCritic":
        """Inverse of :meth:`to_arrays` (accepts any array mapping)."""
        policy = cls(obs_dim=int(data["meta_obs_dim"]),
                     nvec=np.asarray(data["meta_nvec"]),
                     hidden=tuple(int(h) for h in data["meta_hidden"]))
        n_pi = len(policy.pi.state_arrays())
        n_vf = len(policy.vf.state_arrays())
        policy.pi.load_state_arrays([data[f"pi_{i}"] for i in range(n_pi)])
        policy.vf.load_state_arrays([data[f"vf_{i}"] for i in range(n_vf)])
        return policy

    def save(self, path: str) -> None:
        """Save weights and architecture to an ``.npz`` file."""
        np.savez(path, **self.to_arrays())

    @classmethod
    def load(cls, path: str) -> "ActorCritic":
        """Load a policy written by :meth:`save`."""
        return cls.from_arrays(np.load(path))

    def clone(self) -> "ActorCritic":
        """Deep copy (used to snapshot the best policy during training)."""
        twin = ActorCritic(self.obs_dim, self.nvec, self.hidden)
        twin.pi.theta[...] = self.pi.theta
        twin.vf.theta[...] = self.vf.theta
        return twin
