"""Factored categorical action distribution.

The sizing action space is ``MultiDiscrete([3] * N)`` — one independent
3-way categorical per circuit parameter.  :class:`MultiCategorical` wraps
the concatenated logits ``(B, sum(nvec))`` and provides sampling,
log-probabilities, entropies, and — because the network library uses
manual backprop — the analytic gradients of both with respect to the
logits:

* ``d log p(a) / d z = onehot(a) - softmax(z)`` per block,
* ``d H / d z_k = -p_k (log p_k + H)`` per block.

Layout: the N blocks are held as one ``(B, N, K)`` array, ``K =
max(nvec)``, so every operation is one numpy call over all blocks
instead of a loop.  Blocks narrower than K are padded with ``-inf``
logits (probability 0, log-probability stored as 0); the padded slots
are masked out of sampling and dropped from the gradients.  Every
number equals the per-block computation bit for bit: softmax sums run
over one block's slots exactly as before (a padded 0 adds nothing),
terms are summed across blocks in block order, and
:meth:`MultiCategorical.sample` draws ``rng.random((N, B))``, the
stream N per-block draws of ``(B, 1)`` produce.
``tests/rl/test_flat_layout.py`` holds the per-block reference.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Numerically-stable log softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _sum_blocks(terms: np.ndarray) -> np.ndarray:
    """Sum ``(B, N)`` per-block terms over the blocks left to right, as a
    per-block accumulation does (``np.sum`` pairs them from 8 blocks on)."""
    return np.cumsum(terms, axis=1)[:, -1]


class MultiCategorical:
    """A batch of products of categorical distributions."""

    def __init__(self, logits: np.ndarray, nvec):
        self.nvec = np.asarray(nvec, dtype=np.int64)
        logits = np.asarray(logits, dtype=float)
        if logits.ndim != 2 or logits.shape[1] != int(self.nvec.sum()):
            raise TrainingError(
                f"logits shape {logits.shape} does not match nvec {self.nvec}")
        self.logits = logits
        b, n, k = len(logits), len(self.nvec), int(self.nvec.max())
        #: ``(N, K)`` mask of the real slots; None when no block is padded.
        self._valid: np.ndarray | None = None
        if n * k == logits.shape[1]:
            self._z = logits.reshape(b, n, k)
        else:
            self._valid = np.arange(k) < self.nvec[:, None]
            self._z = np.full((b, n, k), -np.inf)
            self._z[:, self._valid] = logits
        self._logp = log_softmax(self._z)
        self._p = np.exp(self._logp)
        if self._valid is not None:
            # p is 0 there; a 0 log keeps p * log p at 0 instead of NaN.
            self._logp[:, ~self._valid] = 0.0

    @property
    def batch_size(self) -> int:
        """Number of distributions B."""
        return self.logits.shape[0]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample actions, shape (B, len(nvec)).

        Inverse-CDF sampling: the action is the number of cumulative
        probabilities (all but a block's last) that the uniform draw
        exceeds.
        """
        b, n, _ = self._p.shape
        u = rng.random((n, b))
        cdf = np.cumsum(self._p, axis=-1)[..., :-1]
        if self._valid is not None:
            cdf[:, ~self._valid[:, 1:]] = np.inf
        return (u.T[..., None] > cdf).sum(axis=-1)

    def mode(self) -> np.ndarray:
        """Greedy (argmax) actions — used for deterministic deployment."""
        return self._z.argmax(axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        """Joint log-probability, shape (B,)."""
        actions = self._check_actions(actions)
        return _sum_blocks(self._logp[self._slots(actions)])

    def entropy(self) -> np.ndarray:
        """Joint entropy (sum of block entropies), shape (B,)."""
        return _sum_blocks(self._block_entropies())

    # -- gradients -----------------------------------------------------------
    def grad_log_prob(self, actions: np.ndarray) -> np.ndarray:
        """d log p(a) / d logits, shape (B, sum(nvec))."""
        actions = self._check_actions(actions)
        grad = -self._p
        grad[self._slots(actions)] += 1.0
        return self._flat(grad)

    def grad_entropy(self) -> np.ndarray:
        """d H / d logits, shape (B, sum(nvec))."""
        h = self._block_entropies()[..., None]
        return self._flat(-self._p * (self._logp + h))

    def _block_entropies(self) -> np.ndarray:
        """Per-block entropies ``(B, N)``."""
        return -(self._p * self._logp).sum(axis=-1)

    @staticmethod
    def _slots(actions: np.ndarray) -> tuple[np.ndarray, ...]:
        """Index of each chosen slot of a ``(B, N, K)`` array."""
        b, n = actions.shape
        return np.arange(b)[:, None], np.arange(n), actions

    def _flat(self, grad: np.ndarray) -> np.ndarray:
        """``(B, N, K)`` -> ``(B, sum(nvec))``, dropping padded slots."""
        if self._valid is None:
            return grad.reshape(len(grad), -1)
        return grad[:, self._valid]

    def _check_actions(self, actions: np.ndarray) -> np.ndarray:
        """Validate an action batch; returns it as int64."""
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (self.batch_size, len(self.nvec)):
            raise TrainingError(
                f"actions shape {actions.shape}, expected "
                f"({self.batch_size}, {len(self.nvec)})")
        if (actions < 0).any() or (actions >= self.nvec).any():
            raise TrainingError("action index out of range")
        return actions
