"""Minimal neural-network library: dense layers, tanh, manual backprop, Adam.

Implements exactly what PPO on a small MLP needs — nothing more.  Layers
cache their forward inputs and accumulate parameter gradients on
``backward``; gradients are checked against finite differences in
``tests/rl/test_nn.py``.

Parameter layout
----------------
An :class:`MLP` owns one contiguous parameter vector ``theta`` and one
gradient vector ``grad``; every :class:`Linear`'s ``W``, ``b``, ``gW``
and ``gb`` is a view into them, laid out ``W0, b0, W1, b1, ...``.  So
:meth:`MLP.parameters` is the single pair ``(theta, grad)``, zeroing the
gradients is one fill and :class:`Adam` updates a whole net in one
elementwise pass.  The arithmetic is the per-array arithmetic: Adam is
elementwise, and :func:`global_grad_norm` still sums each array's
squares separately, in that order, so every number matches a per-array
layout bit for bit (``tests/rl/test_flat_layout.py`` holds the per-array
reference).  The views must never be rebound — a rebound ``W`` would
silently stop training — so loading writes through them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TrainingError


def orthogonal(shape: tuple[int, int], gain: float,
               rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initialisation (the PPO-standard choice)."""
    a = rng.standard_normal(shape)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    q = u if u.shape == shape else vt
    return gain * q.reshape(shape)


class Layer:
    """Base layer: forward caches what backward needs."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches what ``backward`` needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad``; returns grad w.r.t. input."""
        raise NotImplementedError

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(parameter, gradient) pairs; gradients are accumulated in place."""
        return []

    def zero_grad(self) -> None:
        """Zero accumulated parameter gradients."""
        for _, grad in self.parameters():
            grad.fill(0.0)


class Linear(Layer):
    """Affine layer ``y = x W^T + b`` with orthogonal init."""

    def __init__(self, in_dim: int, out_dim: int, gain: float,
                 rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise TrainingError("Linear dims must be >= 1")
        self.W = orthogonal((out_dim, in_dim), gain, rng)
        self.b = np.zeros(out_dim)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Affine map ``x @ W + b``."""
        self._x = x
        return x @ self.W.T + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate dW/db; return upstream gradient."""
        if self._x is None:
            raise TrainingError("backward before forward")
        self.gW += grad_out.T @ self._x
        self.gb += grad_out.sum(axis=0)
        return grad_out @ self.W

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``[(W, gW), (b, gb)]``."""
        return [(self.W, self.gW), (self.b, self.gb)]

    def bind(self, theta: np.ndarray, grad: np.ndarray,
             offset: int) -> list[slice]:
        """Copy ``W`` and ``b`` into ``theta`` from ``offset`` on, then make
        them (and ``gW``/``gb``, in a zeroed ``grad``) views there; returns
        the slices of ``W`` and ``b``."""
        w = slice(offset, offset + self.W.size)
        b = slice(w.stop, w.stop + self.b.size)
        theta[w] = self.W.ravel()
        theta[b] = self.b
        self.W = theta[w].reshape(self.W.shape)
        self.b = theta[b]
        self.gW = grad[w].reshape(self.W.shape)
        self.gb = grad[b]
        return [w, b]


class Tanh(Layer):
    """Elementwise tanh."""

    def __init__(self):
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Elementwise tanh."""
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Chain through the tanh derivative."""
        if self._y is None:
            raise TrainingError("backward before forward")
        return grad_out * (1.0 - self._y ** 2)


class MLP(Layer):
    """Tanh MLP: ``sizes=[in, h1, ..., out]``; the final layer is linear.

    ``out_gain`` scales the last layer's orthogonal init (0.01 for policy
    heads, 1.0 for value heads — the usual PPO recipe).  The parameters
    live in one vector ``theta`` (gradients in ``grad``); see the module
    docstring for the layout.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 out_gain: float = 0.01, hidden_gain: float = np.sqrt(2.0)):
        if len(sizes) < 2:
            raise TrainingError("MLP needs at least input and output sizes")
        self.layers: list[Layer] = []
        linears: list[Linear] = []
        for i in range(len(sizes) - 1):
            last = i == len(sizes) - 2
            gain = out_gain if last else hidden_gain
            linears.append(Linear(sizes[i], sizes[i + 1], gain, rng))
            self.layers.append(linears[-1])
            if not last:
                self.layers.append(Tanh())
        size = sum(layer.W.size + layer.b.size for layer in linears)
        self.theta = np.empty(size)
        self.grad = np.zeros(size)
        #: Where each parameter array sits in ``theta``, in save order.
        self.slices: list[slice] = []
        offset = 0
        for layer in linears:
            self.slices.extend(layer.bind(self.theta, self.grad, offset))
            offset = self.slices[-1].stop

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the stack layer by layer."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate through the whole stack."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The one flat pair ``[(theta, grad)]``."""
        return [(self.theta, self.grad)]

    # -- serialisation -------------------------------------------------------
    def state_arrays(self) -> list[np.ndarray]:
        """The per-layer parameter arrays (views of ``theta``, save order)."""
        return [p for layer in self.layers for p, _ in layer.parameters()]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_arrays` (written through the
        views, so the layers stay bound to ``theta``)."""
        params = self.state_arrays()
        if len(arrays) != len(params):
            raise TrainingError(
                f"state mismatch: {len(arrays)} arrays for {len(params)} params")
        for p, a in zip(params, arrays):
            if p.shape != a.shape:
                raise TrainingError(f"shape mismatch {p.shape} vs {a.shape}")
            p[...] = a


def global_grad_norm(nets: Sequence[MLP]) -> float:
    """L2 norm over all gradients of ``nets``.

    Squares each net's gradient vector once but sums every parameter
    array's squares separately, accumulating in layer order: one sum over
    a whole net would pair the terms differently and change the clip
    scale in the last bit.
    """
    total = 0.0
    for net in nets:
        squares = net.grad * net.grad
        for span in net.slices:
            total += float(np.add.reduce(squares[span]))
    return float(np.sqrt(total))


def clip_grad_norm(nets: Sequence[MLP], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``."""
    norm = global_grad_norm(nets)
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for net in nets:
            net.grad *= scale
    return norm


class Adam:
    """Adam optimiser over a fixed list of (parameter, gradient) pairs —
    one flat pair per :class:`MLP`."""

    def __init__(self, params: list[tuple[np.ndarray, np.ndarray]],
                 lr: float = 3e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise TrainingError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p) for p, _ in params]
        self._v = [np.zeros_like(p) for p, _ in params]

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the accumulated gradients."""
        lr = self.lr if lr is None else lr
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for (p, g), m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        """Zero the tracked gradient buffers."""
        for _, g in self.params:
            g.fill(0.0)
