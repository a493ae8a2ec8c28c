"""Neural-network library: backprop verified against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.rl.nn import MLP, Adam, Linear, Tanh, clip_grad_norm, global_grad_norm, orthogonal


class TestInit:
    def test_orthogonal_rows(self, rng):
        w = orthogonal((8, 8), 1.0, rng)
        assert np.allclose(w @ w.T, np.eye(8), atol=1e-10)

    def test_orthogonal_gain(self, rng):
        w = orthogonal((4, 4), 2.5, rng)
        assert np.allclose(w @ w.T, 6.25 * np.eye(4), atol=1e-10)

    def test_rectangular(self, rng):
        w = orthogonal((3, 7), 1.0, rng)
        assert w.shape == (3, 7)
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-10)


class TestForward:
    def test_linear_affine(self, rng):
        layer = Linear(3, 2, 1.0, rng)
        x = rng.standard_normal((5, 3))
        y = layer.forward(x)
        assert np.allclose(y, x @ layer.W.T + layer.b)

    def test_tanh_range(self, rng):
        y = Tanh().forward(rng.standard_normal((10, 4)) * 10)
        assert np.all(np.abs(y) <= 1.0)

    def test_mlp_shapes(self, rng):
        net = MLP([4, 16, 16, 3], rng)
        y = net.forward(rng.standard_normal((7, 4)))
        assert y.shape == (7, 3)

    def test_mlp_needs_two_sizes(self, rng):
        with pytest.raises(TrainingError):
            MLP([4], rng)


class TestBackprop:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_mlp_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = MLP([3, 8, 2], rng, out_gain=1.0)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss():
            return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

        net.zero_grad()
        diff = net.forward(x) - target
        net.backward(diff)

        eps = 1e-6
        for p, g in [pair for layer in net.layers
                     for pair in layer.parameters()]:
            it = np.nditer(p, flags=["multi_index"])
            for _ in range(min(p.size, 6)):  # spot-check a few entries
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                up = loss()
                p[idx] = old - eps
                down = loss()
                p[idx] = old
                fd = (up - down) / (2 * eps)
                assert g[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)
                it.iternext()

    def test_input_gradient(self, rng):
        net = MLP([3, 8, 1], rng, out_gain=1.0)
        x = rng.standard_normal((1, 3))
        net.zero_grad()
        y = net.forward(x)
        gx = net.backward(np.ones_like(y))
        eps = 1e-6
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, j] += eps
            xm[0, j] -= eps
            fd = (net.forward(xp)[0, 0] - net.forward(xm)[0, 0]) / (2 * eps)
            assert gx[0, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_gradients_accumulate(self, rng):
        net = MLP([2, 4, 1], rng)
        x = rng.standard_normal((3, 2))
        net.zero_grad()
        net.forward(x)
        net.backward(np.ones((3, 1)))
        g1 = [g.copy() for _, g in net.parameters()]
        net.forward(x)
        net.backward(np.ones((3, 1)))
        for (_, g), old in zip(net.parameters(), g1):
            assert np.allclose(g, 2 * old)

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(2, 2, 1.0, rng)
        with pytest.raises(TrainingError):
            layer.backward(np.ones((1, 2)))


class TestGradUtils:
    def test_global_norm(self, rng):
        net = MLP([2, 3, 1], rng)
        for _, g in net.parameters():
            g.fill(1.0)
        n_params = sum(p.size for p, _ in net.parameters())
        assert global_grad_norm([net]) == pytest.approx(np.sqrt(n_params))

    def test_clip_rescales(self, rng):
        net = MLP([2, 3, 1], rng)
        for _, g in net.parameters():
            g.fill(10.0)
        clip_grad_norm([net], 1.0)
        assert global_grad_norm([net]) == pytest.approx(1.0, rel=1e-6)

    def test_clip_leaves_small_gradients(self, rng):
        net = MLP([2, 3, 1], rng)
        for _, g in net.parameters():
            g.fill(1e-8)
        before = global_grad_norm([net])
        clip_grad_norm([net], 1.0)
        assert global_grad_norm([net]) == pytest.approx(before)


class TestAdam:
    def test_minimises_quadratic(self, rng):
        w = rng.standard_normal(5)
        grad = np.zeros(5)
        opt = Adam([(w, grad)], lr=0.1)
        for _ in range(300):
            grad[:] = 2 * (w - 3.0)
            opt.step()
        assert np.allclose(w, 3.0, atol=1e-3)

    def test_first_step_size_is_lr(self, rng):
        w = np.array([0.0])
        grad = np.array([123.0])
        opt = Adam([(w, grad)], lr=0.01)
        opt.step()
        # Adam's first update has magnitude ~lr regardless of gradient scale.
        assert abs(w[0]) == pytest.approx(0.01, rel=1e-4)

    def test_lr_validation(self, rng):
        with pytest.raises(TrainingError):
            Adam([], lr=0.0)


class TestSerialisation:
    def test_state_roundtrip(self, rng):
        net = MLP([3, 5, 2], rng)
        arrays = [a.copy() for a in net.state_arrays()]
        other = MLP([3, 5, 2], np.random.default_rng(999))
        other.load_state_arrays(arrays)
        x = rng.standard_normal((2, 3))
        assert np.allclose(net.forward(x), other.forward(x))

    def test_shape_mismatch_rejected(self, rng):
        net = MLP([3, 5, 2], rng)
        other = MLP([3, 6, 2], rng)
        with pytest.raises(TrainingError):
            net.load_state_arrays(other.state_arrays())
