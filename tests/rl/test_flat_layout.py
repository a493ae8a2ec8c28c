"""The flat parameter layout and the ``(B, N, K)`` action head, bitwise.

``repro.rl.nn`` keeps each MLP's parameters in one vector (every layer's
arrays are views into it) and ``repro.rl.distributions`` holds the action
blocks as one ``(B, N, K)`` array.  Neither may change a number: the
references below are the per-array optimiser, the per-array gradient
clip and the per-block distribution the layouts replaced, and every
comparison is ``np.array_equal``.
"""

import numpy as np
import pytest

from repro.rl.buffer import RolloutBuffer
from repro.rl.distributions import MultiCategorical
from repro.rl.env import Env
from repro.rl.nn import MLP, Linear
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.spaces import Box, MultiDiscrete
from repro.topologies import TwoStageOpAmp


# -- per-array / per-block references ----------------------------------------
def log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class ReferenceMultiCategorical:
    """The per-block distribution: a Python loop over the N blocks."""

    def __init__(self, logits, nvec):
        self.nvec = np.asarray(nvec, dtype=np.int64)
        self.logits = np.asarray(logits, dtype=float)
        self._blocks = np.split(self.logits, np.cumsum(self.nvec)[:-1], axis=1)
        self._logp_blocks = [log_softmax(b) for b in self._blocks]
        self._p_blocks = [np.exp(lp) for lp in self._logp_blocks]
        self.batch_size = self.logits.shape[0]

    def sample(self, rng):
        cols = []
        for p in self._p_blocks:
            cdf = np.cumsum(p, axis=1)
            u = rng.random((self.batch_size, 1))
            cols.append((u > cdf[:, :-1]).sum(axis=1) if p.shape[1] > 1
                        else np.zeros(self.batch_size, dtype=np.int64))
        return np.stack([np.asarray(c, dtype=np.int64) for c in cols], axis=1)

    def mode(self):
        return np.stack([b.argmax(axis=1) for b in self._blocks], axis=1)

    def log_prob(self, actions):
        rows = np.arange(self.batch_size)
        total = np.zeros(self.batch_size)
        for d, lp in enumerate(self._logp_blocks):
            total += lp[rows, actions[:, d]]
        return total

    def entropy(self):
        total = np.zeros(self.batch_size)
        for p, lp in zip(self._p_blocks, self._logp_blocks):
            total += -(p * lp).sum(axis=1)
        return total

    def grad_log_prob(self, actions):
        rows = np.arange(self.batch_size)
        grads = []
        for d, p in enumerate(self._p_blocks):
            g = -p.copy()
            g[rows, actions[:, d]] += 1.0
            grads.append(g)
        return np.concatenate(grads, axis=1)

    def grad_entropy(self):
        grads = []
        for p, lp in zip(self._p_blocks, self._logp_blocks):
            h = -(p * lp).sum(axis=1, keepdims=True)
            grads.append(-p * (lp + h))
        return np.concatenate(grads, axis=1)


def reference_clip_grad_norm(params, max_norm):
    """Per-array global-norm clip."""
    total = 0.0
    for _, g in params:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0.0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for _, g in params:
            g *= scale
    return norm


class ReferenceAdam:
    """Adam stepping every parameter array separately."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p) for p, _ in params]
        self._v = [np.zeros_like(p) for p, _ in params]

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for (p, g), m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def per_array(net):
    """Give every layer of ``net`` arrays of its own (the old layout);
    returns its (parameter, gradient) pairs in save order."""
    pairs = []
    for layer in net.layers:
        if isinstance(layer, Linear):
            layer.W, layer.b = layer.W.copy(), layer.b.copy()
            layer.gW, layer.gb = layer.gW.copy(), layer.gb.copy()
            pairs += layer.parameters()
    return pairs


def reference_update(policy, pairs, optimizer, cfg, buffer, rng):
    """``PPOTrainer.update`` on the per-array layout; returns the number
    of minibatch steps taken."""
    batch = buffer.flattened()
    n = len(batch["obs"])
    adv = batch["advantages"]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start:start + cfg.minibatch_size]
            if len(idx) < 2:
                continue
            obs, actions = batch["obs"][idx], batch["actions"][idx]
            b = len(idx)
            for _, g in pairs:
                g.fill(0.0)
            dist = ReferenceMultiCategorical(policy.pi.forward(obs),
                                             policy.nvec)
            logp = dist.log_prob(actions)
            ratio = np.exp(np.clip(logp - batch["log_probs"][idx],
                                   -20.0, 20.0))
            unclipped = ratio * adv[idx]
            clipped = np.clip(ratio, 1.0 - cfg.clip_ratio,
                              1.0 + cfg.clip_ratio) * adv[idx]
            active = (unclipped <= clipped).astype(float)
            dlogp = -(active * ratio * adv[idx]) / b
            dlogits = dlogp[:, None] * dist.grad_log_prob(actions)
            dlogits += (-cfg.ent_coef / b) * dist.grad_entropy()
            policy.pi.backward(dlogits)
            verr = policy.vf.forward(obs)[:, 0] - batch["returns"][idx]
            policy.vf.backward((cfg.vf_coef * 2.0 * verr / b)[:, None])
            reference_clip_grad_norm(pairs, cfg.max_grad_norm)
            optimizer.step()
            steps += 1
    return steps


# -- fixtures ---------------------------------------------------------------
def _opamp_dims():
    topology = TwoStageOpAmp()
    n = len(topology.parameter_space)
    return 2 * len(topology.spec_space) + n, [3] * n


class ShapedEnv(Env):
    """Never stepped: carries the op-amp's observation and action spaces."""

    def __init__(self):
        obs_dim, nvec = _opamp_dims()
        self.observation_space = Box(-np.inf, np.inf, shape=(obs_dim,))
        self.action_space = MultiDiscrete(nvec)


def _rollout(policy, cfg, seed):
    """A synthetic rollout buffer of the policy's own actions."""
    rng = np.random.default_rng(seed)
    obs_dim = policy.obs_dim
    buffer = RolloutBuffer(cfg.n_steps, cfg.n_envs, obs_dim, len(policy.nvec))
    for _ in range(cfg.n_steps):
        obs = rng.uniform(-1.0, 1.0, (cfg.n_envs, obs_dim))
        actions, log_probs, values = policy.act(obs, rng)
        buffer.add(obs, actions, rng.normal(-1.0, 1.0, cfg.n_envs),
                   rng.random(cfg.n_envs) < 0.05, values, log_probs)
    buffer.compute_gae(policy.value(rng.uniform(-1.0, 1.0,
                                                (cfg.n_envs, obs_dim))),
                       cfg.gamma, cfg.gae_lambda)
    return buffer


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


# -- tests ------------------------------------------------------------------
class TestPPOUpdateBitwise:
    def test_weights_and_moments_after_20_minibatch_steps(self):
        # The training defaults over 2 epochs: 600 samples in minibatches
        # of 64 (the last of 24), 20 steps.
        cfg = PPOConfig(epochs=2, seed=3)
        trainer = PPOTrainer([ShapedEnv] * cfg.n_envs, config=cfg)
        policy = trainer.policy
        assert policy.hidden == (50, 50, 50) and len(policy.nvec) == 7
        buffer = _rollout(policy, cfg, seed=11)

        initial = policy.pi.theta.copy()
        reference = policy.clone()
        pairs = per_array(reference.pi) + per_array(reference.vf)
        optimizer = ReferenceAdam(pairs, lr=cfg.lr)

        trainer.update(buffer)
        steps = reference_update(reference, pairs, optimizer, cfg, buffer,
                                 np.random.default_rng(cfg.seed))

        assert steps == 20 and trainer.optimizer.t == 20
        # Training moved the weights: the comparison is not vacuous.
        assert not np.array_equal(policy.pi.theta, initial)
        n_pi = len(reference.pi.state_arrays())
        ref_params = [p for p, _ in pairs]
        for k, (net, part) in enumerate(((policy.pi, slice(0, n_pi)),
                                         (policy.vf, slice(n_pi, None)))):
            assert np.array_equal(net.theta, _flat(ref_params[part]))
            assert np.array_equal(trainer.optimizer._m[k],
                                  _flat(optimizer._m[part]))
            assert np.array_equal(trainer.optimizer._v[k],
                                  _flat(optimizer._v[part]))


@pytest.mark.parametrize("batch", [1, 10, 64])
@pytest.mark.parametrize("nvec", [[3] * 7, [3] * 12, [3, 3, 4]],
                         ids=["7x3", "12x3", "ragged"])
class TestDistributionBitwise:
    """7 blocks is the op-amp head; at 8 or more blocks ``np.sum`` over the
    blocks no longer adds them left to right; ``[3, 3, 4]`` pads."""

    @pytest.fixture
    def pair(self, nvec, batch):
        logits = 2.0 * np.random.default_rng(5).standard_normal(
            (batch, sum(nvec)))
        logits[0, :3] = 1.5   # a tie: argmax takes the first
        return (MultiCategorical(logits, nvec),
                ReferenceMultiCategorical(logits, nvec))

    def test_sample(self, pair):
        dist, ref = pair
        for seed in range(20):
            assert np.array_equal(dist.sample(np.random.default_rng(seed)),
                                  ref.sample(np.random.default_rng(seed)))

    def test_mode_log_prob_entropy(self, pair):
        dist, ref = pair
        actions = ref.sample(np.random.default_rng(0))
        assert np.array_equal(dist.mode(), ref.mode())
        assert np.array_equal(dist.log_prob(actions), ref.log_prob(actions))
        assert np.array_equal(dist.entropy(), ref.entropy())

    def test_gradients(self, pair):
        dist, ref = pair
        actions = ref.sample(np.random.default_rng(1))
        assert np.array_equal(dist.grad_log_prob(actions),
                              ref.grad_log_prob(actions))
        assert np.array_equal(dist.grad_entropy(), ref.grad_entropy())


class _TopDraws:
    """Generator stand-in whose every draw is 1.0, the top of the range."""

    def random(self, shape):
        return np.ones(shape)


def test_padded_slots_are_never_sampled():
    """A 3-way block whose CDF rounds to just below 1 must still stop at
    action 2 when padded to 4 slots."""
    nvec = [3, 3, 4]
    logits = np.random.default_rng(2).standard_normal((256, 10))
    dist = MultiCategorical(logits, nvec)
    ref = ReferenceMultiCategorical(logits, nvec)
    short = np.cumsum(ref._p_blocks[0], axis=1)[:, -1] < 1.0
    assert short.any()
    actions = dist.sample(_TopDraws())
    assert np.array_equal(actions, ref.sample(_TopDraws()))
    assert np.all(actions < np.array(nvec))


class TestActSingle:
    def test_matches_batched_act_over_3000_draws(self):
        obs_dim, nvec = _opamp_dims()
        policy = ActorCritic(obs_dim, nvec, seed=4)
        # Large logits make every action value appear, not only "keep".
        policy.pi.layers[-1].W *= 300.0
        observations = np.random.default_rng(6).uniform(-1, 1, (3000, obs_dim))
        single_rng, batch_rng = (np.random.default_rng(8),
                                 np.random.default_rng(8))
        seen = set()
        for i, obs in enumerate(observations):
            deterministic = i % 10 == 9
            single = policy.act_single(obs, single_rng, deterministic)
            batched = policy.act(obs[None, :], batch_rng, deterministic)[0][0]
            assert np.array_equal(single, batched)
            seen.update(single.tolist())
        assert seen == {0, 1, 2}
        # Both generators consumed the same stream.
        assert single_rng.random() == batch_rng.random()


def _assert_bound(net):
    for layer in net.layers:
        if isinstance(layer, Linear):
            assert np.shares_memory(layer.W, net.theta)
            assert np.shares_memory(layer.b, net.theta)
            assert np.shares_memory(layer.gW, net.grad)
            assert np.shares_memory(layer.gb, net.grad)


class TestViewsStayBound:
    """A rebound array would silently stop training."""

    def test_after_construction(self):
        policy = ActorCritic(6, [3, 3], hidden=(8, 8), seed=0)
        _assert_bound(policy.pi)
        _assert_bound(policy.vf)
        _assert_bound(MLP([3, 4, 2], np.random.default_rng(0)))

    def test_after_load_state_arrays(self):
        net = MLP([3, 5, 2], np.random.default_rng(0))
        arrays = [a + 1.0 for a in net.state_arrays()]
        net.load_state_arrays(arrays)
        _assert_bound(net)
        assert np.array_equal(net.theta, _flat(arrays))

    def test_after_clone_and_from_arrays(self):
        policy = ActorCritic(6, [3, 3], hidden=(8, 8), seed=0)
        for twin in (policy.clone(),
                     ActorCritic.from_arrays(policy.to_arrays())):
            _assert_bound(twin.pi)
            _assert_bound(twin.vf)
            assert np.array_equal(twin.pi.theta, policy.pi.theta)
            assert np.array_equal(twin.vf.theta, policy.vf.theta)
            assert not np.shares_memory(twin.pi.theta, policy.pi.theta)

    def test_optimizer_step_reaches_the_layers(self):
        net = MLP([2, 3, 1], np.random.default_rng(0))
        x = np.ones((4, 2))
        before = net.forward(x).copy()
        net.zero_grad()
        net.backward(np.ones((4, 1)))
        assert np.any(net.grad != 0.0)
        net.theta -= 0.1 * net.grad
        assert not np.array_equal(net.forward(x), before)
