"""The packed device bank and the folded batched Newton loop, bitwise.

``repro.circuits.mosfet.DeviceArrays`` keeps its 13 per-device constants
in one ``(13, ..., K)`` array, and ``repro.sim.batch._newton_batch`` takes
each residual test from the next iteration's device pass instead of a
second, current-only pass.  Neither may change a number: the references
below are the per-field bank and the two-pass Newton loop the new code
replaced, and every comparison is ``np.array_equal``.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits.mosfet import (
    DeviceArrays,
    Mosfet,
    channel_current_batch,
    channel_ids_batch,
    eval_companion_batch,
    eval_companion_ids_batch,
    eval_ids_batch,
)
from repro.circuits.technology import finfet16, ptm45
from repro.pex import PexSimulator
from repro.sim import batch as batch_mod
from repro.sim import dc
from repro.sim.batch import _solve_active, solve_dc_batch
from repro.sim.dc import _POLISH_ITERS, _POLISH_STAG
from repro.topologies import (
    FiveTransistorOta,
    FoldedCascodeOta,
    NegGmOta,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)

TOPOLOGIES = (TwoStageOpAmp, NegGmOta, FiveTransistorOta,
              TransimpedanceAmplifier, FoldedCascodeOta)


# -- per-field / two-pass references ------------------------------------------
@dataclasses.dataclass(frozen=True)
class ReferenceDeviceArrays:
    """The per-field bank: 13 separate arrays, re-subset field by field."""

    beta: np.ndarray
    lam: np.ndarray
    vth0: np.ndarray
    body_k: np.ndarray
    subth: np.ndarray
    sign: np.ndarray
    c_area: np.ndarray
    c_ov: np.ndarray
    c_j: np.ndarray
    gamma_n: np.ndarray
    kf: np.ndarray
    inv_subth: np.ndarray
    lam_sp: np.ndarray

    @classmethod
    def from_mosfets(cls, mosfets):
        rows = [(m.params.kp * m.w * m.m / m.l,
                 m.params.lambda_l / m.l,
                 m.params.vth0,
                 m.params.body_k,
                 m.params.subthreshold_v,
                 m._sign,
                 m.params.cox * m.w * m.l * m.m,
                 m.params.c_overlap * m.w * m.m,
                 m.params.c_junction * m.w * m.m,
                 m.params.gamma_noise,
                 m.params.kf) for m in mosfets]
        cols = np.array(rows, dtype=float).reshape(len(rows), 11).T
        return cls(*cols, 1.0 / cols[4], cols[1] * 0.05)

    @classmethod
    def stack(cls, banks):
        return cls(*(np.stack([getattr(b, f.name) for b in banks])
                     for f in dataclasses.fields(cls)))

    def take(self, idx):
        return ReferenceDeviceArrays(*(getattr(self, f.name)[idx]
                                       for f in dataclasses.fields(self)))


def reference_residual_batch(stack, X, idx, source_scale, gmin):
    """The separate current-only residual pass."""
    tpl = stack.template
    Xa = X[idx]
    F = (stack.G[idx] @ Xa[..., None])[..., 0] - source_scale * stack.b_dc[idx]
    if stack.dev is not None:
        Xp = np.concatenate([Xa, np.zeros((len(idx), 1))], axis=1)
        V = Xp[:, tpl._terms_pad]
        ids = eval_ids_batch(stack.dev.take(idx), V)
        F += ids @ tpl._res_map
    if gmin > 0.0:
        F[:, :stack.n_nodes] += gmin * Xa[:, :stack.n_nodes]
    return F


def reference_newton_batch(stack, X, idx, gmin, source_scale):
    """The two-pass loop: a separate current-only residual pass at every
    convergence test (Newton settings read from ``repro.sim.dc``), with
    polish rounds running past ``max_iter``."""
    max_iter, vtol, itol = dc._MAX_ITER, dc._VTOL, dc._ITOL
    damping = dc._DAMPING
    tpl = stack.template
    n, n1 = stack.size, stack.size + 1
    B = len(idx)
    converged = np.zeros(B, dtype=bool)
    dead = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    fnorm = np.full(B, np.inf)
    polish = np.full(B, -1, dtype=np.int64)
    active = np.arange(B)
    diag = np.arange(stack.n_nodes)
    A_buf = np.empty((B, n1, n1))
    rhs_buf = np.empty((B, n1))
    Xp_buf = np.zeros((B, n1))
    scatter_buf = np.empty((B, n1 * n1))
    dev_act = stack.dev.take(idx) if stack.dev is not None else None
    G_act = stack.G[idx]
    b_act = stack.b_dc[idx]
    it = 0
    while True:
        it += 1
        if it > max_iter:
            keep = polish[active] >= 0
            if not keep.all():
                active = active[keep]
                G_act, b_act = G_act[keep], b_act[keep]
                if dev_act is not None:
                    dev_act = dev_act.take(keep)
        a = len(active)
        if a == 0:
            break
        rows = idx[active]
        Xa = X[rows]
        A = A_buf[:a]
        A[:, n, :] = 0.0
        A[:, :, n] = 0.0
        A[:, :n, :n] = G_act
        rhs = rhs_buf[:a]
        rhs[:, n] = 0.0
        rhs[:, :n] = source_scale * b_act
        if dev_act is not None:
            Xp = Xp_buf[:a]
            Xp[:, :n] = Xa
            V = Xp[:, tpl._terms_pad]
            i_d, g = eval_companion_batch(dev_act, V)
            prod = np.matmul(g.reshape(a, -1), tpl.newton_g_map,
                             out=scatter_buf[:a])
            flat = A.reshape(a, -1)
            np.add(flat, prod, out=flat)
            i_eq = i_d - (g * V).sum(-1)
            rhs += i_eq @ tpl._newton_i_map
        if gmin > 0.0:
            A[:, diag, diag] += gmin
        x_new, singular = _solve_active(A[:, :n, :n], rhs[:, :n])
        iterations[active] = it
        shrunk = False
        if singular.any():
            sing_rows = active[singular]
            dead[sing_rows[polish[sing_rows] < 0]] = True
            ok_rows = ~singular
            active = active[ok_rows]
            x_new, Xa = x_new[ok_rows], Xa[ok_rows]
            rows = idx[active]
            shrunk = True
            if len(active) == 0:
                break
        dx = x_new - Xa
        step = np.abs(dx).max(axis=1)
        over = step > damping
        if over.any():
            dx[over] *= (damping / step[over])[:, None]
        X[rows] = Xa + dx
        drop = np.zeros(len(active), dtype=bool)
        polishing = polish[active] >= 0
        if polishing.any():
            pol_rows = active[polishing]
            polish[pol_rows] -= 1
            finished = (polish[pol_rows] < 0) | (step[polishing] < _POLISH_STAG)
            drop[np.nonzero(polishing)[0][finished]] = True
        check = (step < vtol) & ~polishing
        if check.any():
            sub_local = np.nonzero(check)[0]
            sub = active[sub_local]
            F = reference_residual_batch(stack, X, idx[sub], source_scale,
                                         gmin)
            fn = np.abs(F).max(axis=1)
            good = fn < itol
            fnorm[sub] = fn
            if good.any():
                converged[sub[good]] = True
                stag = (step[sub_local[good]] < _POLISH_STAG) \
                    if _POLISH_ITERS > 0 else np.ones(int(good.sum()), dtype=bool)
                polish[sub[good][~stag]] = _POLISH_ITERS
                drop[sub_local[good][stag]] = True
        if drop.any():
            active = active[~drop]
            shrunk = True
        if shrunk:
            G_act = stack.G[idx[active]]
            b_act = stack.b_dc[idx[active]]
            if stack.dev is not None:
                dev_act = stack.dev.take(idx[active])
    left = ~converged & ~dead
    if left.any():
        F = reference_residual_batch(stack, X, idx[left], source_scale, gmin)
        fnorm[left] = np.abs(F).max(axis=1)
    return converged, iterations, fnorm


# -- helpers --------------------------------------------------------------------
def assert_bank_equal(packed, ref):
    for name in DeviceArrays.FIELDS:
        assert np.array_equal(getattr(packed, name), getattr(ref, name)), name


def random_mosfets(n=10, seed=4):
    rng = np.random.default_rng(seed)
    mosfets = []
    for i in range(n):
        tech = ptm45() if i % 2 else finfet16()
        pol = "nmos" if i % 3 else "pmos"
        params = tech.nmos if pol == "nmos" else tech.pmos
        mosfets.append(Mosfet(f"M{i}", "d", "g", "s", "b", polarity=pol,
                              params=params, w=rng.uniform(1e-6, 5e-5),
                              l=rng.uniform(5e-8, 1e-6),
                              m=float(rng.integers(1, 5))))
    return mosfets


def random_values(topology, n, seed):
    space = topology.parameter_space
    rng = np.random.default_rng(seed)
    return space.values(np.stack([space.sample(rng) for _ in range(n)]))


def solve_both(monkeypatch, stack, x0, max_iter=dc._MAX_ITER):
    """``solve_dc_batch`` with the folded loop, then with the reference,
    both at ``max_iter`` Newton iterations per rung."""
    with monkeypatch.context() as m:
        m.setattr(dc, "_MAX_ITER", max_iter)
        new = solve_dc_batch(stack, x0=x0)
        m.setattr(batch_mod, "_newton_batch", reference_newton_batch)
        ref = solve_dc_batch(stack, x0=x0)
    return new, ref


def assert_results_equal(new, ref):
    assert np.array_equal(new.x, ref.x)
    assert np.array_equal(new.converged, ref.converged)
    assert np.array_equal(new.iterations, ref.iterations)
    assert np.array_equal(new.residual_norm, ref.residual_norm)


@pytest.fixture
def dense(monkeypatch):
    """Every system built in the test uses the dense leg, where the
    batched Newton loop runs."""
    monkeypatch.setenv("REPRO_ENGINE", "dense")


# -- the packed bank ----------------------------------------------------------
class TestPackedBank:
    def test_from_mosfets(self):
        mosfets = random_mosfets()
        packed = DeviceArrays.from_mosfets(mosfets)
        assert packed.data.shape == (13, len(mosfets))
        assert len(packed) == len(mosfets)
        assert_bank_equal(packed, ReferenceDeviceArrays.from_mosfets(mosfets))

    @pytest.mark.parametrize("topology_cls", TOPOLOGIES)
    def test_from_topology_netlists(self, topology_cls):
        topology = topology_cls()
        for values in random_values(topology, 3, seed=1):
            netlist = topology.build(values)
            mosfets = [e for e in netlist if isinstance(e, Mosfet)]
            assert_bank_equal(DeviceArrays.from_mosfets(mosfets),
                              ReferenceDeviceArrays.from_mosfets(mosfets))

    def test_stack_and_take(self):
        banks = [random_mosfets(seed=s) for s in range(5)]
        packed = DeviceArrays.stack([DeviceArrays.from_mosfets(b)
                                     for b in banks])
        ref = ReferenceDeviceArrays.stack(
            [ReferenceDeviceArrays.from_mosfets(b) for b in banks])
        assert packed.data.shape == (13, 5, 10)
        assert_bank_equal(packed, ref)
        mask = np.array([True, False, True, True, False])
        for idx in (3, np.array([4, 0, 2]), mask):
            assert_bank_equal(packed.take(idx), ref.take(idx))
        assert packed.take(3).data.shape == (13, 10)
        assert np.shares_memory(packed.take(3).data, packed.data)

    @pytest.mark.parametrize("topology_cls", (TwoStageOpAmp, NegGmOta))
    def test_stack_bank_equals_per_field_stack(self, topology_cls, dense):
        topology = topology_cls()
        values = random_values(topology, 6, seed=2)
        stack = topology._plan.stack(values)
        ref = ReferenceDeviceArrays.stack([
            ReferenceDeviceArrays.from_mosfets(
                topology._plan.restamp(v).mosfets) for v in values])
        assert_bank_equal(stack.dev, ref)


class TestCurrentOnlyOutput:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_eval_ids_batch(self, reverse):
        mosfets = random_mosfets()
        dev = DeviceArrays.stack([DeviceArrays.from_mosfets(mosfets)] * 4)
        rng = np.random.default_rng(5)
        V = rng.uniform(-1.5, 1.5, size=(4, len(mosfets), 4))
        sign = dev.sign[..., None]
        # vds = sign * (vd - vs): forward bias puts the drain on the
        # polarity's high side, reverse bias on its low side.
        span = np.abs(rng.uniform(0.0, 1.5, size=(4, len(mosfets), 1)))
        V[..., 0:1] = V[..., 2:3] + (-span if reverse else span) * sign
        i_d, g, ids = eval_companion_ids_batch(dev, V)
        assert np.array_equal(ids, eval_ids_batch(dev, V))
        ref_i, ref_g = eval_companion_batch(dev, V)
        assert np.array_equal(i_d, ref_i) and np.array_equal(g, ref_g)

    def test_channel_level_mixed_bias(self):
        dev = DeviceArrays.from_mosfets(random_mosfets())
        rng = np.random.default_rng(6)
        for _ in range(20):
            vgs, vds, vsb = rng.uniform(-2.0, 2.0, size=(3, 10))
            cc = channel_current_batch(dev, vgs, vds, vsb)
            assert np.array_equal(cc.ids_res,
                                  channel_ids_batch(dev, vgs, vds, vsb))


# -- the folded Newton loop -------------------------------------------------
class TestFoldedNewton:
    @pytest.mark.parametrize("max_iter", [120, 4])
    @pytest.mark.parametrize("seeded", [True, False])
    @pytest.mark.parametrize("topology_cls", TOPOLOGIES)
    def test_matches_two_pass_reference(self, topology_cls, seeded, max_iter,
                                        dense, monkeypatch):
        topology = topology_cls()
        stack = topology._plan.stack(random_values(topology, 12, seed=3))
        x0 = topology._batch_warm_start(stack) if seeded else None
        new, ref = solve_both(monkeypatch, stack, x0, max_iter=max_iter)
        assert_results_equal(new, ref)
        if max_iter == 4:
            # The ladders ran: plain Newton cannot finish in 4 iterations.
            assert new.iterations.max() > 4

    def test_pex_corner_stack(self, dense, monkeypatch):
        pex = PexSimulator(NegGmOta, cache=False)
        assert len(pex.corners) == 3
        values = random_values(pex._topologies[0], 5, seed=4)
        B, K = len(values), len(pex.corners)
        stack = None
        for k, plan in enumerate(pex._plans):
            stack = plan.stack(values, into=stack, offset=k * B,
                               n_slices=B * K, n_corners=K)
        x0 = pex._corner_warm_start(stack, B)
        for max_iter in (120, 4):
            new, ref = solve_both(monkeypatch, stack, x0, max_iter=max_iter)
            assert_results_equal(new, ref)

    def test_singular_design(self, dense, monkeypatch):
        topology = TwoStageOpAmp()
        stack = topology._plan.stack(random_values(topology, 6, seed=5))
        stack.G[2] = 0.0        # every branch row of slice 2 is empty
        x0 = topology._batch_warm_start(stack)
        new, ref = solve_both(monkeypatch, stack, x0)
        assert_results_equal(new, ref)
        assert not new.converged[2] and new.converged[[0, 1, 3, 4, 5]].all()
