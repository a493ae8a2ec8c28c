"""Batched DC solves: stacked Newton must agree with the scalar solver."""

import functools

import numpy as np
import pytest

from repro.circuits import Netlist, Resistor, VoltageSource
from repro.sim import MnaSystem, StampPlan, dc
from repro.sim.batch import (BatchDcResult, SystemStack, _newton_batch,
                             solve_dc_batch)
from repro.sim.dc import solve_dc
from repro.sim.system import StructureMismatch
from repro.topologies import (
    FiveTransistorOta,
    FoldedCascodeOta,
    NegGmOta,
    OtaChain,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)


def _make_stack(topo, designs):
    stack = None
    for i, values in enumerate(designs):
        system = topo._plan.restamp(values)
        if stack is None:
            stack = SystemStack(system, len(designs))
        stack.set_design(i, system)
    return stack


@pytest.fixture(scope="module")
def opamp_designs():
    topo = TwoStageOpAmp()
    rng = np.random.default_rng(9)
    designs = [topo.parameter_space.values(topo.parameter_space.sample(rng))
               for _ in range(8)]
    return topo, designs


class TestSolveDcBatch:
    def test_matches_scalar_solver(self, opamp_designs):
        topo, designs = opamp_designs
        stack = _make_stack(topo, designs)
        result = solve_dc_batch(stack)
        assert result.converged.all()
        for i, values in enumerate(designs):
            op = solve_dc(topo._plan.restamp(values))
            np.testing.assert_allclose(result.x[i], op.x, rtol=0, atol=1e-6)
            assert result.residual_norm[i] < 1e-9

    def test_per_design_iteration_counts(self, opamp_designs):
        topo, designs = opamp_designs
        stack = _make_stack(topo, designs)
        result = solve_dc_batch(stack)
        assert result.iterations.shape == (len(designs),)
        assert (result.iterations >= 1).all()

    def test_warm_start_reduces_iterations(self, opamp_designs):
        topo, designs = opamp_designs
        stack = _make_stack(topo, designs)
        cold = solve_dc_batch(_make_stack(topo, designs))
        warm = solve_dc_batch(stack, x0=cold.x.copy())
        assert warm.converged.all()
        assert warm.iterations.sum() < cold.iterations.sum()

    def test_shape_validation(self, opamp_designs):
        topo, designs = opamp_designs
        stack = _make_stack(topo, designs)
        with pytest.raises(ValueError):
            solve_dc_batch(stack, x0=np.zeros((2, stack.size)))

    def test_result_fields(self, opamp_designs):
        topo, designs = opamp_designs
        result = solve_dc_batch(_make_stack(topo, designs))
        assert isinstance(result, BatchDcResult)
        assert result.x.shape == (len(designs), _make_stack(topo, designs).size)


class TestConvergenceMasking:
    def test_converged_designs_drop_out(self, opamp_designs, monkeypatch):
        """Designs that converge early must stop consuming iterations."""
        topo, designs = opamp_designs
        stack = _make_stack(topo, designs)
        cold = solve_dc_batch(stack)
        # Warm-start half the batch at its solution: those designs should
        # converge almost immediately while the rest iterate on.
        x0 = np.zeros((len(designs), stack.size))
        x0[::2] = cold.x[::2]
        mixed = solve_dc_batch(_make_stack(topo, designs), x0=x0)
        assert mixed.converged.all()
        assert mixed.iterations[::2].max() < mixed.iterations[1::2].max()


class TestFailureFallback:
    def test_unconverged_designs_get_failure_measurement(self, monkeypatch):
        """A design the batch engine cannot converge must surface the
        topology's pessimistic failure measurement, like the scalar path."""
        topo = FiveTransistorOta()
        rng = np.random.default_rng(2)
        designs = [topo.parameter_space.values(topo.parameter_space.sample(rng))
                   for _ in range(4)]

        import repro.topologies.base as base_mod
        real = base_mod.solve_dc_batch

        def sabotaged(stack, **kwargs):
            result = real(stack, **kwargs)
            result.converged[1] = False
            return result

        monkeypatch.setattr(base_mod, "solve_dc_batch", sabotaged)
        specs = topo.simulate_batch(designs)
        failure = topo.failure_measurement()
        assert specs[1] == failure
        for i in (0, 2, 3):
            assert specs[i] != failure


class TestSparseRowsAreScalarSolves:
    """A sparse stack solves each design through the scalar driver on
    its template's own assembly, so every converged row is bitwise the
    scalar solve of the restamped design, also when the continuation
    ladder runs (``_MAX_ITER`` at 4 sends every design that needs more
    Newton iterations down it)."""

    @pytest.mark.parametrize("max_iter", [120, 4])
    @pytest.mark.parametrize("topology_cls", [
        TwoStageOpAmp, NegGmOta, FiveTransistorOta, TransimpedanceAmplifier,
        FoldedCascodeOta, functools.partial(OtaChain, n_stages=2, segments=4),
    ], ids=["opamp", "ngm", "ota5", "tia", "folded", "ota_chain"])
    def test_converged_rows_equal_solve_dc(self, topology_cls, max_iter,
                                           monkeypatch):
        topo = topology_cls()
        plan = StampPlan(topo.build, temperature=topo.temperature,
                         updater=topo.update_netlist, engine="sparse")
        space = topo.parameter_space
        rng = np.random.default_rng(13)
        designs = space.values(np.stack([space.sample(rng)
                                         for _ in range(5)]))
        stack = plan.stack(designs)
        assert stack.sparse
        centre = solve_dc(plan.restamp(space.values(space.center))).x
        monkeypatch.setattr(dc, "_MAX_ITER", max_iter)
        compared = 0
        for x0 in (None, np.tile(centre, (len(designs), 1))):
            result = solve_dc_batch(stack, x0=x0)
            if max_iter == 4:
                assert result.iterations.max() > 4   # the ladder ran
            for i in np.nonzero(result.converged)[0]:
                op = solve_dc(plan.restamp(designs[i]),
                              x0=None if x0 is None else x0[i])
                assert np.array_equal(result.x[i], op.x)
                assert result.iterations[i] == op.iterations
                assert result.residual_norm[i] == op.residual_norm
                compared += 1
        assert compared > 0


class TestIterationCap:
    """``_MAX_ITER`` bounds the converging iterations only: a residual
    test owed after the last of them, and the polish it earns, still run,
    so lowering the cap to the iteration whose iterate passes the gate
    leaves every row's endpoint alone."""

    def test_test_owed_at_the_cap_is_polished(self, monkeypatch):
        topo = TwoStageOpAmp()
        plan = StampPlan(topo.build, temperature=topo.temperature,
                         updater=topo.update_netlist, engine="dense")
        space = topo.parameter_space
        rng = np.random.default_rng(17)
        centre = solve_dc(plan.restamp(space.values(space.center))).x
        stack = plan.stack(space.values(np.stack([space.sample(rng)
                                                  for _ in range(3)])))

        def solve(row):
            # One row per solve: every run assembles the same row subset.
            X = np.tile(centre, (stack.n_designs, 1))
            ok, it, fn = _newton_batch(stack, X, np.array([row]), 0.0, 1.0)
            return X[row], ok[0], it[0], fn[0]

        for row in range(stack.n_designs):
            x_ref, ok, it_ref, fn_ref = solve(row)
            assert ok
            gate = it_ref                 # the smallest cap that converges
            while True:
                monkeypatch.setattr(dc, "_MAX_ITER", gate - 1)
                if not solve(row)[1]:
                    break
                gate -= 1
            assert gate < it_ref          # the polish ran after the gate
            monkeypatch.setattr(dc, "_MAX_ITER", gate)
            x, ok, it, fn = solve(row)
            assert ok and (it, fn) == (it_ref, fn_ref)
            assert np.array_equal(x, x_ref)
            monkeypatch.undo()


def _drifting_ladder(values):
    """Same-size netlists whose ``R2`` moves from ``b-0`` to ``b-c`` when
    ``values["drift"]`` is set: a structure change mid-batch."""
    drift = bool(values["drift"])
    net = Netlist("drifted" if drift else "base")
    net.add(VoltageSource("V1", "a", "0", 1.0))
    net.add(Resistor("R1", "a", "b", 1e3))
    net.add(Resistor("R2", "b", "c" if drift else "0", 2e3))
    net.add(Resistor("R3", "c", "0", 3e3))
    return net


class TestStructureDrift:
    """``StampPlan.stack`` hands ``set_design`` a rebuilt system when the
    builder's structure changes mid-batch."""

    DESIGNS = [{"drift": 0.0}, {"drift": 1.0}]

    def test_dense_stack_snapshots_the_rebuilt_system(self):
        stack = StampPlan(_drifting_ladder, engine="dense").stack(self.DESIGNS)
        fresh = MnaSystem(_drifting_ladder(self.DESIGNS[1]), engine="dense")
        np.testing.assert_array_equal(stack.G[1], fresh.G)

    @pytest.mark.parametrize("engine", ["sparse"])
    def test_sparse_stack_rejects_a_drifted_pattern(self, engine):
        """The drifted slice's ``b-c`` coupling has no position in the
        template's pattern; snapshotting it there would drop 5e-4 S."""
        plan = StampPlan(_drifting_ladder, engine=engine)
        with pytest.raises(StructureMismatch,
                           match=r"'drifted'.*'base'"):
            plan.stack(self.DESIGNS)
