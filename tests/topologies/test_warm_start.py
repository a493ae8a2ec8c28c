"""Trajectory warm starts: seed-independent specs and reset semantics.

Scalar evaluations seed Newton from the previous sizing's operating
point.  The post-convergence polish of the Newton drivers makes the
result a function of the circuit alone, so a trajectory-seeded solve
must reproduce a cold solve of the same sizing to <= 1e-9 (this is the
direct test of the polish), and ``reset_warm_start`` must drop the
trajectory state so one episode never seeds the next.  The known
warm/cold cases also pin what a solve's ``residual_norm`` bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import SizingEnv
from repro.pex.extraction import PexSimulator
from repro.sim.batch import solve_dc_batch
from repro.sim.dc import solve_dc
from repro.sim.stamp import StampPlan
from repro.sim.system import MnaSystem
from repro.topologies import FiveTransistorOta, NegGmOta, SchematicSimulator


def _rel_close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


#: One-step cases that broke the <= 1e-9 warm/cold contract while the
#: Newton drivers returned unpolished from a residual gate passed on the
#: last iteration before the cap: each cold solve crawls ~112 iterations
#: at the damping cap and passes the 1 nA gate exactly on iteration 120.
#: The first two were found by 300 random draws of
#: ``test_one_step_delta`` (its 8 draws a run rarely hit them), the third
#: by a draw of a full suite run.
_KNOWN_CASES = {
    # cold |F| 3.2e-12 A; gain 4.0e-8 relative from warm, ugbw 7.4e-8.
    "first": ([92, 97, 64, 44], [91, 97, 64, 44]),
    # cold |F| 2.1e-13 A; gain 1.8e-9 relative, ugbw 3.5e-9.
    "second": ([79, 81, 83, 43], [78, 81, 83, 43]),
    # cold |F| 6.4e-10 A; gain 8.3e-6 relative, ugbw 1.6e-5.
    "third": ([94, 27, 66, 47], [93, 27, 66, 47]),
}


class TestWarmColdEquivalence:
    """Warm-vs-cold spec equivalence <= 1e-9 across one-grid-step deltas."""

    _topologies = {}

    @classmethod
    def _topology(cls, engine):
        t = cls._topologies.get(engine)
        if t is None:
            t = cls._topologies[engine] = FiveTransistorOta()
            t._plan.engine = engine      # pin the leg, whatever REPRO_ENGINE says
        return t

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_one_step_delta(self, engine, data):
        topology = self._topology(engine)
        space = topology.parameter_space
        idx = np.array([data.draw(st.integers(0, int(c) - 1), label="idx")
                        for c in space.counts], dtype=np.int64)
        axis = data.draw(st.integers(0, len(space) - 1), label="axis")
        sign = data.draw(st.sampled_from([-1, 1]), label="sign")
        neighbor = space.clip(idx.copy())
        neighbor[axis] = np.clip(neighbor[axis] + sign, 0,
                                 space.counts[axis] - 1)
        self._check_step(engine, idx, neighbor)

    def _check_known(self, engine, case):
        idx, neighbor = _KNOWN_CASES[case]
        self._check_step(engine, np.array(idx), np.array(neighbor))

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_known_one_step_defect(self, engine):
        self._check_known(engine, "first")

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_second_known_one_step_defect(self, engine):
        self._check_known(engine, "second")

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_third_known_one_step_defect(self, engine):
        self._check_known(engine, "third")

    def _check_step(self, engine, idx, neighbor):
        topology = self._topology(engine)
        sim = SchematicSimulator(topology, cache=False)
        topology.reset_warm_start()
        cold = sim.evaluate(idx)
        assert topology._plan.system.engine == engine
        topology.reset_warm_start()
        sim.evaluate(neighbor)           # the trajectory's previous step
        warm = sim.evaluate(idx)         # seeded from the neighbour
        for name in cold:
            assert _rel_close(cold[name], warm[name]), (
                f"{name}: cold {cold[name]!r} vs warm {warm[name]!r}")


class TestResidualNormBound:
    """``residual_norm`` is ‖F‖∞ at the convergence test, an upper bound
    on the residual of the polished point a solve returns (the third
    case reports 6.4e-10 A cold for an ``x`` near 1e-19 A)."""

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    @pytest.mark.parametrize("case", sorted(_KNOWN_CASES))
    def test_bounds_the_returned_point(self, engine, case):
        topology = FiveTransistorOta()
        plan = StampPlan(topology.build, temperature=topology.temperature,
                         updater=topology.update_netlist, engine=engine)
        space = topology.parameter_space
        idx, neighbor = (space.values(np.array(i)) for i in _KNOWN_CASES[case])
        seed = solve_dc(plan.restamp(neighbor)).x
        stack = plan.stack([idx, idx])
        batch = solve_dc_batch(stack, x0=np.stack([np.zeros_like(seed), seed]))
        assert batch.converged.all()
        system = plan.restamp(idx)
        for row, x0 in enumerate((None, seed)):
            op = solve_dc(system, x0=x0)
            for x, norm in ((op.x, op.residual_norm),
                            (batch.x[row], batch.residual_norm[row])):
                assert np.abs(system.residual(x)).max() <= norm


class TestWarmStartReset:
    def test_reset_clears_trajectory_state(self):
        topology = FiveTransistorOta()
        sim = SchematicSimulator(topology, cache=False)
        sim.evaluate(topology.parameter_space.center)
        assert topology._warm_x is not None
        sim.reset_warm_start()
        assert topology._warm_x is None

    def test_env_reset_resets_warm_state_each_episode(self):
        topology = FiveTransistorOta()
        sim = SchematicSimulator(topology, cache=False)
        calls = []
        original = sim.reset_warm_start
        sim.reset_warm_start = lambda: (calls.append(1), original())
        env = SizingEnv(sim, seed=0)
        env.reset()
        env.step([2] * len(sim.parameter_space))
        env.reset()
        assert len(calls) == 2

    def test_pex_reset_clears_per_corner_warm(self):
        pex = PexSimulator(FiveTransistorOta, cache=False)
        pex.evaluate_percorner(pex.parameter_space.center)
        assert all(t._warm_x is not None for t in pex._topologies)
        pex.reset_warm_start()
        assert all(t._warm_x is None for t in pex._topologies)

    def test_gated_design_leaves_no_warm_start(self):
        """A latched ngm-OTA converges and is charged the penalty row by
        the first-stage stability gate; its operating point must not seed
        the next step, which then equals a fresh topology's solve."""
        topology = NegGmOta()
        space = topology.parameter_space
        latched = space.values(np.array([47, 24, 26, 49, 25, 9, 25]))
        step = space.values(np.array([47, 25, 26, 49, 25, 9, 25]))
        # The DC solve converges: the design is gated, not failed.
        op = solve_dc(MnaSystem(topology.build(latched)))
        assert op.residual_norm < 1e-9
        assert topology.simulate(latched) == topology.failure_measurement()
        assert topology._warm_x is None
        specs = topology.simulate(step)
        assert specs != topology.failure_measurement()
        assert specs == NegGmOta().simulate(step)


class TestBatchSeedMemo:
    """The canonical grid-centre batch seed is solved once, failure or not."""

    def test_failed_centre_is_not_resolved_every_batch(self, monkeypatch):
        from repro.errors import ConvergenceError
        from repro.topologies import base

        attempts = []

        def sabotaged(system, *args, **kwargs):
            attempts.append(system.size)
            raise ConvergenceError("sabotaged centre solve")

        monkeypatch.setattr(base, "solve_dc", sabotaged)
        topology = FiveTransistorOta()
        space = topology.parameter_space
        rng = np.random.default_rng(0)
        for _ in range(3):
            values = space.values(np.stack([space.sample(rng)
                                            for _ in range(4)]))
            specs = topology.simulate_batch(values)
            assert len(specs) == 4
            assert any(s != topology.failure_measurement() for s in specs)
        assert len(attempts) == 1

    def test_centre_is_resolved_when_the_size_changes(self):
        topology = FiveTransistorOta()
        space = topology.parameter_space
        values = [space.values(space.center)]
        topology.simulate_batch(values)
        size, ref = topology._batch_ref
        assert ref is not None and ref.shape == (size,)
        topology._batch_ref = (size + 1, None)    # a stale, other-size memo
        topology.simulate_batch(values)
        assert topology._batch_ref[0] == size
        assert np.array_equal(topology._batch_ref[1], ref)
