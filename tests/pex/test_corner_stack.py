"""Corner-stacked PEX evaluation: equivalence with the per-corner loop."""

import numpy as np
import pytest

from repro.pex import PexSimulator
from repro.sim.batch import SystemStack
from repro.sim.dc import solve_dc
from repro.topologies import (
    FiveTransistorOta,
    NegGmOta,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)


@pytest.fixture(scope="module", params=[NegGmOta, TransimpedanceAmplifier])
def pex_pair(request):
    """One PexSimulator per topology family, full signoff corners."""
    return request.param, PexSimulator(request.param, cache=False)


class TestCornerStackEquivalence:
    def test_stacked_matches_percorner_loop(self, pex_pair):
        """Spec-for-spec agreement between the (B*K)-stacked solve and the
        historical corner-by-corner loop (both converge to the same
        residual gate, so specs agree to solver tolerance)."""
        _, pex = pex_pair
        rng = np.random.default_rng(11)
        for _ in range(4):
            row = pex.parameter_space.sample(rng)
            stacked = pex.evaluate(row)
            loop = pex.evaluate_percorner(row)
            assert set(stacked) == set(loop)
            for name in loop:
                assert stacked[name] == pytest.approx(loop[name], rel=2e-3), \
                    name

    def test_batch_matches_single_evaluates(self, pex_pair):
        _, pex = pex_pair
        rng = np.random.default_rng(4)
        designs = np.stack([pex.parameter_space.sample(rng)
                            for _ in range(5)])
        batch = pex.evaluate_batch(designs)
        for row, batched in zip(designs, batch):
            # Single evaluations seed each corner from the previous one;
            # these designs are not neighbours, so start each from the
            # canonical seeds the batch uses.
            pex.reset_warm_start()
            single = pex.evaluate(row)
            for name in single:
                assert batched[name] == pytest.approx(single[name], rel=1e-9)

    def test_worst_case_is_pessimistic_vs_typical(self):
        from repro.pex.corners import typical_only

        tt = PexSimulator(NegGmOta, corners=typical_only(), cache=False)
        full = PexSimulator(NegGmOta, cache=False)
        x = tt.parameter_space.center
        s_tt = tt.evaluate(x)
        s_full = full.evaluate(x)
        assert s_full["gain"] <= s_tt["gain"] + 1e-12
        assert s_full["ugbw"] <= s_tt["ugbw"] + 1e-9
        assert s_full["phase_margin"] <= s_tt["phase_margin"] + 1e-9


class _LegacyOta(FiveTransistorOta):
    """A topology on the pre-pipeline extension API: it overrides
    ``measure``, so the stacked measurement path declines it."""

    def measure(self, system, op):
        return {"gain": 150.0, "ugbw": 2.0e7, "ibias": op.supply_current()}


class TestLegacyMeasureFallback:
    def test_worst_case_over_corners_matches_percorner(self, monkeypatch):
        """Corner stacks of a legacy topology are measured slice by slice;
        each design still gets its worst case over the signoff corners."""
        calls = []
        real = PexSimulator._measure_slices

        def spy(self, values_list, result):
            calls.append(len(values_list))
            return real(self, values_list, result)

        monkeypatch.setattr(PexSimulator, "_measure_slices", spy)
        pex = PexSimulator(_LegacyOta, cache=False)
        rng = np.random.default_rng(3)
        designs = np.stack([pex.parameter_space.sample(rng)
                            for _ in range(4)])
        batch = pex.evaluate_batch(designs)
        assert calls == [4]
        for row, specs in zip(designs, batch):
            values = pex.parameter_space.values(row)
            ibias = [solve_dc(plan.restamp(values)).supply_current()
                     for plan in pex._plans]
            assert specs["gain"] == 150.0 and specs["ugbw"] == 2.0e7
            # ibias is minimised: the worst corner draws the most.
            assert specs["ibias"] == pytest.approx(max(ibias), rel=1e-9)
            loop = pex.evaluate_percorner(row)
            assert set(loop) == set(specs)
            for name in loop:
                assert specs[name] == pytest.approx(loop[name], rel=1e-9)


class TestCounterAccounting:
    def test_stacked_corner_solves_count_per_design(self):
        """One fresh count per design evaluation, regardless of how many
        corner slices the stacked solve carries; cache hits and in-batch
        duplicates count as cached, exactly like the sequential loop."""
        pex = PexSimulator(NegGmOta, cache=True)
        rng = np.random.default_rng(0)
        designs = np.stack([pex.parameter_space.sample(rng)
                            for _ in range(4)])
        pex.reset_counter()
        pex.evaluate_batch(designs)
        assert pex.counter.snapshot() == {"fresh": 4, "cached": 0, "total": 4}
        # Re-evaluating the same designs is all cache hits.
        pex.evaluate_batch(designs)
        assert pex.counter.snapshot() == {"fresh": 4, "cached": 4, "total": 8}
        # Duplicates inside one batch count like sequential cache hits.
        row = pex.parameter_space.center + 1
        pex.reset_counter()
        pex.evaluate_batch(np.stack([row, row, row]))
        assert pex.counter.fresh == 1
        assert pex.counter.cached == 2

    def test_single_evaluate_counts_one_fresh(self):
        pex = PexSimulator(NegGmOta, cache=True)
        pex.reset_counter()
        x = pex.parameter_space.center
        pex.evaluate(x)
        pex.evaluate(x)
        assert pex.counter.fresh == 1
        assert pex.counter.cached == 1


class TestStackMetadata:
    def test_corner_axis_must_divide_slices(self, two_stage_simulator=None):
        topo = TwoStageOpAmp()
        system = topo._plan.restamp(
            topo.parameter_space.values(topo.parameter_space.center))
        with pytest.raises(ValueError):
            SystemStack(system, 5, n_corners=2)

    def test_per_slice_temperatures_and_values(self):
        pex = PexSimulator(NegGmOta, cache=False)
        values = pex.parameter_space.values(pex.parameter_space.center)
        B, K = 2, len(pex.corners)
        stack = None
        for k, plan in enumerate(pex._plans):
            stack = plan.stack([values] * B, into=stack, offset=k * B,
                               n_slices=B * K, n_corners=K)
        assert stack.n_corners == K
        for k, (corner, plan) in enumerate(zip(pex.corners, pex._plans)):
            netlist = plan.restamp(values).netlist
            for i in range(B):
                row = k * B + i
                assert stack.temperatures[row] == corner.temperature
                for name in stack.noise_res_names:
                    assert (stack.resistances(name, row)
                            == netlist[name].resistance), name

    def test_tia_pex_uses_stacked_measurement(self):
        """The TIA's settling/noise chain must ride the stacked path under
        PEX (parasitic resistor noise included via the stack's captured
        constants)."""
        pex = PexSimulator(TransimpedanceAmplifier, cache=False)
        values = pex.parameter_space.values(pex.parameter_space.center)
        specs = pex._evaluate_fresh_batch([values])
        assert len(specs) == 1
        assert specs[0]["noise"] > 0.0
        # The stacked path is exercised: the reference topology's batched
        # measurement accepts the corner stack (None would mean fallback).
        B, K = 1, len(pex.corners)
        stack = None
        for k, plan in enumerate(pex._plans):
            stack = plan.stack([values], into=stack, offset=k * B,
                               n_slices=B * K, n_corners=K)
        from repro.sim.batch import solve_dc_batch
        result = solve_dc_batch(stack, x0=pex._corner_warm_start(stack, B))
        assert pex._topologies[0].measure_batch(stack, result) is not None
