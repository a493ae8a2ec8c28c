"""Declarative measurement pipeline: scalar = batch-of-1, old = new.

Three contracts guard the PR-5 refactor:

* **scalar-vs-batch-of-1 bitwise** — ``Topology.measure`` runs the same
  pipeline code as ``measure_batch`` on a one-slice stack, so for the
  same operating point the two must agree *bitwise*, per primitive and
  per spec, on both engine backends;
* **old-vs-new <= 1e-9** — the declaration must reproduce the historical
  hand-written measurement bodies (re-derived here from the scalar sim
  primitives they were built from) spec for spec;
* **order independence** — primitives share memoised intermediates on
  the context, so any evaluation order yields identical specs
  (hypothesis-verified).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.measure.acspecs import amplifier_ac_specs, dc_gain, f3db
from repro.measure.pipeline import MeasureContext, MeasurementPlan, SupplyCurrent
from repro.measure.transpecs import settling_time
from repro.sim.ac import ac_node_response, ac_sweep
from repro.sim.batch import BatchDcResult, SystemStack, solve_dc_batch
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.linear import linear_step_response
from repro.sim.noise import noise_analysis
from repro.sim.system import MnaSystem
from repro.topologies import (
    FiveTransistorOta,
    FoldedCascodeOta,
    NegGmOta,
    OtaChain,
    SchematicSimulator,
    Topology,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)

TOPOLOGIES = {
    "tia": TransimpedanceAmplifier,
    "two_stage_opamp": TwoStageOpAmp,
    "ngm_ota": NegGmOta,
    "five_t_ota": FiveTransistorOta,
    "folded_cascode": FoldedCascodeOta,
    "ota_chain_small": lambda: OtaChain(n_stages=2, segments=4),
}

ENGINES = ("dense", "sparse")


def _topology(name, engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    return TOPOLOGIES[name]()


def _sizings(topology, n=3):
    space = topology.parameter_space
    rng = np.random.default_rng(11)
    rows = [np.asarray(space.center, dtype=np.int64)]
    for _ in range(n - 1):
        rows.append(np.array([rng.integers(0, p.count) for p in space],
                             dtype=np.int64))
    return [space.values(r) for r in rows]


def _solved_stack(topology, values_list):
    stack = topology._plan.stack(values_list)
    result = solve_dc_batch(stack, x0=topology._batch_warm_start(stack))
    return stack, result


def _scalar_op(topology, values):
    system = topology._plan.restamp(values)
    return system, solve_dc(system)


# -- reference implementations of the deleted hand-written measure bodies ----
def _ref_amplifier(topology, system, op, with_phase):
    """The historical AC-amplifier ``measure`` body."""
    freqs = topology.AC_FREQUENCIES
    h = ac_node_response(system, op, freqs, "out")
    specs = amplifier_ac_specs(freqs, h, with_phase=with_phase)
    specs["ibias"] = op.supply_current("VDD")
    return specs


def _ref_ngm(topology, system, op):
    """The historical negative-gm OTA ``measure`` body (latch-up gate)."""
    if not topology.first_stage_stable(op):
        return topology.failure_measurement()
    freqs = topology.AC_FREQUENCIES
    h = ac_node_response(system, op, freqs, "out")
    return amplifier_ac_specs(freqs, h)


def _ref_chain(topology, system, op):
    """The historical OTA-chain ``measure`` body."""
    freqs = topology.AC_FREQUENCIES
    h = ac_node_response(system, op, freqs, "out")
    return {"gain": dc_gain(freqs, h), "bandwidth": f3db(freqs, h),
            "ibias": op.supply_current("VDD")}


def _ref_tia(topology, system, op):
    """The historical TIA ``measure`` body (AC + settling + noise)."""
    ac_freqs = topology.AC_FREQUENCIES
    transimpedance = ac_sweep(system, op, ac_freqs).voltage("out")
    cutoff = f3db(ac_freqs, transimpedance)
    duration = 6.0 / max(cutoff, 1e7)
    response = linear_step_response(system, op, duration=duration,
                                    n_steps=600)
    settle = settling_time(response.time, response.voltage("out"),
                           final=response.final_value("out"), initial=0.0,
                           tolerance=topology.SETTLE_TOL)
    noise = noise_analysis(system, op, topology.NOISE_FREQUENCIES, "out",
                           refer_to_input=False)
    rt0 = float(np.abs(transimpedance[0]))
    rf = system.netlist["RF"].resistance
    vn_in = noise.integrated_output_rms() * rf / max(rt0, 1.0)
    return {"settling_time": settle, "cutoff_freq": cutoff, "noise": vn_in}


REFERENCES = {
    "tia": _ref_tia,
    "two_stage_opamp": lambda t, s, o: _ref_amplifier(t, s, o, True),
    "ngm_ota": _ref_ngm,
    "five_t_ota": lambda t, s, o: _ref_amplifier(t, s, o, False),
    "folded_cascode": lambda t, s, o: _ref_amplifier(t, s, o, False),
    "ota_chain_small": _ref_chain,
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_pipeline_matches_legacy_measurement(name, engine, monkeypatch):
    """Old-vs-new: the declaration reproduces the hand-written scalar
    measurement bodies spec for spec (<= 1e-9) on both engine legs."""
    topology = _topology(name, engine, monkeypatch)
    for values in _sizings(topology):
        system, op = _scalar_op(topology, values)
        new = topology.measure(system, op)
        old = REFERENCES[name](topology, system, op)
        assert set(new) == set(old)
        for spec in old:
            assert new[spec] == pytest.approx(old[spec], rel=1e-9,
                                              abs=1e-15), (name, spec)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_scalar_is_batch_of_one_bitwise(name, engine, monkeypatch):
    """``measure`` and a one-slice ``measure_batch`` at the same operating
    point agree bitwise — scalar measurement *is* the batch path."""
    topology = _topology(name, engine, monkeypatch)
    for values in _sizings(topology):
        system, op = _scalar_op(topology, values)
        scalar = topology.measure(system, op)
        stack = SystemStack(system, 1)
        stack.set_design(0, system)
        result = BatchDcResult(x=op.x[np.newaxis, :].copy(),
                               converged=np.array([True]),
                               iterations=np.array([op.iterations]),
                               residual_norm=np.array([op.residual_norm]))
        batched = topology.measure_batch(stack, result)
        assert batched is not None
        assert batched[0] == scalar  # dict equality on floats = bitwise


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_primitives_batch_rows_match_batch_of_one(name, engine, monkeypatch):
    """Per primitive: each row of a stacked evaluation matches the same
    design evaluated as a batch of one (1e-12 — identical algebra, row
    slicing aside)."""
    topology = _topology(name, engine, monkeypatch)
    plan = topology._measurement_plan()
    stack, result = _solved_stack(topology, _sizings(topology))
    rows = np.nonzero(result.converged)[0]
    assert len(rows) >= 2
    ctx_b = MeasureContext(topology, stack, rows, result.x[rows])
    for prim in plan.primitives:
        stacked = prim.extract(ctx_b)
        for j, r in enumerate(rows):
            ctx_1 = MeasureContext(topology, stack, rows[j:j + 1],
                                   result.x[r][np.newaxis, :])
            single = prim.extract(ctx_1)
            for spec in stacked:
                a, b = stacked[spec][j], single[spec][0]
                both_nan = np.isnan(a) and np.isnan(b)
                assert both_nan or b == pytest.approx(a, rel=1e-12,
                                                      abs=1e-300), (
                    name, type(prim).__name__, spec)


@pytest.mark.parametrize("engine", ENGINES)
def test_tia_stack_without_values_measures_stacked(engine, monkeypatch):
    """The historical all-or-nothing hole: a stack filled slice by slice
    from restamped systems, with no sizing dicts (the TIA referral used
    to require them), measures fully stacked — the feedback resistance
    comes from the stack's captured element values."""
    topology = _topology("tia", engine, monkeypatch)
    values_list = _sizings(topology)
    systems = [topology._plan.restamp(v) for v in values_list]
    stack = None
    for i, values in enumerate(values_list):
        system = topology._plan.restamp(values)
        if stack is None:
            stack = SystemStack(system, len(values_list))
        stack.set_design(i, system)
    result = solve_dc_batch(stack, x0=topology._batch_warm_start(stack))
    batched = topology.measure_batch(stack, result)
    assert batched is not None
    for i, values in enumerate(values_list):
        if not result.converged[i]:
            continue
        system = topology._plan.restamp(values)
        op = OperatingPoint(system, result.x[i].copy(), 1, 0.0)
        scalar = topology.measure(system, op)
        for spec in scalar:
            assert batched[i][spec] == pytest.approx(scalar[spec],
                                                     rel=1e-12), spec


@pytest.mark.parametrize("engine", ENGINES)
def test_chain_measures_stacked_no_scalar_fallback(engine, monkeypatch):
    """The OtaChain fallback hole: chain batches measure stacked on both
    engines (sparse via per-design sweep factorisations) and match the
    scalar path <= 1e-9 at the same operating points."""
    topology = _topology("ota_chain_small", engine, monkeypatch)
    stack, result = _solved_stack(topology, _sizings(topology, n=4))
    batched = topology.measure_batch(stack, result)
    assert batched is not None, "chain must not defer to the scalar loop"
    for i, values in enumerate(_sizings(topology, n=4)):
        if not result.converged[i]:
            continue
        system = topology._plan.restamp(values)
        op = OperatingPoint(system, result.x[i].copy(), 1, 0.0)
        scalar = topology.measure(system, op)
        for spec in scalar:
            assert batched[i][spec] == pytest.approx(scalar[spec],
                                                     rel=1e-9), spec


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(3)))
def test_primitive_composition_order_independent(order):
    """Hypothesis: permuting a plan's primitives changes nothing — shared
    intermediates are memoised on the context, not on evaluation order."""
    topology = _ORDER_FIXTURE["topology"]
    stack, result = _ORDER_FIXTURE["solved"]
    base = _ORDER_FIXTURE["plan"]
    prims = [base.primitives[i] for i in order]
    plan = MeasurementPlan(prims, gates=base.gates)
    rows = np.nonzero(result.converged)[0]
    ctx = MeasureContext(topology, stack, rows, result.x[rows])
    cols, ok = plan.evaluate(ctx)
    ref_cols, ref_ok = _ORDER_FIXTURE["reference"]
    assert np.array_equal(ok, ref_ok)
    for spec in ref_cols:
        np.testing.assert_array_equal(cols[spec], ref_cols[spec])


def _order_fixture():
    """One solved TIA batch shared by the hypothesis examples (the TIA
    plan has the richest intermediate sharing: AC sweep feeds cutoff,
    settling duration and the noise referral)."""
    topology = TransimpedanceAmplifier()
    plan = topology._measurement_plan()
    assert len(plan.primitives) == 3
    stack, result = _solved_stack(topology, _sizings(topology))
    rows = np.nonzero(result.converged)[0]
    ctx = MeasureContext(topology, stack, rows, result.x[rows])
    return {"topology": topology, "plan": plan, "solved": (stack, result),
            "reference": plan.evaluate(ctx)}


_ORDER_FIXTURE = _order_fixture()


class TestDeclarationValidation:
    def test_spec_names_must_match_spec_space(self):
        """A declaration whose specs disagree with the spec space is a
        construction-time error, not a silent measurement mismatch."""
        class Mismatched(FiveTransistorOta):
            def measurements(self):
                return MeasurementPlan([SupplyCurrent("wrong", "VDD")])

        topo = Mismatched()
        values = topo.parameter_space.values(topo.parameter_space.center)
        with pytest.raises(TopologyError, match="declares specs"):
            system, op = _scalar_op(topo, values)
            topo.measure(system, op)

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            MeasurementPlan([SupplyCurrent("i", "VDD"),
                             SupplyCurrent("i", "VDD")])

    def test_empty_plan_rejected(self):
        with pytest.raises(TopologyError, match="no specs"):
            MeasurementPlan([])

    def test_legacy_measure_override_defers_batch_to_scalar_loop(self):
        """A subclass overriding ``measure`` (the pre-pipeline extension
        API) must not be measured through the inherited declaration —
        ``measure_batch`` defers to the scalar loop instead."""
        class Custom(FiveTransistorOta):
            def measure(self, system, op):
                return {"gain": 1.0, "ugbw": 2.0, "ibias": 3.0}

        topo = Custom()
        stack, result = _solved_stack(topo, _sizings(topo, n=2))
        assert topo.measure_batch(stack, result) is None
        specs = topo.simulate_batch(_sizings(topo, n=2))
        assert all(s == {"gain": 1.0, "ugbw": 2.0, "ibias": 3.0}
                   for s in specs)

    def test_topology_without_declaration_or_measure_raises(self):
        class Bare(FiveTransistorOta):
            def measurements(self):
                return None

        topo = Bare()
        values = topo.parameter_space.values(topo.parameter_space.center)
        system = topo._plan.restamp(values)
        op = solve_dc(system)
        with pytest.raises(NotImplementedError):
            topo.measure(system, op)

    def test_no_topology_ships_dual_measurement_bodies(self):
        """The acceptance criterion, enforced: no shipped topology
        defines its own ``measure`` or ``measure_batch`` body anymore."""
        for cls in (TransimpedanceAmplifier, TwoStageOpAmp, NegGmOta,
                    FiveTransistorOta, FoldedCascodeOta, OtaChain):
            assert "measure" not in vars(cls), cls.__name__
            assert "measure_batch" not in vars(cls), cls.__name__
            assert "measurements" in vars(cls), cls.__name__
