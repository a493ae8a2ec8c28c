"""Column-wise stack fills must be bitwise the per-slice restamp loop.

``StampPlan.stack`` fills a stack of its own from a plan with an updater
in one vectorised pass.  The reference here is the loop it replaces, built in
the test: restamp the plan's system design by design and snapshot each
with ``SystemStack.set_design``.  Every stacked array must be equal, and
the cached system's frozen/per-rebind element partition must end up as
the loop leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (Capacitor, CurrentSource, Netlist, Resistor,
                            VoltageSource)
from repro.pex import PexSimulator
from repro.sim import StampPlan, SystemStack
from repro.topologies import NegGmOta, OtaChain, TwoStageOpAmp
from repro.zoo import registry

SCENARIOS = {name: scenario.create for name, scenario in registry().items()}


def per_slice_stack(plan: StampPlan, values_list) -> SystemStack:
    """The per-slice fill: one restamp and one ``set_design`` per design."""
    stack = None
    for i, values in enumerate(values_list):
        system = plan.restamp(values)
        if stack is None:
            stack = SystemStack(system, len(values_list))
        stack.set_design(i, system)
    return stack


def assert_same_stack(got: SystemStack, ref: SystemStack) -> None:
    """Every value array of ``got`` equals ``ref``'s, bit for bit."""
    assert got.sparse == ref.sparse
    matrices = ("G_pat", "C_pat") if ref.sparse else ("G", "C")
    for name in matrices + ("b_dc", "b_ac", "temperatures", "noise_res_r",
                            "noise_res_psd"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert (got.dev is None) == (ref.dev is None)
    if ref.dev is not None:
        assert np.array_equal(got.dev.data, ref.dev.data)


def partition(plan: StampPlan) -> tuple:
    """Names and keys of the cached system's frozen elements and names
    of its per-rebind elements, in order."""
    system = plan.system
    return ([e.name for e in system._const_elems], list(system._const_keys),
            [e.name for e in system._var_elems])


def _designs(topology, rng, n):
    space = topology.parameter_space
    return space.values(np.stack([space.sample(rng) for _ in range(n)]))


def _compare_fresh_and_warm(make_plan, topology, n, seed):
    """Fresh plans, then warm ones (a restamp at the grid centre between
    batches, as ``Topology.centre_solution`` does)."""
    ref_plan, col_plan = make_plan(), make_plan()
    rng = np.random.default_rng(seed)
    centre = topology.parameter_space.values(topology.parameter_space.center)
    for _ in range(2):
        designs = _designs(topology, rng, n)
        ref = per_slice_stack(ref_plan, designs)
        restamps = col_plan.restamps
        got = col_plan.stack(designs)
        assert col_plan.restamps == restamps   # no per-design restamp
        assert_same_stack(got, ref)
        assert partition(col_plan) == partition(ref_plan)
        ref_plan.restamp(centre)
        col_plan.restamp(centre)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_registered_scenarios(name, n):
    topology = SCENARIOS[name]()

    def make_plan():
        return StampPlan(topology.build, temperature=topology.temperature,
                         updater=topology.update_netlist)

    _compare_fresh_and_warm(make_plan, topology, n, seed=n)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_ota_chain_sparse(n):
    topology = OtaChain()

    def make_plan():
        return StampPlan(topology.build, temperature=topology.temperature,
                         updater=topology.update_netlist, engine="sparse")

    _compare_fresh_and_warm(make_plan, topology, n, seed=100 + n)


def test_demotion_at_row_zero_of_a_warm_plan():
    """A warm op-amp plan whose frozen ``CC`` changes in the first row of
    the next batch (the per-slice loop demotes it before stamping row 0)."""
    topology = TwoStageOpAmp()
    rng = np.random.default_rng(3)
    designs = _designs(topology, rng, 6)
    for d in designs:
        d["cc"] = designs[0]["cc"]
    later = _designs(topology, rng, 6)
    plans = [StampPlan(topology.build, updater=topology.update_netlist)
             for _ in range(2)]
    per_slice_stack(plans[0], designs)
    plans[1].stack(designs)
    assert "CC" in partition(plans[1])[0]       # still frozen
    ref = per_slice_stack(plans[0], later)
    assert_same_stack(plans[1].stack(later), ref)
    assert partition(plans[1]) == partition(plans[0])
    assert partition(plans[1])[2] == ["CC"]


class TestPerSliceCases:
    """The fills that keep restamping design by design."""

    @pytest.fixture
    def plan_and_designs(self, monkeypatch):
        topology = TwoStageOpAmp()
        plan = StampPlan(topology.build, updater=topology.update_netlist)
        designs = _designs(topology, np.random.default_rng(5), 3)

        def refuse(*args, **kwargs):
            raise AssertionError("column-wise fill used")

        monkeypatch.setattr(StampPlan, "_stack_columns", refuse)
        return plan, designs

    def test_corner_blocks_into_a_shared_stack(self, plan_and_designs):
        plan, designs = plan_and_designs
        stack = plan.stack(designs, n_slices=6, n_corners=2)
        assert plan.stack(designs, into=stack, offset=3) is stack
        assert plan.restamps == 5    # one build, then five restamps

    def test_plan_without_updater(self, plan_and_designs):
        plan, designs = plan_and_designs
        plan.updater = None
        assert plan.stack(designs).n_designs == 3
        assert plan.rebuilds == 1 and plan.restamps == 2


class TestPexCornerPlans:
    """A PEX corner plan's extracting updater works on one sizing at a
    time, so it declines value columns and a stack of its own falls back
    to the per-slice fill."""

    @pytest.fixture(scope="class")
    def pex_pair(self):
        return [PexSimulator(NegGmOta, cache=False) for _ in range(2)]

    def test_stack_matches_per_slice_loop(self, pex_pair):
        ref_pex, pex = pex_pair
        rng = np.random.default_rng(8)
        for _ in range(2):
            designs = _designs(pex, rng, 4)
            for k in (0, len(pex.corners) - 1):
                ref = per_slice_stack(ref_pex._plans[k], designs)
                assert_same_stack(pex._plans[k].stack(designs), ref)
                assert partition(pex._plans[k]) == partition(
                    ref_pex._plans[k])

    def test_simulate_batch_on_a_corner_topology(self, pex_pair):
        _, pex = pex_pair
        topology = pex._topologies[-1]
        designs = _designs(pex, np.random.default_rng(9), 3)
        batch = topology.simulate_batch(designs)
        assert len(batch) == len(designs)
        for values, specs in zip(designs, batch):
            topology.reset_warm_start()
            single = topology.simulate(values)
            assert set(specs) == set(single)
            for name in single:
                assert specs[name] == pytest.approx(single[name], rel=1e-6)


# -- segments -----------------------------------------------------------------
#: Three capacitors on node ``a``.  ``C1`` is first in the frozen list,
#: so once it is demoted its stamp moves behind ``C2``'s and ``C3``'s:
#: ``(C1 + C2) + C3`` becomes ``(C2 + C3) + C1``, and with these values
#: the two orders differ in the last bit.  (Were the last capacitor the
#: varying one, both orders would add it last and agree.)
C1 = 2.0 ** -40
TINY = 2.0 ** -93


def _three_caps(values):
    net = Netlist("three_caps")
    net.add(VoltageSource("V1", "in", "0", dc=1.0))
    net.add(Resistor("R1", "in", "a", 1e3))
    net.add(Capacitor("C1", "a", "0", values["c1"]))
    net.add(Capacitor("C2", "a", "0", values["c2"]))
    net.add(Capacitor("C3", "a", "0", TINY))
    return net


def _update_three_caps(net, values):
    """Elementwise: works on floats and on (B,) columns alike."""
    net["C1"].capacitance = values["c1"]
    net["C2"].capacitance = values["c2"]
    return True


class TestSegments:
    """Rows before a demotion keep the base the per-slice loop stamps
    them on, so the fill runs in segments split at the demotion rows."""

    def test_summation_orders_differ(self):
        assert (C1 + TINY) + TINY != (TINY + TINY) + C1

    @pytest.mark.parametrize("c1_rows, c2_rows, var_order", [
        # C1 first changes at row 2.
        ([C1, C1, 1.5 * C1, 2 * C1, C1], [TINY] * 5, ["C1"]),
        # C2 first changes at row 1, C1 at row 3: demoted C2 then C1.
        ([C1, C1, C1, 3 * C1, C1], [TINY, 2 * TINY, TINY, TINY, TINY],
         ["C2", "C1"]),
        # Both first change at row 2: demoted in frozen-list order.
        ([C1, C1, 2 * C1, C1], [TINY, TINY, 3 * TINY, TINY], ["C1", "C2"]),
    ], ids=["one-move", "two-rows", "same-row"])
    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    def test_matches_per_slice_loop(self, c1_rows, c2_rows, var_order,
                                    engine):
        designs = [{"c1": a, "c2": b} for a, b in zip(c1_rows, c2_rows)]
        plans = [StampPlan(_three_caps, updater=_update_three_caps,
                           engine=engine) for _ in range(2)]
        ref = per_slice_stack(plans[0], designs)
        got = plans[1].stack(designs)
        assert_same_stack(got, ref)
        assert partition(plans[1]) == partition(plans[0])
        assert partition(plans[1])[2] == var_order

    def test_unsegmented_fill_would_differ(self):
        """Row 0 stamped on the base without ``C1`` (what a fill without
        segments produces) is not the per-slice row 0."""
        designs = [{"c1": C1, "c2": TINY}, {"c1": C1, "c2": TINY},
                   {"c1": 2 * C1, "c2": TINY}]
        plan = StampPlan(_three_caps, updater=_update_three_caps,
                         engine="dense")
        stack = plan.stack(designs)
        a = plan.system.node_index["a"]
        assert stack.C[0, a, a] == (C1 + TINY) + TINY
        assert stack.C[0, a, a] != (TINY + TINY) + C1


# -- source values ------------------------------------------------------------
def _sources(values):
    net = Netlist("sources")
    net.add(VoltageSource("V1", "in", "0", dc=1.0, ac=values["ac"]))
    net.add(Resistor("R1", "in", "out", 1e3))
    net.add(Resistor("R2", "out", "0", 1e3))
    net.add(CurrentSource("I1", "out", "0", dc=1e-3, ac=values["ac"]))
    return net


def _update_sources(net, values):
    """Writes the sources' AC values: a (B,) column in a column fill."""
    net["V1"].ac = values["ac"]
    net["I1"].ac = values["ac"]
    return True


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_source_value_column_matches_per_slice_loop(engine):
    """An updater that writes per-design source values fills column-wise,
    and the zero in the column stamps as the per-slice loop does."""
    designs = [{"ac": ac} for ac in (0.5, 2.0, 0.0)]
    plans = [StampPlan(_sources, updater=_update_sources, engine=engine)
             for _ in range(2)]
    ref = per_slice_stack(plans[0], designs)
    restamps = plans[1].restamps
    got = plans[1].stack(designs)
    assert plans[1].restamps == restamps   # no per-design restamp
    assert_same_stack(got, ref)
    assert partition(plans[1]) == partition(plans[0])
