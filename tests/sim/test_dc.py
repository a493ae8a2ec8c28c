"""DC operating-point solver."""

import numpy as np
import pytest

from repro.circuits import Mosfet, Netlist, Resistor, VoltageSource, ptm45
from repro.errors import ConvergenceError
from repro.sim import MnaSystem, dc, solve_dc


class TestLinearSolves:
    def test_divider(self, divider_netlist):
        op = solve_dc(MnaSystem(divider_netlist))
        assert op.voltage("out") == pytest.approx(0.5)
        assert op.residual_norm < 1e-9

    def test_ladder_network(self):
        net = Netlist("ladder")
        net.add(VoltageSource("V1", "n0", "0", dc=1.0))
        for i in range(6):
            net.add(Resistor(f"R{i}", f"n{i}", f"n{i+1}", 1e3))
            net.add(Resistor(f"Rg{i}", f"n{i+1}", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        # Voltages must decrease monotonically along the ladder.
        vs = [op.voltage(f"n{i}") for i in range(7)]
        assert all(a > b > 0 for a, b in zip(vs, vs[1:]))


class TestNonlinearSolves:
    def test_cs_amp_converges(self, cs_amp_op):
        _, op = cs_amp_op
        st = op.mosfet_state("M1")
        assert st.region == "saturation"
        assert 0.0 < op.voltage("d") < 1.8

    def test_warm_start_is_faster(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        cold = solve_dc(system)
        warm = solve_dc(system, x0=cold.x)
        assert warm.iterations < cold.iterations
        assert warm.voltage("d") == pytest.approx(cold.voltage("d"), abs=1e-7)

    def test_kcl_at_drain_node(self, cs_amp_op):
        """Current through RD must equal the MOSFET drain current."""
        _, op = cs_amp_op
        i_rd = (1.8 - op.voltage("d")) / 10e3
        assert i_rd == pytest.approx(op.mosfet_state("M1").ids, rel=1e-6)

    def test_x0_shape_validated(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        with pytest.raises(ValueError):
            solve_dc(system, x0=np.zeros(3))

    def test_diode_connected_bias_chain(self):
        tech = ptm45()
        net = Netlist("diode")
        net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        net.add(Resistor("RB", "vdd", "nb", 50e3))
        net.add(Mosfet("M1", "nb", "nb", "0", "0", polarity="nmos",
                       params=tech.nmos, w=2e-6, l=0.5e-6))
        op = solve_dc(MnaSystem(net))
        vnb = op.voltage("nb")
        assert tech.nmos.vth0 * 0.8 < vnb < tech.vdd / 2

    def test_cmos_inverter_transfer_monotone(self):
        tech = ptm45()
        outs = []
        for vin in np.linspace(0.2, 1.6, 8):
            net = Netlist("inv")
            net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
            net.add(VoltageSource("VIN", "g", "0", dc=float(vin)))
            net.add(Mosfet("MN", "out", "g", "0", "0", polarity="nmos",
                           params=tech.nmos, w=2e-6, l=0.2e-6))
            net.add(Mosfet("MP", "out", "g", "vdd", "vdd", polarity="pmos",
                           params=tech.pmos, w=4e-6, l=0.2e-6))
            net.add(Resistor("RL", "out", "0", 1e9))
            op = solve_dc(MnaSystem(net))
            outs.append(op.voltage("out"))
        assert outs[0] > 0.9 * tech.vdd
        assert outs[-1] < 0.1 * tech.vdd
        assert all(a >= b - 1e-6 for a, b in zip(outs, outs[1:]))


class TestOperatingPoint:
    def test_supply_current_default_source(self, cs_amp_op):
        _, op = cs_amp_op
        assert op.supply_current() == op.supply_current("VDD")
        assert op.supply_current() > 0.0

    def test_saturation_margins(self, cs_amp_op):
        _, op = cs_amp_op
        margins = op.saturation_margins()
        assert "M1" in margins
        assert margins["M1"] > 0.0  # the fixture biases M1 in saturation

    def test_mosfet_states_copy(self, cs_amp_op):
        _, op = cs_amp_op
        states = op.mosfet_states
        states.clear()
        assert op.mosfet_state("M1") is not None


class TestIterationCap:
    """``_MAX_ITER`` bounds the converging iterations only: an iterate
    that passes the residual gate on the last of them is still polished,
    so lowering the cap to that iteration leaves the endpoint alone."""

    def test_gate_on_the_last_iteration_is_polished(self, cs_amp_netlist,
                                                    monkeypatch):
        system = MnaSystem(cs_amp_netlist, engine="dense")
        x0 = np.zeros(system.size)
        x_ref, it_ref, fn_ref, ok = dc._newton(system, x0, 0.0, 1.0)
        assert ok
        gate = it_ref                     # the smallest cap that converges
        while True:
            monkeypatch.setattr(dc, "_MAX_ITER", gate - 1)
            if not dc._newton(system, x0, 0.0, 1.0)[3]:
                break
            gate -= 1
        assert gate < it_ref              # the polish ran after the gate
        monkeypatch.setattr(dc, "_MAX_ITER", gate)
        x, it, fn, ok = dc._newton(system, x0, 0.0, 1.0)
        assert ok and (it, fn) == (it_ref, fn_ref)
        assert np.array_equal(x, x_ref)
