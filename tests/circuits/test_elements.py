"""Unit tests for netlist elements and their stamps."""

import numpy as np
import pytest

from repro.circuits import (
    Capacitor,
    CurrentSource,
    Inductor,
    Netlist,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
    ptm45,
)
from repro.circuits.mosfet import Mosfet
from repro.errors import NetlistError
from repro.sim import MnaSystem, solve_dc
from repro.units import BOLTZMANN, ROOM_TEMPERATURE


class TestConstruction:
    def test_resistor_rejects_nonpositive(self):
        with pytest.raises(NetlistError):
            Resistor("R1", "a", "b", 0.0)
        with pytest.raises(NetlistError):
            Resistor("R1", "a", "b", -5.0)

    def test_capacitor_rejects_nonpositive(self):
        with pytest.raises(NetlistError):
            Capacitor("C1", "a", "b", -1e-12)

    def test_inductor_rejects_nonpositive(self):
        with pytest.raises(NetlistError):
            Inductor("L1", "a", "b", 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    @pytest.mark.parametrize("make", [
        lambda v: Resistor("R1", "a", "b", v),
        lambda v: Capacitor("C1", "a", "b", v),
        lambda v: Inductor("L1", "a", "b", v),
        lambda v: Mosfet("M1", "d", "g", "s", "b", polarity="nmos",
                         params=ptm45().nmos, w=v, l=1e-6),
        lambda v: Mosfet("M1", "d", "g", "s", "b", polarity="nmos",
                         params=ptm45().nmos, w=1e-6, l=v),
        lambda v: Mosfet("M1", "d", "g", "s", "b", polarity="nmos",
                         params=ptm45().nmos, w=1e-6, l=1e-6, m=v),
    ], ids=["resistor", "capacitor", "inductor", "mosfet_w", "mosfet_l",
            "mosfet_m"])
    def test_rejects_non_finite_values(self, make, value):
        with pytest.raises(NetlistError, match="finite"):
            make(value)

    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Resistor("", "a", "b", 1.0)

    def test_two_terminal_accessors(self):
        r = Resistor("R1", "top", "bot", 50.0)
        assert r.p == "top"
        assert r.n == "bot"
        assert r.nodes == ("top", "bot")


class TestResistorDivider:
    def test_divider_voltage(self, divider_netlist):
        op = solve_dc(MnaSystem(divider_netlist))
        assert op.voltage("out") == pytest.approx(0.5, rel=1e-9)

    def test_source_current(self, divider_netlist):
        op = solve_dc(MnaSystem(divider_netlist))
        assert op.branch_current("V1") == pytest.approx(-0.5e-3, rel=1e-9)

    def test_asymmetric_divider(self):
        net = Netlist("div2")
        net.add(VoltageSource("V1", "in", "0", dc=3.0))
        net.add(Resistor("R1", "in", "out", 2e3))
        net.add(Resistor("R2", "out", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        assert op.voltage("out") == pytest.approx(1.0, rel=1e-9)


class TestCurrentSource:
    def test_current_into_resistor(self):
        net = Netlist("isrc")
        net.add(CurrentSource("I1", "0", "n1", dc=1e-3))
        net.add(Resistor("R1", "n1", "0", 2e3))
        op = solve_dc(MnaSystem(net))
        assert op.voltage("n1") == pytest.approx(2.0, rel=1e-9)

    def test_current_direction_convention(self):
        # Current flows p -> n through the source, so with p grounded the
        # n node is pulled positive through the load.
        net = Netlist("isrc2")
        net.add(CurrentSource("I1", "n1", "0", dc=1e-3))
        net.add(Resistor("R1", "n1", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        assert op.voltage("n1") == pytest.approx(-1.0, rel=1e-9)


class TestInductorDC:
    def test_inductor_is_dc_short(self):
        net = Netlist("ldc")
        net.add(VoltageSource("V1", "in", "0", dc=2.0))
        net.add(Inductor("L1", "in", "mid", 1e-6))
        net.add(Resistor("R1", "mid", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        assert op.voltage("mid") == pytest.approx(2.0, rel=1e-9)
        assert op.branch_current("L1") == pytest.approx(2e-3, rel=1e-9)


class TestControlledSources:
    def test_vcvs_gain(self):
        net = Netlist("vcvs")
        net.add(VoltageSource("V1", "in", "0", dc=0.25))
        net.add(Resistor("RL0", "in", "0", 1e6))
        net.add(Vcvs("E1", "out", "0", "in", "0", gain=4.0))
        net.add(Resistor("RL", "out", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        assert op.voltage("out") == pytest.approx(1.0, rel=1e-9)

    def test_vccs_transconductance(self):
        net = Netlist("vccs")
        net.add(VoltageSource("V1", "c", "0", dc=1.0))
        net.add(Resistor("RC", "c", "0", 1e6))
        net.add(Vccs("G1", "out", "0", "c", "0", gm=1e-3))
        net.add(Resistor("RL", "out", "0", 1e3))
        op = solve_dc(MnaSystem(net))
        # i = gm*v_c = 1 mA leaves node out through the source -> -1 V on 1k.
        assert abs(op.voltage("out")) == pytest.approx(1.0, rel=1e-9)


class TestNoiseSources:
    def test_resistor_thermal_psd(self, divider_netlist):
        op = solve_dc(MnaSystem(divider_netlist))
        r1 = divider_netlist["R1"]
        sources = r1.noise_sources(op)
        assert len(sources) == 1
        p, n, psd = sources[0]
        expected = 4.0 * BOLTZMANN * ROOM_TEMPERATURE / 1e3
        assert psd(1e3) == pytest.approx(expected, rel=1e-6)
        assert psd(1e9) == pytest.approx(expected, rel=1e-6)  # white

    def test_capacitor_is_noiseless(self, rc_netlist):
        op = solve_dc(MnaSystem(rc_netlist))
        assert rc_netlist["C1"].noise_sources(op) == []

    def test_source_is_noiseless(self, divider_netlist):
        op = solve_dc(MnaSystem(divider_netlist))
        assert divider_netlist["V1"].noise_sources(op) == []
