"""Netlist container behaviour and structural validation."""

import pytest

from repro.circuits import (
    Capacitor,
    CurrentSource,
    Inductor,
    Mosfet,
    Netlist,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
    ptm45,
)
from repro.errors import NetlistError
from repro.sim import MnaSystem, solve_dc


def _minimal() -> Netlist:
    net = Netlist("min")
    net.add(VoltageSource("V1", "a", "0", dc=1.0))
    net.add(Resistor("R1", "a", "0", 1e3))
    return net


class TestContainer:
    def test_add_and_lookup(self):
        net = _minimal()
        assert len(net) == 2
        assert "R1" in net
        assert net["R1"].resistance == 1e3

    def test_duplicate_name_rejected(self):
        net = _minimal()
        with pytest.raises(NetlistError):
            net.add(Resistor("R1", "a", "0", 2e3))

    def test_missing_lookup_raises(self):
        with pytest.raises(NetlistError):
            _minimal()["R9"]

    def test_remove(self):
        net = _minimal()
        removed = net.remove("R1")
        assert removed.name == "R1"
        assert "R1" not in net
        with pytest.raises(NetlistError):
            net.remove("R1")

    def test_nodes_excludes_ground(self):
        assert _minimal().nodes() == {"a"}

    def test_gnd_alias_is_canonicalised(self):
        net = Netlist("alias")
        net.add(VoltageSource("V1", "a", "gnd", dc=1.0))
        net.add(Resistor("R1", "a", "GND", 1e3))
        assert net.nodes() == {"a"}
        net.validate()

    def test_elements_of(self):
        net = _minimal()
        assert [e.name for e in net.elements_of(Resistor)] == ["R1"]
        assert net.elements_of(Capacitor) == []

    def test_copy_shares_elements(self):
        net = _minimal()
        clone = net.copy("clone")
        assert clone.title == "clone"
        assert clone["R1"] is net["R1"]
        assert len(clone) == len(net)

    def test_extend(self):
        net = Netlist("x")
        net.extend([VoltageSource("V1", "a", "0", dc=1.0),
                    Resistor("R1", "a", "0", 1.0)])
        assert len(net) == 2


class TestValidation:
    def test_empty_netlist_invalid(self):
        with pytest.raises(NetlistError, match="empty"):
            Netlist("e").validate()

    def test_no_ground_reference_invalid(self):
        net = Netlist("ng")
        net.add(Resistor("R1", "a", "b", 1e3))
        with pytest.raises(NetlistError, match="ground"):
            net.validate()

    def test_floating_node_via_capacitor_invalid(self):
        net = _minimal()
        net.add(Capacitor("C1", "a", "float", 1e-12))
        with pytest.raises(NetlistError, match="float"):
            net.validate()

    def test_current_source_does_not_anchor_dc(self):
        # A node held only by a current source has no defined DC potential.
        net = _minimal()
        net.add(CurrentSource("I1", "a", "dangling", dc=1e-3))
        with pytest.raises(NetlistError, match="dangling"):
            net.validate()

    def test_valid_circuit_passes(self, divider_netlist):
        divider_netlist.validate()

    def test_connectivity_graph_shape(self, divider_netlist):
        g = divider_netlist.connectivity_graph()
        assert set(g.nodes()) == {"0", "in", "out"}
        assert g.number_of_edges() >= 3


def _gate_only() -> Netlist:
    """An NMOS whose gate node ``g`` meets nothing but a capacitor."""
    net = Netlist("gate_only")
    net.add(VoltageSource("VDD", "vdd", "0", dc=1.8))
    net.add(Resistor("RD", "vdd", "d", 10e3))
    net.add(Mosfet("M1", "d", "g", "0", "0", polarity="nmos",
                   params=ptm45().nmos, w=1e-6, l=180e-9))
    net.add(Capacitor("CG", "g", "0", 1e-12))
    return net


def _vccs_driven() -> Netlist:
    """A node ``x`` driven only by a VCCS output."""
    net = Netlist("vccs_driven")
    net.add(VoltageSource("V1", "a", "0", dc=1.0))
    net.add(Resistor("R1", "a", "0", 1e3))
    net.add(Vccs("G1", "x", "0", "a", "0", gm=1e-3))
    return net


class TestDcEdges:
    """A node reached only through a MOSFET gate or a VCCS output has no
    DC path: validation must name it before a solve sees a zero row."""

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    @pytest.mark.parametrize("make, node", [(_gate_only, "g"),
                                            (_vccs_driven, "x")])
    def test_floating_node_is_named(self, make, node, engine):
        pattern = rf"without a DC path to ground: {node}$"
        with pytest.raises(NetlistError, match=pattern):
            make().validate()
        with pytest.raises(NetlistError, match=pattern):
            solve_dc(MnaSystem(make(), engine=engine))

    def test_anchored_nodes_pass(self):
        net = _vccs_driven()
        net.add(Vccs("G2", "x", "0", "0", "x", gm=1e-3))   # a conductance
        net.add(Vcvs("E1", "y", "0", "a", "0", gain=2.0))
        net.add(Inductor("L1", "y", "z", 1e-9))
        net.validate()
        net = _gate_only()
        net.add(Resistor("RG", "vdd", "g", 1e5))
        net.validate()

    def test_edges_by_element_kind(self):
        nmos = ptm45().nmos
        assert Resistor("R", "a", "b", 1.0).dc_edges() == (("a", "b"),)
        assert Capacitor("C", "a", "b", 1.0).dc_edges() == ()
        assert CurrentSource("I", "a", "b", dc=1.0).dc_edges() == ()
        assert Vccs("G", "a", "b", "c", "d", gm=1.0).dc_edges() == ()
        assert Vcvs("E", "a", "b", "c", "d", gain=1.0).dc_edges() == (
            ("a", "b"),)
        device = Mosfet("M", "d", "g", "s", "b", polarity="nmos",
                        params=nmos, w=1e-6, l=1e-6)
        assert device.dc_edges() == (("d", "s"),)

    def test_dc_only_graph_uses_the_dc_edges(self):
        graph = _gate_only().connectivity_graph(dc_only=True)
        assert graph.degree("g") == 0
        assert graph.has_edge("d", "0")
        assert not graph.has_edge("d", "g")
