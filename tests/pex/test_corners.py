"""PVT corner definitions and application."""

import functools

import pytest

from repro.circuits.technology import Corner
from repro.errors import TopologyError
from repro.pex.corners import signoff_corners, typical_only
from repro.pex.extraction import PexSimulator
from repro.topologies import (FiveTransistorOta, NegGmOta, OtaChain,
                              SchematicSimulator)
from repro.units import ROOM_TEMPERATURE


class TestCornerSets:
    def test_signoff_contains_tt_ss_ff(self):
        corners = signoff_corners()
        processes = [c.process for c in corners]
        assert Corner.TT in processes
        assert Corner.SS in processes
        assert Corner.FF in processes

    def test_ss_corner_is_hot_and_low_v(self):
        ss = next(c for c in signoff_corners() if c.process is Corner.SS)
        assert ss.vdd_scale < 1.0
        assert ss.temperature > ROOM_TEMPERATURE

    def test_ff_corner_is_cold_and_high_v(self):
        ff = next(c for c in signoff_corners() if c.process is Corner.FF)
        assert ff.vdd_scale > 1.0
        assert ff.temperature < ROOM_TEMPERATURE

    def test_typical_only(self):
        corners = typical_only()
        assert len(corners) == 1
        assert corners[0].process is Corner.TT
        assert corners[0].vdd_scale == 1.0


class TestApply:
    def test_apply_scales_vdd_and_sets_corner(self):
        ss = next(c for c in signoff_corners() if c.process is Corner.SS)
        topo = ss.apply(NegGmOta)
        nominal = NegGmOta()
        assert topo.technology.vdd == pytest.approx(0.9 * nominal.technology.vdd)
        assert topo.corner is Corner.SS
        assert topo.temperature == ss.temperature

    def test_applied_topology_uses_corner_devices(self):
        ss = next(c for c in signoff_corners() if c.process is Corner.SS)
        topo = ss.apply(NegGmOta)
        # Compare against a TT topology at the *same* temperature so the
        # (larger) temperature-induced vth shift does not mask the corner.
        same_temp = NegGmOta(temperature=ss.temperature)
        assert (topo.device_params("nmos").vth0
                > same_temp.device_params("nmos").vth0)
        assert (topo.device_params("nmos").kp
                < same_temp.device_params("nmos").kp)


def _heavy_load_ota(**kwargs):
    """A factory that configures its topology after construction."""
    topology = FiveTransistorOta(**kwargs)
    topology.C_LOAD = 4e-12
    return topology


class TestApplyFactories:
    def test_factory_attributes_survive(self):
        tt = typical_only()[0]
        assert tt.apply(_heavy_load_ota).C_LOAD == 4e-12

    def test_pex_of_a_factory_is_no_faster_than_its_schematic(self):
        """Parasitics only add load: a PEX corner rebuilt without the
        factory's 4 pF would read ~3.4x the schematic bandwidth."""
        center = FiveTransistorOta().parameter_space.center
        schematic = SchematicSimulator(_heavy_load_ota()).evaluate(center)
        pex = PexSimulator(_heavy_load_ota, corners=typical_only(),
                           cache=False).evaluate(center)
        assert pex["ugbw"] <= schematic["ugbw"]

    def test_partial_keeps_constructor_arguments(self):
        ss = next(c for c in signoff_corners() if c.process is Corner.SS)
        topo = ss.apply(functools.partial(OtaChain, n_stages=2, segments=4))
        assert (topo.n_stages, topo.segments) == (2, 4)
        assert topo.corner is Corner.SS
        assert topo.temperature == ss.temperature
        assert topo.technology.vdd == pytest.approx(
            0.9 * OtaChain.default_technology().vdd)

    def test_factory_without_corner_keywords_is_loud(self):
        calls = []

        def build():
            calls.append(1)
            return FiveTransistorOta()

        with pytest.raises(TopologyError, match="corner"):
            typical_only()[0].apply(build)
        with pytest.raises(TopologyError):
            PexSimulator(lambda: FiveTransistorOta())
        assert not calls
