"""Two-stage Miller-compensated operational amplifier (paper §III-B, Fig. 6).

Classic textbook topology in the 45 nm-class technology card:

* first stage — NMOS differential pair (M1/M2) with PMOS current-mirror
  load (M3/M4) and NMOS tail source (M5);
* second stage — PMOS common-source device (M6) with NMOS current-sink
  load (M7);
* bias — NMOS diode M8 fed by a fixed reference current, mirrored to M5
  and M7;
* Miller compensation capacitor Cc across the second stage, fixed load CL.

Action space (paper): every transistor width on a ``[1, 100, 1] * 0.5 um``
grid (matched pairs share one parameter, giving six width parameters) and
``Cc in [0.1, 10.0, 0.1] * 1 pF`` — 100^7 = 10^14 sizings, the cardinality
the paper quotes.

Design specs (paper ranges): gain 200–400 V/V (lower bound), unity-gain
bandwidth 1 MHz–25 MHz (lower bound), phase margin >= 60 degrees, and bias
current 0.1–10 mA (upper bound, softly minimised — the paper's o_th term).
"""

from __future__ import annotations

from repro.circuits.elements import Capacitor, CurrentSource, VoltageSource
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import Netlist
from repro.circuits.technology import Technology, ptm45
from repro.core.specs import Spec, SpecKind, SpecSpace

from repro.measure.pipeline import (
    DcGain,
    MeasurementPlan,
    PhaseMargin,
    SupplyCurrent,
    UnityGainBandwidth,
)
from repro.sim.ac import log_frequencies
from repro.topologies.base import Topology
from repro.topologies.params import GridParam, ParameterSpace
from repro.units import MICRO, PICO


class TwoStageOpAmp(Topology):
    """Miller op-amp with mirrored bias, sized on the paper's grid."""

    name = "two_stage_opamp"

    #: Reference current into the bias diode M8.
    I_BIAS_REF = 20e-6
    #: Output load capacitance.
    C_LOAD = 2.0 * PICO
    #: Input common-mode voltage as a fraction of VDD.
    VCM_FRACTION = 0.5

    @classmethod
    def default_technology(cls) -> Technology:
        """Technology card this topology runs on by default."""
        return ptm45()

    def _build_parameter_space(self) -> ParameterSpace:
        half_um = 0.5 * MICRO
        return ParameterSpace([
            GridParam("w_in", 1, 100, 1, scale=half_um, unit="m"),     # M1 = M2
            GridParam("w_load", 1, 100, 1, scale=half_um, unit="m"),   # M3 = M4
            GridParam("w_tail", 1, 100, 1, scale=half_um, unit="m"),   # M5
            GridParam("w_cs", 1, 100, 1, scale=half_um, unit="m"),     # M6
            GridParam("w_sink", 1, 100, 1, scale=half_um, unit="m"),   # M7
            GridParam("w_bias", 1, 100, 1, scale=half_um, unit="m"),   # M8
            GridParam("cc", 0.1, 10.0, 0.1, scale=PICO, unit="F"),
        ])

    def _build_spec_space(self) -> SpecSpace:
        return SpecSpace([
            Spec("gain", 200.0, 400.0, SpecKind.LOWER_BOUND, unit="V/V"),
            Spec("ugbw", 1.0e6, 2.5e7, SpecKind.LOWER_BOUND,
                 log_scale=True, unit="Hz"),
            Spec("phase_margin", 60.0, 60.000001, SpecKind.LOWER_BOUND,
                 unit="deg"),
            Spec("ibias", 0.1e-3, 10e-3, SpecKind.MINIMIZE,
                 log_scale=True, unit="A"),
        ])

    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the sized testbench netlist (see the module
        docstring for the circuit)."""
        tech = self.technology
        length = tech.l_default
        vcm = self.VCM_FRACTION * tech.vdd
        nmos = self.device_params("nmos")
        pmos = self.device_params("pmos")

        net = Netlist("two_stage_opamp")
        net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        # Differential drive: +/- half-volt AC around the common mode; M2's
        # gate is the non-inverting input (its drain feeds the PMOS CS).
        net.add(VoltageSource("VINP", "inp", "0", dc=vcm, ac=+0.5))
        net.add(VoltageSource("VINN", "inn", "0", dc=vcm, ac=-0.5))
        net.add(CurrentSource("IBIAS", "vdd", "nb", dc=self.I_BIAS_REF))

        net.add(Mosfet("M8", "nb", "nb", "0", "0", polarity="nmos", params=nmos,
                       w=values["w_bias"], l=length))
        net.add(Mosfet("M5", "nt", "nb", "0", "0", polarity="nmos", params=nmos,
                       w=values["w_tail"], l=length))
        net.add(Mosfet("M1", "d1", "inn", "nt", "0", polarity="nmos", params=nmos,
                       w=values["w_in"], l=length))
        net.add(Mosfet("M2", "d2", "inp", "nt", "0", polarity="nmos", params=nmos,
                       w=values["w_in"], l=length))
        net.add(Mosfet("M3", "d1", "d1", "vdd", "vdd", polarity="pmos", params=pmos,
                       w=values["w_load"], l=length))
        net.add(Mosfet("M4", "d2", "d1", "vdd", "vdd", polarity="pmos", params=pmos,
                       w=values["w_load"], l=length))
        net.add(Mosfet("M6", "out", "d2", "vdd", "vdd", polarity="pmos", params=pmos,
                       w=values["w_cs"], l=length))
        net.add(Mosfet("M7", "out", "nb", "0", "0", polarity="nmos", params=nmos,
                       w=values["w_sink"], l=length))
        net.add(Capacitor("CC", "d2", "out", values["cc"]))
        net.add(Capacitor("CL", "out", "0", self.C_LOAD))
        return net

    def update_netlist(self, net: Netlist, values: dict[str, float]) -> bool:
        """In-place resize (mirror of :meth:`build`'s value mapping)."""
        net["M8"].w = values["w_bias"]
        net["M5"].w = values["w_tail"]
        net["M1"].w = net["M2"].w = values["w_in"]
        net["M3"].w = net["M4"].w = values["w_load"]
        net["M6"].w = values["w_cs"]
        net["M7"].w = values["w_sink"]
        net["CC"].capacitance = values["cc"]
        return True

    #: AC sweep grid (class-level: building it per measurement is waste).
    AC_FREQUENCIES = log_frequencies(1e2, 1e11, points_per_decade=8)

    def measurements(self) -> MeasurementPlan:
        """Open-loop differential gain, UGBW, phase margin and bias
        current — one AC sweep at the output plus one branch current."""
        freqs = self.AC_FREQUENCIES
        return MeasurementPlan([
            DcGain("gain", "out", freqs),
            UnityGainBandwidth("ugbw", "out", freqs),
            PhaseMargin("phase_margin", "out", freqs),
            SupplyCurrent("ibias", "VDD"),
        ])
