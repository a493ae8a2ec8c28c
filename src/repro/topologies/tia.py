"""Transimpedance amplifier (paper §III-A, Fig. 4).

A resistively-fed-back CMOS inverter TIA in the 45 nm-class technology:
the photodiode is modelled as an AC current source with a junction
capacitance at the input node, the inverter (one NMOS, one PMOS, each with
its own width and multiplier action parameters) self-biases through the
feedback resistor, and the feedback resistance is built from a
series/parallel array of 5.6 kOhm unit resistors — exactly the action
space the paper gives:

* transistor width  ``[2, 10, 2] um`` and multiplier ``[2, 32, 2]`` (per device),
* unit resistors in series ``[2, 20, 2]`` and in parallel ``[1, 20, 1]``.

Design specs (paper ranges): settling time (5–500 ps, upper bound), cutoff
frequency (0.5–7 GHz, lower bound), and integrated input-referred noise
(1 uV–500 uV rms, upper bound).
"""

from __future__ import annotations

from repro.circuits.elements import Capacitor, CurrentSource, Resistor, VoltageSource
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import Netlist
from repro.circuits.technology import Technology, ptm45
from repro.core.specs import Spec, SpecKind, SpecSpace
from repro.measure.pipeline import (
    Bandwidth3dB,
    MeasurementPlan,
    OutputNoiseRms,
    StepSettling,
)
from repro.sim.ac import log_frequencies
from repro.topologies.base import Topology
from repro.topologies.params import GridParam, ParameterSpace
from repro.units import FEMTO, KILO, MICRO


class TransimpedanceAmplifier(Topology):
    """Inverter-based TIA with a series/parallel unit-resistor feedback array."""

    name = "tia"

    #: Unit feedback resistance (paper: "the fixed unit resistance is 5.6 kOhm").
    R_UNIT = 5.6 * KILO
    #: Photodiode junction capacitance at the input node.
    C_PHOTODIODE = 10.0 * FEMTO
    #: Output load capacitance.
    C_LOAD = 4.0 * FEMTO
    #: Channel length [m]; the TIA uses near-minimum length for speed,
    #: unlike the op-amps which use long channels for gain.
    LENGTH = 0.1 * MICRO
    #: Settling tolerance band (fraction of the step amplitude).
    SETTLE_TOL = 0.01

    @classmethod
    def default_technology(cls) -> Technology:
        """Technology card this topology runs on by default."""
        return ptm45()

    def _build_parameter_space(self) -> ParameterSpace:
        return ParameterSpace([
            GridParam("nmos_w", 2, 10, 2, scale=MICRO, unit="m"),
            GridParam("nmos_m", 2, 32, 2),
            GridParam("pmos_w", 2, 10, 2, scale=MICRO, unit="m"),
            GridParam("pmos_m", 2, 32, 2),
            GridParam("rf_series", 2, 20, 2),
            GridParam("rf_parallel", 1, 20, 1),
        ])

    def _build_spec_space(self) -> SpecSpace:
        # The paper's spans (100x settling, 14x cutoff, wide noise) around
        # *its* simulator's achievable surface; ours is recalibrated to this
        # MNA substrate's surface (see EXPERIMENTS.md) with the same
        # structure: settling and noise are upper bounds, cutoff frequency
        # a lower bound, and the joint corner (fast + quiet) infeasible.
        # Ranges sit in the demanding upper half of the achievable surface
        # (calibrated in EXPERIMENTS.md): ~83% of the target box is covered
        # by at least one design in a 2500-point random sample, and a random
        # search needs a few hundred simulations for the median target —
        # the same difficulty regime as the paper's TIA targets (GA: 376).
        return SpecSpace([
            Spec("settling_time", 3e-10, 2e-9, SpecKind.UPPER_BOUND,
                 log_scale=True, unit="s"),
            Spec("cutoff_freq", 5.0e8, 2.5e9, SpecKind.LOWER_BOUND,
                 log_scale=True, unit="Hz"),
            Spec("noise", 2.4e-4, 4.0e-4, SpecKind.UPPER_BOUND,
                 log_scale=True, unit="Vrms"),
        ])

    def feedback_resistance(self, values: dict[str, float]) -> float:
        """R_f of the series/parallel array of 5.6 kOhm units."""
        return self.R_UNIT * values["rf_series"] / values["rf_parallel"]

    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the sized testbench netlist (see the module
        docstring for the circuit)."""
        tech = self.technology
        length = self.LENGTH
        net = Netlist("tia")
        net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        # Photodiode: signal current injected into the input node.
        net.add(CurrentSource("IIN", "0", "in", dc=0.0, ac=1.0))
        net.add(Capacitor("CPD", "in", "0", self.C_PHOTODIODE))
        net.add(Mosfet("MN", "out", "in", "0", "0", polarity="nmos",
                       params=self.device_params("nmos"),
                       w=values["nmos_w"], l=length, m=values["nmos_m"]))
        net.add(Mosfet("MP", "out", "in", "vdd", "vdd", polarity="pmos",
                       params=self.device_params("pmos"),
                       w=values["pmos_w"], l=length, m=values["pmos_m"]))
        net.add(Resistor("RF", "in", "out", self.feedback_resistance(values)))
        net.add(Capacitor("CL", "out", "0", self.C_LOAD))
        return net

    def update_netlist(self, net: Netlist, values: dict[str, float]) -> bool:
        """In-place resize (mirror of :meth:`build`'s value mapping)."""
        mn, mp = net["MN"], net["MP"]
        mn.w = values["nmos_w"]
        mn.m = values["nmos_m"]
        mp.w = values["pmos_w"]
        mp.m = values["pmos_m"]
        net["RF"].resistance = self.feedback_resistance(values)
        return True

    #: Sweep grids (class-level: building them per measurement is waste,
    #: and stable array identities keep the omega cache in repro.sim.ac hot).
    AC_FREQUENCIES = log_frequencies(1e5, 1e12, points_per_decade=10)
    NOISE_FREQUENCIES = log_frequencies(1e3, 1e12, points_per_decade=8)

    def measurements(self) -> MeasurementPlan:
        """Settling time, cutoff frequency and feedback-referred noise.

        One AC transimpedance sweep serves the -3 dB cutoff, the
        step-response record length (6 time constants of the cutoff) and
        the DC transimpedance the noise referral divides by; the
        feedback resistance is read from the stack's captured element
        values, so every slice of every stack — schematic batches, PEX
        corner stacks, mismatch draws — measures stacked with no
        per-slice fallback.
        """
        ac, nf = self.AC_FREQUENCIES, self.NOISE_FREQUENCIES
        return MeasurementPlan([
            Bandwidth3dB("cutoff_freq", "out", ac),
            StepSettling("settling_time", "out", ac,
                         tolerance=self.SETTLE_TOL, n_steps=600,
                         duration_factor=6.0, min_corner=1e7),
            OutputNoiseRms("noise", "out", nf, refer_resistor="RF",
                           refer_frequencies=ac, refer_node="out"),
        ])
