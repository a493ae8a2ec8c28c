"""OTA repeater chain driving distributed RC interconnect — the
large-netlist scenario family.

Every topology shipped before this one has 5–40 MNA unknowns; this module
is the workload that makes the sparse engine (:mod:`repro.sim.sparse`)
earn its keep.  The circuit is the classic repeater-insertion problem
from interconnect design, built out of the library's own analog pieces:

* ``n_stages`` identical single-stage 5T OTAs wired as unity-gain
  buffers (inverting input tied to the output) — the "repeaters".  All
  stages share one bias diode, mirrored to every tail device, so the
  DC state of each buffer is the input common mode and the chain biases
  itself regardless of depth.
* between consecutive buffers (and from the last buffer to the output
  probe) a **distributed RC line** of ``segments`` series-resistance /
  shunt-capacitance sections — per-segment parasitics, not a lumped
  pole, so segment count genuinely changes the physics (the line shows
  diffusive, not single-pole, behaviour).

The MNA size grows as ``n_stages * (segments + 3)``; the default
configuration (8 stages x 24 segments) lands at ~230 unknowns, past the
``auto`` threshold of :mod:`repro.sim.engine`, so the chain simulates on
the sparse backend out of the box while the small topologies stay dense.

Action space: the four 5T-OTA width grids, shared across stages (sizing
one repeater and replicating it is exactly how interconnect repeaters
are designed).  Specs: end-to-end low-frequency gain (buffers fight the
passive attenuation; LOWER_BOUND), chain -3 dB bandwidth (the
repeater-sizing objective; LOWER_BOUND) and total supply current
(MINIMIZE) — measured with one DC solve, one sparse AC sweep and one
branch current, so a full evaluation stays ``O(nnz)`` per frequency.
"""

from __future__ import annotations

from repro.circuits.elements import (Capacitor, CurrentSource, Resistor,
                                     VoltageSource)
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import Netlist
from repro.circuits.technology import Technology, ptm45
from repro.core.specs import Spec, SpecKind, SpecSpace
from repro.measure.pipeline import (
    Bandwidth3dB,
    DcGain,
    MeasurementPlan,
    SupplyCurrent,
)
from repro.sim.ac import log_frequencies
from repro.topologies.base import Topology
from repro.topologies.params import GridParam, ParameterSpace
from repro.units import MICRO, PICO


class OtaChain(Topology):
    """Unity-gain 5T-OTA repeater chain with distributed RC interconnect.

    Parameters
    ----------
    n_stages:
        Number of OTA repeaters (each followed by one RC line).
    segments:
        RC sections per line; total line R/C is fixed, so more segments
        means a finer spatial discretisation of the same wire.
    r_line, c_line:
        Total series resistance [ohm] and shunt capacitance [F] of each
        line (defaults model ~1 mm of mid-level metal).
    """

    name = "ota_chain"

    #: Reference current into the shared bias diode MB.
    I_BIAS_REF = 20e-6
    #: Capacitive load at the far end of the last line.
    C_LOAD = 0.2 * PICO
    #: Input common-mode voltage as a fraction of VDD.
    VCM_FRACTION = 0.55

    def __init__(self, technology=None, corner=None, temperature=None,
                 n_stages: int = 8, segments: int = 24,
                 r_line: float = 2.0e3, c_line: float = 0.25 * PICO):
        if n_stages < 1 or segments < 1:
            raise ValueError("OtaChain needs >= 1 stage and >= 1 segment")
        self.n_stages = int(n_stages)
        self.segments = int(segments)
        self.r_line = float(r_line)
        self.c_line = float(c_line)
        kwargs = {}
        if corner is not None:
            kwargs["corner"] = corner
        if temperature is not None:
            kwargs["temperature"] = temperature
        super().__init__(technology=technology, **kwargs)

    @classmethod
    def default_technology(cls) -> Technology:
        """Technology card this topology runs on by default."""
        return ptm45()

    def _build_parameter_space(self) -> ParameterSpace:
        half_um = 0.5 * MICRO
        return ParameterSpace([
            GridParam("w_in", 1, 100, 1, scale=half_um, unit="m"),
            GridParam("w_load", 1, 100, 1, scale=half_um, unit="m"),
            GridParam("w_tail", 1, 100, 1, scale=half_um, unit="m"),
            GridParam("w_bias", 1, 100, 1, scale=half_um, unit="m"),
        ])

    def _build_spec_space(self) -> SpecSpace:
        # Calibration probe (default 8x24 chain, random sizings, TT,
        # 27 C): end-to-end gain 0.9-1.1 V/V for converging designs
        # (median 1.04 — mild closed-loop peaking), bandwidth 2 kHz-55 MHz
        # (median 17 MHz), supply current 40 uA-4 mA (median 165 uA).
        # Ranges sit inside the reachable band, like every other
        # topology's spec space.
        return SpecSpace([
            Spec("gain", 0.80, 0.99, SpecKind.LOWER_BOUND, unit="V/V"),
            Spec("bandwidth", 2.0e6, 4.0e7, SpecKind.LOWER_BOUND,
                 log_scale=True, unit="Hz"),
            Spec("ibias", 2.0e-4, 4.0e-3, SpecKind.MINIMIZE,
                 log_scale=True, unit="A"),
        ])

    # -- netlist ---------------------------------------------------------------
    def _stage_input(self, s: int) -> str:
        """Input node name of stage ``s`` (stage 1 hangs off the source)."""
        return "in" if s == 1 else f"x{s}"

    def _line_end(self, s: int) -> str:
        """Far-end node of the line after stage ``s``."""
        return "out" if s == self.n_stages else f"x{s + 1}"

    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the sized testbench netlist (see the module
        docstring for the circuit)."""
        tech = self.technology
        length = tech.l_default
        vcm = self.VCM_FRACTION * tech.vdd
        nmos = self.device_params("nmos")
        pmos = self.device_params("pmos")
        m = self.segments
        r_seg = self.r_line / m
        c_seg = self.c_line / m

        net = Netlist("ota_chain")
        net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        net.add(VoltageSource("VIN", "in", "0", dc=vcm, ac=1.0))
        net.add(CurrentSource("IBIAS", "vdd", "nb", dc=self.I_BIAS_REF))
        net.add(Mosfet("MB", "nb", "nb", "0", "0", polarity="nmos",
                       params=nmos, w=values["w_bias"], l=length))
        for s in range(1, self.n_stages + 1):
            inp = self._stage_input(s)
            out = f"o{s}"
            net.add(Mosfet(f"MT{s}", f"nt{s}", "nb", "0", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_tail"], l=length))
            # Unity feedback: M1's gate (the inverting input) is the
            # stage's own output, M2's gate the line-driven input.
            net.add(Mosfet(f"M1_{s}", f"d{s}", out, f"nt{s}", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_in"], l=length))
            net.add(Mosfet(f"M2_{s}", out, inp, f"nt{s}", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_in"], l=length))
            net.add(Mosfet(f"M3_{s}", f"d{s}", f"d{s}", "vdd", "vdd",
                           polarity="pmos", params=pmos,
                           w=values["w_load"], l=length))
            net.add(Mosfet(f"M4_{s}", out, f"d{s}", "vdd", "vdd",
                           polarity="pmos", params=pmos,
                           w=values["w_load"], l=length))
            # Distributed RC line: out -> w{s}_1 -> ... -> line end.
            prev = out
            for k in range(1, m + 1):
                node = self._line_end(s) if k == m else f"w{s}_{k}"
                net.add(Resistor(f"RW{s}_{k}", prev, node, r_seg))
                net.add(Capacitor(f"CW{s}_{k}", node, "0", c_seg))
                prev = node
        net.add(Capacitor("CL", "out", "0", self.C_LOAD))
        return net

    def update_netlist(self, net: Netlist, values: dict[str, float]) -> bool:
        """In-place resize (mirror of :meth:`build`'s value mapping).

        Only the device widths vary with the sizing — the interconnect is
        fixed by construction — so the restamp fast path touches 5
        elements per stage and nothing else.
        """
        net["MB"].w = values["w_bias"]
        for s in range(1, self.n_stages + 1):
            net[f"MT{s}"].w = values["w_tail"]
            net[f"M1_{s}"].w = net[f"M2_{s}"].w = values["w_in"]
            net[f"M3_{s}"].w = net[f"M4_{s}"].w = values["w_load"]
        return True

    #: AC sweep grid (class-level: building it per measurement is waste).
    #: The measurable band of the chain: gain reads at 10 kHz, the -3 dB
    #: point lands between ~100 kHz (starved sizings) and a few hundred
    #: MHz (minimal lines); each extra point is one more ~n-unknown
    #: factorisation per evaluation, so the grid stops where the physics
    #: does.
    AC_FREQUENCIES = log_frequencies(1e4, 1e9, points_per_decade=5)

    def measurements(self) -> MeasurementPlan:
        """End-to-end gain, chain -3 dB bandwidth and supply current.

        One AC sweep at the probe node serves both AC specs.  On the
        sparse engine (the default at this topology's size) the stacked
        path measures every design through its own
        :class:`~repro.sim.sparse.SweepFactorization` — per-design
        block-diagonal ``splu`` factors, no dense ``(B, n, n)``
        operators — so chain batches no longer fall back to the scalar
        measurement loop.
        """
        freqs = self.AC_FREQUENCIES
        return MeasurementPlan([
            DcGain("gain", "out", freqs),
            Bandwidth3dB("bandwidth", "out", freqs),
            SupplyCurrent("ibias", "VDD"),
        ])

    def unknown_count(self) -> int:
        """MNA unknowns of this configuration: per stage 3 internal nodes
        (tail, diode, output) plus ``segments`` line nodes; global nodes
        vdd/in/nb; two voltage-source branches."""
        return self.n_stages * (self.segments + 3) + 3 + 2
