"""OTA array fed from a resistive power-distribution mesh — the
10^4-unknown scenario family behind the condensed sparse engine leg.

:class:`~repro.topologies.ota_chain.OtaChain` made the sparse-direct
engine earn its keep at a few hundred unknowns; this module builds the
workload that outgrows a SuperLU factorisation per Newton step and per
frequency point.  The circuit is the classic
power-integrity problem of digital/mixed-signal signoff:

* a ``grid_n x grid_n`` **power mesh** — series resistance along every
  horizontal and vertical edge, a decoupling capacitor from every node
  to ground — fed from the clean supply through tap resistors at the
  four corners.  The mesh is where the unknowns live, and no sizing
  touches it: :mod:`repro.sim.condense` eliminates it exactly once per
  structure, so every measured AC sweep and every gmin-0 DC Newton step
  solves only the ~21 unknowns on its boundary (amp terminals, taps,
  sources).
* ``n_amps`` identical 5T OTAs wired as unity-gain buffers, each drawing
  its supply from a mesh tap along the grid diagonal (source *and* well
  of the PMOS loads ride the local grid voltage, so IR drop and supply
  ripple couple into the signal path).  All amps share one bias diode
  mirrored to every tail device, and all buffer the same input; the
  last amp's output (probe node ``out``) carries the load capacitor and
  the measurements.

The MNA size is dominated by ``grid_n^2``: the default 16x16
configuration lands at ~270 unknowns (sparse territory, like the full
chain), while the benchmark family (``benchmarks/bench_condensation.py``)
constructs 30/45/71/122-point grids for ~0.9k/2k/5k/15k unknowns
(223 points, ~50k, at paper scale).  ``auto`` routes every one of them
to the sparse leg, where the condensed steps carry the warm sizing
loop and gmin-continuation rungs factor the full Jacobian with
``splu``.
Zoo-registered variants
(``power_grid_ota`` + sweeps) stay test-sized for the same reason the
chain's do: every registered scenario runs through the golden and
engine-equivalence matrices on the *dense* CI leg, whose scatter maps
are ``O(K n^2)`` memory.

Action space: the four 5T-OTA width grids, shared across the array.
Specs: buffer gain at low frequency (LOWER_BOUND), -3 dB bandwidth at
the probe (LOWER_BOUND) and total supply current including the mesh
(MINIMIZE) — one DC solve, one AC sweep, one branch current.
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


class PowerGridOta(Topology):
    """Unity-gain 5T-OTA array supplied from a resistive power mesh.

    Parameters
    ----------
    grid_n:
        Mesh points per side; the mesh contributes ``grid_n**2`` MNA
        unknowns (~5k at 70, ~50k at 223).
    n_amps:
        OTA buffers drawing supply from the mesh diagonal.
    r_mesh:
        Series resistance [ohm] of each mesh edge.
    c_decap:
        Decoupling capacitance [F] at each mesh node.
    r_tap:
        Tap resistance [ohm] from the clean supply to each mesh corner.
    """

    name = "power_grid_ota"

    #: Reference current into the shared bias diode MB.
    I_BIAS_REF = 20e-6
    #: Capacitive load at the probe output.
    C_LOAD = 0.2 * PICO
    #: Input common-mode voltage as a fraction of VDD.
    VCM_FRACTION = 0.55

    def __init__(self, technology=None, corner=None, temperature=None,
                 grid_n: int = 16, n_amps: int = 4,
                 r_mesh: float = 0.25, c_decap: float = 0.1 * PICO,
                 r_tap: float = 0.5):
        if grid_n < 2:
            raise ValueError("PowerGridOta needs a grid of >= 2 x 2 nodes")
        if n_amps < 1:
            raise ValueError("PowerGridOta needs >= 1 amplifier")
        if n_amps > grid_n:
            raise ValueError("PowerGridOta fits at most grid_n amplifiers "
                             "on the mesh diagonal")
        self.grid_n = int(grid_n)
        self.n_amps = int(n_amps)
        self.r_mesh = float(r_mesh)
        self.c_decap = float(c_decap)
        self.r_tap = float(r_tap)
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
        # Calibration probe (default 16x16 grid, 4 amps, random sizings,
        # TT, 27 C): buffer gain 0.993-0.996 V/V, -3 dB bandwidth
        # 38-240 MHz (median ~80 MHz), supply current 40-300 uA.  Ranges
        # sit inside the reachable band, like every other topology's.
        return SpecSpace([
            Spec("gain", 0.95, 0.995, SpecKind.LOWER_BOUND, unit="V/V"),
            Spec("bandwidth", 2.0e7, 2.0e8, SpecKind.LOWER_BOUND,
                 log_scale=True, unit="Hz"),
            Spec("ibias", 5.0e-5, 5.0e-4, SpecKind.MINIMIZE,
                 log_scale=True, unit="A"),
        ])

    # -- netlist ---------------------------------------------------------------
    def _grid_node(self, i: int, j: int) -> str:
        """Mesh node name at row ``i``, column ``j``."""
        return f"g{i}_{j}"

    def _amp_tap(self, a: int) -> str:
        """Mesh node amp ``a`` (1-based) draws its supply from: the amps
        spread evenly along the grid diagonal."""
        if self.n_amps == 1:
            i = (self.grid_n - 1) // 2
        else:
            i = ((a - 1) * (self.grid_n - 1)) // (self.n_amps - 1)
        return self._grid_node(i, i)

    def _amp_out(self, a: int) -> str:
        """Output node of amp ``a`` (the last one is the probe)."""
        return "out" if a == self.n_amps else f"o{a}"

    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the sized testbench netlist (see the module
        docstring for the circuit)."""
        tech = self.technology
        length = tech.l_default
        vcm = self.VCM_FRACTION * tech.vdd
        nmos = self.device_params("nmos")
        pmos = self.device_params("pmos")
        n = self.grid_n

        net = Netlist("power_grid_ota")
        net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
        net.add(VoltageSource("VIN", "in", "0", dc=vcm, ac=1.0))
        # Power mesh: edge resistors + per-node decap, corner-fed.
        for ci, cj in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)):
            net.add(Resistor(f"RT{ci}_{cj}", "vdd",
                             self._grid_node(ci, cj), self.r_tap))
        for i in range(n):
            for j in range(n):
                node = self._grid_node(i, j)
                if j + 1 < n:
                    net.add(Resistor(f"RH{i}_{j}", node,
                                     self._grid_node(i, j + 1), self.r_mesh))
                if i + 1 < n:
                    net.add(Resistor(f"RV{i}_{j}", node,
                                     self._grid_node(i + 1, j), self.r_mesh))
                net.add(Capacitor(f"CD{i}_{j}", node, "0", self.c_decap))
        # Shared bias diode (clean supply reference).
        net.add(CurrentSource("IBIAS", "vdd", "nb", dc=self.I_BIAS_REF))
        net.add(Mosfet("MB", "nb", "nb", "0", "0", polarity="nmos",
                       params=nmos, w=values["w_bias"], l=length))
        # The OTA array: unity-gain buffers supplied from mesh taps.
        for a in range(1, self.n_amps + 1):
            tap = self._amp_tap(a)
            out = self._amp_out(a)
            net.add(Mosfet(f"MT{a}", f"nt{a}", "nb", "0", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_tail"], l=length))
            # Unity feedback to the inverting input — the output-side
            # gate M2 (its drain IS the output): out = A/(1+A) * in, a
            # proper follower with one stable root, so DC Newton finds
            # the same operating point from any reasonable seed.
            net.add(Mosfet(f"M1_{a}", f"d{a}", "in", f"nt{a}", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_in"], l=length))
            net.add(Mosfet(f"M2_{a}", out, out, f"nt{a}", "0",
                           polarity="nmos", params=nmos,
                           w=values["w_in"], l=length))
            # PMOS loads: source and well ride the local grid voltage.
            net.add(Mosfet(f"M3_{a}", f"d{a}", f"d{a}", tap, tap,
                           polarity="pmos", params=pmos,
                           w=values["w_load"], l=length))
            net.add(Mosfet(f"M4_{a}", out, f"d{a}", tap, tap,
                           polarity="pmos", params=pmos,
                           w=values["w_load"], l=length))
            net.add(Capacitor(f"CO{a}", out, "0", self.C_LOAD))
        return net

    def update_netlist(self, net: Netlist, values: dict[str, float]) -> bool:
        """In-place resize (mirror of :meth:`build`'s value mapping).

        Only the device widths vary with the sizing — the mesh is fixed
        by construction — so the restamp fast path touches 5 elements
        per amp and nothing else.  Because the mesh never moves between
        sizings, its frozen stamps stay in the base and
        :mod:`repro.sim.condense` factors it once per structure for both
        DC Newton and the AC sweep.
        """
        net["MB"].w = values["w_bias"]
        for a in range(1, self.n_amps + 1):
            net[f"MT{a}"].w = values["w_tail"]
            net[f"M1_{a}"].w = net[f"M2_{a}"].w = values["w_in"]
            net[f"M3_{a}"].w = net[f"M4_{a}"].w = values["w_load"]
        return True

    #: AC sweep grid (class-level: building it per measurement is waste).
    #: Buffer bandwidths land between a few MHz (starved sizings) and a
    #: few hundred MHz; each extra point is one more mesh-sized solve per
    #: evaluation, so the grid stops where the physics does.
    AC_FREQUENCIES = log_frequencies(1e5, 1e9, points_per_decade=5)

    def measurements(self) -> MeasurementPlan:
        """Buffer gain, probe -3 dB bandwidth and total supply current.

        One AC sweep at the probe node serves both AC specs; on both
        sparse legs it runs condensed onto the mesh boundary
        (:func:`repro.sim.condense.condensed_response`).
        """
        freqs = self.AC_FREQUENCIES
        return MeasurementPlan([
            DcGain("gain", "out", freqs),
            Bandwidth3dB("bandwidth", "out", freqs),
            SupplyCurrent("ibias", "VDD"),
        ])

    def unknown_count(self) -> int:
        """MNA unknowns of this configuration: the mesh (``grid_n**2``)
        plus 3 internal nodes per amp (tail, diode, output), global
        nodes vdd/in/nb, and two voltage-source branches."""
        return self.grid_n * self.grid_n + 3 * self.n_amps + 3 + 2
