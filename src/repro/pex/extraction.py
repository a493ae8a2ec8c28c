"""Parasitic extraction and the PEX+PVT simulator wrapper.

:class:`ParasiticExtractor` annotates a sized netlist with the parasitics
its pseudo-layout implies:

* **wiring capacitance** — per-net ground capacitance proportional to the
  net's half-perimeter wirelength, plus a per-terminal via/contact cap;
* **access resistance** — series resistance into every MOSFET drain and
  source (contact + LDD), inversely proportional to device width, realised
  by splitting the terminal node;
* **mesh mode** (``ExtractionRules.mesh_segments > 0``) — each net's
  wiring parasitics become a distributed series-R / shunt-C stub of that
  many segments instead of one lumped capacitor.  The extracted netlist
  grows by ``2 * segments`` elements per net, which pushes post-layout
  systems past the sparse-engine threshold (:mod:`repro.sim.engine`) —
  the high-fidelity large-netlist PEX scenario.

:class:`PexSimulator` is the BAG stand-in the transfer experiment deploys
through: it builds the schematic, extracts it, solves it across PVT
corners, takes the worst-case value of every spec, and offers an
:meth:`PexSimulator.lvs_check` that verifies the extracted netlist's
device-level connectivity against the schematic (paper: "AutoCkt is able
to obtain 40 LVS passed designs").

Stacked corner evaluation
-------------------------
A full PVT signoff of B designs is one ``(B*K, n, n)`` problem: every
corner of every design is a same-structure MNA snapshot (the extractor
adds identical parasitic elements for every sizing, and corners only
change device cards, VDD and temperature — values, not structure).
:meth:`PexSimulator.evaluate` and :meth:`PexSimulator.evaluate_batch`
therefore fill one corner-major :class:`~repro.sim.batch.SystemStack`
from the per-corner :class:`~repro.sim.stamp.StampPlan` caches, find all
operating points in a single batched damped-Newton call, measure the
whole stack through the topology's stacked measurement path, and reduce
each spec worst-case over the corner axis — replacing the historical
corner-by-corner loop (kept as :meth:`PexSimulator.evaluate_percorner`
for equivalence testing and benchmarking).

Newton seeds follow the schematic simulator's policy: a one-design
:meth:`PexSimulator.evaluate` seeds each corner from that corner's
previous operating point along the sizing trajectory (a deployment
moves one grid step per evaluation), while
:meth:`PexSimulator.evaluate_batch` seeds every row from its corner's
canonical grid-centre operating point, so batch results do not depend
on what was evaluated before.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.elements import Capacitor, Resistor
from repro.circuits.mosfet import Mosfet
from repro.circuits.netlist import GROUND, Netlist
from repro.core.specs import SpecKind
from repro.errors import ConvergenceError, MeasurementError
from repro.pex.corners import CornerSpec, signoff_corners
from repro.pex.layout import PseudoLayout, generate_layout
from repro.pex.lvs import lvs_compare
from repro.sim.batch import SystemStack, solve_dc_batch
from repro.sim.cache import SimulationCache, SimulationCounter
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.stamp import StampPlan
from repro.topologies.base import CircuitSimulator, Topology
from repro.units import MICRO

#: Prefix of every element the extractor adds (LVS strips these).
PEX_PREFIX = "PEX_"


def mesh_segment_values(r_net: float, c_net: float,
                        segments: int) -> tuple[float, float]:
    """Per-segment ``(R, C)`` of a net's distributed mesh stub.

    The single source of the split formula: both the cold extraction
    (:meth:`ParasiticExtractor._add_mesh`) and the in-place updater fast
    path must produce identical element values, or a warm restamp would
    silently drift from a fresh build.
    """
    return max(r_net / segments, 1e-3), c_net / segments


@dataclasses.dataclass(frozen=True)
class ExtractionRules:
    """Technology-style extraction coefficients."""

    #: Wiring capacitance per metre of estimated wirelength [F/m].
    #: 1 fF/um — HPWL underestimates true routed length, so the coefficient
    #: folds in a routing-overhead factor, as fast extractors do.
    c_wire_per_m: float = 1.0e-9
    #: Extra capacitance per device terminal on a net [F] (via + contact).
    c_terminal: float = 0.5e-15
    #: Access resistance coefficient [ohm * m]: R = rho / (W * m);
    #: 40 ohm for a 1 um wide device (contact + LDD).
    r_access_ohm_m: float = 40.0 * MICRO
    #: Floor for access resistance [ohm].
    r_access_min: float = 0.5
    #: Wire sheet resistance per metre of estimated wirelength [ohm/m]
    #: (0.1 ohm/um of mid-level metal); only used by the mesh mode.
    r_wire_per_m: float = 0.1 / MICRO
    #: High-fidelity mesh mode: when > 0, each net's wiring parasitics
    #: are extracted as this many series-R / shunt-C segments (a
    #: distributed RC stub off the net) instead of one lumped ground
    #: capacitor.  Per-segment parasitics multiply the extracted netlist
    #: size, which is exactly the post-layout regime the sparse engine
    #: (:mod:`repro.sim.sparse`) is for.
    mesh_segments: int = 0


class ParasiticExtractor:
    """Annotates netlists with layout parasitics."""

    def __init__(self, rules: ExtractionRules | None = None):
        self.rules = rules or ExtractionRules()

    def extract(self, netlist: Netlist,
                layout: PseudoLayout | None = None) -> Netlist:
        """Return a new netlist: the input plus parasitic elements.

        Node names of the schematic are preserved (measurements still find
        their probe nodes); MOSFET drain/source terminals are moved onto
        new internal nodes behind access resistors.
        """
        layout = layout or generate_layout(netlist)
        rules = self.rules
        extracted = Netlist(f"{netlist.title}_pex")

        for element in netlist:
            if isinstance(element, Mosfet):
                d_int = f"{PEX_PREFIX}{element.name}_d"
                s_int = f"{PEX_PREFIX}{element.name}_s"
                r_acc = max(rules.r_access_ohm_m / (element.w * element.m),
                            rules.r_access_min)
                extracted.add(Resistor(f"{PEX_PREFIX}R_{element.name}_d",
                                       element.d, d_int, r_acc))
                extracted.add(Resistor(f"{PEX_PREFIX}R_{element.name}_s",
                                       element.s, s_int, r_acc))
                extracted.add(Mosfet(element.name, d_int, element.g, s_int,
                                     element.b, polarity=element.polarity,
                                     params=element.params, w=element.w,
                                     l=element.l, m=element.m))
            else:
                extracted.add(element)

        for net, hpwl in layout.net_hpwl.items():
            if net == GROUND:
                continue
            c_net = (rules.c_wire_per_m * hpwl
                     + rules.c_terminal * layout.net_terminals.get(net, 0))
            if c_net <= 0.0:
                continue
            if rules.mesh_segments > 0:
                self._add_mesh(extracted, net, c_net,
                               rules.r_wire_per_m * hpwl)
            else:
                extracted.add(Capacitor(f"{PEX_PREFIX}C_{net}", net, GROUND,
                                        c_net))
        return extracted

    def _add_mesh(self, extracted: Netlist, net: str, c_net: float,
                  r_net: float) -> None:
        """Distributed RC stub for one net (mesh mode).

        The net's total wiring capacitance ``c_net`` and resistance
        ``r_net`` are split over ``mesh_segments`` series-R / shunt-C
        sections hanging off the net: DC connectivity is untouched (the
        stub carries no DC current, and LVS collapses it away), but the
        AC/transient load is a diffusive RC line instead of a single
        pole — per-segment parasitics, as a field-solver-grade extractor
        would report.
        """
        m = self.rules.mesh_segments
        r_seg, c_seg = mesh_segment_values(r_net, c_net, m)
        prev = net
        for k in range(1, m + 1):
            node = f"{PEX_PREFIX}w_{net}__{k}"
            extracted.add(Resistor(f"{PEX_PREFIX}RW_{net}__{k}", prev, node,
                                   r_seg))
            extracted.add(Capacitor(f"{PEX_PREFIX}C_{net}__{k}", node, GROUND,
                                    c_seg))
            prev = node


class PexSimulator(CircuitSimulator):
    """Post-layout, PVT-corner-swept simulator for one topology.

    Parameters
    ----------
    topology_factory:
        Callable building the topology — a :class:`Topology` subclass, a
        compiled zoo scenario, or anything taking the ``technology`` /
        ``corner`` / ``temperature`` keywords; one instance is built per PVT corner (each carries the
        corner's device cards, see :meth:`CornerSpec.apply`).
    corners:
        PVT corners to sweep; every spec reports its worst-case value
        across them (paper §III-D).

    :meth:`evaluate` solves each corner from that corner's previous
    operating point (the trajectory state :meth:`reset_warm_start`
    clears) and :meth:`evaluate_batch` from each corner's canonical
    grid-centre operating point; see :meth:`_evaluate_fresh_batch`.
    """

    def __init__(self, topology_factory, corners: list[CornerSpec] | None = None,
                 rules: ExtractionRules | None = None, cache: bool = True):
        self.corners = corners if corners is not None else signoff_corners()
        if not self.corners:
            raise MeasurementError("PexSimulator needs at least one corner")
        self.extractor = ParasiticExtractor(rules)
        self._topologies: list[Topology] = [
            corner.apply(topology_factory) for corner in self.corners]
        # Each corner topology simulates its extracted netlist through an
        # extracting plan, so its own simulate (warm start, cold retry),
        # trajectory state (_warm_x, the seed of evaluate) and centre
        # seed serve the corner.  Extracted netlists keep their
        # structure across sizings (the extractor adds the same parasitic
        # elements for every sizing), so each corner's MNA system is built
        # once and restamped per evaluation, through the in-place updater
        # (schematic values via update_netlist, parasitics recomputed)
        # when the topology supports it; StampPlan rebuilds if a sizing
        # ever changes the extracted structure.
        for topology in self._topologies:
            topology._plan = StampPlan(self._corner_builder(topology),
                                       temperature=topology.temperature,
                                       updater=self._corner_updater(topology))
        self._plans: list[StampPlan] = [t._plan for t in self._topologies]
        self._sch_netlist: Netlist | None = None
        self._cnet_cache: dict[tuple, dict[str, tuple[float, float]]] = {}
        reference = self._topologies[0]
        self.parameter_space = reference.parameter_space
        self.spec_space = reference.spec_space
        self.counter = SimulationCounter()
        self._cache = SimulationCache(50_000) if cache else None

    def reset_warm_start(self) -> None:
        """Drop every corner topology's per-trajectory warm-start state;
        the canonical corner centre solutions survive — they carry no
        trajectory history."""
        for topology in self._topologies:
            topology.reset_warm_start()

    # -- evaluation -----------------------------------------------------------
    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings across all corners in one stacked solve,
        with faulting designs quarantined (see
        :meth:`~repro.topologies.base.CircuitSimulator._recover_batch`)."""
        return self._evaluate_batch_cached(indices_2d)

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct cache misses (corner stack)."""
        return self._evaluate_fresh_batch(values_list)

    def _evaluate_fresh(self, indices: np.ndarray) -> dict[str, float]:
        """Worst-case specs of one clipped sizing across all corners (a
        corner stack of one design), each corner seeded from its own
        trajectory (see :meth:`_evaluate_fresh_batch`)."""
        values = self.parameter_space.values(indices)
        return self._evaluate_fresh_batch([values], trajectory=True)[0]

    def _evaluate_fresh_batch(self, values_list: list[dict[str, float]],
                              trajectory: bool = False
                              ) -> list[dict[str, float]]:
        """Corner-stacked evaluation of B sizings (see module docstring).

        All ``B * K`` (design, corner) systems solve in one batched
        damped-Newton call, by default warm-started from each corner's
        canonical grid-centre operating point; the reference topology's
        stacked measurement runs over the whole stack (its spec
        extraction only consumes stacked matrices, solutions and
        per-slice metadata, so one call serves every corner), and the
        per-design result is the worst spec value across that design's
        corner slices.

        With ``trajectory`` (the one-design path behind :meth:`evaluate`)
        corner row k is seeded instead from corner topology k's
        trajectory state, ``_warm_x``: the operating point of that
        corner's last converged, non-gated evaluation, which
        :meth:`reset_warm_start` clears.  A corner without one keeps its
        canonical seed.  If a trajectory-seeded row fails the ladder, the
        stack is solved again from the canonical seeds, as
        :meth:`~repro.topologies.base.Topology.simulate` retries cold.
        After measuring, each corner keeps its row's operating point, or
        drops its state when the row failed or reported the penalty row
        (a gated design, e.g. a latched ngm-OTA), so the next step of
        that corner restarts from the canonical seed.  Without
        ``trajectory`` the seeds are canonical and no state is touched.
        """
        B, K = len(values_list), len(self.corners)
        stack: SystemStack | None = None
        for k, plan in enumerate(self._plans):
            stack = plan.stack(values_list, into=stack, offset=k * B,
                               n_slices=B * K, n_corners=K)
        canonical = self._corner_warm_start(stack, B)
        x0, seeded = (self._trajectory_seeds(canonical) if trajectory
                      else (canonical, None))
        result = solve_dc_batch(stack, x0=x0)
        if seeded is not None and not result.converged[seeded].all():
            result = solve_dc_batch(stack, x0=canonical)
        specs = self._topologies[0].measure_batch(stack, result)
        if specs is None:
            specs = self._measure_slices(values_list, result)
        if trajectory:
            self._keep_trajectory(specs, result)
        return self._reduce_worst_case(specs, B, K)

    def _trajectory_seeds(self, canonical: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Seeds of a one-design corner stack: corner topology k's
        ``_warm_x`` in row k where it has one of the stack's size, the
        canonical seed elsewhere.  Returns the seeds and the mask of the
        rows seeded from a trajectory."""
        x0 = canonical.copy()
        seeded = np.zeros(len(x0), dtype=bool)
        for k, topology in enumerate(self._topologies):
            warm = topology._warm_x
            if warm is not None and warm.shape == x0[k].shape:
                x0[k] = warm
                seeded[k] = True
        return x0, seeded

    def _keep_trajectory(self, specs: list[dict[str, float]],
                         result) -> None:
        """Store row k's operating point as corner topology k's
        trajectory state, or clear the state when the row did not
        converge or reported the penalty row."""
        failure = self.failure_measurements()
        for k, topology in enumerate(self._topologies):
            good = bool(result.converged[k]) and specs[k] != failure
            topology._warm_x = result.x[k].copy() if good else None

    def _corner_warm_start(self, stack: SystemStack, B: int) -> np.ndarray:
        """Stacked Newton seed: each corner topology's canonical centre
        solution (:meth:`~repro.topologies.base.Topology.centre_solution`),
        tiled over that corner's block; cold zeros for corners whose
        centre fails."""
        seeds = np.zeros((stack.n_designs, stack.size))
        for k, topology in enumerate(self._topologies):
            ref = topology.centre_solution(stack.size)
            if ref is not None:
                seeds[k * B:(k + 1) * B] = ref
        return seeds

    def _measure_slices(self, values_list, result) -> list[dict[str, float]]:
        """Scalar per-slice measurement fallback (topologies without a
        stacked measurement path)."""
        B = len(values_list)
        specs: list[dict[str, float]] = []
        for k, (plan, topology) in enumerate(zip(self._plans,
                                                 self._topologies)):
            for i, values in enumerate(values_list):
                s = k * B + i
                system = plan.restamp(values)
                try:
                    if result.converged[s]:
                        op = OperatingPoint(system, result.x[s].copy(),
                                            int(result.iterations[s]),
                                            float(result.residual_norm[s]))
                    else:
                        op = solve_dc(system)
                    specs.append(topology.measure(system, op))
                except (ConvergenceError, MeasurementError):
                    specs.append(topology.failure_measurement())
        return specs

    def _reduce_worst_case(self, specs: list[dict[str, float]], B: int,
                           K: int) -> list[dict[str, float]]:
        """Worst spec value across each design's corner slices."""
        worst_list: list[dict[str, float]] = []
        for i in range(B):
            worst: dict[str, float] = {}
            for k in range(K):
                corner_specs = specs[k * B + i]
                for spec in self.spec_space:
                    v = corner_specs[spec.name]
                    if spec.name not in worst:
                        worst[spec.name] = v
                    elif spec.kind is SpecKind.LOWER_BOUND:
                        worst[spec.name] = min(worst[spec.name], v)
                    elif spec.kind is SpecKind.RANGE:
                        worst[spec.name] = min(worst[spec.name], v)
                    else:  # UPPER_BOUND / MINIMIZE: bigger is worse
                        worst[spec.name] = max(worst[spec.name], v)
            worst_list.append(worst)
        return worst_list

    def evaluate_percorner(self, indices: np.ndarray) -> dict[str, float]:
        """Historical corner-by-corner loop (no stacking, no cache).

        Kept as the equivalence/benchmark baseline for the stacked path:
        each corner topology's own ``simulate`` on its extracting plan —
        one trajectory-warm-started scalar solve (cold retry) and one
        scalar measurement per corner.
        """
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        specs = [topology.simulate(values) for topology in self._topologies]
        return self._reduce_worst_case(specs, 1, len(self.corners))[0]

    def _corner_builder(self, topology: Topology):
        """``values -> extracted netlist`` builder for one corner's plan."""
        def build(values: dict[str, float]):
            return self.extractor.extract(topology.build(values))
        return build

    def _corner_updater(self, topology: Topology):
        """In-place resize of a previously-extracted netlist (fast path).

        The schematic elements are updated through the topology's own
        :meth:`~repro.topologies.base.Topology.update_netlist` (element
        names survive extraction, so the mapping applies directly to the
        extracted netlist), and the parasitic values are recomputed with
        the extractor's formulas: access resistance from the resized
        device widths, wiring capacitance from the (corner-independent,
        per-sizing cached) pseudo-layout of the schematic.  Any structural
        surprise returns False, which makes the plan fall back to a full
        build + extract.

        The update works on one sizing at a time (``max`` of the access
        resistance, the per-sizing layout cache), so it declines the
        ``(B,)`` value columns of a column-wise
        :meth:`~repro.sim.stamp.StampPlan.stack`, which then restamps the
        corner's system design by design.

        A parasitic whose value is unchanged is assigned the equal float,
        which leaves :func:`~repro.circuits.elements.linear_writes` where
        it was, so the next restamp compares no frozen stamp keys on its
        account.
        """
        rules = self.extractor.rules

        def update(extracted: Netlist, values: dict[str, float]) -> bool:
            if any(isinstance(v, np.ndarray) for v in values.values()):
                return False
            if not topology.update_netlist(extracted, values):
                return False
            cap_prefix = f"{PEX_PREFIX}C_"
            mesh = rules.mesh_segments
            n_caps = 0
            try:
                for element in extracted:
                    if isinstance(element, Mosfet):
                        r_acc = max(
                            rules.r_access_ohm_m / (element.w * element.m),
                            rules.r_access_min)
                        access = f"{PEX_PREFIX}R_{element.name}"
                        extracted[f"{access}_d"].resistance = r_acc
                        extracted[f"{access}_s"].resistance = r_acc
                    elif element.name.startswith(cap_prefix):
                        n_caps += 1
                pars = self._wire_parasitics(values)
                if len(pars) * max(mesh, 1) != n_caps:
                    # A wire cap appeared or vanished: structure changed.
                    return False
                for net, (c_net, r_net) in pars.items():
                    if mesh > 0:
                        r_seg, c_seg = mesh_segment_values(r_net, c_net, mesh)
                        for k in range(1, mesh + 1):
                            wire = extracted[f"{PEX_PREFIX}RW_{net}__{k}"]
                            wire.resistance = r_seg
                            cap = extracted[f"{cap_prefix}{net}__{k}"]
                            cap.capacitance = c_seg
                    else:
                        extracted[f"{cap_prefix}{net}"].capacitance = c_net
            except KeyError:
                return False
            return True

        return update

    def _wire_parasitics(self, values: dict[str, float]
                         ) -> dict[str, tuple[float, float]]:
        """Per-net ``(wiring capacitance, wiring resistance)`` of a sizing.

        The pseudo-layout only depends on the sizing — never on the PVT
        corner — so one computation (memoised per sizing) serves all
        corner plans of an evaluation.
        """
        key = tuple(sorted(values.items()))
        hit = self._cnet_cache.get(key)
        if hit is not None:
            return hit
        reference = self._topologies[0]
        if (self._sch_netlist is None
                or not reference.update_netlist(self._sch_netlist, values)):
            self._sch_netlist = reference.build(values)
        layout = generate_layout(self._sch_netlist)
        rules = self.extractor.rules
        nets: dict[str, tuple[float, float]] = {}
        for net, hpwl in layout.net_hpwl.items():
            if net == GROUND:
                continue
            c_net = (rules.c_wire_per_m * hpwl
                     + rules.c_terminal * layout.net_terminals.get(net, 0))
            if c_net > 0.0:
                nets[net] = (c_net, rules.r_wire_per_m * hpwl)
        if len(self._cnet_cache) > 4096:
            self._cnet_cache.clear()
        self._cnet_cache[key] = nets
        return nets

    # -- verification -------------------------------------------------------------
    def lvs_check(self, indices: np.ndarray) -> bool:
        """Layout-versus-schematic check of the extracted design."""
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        topology = self._topologies[0]
        schematic = topology.build(values)
        extracted = self.extractor.extract(schematic)
        return lvs_compare(schematic, extracted, parasitic_prefix=PEX_PREFIX)

    def layout_for(self, indices: np.ndarray) -> PseudoLayout:
        """The pseudo-layout of a sizing (for reporting/examples)."""
        values = self.parameter_space.values(self.parameter_space.clip(indices))
        return generate_layout(self._topologies[0].build(values))

