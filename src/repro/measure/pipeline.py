"""Declarative measurement pipeline: one spec graph per topology.

Historically every topology carried two hand-written measurement bodies —
a scalar ``measure`` and a stacked ``measure_batch`` — that had to be kept
numerically in lockstep by hand.  This module replaces both with a
*declaration*: a topology describes its specs as a
:class:`MeasurementPlan` composed of reusable primitives (AC node
response specs, closed-form step settling, adjoint output-noise RMS,
supply current), and the base :class:`~repro.topologies.base.Topology`
evaluates that one declaration for every calling convention:

* **stacked** — ``measure_batch`` builds a :class:`MeasureContext` over
  the converged slices of a :class:`~repro.sim.batch.SystemStack` and
  runs the plan once for the whole batch;
* **scalar** — ``measure`` snapshots the single system into a batch-of-1
  stack and runs the *same* code, so scalar and stacked results are
  bitwise identical by construction.

Shared intermediates (device state arrays, small-signal operators, AC
node responses, sparse sweep factorisations) are memoised on the context,
so a plan's primitives can be evaluated in any order with identical
results and without recomputing the physics they share — the TIA's
settling time and -3 dB cutoff read one AC sweep, its noise referral
reuses the same sweep's DC transimpedance.

Engine handling is the context's business, not the primitives': on a
dense stack AC/noise specs solve through the stacked modal machinery of
:mod:`repro.sim.ac`, while sparse stacks solve through per-design
:class:`~repro.sim.sparse.SweepFactorization` reuse
(:func:`repro.sim.sparse.stack_sweep_factors`) and never materialise
dense ``(B, n, n)`` operators — which is what lets the 221-unknown OTA
chain measure stacked at all.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.errors import AnalysisError, MeasurementError, TopologyError
from repro.measure.acspecs import (
    crossing_frequency_batch,
    f3db_batch,
    phase_margin_batch,
)
from repro.measure.transpecs import settling_time
from repro.sim.ac import ac_node_response_batch
from repro.sim.condense import condensed_response
from repro.sim.linear import step_response_node_batch
from repro.sim.noise import (
    output_noise_rms_batch,
    output_noise_rms_from_adjoint,
)


class MeasureContext:
    """Shared measurement state for ``m`` stacked design slices.

    Wraps a :class:`~repro.sim.batch.SystemStack`, the slice indices
    ``rows`` being measured and their DC solutions ``X`` (one row per
    entry of ``rows``), and memoises every intermediate more than one
    primitive can need.  Scalar measurement is the ``m == 1`` case of
    exactly this object — there is no separate scalar code path.
    """

    def __init__(self, topology, stack, rows: np.ndarray, X: np.ndarray):
        self.topology = topology
        self.stack = stack
        self.rows = np.asarray(rows, dtype=np.intp)
        self.X = np.asarray(X, dtype=float)
        self.m = len(self.rows)
        if self.X.shape[:1] != (self.m,):
            raise MeasurementError(
                f"{self.m} rows but {len(self.X)} solution vectors")
        self._arrays: dict[str, np.ndarray] | None = None
        self._ss: tuple[np.ndarray, np.ndarray] | None = None
        self._facts: dict[int, tuple] = {}
        self._resp: dict[tuple, tuple] = {}
        self._cross: dict[tuple, np.ndarray] = {}
        self._noise: dict[tuple, np.ndarray] = {}

    def subset(self, sel: np.ndarray) -> "MeasureContext":
        """A context restricted to positions ``sel`` (gate survivors).

        Intermediates already memoised on the parent are sliced into the
        child, so a gate that touched :attr:`arrays` does not make the
        first primitive re-run the device-model batch.
        """
        sub = MeasureContext(self.topology, self.stack, self.rows[sel],
                             self.X[sel])
        if self._arrays is not None:
            sub._arrays = {k: v[sel] for k, v in self._arrays.items()}
        if self._ss is not None:
            sub._ss = (self._ss[0][sel], self._ss[1][sel])
        return sub

    # -- shared intermediates -------------------------------------------------
    @property
    def sparse(self) -> bool:
        """Whether the stack snapshots a sparse-engine structure."""
        return bool(self.stack.sparse)

    def node_index(self, node: str) -> int:
        """MNA row index of ``node`` (-1 for ground)."""
        return self.stack.template.node_index[node]

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Stacked MOSFET state arrays at the measured solutions."""
        if self._arrays is None:
            self._arrays = self.topology.batch_state_arrays(
                self.stack, self.X, self.rows)
        return self._arrays

    def small_signal(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense stacked small-signal ``(G_ss, C_ss)`` operators.

        Only dense-path primitives (and the closed-form step response,
        which has no sparse formulation) call this; sparse AC/noise
        primitives go through :meth:`sweep_factors` instead.
        """
        if self._ss is None:
            self._ss = self.topology.batch_small_signal(
                self.stack, self.X, self.rows, self.arrays)
        return self._ss

    def _g3c4(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened per-design device stamp values ``(g3, c4)``."""
        a = self.arrays
        g3 = np.stack([a["gm"], a["gds"], a["gmb"]],
                      axis=-1).reshape(self.m, -1)
        c4 = np.stack([a["cgs"], a["cgd"], a["cdb"], a["csb"]],
                      axis=-1).reshape(self.m, -1)
        return g3, c4

    def sweep_factors(self, frequencies: np.ndarray) -> list:
        """Per-design sparse sweep factorisations, memoised per grid.

        One :class:`~repro.sim.sparse.SweepFactorization` per slice; the
        forward AC solve and the noise adjoint of one measurement share
        the same factors, mirroring the scalar engine's per-operating-
        point memo (:meth:`repro.sim.system.MnaSystem.sparse_sweep_lus`).
        """
        hit = self._facts.get(id(frequencies))
        if hit is not None and hit[0] is frequencies:
            return hit[1]
        from repro.sim.sparse import stack_sweep_factors

        omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        g3, c4 = self._g3c4()
        facts = stack_sweep_factors(self.stack, self.rows, g3, c4, omega)
        self._facts[id(frequencies)] = (frequencies, facts)
        return facts

    def node_response(self, frequencies: np.ndarray,
                      node: str) -> np.ndarray:
        """``(m, F)`` complex AC responses of ``node``, memoised per
        (grid, node) so every AC-derived spec reads one sweep.

        On sparse stacks a boundary node of a condensable structure
        solves through :func:`repro.sim.condense.condensed_response`;
        other slices and nodes use the full :meth:`sweep_factors`.
        """
        key = (id(frequencies), node)
        hit = self._resp.get(key)
        if hit is not None and hit[0] is frequencies:
            return hit[1]
        idx = self.node_index(node)
        if idx < 0:
            h = np.zeros((self.m, len(frequencies)), dtype=complex)
        elif self.sparse:
            # Condensed boundary solves where the template's reduction
            # covers a slice; the full sweep factors for the rest.
            h, left = condensed_response(self.stack, self.rows,
                                         *self._g3c4(), frequencies, idx)
            if left.any():
                facts = self.sweep_factors(frequencies)
                for j in np.flatnonzero(left):
                    b = self.stack.b_ac[self.rows[j]]
                    h[j] = facts[j].solve(b)[:, idx]
        else:
            G, C = self.small_signal()
            h = ac_node_response_batch(G, C, self.stack.b_ac[self.rows],
                                       frequencies, idx)
        self._resp[key] = (frequencies, h)
        return h

    def crossing(self, frequencies: np.ndarray, node: str, level,
                 fallback: float = 1.0) -> np.ndarray:
        """Memoised |H| crossing frequencies (UGBW at ``level=1``,
        -3 dB when ``level`` is ``"f3db"``)."""
        key = (id(frequencies), node, "f3db" if isinstance(level, str)
               else float(level), float(fallback))
        hit = self._cross.get(key)
        if hit is not None:
            return hit
        h = self.node_response(frequencies, node)
        if isinstance(level, str):
            out = f3db_batch(frequencies, h, fallback=fallback)
        else:
            out = crossing_frequency_batch(frequencies, np.abs(h), level,
                                           fallback=fallback)
        self._cross[key] = out
        return out

    def supply_current(self, source: str) -> np.ndarray:
        """|branch current| of a voltage source per slice (bias current)."""
        return np.abs(
            self.X[:, self.stack.template.branch_index[source]])

    def resistance(self, name: str) -> np.ndarray:
        """Per-slice resistance of resistor ``name`` (stack-captured)."""
        return self.stack.resistances(name, self.rows)

    def noise_rms(self, frequencies: np.ndarray, node: str) -> np.ndarray:
        """Integrated output noise [V rms] at ``node`` per slice.

        Dense stacks ride the stacked adjoint sweep of
        :func:`repro.sim.noise.output_noise_rms_batch`; sparse stacks
        solve the adjoint through the same per-design sweep factors as
        the forward response (``trans="T"``) and share the PSD
        accumulation (:func:`output_noise_rms_from_adjoint`).
        """
        key = (id(frequencies), node)
        hit = self._noise.get(key)
        if hit is not None:
            return hit
        out_idx = self.node_index(node)
        if out_idx < 0:
            # Mirror the dense path's guard on the sparse leg too: an
            # adjoint "excitation" at ground would otherwise land on an
            # arbitrary MNA row and produce a plausible wrong number.
            raise AnalysisError("noise output node cannot be ground")
        gm = self.arrays["gm"]
        if self.sparse:
            facts = self.sweep_factors(frequencies)
            e_out = np.zeros(self.stack.size)
            e_out[out_idx] = 1.0
            y = np.empty((self.m, len(frequencies), self.stack.size),
                         dtype=complex)
            for j, fact in enumerate(facts):
                y[j] = np.conjugate(fact.solve(e_out, adjoint=True))
            vn = output_noise_rms_from_adjoint(self.stack, self.rows, gm, y,
                                               frequencies)
        else:
            G, C = self.small_signal()
            vn = output_noise_rms_batch(self.stack, self.rows, gm, G, C,
                                        frequencies, out_idx)
        self._noise[key] = vn
        return vn


# -- primitives ---------------------------------------------------------------
@dataclasses.dataclass(frozen=True, eq=False)
class DcGain:
    """|H| at the lowest swept frequency of one node response."""

    spec: str
    node: str
    frequencies: np.ndarray

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice DC gain values."""
        h = ctx.node_response(self.frequencies, self.node)
        return {self.spec: np.abs(h[:, 0])}


@dataclasses.dataclass(frozen=True, eq=False)
class UnityGainBandwidth:
    """Frequency where |H| crosses unity (the paper's UGBW spec)."""

    spec: str
    node: str
    frequencies: np.ndarray
    fallback: float = 1.0

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice unity-crossing frequencies."""
        return {self.spec: ctx.crossing(self.frequencies, self.node, 1.0,
                                        fallback=self.fallback)}


@dataclasses.dataclass(frozen=True, eq=False)
class PhaseMargin:
    """``180 + phase(H)`` [deg] at the unity-gain frequency (0 when the
    DC gain is already below 1)."""

    spec: str
    node: str
    frequencies: np.ndarray

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice phase margins."""
        h = ctx.node_response(self.frequencies, self.node)
        ugbw = ctx.crossing(self.frequencies, self.node, 1.0)
        return {self.spec: phase_margin_batch(self.frequencies, h, ugbw)}


@dataclasses.dataclass(frozen=True, eq=False)
class Bandwidth3dB:
    """-3 dB bandwidth of one node response relative to its DC gain."""

    spec: str
    node: str
    frequencies: np.ndarray
    fallback: float = 1.0

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice -3 dB crossing frequencies."""
        return {self.spec: ctx.crossing(self.frequencies, self.node, "f3db",
                                        fallback=self.fallback)}


@dataclasses.dataclass(frozen=True, eq=False)
class SupplyCurrent:
    """Magnitude of the DC current through a voltage source (the paper's
    bias-current / power-proxy spec)."""

    spec: str
    source: str = "VDD"

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice supply-current magnitudes."""
        return {self.spec: ctx.supply_current(self.source)}


@dataclasses.dataclass(frozen=True, eq=False)
class StepSettling:
    """Small-signal step-response settling time at one node.

    The record duration is derived per design from the -3 dB cutoff of
    the same node's AC response (``duration_factor / max(cutoff,
    min_corner)``), exactly the convention a designer uses to pick a
    transient window; the closed-form stacked integrator of
    :func:`repro.sim.linear.step_response_node_batch` produces every
    waveform at once.  Designs whose waveform is non-finite or never
    crosses into the tolerance band get NaN, which the plan maps to the
    pessimistic failure measurement.
    """

    spec: str
    node: str
    frequencies: np.ndarray
    tolerance: float = 0.01
    n_steps: int = 600
    duration_factor: float = 6.0
    min_corner: float = 1e7

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice settling times (NaN = unmeasurable design)."""
        cutoff = ctx.crossing(self.frequencies, self.node, "f3db")
        durations = self.duration_factor / np.maximum(cutoff,
                                                      self.min_corner)
        G, C = ctx.small_signal()
        b = np.real(ctx.stack.b_ac[ctx.rows]).astype(float)
        times, waves, finals = step_response_node_batch(
            G, C, b, durations, ctx.node_index(self.node),
            n_steps=self.n_steps)
        settle = np.full(ctx.m, np.nan)
        for j in range(ctx.m):
            if not (np.isfinite(finals[j])
                    and np.all(np.isfinite(waves[j]))):
                continue
            try:
                settle[j] = settling_time(times[j], waves[j],
                                          final=float(finals[j]),
                                          initial=0.0,
                                          tolerance=self.tolerance)
            except MeasurementError:
                pass
        return {self.spec: settle}


@dataclasses.dataclass(frozen=True, eq=False)
class OutputNoiseRms:
    """Integrated output noise [V rms] at one node, optionally referred
    through a feedback resistor.

    With ``refer_resistor`` set, the output noise is expressed as an
    equivalent voltage across that resistor via the DC transfer magnitude
    of ``(refer_frequencies, refer_node)``:
    ``vn = vn_out * R / max(|H(0)|, 1)`` — the TIA's input referral,
    with the resistance read from the stack's captured element values so
    no per-slice sizing dict is needed.
    """

    spec: str
    node: str
    frequencies: np.ndarray
    refer_resistor: str | None = None
    refer_frequencies: np.ndarray | None = None
    refer_node: str | None = None

    @property
    def names(self) -> tuple[str, ...]:
        """Spec names this primitive produces."""
        return (self.spec,)

    def extract(self, ctx: MeasureContext) -> dict[str, np.ndarray]:
        """Per-slice integrated (optionally referred) noise."""
        vn = ctx.noise_rms(self.frequencies, self.node)
        if self.refer_resistor is not None:
            h = ctx.node_response(self.refer_frequencies, self.refer_node)
            rt0 = np.abs(h[:, 0])
            vn = vn * ctx.resistance(self.refer_resistor) / np.maximum(
                rt0, 1.0)
        return {self.spec: vn}


@dataclasses.dataclass(frozen=True, eq=False)
class Gate:
    """Validity gate: designs failing ``fn(ctx) -> (m,) bool`` report the
    topology's pessimistic failure measurement (e.g. the negative-gm
    OTA's first-stage latch-up check)."""

    fn: Callable[[MeasureContext], np.ndarray]
    label: str = "gate"

    def mask(self, ctx: MeasureContext) -> np.ndarray:
        """Boolean per-slice validity mask."""
        return np.asarray(self.fn(ctx), dtype=bool)


class MeasurementPlan:
    """A topology's spec declaration: primitives plus validity gates.

    ``primitives`` each produce one or more named spec columns;
    ``gates`` veto whole designs before any primitive runs.  Primitive
    composition is order-independent (shared intermediates live on the
    memoising :class:`MeasureContext`), which the property-based test
    suite verifies.
    """

    def __init__(self, primitives, gates=()):
        self.primitives = tuple(primitives)
        self.gates = tuple(gates)
        names: list[str] = []
        for prim in self.primitives:
            names.extend(prim.names)
        if len(set(names)) != len(names):
            raise TopologyError(
                f"measurement plan declares duplicate specs: {names}")
        if not names:
            raise TopologyError("measurement plan declares no specs")
        self.spec_names = tuple(names)

    def evaluate(self, ctx: MeasureContext
                 ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Run every gate and primitive over ``ctx``.

        Returns ``(columns, ok)``: one ``(m,)`` float array per declared
        spec (NaN on gated-out slices) and the per-slice validity mask —
        a slice is valid when every gate passed and every spec came out
        finite.
        """
        ok = np.ones(ctx.m, dtype=bool)
        for gate in self.gates:
            ok &= gate.mask(ctx)
        sub = ctx if bool(ok.all()) else ctx.subset(np.nonzero(ok)[0])
        cols = {name: np.full(ctx.m, np.nan) for name in self.spec_names}
        if sub.m:
            for prim in self.primitives:
                for name, values in prim.extract(sub).items():
                    cols[name][ok] = values
        for values in cols.values():
            ok &= np.isfinite(values)
        return cols, ok
