"""Topology interface and the counting/caching simulator wrapper.

A :class:`Topology` owns three things:

* the discretised :class:`~repro.topologies.params.ParameterSpace` (the
  paper's action space),
* a netlist builder mapping physical parameter values to a
  :class:`~repro.circuits.netlist.Netlist` testbench,
* a *measurement declaration* (:meth:`Topology.measurements`): the
  topology's design specs as a composition of reusable pipeline
  primitives (:mod:`repro.measure.pipeline`), which the base class
  evaluates for the scalar and stacked paths alike — scalar
  measurement is literally a batch of one.

:class:`SchematicSimulator` wraps a topology into the object the RL
environment and the baselines consume: ``evaluate(index_vector) -> specs``
with simulation counting (the paper's sample-efficiency metric), optional
memoisation, and warm-started DC solves along sizing trajectories.
"""

from __future__ import annotations

import abc
import dataclasses
import time

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.technology import Corner, Technology
from repro.core.specs import SpecSpace, failure_measurements
from repro.errors import (ConvergenceError, EvaluationFault,
                          MeasurementError, TopologyError, TrainingError)
from repro.sim.faults import BatchReport, FaultRecord
from repro.sim.batch import SystemStack, solve_dc_batch
from repro.sim.cache import (SimulationCache, SimulationCounter, sizing_key,
                             sizing_keys)
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.stamp import StampPlan
from repro.sim.system import MnaSystem
from repro.topologies.params import ParameterSpace
from repro.units import ROOM_TEMPERATURE


class Topology(abc.ABC):
    """A sizable circuit with a parameter grid and measurable specs."""

    #: Subclasses set a short identifier, e.g. "tia".
    name: str = "topology"

    def __init__(self, technology: Technology | None = None,
                 corner: Corner = Corner.TT,
                 temperature: float = ROOM_TEMPERATURE):
        self.technology = technology or self.default_technology()
        self.corner = corner
        self.temperature = float(temperature)
        self.parameter_space = self._build_parameter_space()
        self.spec_space = self._build_spec_space()
        self._warm_x: np.ndarray | None = None
        # Grid-centre seed: (system size, centre solution or None when
        # the centre failed to converge), see centre_solution.
        self._batch_ref: tuple[int, np.ndarray | None] | None = None
        # One structure cache per (topology, corner, temperature): sizings
        # share netlist structure, so the MNA system is built once and
        # restamped per evaluation (see repro.sim.stamp).
        self._plan = StampPlan(self.build, temperature=self.temperature,
                               updater=self.update_netlist)

    # -- subclass API ---------------------------------------------------------
    @classmethod
    @abc.abstractmethod
    def default_technology(cls) -> Technology:
        """Technology card the paper used for this circuit."""

    @abc.abstractmethod
    def _build_parameter_space(self) -> ParameterSpace:
        """The paper's [start, stop, step] action-space grids."""

    @abc.abstractmethod
    def _build_spec_space(self) -> SpecSpace:
        """The paper's design-specification ranges."""

    @abc.abstractmethod
    def build(self, values: dict[str, float]) -> Netlist:
        """Construct the testbench netlist for physical parameter values."""

    def measurements(self):
        """Declare this topology's specs as a measurement-pipeline graph.

        Returns a :class:`~repro.measure.pipeline.MeasurementPlan`
        composing reusable primitives (AC node-response specs, step
        settling, adjoint noise, supply current), or None for legacy
        topologies that override :meth:`measure` directly.  The
        declaration is the *single* source of the topology's measurement
        physics: the base class evaluates it for the scalar path
        (:meth:`measure`, literally a batch of one) and the stacked path
        (:meth:`measure_batch`) alike, on both engine backends.
        """
        return None

    def measure(self, system: MnaSystem, op: OperatingPoint) -> dict[str, float]:
        """Extract all design specs from a solved testbench.

        The default runs the topology's declared measurement plan on a
        batch-of-1 stack snapshot of ``system`` — the same code the
        stacked path runs, so scalar and batched measurements cannot
        drift apart.  Topologies without a declaration must override
        this (the pre-pipeline extension API, still honoured everywhere).
        """
        from repro.measure.pipeline import MeasureContext

        plan = self._measurement_plan()
        if plan is None:
            raise NotImplementedError(
                f"{type(self).__name__} must declare measurements() or "
                "override measure()")
        # One-slice stack cached per system object: the StampPlan reuses
        # one restamped MnaSystem across the sizing loop, so the scalar
        # hot path pays the stack's structure scan once, not per call;
        # set_design refills its arrays in place.
        stack = getattr(self, "_scalar_stack", None)
        if stack is None or stack.template is not system:
            stack = SystemStack(system, 1)
            self._scalar_stack = stack
        stack.set_design(0, system)
        ctx = MeasureContext(self, stack, np.zeros(1, dtype=np.intp),
                             op.x[np.newaxis, :])
        cols, ok = plan.evaluate(ctx)
        if not ok[0]:
            return self.failure_measurement()
        return {name: float(cols[name][0]) for name in plan.spec_names}

    def _measurement_plan(self):
        """The validated, cached measurement declaration (or None).

        Built once per topology instance; the declared spec names are
        checked against the spec space so :meth:`failure_measurement`
        (which is derived from the same declaration surface) always
        covers exactly the measured specs.
        """
        try:
            return self._mplan
        except AttributeError:
            pass
        plan = self.measurements()
        if plan is not None and set(plan.spec_names) != set(
                self.spec_space.names):
            raise TopologyError(
                f"{type(self).__name__} declares specs "
                f"{sorted(plan.spec_names)} but its spec space defines "
                f"{sorted(self.spec_space.names)}")
        self._mplan = plan
        return plan

    def update_netlist(self, netlist: Netlist,
                       values: dict[str, float]) -> bool:
        """Mutate a previously-built netlist's element values in place for
        a new sizing; return True on success.

        Optional fast path mirroring :meth:`build`'s value mapping without
        reconstructing element objects (the netlist *structure* is fixed
        across sizings).  The default returns False, which makes the
        :class:`~repro.sim.stamp.StampPlan` fall back to a full
        :meth:`build`.  Implementations are verified against fresh builds
        by the engine equivalence tests.

        ``values`` may also map every parameter to a ``(B,)`` array, one
        entry per design: :meth:`StampPlan.stack
        <repro.sim.stamp.StampPlan.stack>` fills a batch by calling this
        once on a scratch netlist, whose element values then become
        ``(B,)`` columns.  So the mapping must be elementwise — plain
        assignments and arithmetic, no ``float()``, ``max`` or branch on
        a value — as every topology's in this package is; an
        implementation that cannot be must return False for array
        values, and the plan then restamps design by design.
        """
        return False

    # -- shared behaviour -------------------------------------------------------
    def device_params(self, polarity: str):
        """Corner/temperature-adjusted device card for this topology.

        Cached per polarity: corner and temperature are fixed for the
        lifetime of a topology instance, and ``build`` runs once per
        simulator evaluation.
        """
        try:
            return self._device_cards[polarity]
        except AttributeError:
            self._device_cards = {}
        except KeyError:
            pass
        card = self.technology.device(polarity, self.corner, self.temperature)
        self._device_cards[polarity] = card
        return card

    def simulate(self, values: dict[str, float]) -> dict[str, float]:
        """Build, solve and measure one sizing; returns the spec dict.

        The MNA system is obtained through the topology's
        :class:`~repro.sim.stamp.StampPlan` — structure built once,
        matrices restamped in place per sizing.

        DC solves are warm-started from the previous sizing's solution
        (sizing trajectories move one grid step at a time, so the previous
        operating point is an excellent initial guess); the first solve
        of an episode, or the first right after :meth:`reset_warm_start`,
        starts cold.  On any convergence trouble the solve is retried
        cold, and if that also fails the pessimistic
        :meth:`failure_measurement` is returned so optimisers always
        receive a numeric (heavily penalised) result.  A design measured
        as that penalty row (a gated design, e.g. a latched ngm-OTA)
        leaves no warm start either, so the next solve starts cold.
        """
        system = self._plan.restamp(values)
        op = None
        seed = self._warm_x
        if seed is not None and seed.shape == (system.size,):
            try:
                op = solve_dc(system, x0=seed)
            except ConvergenceError:
                op = None
        self._warm_x = None
        if op is None:
            try:
                op = solve_dc(system)
            except ConvergenceError:
                return self.failure_measurement()
        failure = self.failure_measurement()
        try:
            specs = self.measure(system, op)
        except MeasurementError:
            return failure
        if specs != failure:
            self._warm_x = op.x.copy()
        return specs

    def simulate_batch(self, values_list: list[dict[str, float]]
                       ) -> list[dict[str, float]]:
        """Batch counterpart of :meth:`simulate` for B sizings at once.

        The DC operating points are found with one stacked damped-Newton
        solve (:func:`~repro.sim.batch.solve_dc_batch`), amortising the
        Python/numpy dispatch overhead that dominates sequential solves;
        designs that fail every convergence strategy fall back to
        :meth:`failure_measurement`, exactly like the scalar path.
        Measurements then run per design against the restamped system.

        Every design Newton-solves independently from one canonical seed
        (the grid-centre operating point — see :meth:`_batch_warm_start`),
        so results are reproducible regardless of evaluation history and
        match sequential :meth:`simulate` calls spec for spec within
        solver tolerance; the per-instance warm-start state is left
        untouched.
        """
        if not values_list:
            return []
        stack: SystemStack = self._plan.stack(values_list)
        result = solve_dc_batch(stack, x0=self._batch_warm_start(stack))
        batched = self.measure_batch(stack, result)
        if batched is not None:
            return batched
        specs: list[dict[str, float]] = []
        for i, values in enumerate(values_list):
            if not result.converged[i]:
                specs.append(self.failure_measurement())
                continue
            system = self._plan.restamp(values)
            op = OperatingPoint(system, result.x[i].copy(),
                                int(result.iterations[i]),
                                float(result.residual_norm[i]))
            try:
                specs.append(self.measure(system, op))
            except MeasurementError:
                specs.append(self.failure_measurement())
        return specs

    def _batch_warm_start(self, stack: SystemStack) -> np.ndarray | None:
        """Shared warm start for a batch solve.

        Any valid operating point of the topology is a far better Newton
        seed than zeros (supply/bias rails are already up).  The seed is
        the *canonical* grid-centre operating point, solved cold once and
        cached — deliberately independent of evaluation history, so
        batch results are reproducible regardless of what was simulated
        before.  Falls back to cold (None) when the centre itself fails
        (see :meth:`centre_solution`).
        """
        ref = self.centre_solution(stack.size)
        return (np.tile(ref, (stack.n_designs, 1))
                if ref is not None else None)

    def centre_solution(self, size: int) -> np.ndarray | None:
        """Cold DC solution of the grid-centre sizing (None when it fails).

        Solved once through the topology's plan and memoised together
        with its failure; a new solve happens only when the system
        ``size`` changes.
        """
        if self._batch_ref is None or self._batch_ref[0] != size:
            center = self.parameter_space.values(self.parameter_space.center)
            try:
                ref = solve_dc(self._plan.restamp(center)).x
            except ConvergenceError:
                ref = None
            self._batch_ref = (size, ref)
        return self._batch_ref[1]

    def measure_batch(self, stack: SystemStack, result) -> (
            list[dict[str, float]] | None):
        """Stacked measurement for :meth:`simulate_batch`.

        Evaluates the topology's declared measurement plan over every
        converged slice of the stack in one pass — stacked AC/noise/step
        solves on the dense engine, per-design sweep-factorisation reuse
        on the sparse engine — and returns one spec dict per slice
        (pessimistic failure measurements for non-converged or gated-out
        designs).  Returns None (caller measures design by design) only
        for legacy topologies without a declaration, or when a subclass
        overrides :meth:`measure` (whose custom physics the stacked path
        could not reproduce).
        """
        from repro.measure.pipeline import MeasureContext

        plan = self._measurement_plan()
        if plan is None or type(self).measure is not Topology.measure:
            return None
        specs: list[dict[str, float] | None] = [None] * stack.n_designs
        rows = np.nonzero(result.converged)[0]
        if len(rows):
            ctx = MeasureContext(self, stack, rows, result.x[rows])
            cols, ok = plan.evaluate(ctx)
            names = plan.spec_names
            columns = [cols[name].tolist() for name in names]
            for b, good, vals in zip(rows.tolist(), ok.tolist(),
                                     zip(*columns)):
                if good:
                    specs[b] = dict(zip(names, vals))
        return [spec if spec is not None else self.failure_measurement()
                for spec in specs]

    def batch_state_arrays(self, stack: SystemStack, X: np.ndarray,
                           rows: np.ndarray) -> dict[str, np.ndarray]:
        """Stacked MOSFET state arrays for designs ``rows`` at solutions
        ``X`` (one row of ``X`` per entry of ``rows``)."""
        from repro.circuits.mosfet import (
            state_arrays_batch, terminal_voltages_batch)
        dev = stack.dev.take(rows)
        Xp = np.concatenate([X, np.zeros((len(X), 1))], axis=1)
        V = Xp[:, stack.template._terms_pad]
        vgs, vds, vsb = terminal_voltages_batch(dev, V)
        return state_arrays_batch(dev, vgs, vds, vsb)

    def batch_small_signal(self, stack: SystemStack, X: np.ndarray,
                           rows: np.ndarray,
                           arrays: dict[str, np.ndarray] | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Stacked small-signal ``(G_ss, C_ss)`` for designs ``rows``."""
        if arrays is None:
            arrays = self.batch_state_arrays(stack, X, rows)
        tpl = stack.template
        B, n = len(X), stack.size
        n1 = n + 1
        g3 = np.stack([arrays["gm"], arrays["gds"], arrays["gmb"]],
                      axis=-1).reshape(B, -1)
        c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                       arrays["csb"]], axis=-1).reshape(B, -1)
        Gp = np.zeros((B, n1, n1))
        Gp[:, :n, :n] = stack.G_rows(rows)
        Gp.reshape(B, -1)[:] += g3 @ tpl.ss_map
        Cp = np.zeros((B, n1, n1))
        Cp[:, :n, :n] = stack.C_rows(rows)
        Cp.reshape(B, -1)[:] += c4 @ tpl.cap_map
        return (np.ascontiguousarray(Gp[:, :n, :n]),
                np.ascontiguousarray(Cp[:, :n, :n]))

    def failure_measurement(self) -> dict[str, float]:
        """Pessimistic spec values reported for non-convergent designs
        (delegates to :func:`repro.core.specs.failure_measurements`, the
        shared penalty-row source)."""
        return failure_measurements(self.spec_space)

    def reset_warm_start(self) -> None:
        """Drop the per-trajectory warm-start state.

        Called when jumping across the grid — and by the RL environment
        on every episode reset, so one episode's final operating point
        never seeds the next episode's first solve (per-episode state
        must not leak between designs).  The *canonical* grid-centre
        seed survives by design: it is a function of the topology, not
        of what was solved before, so it carries no trajectory history.
        """
        self._warm_x = None


@dataclasses.dataclass
class _BatchPlan:
    """Cache/dedupe plan for one batched evaluation.

    Built by ``CircuitSimulator._plan_batch`` (which also does the
    counter accounting), consumed by ``_finish_batch`` once the distinct
    fresh specs are available.  ``results`` holds the memo hits already
    resolved; fresh value ``i`` (``fresh_values[i]``) serves the caller
    rows ``fresh_rows[i]`` — several when the memoised path dedupes a
    repeated sizing — and is memoised under ``fresh_keys[i]`` (empty on
    the uncached path)."""

    results: list
    fresh_values: list
    fresh_rows: list
    fresh_keys: list


class CircuitSimulator:
    """What optimisers see: index-vector evaluation with sim accounting.

    Batched evaluation is *supervised* in process: a design whose solve
    keeps raising is bisected out of its batch and quarantined with
    pessimistic :meth:`failure_measurements` instead of failing the
    batch, and the healthy designs keep their normal results.  Each
    batched call publishes a :class:`~repro.sim.faults.BatchReport` as
    :attr:`last_batch_report` describing any faults and quarantines it
    absorbed.
    """

    parameter_space: ParameterSpace
    spec_space: SpecSpace
    counter: SimulationCounter
    _cache = None
    #: Supervision record of the most recent batched evaluation
    #: (:class:`~repro.sim.faults.BatchReport`; None before the first).
    last_batch_report = None

    def evaluate(self, indices: np.ndarray) -> dict[str, float]:
        """Simulate the sizing at grid ``indices`` and return its specs.

        Out-of-range indices are clipped to the grid.  With the memo on,
        a repeated sizing is answered from it and counted ``cached``;
        any other sizing is counted ``fresh`` and solved by
        :meth:`_evaluate_fresh`.  The caller always gets its own copy of
        the spec dict.
        """
        indices = self.parameter_space.clip(indices)
        key = sizing_key(indices)
        cache = self._cache
        if cache is not None and key in cache:
            self.counter.cached += 1
            return dict(cache.get_or_compute(key, dict))
        self.counter.fresh += 1
        result = self._evaluate_fresh(indices)
        if cache is not None:
            result = cache.get_or_compute(key, lambda: result)
        return dict(result)

    def _evaluate_fresh(self, indices: np.ndarray) -> dict[str, float]:
        """Solve and measure one clipped sizing (no memo, no counting).

        The hook behind :meth:`evaluate`: engine-backed simulators
        implement it; simple simulators may override :meth:`evaluate`
        itself instead."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _evaluate_fresh or "
            "override evaluate")

    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings (rows of ``indices_2d``) and return B spec
        dicts.

        The default runs :meth:`evaluate` row by row; simulators with a
        vectorised engine (:class:`SchematicSimulator`,
        :class:`~repro.pex.extraction.PexSimulator`) override this with a
        stacked solve that is several times faster than the loop.
        """
        indices_2d = self._normalize_batch(indices_2d)
        return [self.evaluate(row) for row in indices_2d]

    def _normalize_batch(self, indices_2d) -> np.ndarray:
        """Coerce a batch argument into a well-formed ``(B, P)`` array.

        ``np.atleast_2d`` maps an empty input to shape ``(1, 0)`` — one
        bogus zero-parameter design — so empty batches are normalised to
        ``(0, P)`` explicitly: they flow through the pipeline as a real
        (trivial) batch and come back as an empty result with a clean,
        well-formed report instead of crashing in the engine."""
        indices_2d = np.asarray(indices_2d, dtype=np.int64)
        if indices_2d.size == 0:
            return indices_2d.reshape(0, len(self.parameter_space.names))
        return np.atleast_2d(indices_2d)

    def _plan_batch(self, indices_2d: np.ndarray, cache) -> _BatchPlan:
        """Cache/counting front half of batched evaluation.

        Memo hits (and duplicate rows within the batch) are resolved
        from the memo and counted exactly as the sequential loop would
        count them; the remaining misses come back as the plan's fresh
        value list.  With ``cache`` None every row is fresh (no dedupe) —
        the uncached simulator's historical accounting, under which
        in-batch duplicates really are solved twice.
        """
        space = self.parameter_space
        indices_2d = space.clip(self._normalize_batch(indices_2d))
        B = len(indices_2d)
        if cache is None:
            self.counter.fresh += B
            return _BatchPlan(
                results=[None] * B, fresh_values=space.values(indices_2d),
                fresh_rows=[[r] for r in range(B)], fresh_keys=[])
        results: list[dict[str, float] | None] = [None] * B
        fresh: list[int] = []
        fresh_keys: list[tuple[int, ...]] = []
        pending: dict[tuple[int, ...], list[int]] = {}
        for r, key in enumerate(sizing_keys(indices_2d)):
            if key in cache:
                self.counter.cached += 1
                results[r] = dict(cache.get_or_compute(
                    key, dict))  # key present: compute never runs
            elif key in pending:
                # Duplicate inside the batch: the sequential loop would
                # have found it in the cache by now.
                self.counter.cached += 1
                pending[key].append(r)
            else:
                self.counter.fresh += 1
                pending[key] = [r]
                fresh_keys.append(key)
                fresh.append(r)
        return _BatchPlan(results=results,
                          fresh_values=space.values(indices_2d[fresh]),
                          fresh_rows=list(pending.values()),
                          fresh_keys=fresh_keys)

    def _finish_batch(self, plan: _BatchPlan, specs, cache
                      ) -> list[dict[str, float]]:
        """Back half of batched evaluation: memoise and scatter.

        ``specs`` are the fresh results in ``plan.fresh_values`` order;
        each is memoised (when caching is on) and copied into every
        caller row it serves."""
        if cache is not None:
            for key, spec in zip(plan.fresh_keys, specs):
                cache.get_or_compute(key, lambda s=spec: s)
        for rows, spec in zip(plan.fresh_rows, specs):
            for r in rows:
                plan.results[r] = dict(spec)
        return plan.results

    def _evaluate_batch_cached(self, indices_2d: np.ndarray
                               ) -> list[dict[str, float]]:
        """Shared cache/counting front-end for batched evaluation.

        The distinct cache misses (see :meth:`_plan_batch` /
        :meth:`_finish_batch`) are computed by :meth:`_recover_batch`,
        whose supervision record is republished as
        :attr:`last_batch_report` in caller-batch coordinates.
        """
        cache = self._cache
        plan = self._plan_batch(indices_2d, cache)
        specs, fresh = (self._recover_batch(plan.fresh_values)
                        if plan.fresh_values else ([], None))
        results = self._finish_batch(plan, specs, cache)
        self._publish_report(plan, fresh, len(results))
        return results

    def _publish_report(self, plan: _BatchPlan, fresh: BatchReport | None,
                        n_designs: int) -> None:
        """Translate the fresh-path report into caller coordinates.

        ``fresh`` (from :meth:`_recover_batch`) is indexed by *fresh*
        row; the cache front-end may have deduped, so each fresh row is
        mapped back to the caller rows it served.  All-cache-hit batches
        (``fresh`` None) publish a clean report — nothing was at risk.
        """
        if fresh is None:
            self.last_batch_report = BatchReport(n_designs)
        else:
            self.last_batch_report = fresh.translate(
                dict(enumerate(plan.fresh_rows)), n_designs)

    def failure_measurements(self) -> dict[str, float]:
        """Pessimistic spec values charged to quarantined designs
        (delegates to :func:`repro.core.specs.failure_measurements`)."""
        return failure_measurements(self.spec_space)

    def reset_warm_start(self) -> None:
        """Drop any per-trajectory warm-start state (no-op by default;
        the engine-backed simulators forward to their topology so the
        RL environment can clear episode state between designs)."""

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct fresh values.

        Overridden by the simulators with a vectorised engine; the base
        simulator has none, so the batched path refuses rather than
        silently degrade."""
        raise TrainingError(
            f"{type(self).__name__} has no batched engine")

    def _recover_batch(self, values_list: list[dict[str, float]]
                       ) -> tuple[list[dict[str, float]], BatchReport]:
        """Compute distinct cache misses, quarantining faulting designs.

        Runs :meth:`_inprocess_batch`; an evaluation fault (a numerical
        crash escaping the solver's own fallbacks) bisects the batch
        until the offending design is isolated, which is then charged
        :meth:`failure_measurements` — healthy designs in the same batch
        are re-run in their sub-batches and keep normal results.
        Returns the specs and the batch's
        :class:`~repro.sim.faults.BatchReport` in fresh-row coordinates.
        """
        report = BatchReport(len(values_list))
        t0 = time.perf_counter()
        specs: list[dict[str, float] | None] = [None] * len(values_list)
        self._recover_into(values_list, 0, specs, report)
        report.latency[:] = time.perf_counter() - t0
        return specs, report

    def _recover_into(self, values_list, base: int, specs, report) -> None:
        """Recursive bisection helper of :meth:`_recover_batch`.

        Fills ``specs[base:base+len(values_list)]``; only evaluation
        faults and numerical crashes trigger bisection — configuration
        errors (bad topology parameters, missing engines) still raise.
        """
        rows = tuple(range(base, base + len(values_list)))
        try:
            out = self._inprocess_batch(values_list)
        except (EvaluationFault, np.linalg.LinAlgError,
                FloatingPointError) as exc:
            report.faults.append(FaultRecord(
                "solve-error", rows, int(report.attempts[base]) + 1,
                f"{type(exc).__name__}: {exc}"))
            report.attempts[list(rows)] += 1
            if len(values_list) == 1:
                specs[base] = self.failure_measurements()
                report.quarantined[base] = True
                report.faults.append(FaultRecord(
                    "quarantine", (base,), int(report.attempts[base]),
                    "design quarantined after in-process fault"))
                return
            mid = len(values_list) // 2
            report.retries += 1
            self._recover_into(values_list[:mid], base, specs, report)
            self._recover_into(values_list[mid:], base + mid, specs, report)
            return
        for i, spec in enumerate(out):
            specs[base + i] = spec
        report.attempts[list(rows)] += 1

    def reset_counter(self) -> None:
        """Zero the simulation counter (per-experiment accounting)."""
        self.counter.reset()


class SchematicSimulator(CircuitSimulator):
    """Schematic-level simulator: direct MNA evaluation of the topology.

    Parameters
    ----------
    topology:
        The circuit to size.
    cache:
        When True (default), memoise spec results by grid point.  Cache
        hits are counted separately from fresh solves so benchmarks can
        report either accounting policy.
    """

    def __init__(self, topology: Topology, cache: bool = True,
                 cache_size: int = 200_000):
        self.topology = topology
        self.parameter_space = topology.parameter_space
        self.spec_space = topology.spec_space
        self.counter = SimulationCounter()
        self._cache = SimulationCache(cache_size) if cache else None

    # The shared front-end, bound in this class's own namespace too: the
    # benchmark tracer (perfbench/tracing.py) wraps and restores
    # ``SchematicSimulator.evaluate`` as an attribute of this class.
    evaluate = CircuitSimulator.evaluate

    def _evaluate_fresh(self, indices: np.ndarray) -> dict[str, float]:
        """Solve one clipped sizing, warm-started along the sizing
        trajectory (see :meth:`Topology.simulate`)."""
        return self.topology.simulate(self.parameter_space.values(indices))

    def evaluate_batch(self, indices_2d: np.ndarray) -> list[dict[str, float]]:
        """Evaluate B sizings in one stacked solve (see
        :meth:`Topology.simulate_batch`), with faulting designs
        quarantined (see :meth:`CircuitSimulator._recover_batch`).
        """
        return self._evaluate_batch_cached(indices_2d)

    def _inprocess_batch(self, values_list: list[dict[str, float]]
                         ) -> list[dict[str, float]]:
        """Batched engine entry for distinct cache misses (stacked solve)."""
        return self.topology.simulate_batch(values_list)

    def reset_warm_start(self) -> None:
        """Forward to the topology: drop per-trajectory warm state."""
        self.topology.reset_warm_start()

    @property
    def cache_stats(self) -> dict[str, float]:
        """Hit/miss counters of the memo cache (zeros when caching is off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "hit_rate": 0.0}
        return {"hits": self._cache.hits, "misses": self._cache.misses,
                "hit_rate": self._cache.hit_rate}

