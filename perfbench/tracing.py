"""Span tracing around the program's layer boundaries.

The traced run wraps public callables of each ``repro`` layer (the table
in :func:`boundaries`) and records one span per call: id, parent id, name,
start and end.  Spans stay in memory; the run prints the per-layer table
when it ends.  A span's *self* time is its duration minus the time its
child spans cover, so the self times of all spans plus the time outside
any span (``unattributed_s``) add up to the traced wall-clock.

From-imports bind a function in the importing module, so module-level
functions are wrapped at each caller's binding (e.g. ``solve_dc`` in
``repro.topologies.base`` and in ``repro.pex.extraction``).  A boundary
the program no longer has is skipped and listed in :attr:`Tracer.missing`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: (id, parent id or -1, name, start, end) in closing order.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: collections.Counter = collections.Counter()
        #: Duration of the outermost span of each name (a span nested in
        #: one of the same name is not counted twice).
        self.total_s: dict[str, float] = collections.defaultdict(float)
        self.self_s: dict[str, float] = collections.defaultdict(float)
        #: Work counts recorded at the boundaries (rows, iterations, ...).
        self.counts: dict[str, float] = collections.defaultdict(float)
        self.top_s = 0.0
        self.missing: list[str] = []
        self._open: list[list] = []
        self._depth: collections.Counter = collections.Counter()
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [self._next_id, name, 0.0, 0.0]
        self._next_id += 1
        self._depth[name] += 1
        self._open.append(frame)
        frame[3] = self.clock()
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        span_id, name, child_s, start = frame
        if self._open.pop() is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = end - start
        parent = self._open[-1] if self._open else None
        if parent is None:
            self.top_s += duration
        else:
            parent[2] += duration
        self.self_s[name] += duration - child_s
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.calls[name] += 1
            self.total_s[name] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name,
                           start, end))

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    # -- wrapping -------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             failed=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``before(args)`` returns a token handed to ``after(tracer, result,
        args, token)``, which runs once the span is closed; ``failed(tracer,
        exc)`` sees an exception before it propagates.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame)
                if failed is not None:
                    failed(tracer, exc)
                raise
            tracer.exit(frame)
            if after is not None:
                after(tracer, result, args, token)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr),
                              attr in vars(owner)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, saved, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ------------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """name -> calls, total_s, self_s for every span name seen."""
        return {name: {"calls": self.calls[name],
                       "total_s": self.total_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.self_s)}

    def unattributed_s(self, wall_s: float) -> float:
        """Traced wall-clock not covered by any top-level span."""
        return wall_s - self.top_s


# -- boundary table ---------------------------------------------------------------
def _rows_of_first_arg(key):
    def after(tracer, result, args, token):
        tracer.add(key, len(args[1]))
    return after


def _newton_after(tracer, op, args, token):
    tracer.add("sim.newton.iterations", op.iterations)


def _newton_failed(tracer, exc):
    from repro.errors import ConvergenceError

    if isinstance(exc, ConvergenceError):
        tracer.add("sim.newton.failures")


def _newton_batch_after(tracer, result, args, token):
    tracer.add("sim.newton_batch.rows", len(result.converged))
    tracer.add("sim.newton_batch.iterations", int(result.iterations.sum()))
    tracer.add("sim.newton_batch.nonconverged",
               int((~result.converged).sum()))


def _plan_rows(tracer, result, args, token):
    tracer.add("measure.plan.rows", args[1].m)


def _fresh_scalar(tracer, specs, args, token):
    tracer.add("sim.fresh")
    if specs == args[0].failure_measurement():
        tracer.add("sim.fresh_failed")


def _fresh_batch(tracer, specs, args, token):
    failure = args[0].failure_measurement()
    tracer.add("sim.fresh", len(specs))
    tracer.add("sim.fresh_failed", sum(1 for s in specs if s == failure))


def _fresh_counter(args):
    return args[0].counter.fresh


def _pex_fresh(tracer, specs, args, token):
    simulator = args[0]
    if simulator.counter.fresh > token:
        tracer.add("sim.fresh")
        if specs == simulator.failure_measurements():
            tracer.add("sim.fresh_failed")


PRIMITIVES = ("DcGain", "UnityGainBandwidth", "PhaseMargin", "Bandwidth3dB",
              "SupplyCurrent", "StepSettling", "OutputNoiseRms")


def boundaries() -> list[tuple]:
    """``(module, attribute path, span name, hooks)`` for every boundary."""
    table = [
        ("repro.core.env", "SizingEnv.finish_step", "core.env_step", {}),
        ("repro.core.env", "compute_reward", "core.reward", {}),
        ("repro.baselines.genetic", "compute_reward", "core.reward", {}),
        ("repro.rl.policy", "ActorCritic.act", "rl.act", {}),
        ("repro.rl.policy", "ActorCritic.act_single", "rl.act", {}),
        ("repro.rl.ppo", "PPOTrainer.update", "rl.update", {}),
        ("repro.rl.ppo", "PPOTrainer.collect_rollout", "rl.rollout", {}),
        ("repro.topologies.base", "SchematicSimulator.evaluate",
         "topologies.evaluate", {}),
        ("repro.topologies.base", "SchematicSimulator.evaluate_batch",
         "topologies.evaluate_batch",
         {"after": _rows_of_first_arg("topologies.evaluate_batch.rows")}),
        ("repro.pex.extraction", "PexSimulator.evaluate_batch",
         "topologies.evaluate_batch",
         {"after": _rows_of_first_arg("topologies.evaluate_batch.rows")}),
        ("repro.topologies.base", "Topology.simulate", "topologies.simulate",
         {"after": _fresh_scalar}),
        ("repro.topologies.base", "Topology.simulate_batch",
         "topologies.simulate_batch", {"after": _fresh_batch}),
        ("repro.sim.stamp", "StampPlan.restamp", "sim.restamp", {}),
        ("repro.sim.stamp", "StampPlan.stack", "sim.stack",
         {"after": _rows_of_first_arg("sim.stack.rows")}),
        ("repro.measure.pipeline", "MeasurementPlan.evaluate",
         "measure.plan", {"after": _plan_rows}),
        ("repro.measure.pipeline", "MeasureContext.small_signal",
         "measure.small_signal", {}),
        ("repro.measure.pipeline", "MeasureContext.node_response",
         "measure.ac", {}),
        ("repro.measure.pipeline", "MeasureContext.sweep_factors",
         "measure.ac", {}),
        ("repro.measure.pipeline", "MeasureContext.noise_rms",
         "measure.noise", {}),
        ("repro.pex.extraction", "PexSimulator.evaluate", "pex.evaluate",
         {"before": _fresh_counter, "after": _pex_fresh}),
        ("repro.pex.extraction", "ParasiticExtractor.extract",
         "pex.extract", {}),
        ("repro.baselines.genetic", "GeneticOptimizer.solve",
         "baselines.ga", {}),
    ]
    for module in ("repro.topologies.base", "repro.pex.extraction"):
        table.append((module, "solve_dc", "sim.newton",
                      {"after": _newton_after, "failed": _newton_failed}))
        table.append((module, "solve_dc_batch", "sim.newton_batch",
                      {"after": _newton_batch_after}))
    for primitive in PRIMITIVES:
        table.append(("repro.measure.pipeline", f"{primitive}.extract",
                      f"measure.primitive.{primitive}", {}))
    return table


def install(tracer: Tracer) -> None:
    """Wrap every boundary of :func:`boundaries` with ``tracer``."""
    for module_name, path, name, hooks in boundaries():
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        if owner is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        tracer.wrap(owner, attr, name, **hooks)


# -- per-layer metrics ------------------------------------------------------------
#: (metric, unit, how) — ``how`` is ("calls"|"total"|"self", span name),
#: ("count", counter key) or ("derived", None).
PER_LAYER = [
    ("core.env_step.calls", "count", ("calls", "core.env_step")),
    ("core.env_step.self_s", "s", ("self", "core.env_step")),
    ("core.reward.calls", "count", ("calls", "core.reward")),
    ("core.reward.s", "s", ("total", "core.reward")),
    ("rl.act.calls", "count", ("calls", "rl.act")),
    ("rl.act.s", "s", ("total", "rl.act")),
    ("rl.update.s", "s", ("total", "rl.update")),
    ("rl.rollout.self_s", "s", ("self", "rl.rollout")),
    ("topologies.evaluate.calls", "count", ("calls", "topologies.evaluate")),
    ("topologies.evaluate.self_s", "s", ("self", "topologies.evaluate")),
    ("topologies.evaluate_batch.calls", "count",
     ("calls", "topologies.evaluate_batch")),
    ("topologies.evaluate_batch.rows", "count",
     ("count", "topologies.evaluate_batch.rows")),
    ("topologies.evaluate_batch.self_s", "s",
     ("self", "topologies.evaluate_batch")),
    ("topologies.memo_hit_frac", "ratio", ("derived", None)),
    ("topologies.simulate.s", "s", ("total", "topologies.simulate")),
    ("topologies.simulate_batch.s", "s",
     ("total", "topologies.simulate_batch")),
    ("sim.restamp.calls", "count", ("calls", "sim.restamp")),
    ("sim.restamp.s", "s", ("total", "sim.restamp")),
    ("sim.stack.calls", "count", ("calls", "sim.stack")),
    ("sim.stack.rows", "count", ("count", "sim.stack.rows")),
    ("sim.stack.s", "s", ("total", "sim.stack")),
    ("sim.newton.calls", "count", ("calls", "sim.newton")),
    ("sim.newton.s", "s", ("total", "sim.newton")),
    ("sim.newton.iterations", "count", ("count", "sim.newton.iterations")),
    ("sim.newton.failures", "count", ("count", "sim.newton.failures")),
    ("sim.newton_batch.calls", "count", ("calls", "sim.newton_batch")),
    ("sim.newton_batch.rows", "count", ("count", "sim.newton_batch.rows")),
    ("sim.newton_batch.s", "s", ("total", "sim.newton_batch")),
    ("sim.newton_batch.iterations", "count",
     ("count", "sim.newton_batch.iterations")),
    ("sim.newton_batch.nonconverged", "count",
     ("count", "sim.newton_batch.nonconverged")),
    ("sim_fail_frac", "ratio", ("derived", None)),
    ("measure.plan.calls", "count", ("calls", "measure.plan")),
    ("measure.plan.rows", "count", ("count", "measure.plan.rows")),
    ("measure.plan.self_s", "s", ("self", "measure.plan")),
    ("measure.small_signal.s", "s", ("total", "measure.small_signal")),
    ("measure.ac.s", "s", ("total", "measure.ac")),
    ("measure.noise.s", "s", ("total", "measure.noise")),
    *[(f"measure.primitive.{p}.s", "s",
       ("total", f"measure.primitive.{p}")) for p in PRIMITIVES],
    ("pex.evaluate.calls", "count", ("calls", "pex.evaluate")),
    ("pex.evaluate.self_s", "s", ("self", "pex.evaluate")),
    ("pex.extract.calls", "count", ("calls", "pex.extract")),
    ("baselines.ga.calls", "count", ("calls", "baselines.ga")),
    ("baselines.ga.self_s", "s", ("self", "baselines.ga")),
    ("unattributed_s", "s", ("derived", None)),
    ("trace_overhead_frac", "ratio", ("derived", None)),
]

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {"topologies.memo_hit_frac"}


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float, sims: int,
                  cached: int) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``name -> (value, unit)``."""
    fresh = tracer.counts["sim.fresh"]
    derived = {
        "topologies.memo_hit_frac": cached / sims if sims else 0.0,
        "sim_fail_frac": (tracer.counts["sim.fresh_failed"] / fresh
                          if fresh else 0.0),
        "unattributed_s": tracer.unattributed_s(traced_wall_s),
        "trace_overhead_frac": (traced_wall_s - untraced_wall_s)
        / untraced_wall_s,
    }
    sources = {"calls": tracer.calls, "total": tracer.total_s,
               "self": tracer.self_s, "count": tracer.counts}
    out = {}
    for metric, unit, (how, key) in PER_LAYER:
        value = derived[metric] if how == "derived" else sources[how][key]
        out[metric] = (float(value), unit)
    return out
