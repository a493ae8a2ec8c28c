"""DC operating-point solver: the one Newton policy of the package.

Every DC solve — scalar :func:`solve_dc`, dense stacked
:func:`~repro.sim.batch.solve_dc_batch` and sparse stacks, one
:class:`~repro.sim.sparse.SparseSlice` per design — runs the same
continuation ladder (:func:`_ladder`) over a *row-set Newton stage*:

1. damped Newton from the seed;
2. for the rows that fail, **gmin stepping** from the seed — a large
   conductance to ground on every node, relaxed along
   :data:`_GMIN_STEPS` with each rung warm-starting the next;
3. for the rows still failing, **source stepping** from zero — every
   independent source ramped along :data:`_SOURCE_STEPS`.

The stage is :func:`_newton` row by row (scalar and sparse solves) or
the stacked :func:`~repro.sim.batch._newton_batch` (dense stacks); both
read the same Newton settings, the module constants :data:`_MAX_ITER`,
:data:`_VTOL`, :data:`_ITOL` and :data:`_DAMPING`, at call time.

The result object, :class:`OperatingPoint`, carries node voltages, branch
currents and the linearised :class:`~repro.circuits.mosfet.MosfetState` of
every transistor, which the AC/noise/transient analyses consume.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from repro.circuits.elements import VoltageSource
from repro.circuits.mosfet import MosfetState
from repro.errors import ConvergenceError
from repro.sim.system import MnaSystem

# Low-overhead LAPACK handles: the Newton step solve is called ~2-4x per
# evaluation, and numpy's wrapper costs as much as the 15x15
# factorisation.
_DGETRF, _DGETRS = get_lapack_funcs(
    ("getrf", "getrs"), (np.empty((1, 1)), np.empty(1)))

#: Newton iterations per ladder rung.
_MAX_ITER = 120

#: Newton-step size [V] below which convergence is *tested*.  The test
#: itself is the KCL residual bound :data:`_ITOL`; quadratic convergence
#: means an iterate reached by a millivolt step already has a
#: sub-microvolt error, so an early test saves one assemble+solve per
#: warm evaluation (SPICE's vntol plays the same role).
_VTOL = 1e-3

#: KCL residual bound [A] (1 nA): the physical solution-quality gate.
_ITOL = 1e-9

#: Maximum per-iteration change of any unknown [V or A].
_DAMPING = 0.4

#: gmin-stepping schedule [S], from the seed.
_GMIN_STEPS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0)

#: Source-stepping schedule (fraction of every independent source),
#: from zero.
_SOURCE_STEPS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Newton-step size [V] below which an iterate counts as *stagnated*:
#: quadratic convergence puts its error at ~step^2, i.e. the machine
#: floor, so further polishing cannot move the endpoint.
_POLISH_STAG = 1e-9

#: Extra full Newton iterations taken after the :data:`_ITOL` residual
#: gate passes (see :func:`_newton`).  One step from the :data:`_VTOL`
#: trust region (error <= ~1e-6 V) lands at ~1e-12 V.
_POLISH_ITERS = 1


def _lu_factor(A):
    """LU-factor ``A`` (overwritten); None when singular.

    Accepts a dense array (LAPACK getrf), a scipy CSC matrix from the
    sparse leg (:func:`scipy.sparse.linalg.splu`), or the sparse leg's
    condensed step, a :class:`~repro.sim.condense.CondensedNewton`
    (duck-typed via its ``newton_factor`` attribute).  The Newton driver
    never needs to know which backend assembled its Jacobian.
    """
    newton_factor = getattr(A, "newton_factor", None)
    if newton_factor is not None:      # condensed step
        factor = newton_factor()
        return ("condensed", factor) if factor is not None else None
    if not isinstance(A, np.ndarray):  # sparse leg: CSC + SuperLU
        try:
            return ("sparse", splu(A))
        except RuntimeError:
            return None
    lu, piv, info = _DGETRF(A, overwrite_a=True)
    return (lu, piv) if info == 0 else None


def _lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`_lu_factor`."""
    if isinstance(lu[0], str):     # ("sparse", SuperLU)/("condensed", f)
        return lu[1].solve(b)
    x, _ = _DGETRS(lu[0], lu[1], b)
    return x


@dataclasses.dataclass
class OperatingPoint:
    """Solved DC state of a circuit.

    Device states are evaluated once, vectorised over all MOSFETs
    (:meth:`MnaSystem.mosfet_state_arrays`); the per-device
    :class:`MosfetState` objects are materialised lazily since many
    measurement routines only consume the stacked arrays.

    ``residual_norm`` is the KCL residual ‖F‖∞ [A] at the convergence
    test, an upper bound on the returned point's residual: the polish
    step after the test usually takes it orders of magnitude lower (the
    cold solve of ``FiveTransistorOta`` ``[94, 27, 66, 47]`` reports
    6.4e-10 A for an ``x`` whose residual is ~1e-19 A).  It is not
    recomputed at ``x``, which would cost every solve a residual pass.
    """

    system: MnaSystem
    x: np.ndarray
    iterations: int
    residual_norm: float

    def __post_init__(self):
        """Anchor lazy device-state evaluation on the solved design."""
        # The system may be restamped to another sizing later (StampPlan
        # reuses one MnaSystem), so snapshot its device constants now: a
        # system's packed DeviceArrays bank is replaced — never mutated —
        # on restamp, which makes the reference a valid lazy-evaluation
        # anchor.  (A SystemStack's bank is refilled in place, so never
        # anchor on one of its views.)
        self._dev = self.system.device_arrays
        self._state_arrays: dict[str, np.ndarray] | None = None
        self._mosfet_states: dict[str, MosfetState] | None = None

    @property
    def state_arrays(self) -> dict[str, np.ndarray]:
        """All device-state fields as stacked arrays (lazily evaluated)."""
        if self._state_arrays is None:
            self._state_arrays = self.system.state_arrays_for(
                self._dev, self.x)
        return self._state_arrays

    def _states(self) -> dict[str, MosfetState]:
        """Per-device :class:`MosfetState` objects (materialised once)."""
        if self._mosfet_states is None:
            self._mosfet_states = self.system.states_from_arrays(
                self.state_arrays)
        return self._mosfet_states

    @property
    def temperature(self) -> float:
        """Simulation temperature [K] of the solved system."""
        return self.system.temperature

    def voltage(self, node: str) -> float:
        """DC voltage of ``node`` (ground returns 0)."""
        i = self.system.node_index[node]
        return 0.0 if i < 0 else float(self.x[i])

    def branch_current(self, element_name: str) -> float:
        """Current through a voltage-defined element (V source, VCVS, L)."""
        return float(self.x[self.system.branch_index[element_name]])

    def mosfet_state(self, name: str) -> MosfetState:
        """Small-signal state of the named MOSFET at this operating point."""
        return self._states()[name]

    @property
    def mosfet_states(self) -> dict[str, MosfetState]:
        """Name -> :class:`MosfetState` of every MOSFET (a fresh dict)."""
        return dict(self._states())

    def supply_current(self, source_name: str | None = None) -> float:
        """Magnitude of the DC current delivered by ``source_name`` (or by
        the first voltage source in the netlist when omitted).  This is the
        paper's "bias current" (power proxy) measurement."""
        if source_name is None:
            sources = self.system.netlist.elements_of(VoltageSource)
            if not sources:
                raise ConvergenceError("no voltage source to measure supply current")
            source_name = sources[0].name
        return abs(self.branch_current(source_name))

    def saturation_margins(self) -> dict[str, float]:
        """Per-MOSFET ``vds - vov`` margin [V]; positive means saturated."""
        return {name: st.vds - st.vov_eff
                for name, st in self._states().items()}


def _newton(system: MnaSystem, x0: np.ndarray, gmin: float,
            source_scale: float) -> tuple[np.ndarray, int, float, bool]:
    """Damped Newton iteration; returns (x, iterations, |F|, converged).

    ``|F|`` is ‖F‖∞ at the convergence test, an upper bound on the
    residual of the returned (polished) ``x``; a solve that does not
    converge reports the residual of the returned ``x`` itself (inf when
    its Jacobian went singular).

    Convergence is decided by the KCL residual (``|F| < _ITOL``);
    :data:`_VTOL` is the Newton-step size below which the residual test
    is worth running.  With quadratic convergence a small step means the
    iterate is already far more accurate than the step itself, so testing
    early (at millivolt-scale steps) routinely saves a whole
    assemble+solve iteration per warm evaluation without weakening the
    residual gate.

    Converged iterates are *polished* with up to :data:`_POLISH_ITERS`
    extra Newton steps (skipped once the step is below
    :data:`_POLISH_STAG`).  Polish pins the endpoint to the root at
    machine precision, which makes the solved operating point a function
    of the circuit alone: solves seeded from the sizing trajectory, from
    the canonical grid-centre operating point and from zeros return the
    same specs to <= 1e-9.  Polish can only tighten an already-converged
    iterate; it never un-converges one.  :data:`_MAX_ITER` bounds the
    converging iterations only: an iterate that passes the gate on the
    last of them is still polished.

    ``system`` is an :class:`MnaSystem` or a
    :class:`~repro.sim.sparse.SparseSlice`, which assembles through its
    template system's code.
    """
    x = x0.copy()
    polish = -1          # -1: still converging; >= 0: polish steps left
    fnorm = np.inf
    iteration = 0
    while iteration < _MAX_ITER or polish >= 0:
        iteration += 1
        A, rhs = system.newton_matrices(x, gmin=gmin, source_scale=source_scale)
        lu = _lu_factor(A)
        if lu is None:
            if polish >= 0:
                return x, iteration, fnorm, True
            return x, iteration, np.inf, False
        x_new = _lu_solve(lu, rhs)
        dx = np.subtract(x_new, x, out=x_new)
        step = np.max(np.abs(dx)) if dx.size else 0.0
        if step > _DAMPING:
            dx *= _DAMPING / step
        np.add(x, dx, out=x)
        if polish >= 0:
            polish -= 1
            if polish < 0 or step < _POLISH_STAG:
                return x, iteration, fnorm, True
            continue
        if step < _VTOL:
            f = system.residual(x, source_scale=source_scale)
            if gmin > 0.0:
                f[:system.n_nodes] += gmin * x[:system.n_nodes]
            fnorm = float(np.max(np.abs(f))) if f.size else 0.0
            if fnorm < _ITOL:
                if _POLISH_ITERS <= 0 or step < _POLISH_STAG:
                    return x, iteration, fnorm, True
                polish = _POLISH_ITERS
    f = system.residual(x, source_scale=source_scale)
    return x, _MAX_ITER, float(np.max(np.abs(f))), False


def _row_stage(systems, X: np.ndarray):
    """Row-set Newton stage of :func:`_ladder` that runs :func:`_newton`
    row by row: row ``r`` of ``X`` is the iterate of ``systems[r]``."""
    def stage(rows: np.ndarray, gmin: float, source_scale: float):
        ok = np.zeros(len(rows), dtype=bool)
        iterations = np.zeros(len(rows), dtype=np.int64)
        fnorm = np.empty(len(rows))
        for j, r in enumerate(rows):
            X[r], iterations[j], fnorm[j], ok[j] = _newton(
                systems[r], X[r], gmin, source_scale)
        return ok, iterations, fnorm
    return stage


def _ladder(stage, X: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the continuation ladder over every row of ``X`` (in place).

    ``stage(rows, gmin, source_scale)`` runs Newton on rows ``rows`` of
    ``X`` from their current values, writes the iterates back and returns
    ``(converged, iterations, |F|)`` aligned with ``rows``.  Every row
    first gets plain Newton from its seed; the failures restart from
    their seeds through the :data:`_GMIN_STEPS` chain (a row leaves the
    chain at its first non-converged rung), and whatever is left restarts
    from zero through :data:`_SOURCE_STEPS`.  Returns per-row
    ``(converged, total iterations, |F|)``, ``|F|`` as its last stage
    reported it (see :func:`_newton`).
    """
    x_start = X.copy()
    rows = np.arange(len(X))
    converged, iterations, fnorm = stage(rows, 0.0, 1.0)
    if converged.all():
        return converged, iterations, fnorm
    for seed, rungs in ((x_start, [(gmin, 1.0) for gmin in _GMIN_STEPS]),
                        (np.zeros_like(X),
                         [(0.0, scale) for scale in _SOURCE_STEPS])):
        survivors = rows[~converged]
        if not len(survivors):
            break
        X[survivors] = seed[survivors]
        for gmin, source_scale in rungs:
            if not len(survivors):
                break
            ok, iters, fn = stage(survivors, gmin, source_scale)
            iterations[survivors] += iters
            fnorm[survivors] = fn
            survivors = survivors[ok]
        converged[survivors] = True
    return converged, iterations, fnorm


def solve_dc(system: MnaSystem, x0: np.ndarray | None = None) -> OperatingPoint:
    """Find the DC operating point of ``system``.

    Runs the continuation ladder (see the module docstring) on one row.

    Parameters
    ----------
    x0:
        Optional initial solution vector (warm start).  Sizing trajectories
        change one grid step at a time, so warm-starting from the previous
        design's operating point typically converges in a few iterations.

    Raises
    ------
    ConvergenceError
        If Newton, gmin stepping and source stepping all fail.
    """
    if x0 is None:
        X = np.zeros((1, system.size))
    elif x0.shape != (system.size,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({system.size},)")
    else:
        X = np.array(x0, dtype=float)[None, :]
    converged, iterations, fnorm = _ladder(_row_stage([system], X), X)
    if not converged[0]:
        raise ConvergenceError(
            f"DC operating point of {system.netlist.title!r} did not "
            f"converge (Newton, gmin and source stepping all failed, "
            f"|F| = {fnorm[0]:.3e})", residual=float(fnorm[0]))
    return OperatingPoint(system, X[0], int(iterations[0]), float(fnorm[0]))
