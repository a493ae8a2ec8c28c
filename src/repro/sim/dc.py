"""DC operating-point solver.

Newton-Raphson with per-iteration voltage damping, plus the two classic
SPICE fallbacks when plain Newton diverges:

* **gmin stepping** — solve with a large conductance to ground on every
  node, then relax it geometrically towards zero, warm-starting each stage;
* **source stepping** — ramp all independent sources from 0 to 100 %.

The result object, :class:`OperatingPoint`, carries node voltages, branch
currents and the linearised :class:`~repro.circuits.mosfet.MosfetState` of
every transistor, which the AC/noise/transient analyses consume.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.elements import VoltageSource
from repro.circuits.mosfet import MosfetState
from repro.errors import ConvergenceError
from repro.sim.system import MnaSystem

try:  # Low-overhead LAPACK handles (the Newton step solve is called ~2-4x
    # per evaluation; numpy's wrapper costs as much as the 15x15
    # factorisation).  getrf/getrs keep the LU factors around so the next
    # warm solve can take a chord (stale-Jacobian) first step.
    from scipy.linalg import get_lapack_funcs
    _DGETRF, _DGETRS = get_lapack_funcs(
        ("getrf", "getrs"), (np.empty((1, 1)), np.empty(1)))
except ImportError:  # pragma: no cover - scipy is present in the toolchain
    _DGETRF = _DGETRS = None


def _lu_factor(A):
    """LU-factor ``A`` (overwritten); None when singular.

    Accepts a dense array (LAPACK getrf), a scipy CSC matrix from the
    sparse engine (:func:`scipy.sparse.linalg.splu`), or an operator of
    the iterative engine (duck-typed via its ``newton_factor``
    attribute): a :class:`~repro.sim.condense.CondensedNewton` step or a
    :class:`~repro.sim.krylov.KrylovOperator`.  The Newton driver never
    needs to know which backend assembled its Jacobian.
    """
    newton_factor = getattr(A, "newton_factor", None)
    if newton_factor is not None:      # iterative engine
        factor = newton_factor()
        return ("iterative", factor) if factor is not None else None
    if not isinstance(A, np.ndarray):  # sparse engine: CSC + SuperLU
        try:
            from scipy.sparse.linalg import splu
            return ("sparse", splu(A))
        except RuntimeError:
            return None
    if _DGETRF is not None:
        lu, piv, info = _DGETRF(A, overwrite_a=True)
        return (lu, piv) if info == 0 else None
    try:  # numpy fallback: keep the dense inverse as the "factorisation".
        return (np.linalg.inv(A),)
    except np.linalg.LinAlgError:
        return None


def _lu_solve(lu, b: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`_lu_factor`."""
    if isinstance(lu[0], str):     # ("sparse", SuperLU)/("iterative", f)
        return lu[1].solve(b)
    if len(lu) == 2:
        x, _ = _DGETRS(lu[0], lu[1], b)
        return x
    return lu[0] @ b


@dataclasses.dataclass
class OperatingPoint:
    """Solved DC state of a circuit.

    Device states are evaluated once, vectorised over all MOSFETs
    (:meth:`MnaSystem.mosfet_state_arrays`); the per-device
    :class:`MosfetState` objects are materialised lazily since many
    measurement routines only consume the stacked arrays.
    """

    system: MnaSystem
    x: np.ndarray
    iterations: int
    residual_norm: float

    def __post_init__(self):
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
        if self._mosfet_states is None:
            self._mosfet_states = self.system.states_from_arrays(
                self.state_arrays)
        return self._mosfet_states

    @property
    def temperature(self) -> float:
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


#: Newton-step size [V] below which an iterate counts as *stagnated*:
#: quadratic convergence puts its error at ~step^2, i.e. the machine
#: floor, so further polishing cannot move the endpoint.
_POLISH_STAG = 1e-9

#: Extra full Newton iterations taken after the ``itol`` residual gate
#: passes (see :func:`_newton`).  One step from the ``vtol`` trust
#: region (error <= ~1e-6 V) lands at ~1e-12 V.
_POLISH_ITERS = 1


def _newton(system: MnaSystem, x0: np.ndarray, gmin: float, source_scale: float,
            max_iter: int, vtol: float, itol: float,
            damping: float) -> tuple[np.ndarray, int, float, bool]:
    """Damped Newton iteration; returns (x, iterations, |F|, converged).

    Convergence is decided by the KCL residual (``|F| < itol``); ``vtol``
    is the Newton-step size below which the residual test is worth
    running.  With quadratic convergence a small step means the iterate is
    already far more accurate than the step itself, so testing early (at
    millivolt-scale steps) routinely saves a whole assemble+solve
    iteration per warm evaluation without weakening the ``itol`` quality
    gate.

    Converged iterates are *polished* with up to :data:`_POLISH_ITERS`
    extra Newton steps (skipped once the step is below
    :data:`_POLISH_STAG`).  Polish pins the endpoint to the root at
    machine precision, which makes the solved operating point a function
    of the circuit alone: solves seeded from the sizing trajectory, from
    the canonical grid-centre operating point and from zeros return the
    same specs to <= 1e-9.  Polish can only tighten an already-converged
    iterate; it never un-converges one.
    """
    x = x0.copy()
    polish = -1          # -1: still converging; >= 0: polish steps left
    fnorm = np.inf
    for iteration in range(1, max_iter + 1):
        A, rhs = system.newton_matrices(x, gmin=gmin, source_scale=source_scale)
        lu = _lu_factor(A)
        if lu is None:
            if polish >= 0:
                return x, iteration, fnorm, True
            return x, iteration, np.inf, False
        x_new = _lu_solve(lu, rhs)
        dx = np.subtract(x_new, x, out=x_new)
        step = np.max(np.abs(dx)) if dx.size else 0.0
        if step > damping:
            dx *= damping / step
        np.add(x, dx, out=x)
        if polish >= 0:
            polish -= 1
            if polish < 0 or step < _POLISH_STAG:
                return x, iteration, fnorm, True
            continue
        if step < vtol:
            f = system.residual(x, source_scale=source_scale)
            if gmin > 0.0:
                f[:system.n_nodes] += gmin * x[:system.n_nodes]
            fnorm = float(np.max(np.abs(f))) if f.size else 0.0
            if fnorm < itol:
                if _POLISH_ITERS <= 0 or step < _POLISH_STAG:
                    return x, iteration, fnorm, True
                polish = _POLISH_ITERS
    if polish >= 0:
        return x, max_iter, fnorm, True
    f = system.residual(x, source_scale=source_scale)
    return x, max_iter, float(np.max(np.abs(f))), False


def solve_dc(system: MnaSystem, x0: np.ndarray | None = None, *,
             max_iter: int = 120, vtol: float = 1e-3, itol: float = 1e-9,
             damping: float = 0.4) -> OperatingPoint:
    """Find the DC operating point of ``system``.

    Parameters
    ----------
    x0:
        Optional initial solution vector (warm start).  Sizing trajectories
        change one grid step at a time, so warm-starting from the previous
        design's operating point typically converges in a few iterations.
    vtol:
        Newton step size [V] below which convergence is *tested*; the
        test itself is the KCL residual bound ``itol`` (1 nA), which is
        the physical solution-quality criterion.  Quadratic convergence
        means an iterate reached by a millivolt step already has a
        sub-microvolt error, so an early test saves one assemble+solve
        per warm evaluation (SPICE's vntol plays the same role).
    damping:
        Maximum per-iteration change of any unknown [V or A].

    Raises
    ------
    ConvergenceError
        If Newton, gmin stepping and source stepping all fail.
    """
    if x0 is None:
        x0 = np.zeros(system.size)
    elif x0.shape != (system.size,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({system.size},)")

    # Plain (damped) Newton from the provided starting point.
    x, iters, fnorm, ok = _newton(system, x0, 0.0, 1.0, max_iter, vtol, itol, damping)
    if ok:
        return OperatingPoint(system, x, iters, fnorm)

    # gmin stepping.
    x = x0.copy()
    total_iters = iters
    converged_chain = True
    for gmin in (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0):
        x, iters, fnorm, ok = _newton(system, x, gmin, 1.0,
                                      max_iter, vtol, itol, damping)
        total_iters += iters
        if not ok:
            converged_chain = False
            break
    if converged_chain and ok:
        return OperatingPoint(system, x, total_iters, fnorm)

    # Source stepping.
    x = np.zeros(system.size)
    for scale in (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        x, iters, fnorm, ok = _newton(system, x, 0.0, scale,
                                      max_iter, vtol, itol, damping)
        total_iters += iters
        if not ok:
            raise ConvergenceError(
                f"DC operating point of {system.netlist.title!r} did not "
                f"converge (source stepping stalled at {scale:.0%}, "
                f"|F| = {fnorm:.3e})", residual=fnorm)
    return OperatingPoint(system, x, total_iters, fnorm)
