"""Nonlinear transient analysis (trapezoidal integration + Newton).

The large-signal counterpart of :mod:`repro.sim.linear`: each time step
solves the nonlinear system

    ``C (x_{k+1} - x_k) = (h/2) (f(x_{k+1}, t_{k+1}) + f(x_k, t_k))``

with ``f(x, t) = b(t) - G x - i_nl(x)`` by damped Newton iteration,
warm-started from the previous step.  Time-varying stimuli are supplied as
``waveforms={"V1": fn(t) -> value}`` overriding the DC value of the named
source during the run (the classic PWL/pulse testbench pattern).

Two engines share the per-step algebra:

* :func:`transient_analysis` — one design.  Device evaluation and stamp
  assembly are vectorised over the netlist's MOSFETs (the same scatter
  maps the DC Newton loop uses); the source vector is built once per step
  and handed forward as the next step's ``b_prev``; the device capacitance
  matrix is refreshed only when the state has moved far enough to change
  the operating region (:data:`C_REFRESH_V`).
* :func:`transient_analysis_batch` — B stacked designs
  (:class:`~repro.sim.batch.SystemStack`) integrate in lockstep: one
  stacked companion evaluation and one batched linear solve per Newton
  iteration, with per-design convergence masking so finished designs drop
  out of the linear algebra within each time step.  Both engines run the
  identical per-step update, so their waveforms agree to accumulated
  rounding (~1e-12) when started from the same state.

Used by the examples and the verification tests (e.g. checking that the
small-signal settling measurement agrees with a true large-signal step for
small steps); the RL hot loop uses the cheaper linearised analyses.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.circuits.elements import CurrentSource, VoltageSource
from repro.circuits.mosfet import eval_companion_batch, eval_ids_batch
from repro.errors import AnalysisError, ConvergenceError
from repro.sim.batch import SystemStack, _solve_active, solve_dc_batch
from repro.sim.dc import solve_dc
from repro.sim.system import MnaSystem

Waveform = Callable[[float], float]

#: State movement [V] beyond which the device capacitance matrix is
#: refreshed.  Between refreshes the operating region is assumed
#: unchanged — the same order of approximation as freezing C within a
#: step, which the trapezoidal companion already does.
C_REFRESH_V = 1e-3


def step_waveform(before: float, after: float, t_step: float = 0.0) -> Waveform:
    """A step stimulus: ``before`` for t < t_step, ``after`` afterwards."""

    def wave(t: float) -> float:
        return before if t < t_step else after

    return wave


def pulse_waveform(low: float, high: float, delay: float, rise: float,
                   width: float, fall: float | None = None) -> Waveform:
    """SPICE-style trapezoidal pulse."""
    fall = rise if fall is None else fall

    def wave(t: float) -> float:
        t = t - delay
        if t < 0.0:
            return low
        if t < rise:
            return low + (high - low) * t / rise
        t -= rise
        if t < width:
            return high
        t -= width
        if t < fall:
            return high - (high - low) * t / fall
        return low

    return wave


@dataclasses.dataclass
class TransientResult:
    """Waveforms from a transient run."""

    system: MnaSystem
    time: np.ndarray       # (T,)
    solutions: np.ndarray  # (T, size)

    def voltage(self, node: str) -> np.ndarray:
        """Node-voltage waveform over the simulated interval."""
        i = self.system.node_index[node]
        if i < 0:
            return np.zeros(len(self.time))
        return self.solutions[:, i]

    def branch_current(self, element_name: str) -> np.ndarray:
        """Branch-current waveform of a voltage-defined element."""
        return self.solutions[:, self.system.branch_index[element_name]]


def _check_waveforms(system: MnaSystem,
                     waveforms: dict[str, Waveform]) -> None:
    for name in waveforms:
        if name not in system.netlist:
            raise AnalysisError(f"waveform refers to unknown element {name!r}")
        element = system.netlist[name]
        if not isinstance(element, (VoltageSource, CurrentSource)):
            raise AnalysisError(
                f"waveform target {name!r} is not an independent source")


def _source_delta(system: MnaSystem, waveforms: dict[str, Waveform],
                  t: float) -> np.ndarray:
    """Deviation of the excitation vector from ``b_dc`` at time ``t``.

    ``b(t) = b_dc + delta(t)``; the delta depends only on the waveform
    targets' *structure* (branch/node indices) and their DC values, so one
    delta serves every slice of a stacked run whose waveform sources share
    the same DC value (the standard shared-testbench case).
    """
    delta = np.zeros(system.size)
    for name, wave in waveforms.items():
        element = system.netlist[name]
        value = wave(t)
        if isinstance(element, VoltageSource):
            delta[system.branch_index[name]] += value - element.dc
        else:  # CurrentSource (validated in _check_waveforms)
            i = system.node_index[element.p]
            j = system.node_index[element.n]
            dv = value - element.dc
            if i >= 0:
                delta[i] -= dv
            if j >= 0:
                delta[j] += dv
    return delta


def _source_vector(system: MnaSystem, waveforms: dict[str, Waveform],
                   t: float) -> np.ndarray:
    """DC excitation vector with waveform overrides applied at time ``t``."""
    return system.b_dc + _source_delta(system, waveforms, t)


def transient_analysis(system: MnaSystem, *, t_stop: float, dt: float,
                       waveforms: dict[str, Waveform] | None = None,
                       x0: np.ndarray | None = None,
                       max_newton: int = 50, vtol: float = 1e-8) -> TransientResult:
    """Integrate the full nonlinear circuit equations over ``[0, t_stop]``.

    Parameters
    ----------
    t_stop, dt:
        Stop time and fixed step size [s].
    waveforms:
        Optional time functions per independent source name.
    x0:
        Initial state; when omitted, the DC operating point at t=0 (with
        waveform overrides applied) is used — the standard SPICE behaviour.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise AnalysisError(f"bad transient window t_stop={t_stop}, dt={dt}")
    waveforms = waveforms or {}
    _check_waveforms(system, waveforms)

    if x0 is None:
        op0 = solve_dc(system)
        x = op0.x.copy()
        # Re-solve with t=0 waveform values if they differ from the DC values.
        if waveforms:
            b0 = _source_vector(system, waveforms, 0.0)
            if not np.allclose(b0, system.b_dc):
                x = _solve_static(system, b0, x, max_newton, vtol)
    else:
        x = np.asarray(x0, dtype=float).copy()

    n_steps = int(np.ceil(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, system.size))
    states[0] = x

    if getattr(system, "sparse", False):
        return _transient_sparse(system, times, states, x, waveforms,
                                 max_newton, vtol, dt)

    G = system.G
    h2 = dt / 2.0
    C = system.capacitance_matrix_at(x)
    x_cap = x.copy()                     # state C was last evaluated at
    b_prev = _source_vector(system, waveforms, times[0])
    for k in range(1, n_steps + 1):
        # Device capacitances depend on the operating region; refresh the
        # C matrix only once the state has actually moved.
        if system.mosfets and np.max(np.abs(x - x_cap)) > C_REFRESH_V:
            C = system.capacitance_matrix_at(x)
            x_cap = x.copy()
        t_now = times[k]
        b_now = _source_vector(system, waveforms, t_now)
        f_prev = b_prev - G @ x - system.nonlinear_current(x)
        # Newton on F(v) = C (v - x) - h/2 (b_now - G v - i_nl(v)) - h/2 f_prev
        v = x.copy()
        converged = False
        step = np.inf
        for _ in range(max_newton):
            i_nl, J_nl = system.nonlinear_current_and_jacobian(v)
            F = C @ (v - x) - h2 * (b_now - G @ v - i_nl) - h2 * f_prev
            J = C + h2 * (G + J_nl)
            try:
                dv = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                raise ConvergenceError(
                    f"transient Jacobian singular at t={t_now:.3e}s")
            step = float(np.max(np.abs(dv))) if dv.size else 0.0
            if step > 0.5:
                dv *= 0.5 / step
            v = v + dv
            if step < vtol:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"transient Newton failed at t={t_now:.3e}s", residual=step)
        x = v
        states[k] = x
        b_prev = b_now
    return TransientResult(system=system, time=times, solutions=states)


def _transient_sparse(system: MnaSystem, times: np.ndarray, states: np.ndarray,
                      x: np.ndarray, waveforms: dict[str, Waveform],
                      max_newton: int, vtol: float,
                      dt: float) -> TransientResult:
    """Sparse-engine integration loop of :func:`transient_analysis`.

    Runs the identical per-step trapezoidal/Newton algebra (same damping,
    same C-refresh gating), but every matrix lives on the structure's
    master pattern: the step Jacobian ``C + h/2 (G + J_nl)`` is assembled
    as one ``.data`` vector and factored with SuperLU.  Purely linear
    netlists (no MOSFETs — e.g. extracted RC interconnect meshes) have a
    *constant* Jacobian, which is factored exactly once for the whole
    run — the cached-factorisation fast path.
    """
    from repro.circuits.mosfet import eval_companion_batch

    st = system.sparse_state
    h2 = dt / 2.0
    Gd = system._sparse_G_data()
    G_csc = st.matrix(Gd)
    Cd = system.sparse_cap_data(x)
    C_csc = st.matrix(Cd)
    x_cap = x.copy()
    pure_linear = system.device_arrays is None
    lu_const = st.lu(Cd + h2 * Gd) if pure_linear else None
    if pure_linear and lu_const is None:
        raise ConvergenceError("transient Jacobian singular at t=0")
    b_prev = _source_vector(system, waveforms, times[0])
    for k in range(1, len(times)):
        if not pure_linear and np.max(np.abs(x - x_cap)) > C_REFRESH_V:
            Cd = system.sparse_cap_data(x)
            C_csc = st.matrix(Cd)
            x_cap = x.copy()
        t_now = times[k]
        b_now = _source_vector(system, waveforms, t_now)
        f_prev = b_prev - G_csc @ x - system.nonlinear_current(x)
        # Newton on F(v) = C (v - x) - h/2 (b_now - G v - i_nl(v)) - h/2 f_prev
        v = x.copy()
        converged = False
        step = np.inf
        for _ in range(max_newton):
            if pure_linear:
                i_nl = 0.0
                lu = lu_const
            else:
                V = system._terminal_voltages(v)
                i_d, g = eval_companion_batch(system.device_arrays, V)
                i_nl = i_d @ system._res_map
                lu = st.lu(st.newton_data(Cd + h2 * Gd, h2 * g))
                if lu is None:
                    raise ConvergenceError(
                        f"transient Jacobian singular at t={t_now:.3e}s")
            F = (C_csc @ (v - x) - h2 * (b_now - G_csc @ v - i_nl)
                 - h2 * f_prev)
            dv = lu.solve(-F)
            step = float(np.max(np.abs(dv))) if dv.size else 0.0
            if step > 0.5:
                dv *= 0.5 / step
            v = v + dv
            if step < vtol:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"transient Newton failed at t={t_now:.3e}s", residual=step)
        x = v
        states[k] = x
        b_prev = b_now
    return TransientResult(system=system, time=times, solutions=states)


@dataclasses.dataclass
class BatchTransientResult:
    """Waveforms of a stacked transient run.

    ``converged[i]`` is False when design ``i`` failed its initial DC
    solve or a Newton step; its ``solutions`` rows are NaN from the first
    failed time point onward (the surviving designs keep integrating).
    """

    stack: SystemStack
    time: np.ndarray       # (T,)
    solutions: np.ndarray  # (B, T, size)
    converged: np.ndarray  # (B,) bool

    def voltage(self, node: str) -> np.ndarray:
        """``(B, T)`` node-voltage waveforms."""
        i = self.stack.template.node_index[node]
        if i < 0:
            return np.zeros(self.solutions.shape[:2])
        return self.solutions[:, :, i]

    def branch_current(self, element_name: str) -> np.ndarray:
        """``(B, T)`` branch-current waveforms of a voltage-defined element."""
        return self.solutions[:, :, self.stack.template.branch_index[element_name]]


def _capacitance_rows(stack: SystemStack, X: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """Large-signal capacitance matrices of slices ``rows`` at ``X[rows]``."""
    from repro.circuits.mosfet import state_arrays_batch, terminal_voltages_batch
    tpl = stack.template
    n, n1 = stack.size, stack.size + 1
    B = len(rows)
    Cp = np.zeros((B, n1, n1))
    Cp[:, :n, :n] = stack.C_rows(rows)
    if stack.dev is not None:
        dev = stack.dev.take(rows)
        Xp = np.concatenate([X[rows], np.zeros((B, 1))], axis=1)
        V = Xp[:, tpl._terms_pad]
        arrays = state_arrays_batch(dev, *terminal_voltages_batch(dev, V))
        c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                       arrays["csb"]], axis=-1).reshape(B, -1)
        Cp.reshape(B, -1)[:] += c4 @ tpl.cap_map
    return np.ascontiguousarray(Cp[:, :n, :n])


def _nonlinear_current_batch(stack: SystemStack, X: np.ndarray,
                             rows: np.ndarray) -> np.ndarray:
    """Stacked MOSFET KCL currents of slices ``rows`` at ``X[rows]``."""
    if stack.dev is None:
        return np.zeros((len(rows), stack.size))
    tpl = stack.template
    Xp = np.concatenate([X[rows], np.zeros((len(rows), 1))], axis=1)
    V = Xp[:, tpl._terms_pad]
    return eval_ids_batch(stack.dev.take(rows), V) @ tpl._res_map


def transient_analysis_batch(stack: SystemStack, *, t_stop: float, dt: float,
                             waveforms: dict[str, Waveform] | None = None,
                             x0: np.ndarray | None = None,
                             max_newton: int = 50,
                             vtol: float = 1e-8) -> BatchTransientResult:
    """Integrate every stacked design over ``[0, t_stop]`` in lockstep.

    The batched counterpart of :func:`transient_analysis`: one trapezoidal
    step advances all designs together, each Newton iteration evaluating
    every device of every active design in one stacked call and solving
    one batched linear system.  Per-design convergence masking drops
    finished designs out of the iteration; a design whose Newton fails is
    flagged in ``converged`` and NaN-filled instead of aborting the batch.

    ``waveforms`` are shared across designs and must target sources whose
    DC value is identical in every slice (the shared-testbench contract —
    the override delta is computed once from the template).  ``x0`` is the
    ``(B, n)`` initial state; when omitted, each design starts from its
    own batched DC operating point.
    """
    if t_stop <= 0 or dt <= 0 or dt > t_stop:
        raise AnalysisError(f"bad transient window t_stop={t_stop}, dt={dt}")
    waveforms = waveforms or {}
    tpl = stack.template
    _check_waveforms(tpl, waveforms)
    B, n = stack.n_designs, stack.size
    n1 = n + 1

    if x0 is None:
        dc = solve_dc_batch(stack)
        X = dc.x
        alive = dc.converged.copy()
        if waveforms:
            delta0 = _source_delta(tpl, waveforms, 0.0)
            if np.any(delta0):
                ok = _solve_static_batch(stack, stack.b_dc + delta0, X,
                                         np.nonzero(alive)[0], max_newton, vtol)
                alive[np.nonzero(alive)[0]] &= ok
    else:
        X = np.array(x0, dtype=float)
        if X.shape != (B, n):
            raise AnalysisError(f"x0 has shape {X.shape}, expected {(B, n)}")
        alive = np.ones(B, dtype=bool)

    n_steps = int(np.ceil(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.full((n_steps + 1, B, n), np.nan)
    states[0, alive] = X[alive]

    h2 = dt / 2.0
    all_rows = np.arange(B)
    # Sparse stacks densify once up front: the batch engine's stacked
    # linear algebra is dense by design (it serves the small-circuit
    # regime; large sparse netlists integrate per design instead).
    G_all = stack.G if not stack.sparse else stack.G_rows(all_rows)
    C = np.zeros((B, n, n))
    C[alive] = _capacitance_rows(stack, X, all_rows[alive])
    X_cap = X.copy()
    b_prev = stack.b_dc + _source_delta(tpl, waveforms, times[0])[None, :]
    has_dev = stack.dev is not None
    for k in range(1, n_steps + 1):
        rows = all_rows[alive]
        if len(rows) == 0:
            break
        if has_dev:
            moved = rows[np.max(np.abs(X[rows] - X_cap[rows]), axis=1)
                         > C_REFRESH_V]
            if len(moved):
                C[moved] = _capacitance_rows(stack, X, moved)
                X_cap[moved] = X[moved]
        t_now = times[k]
        b_now = stack.b_dc + _source_delta(tpl, waveforms, t_now)[None, :]
        f_prev = (b_prev[rows] - (G_all[rows] @ X[rows, :, None])[..., 0]
                  - _nonlinear_current_batch(stack, X, rows))
        # Newton on F(v) = C (v - x) - h/2 (b_now - G v - i_nl(v)) - h/2 f_prev
        V = X[rows].copy()
        active = np.arange(len(rows))     # positions into rows
        done = np.zeros(len(rows), dtype=bool)
        for _ in range(max_newton):
            if len(active) == 0:
                break
            a = len(active)
            r = rows[active]
            Va = V[active]
            if has_dev:
                Xp = np.concatenate([Va, np.zeros((a, 1))], axis=1)
                Vt = Xp[:, tpl._terms_pad]
                i_d, g = eval_companion_batch(stack.dev.take(r), Vt)
                i_nl = i_d @ tpl._res_map
                Jp = (g.reshape(a, -1) @ tpl.newton_g_map).reshape(a, n1, n1)
                J_nl = Jp[:, :n, :n]
            else:
                i_nl = np.zeros((a, n))
                J_nl = 0.0
            F = ((C[r] @ (Va - X[r])[..., None])[..., 0]
                 - h2 * (b_now[r] - (G_all[r] @ Va[..., None])[..., 0]
                         - i_nl)
                 - h2 * f_prev[active])
            J = C[r] + h2 * (G_all[r] + J_nl)
            dv, singular = _solve_active(J, -F)
            if singular.any():
                # Dead designs: flagged, dropped; they keep their last state.
                keep = ~singular
                alive[r[singular]] = False
                active, dv, Va = active[keep], dv[keep], Va[keep]
                if len(active) == 0:
                    break
            step = np.abs(dv).max(axis=1) if n else np.zeros(len(active))
            over = step > 0.5
            if over.any():
                dv[over] *= (0.5 / step[over])[:, None]
            V[active] = Va + dv
            conv = step < vtol
            if conv.any():
                done[active[conv]] = True
                active = active[~conv]
        if len(active):
            alive[rows[active]] = False   # Newton exhausted max_newton
        ok_rows = rows[done]
        X[ok_rows] = V[done]
        states[k, ok_rows] = X[ok_rows]
        b_prev = b_now
    return BatchTransientResult(stack=stack, time=times,
                                solutions=np.ascontiguousarray(
                                    states.transpose(1, 0, 2)),
                                converged=alive)


def _solve_static_batch(stack: SystemStack, b: np.ndarray, X: np.ndarray,
                        rows: np.ndarray, max_iter: int,
                        vtol: float) -> np.ndarray:
    """Batched Newton solve of ``G x + i_nl(x) = b[rows]`` warm from ``X``.

    Updates ``X`` rows in place; returns a bool mask (aligned with
    ``rows``) of designs that converged."""
    tpl = stack.template
    n, n1 = stack.size, stack.size + 1
    ok = np.zeros(len(rows), dtype=bool)
    active = np.arange(len(rows))
    G_all = stack.G if not stack.sparse else stack.G_rows(
        np.arange(stack.n_designs))
    for _ in range(max_iter):
        if len(active) == 0:
            break
        a = len(active)
        r = rows[active]
        Xa = X[r]
        if stack.dev is not None:
            Xp = np.concatenate([Xa, np.zeros((a, 1))], axis=1)
            Vt = Xp[:, tpl._terms_pad]
            i_d, g = eval_companion_batch(stack.dev.take(r), Vt)
            i_nl = i_d @ tpl._res_map
            J_nl = (g.reshape(a, -1) @ tpl.newton_g_map
                    ).reshape(a, n1, n1)[:, :n, :n]
        else:
            i_nl = np.zeros((a, n))
            J_nl = 0.0
        F = (G_all[r] @ Xa[..., None])[..., 0] + i_nl - b[r]
        dx, singular = _solve_active(G_all[r] + J_nl, -F)
        if singular.any():
            keep = ~singular
            active, dx, Xa = active[keep], dx[keep], Xa[keep]
            if len(active) == 0:
                break
            r = rows[active]
        step = np.abs(dx).max(axis=1)
        over = step > 0.4
        if over.any():
            dx[over] *= (0.4 / step[over])[:, None]
        X[r] = Xa + dx
        conv = step < vtol
        if conv.any():
            ok[active[conv]] = True
            active = active[~conv]
    return ok


def _solve_static(system: MnaSystem, b: np.ndarray, x0: np.ndarray,
                  max_iter: int, vtol: float) -> np.ndarray:
    """Newton solve of G x + i_nl(x) = b from a warm start."""
    x = x0.copy()
    G = system.G
    for _ in range(max_iter):
        i_nl, J_nl = system.nonlinear_current_and_jacobian(x)
        F = G @ x + i_nl - b
        try:
            dx = np.linalg.solve(G + J_nl, -F)
        except np.linalg.LinAlgError:
            raise ConvergenceError("static re-solve Jacobian singular")
        step = float(np.max(np.abs(dx))) if dx.size else 0.0
        if step > 0.4:
            dx *= 0.4 / step
        x = x + dx
        if step < vtol:
            return x
    raise ConvergenceError("static re-solve did not converge")
