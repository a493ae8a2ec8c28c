"""Nonlinear transient analysis (trapezoidal integration + Newton).

The large-signal counterpart of :mod:`repro.sim.linear`: each time step
solves the nonlinear system

    ``C (x_{k+1} - x_k) = (h/2) (f(x_{k+1}, t_{k+1}) + f(x_k, t_k))``

with ``f(x, t) = b(t) - G x - i_nl(x)`` by damped Newton iteration,
warm-started from the previous step.  Time-varying stimuli are supplied as
``waveforms={"V1": fn(t) -> value}`` overriding the DC value of the named
source during the run (the classic PWL/pulse testbench pattern).

One Newton loop, :func:`_solve_step`, serves every solve of a run: each
trapezoidal step, and the t=0 re-solve of the DC operating point under
the waveforms' t=0 values, which is that step with ``C = 0`` and
``h = 2`` (``G x + i_nl(x) = b(0)``).  Its settings are the module
constants :data:`_MAX_ITER`, :data:`_VTOL` and :data:`_DAMPING`.  Every
matrix stays on the system's own engine leg — dense arrays, or CSC
matrices over the sparse leg's master pattern, never densified — and is
factored through :func:`repro.sim.dc._lu_factor`.  A device-free netlist
has a constant step Jacobian, which is factored once for the whole
integration; otherwise the Jacobian is refactored at every iterate and
the device capacitances are refreshed only once the state has moved far
enough to change the operating region (:data:`C_REFRESH_V`).

Used by the examples and the verification tests (e.g. checking that the
small-signal settling measurement agrees with a true large-signal step for
small steps); the RL hot loop uses the cheaper linearised analyses.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.circuits.elements import CurrentSource, VoltageSource
from repro.errors import AnalysisError, ConvergenceError
from repro.sim.dc import _lu_factor, _lu_solve, solve_dc
from repro.sim.system import MnaSystem

Waveform = Callable[[float], float]

#: State movement [V] beyond which the device capacitance matrix is
#: refreshed.  Between refreshes the operating region is assumed
#: unchanged — the same order of approximation as freezing C within a
#: step, which the trapezoidal companion already does.
C_REFRESH_V = 1e-3

#: Newton iterations per solve (each time step, and the t=0 re-solve).
_MAX_ITER = 50

#: Newton-step size [V or A] below which a solve has converged.
_VTOL = 1e-8

#: Maximum per-iteration change of any unknown [V or A].
_DAMPING = 0.5


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
    """Raise :class:`AnalysisError` unless every waveform names an
    independent source of the netlist."""
    for name in waveforms:
        if name not in system.netlist:
            raise AnalysisError(f"waveform refers to unknown element {name!r}")
        element = system.netlist[name]
        if not isinstance(element, (VoltageSource, CurrentSource)):
            raise AnalysisError(
                f"waveform target {name!r} is not an independent source")


def _source_vector(system: MnaSystem, waveforms: dict[str, Waveform],
                   t: float) -> np.ndarray:
    """DC excitation vector with waveform overrides applied at time ``t``."""
    b = system.b_dc.copy()
    for name, wave in waveforms.items():
        element = system.netlist[name]
        dv = wave(t) - element.dc
        if isinstance(element, VoltageSource):
            b[system.branch_index[name]] += dv
        else:  # CurrentSource (validated in _check_waveforms)
            i = system.node_index[element.p]
            j = system.node_index[element.n]
            if i >= 0:
                b[i] -= dv
            if j >= 0:
                b[j] += dv
    return b


def _solve_step(system: MnaSystem, x: np.ndarray, b: np.ndarray, f_prev,
                C, h: float, t: float, lu=None):
    """Damped Newton solve of one implicit step, from ``v = x``:

        ``F(v) = C (v - x) - h/2 (b - G v - i_nl(v)) - h/2 f_prev = 0``

    with the Jacobian ``C + h/2 (G + J_nl(v))`` of
    :meth:`~repro.sim.system.MnaSystem.step_jacobian`.  A trapezoidal
    step passes ``h = dt`` and ``f_prev = f(x, t_prev)``; the t=0
    re-solve passes ``C = 0``, ``h = 2`` and ``f_prev = 0``, which leaves
    ``G v + i_nl(v) = b``.

    ``lu`` is a factor of the step Jacobian of a device-free system,
    whose Jacobian does not depend on ``v``: it is reused at every
    iterate.  Returns ``(v, lu)``, ``lu`` being the last factor used, so
    the next step of a device-free system can reuse it too.

    Raises
    ------
    ConvergenceError
        When a Jacobian is singular or :data:`_MAX_ITER` iterations pass
        without a step below :data:`_VTOL`.
    """
    G = system.conductance()
    h2 = 0.5 * h
    refactor = system.device_arrays is not None
    v = x.copy()
    i_nl = 0.0
    step = np.inf
    for _ in range(_MAX_ITER):
        if lu is None or refactor:
            i_nl, J = system.step_jacobian(v, C, h)
            lu = _lu_factor(J)
            if lu is None:
                raise ConvergenceError(
                    f"transient Jacobian singular at t={t:.3e}s")
        F = C @ (v - x) - h2 * (b - G @ v - i_nl) - h2 * f_prev
        dv = _lu_solve(lu, -F)
        step = float(np.max(np.abs(dv))) if dv.size else 0.0
        if step > _DAMPING:
            dv *= _DAMPING / step
        v = v + dv
        if step < _VTOL:
            return v, lu
    raise ConvergenceError(f"transient Newton failed at t={t:.3e}s",
                           residual=step)


def transient_analysis(system: MnaSystem, *, t_stop: float, dt: float,
                       waveforms: dict[str, Waveform] | None = None,
                       x0: np.ndarray | None = None) -> TransientResult:
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

    b_prev = _source_vector(system, waveforms, 0.0)
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    else:
        x = solve_dc(system).x
        if not np.allclose(b_prev, system.b_dc):
            # The t=0 waveform values differ from the DC values.
            x, _ = _solve_step(system, x, b_prev, 0.0,
                               0.0 * system.conductance(), 2.0, 0.0)

    n_steps = int(np.ceil(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    states = np.empty((n_steps + 1, system.size))
    states[0] = x

    G = system.conductance()
    C = system.capacitance_at(x)
    x_cap = x                     # state C was last evaluated at
    lu = None
    for k in range(1, n_steps + 1):
        # Device capacitances depend on the operating region; refresh the
        # C matrix only once the state has actually moved.
        if (system.device_arrays is not None
                and np.max(np.abs(x - x_cap)) > C_REFRESH_V):
            C = system.capacitance_at(x)
            x_cap = x
        b_now = _source_vector(system, waveforms, times[k])
        f_prev = b_prev - G @ x - system.nonlinear_current(x)
        x, lu = _solve_step(system, x, b_now, f_prev, C, dt, times[k], lu)
        states[k] = x
        b_prev = b_now
    return TransientResult(system=system, time=times, solutions=states)
