"""ILU-preconditioned Krylov solves — the third engine leg.

The sparse-direct engine (:mod:`repro.sim.sparse`) wins an order of
magnitude over dense LAPACK at a few hundred unknowns, but SuperLU's
ordering and fill-in costs grow superlinearly: on the 2-D power-grid
meshes of :class:`~repro.topologies.power_grid.PowerGridOta` (5k–50k
unknowns) every Newton step and every AC frequency point pays a full
re-factorisation.  This module keeps the structure-cached CSC *assembly*
of :class:`~repro.sim.sparse.SparseState` — one master sparsity pattern,
``O(nnz)`` data refreshes — and replaces the ``splu`` factorisations
with preconditioned Krylov iteration:

* **DC Newton** — systems with a condensable interior (the supply
  meshes) solve their gmin-0 steps through
  :meth:`repro.sim.condense.Condensation.newton_operator` instead;
  everything else lands here.  :class:`KrylovState` holds one
  incomplete-LU preconditioner per system, re-factored only when the
  Jacobian data drifts past :data:`DRIFT_TOL` (relative L1).
  Consecutive Newton steps — and consecutive *evaluations* in a sizing
  loop, since the cache deliberately survives restamps — reuse the same
  ILU; each step then costs a handful of matvecs instead of a fresh
  factorisation.
  Every solve warm-starts from the current Newton iterate, so the
  trajectory seeds that already cut Newton step counts cut Krylov
  iterations the same way: a near-converged seed makes ``x0`` almost
  the solution and GMRES needs one or two restart-free sweeps.
* **AC sweeps and the noise adjoint** — :class:`KrylovSweep` mirrors the
  ``solve(b, adjoint=)`` contract of
  :class:`~repro.sim.sparse.SweepFactorization`: the shifted operators
  ``G + j w C`` of a whole frequency grid share one ILU anchor
  (re-anchored adaptively when a point needs too many iterations), each
  point warm-starts from its neighbour's solution, and the noise
  adjoint's transpose solves ride the same factors through
  ``ilu.solve(trans="T")``.
* **Fallback** — a solve that fails to converge degrades to the direct
  sparse path (``splu`` for Newton steps, a full
  :class:`~repro.sim.sparse.SweepFactorization` for sweeps), bitwise
  identical to what the ``sparse`` engine would have produced, and the
  event is counted.  Per-solve iteration/residual/fallback counters
  accumulate in :class:`KrylovStats` and surface through
  :class:`~repro.sim.faults.BatchReport`.

Engine selection routes systems here via
``REPRO_ENGINE=iterative`` (or ``auto`` above
:data:`~repro.sim.engine.ITERATIVE_AUTO_THRESHOLD` unknowns); see
:mod:`repro.sim.engine`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.sparse.linalg import (LinearOperator as _LinOp,
                                 bicgstab as _bicgstab, gmres as _gmres,
                                 spilu as _spilu, splu as _splu)

from repro.sim.sparse import SparseState, SweepFactorization

#: Residual reduction target of the *initial* Krylov iteration (vs
#: ``|b|``).  Deliberately tight: the first pass is *warm-started* and
#: each extra decade costs only ~2 preconditioned iterations there,
#: whereas an iterative-refinement round is a cold correction solve that
#: routinely costs more than the whole warm pass — so the first pass
#: aims straight for the rounding plateau and refinement only mops up
#: the stragglers.
RTOL = 1e-12

#: Floor on the residual-reduction target of an iterative-refinement
#: correction solve.  Each round only needs to contract the backward
#: error from its current ``eta`` down past the refinement target, so
#: the correction tolerance is chosen *adaptively* as
#: ``0.25 * target / eta`` — a first pass that lands one decade short
#: buys its last decade in two or three iterations instead of the 15+
#: a fixed eight-decade correction solve would burn (corrections are
#: cold: no warm start to cheapen them).  The floor caps the work of
#: any single round when the gap is genuinely large; classic IR closes
#: the rest over the remaining rounds.
REFINE_RTOL = 1e-8

#: Maximum iterative-refinement rounds after the initial solve.
REFINE_MAX = 3

#: Acceptance threshold on the normwise backward error
#: ``|b - A x| / (|A| |x| + |b|)`` (max-norms).  MNA Newton systems mix
#: units (siemens rows, voltage-source rows) and can be conditioned at
#: 1e10, where a small *residual* still leaves percent-level *solution*
#: error — enough to kick a diverging Newton trajectory into a different
#: basin than the direct engines.  Backward error is the honest
#: criterion: direct ``splu`` delivers ~n*eps, iterative refinement
#: reaches the same plateau in one or two rounds, and accepting at
#: 1e-13 keeps the iterative leg's trajectories tracking the direct
#: legs' as closely as dense tracks sparse.
BACKWARD_TOL = 1e-13

#: Refinement target: the rounding plateau of a backward-stable direct
#: solve (~n*eps).  Every accepted solution — DC Newton step or AC
#: frequency point — is driven here so the iterative leg's results stay
#: within the spec-parity bar (1e-8 of sparse) even through
#: condition-number amplification; with the tight :data:`RTOL` first
#: pass the refinement rounds this gate triggers are rare.
PLATEAU_TOL = 1e-15


#: Newton-step size [V] below which a Krylov DC solve is *trusted*.
#: Steps this size sit well inside the device exponentials' quadratic
#: basin (the curvature scale is the thermal voltage, ~26 mV), so Newton
#: is contracting and solver-level forward differences shrink step over
#: step until polish pins the same root the direct engines find;
#: measured warm-evaluation trails contract 1.5e-3 -> 2e-5 -> 4e-9 V.
#: Above it Newton is wandering (damped excursions up to the 0.4 V
#: cap) — chaotic amplification could land a different basin — so the
#: step is redone with direct ``splu``, bitwise the sparse leg.
TRUST_STEP = 1e-2

#: Newton-step size [V] below which a *direct* step restores trust.
#: Restoration is deliberately an order stricter than acceptance
#: (hysteresis): chaotic cold trajectories approach *repelling*
#: pseudo-roots, contracting to ~2e-3 steps — the direct solver's own
#: forward-error floor on cond ~1e12 Jacobians — before jumping away by
#: ~0.1 V, and accepting a Krylov answer inside such a stall swaps the
#: final root.  Genuine quadratic endgames plunge through 1e-3 within a
#: step or two, so the stricter re-entry only delays Krylov by one
#: direct solve after a wander; warm sizing loops never drop trust and
#: never pay it.
TRUST_RESTORE = 1e-3

#: Step-contraction ratio a *direct* Newton step must additionally beat
#: (versus the previous step) before trust is restored.  A single small
#: step is not endgame evidence: chaotic cold trajectories drift along
#: plateaus (step ratios ~0.95) whose small-step tail still amplifies
#: percent-level solver differences into a different DC root.  Genuine
#: quadratic contraction shrinks steps superlinearly (measured trails:
#: 1.5e-3 -> 2e-5 -> 4e-9 V, ratios < 0.02), so requiring a direct step
#: below 0.3x its predecessor admits every real endgame on the first or
#: second step while plateaus never re-enable Krylov.
TRUST_CONTRACTION = 0.3

#: Krylov subspace dimension between GMRES restarts.
RESTART = 80

#: Maximum restart cycles before a solve is declared non-convergent and
#: degraded to the direct path.
MAXITER = 5

#: Relative L1 Jacobian-data drift above which the cached Newton ILU is
#: re-factored.  Sizing loops move a few device stamps per step while
#: the (linear) mesh dominates the data vector, so warm trajectories
#: stay far below this and reuse one factorisation for many solves.
DRIFT_TOL = 0.1

#: Iteration count above which the sweep preconditioner is re-anchored
#: at the *next* frequency point (shifted-system reuse stops paying once
#: the shift has walked too far from the anchor).  A re-anchor costs
#: roughly 15 preconditioned iterations' worth of ``spilu`` time on the
#: 5k-unknown meshes, so refreshing just above that keeps every point in
#: the few-iteration regime.
SWEEP_REFRESH_ITERS = 20

#: ``spilu`` dropping parameters.  Deliberately *tight*: SuperLU's
#: symbolic/ordering work dominates incomplete factorisation on MNA
#: mesh patterns, so a loose ILU costs nearly as much to build as a
#: tight one while buying several times the iteration count.  The engine
#: wins by amortising one near-exact factorisation across many solves
#: (Newton steps, sizing-loop evaluations, sweep shifts), not by
#: cheapening the factorisation itself.
DROP_TOL = 1e-6
FILL_FACTOR = 30.0

#: Krylov method: ``"gmres"`` (default) or ``"bicgstab"``.
METHOD = "gmres"


@dataclasses.dataclass
class KrylovStats:
    """Per-solve accounting of one Krylov-engine consumer.

    ``solves`` counts completed linear solves (one AC frequency point is
    one solve), ``iterations`` the summed inner Krylov iterations,
    ``fallbacks`` the solves that degraded to the direct sparse path,
    and ``max_residual`` the worst normwise backward error accepted.
    Counters accumulate across solves and are drained by :meth:`take`
    into :class:`~repro.sim.faults.BatchReport` fields at publish time.
    """

    solves: int = 0
    iterations: int = 0
    fallbacks: int = 0
    max_residual: float = 0.0

    def record(self, iterations: int, residual: float,
               fallback: bool = False) -> None:
        """Account one linear solve."""
        self.solves += 1
        self.iterations += int(iterations)
        if fallback:
            self.fallbacks += 1
        if residual > self.max_residual:
            self.max_residual = float(residual)

    def take(self) -> dict:
        """Drain the counters (returns them and resets to zero)."""
        out = {"solves": self.solves, "iterations": self.iterations,
               "fallbacks": self.fallbacks,
               "max_residual": self.max_residual}
        self.solves = self.iterations = self.fallbacks = 0
        self.max_residual = 0.0
        return out


def _krylov(A, b, M, x0, rtol):
    """One raw preconditioned Krylov iteration; ``(x, inner_iterations)``."""
    count = [0]

    def _tick(_arg):
        count[0] += 1

    if METHOD == "bicgstab":
        x, _info = _bicgstab(A, b, x0=x0, rtol=rtol, atol=0.0,
                             maxiter=RESTART * MAXITER, M=M, callback=_tick)
    else:
        x, _info = _gmres(A, b, x0=x0, rtol=rtol, atol=0.0, restart=RESTART,
                          maxiter=MAXITER, M=M, callback=_tick,
                          callback_type="pr_norm")
    return x, count[0]


def _solve_once(A, b, M, x0, target: float = PLATEAU_TOL):
    """One refined preconditioned Krylov solve of ``A x = b``.

    The initial iteration targets :data:`RTOL`; iterative-refinement
    rounds (residual recomputed in full precision, correction solved
    through the same preconditioner) then drive the normwise backward
    error ``|b - A x| / (|A| |x| + |b|)`` below ``target``
    (:data:`PLATEAU_TOL`, where a direct factorisation would land).
    Returns ``(x, iterations, backward_error, converged)``.
    """
    if b.size == 0:
        return np.zeros_like(b), 0, 0.0, True
    bnorm = float(np.max(np.abs(b)))
    Anorm = float(np.max(np.abs(A).sum(axis=1)))

    def _eta(xk):
        denom = Anorm * float(np.max(np.abs(xk))) + bnorm
        err = float(np.max(np.abs(b - A @ xk)))
        return err / denom if denom > 0.0 else err

    x, iters = _krylov(A, b, M, x0, RTOL)
    eta = _eta(x)
    # Refinement rounds are *cold* correction solves (no warm start) and
    # routinely cost more iterations than the warm first pass, so stop
    # the moment the target is met — with a tight ILU and a warm start
    # the first pass usually lands there on its own.
    for _round in range(REFINE_MAX):
        if eta <= target:
            break   # good enough for this solve's consumer
        d, extra = _krylov(A, b - A @ x, M, None,
                           max(REFINE_RTOL, 0.25 * target / eta))
        iters += extra
        x_new = x + d
        eta_new = _eta(x_new)
        if eta_new >= eta * 0.5:
            if eta_new < eta:
                x, eta = x_new, eta_new
            break   # contraction stalled: at the plateau
        x, eta = x_new, eta_new
    return x, iters, eta, eta <= BACKWARD_TOL


def _ilu_operator(ilu, n: int, dtype, adjoint: bool = False):
    """The ILU factors as a preconditioning :class:`LinearOperator`.

    ``adjoint`` preconditions transpose systems (``A^T x = b``) through
    the same factors via ``trans="T"`` — the sweep's noise-adjoint path.
    """
    trans = "T" if adjoint else "N"
    return _LinOp((n, n), matvec=lambda v: ilu.solve(v, trans=trans),
                  dtype=dtype)


class _IluCache:
    """One drift-gated incomplete-LU slot (Newton-step reuse).

    Holds the ILU factors and the data vector they were computed at;
    :meth:`get` returns the cached factors while the relative L1 drift
    of the master-pattern data stays below :data:`DRIFT_TOL`, otherwise
    re-factors.  A failed ``spilu`` (structurally singular iterate) is
    memoised as None for the same data so retries are not paid per
    Newton step.
    """

    def __init__(self):
        self._ilu = None
        self._data: np.ndarray | None = None
        self._scale = 0.0
        self._gmin: float | None = None

    def get(self, state: SparseState, data: np.ndarray,
            gmin: float = 0.0):
        """Cached-or-fresh ILU factors of the master-pattern ``data``.

        ``gmin`` is part of the cache key even though it also appears in
        ``data``: a continuation rung adds ``gmin`` to every node
        diagonal, which is invisible to the global L1 drift metric (the
        mesh dominates the data sum) yet changes the operator's
        *inverse* by O(gmin * cond) on ill-conditioned Newton systems —
        factors anchored on the wrong rung precondition poorly and cost
        extra iterations on every solve of the new rung.
        """
        if (self._data is not None and self._scale > 0.0
                and self._gmin == gmin):
            drift = float(np.abs(data - self._data).sum()) / self._scale
            if drift <= DRIFT_TOL:
                return self._ilu
        try:
            self._ilu = _spilu(state.matrix(data), drop_tol=DROP_TOL,
                               fill_factor=FILL_FACTOR)
        except RuntimeError:
            self._ilu = None
        self._data = np.array(data, copy=True)
        self._scale = float(np.abs(self._data).sum())
        self._gmin = gmin
        return self._ilu


class KrylovFactor:
    """The iterative engine's stand-in for one LU factorisation.

    Produced by :meth:`KrylovState.factor` and consumed through the
    backend-agnostic ``("iterative", factor)`` branch of
    :func:`repro.sim.dc._lu_factor` / ``_lu_solve``.  :meth:`solve`
    implements the trust gate described on :class:`KrylovState`: in
    trusted (endgame) mode it runs refined preconditioned GMRES
    warm-started from the Newton iterate, discards the result — and
    drops trust — if the implied Newton step is larger than
    :data:`TRUST_STEP` or the iteration failed; any discarded or
    untrusted solve goes through direct ``splu``, bitwise the
    sparse-direct Newton step.
    """

    def __init__(self, kstate: "KrylovState", A, data: np.ndarray,
                 x0: np.ndarray | None, direct=None, gmin: float = 0.0):
        self._kstate = kstate
        self._A = A
        self._data = data
        self._x0 = x0
        self._direct = direct
        self._gmin = gmin

    def _step(self, x: np.ndarray) -> float:
        """Size of the Newton step this solution implies (inf without a
        reference iterate)."""
        if self._x0 is None or not x.size:
            return np.inf
        return float(np.max(np.abs(x - self._x0)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (trusted Krylov or bitwise-direct)."""
        ks = self._kstate
        stats = ks.stats
        if ks.trusted:
            ilu = ks._ilu.get(ks.state, self._data, self._gmin)
            if ilu is not None:
                M = _ilu_operator(ilu, ks.state.n, self._A.dtype)
                x, iters, eta, ok = _solve_once(self._A, b, M, self._x0)
                step = self._step(x)
                if ok and step <= TRUST_STEP:
                    ks.last_step = step
                    stats.record(iters, eta)
                    return x
                # Large step (wandering) or non-convergence: discard and
                # degrade this and the following solves to direct.  The
                # cost of the discarded attempt is bounded by the trust
                # state machine — wandering phases skip Krylov entirely
                # until a contracting small direct step restores trust.
                ks.trusted = False
                stats.record(iters, eta, fallback=True)
            else:
                ks.trusted = False
                stats.record(0, 0.0, fallback=True)
        else:
            stats.record(0, 0.0)
        if self._direct is None:
            try:
                self._direct = _splu(self._A)
            except RuntimeError:
                # Singular at solve time: hand the Newton driver a
                # zero step so its residual gate rejects the iterate
                # instead of crashing the factorisation contract.
                return np.zeros_like(b) if self._x0 is None else \
                    np.array(self._x0, dtype=float, copy=True)
        xd = self._direct.solve(b)
        step = self._step(xd)
        if step <= TRUST_RESTORE and \
                step <= TRUST_CONTRACTION * ks.last_step:
            ks.trusted = True   # contracting endgame: re-enter Krylov
        ks.last_step = step
        return xd


class KrylovOperator:
    """Duck-typed "matrix" returned by the iterative engine's
    :meth:`~repro.sim.system.MnaSystem.newton_matrices`.

    Carries the master-pattern data and the Newton iterate (the warm
    start); :func:`repro.sim.dc._lu_factor` recognises the
    :meth:`newton_factor` attribute and treats the result like LU
    factors.
    """

    def __init__(self, kstate: "KrylovState", data: np.ndarray,
                 x0: np.ndarray | None, gmin: float = 0.0):
        self._kstate = kstate
        self._data = data
        self._x0 = x0
        self._gmin = gmin

    def newton_factor(self) -> KrylovFactor | None:
        """The solve handle for this operator (None when unusable)."""
        return self._kstate.factor(self._data, self._x0, gmin=self._gmin)


class KrylovState:
    """Per-system Krylov solve state: trust gate, drift-gated ILU,
    counters.

    One instance lives on each iterative :class:`~repro.sim.system.
    MnaSystem` (and on each :class:`~repro.sim.sparse.SparseSlice` of an
    iterative stack, sharing the template's :class:`KrylovStats`).  It
    deliberately survives restamps — GMRES iterates on the *true*
    current operator, so a stale preconditioner can only cost
    iterations, never correctness, and sizing-loop evaluations reuse one
    ILU across many solves.

    The *trust gate* keeps the iterative leg's Newton trajectories in
    the same basin as the direct engines'.  MNA Newton systems can be
    conditioned at 1e12+ mid-trajectory, where every backward-stable
    solver's answer carries percent-level forward uncertainty; while
    Newton is *wandering* (damped large steps, continuation ladders)
    those differences amplify chaotically and can land a different —
    equally converged — operating point.  So Krylov answers are accepted
    only in the contractive endgame (implied step below
    :data:`TRUST_STEP`, where Newton's quadratic contraction absorbs
    solver-level differences and polish pins the same root); wandering
    solves run direct ``splu``, which makes them *bitwise* the sparse
    leg's and guarantees identical ladder decisions.  Warm-started
    evaluations — a sizing loop's one-step deltas — start inside the
    endgame, which is exactly where the iterative win lives.
    """

    def __init__(self, state: SparseState, stats: KrylovStats | None = None):
        self.state = state
        self.stats = stats if stats is not None else KrylovStats()
        self._ilu = _IluCache()
        #: Optimistic start: warm evaluations begin near the solution.
        #: The first oversized step drops trust; a *contracting* small
        #: direct step (see :data:`TRUST_CONTRACTION`) restores it.
        self.trusted = True
        #: Most recent Newton-step size, the contraction reference for
        #: trust restoration.  Starts at inf so the first solve can only
        #: restore trust via an (automatically contracting) small step.
        self.last_step = np.inf

    def operator(self, data: np.ndarray, x0: np.ndarray | None = None,
                 gmin: float = 0.0) -> KrylovOperator:
        """Wrap master-pattern Newton ``data`` (warm start ``x0``,
        continuation rung ``gmin``) for the DC driver's factorisation
        layer."""
        return KrylovOperator(self, data, x0, gmin=gmin)

    def factor(self, data: np.ndarray, x0: np.ndarray | None,
               gmin: float = 0.0) -> KrylovFactor | None:
        """A :class:`KrylovFactor` over ``data``; None when untrusted
        and the matrix is directly singular (the sparse leg's failed
        ``splu``, surfaced identically so ladder decisions match)."""
        A = self.state.matrix(data)
        if not self.trusted:
            # Wandering phase: factor direct *eagerly* so a singular
            # iterate returns None exactly where the sparse leg's
            # ``_lu_factor`` does.
            try:
                direct = _splu(A)
            except RuntimeError:
                return None
            return KrylovFactor(self, A, data, x0, direct=direct,
                                gmin=gmin)
        return KrylovFactor(self, A, data, x0, gmin=gmin)


class KrylovSweep:
    """Iterative frequency sweep with the
    :class:`~repro.sim.sparse.SweepFactorization` ``solve`` contract.

    The shifted operators ``G + j w C`` share one ILU anchor: the first
    point factors it, later points reuse it (the shift walks slowly on a
    log grid) and re-anchor when a point needed more than
    :data:`SWEEP_REFRESH_ITERS` iterations.  Within one ``solve`` call
    each frequency warm-starts from its neighbour's solution; the noise
    adjoint (``adjoint=True``) solves ``A^T x = b`` through the same
    anchor via transpose preconditioning.  Any non-convergent point
    degrades the *whole* request to a lazily-built direct
    :class:`SweepFactorization` — bitwise the sparse engine's answer.
    """

    def __init__(self, state: SparseState, G_data: np.ndarray,
                 C_data: np.ndarray, omega: np.ndarray,
                 stats: KrylovStats | None = None):
        self._state = state
        self._Gd = np.asarray(G_data, dtype=complex)
        self._Cd = np.asarray(C_data)
        self._omega = np.asarray(omega, dtype=float)
        self.F = len(self._omega)
        self.n = state.n
        self.stats = stats if stats is not None else KrylovStats()
        self._ilu = None
        self._direct: SweepFactorization | None = None

    def _refactor(self, data: np.ndarray) -> None:
        """Anchor the shared ILU at the operator ``data``."""
        try:
            self._ilu = _spilu(self._state.matrix(data), drop_tol=DROP_TOL,
                               fill_factor=FILL_FACTOR)
        except RuntimeError:
            self._ilu = None

    def _direct_solve(self, b: np.ndarray, adjoint: bool) -> np.ndarray:
        """Direct block-diagonal ``splu`` fallback for the whole sweep."""
        if self._direct is None:
            self._direct = SweepFactorization(
                self._state, np.real(self._Gd), self._Cd, self._omega)
        return self._direct.solve(b, adjoint=adjoint)

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve every frequency point against one RHS -> ``(F, n)``.

        ``adjoint`` solves ``A^T x = b`` (the noise-adjoint transpose
        path; callers conjugate, as with the direct factorisation).
        """
        bc = np.asarray(b, dtype=complex)
        out = np.empty((self.F, self.n), dtype=complex)
        prev: np.ndarray | None = None
        for i in range(self.F):
            data = self._Gd + (1j * self._omega[i]) * self._Cd
            A = self._state.matrix(data)
            A_op = A.T if adjoint else A
            if self._ilu is None:
                self._refactor(data)
            x = None
            for attempt in range(2):
                if self._ilu is None:
                    break
                M = _ilu_operator(self._ilu, self.n, A.dtype,
                                  adjoint=adjoint)
                x, iters, resid, ok = _solve_once(A_op, bc, M, prev)
                if ok:
                    break
                # Re-anchor once at this frequency and retry before
                # giving up on the iterative path.
                x = None
                if attempt == 0:
                    self._refactor(data)
            if x is None:
                self.stats.record(0, 0.0, fallback=True)
                return self._direct_solve(bc, adjoint)
            self.stats.record(iters, resid)
            out[i] = x
            prev = x
            if iters > SWEEP_REFRESH_ITERS:
                self._ilu = None   # re-anchor at the next shift
        return out


def stack_sweep_factors_krylov(stack, rows: np.ndarray, g3: np.ndarray,
                               c4: np.ndarray, omega: np.ndarray,
                               stats: KrylovStats | None = None
                               ) -> list[KrylovSweep]:
    """Per-design :class:`KrylovSweep` list for iterative stack slices.

    The iterative counterpart of
    :func:`repro.sim.sparse.stack_sweep_factors` — same per-design
    small-signal assembly on the master pattern, iterative sweeps
    instead of block-diagonal ``splu`` factors.  Duck-typing keeps every
    stacked-measurement consumer unchanged.
    """
    st = stack.template.sparse_state
    facts = []
    for j, r in enumerate(rows):
        Gd, Cd = st.ss_data(stack.G_pat[r], stack.C_pat[r], g3[j], c4[j])
        facts.append(KrylovSweep(st, Gd, Cd, omega, stats=stats))
    return facts
