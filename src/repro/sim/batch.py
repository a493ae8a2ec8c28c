"""Batched DC operating-point solves over stacked same-structure systems.

The sequential simulator costs are dominated by Python/numpy dispatch, not
arithmetic: a 10–20 unknown Newton iteration spends microseconds in LAPACK
and tens of microseconds in interpreter overhead.  Evaluating B designs of
one topology at once amortises that overhead — device models evaluate on
``(B, K)`` arrays, companion stamps scatter through one matmul, and the
linear solves run as one batched ``numpy.linalg.solve`` over ``(B, n, n)``.

:class:`SystemStack` holds the value arrays of B same-structure
:class:`~repro.sim.system.MnaSystem` designs (filled column-wise by
:meth:`repro.sim.stamp.StampPlan.stack`, or one restamped snapshot at a
time); :func:`solve_dc_batch` runs :mod:`repro.sim.dc`'s one
continuation ladder — damped Newton, then gmin stepping, then source
stepping — over them, each rung one :func:`_newton_batch` with per-design
convergence masking, so converged designs drop out of the batched linear
algebra while stragglers keep iterating.

Stacked-evaluation contract
---------------------------
A stack is a flat sequence of *slices*, each one a same-structure system
snapshot.  What a slice means is the caller's business:

* **designs** — ``Topology.simulate_batch`` stacks B sizings of one
  topology (one slice per design);
* **designs × corners** — :class:`~repro.pex.extraction.PexSimulator`
  stacks every PVT corner of every design, *corner-major* (slice
  ``k * B + i`` is design ``i`` at corner ``k``), records the corner
  count in :attr:`SystemStack.n_corners`, and reduces the measured spec
  arrays worst-case over the corner axis;
* **mismatch samples** — Monte Carlo stacks perturbed instances of one
  sizing (one slice per draw).

All three ride the same ``(B·K, n, n)`` damped-Newton solve and the same
stacked measurement layer.  Per-slice metadata captured when a slice is
filled — simulation temperature, resistor values and their
thermal-noise constants — lets batched measurements (AC, step response,
noise) run without ever re-binding the template system to an individual
slice.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from repro.circuits.mosfet import (
    DeviceArrays,
    eval_companion_ids_batch,
    eval_ids_batch,
)
from repro.sim import dc
from repro.sim.sparse import SparseSlice
from repro.sim.system import MnaSystem, StructureMismatch
from repro.units import BOLTZMANN


class SystemStack:
    """Same-structure MNA system snapshots stacked into batch arrays.

    Filled column-wise from a :class:`~repro.sim.stamp.StampPlan`, or by
    restamping one template :class:`MnaSystem` per slice and snapshotting
    its value arrays (:meth:`set_design`); the (shared) structure —
    terminal maps, scatter matrices, sizes — is referenced from the
    template.

    ``n_designs`` counts *slices*.  A multi-corner stack flattens the
    (design, corner) grid corner-major into ``n_designs = B * K`` slices
    and records ``n_corners = K`` so the caller can reduce spec arrays
    over the corner axis (see the module docstring for the contract).

    Besides the ``G/C/b`` value arrays, each slice carries measurement
    metadata: the slice's simulation temperature, and the resistance and
    thermal-noise PSD constant ``4 k T / R`` of every resistor —
    everything the batched measurement layer needs that is not derivable
    from the matrices alone.

    The device constants live in one preallocated ``(13, B, K)``
    :class:`~repro.circuits.mosfet.DeviceArrays` bank, :attr:`dev` (None
    for circuits without MOSFETs); :meth:`set_design` copies the slice's
    ``(13, K)`` block into it, the column-wise fill computes all blocks
    at once.  Like ``G``/``C``/``b``, the bank is refilled in place when
    a stack is snapshotted again (the scalar measurement path keeps one
    one-slice stack per topology), so its views must not outlive the
    evaluation that reads them.
    """

    def __init__(self, template: MnaSystem, n_designs: int,
                 n_corners: int = 1):
        if n_designs < 1:
            raise ValueError("SystemStack needs at least one design")
        if n_corners < 1 or n_designs % n_corners:
            raise ValueError(
                f"corner axis {n_corners} does not divide {n_designs} slices")
        n = template.size
        self.template = template
        self.size = n
        self.n_nodes = template.n_nodes
        self.n_designs = n_designs
        self.n_corners = n_corners
        #: Sparse-engine stacks copy each slice's stamped master-pattern
        #: ``.data`` (``(B, nnz)`` rows) instead of dense ``(B, n, n)``
        #: matrices; dense consumers go through :meth:`G_rows`/:meth:`C_rows`,
        #: which reconstruct on demand (cheap at the sizes where they run).
        self.sparse = bool(getattr(template, "sparse", False))
        if self.sparse:
            nnz = template.sparse_state.nnz
            self.G = self.C = None
            self.G_pat = np.empty((n_designs, nnz))
            self.C_pat = np.empty((n_designs, nnz))
        else:
            self.G = np.empty((n_designs, n, n))
            self.C = np.empty((n_designs, n, n))
        self.b_dc = np.empty((n_designs, n))
        self.b_ac = np.empty((n_designs, n), dtype=complex)
        self.temperatures = np.empty(n_designs)
        K = len(template._terms_pad)
        self.dev = DeviceArrays.empty(n_designs, K) if K else None
        # Structure-fixed resistor noise topology: (R, 2) node-index pairs
        # (-1 marks ground, as in node_index) plus per-slice PSD constants.
        names = template.resistor_names
        index, netlist = template.node_index, template.netlist
        self.noise_res_names: tuple[str, ...] = names
        self.noise_res_idx = np.asarray(
            [(index[netlist[name].p], index[netlist[name].n])
             for name in names], dtype=np.intp).reshape(-1, 2)
        self.noise_res_psd = np.empty((n_designs, len(names)))
        #: Per-slice resistance of every resistor (same column order as
        #: ``noise_res_names``); the measurement pipeline reads element
        #: values (e.g. the TIA's feedback resistor for noise referral)
        #: from here instead of re-binding netlists.
        self.noise_res_r = np.empty((n_designs, len(names)))

    def set_design(self, i: int, system: MnaSystem) -> None:
        """Snapshot ``system``'s current values as slice ``i``; raises
        :class:`~repro.sim.system.StructureMismatch` when a sparse stack's
        slice does not share the template's master pattern."""
        if system.size != self.size:
            raise ValueError("system size does not match the stack")
        if self.sparse:
            st, tpl = system.sparse_state, self.template.sparse_state
            if st is not tpl and not (
                    np.array_equal(st.indices, tpl.indices)
                    and np.array_equal(st.indptr, tpl.indptr)):
                raise StructureMismatch(
                    f"netlist {system.netlist.title!r} does not share the "
                    f"sparsity pattern of the stack template "
                    f"{self.template.netlist.title!r}")
            self.G_pat[i] = system._sparse_G_data()
            self.C_pat[i] = system._sparse_C_data()
        else:
            self.G[i] = system.G
            self.C[i] = system.C
        self.b_dc[i] = system.b_dc
        self.b_ac[i] = system.b_ac
        self.temperatures[i] = system.temperature
        names = system.resistor_names
        if names is self.noise_res_names or names == self.noise_res_names:
            self.noise_res_r[i] = system.resistor_values
        else:
            self.noise_res_r[i] = [system.netlist[name].resistance
                                   for name in self.noise_res_names]
        np.divide(4.0 * BOLTZMANN * system.temperature, self.noise_res_r[i],
                  out=self.noise_res_psd[i])
        if self.dev is not None:
            self.dev.data[:, i] = system.device_arrays.data

    def resistances(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Per-slice resistance of resistor ``name`` for slices ``rows``.

        The batched measurement layer's element-value accessor: spec
        extraction that needs a component value (e.g. noise referral
        through a feedback resistor) reads the value captured when the
        slice was filled instead of requiring per-slice sizing dicts — so
        every slice of every stack is measurable stacked.
        """
        try:
            col = self.noise_res_names.index(name)
        except ValueError:
            raise KeyError(f"stack has no resistor {name!r}") from None
        return self.noise_res_r[rows, col]

    def G_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), n, n)`` conductance matrices of ``rows``
        (a view for dense stacks, a reconstruction for sparse ones)."""
        if not self.sparse:
            return self.G[rows]
        return self.template.sparse_state.densify(self.G_pat[rows])

    def C_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), n, n)`` capacitance matrices of ``rows``."""
        if not self.sparse:
            return self.C[rows]
        return self.template.sparse_state.densify(self.C_pat[rows])


@dataclasses.dataclass
class BatchDcResult:
    """Per-design outcome of a batched DC solve.

    On a converged row ``residual_norm`` is ‖F‖∞ at the row's
    convergence test, an upper bound on the residual of the returned
    (polished) ``x``, as :class:`~repro.sim.dc.OperatingPoint`'s is.
    """

    x: np.ndarray               # (B, n) solution vectors
    converged: np.ndarray       # (B,) bool
    iterations: np.ndarray      # (B,) int — Newton iterations consumed
    residual_norm: np.ndarray   # (B,) float — |F|∞ at the test (see above)


def _kcl_residual(stack: SystemStack, G: np.ndarray, b: np.ndarray,
                  Xa: np.ndarray, ids: np.ndarray | None,
                  source_scale: float, gmin: float) -> np.ndarray:
    """``F = G x - s b + ids @ _res_map (+ gmin x on node rows)`` for
    stacked rows ``Xa`` with conductances ``G``, excitations ``b`` and
    signed device currents ``ids`` (None without MOSFETs)."""
    F = (G @ Xa[..., None])[..., 0] - source_scale * b
    if ids is not None:
        F += ids @ stack.template._res_map
    if gmin > 0.0:
        F[:, :stack.n_nodes] += gmin * Xa[:, :stack.n_nodes]
    return F


def _residual_batch(stack: SystemStack, X: np.ndarray, idx: np.ndarray,
                    source_scale: float, gmin: float) -> np.ndarray:
    """Stacked KCL residuals of designs ``idx`` at solutions ``X[idx]``
    (a current-only device pass of their own)."""
    Xa = X[idx]
    ids = None
    if stack.dev is not None:
        Xp = np.concatenate([Xa, np.zeros((len(idx), 1))], axis=1)
        V = Xp[:, stack.template._terms_pad]
        ids = eval_ids_batch(stack.dev.take(idx), V)
    return _kcl_residual(stack, stack.G[idx], stack.b_dc[idx], Xa, ids,
                         source_scale, gmin)


def _solve_active(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve with per-design singularity isolation.

    Returns ``(X_new, singular_mask)``; singular designs get their input
    row back unchanged and are flagged.
    """
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0], np.zeros(
            len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        bad = np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = 0.0
                bad[i] = True
        return out, bad


def _newton_batch(stack: SystemStack, X: np.ndarray, idx: np.ndarray,
                  gmin: float, source_scale: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on designs ``idx``; updates ``X`` rows in place.

    Returns ``(converged, iterations, fnorm)`` aligned with ``idx`` —
    the batched counterpart of ``repro.sim.dc._newton`` (same settings,
    read from :mod:`repro.sim.dc` at call time), with converged designs
    dropping out of the stacked linear solve.

    A design whose step falls below ``_VTOL`` owes a residual test at its
    new iterate.  The test is folded into the next iteration's device
    pass, which evaluates the companion model at exactly that iterate
    anyway: :func:`~repro.circuits.mosfet.eval_companion_ids_batch` also
    returns the current-only ``ids`` (bitwise :func:`eval_ids_batch`), and
    ``F``'s ``ids @ _res_map`` product runs over exactly the owing rows,
    so every decision is the one a separate residual pass would make.
    Converged, stagnant designs then leave before assembly and solve;
    :func:`_residual_batch` runs only for the final residual of designs
    that never converge.

    Like the scalar driver, designs that pass the residual gate stay in
    the batch for up to ``dc._POLISH_ITERS`` extra polish rounds (skipped
    once their step is below ``dc._POLISH_STAG``), which pins each endpoint
    to the root at machine precision: solves of the same design seeded
    from the sizing trajectory, from the canonical grid-centre operating
    point and from zeros agree to <= 1e-9 in the measured specs.  A
    polish round can only tighten an already-converged design, never
    un-converge it.  ``dc._MAX_ITER`` bounds the converging iterations
    only: a test owed after the last of them, and the polish rounds it
    earns, run after it.
    """
    max_iter, vtol, itol = dc._MAX_ITER, dc._VTOL, dc._ITOL
    damping = dc._DAMPING
    tpl = stack.template
    n, n1 = stack.size, stack.size + 1
    B = len(idx)
    converged = np.zeros(B, dtype=bool)
    dead = np.zeros(B, dtype=bool)        # singular-matrix designs
    iterations = np.zeros(B, dtype=np.int64)
    fnorm = np.full(B, np.inf)
    polish = np.full(B, -1, dtype=np.int64)  # -1: converging; >=0: rounds left
    owed = np.zeros(B, dtype=bool)        # residual test due at X[idx]
    owed_step = np.zeros(B)               # the step that made it due
    active = np.arange(B)                 # positions into idx
    diag = np.arange(stack.n_nodes)
    # Per-round work buffers, sliced to the active count (the active set
    # only shrinks); the per-design operands are re-subset only when it
    # changes.
    A_buf = np.empty((B, n1, n1))
    rhs_buf = np.empty((B, n1))
    Xp_buf = np.zeros((B, n1))
    scatter_buf = np.empty((B, n1 * n1))
    has_dev = stack.dev is not None
    dev_act = stack.dev.take(idx) if has_dev else None
    G_act = stack.G[idx]
    b_act = stack.b_dc[idx]
    for it in itertools.count(1):
        a = len(active)
        if a == 0:
            break
        rows = idx[active]
        Xa = X[rows]
        if has_dev:
            Xp = Xp_buf[:a]
            Xp[:, :n] = Xa
            V = Xp[:, tpl._terms_pad]                       # (a, K, 4)
            i_d, g, ids = eval_companion_ids_batch(dev_act, V)
        test = owed[active]
        if test.any():
            loc = np.nonzero(test)[0]
            sub = active[loc]
            F = _kcl_residual(stack, G_act[loc], b_act[loc], Xa[loc],
                              ids[loc] if has_dev else None,
                              source_scale, gmin)
            fn = np.abs(F).max(axis=1)
            owed[sub] = False
            fnorm[sub] = fn
            good = fn < itol
            leave = loc[:0]
            if good.any():
                converged[sub[good]] = True
                stag = ((owed_step[sub[good]] < dc._POLISH_STAG)
                        if dc._POLISH_ITERS > 0
                        else np.ones(int(good.sum()), dtype=bool))
                polish[sub[good][~stag]] = dc._POLISH_ITERS
                # Converged at the floor: leave before assembly.
                leave = loc[good][stag]
            if it > max_iter:
                # Past the cap a failed test ends the row too.
                leave = np.concatenate((leave, loc[~good]))
            if len(leave):
                keep = np.ones(a, dtype=bool)
                keep[leave] = False
                active = active[keep]
                a = len(active)
                if a == 0:
                    break
                rows, Xa = idx[active], Xa[keep]
                G_act, b_act = G_act[keep], b_act[keep]
                if has_dev:
                    dev_act = dev_act.take(keep)
                    V, i_d, g = V[keep], i_d[keep], g[keep]
        A = A_buf[:a]
        # The core is overwritten below; only the padding strips (which
        # accumulate ground-terminal scatter adds) need re-zeroing.
        A[:, n, :] = 0.0
        A[:, :, n] = 0.0
        A[:, :n, :n] = G_act
        rhs = rhs_buf[:a]
        rhs[:, n] = 0.0
        rhs[:, :n] = source_scale * b_act
        if has_dev:
            prod = np.matmul(g.reshape(a, -1), tpl.newton_g_map,
                             out=scatter_buf[:a])
            flat = A.reshape(a, -1)
            np.add(flat, prod, out=flat)
            i_eq = i_d - (g * V).sum(-1)
            rhs += i_eq @ tpl._newton_i_map
        if gmin > 0.0:
            A[:, diag, diag] += gmin
        x_new, singular = _solve_active(A[:, :n, :n], rhs[:, :n])
        iterations[active] = it
        shrunk = False
        if singular.any():
            # A design whose Jacobian degenerates *during polish* is
            # already converged — drop it from the batch, keep the
            # pre-polish iterate; only pre-convergence singularity kills.
            sing_rows = active[singular]
            dead[sing_rows[polish[sing_rows] < 0]] = True
            ok_rows = ~singular
            active = active[ok_rows]
            x_new, Xa = x_new[ok_rows], Xa[ok_rows]
            rows = idx[active]
            shrunk = True
            if len(active) == 0:
                break
        dx = x_new - Xa
        step = np.abs(dx).max(axis=1)
        over = step > damping
        if over.any():
            dx[over] *= (damping / step[over])[:, None]
        X[rows] = Xa + dx
        drop = np.zeros(len(active), dtype=bool)
        polishing = polish[active] >= 0
        if polishing.any():
            pol_rows = active[polishing]
            polish[pol_rows] -= 1
            finished = ((polish[pol_rows] < 0)
                        | (step[polishing] < dc._POLISH_STAG))
            drop[np.nonzero(polishing)[0][finished]] = True
        check = (step < vtol) & ~polishing
        if check.any():
            owed[active[check]] = True
            owed_step[active[check]] = step[check]
        if it >= max_iter:
            # Past the cap only owed tests and polish rounds run.
            drop |= ~(check | polishing)
        if drop.any():
            active = active[~drop]
            shrunk = True
        if shrunk:
            # Active set shrank: re-subset the per-round operands.
            G_act = stack.G[idx[active]]
            b_act = stack.b_dc[idx[active]]
            if has_dev:
                dev_act = stack.dev.take(idx[active])
    # Final residuals for non-converged, non-dead designs.
    left = ~converged & ~dead
    if left.any():
        F = _residual_batch(stack, X, idx[left], source_scale, gmin)
        fnorm[left] = np.abs(F).max(axis=1)
    return converged, iterations, fnorm


def solve_dc_batch(stack: SystemStack,
                   x0: np.ndarray | None = None) -> BatchDcResult:
    """Find the DC operating points of every design in ``stack``.

    Runs :func:`repro.sim.dc.solve_dc`'s continuation ladder over all
    designs at once: plain damped Newton first, then gmin stepping for
    the failures, then source stepping for whatever is left.  Dense
    stacks run each rung as one masked :func:`_newton_batch`; sparse
    stacks run the scalar driver design by design on
    :class:`~repro.sim.sparse.SparseSlice` views (large systems are
    device-bound, not dispatch-bound), so each converged row is bitwise
    the scalar solve of its design.  Designs that fail every strategy
    are reported with ``converged=False`` (callers map them to
    pessimistic failure measurements, exactly like the scalar path maps
    :class:`~repro.errors.ConvergenceError`).
    """
    B, n = stack.n_designs, stack.size
    if x0 is None:
        X = np.zeros((B, n))
    else:
        X = np.array(x0, dtype=float)
        if X.shape != (B, n):
            raise ValueError(f"x0 has shape {X.shape}, expected {(B, n)}")
    if stack.sparse:
        stage = dc._row_stage([SparseSlice(stack, i) for i in range(B)], X)
    else:
        def stage(rows, gmin, source_scale):
            return _newton_batch(stack, X, rows, gmin, source_scale)
    converged, iterations, fnorm = dc._ladder(stage, X)
    return BatchDcResult(x=X, converged=converged, iterations=iterations,
                         residual_norm=fnorm)
