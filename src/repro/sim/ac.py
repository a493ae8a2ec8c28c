"""Small-signal AC analysis.

Solves ``(G + j*2*pi*f*C) x = b_ac`` over a frequency sweep, with the
MOSFETs linearised at a DC operating point.

Two solution strategies, picked automatically:

* **modal** (default) — factor the frequency dependence out once through
  the real eigendecomposition of ``M = G^-1 C``:
  ``x(w) = V diag(1 / (1 + j*w*lambda)) V^-1 G^-1 b``.  One `eig` plus two
  solves replaces one LU *per frequency point*; the result is verified
  against the direct operator at sample frequencies and the code falls
  back transparently when the decomposition is ill-conditioned.
* **direct** — stack ``A[f] = G + j*w*C`` over all frequency points and
  solve in one batched ``numpy.linalg.solve`` call (still far faster than
  a Python loop for the 10–40 unknown systems in this reproduction).

Both paths also come in stacked-design form (leading batch axis): the
batched measurement layer projects them onto one output node through
:func:`ac_node_response_batch`.

Systems on the sparse engine (``system.sparse``; see
:mod:`repro.sim.engine`) bypass both dense strategies: the sweep solves
through per-frequency ``splu`` factorisations of the aligned-pattern
``G_ss + j w C_ss`` operators, memoised per operating point so the noise
adjoint and the gain referral of the same measurement reuse the factors
(:meth:`repro.sim.system.MnaSystem.sparse_sweep_lus`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.linalg import get_lapack_funcs as _get_lapack

from repro.errors import AnalysisError
from repro.sim.dc import OperatingPoint
from repro.sim.system import MnaSystem

#: Modal fast path switch; tests patch it to False to force the direct
#: per-frequency reference solver everywhere.
_MODAL_ENABLED = True

#: Relative residual above which a modal solution is rejected.
_MODAL_RTOL = 1e-7

# Low-overhead LAPACK handles for the single-design modal path: the
# numpy wrappers cost as much as the 10-20 unknown factorisations.
_DGESV = _get_lapack(("gesv",), (np.empty(1),))[0]
_DGEEV = _get_lapack(("geev",), (np.empty(1),))[0]
_ZGESV = _get_lapack(("gesv",), (np.empty(1, dtype=complex),))[0]


def _eig_single(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eig`` for one small real matrix, via dgeev."""
    wr, wi, _, vr, info = _DGEEV(M, compute_vl=0, compute_vr=1,
                                 overwrite_a=False)
    if info != 0:
        raise np.linalg.LinAlgError("dgeev failed")
    if not wi.any():
        return wr.astype(complex), vr.astype(complex)
    # LAPACK packs complex-conjugate eigenvector pairs into adjacent real
    # columns; unpack to match np.linalg.eig's convention.
    lam = wr + 1j * wi
    V = np.empty(M.shape, dtype=complex)
    j = 0
    n = M.shape[0]
    while j < n:
        if wi[j] != 0.0 and j + 1 < n:
            V[:, j] = vr[:, j] + 1j * vr[:, j + 1]
            V[:, j + 1] = vr[:, j] - 1j * vr[:, j + 1]
            j += 2
        else:
            V[:, j] = vr[:, j]
            j += 1
    return lam, V


def log_frequencies(start: float, stop: float, points_per_decade: int = 10) -> np.ndarray:
    """Logarithmic frequency grid, inclusive of both endpoints."""
    if start <= 0 or stop <= start:
        raise AnalysisError(f"bad frequency range [{start}, {stop}]")
    decades = np.log10(stop / start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(start), np.log10(stop), n)


@dataclasses.dataclass
class ACResult:
    """Result of an AC sweep: complex solution vectors over frequency."""

    system: MnaSystem
    frequencies: np.ndarray  # (F,)
    solutions: np.ndarray    # (F, size) complex

    def voltage(self, node: str) -> np.ndarray:
        """Complex small-signal voltage of ``node`` across the sweep."""
        i = self.system.node_index[node]
        if i < 0:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.solutions[:, i]

    def voltage_between(self, p: str, n: str) -> np.ndarray:
        """Differential small-signal voltage v(p) - v(n) across the sweep."""
        return self.voltage(p) - self.voltage(n)

    def magnitude(self, node: str) -> np.ndarray:
        """|v(node)| across the sweep."""
        return np.abs(self.voltage(node))

    def phase_deg(self, node: str, unwrap: bool = True) -> np.ndarray:
        """Phase [degrees] of the node voltage, unwrapped by default."""
        ph = np.angle(self.voltage(node))
        if unwrap:
            ph = np.unwrap(ph)
        return np.degrees(ph)


def _modal_solutions(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                     omega: np.ndarray,
                     cols: np.ndarray | None = None) -> np.ndarray | None:
    """Pole–residue AC solve; shapes ``(..., n, n)`` / ``(..., n)``.

    ``C`` is rank-deficient in any MNA system (most unknowns carry no
    capacitance), which makes the naive ``eig(G^-1 C)`` defective.  The
    Woodbury identity restricts the eigenproblem to C's column space:
    with ``C = C[:, cols] P`` (``P`` selecting C's nonzero columns),

        x(w) = y - j*w * U (I + j*w*S)^-1 P y,
        U = G^-1 C[:, cols],  S = P U,  y = G^-1 b,

    and ``S`` (r x r, r = number of dynamic columns) is generically
    diagonalisable — its eigenvalues are the negated reciprocal poles.

    Returns the stacked solutions ``(..., F, n)`` or None when the
    factorisations fail or produce non-finite values.  Accuracy is *not*
    guaranteed here — callers must verify against the direct operator
    (see :func:`_modal_residual_ok`).
    """
    dec = _modal_decompose(G, C, b, cols)
    if dec is None:
        return None
    y, lam, z, T = dec
    jw = 1j * omega[:, None]                                    # (F, 1)
    weights = jw * z[..., None, :] / (1.0 + jw * lam[..., None, :])
    X = y[..., None, :] - weights @ np.swapaxes(T, -1, -2)      # (..., F, n)
    if not np.all(np.isfinite(X)):
        return None
    return X


def _modal_decompose(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                     cols: np.ndarray | None):
    """Shared factorisation behind the modal solvers.

    Returns ``(y, lam, z, T)`` with ``x(w) = y - j*w * (z/(1+j*w*lam)) T^T``
    (last-axis contraction), or None when a factorisation fails.
    """
    if cols is None:
        # Dynamic columns: fixed by structure, shared across stacked designs.
        cols = np.nonzero(np.abs(C).max(axis=tuple(range(C.ndim - 1))) > 0.0)[0]
    if G.ndim == 3 and G.shape[0] == 1:
        # Batch of one (the scalar measurement path): route through the
        # low-overhead single-design LAPACK handles and re-stack — the
        # numpy wrappers cost as much as the 10-20 unknown factorisations.
        dec = _modal_decompose(G[0], C[0], b[0], cols)
        if dec is None:
            return None
        y, lam, z, T = dec
        return y[None], lam[None], z[None], T[None]
    r = len(cols)
    single = G.ndim == 2
    try:
        if r == 0:
            sol = np.linalg.solve(G, np.stack([b.real, b.imag], axis=-1))
            y = sol[..., 0] + 1j * sol[..., 1]
            shape = y.shape[:-1]
            return (y, np.zeros(shape + (0,)), np.zeros(shape + (0,)),
                    np.zeros(y.shape + (0,)))
        rhs = np.concatenate([C[..., :, cols], b.real[..., :, None],
                              b.imag[..., :, None]], axis=-1)
        if single:
            _, _, sol, info = _DGESV(G, rhs, overwrite_a=False,
                                     overwrite_b=True)
            if info != 0:
                return None
        else:
            sol = np.linalg.solve(G, rhs)
        U = sol[..., :r]                          # (..., n, r)
        y = sol[..., r] + 1j * sol[..., r + 1]    # (..., n)
        S = U[..., cols, :]                       # (..., r, r)
        if single:
            lam, V = _eig_single(np.ascontiguousarray(S))
            _, _, z, info = _ZGESV(V, y[cols], overwrite_a=False,
                                   overwrite_b=False)
            if info != 0:
                return None
        else:
            lam, V = np.linalg.eig(S)
            z = np.linalg.solve(V, (y[..., cols])[..., None])[..., 0]
        T = U @ V                                  # (..., n, r) complex
    except np.linalg.LinAlgError:
        return None
    return y, lam, z, T


def _modal_residual_ok(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                       omega: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Check ``(G + j w C) x = b`` at the sweep endpoints and midpoint.

    Returns a boolean (scalar for unbatched inputs, ``(B,)`` for stacked)
    marking solutions whose worst relative residual is below
    :data:`_MODAL_RTOL`.
    """
    # The modal form is exact at omega -> 0 by construction (x = G^-1 b),
    # so check where C matters: mid-sweep and the top frequency.
    checks = sorted({len(omega) // 2, len(omega) - 1})
    scale = np.abs(b).max(axis=-1) + 1e-300
    w = omega[checks]
    A = G[..., None, :, :] + 1j * w[:, None, None] * C[..., None, :, :]
    r = (A @ X[..., checks, :, None])[..., 0] - b[..., None, :]
    err = np.abs(r).max(axis=-1).max(axis=-1)
    return err <= _MODAL_RTOL * scale


def _direct_solutions(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                      omega: np.ndarray) -> np.ndarray:
    """Batched direct solve of ``(G + j w C) x = b`` over all frequencies."""
    A = G[..., None, :, :] + 1j * omega[:, None, None] * C[..., None, :, :]
    bF = np.broadcast_to(b[..., None, :, None], A.shape[:-1] + (1,))
    return np.linalg.solve(A, bF)[..., 0]


#: Cache of angular-frequency grids keyed by the identity of the frequency
#: array (topologies reuse one grid per measure).  Each entry holds a
#: strong reference to its key array, so an id can never be recycled while
#: the entry is alive, and a hit is confirmed by identity.
_OMEGA_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _omega_jw_for(frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(omega, j*omega[:, None])`` for a sweep grid."""
    hit = _OMEGA_CACHE.get(id(frequencies))
    if hit is not None and hit[0] is frequencies:
        return hit[1], hit[2]
    omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    jw = 1j * omega[:, None]
    if len(_OMEGA_CACHE) > 64:
        _OMEGA_CACHE.clear()
    _OMEGA_CACHE[id(frequencies)] = (frequencies, omega, jw)
    return omega, jw


def _omega_for(frequencies: np.ndarray) -> np.ndarray:
    return _omega_jw_for(frequencies)[0]


def _jw_for(frequencies: np.ndarray) -> np.ndarray:
    return _omega_jw_for(frequencies)[1]


def ac_solutions(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                 frequencies: np.ndarray,
                 cols: np.ndarray | None = None) -> np.ndarray:
    """Solve the small-signal operator over a sweep, modal-first.

    Works for one design (``G`` of shape ``(n, n)``) and for stacked
    designs (``(B, n, n)``); returns ``(F, n)`` / ``(B, F, n)``.
    ``cols`` optionally pins the dynamic (capacitive) columns, which are
    structure-determined and cacheable by the caller.
    """
    omega = _omega_for(frequencies)
    if _MODAL_ENABLED:
        X = _modal_solutions(G, C, b, omega, cols=cols)
        if X is not None:
            ok = _modal_residual_ok(G, C, b, omega, X)
            if np.all(ok):
                return X
            if X.ndim == 3 and np.any(ok):
                # Stacked: redo only the designs that failed verification.
                bad = ~ok
                X[bad] = _direct_solutions(G[bad], C[bad], b[bad], omega)
                return X
    return _direct_solutions(G, C, b, omega)


def ac_node_response(system: MnaSystem, op: OperatingPoint,
                     frequencies: np.ndarray, node: str) -> np.ndarray:
    """Complex small-signal response of one node over the sweep.

    The hot measurement path: most spec extraction needs a single output
    node, so the modal solution is projected onto that node directly —
    the full ``(F, n)`` solution matrix is never materialised.  The
    decomposition is still verified with full residual vectors at two
    sample frequencies; any trouble falls back to :func:`ac_sweep`.
    """
    idx = system.node_index[node]
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("AC sweep needs a non-empty 1-D frequency array")
    if idx < 0:
        return np.zeros(len(frequencies), dtype=complex)
    if not np.any(system.b_ac):
        raise AnalysisError(
            f"netlist {system.netlist.title!r} has no AC excitation "
            "(set ac= on a source)")
    if getattr(system, "sparse", False):
        return _sparse_sweep_solutions(system, op, frequencies)[:, idx]
    if _MODAL_ENABLED:
        G, C = system.small_signal_matrices(op)
        b = system.b_ac
        omega = _omega_for(frequencies)
        dec = _modal_decompose(G, C, b, system.dynamic_columns(C))
        if dec is not None:
            y, lam, z, T = dec
            jw = _jw_for(frequencies)
            weights = (jw * z) / (1.0 + jw * lam)            # (F, r)
            h = y[idx] - weights @ T[idx]
            # Verify with full residual vectors at mid and top frequency;
            # real arithmetic avoids promoting G/C to complex matrices.
            checks = [len(omega) // 2, len(omega) - 1]
            Xc = y - weights[checks] @ T.T                    # (2, n)
            Xr, Xi = Xc.real, Xc.imag
            w = omega[checks][:, None]
            Rr = Xr @ G.T - w * (Xi @ C.T) - b.real
            Ri = Xi @ G.T + w * (Xr @ C.T) - b.imag
            scale = np.abs(b).max() + 1e-300
            err = max(np.abs(Rr).max(), np.abs(Ri).max())
            if err <= _MODAL_RTOL * scale and np.all(np.isfinite(h)):
                return h
    return ac_sweep(system, op, frequencies).voltage(node)


def ac_node_response_batch(G: np.ndarray, C: np.ndarray, b: np.ndarray,
                           frequencies: np.ndarray, node_index: int,
                           cols: np.ndarray | None = None) -> np.ndarray:
    """Stacked single-node AC responses: ``(B, n, n)`` operators ->
    ``(B, F)`` complex node voltages.

    The batched counterpart of :func:`ac_node_response`: one modal
    decomposition per design (all in stacked LAPACK calls), projected onto
    the output node, verified at two sample frequencies; designs failing
    verification are redone with the direct solver.
    """
    omega = _omega_for(frequencies)
    if _MODAL_ENABLED:
        dec = _modal_decompose(G, C, b, cols)
        if dec is not None:
            y, lam, z, T = dec
            jw = 1j * omega[None, :, None]                       # (1, F, 1)
            weights = (jw * z[:, None, :]) / (1.0 + jw * lam[:, None, :])
            Ti = T[:, node_index, :]                             # (B, r)
            h = y[:, None, node_index] - np.einsum(
                "bfr,br->bf", weights, Ti)
            checks = [len(omega) // 2, len(omega) - 1]
            Xc = y[:, None, :] - weights[:, checks] @ np.swapaxes(T, 1, 2)
            A = (G[:, None] + 1j * omega[checks][None, :, None, None]
                 * C[:, None])
            r = (A @ Xc[..., None])[..., 0] - b[:, None, :]
            scale = np.abs(b).max(axis=-1) + 1e-300
            ok = (np.abs(r).max(axis=-1).max(axis=-1) <= _MODAL_RTOL * scale)
            ok &= np.isfinite(h).all(axis=-1)
            if ok.all():
                return h
            bad = ~ok
            h[bad] = _direct_solutions(G[bad], C[bad], b[bad],
                                       omega)[:, :, node_index]
            return h
    return _direct_solutions(G, C, b, omega)[:, :, node_index]


def ac_sweep(system: MnaSystem, op: OperatingPoint,
             frequencies: np.ndarray) -> ACResult:
    """Solve the small-signal system over ``frequencies`` using the
    netlist's AC excitation vector (elements' ``ac`` values)."""
    frequencies = np.asarray(frequencies, dtype=float)
    if frequencies.ndim != 1 or frequencies.size == 0:
        raise AnalysisError("AC sweep needs a non-empty 1-D frequency array")
    if not np.any(system.b_ac):
        raise AnalysisError(
            f"netlist {system.netlist.title!r} has no AC excitation "
            "(set ac= on a source)")
    if getattr(system, "sparse", False):
        solutions = _sparse_sweep_solutions(system, op, frequencies)
        return ACResult(system=system, frequencies=frequencies,
                        solutions=solutions)
    G, C = system.small_signal_matrices(op)
    solutions = ac_solutions(G, C, system.b_ac, frequencies,
                             cols=system.dynamic_columns(C))
    return ACResult(system=system, frequencies=frequencies, solutions=solutions)


def _sparse_sweep_solutions(system: MnaSystem, op: OperatingPoint,
                            frequencies: np.ndarray) -> np.ndarray:
    """``(F, n)`` sweep solutions through the sparse engine's cached
    per-frequency ``splu`` factors."""
    return system.sparse_sweep_lus(op, frequencies).solve(system.b_ac)


def transfer_function(system: MnaSystem, op: OperatingPoint,
                      frequencies: np.ndarray, output: str,
                      output_n: str = "0") -> np.ndarray:
    """Complex transfer function from the netlist's AC excitation to the
    differential voltage ``v(output) - v(output_n)``."""
    result = ac_sweep(system, op, frequencies)
    return result.voltage_between(output, output_n)
