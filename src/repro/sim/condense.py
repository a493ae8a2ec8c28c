"""Exact static condensation of a system's sizing-invariant R/C interior.

A sizing loop moves only device widths, yet on the power-grid and
RC-interconnect scenarios most MNA unknowns sit in a linear network that
no sizing touches: the ``71 x 71`` supply mesh is 5,037 of the 5,058
unknowns of :class:`~repro.topologies.power_grid.PowerGridOta`, and every
AC sweep used to re-solve it at every frequency point.  This module
eliminates such a network once per structure and frequency grid.  It is
static condensation (a Schur complement), exact up to rounding, not an
approximate model-order reduction:

* **Partition.**  The *interior* is every node touched only by frozen
  resistor and capacitor stamps (elements whose ``stamp_key`` the system
  froze into its base).  The *boundary* is everything else: MOSFET
  terminals, branch rows, the nodes of any other element (sources,
  VCVS, inductors) and the nodes of any variable element.  The *ports*
  are the boundary unknowns with a stamp into the interior.
* **Port correction.**  Per frequency ``w`` the interior block
  ``A_II = G_II + j w C_II`` is factored once (``splu``) and the port
  admittance ``Y(w) = A_PI A_II^-1 A_IP`` is cached on the
  :class:`Condensation`, keyed by the grid's content.
* **Boundary solve.**  Device stamps and sources live on the boundary
  only, so a slice's AC response there solves
  ``(A_BB(w) - Y(w)) x_B = b_B``: a dense system of a few dozen
  unknowns per frequency, one batched ``numpy.linalg.solve`` for the
  whole grid.

DC Newton condenses the same interior
(:meth:`Condensation.newton_operator`).  At ``gmin == 0`` the Jacobian's
interior block is the frozen ``G_II``: device stamps land on boundary
rows only.  So ``G_II`` is factored once per structure, next to
``W = G_II^-1 G_IP`` and ``Y0 = G_IP^T W``.  Each Newton step factors
the dense boundary matrix ``A_BB - Y0`` and solves in delta form from
the Newton iterate, ``x = x0 + K^-1 (rhs - A x0)``, refined against the
full CSC operator until the backward error reaches the rounding plateau
of a direct solve (:data:`PLATEAU_TOL`).  gmin rungs, and every step the
condensation declines, factor the full CSC Jacobian with ``splu``.

The reduction is exact only for slices whose interior equals the one it
was built from.  A stack can hold slices snapshotted from several
systems (the corner-stacked PEX path fills one stack from several
plans), so :func:`condensed_response` and the Newton operator compare
each slice's interior-coupled master-pattern data with the snapshot and
leave any other slice to the full path.  Interior-node responses, noise
(interior resistors are noise sources), the step-response integrator
and :func:`repro.sim.ac.ac_sweep` stay on the full system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu as _splu

from repro.circuits.elements import Capacitor, Resistor
from repro.sim.engine import SPARSE_AUTO_THRESHOLD

# Raw LAPACK: a singular boundary matrix reports ``info > 0`` instead of
# the LinAlgWarning of ``scipy.linalg.lu_factor``.
_DGETRF, _DGETRS = get_lapack_funcs(
    ("getrf", "getrs"), (np.empty((1, 1)), np.empty(1)))

#: Normwise backward error ``|b - A x| / (|A| |x| + |b|)`` at which a
#: condensed Newton step stops refining: the rounding plateau (~n*eps)
#: of a backward-stable direct solve.
PLATEAU_TOL = 1e-15

#: Maximum refinement rounds after a condensed step's first solve.
REFINE_MAX = 3

#: Boundary size from which a system keeps the full path.  The boundary
#: system is solved dense, which beats the sparse full path only below
#: the dense/sparse crossover of :mod:`repro.sim.engine`.
MAX_BOUNDARY = SPARSE_AUTO_THRESHOLD

#: Element types whose frozen stamps may touch the interior.  Exact
#: types, not ``isinstance``: a subclass may stamp differently.
_RC = (Resistor, Capacitor)


def interior_unknowns(system) -> np.ndarray:
    """Sorted node unknowns of ``system`` touched only by frozen resistor
    and capacitor stamps (the condensable interior)."""
    variable = {id(e) for e in system._var_elems}
    boundary = np.zeros(system.n_nodes, dtype=bool)
    index = system.node_index
    for element in system.netlist:
        if type(element) in _RC and id(element) not in variable:
            continue
        for node in element.nodes:
            i = index[node]
            if i >= 0:
                boundary[i] = True
    return np.flatnonzero(~boundary)


def condense(system, previous: "Condensation | None" = None
             ) -> "Condensation | None":
    """The condensation of ``system``'s current interior, or None.

    None on the dense leg, for an empty interior and for a boundary of
    :data:`MAX_BOUNDARY` or more unknowns.  ``previous`` is returned
    unchanged (cached port corrections included) when it still describes
    the same interior with the same data, so a rebuilt base that left
    the interior alone costs no new reduction.
    """
    if not system.sparse:
        return None
    interior = interior_unknowns(system)
    if not interior.size or system.size - interior.size >= MAX_BOUNDARY:
        return None
    if (previous is not None
            and np.array_equal(previous.interior, interior)
            and previous.matches(system._sparse_G_data(),
                                 system._sparse_C_data())):
        return previous
    return Condensation(system, interior)


class Condensation:
    """Interior/boundary split of one sparse system, its cached port
    admittances and its DC Newton factor (see the module docstring).

    Built from the system's current master-pattern data; the
    interior-coupled part of that data is kept as the snapshot
    :meth:`matches` and :meth:`newton_operator` compare slices against.
    """

    def __init__(self, system, interior: np.ndarray):
        st = system.sparse_state
        n = system.size
        inside = np.zeros(n, dtype=bool)
        inside[interior] = True
        rows, cols = st.pat_rows, st.pat_cols
        r_in, c_in = inside[rows], inside[cols]
        G, C = system._sparse_G_data(), system._sparse_C_data()

        #: Sorted interior, boundary and port unknowns.
        self.interior = interior
        self.boundary = np.flatnonzero(~inside)
        ip = np.flatnonzero(r_in & ~c_in)
        self.ports = np.unique(cols[ip])
        self._inside = inside
        #: Position of every unknown inside its own block.
        self._local = np.empty(n, dtype=np.intp)
        self._local[interior] = np.arange(len(interior))
        self._local[self.boundary] = np.arange(len(self.boundary))
        self._port_local = self._local[self.ports]

        # Snapshot of everything the reduction depends on.
        self._ic_pos = np.flatnonzero(r_in | c_in)
        self._G_ic = G[self._ic_pos]
        self._C_ic = C[self._ic_pos]

        # A_II over the master pattern's interior block.  The local
        # numbering is monotone, so the subset stays in CSC order.
        ii = np.flatnonzero(r_in & c_in)
        self._G_ii, self._C_ii = G[ii], C[ii]
        self._ii_rows = self._local[rows[ii]]
        self._ii_ptr = np.concatenate(([0], np.cumsum(np.bincount(
            self._local[cols[ii]], minlength=len(interior)))))
        # Dense interior<-port coupling A_IP (a handful of columns).  Only
        # symmetric R/C stamps touch the interior, so A_PI = A_IP^T.
        port_of = np.full(n, -1, dtype=np.intp)
        port_of[self.ports] = np.arange(len(self.ports))
        shape = (len(interior), len(self.ports))
        self._G_ip, self._C_ip = np.zeros(shape), np.zeros(shape)
        at = (self._local[rows[ip]], port_of[cols[ip]])
        self._G_ip[at], self._C_ip[at] = G[ip], C[ip]
        # Boundary-block positions, scattered into dense (nb, nb) slices.
        self._bb_pos = np.flatnonzero(~r_in & ~c_in)
        self._bb_rows = self._local[rows[self._bb_pos]]
        self._bb_cols = self._local[cols[self._bb_pos]]
        self._ycorr: dict[bytes, np.ndarray | None] = {}
        self._state = st
        self._dc: tuple | None = None
        self._dc_built = False

    def matches(self, G_data: np.ndarray, C_data: np.ndarray) -> bool:
        """Whether master-pattern data carry exactly the interior this
        reduction was built from (the per-slice exactness guard)."""
        p = self._ic_pos
        return (np.array_equal(G_data[p], self._G_ic)
                and np.array_equal(C_data[p], self._C_ic))

    def dc_factor(self) -> tuple | None:
        """``(lu, W, Y0)``: ``splu`` of the frozen ``G_II``, ``W = G_II^-1
        G_IP`` and the DC port correction ``Y0 = G_IP^T W``, computed once
        per condensation.  None when ``G_II`` is singular, which leaves DC
        Newton to the full ``splu`` path."""
        if not self._dc_built:
            self._dc_built = True
            n_in = len(self.interior)
            G_ii = _sp.csc_matrix((self._G_ii, self._ii_rows, self._ii_ptr),
                                  shape=(n_in, n_in))
            try:
                lu = _splu(G_ii, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError:
                return None
            W = lu.solve(self._G_ip)
            self._dc = (lu, W, self._G_ip.T @ W)
        return self._dc

    def newton_operator(self, data: np.ndarray, x0: np.ndarray,
                        gmin: float) -> "CondensedNewton | None":
        """The condensed Newton step over master-pattern Jacobian ``data``
        from iterate ``x0``; None on a gmin rung, when ``data``'s
        interior-coupled entries differ from the snapshot and when
        ``G_II`` is singular (the caller factors the full Jacobian)."""
        if (gmin != 0.0 or not np.array_equal(data[self._ic_pos], self._G_ic)
                or self.dc_factor() is None):
            return None
        return CondensedNewton(self, data, x0)

    def port_correction(self, frequencies) -> np.ndarray | None:
        """``(F, P, P)`` port admittances ``A_PI A_II^-1 A_IP`` over the
        grid, computed once per grid content.  None when ``A_II`` is
        singular at some point, which leaves the grid to the full path."""
        freqs = np.asarray(frequencies, dtype=float)
        key = freqs.tobytes()
        if key in self._ycorr:
            return self._ycorr[key]
        n_in, n_ports = self._G_ip.shape
        Y = np.empty((len(freqs), n_ports, n_ports), dtype=complex)
        try:
            for k, w in enumerate(2.0 * np.pi * freqs):
                A = _sp.csc_matrix(
                    (self._G_ii + (1j * w) * self._C_ii, self._ii_rows,
                     self._ii_ptr), shape=(n_in, n_in))
                A_ip = self._G_ip + (1j * w) * self._C_ip
                lu = _splu(A, permc_spec="MMD_AT_PLUS_A")
                Y[k] = A_ip.T @ lu.solve(A_ip)
        except RuntimeError:
            Y = None
        self._ycorr[key] = Y
        return Y

    def boundary_solve(self, G_data: np.ndarray, C_data: np.ndarray,
                       b: np.ndarray, frequencies, Y: np.ndarray
                       ) -> np.ndarray:
        """``(m, F, nb)`` boundary solutions of ``m`` slices.

        ``G_data``/``C_data`` are ``(m, nnz)`` small-signal master-pattern
        data, ``b`` the ``(m, n)`` excitations and ``Y`` the grid's
        :meth:`port_correction`.  Raises :class:`numpy.linalg.LinAlgError`
        when a boundary system is singular.
        """
        m, nb = len(G_data), len(self.boundary)
        omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        Gb = np.zeros((m, nb, nb))
        Cb = np.zeros((m, nb, nb))
        Gb[:, self._bb_rows, self._bb_cols] = G_data[:, self._bb_pos]
        Cb[:, self._bb_rows, self._bb_cols] = C_data[:, self._bb_pos]
        A = Gb[:, None] + (1j * omega)[None, :, None, None] * Cb[:, None]
        p = self._port_local
        A[:, :, p[:, None], p] -= Y
        rhs = np.broadcast_to(b[:, None, self.boundary, None],
                              (m, len(omega), nb, 1))
        return np.linalg.solve(A, rhs)[..., 0]


class CondensedNewton:
    """One sparse-leg Newton step through a
    :class:`Condensation`: the operator and factor consumed by the
    ``newton_factor`` seam of :func:`repro.sim.dc._lu_factor`."""

    def __init__(self, cond: Condensation, data: np.ndarray,
                 x0: np.ndarray):
        self._cond = cond
        self._data = data
        self._x0 = x0
        self._lu = self._piv = None

    def newton_factor(self) -> "CondensedNewton | None":
        """Factor the dense boundary Schur matrix ``A_BB - Y0``; None when
        it is singular, as ``splu`` reports a singular Jacobian."""
        cond = self._cond
        nb = len(cond.boundary)
        S = np.zeros((nb, nb))
        S[cond._bb_rows, cond._bb_cols] = self._data[cond._bb_pos]
        p = cond._port_local
        S[p[:, None], p] -= cond.dc_factor()[2]
        self._lu, self._piv, info = _DGETRF(S, overwrite_a=True)
        return self if info == 0 else None

    def _apply(self, r: np.ndarray) -> np.ndarray:
        """``K^-1 r`` by block elimination: one ``G_II`` solve, one
        boundary solve."""
        cond = self._cond
        lu, W, _ = cond.dc_factor()
        y = lu.solve(r[cond.interior])
        rb = r[cond.boundary]
        rb[cond._port_local] -= cond._G_ip.T @ y
        xb, _ = _DGETRS(self._lu, self._piv, rb)
        x = np.empty_like(r)
        x[cond.boundary] = xb
        x[cond.interior] = y - W @ xb[cond._port_local]
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` in delta form from the Newton iterate, refined
        on the full operator until the normwise backward error
        ``|b - A x| / (|A| |x| + |b|)`` reaches :data:`PLATEAU_TOL` or
        stops contracting."""
        st = self._cond._state
        A = st.matrix(self._data)
        Anorm = float(np.bincount(st.pat_rows, np.abs(self._data),
                                  minlength=st.n).max())
        bnorm = float(np.max(np.abs(b)))
        x, eta = self._x0, np.inf
        r = b - A @ x
        for _round in range(1 + REFINE_MAX):
            x_new = x + self._apply(r)
            r_new = b - A @ x_new
            denom = Anorm * float(np.max(np.abs(x_new))) + bnorm
            eta_new = float(np.max(np.abs(r_new)))
            if denom > 0.0:
                eta_new /= denom
            if eta_new >= 0.5 * eta:   # contraction stalled: at the plateau
                if eta_new < eta:
                    x = x_new
                break
            x, r, eta = x_new, r_new, eta_new
            if eta <= PLATEAU_TOL:
                break
        return x


def condensed_response(stack, rows: np.ndarray, g3: np.ndarray,
                       c4: np.ndarray, frequencies, idx: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """AC responses of unknown ``idx`` through the stack template's
    condensation.

    ``g3``/``c4`` are the device stamp values of ``rows`` (as for
    :func:`repro.sim.sparse.stack_sweep_factors`).  Returns ``(h,
    left)``: ``(m, F)`` responses, filled for every slice the
    condensation covers, and the mask of slices it does not cover, which
    the caller solves on the full path.  A slice is left over when its
    interior data differ from the snapshot, when ``idx`` is an interior
    node, when the template has no condensation, or when its boundary
    system is singular (so the full path raises its own error).
    """
    m = len(rows)
    h = np.empty((m, len(frequencies)), dtype=complex)
    left = np.ones(m, dtype=bool)
    cond = stack.template.condensation
    if cond is None or cond._inside[idx]:
        return h, left
    sel = np.array([cond.matches(stack.G_pat[r], stack.C_pat[r])
                    for r in rows], dtype=bool)
    if not sel.any():
        return h, left
    Y = cond.port_correction(frequencies)
    if Y is None:
        return h, left
    st = stack.template.sparse_state
    data = [st.ss_data(stack.G_pat[rows[j]], stack.C_pat[rows[j]],
                       g3[j], c4[j]) for j in np.flatnonzero(sel)]
    try:
        x = cond.boundary_solve(np.stack([d[0] for d in data]),
                                np.stack([d[1] for d in data]),
                                stack.b_ac[rows[sel]], frequencies, Y)
    except np.linalg.LinAlgError:
        return h, left
    h[sel] = x[:, :, cond._local[idx]]
    left[sel] = False
    return h, left
