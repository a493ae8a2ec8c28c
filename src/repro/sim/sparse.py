"""Sparse (SuperLU) companion of the dense MNA machinery.

The dense engine expresses every per-device stamp as a matmul against
precomputed dense scatter maps and solves ``(n, n)`` (or stacked
``(B, n, n)``) systems with LAPACK.  Both choices stop scaling a little
past a hundred unknowns: the maps cost ``O(K n^2)`` memory and the solves
``O(n^3)`` time, while a post-PEX mesh or an RC-interconnect chain is
structurally ``O(n)`` sparse.

This module keeps the *element* stamping code intact — an
:class:`~repro.sim.system.MnaSystem` on a sparse leg replays exactly the
same ``Element.stamp`` calls, but its stamper adds each entry straight
into a master-pattern ``.data`` vector (through :attr:`SparseState.pos`),
so no ``(n, n)`` array exists behind the sparse legs:

* :class:`SparseState` — built once per MNA *structure* (the sparse
  mirror of the dense scatter maps).  It computes one **master sparsity
  pattern** in CSC order: the union of every linear element stamp
  (recorded by replaying ``Element.stamp`` against a pattern-recording
  stamper), every MOSFET companion/small-signal/capacitance stamp, and
  the full diagonal.  All sparse matrices of the structure — DC Newton
  Jacobians, small-signal ``G_ss``/``C_ss``, AC operators
  ``G + j w C``, transient iteration matrices — share this one pattern,
  so per-sizing work reduces to refreshing ``.data`` vectors in place:
  an ``O(nnz)`` copy of the frozen base plus the variable elements'
  stamps, and ``O(K)`` scatter-adds of the device quantities through
  precomputed position indices.
* :class:`SparseSlice` — the values of one design of a sparse
  :class:`~repro.sim.batch.SystemStack` (its ``G`` data, ``b_dc`` and
  device bank) behind the ``newton_matrices``/
  ``residual`` surface of :class:`MnaSystem`.  It assembles through the
  stack template's own sparse Newton and residual code, so the scalar
  Newton driver solves each stacked design exactly as it solves the
  restamped system of that design.
* Factorisations are :func:`scipy.sparse.linalg.splu` objects.  An AC
  sweep factors each frequency point once and reuses the factors for
  forward solves *and* the noise adjoint (``A^T y = e`` via
  ``trans="T"``) — the system memoises the factor list per
  (operating point, frequency grid), so a measurement's gain sweep and
  noise referral share one set of LUs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp
from scipy.sparse.linalg import splu as _splu

from repro.errors import AnalysisError


class _PatternStamper:
    """Records *where* elements stamp, ignoring the stamped values.

    Element stamps write unconditionally (values may be zero, positions
    may not change across sizings — that is the structure contract the
    restamp fast path already relies on), so replaying ``stamp`` once
    against this recorder yields the exact structural sparsity pattern.
    """

    def __init__(self, system):
        self._system = system
        self.g: set[tuple[int, int]] = set()
        self.c: set[tuple[int, int]] = set()

    def node(self, name: str) -> int:
        """Node name to MNA row index (ground maps to -1)."""
        return self._system.node_index[name]

    def branch(self, element) -> int:
        """Branch-current element to its auxiliary-row index."""
        return self._system.branch_index[element.name]

    def add_g(self, i: int, j: int, value: float) -> None:
        """Record a conductance-stamp position (values ignored)."""
        if i >= 0 and j >= 0:
            self.g.add((i, j))

    def add_c(self, i: int, j: int, value: float) -> None:
        """Record a capacitance-stamp position (values ignored)."""
        if i >= 0 and j >= 0:
            self.c.add((i, j))

    def add_b_dc(self, i: int, value: float) -> None:
        """Source stamps don't touch the matrix pattern — ignored."""

    def add_b_ac(self, i: int, value: float) -> None:
        """Source stamps don't touch the matrix pattern — ignored."""


class SparseState:
    """Structure-cached sparse assembly state of one :class:`MnaSystem`.

    Built once per structure (alongside the node ordering and terminal
    maps); restamps never touch it.  See the module docstring for the
    master-pattern design.
    """

    def __init__(self, system, netlist=None):
        n = system.size
        self.n = n
        self.n_nodes = system.n_nodes

        rec = _PatternStamper(system)
        if netlist is None:
            netlist = system.netlist
        for element in netlist:
            if not element.is_nonlinear:
                element.stamp(rec)
        entries = set(rec.g) | set(rec.c)
        entries.update((i, i) for i in range(n))

        terms = system._terms_pad  # (K, 4) with ground routed to n == size
        for d, g, s, b in terms:
            d, g, s, b = int(d), int(g), int(s), int(b)
            for row in (d, s):
                if row >= n:
                    continue
                for col in (d, g, s, b):
                    if col < n:
                        entries.add((row, col))
            for i, j in ((g, s), (g, d), (d, b), (s, b)):
                if i < n:
                    entries.add((i, i))
                if j < n:
                    entries.add((j, j))
                if i < n and j < n:
                    entries.add((i, j))
                    entries.add((j, i))

        rows, cols = (np.array(sorted(entries), dtype=np.intp).reshape(-1, 2).T
                      if entries else
                      (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)))
        pattern = _sp.csc_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n))
        pattern.sum_duplicates()
        pattern.sort_indices()
        coo = pattern.tocoo()
        #: Master-pattern coordinates in CSC data order (densify).
        self.pat_rows = coo.row.astype(np.intp)
        self.pat_cols = coo.col.astype(np.intp)
        self.indices = pattern.indices.copy()
        self.indptr = pattern.indptr.copy()
        # Every master-pattern matrix shares these two arrays, so they are
        # read-only: an in-place structural operation on one matrix
        # (``eliminate_zeros``, ``sum_duplicates``) raises ValueError
        # instead of rewriting the pattern under every later solve.
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        self.nnz = pattern.nnz
        pos = {(int(r), int(c)): k
               for k, (r, c) in enumerate(zip(self.pat_rows, self.pat_cols))}
        #: ``(row, col) -> data position``: the sparse stamper's target.
        self.pos = pos
        self._diag_pos = np.array([pos[(i, i)] for i in range(n)],
                                  dtype=np.intp)
        #: Positions of the node-diagonal entries (gmin stamping).
        self.node_diag_pos = self._diag_pos[:self.n_nodes]

        # Device scatter indices: (data position, source index into the
        # flattened device-quantity array, sign) triples, mirroring the
        # dense maps of MnaSystem._build_scatter_maps entry for entry.
        nw, ss, cap = [], [], []
        rhs = []
        for k, (d, g, s, b) in enumerate(terms):
            d, g, s, b = int(d), int(g), int(s), int(b)
            for t, col in enumerate((d, g, s, b)):
                if col >= n:
                    continue
                if d < n:
                    nw.append((pos[(d, col)], 4 * k + t, 1.0))
                if s < n:
                    nw.append((pos[(s, col)], 4 * k + t, -1.0))
            if d < n:
                rhs.append((d, k, -1.0))
            if s < n:
                rhs.append((s, k, 1.0))
            # Small-signal stamp of i_d = gm*vgs + gds*vds + gmb*vbs.
            for q, col_q in enumerate((g, d, b)):
                for col, sign in ((col_q, 1.0), (s, -1.0)):
                    if col >= n:
                        continue
                    if d < n:
                        ss.append((pos[(d, col)], 3 * k + q, sign))
                    if s < n:
                        ss.append((pos[(s, col)], 3 * k + q, -sign))
            for t, (i, j) in enumerate(((g, s), (g, d), (d, b), (s, b))):
                if i < n:
                    cap.append((pos[(i, i)], 4 * k + t, 1.0))
                if j < n:
                    cap.append((pos[(j, j)], 4 * k + t, 1.0))
                if i < n and j < n:
                    cap.append((pos[(i, j)], 4 * k + t, -1.0))
                    cap.append((pos[(j, i)], 4 * k + t, -1.0))

        def _split(triples):
            if not triples:
                z = np.empty(0, dtype=np.intp)
                return z, z.copy(), np.empty(0)
            p, src, sign = zip(*triples)
            return (np.array(p, dtype=np.intp), np.array(src, dtype=np.intp),
                    np.array(sign))

        self._nw_pos, self._nw_src, self._nw_sign = _split(nw)
        self._rhs_pos, self._rhs_src, self._rhs_sign = _split(rhs)
        self._ss_pos, self._ss_src, self._ss_sign = _split(ss)
        self._cap_pos, self._cap_src, self._cap_sign = _split(cap)
        self._block_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- data plumbing -------------------------------------------------------
    def matrix(self, data: np.ndarray):
        """CSC matrix over the master pattern with the given ``.data``
        (sharing the read-only ``indices``/``indptr``)."""
        return _sp.csc_matrix((data, self.indices, self.indptr),
                              shape=(self.n, self.n))

    def densify(self, data: np.ndarray) -> np.ndarray:
        """Dense ``(..., n, n)`` matrices from ``(..., nnz)`` data rows.

        The bridge for dense-only consumers (stacked measurement, the
        ``G``/``C`` attributes of a sparse system) running against sparse
        data; cheap at the small sizes where those paths are used.
        """
        out = np.zeros(data.shape[:-1] + (self.n, self.n))
        out[..., self.pat_rows, self.pat_cols] = data
        return out

    # -- assembly ------------------------------------------------------------
    def newton_data(self, G_data: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``G + J_nl`` data: linear base plus companion conductances
        ``g`` (shape ``(K, 4)``) scattered through the position indices."""
        data = G_data.copy()
        if self._nw_pos.size:
            np.add.at(data, self._nw_pos,
                      self._nw_sign * g.reshape(-1)[self._nw_src])
        return data

    def add_rhs_currents(self, rhs: np.ndarray, i_eq: np.ndarray) -> None:
        """Scatter-add per-device equivalent currents into a RHS vector."""
        if self._rhs_pos.size:
            np.add.at(rhs, self._rhs_pos,
                      self._rhs_sign * i_eq[self._rhs_src])

    def ss_data(self, G_data: np.ndarray, C_data: np.ndarray,
                g3: np.ndarray, c4: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Small-signal ``(G_ss, C_ss)`` data from linear bases plus the
        stacked ``(gm, gds, gmb)`` / capacitance stamp values."""
        Gd = G_data.copy()
        if self._ss_pos.size:
            np.add.at(Gd, self._ss_pos, self._ss_sign * g3[self._ss_src])
        return Gd, self.cap_data(C_data, c4)

    def cap_data(self, C_data: np.ndarray, c4: np.ndarray) -> np.ndarray:
        """``C`` data including device capacitances ``c4`` (flattened)."""
        Cd = C_data.copy()
        if self._cap_pos.size:
            np.add.at(Cd, self._cap_pos, self._cap_sign * c4[self._cap_src])
        return Cd

    # -- factorisation -------------------------------------------------------
    def lu(self, data: np.ndarray):
        """``splu`` factorisation of the master-pattern matrix ``data``;
        None when the matrix is singular (callers treat it like a failed
        dense factorisation)."""
        try:
            return _splu(self.matrix(data))
        except RuntimeError:
            return None

    def block_pattern(self, F: int) -> tuple[np.ndarray, np.ndarray]:
        """CSC ``(indices, indptr)`` of ``F`` master-pattern blocks
        stacked block-diagonally (cached per ``F``)."""
        cache = self._block_cache
        hit = cache.get(F)
        if hit is not None:
            return hit
        indices = (self.indices[None, :]
                   + (np.arange(F) * self.n)[:, None]).ravel()
        indptr = np.append(
            (self.indptr[None, :-1]
             + (np.arange(F) * self.nnz)[:, None]).ravel(),
            F * self.nnz)
        cache[F] = (indices, indptr)
        return cache[F]

    def sweep_lus(self, G_data: np.ndarray, C_data: np.ndarray,
                  omega: np.ndarray) -> "SweepFactorization":
        """Factor ``G + j w C`` at every sweep frequency.

        Returns the cached-factor object the AC/noise layer memoises per
        operating point; it serves the forward sweep and the noise
        adjoint (``trans="T"``) alike — see :class:`SweepFactorization`.
        """
        return SweepFactorization(self, G_data, C_data, omega)


class SweepFactorization:
    """``splu`` factors of a whole frequency sweep, solved in one call.

    The per-frequency operators share the master pattern, so the sweep
    stacks them into one block-diagonal CSC matrix and factors it with a
    *single* ``splu`` call — SuperLU's per-invocation setup, which
    dwarfs the numeric work of one ~1000-nnz block, is paid once per
    sweep instead of once per frequency (~1.6x on a 37-point sweep of
    the 221-unknown chain).  Fill-in cannot cross block boundaries, so
    the factorisation is exactly the per-frequency one, reordered.

    A singular stacked factorisation (one bad frequency poisons the
    block) falls back to per-frequency factors to produce the precise
    error message.
    """

    def __init__(self, state: SparseState, G_data: np.ndarray,
                 C_data: np.ndarray, omega: np.ndarray):
        self._state = state
        self.F = len(omega)
        self.n = state.n
        data = (G_data[None, :]
                + (1j * omega)[:, None] * C_data[None, :]).ravel()
        indices, indptr = state.block_pattern(self.F)
        A = _sp.csc_matrix((data, indices, indptr),
                           shape=(self.F * self.n, self.F * self.n))
        try:
            self._lu = _splu(A)
        except RuntimeError:
            self._lu = None
            Gc = G_data.astype(complex)
            for w in omega:
                if state.lu(Gc + (1j * w) * C_data) is None:
                    raise AnalysisError(
                        "sparse AC operator is singular at "
                        f"omega = {w:.3e} rad/s")
            raise AnalysisError("sparse AC sweep factorisation failed")

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve all frequency points against one RHS -> ``(F, n)``.

        ``adjoint`` solves ``A^T x = b`` through the same factors (the
        noise adjoint; block-diagonal transpose is per-block transpose).
        """
        rhs = np.tile(np.asarray(b, dtype=complex), self.F)
        trans = "T" if adjoint else "N"
        return self._lu.solve(rhs, trans=trans).reshape(self.F, self.n)


def stack_sweep_factors(stack, rows: np.ndarray, g3: np.ndarray,
                        c4: np.ndarray, omega: np.ndarray
                        ) -> list[SweepFactorization]:
    """Per-design :class:`SweepFactorization` list for sparse stack slices.

    The stacked-measurement primitive of the sparse engine: instead of
    densifying a sparse :class:`~repro.sim.batch.SystemStack` into
    ``(B, n, n)`` operators, each design's small-signal ``.data`` rows are
    assembled on the master pattern (linear base from the stack's
    ``G_pat``/``C_pat`` snapshot plus the device ``g3``/``c4`` stamp
    values, shapes ``(B, 3K)`` / ``(B, 4K)``) and factored with one
    block-diagonal ``splu`` per design — exactly the scalar AC path of
    :meth:`repro.sim.system.MnaSystem.sparse_sweep_lus`, applied slice by
    slice.  Callers memoise the returned factors so the forward sweep and
    the noise adjoint of one measurement share them.
    """
    st = stack.template.sparse_state
    facts = []
    for j, r in enumerate(rows):
        Gd, Cd = st.ss_data(stack.G_pat[r], stack.C_pat[r], g3[j], c4[j])
        facts.append(SweepFactorization(st, Gd, Cd, omega))
    return facts


class SparseSlice:
    """Values of one slice of a sparse
    :class:`~repro.sim.batch.SystemStack`, solved through its template.

    Holds the slice's ``G`` data, ``b_dc`` and device bank.  Assembly is
    the template :class:`~repro.sim.system.MnaSystem`'s own sparse Newton
    and residual code run on these values, so
    :func:`repro.sim.dc.solve_dc` (or the ladder behind
    :func:`~repro.sim.batch.solve_dc_batch`) solves a slice exactly as it
    solves the restamped system of that design.
    """

    def __init__(self, stack, i: int):
        tpl = stack.template
        self.template = tpl
        self.size = tpl.size
        self.n_nodes = tpl.n_nodes
        self.netlist = tpl.netlist
        self.b_dc = stack.b_dc[i]
        self.device_arrays = (stack.dev.take(i) if stack.dev is not None
                              else None)
        self._G_data = stack.G_pat[i]

    def _sparse_G_data(self) -> np.ndarray:
        """Master-pattern data of this slice's ``G`` (read-only use)."""
        return self._G_data

    def newton_matrices(self, x: np.ndarray, gmin: float = 0.0,
                        source_scale: float = 1.0):
        """The template's sparse :meth:`MnaSystem.newton_matrices` on this
        slice's values."""
        return self.template._newton_matrices_sparse(self, x, gmin,
                                                     source_scale)

    def residual(self, x: np.ndarray, source_scale: float = 1.0) -> np.ndarray:
        """The template's :meth:`MnaSystem.residual` on this slice's
        values."""
        return self.template._residual(self, x, source_scale)
