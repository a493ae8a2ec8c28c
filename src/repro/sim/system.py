"""Modified nodal analysis (MNA) system assembly.

:class:`MnaSystem` turns a :class:`~repro.circuits.netlist.Netlist` into
numpy matrices (dense, or master-pattern CSC data on the sparse legs):

* ``G`` — conductance matrix (linear elements only),
* ``C`` — capacitance/inductance matrix,
* ``b_dc`` / ``b_ac`` — DC and AC excitation vectors,

with one unknown per non-ground node plus one per voltage-defined branch
(voltage sources, VCVS, inductors).  Nonlinear devices (MOSFETs) are not in
``G``; each Newton iteration stamps their companion model through
:meth:`MnaSystem.newton_matrices`.

Structure versus values
-----------------------
Construction is split into two layers so that fixed-structure/varying-value
workloads (every sizing loop in this reproduction) never pay the structural
cost twice:

* **structure** — netlist validation, node ordering, branch allocation,
  MOSFET terminal resolution and the precomputed *scatter maps* described
  below.  Built once in ``__init__``.
* **values** — the ``G/C/b`` entries and the stacked per-device constants
  (:class:`~repro.circuits.mosfet.DeviceArrays`).  Refreshed in place by
  :meth:`MnaSystem.restamp` for any netlist with the same structure
  signature (same elements, same nodes — only element values changed).

Scatter maps
------------
All per-device stamping in the Newton/small-signal hot paths is expressed
as dense linear maps from stacked device quantities to flattened matrix
entries (one matmul instead of a Python loop of scalar ``+=``): the
companion conductances ``g`` of all K devices scatter into the Jacobian via
a precomputed ``(4K, (n+1)^2)`` matrix, currents into the RHS via
``(K, n+1)``, and similarly for small-signal ``gm/gds/gmb`` and device
capacitances.  Ground terminals are routed to a padding row/column that is
sliced away, which removes every per-entry ``if index >= 0`` branch.

The schematic circuits in this reproduction have 5–40 unknowns, so dense
linear algebra (and dense scatter maps) is both simpler and faster than
sparse there — but post-PEX mesh netlists and the RC-interconnect chain
scenarios reach hundreds of unknowns, where both stop scaling.  Each
system therefore carries an *engine* flag (:mod:`repro.sim.engine`,
``REPRO_ENGINE=auto|dense|sparse``): sparse systems stamp the
live values and the frozen base straight into ``.data`` vectors over the
structure-cached CSC pattern of :class:`repro.sim.sparse.SparseState`
(one fixed sparsity pattern per structure), factor their Newton/AC/
transient operators on it and hold no ``(n, n)`` array (``G``/``C`` are
densified on access, and the large dense scatter maps are lazy for the
same reason).  Their gmin-0 DC Newton steps solve through the system's
condensation (:mod:`repro.sim.condense`) where that is exact; every
other Newton step and every sweep factors with ``splu``.
"""

from __future__ import annotations

import numpy as np

from repro.circuits import elements
from repro.circuits.elements import Element, Resistor
from repro.circuits.mosfet import (
    _TERMINAL_MAP as _TERM_MAP,
    _forward_core_ws,
    ChannelWorkspace,
    DeviceArrays,
    Mosfet,
    MosfetState,
    channel_current_batch,
    channel_ids_batch,
    eval_companion_batch,
    eval_companion_ws,
    eval_ids_batch,
    state_arrays_batch,
    terminal_voltages_batch,
)
from repro.circuits.netlist import GROUND, Netlist
from repro.errors import NetlistError
from repro.sim import sparse as sparse_engine
from repro.sim.condense import Condensation, condense
from repro.sim.engine import resolve_engine
from repro.units import ROOM_TEMPERATURE


class StructureMismatch(NetlistError):
    """A netlist has a different structure (element names/kinds/nodes, or
    the sparsity pattern its stamps need) than the one a system or stack
    was built from."""


class _Stamper:
    """Accumulates element stamps into an :class:`MnaSystem`'s arrays:
    entry ``(i, j)`` lands at ``G[i, j]`` on the dense leg and at
    ``G[pos[i, j]]`` of the master-pattern data on the sparse legs, where
    an entry outside the pattern raises (it is never dropped)."""

    def __init__(self, system: "MnaSystem", G: np.ndarray, C: np.ndarray,
                 b_dc: np.ndarray, b_ac: np.ndarray,
                 pos: dict[tuple[int, int], int] | None = None):
        self._system = system
        self._G = G
        self._C = C
        self._b_dc = b_dc
        self._b_ac = b_ac
        self._pos = pos

    def node(self, name: str) -> int:
        """Index of node ``name`` (``-1`` for ground)."""
        return self._system.node_index[name]

    def branch(self, element: Element) -> int:
        """Index of ``element``'s branch-current unknown."""
        return self._system.branch_index[element.name]

    def _at(self, i: int, j: int):
        """Where entry ``(i, j)`` lives in the stamped arrays."""
        if self._pos is None:
            return i, j
        if (i, j) not in self._pos:
            raise StructureMismatch(f"stamp ({i}, {j}) of netlist "
                                    f"{self._system.netlist.title!r} lies "
                                    "outside its sparsity pattern")
        return self._pos[i, j]

    def add_g(self, i: int, j: int, value: float) -> None:
        """Accumulate ``value`` into ``G[i, j]`` (ground skipped)."""
        if i >= 0 and j >= 0:
            self._G[self._at(i, j)] += value

    def add_c(self, i: int, j: int, value: float) -> None:
        """Accumulate ``value`` into ``C[i, j]`` (ground skipped)."""
        if i >= 0 and j >= 0:
            self._C[self._at(i, j)] += value

    def add_b_dc(self, i: int, value: float) -> None:
        """Accumulate ``value`` into ``b_dc[i]`` (ground skipped)."""
        if i >= 0:
            self._b_dc[i] += value

    def add_b_ac(self, i: int, value: float) -> None:
        """Accumulate ``value`` into ``b_ac[i]`` (ground skipped)."""
        if i >= 0:
            self._b_ac[i] += value


class MnaSystem:
    """MNA matrices and index maps for one netlist at one temperature.

    Parameters
    ----------
    netlist:
        The circuit.  It is validated (ground reference, DC paths) on
        construction.
    temperature:
        Simulation temperature [K]; used by noise analyses and available to
        elements.
    engine:
        ``"dense"``/``"sparse"`` force a linear-algebra backend; None (the
        default) resolves ``REPRO_ENGINE`` at construction time — see
        :mod:`repro.sim.engine`.  Sparse systems stamp ``G``/``C`` into
        master-pattern data vectors of :class:`repro.sim.sparse.SparseState`
        and factor their solves there; their ``G``/``C`` attributes are
        read-only dense copies made on each access.

    Re-stamping
    -----------
    :meth:`restamp` refreshes ``G/C/b`` (and the stacked device constants)
    in place from another netlist with the identical structure — the fast
    path for sizing loops, where only element values change between
    evaluations.
    """

    def __init__(self, netlist: Netlist, temperature: float = ROOM_TEMPERATURE,
                 engine: str | None = None):
        netlist.validate()
        self.temperature = float(temperature)
        self._signature = netlist.structure_signature()

        self.node_index: dict[str, int] = {GROUND: -1}
        for i, node in enumerate(sorted(netlist.nodes())):
            self.node_index[node] = i
        self.n_nodes = len(self.node_index) - 1

        self.branch_index: dict[str, int] = {}
        next_index = self.n_nodes
        for element in netlist:
            if element.has_branch:
                self.branch_index[element.name] = next_index
                next_index += 1
        self.size = next_index

        mosfets = tuple(e for e in netlist if isinstance(e, Mosfet))
        for mosfet in mosfets:
            for node in mosfet.nodes:
                if node not in self.node_index:
                    raise NetlistError(
                        f"mosfet {mosfet.name} references unknown node {node!r}")
        # Pre-resolve terminal indices for the Newton hot loop.  -1 marks
        # ground in _mos_terms (the historical convention, still used by the
        # stacked noise analysis); _terms_pad routes ground to the padding
        # slot.
        self._mos_terms = np.array(
            [[self.node_index[m.d], self.node_index[m.g],
              self.node_index[m.s], self.node_index[m.b]]
             for m in mosfets], dtype=np.intp).reshape(len(mosfets), 4)
        self._terms_pad = np.where(self._mos_terms < 0, self.size,
                                   self._mos_terms)
        self._build_scatter_maps()

        #: Resolved engine leg: "dense" or "sparse".
        self.engine = resolve_engine(self.size, engine)
        #: True when assembly routes through the CSC master pattern.
        self.sparse = self.engine == "sparse"
        self.sparse_state = (sparse_engine.SparseState(self, netlist)
                             if self.sparse else None)

        n1 = self.size + 1
        if self.sparse:
            shape, pos = (self.sparse_state.nnz,), self.sparse_state.pos
        else:
            shape, pos = (self.size, self.size), None
            self._A_pad = np.zeros((n1, n1))
            self._Aflat_buf = np.empty(n1 * n1)
            self._Gss_pad = np.zeros((n1, n1))
            self._Css_pad = np.zeros((n1, n1))
        # Stamped values: (n, n) on the dense leg, pattern data on sparse.
        self._G = np.zeros(shape)
        self._C = np.zeros(shape)
        self.b_dc = np.zeros(self.size)
        self.b_ac = np.zeros(self.size, dtype=complex)
        self._stamper = _Stamper(self, self._G, self._C, self.b_dc,
                                 self.b_ac, pos)
        # Frozen stamp of the sizing-invariant elements (see _bind).
        self._G0 = np.zeros(shape)
        self._C0 = np.zeros(shape)
        self._b_dc0 = np.zeros_like(self.b_dc)
        self._b_ac0 = np.zeros_like(self.b_ac)
        self._base_stamper = _Stamper(self, self._G0, self._C0,
                                      self._b_dc0, self._b_ac0, pos)
        #: Names of the netlist's resistors in netlist order (structural)
        #: and their current resistances (see :meth:`_rebuild_base`).
        self.resistor_names: tuple[str, ...] = tuple(
            e.name for e in netlist if isinstance(e, Resistor))
        self.resistor_values = np.empty(len(self.resistor_names))

        self._rhs_pad = np.zeros(n1)
        self._x_pad = np.zeros(n1)
        self._diag = np.arange(self.n_nodes)
        K = len(self._terms_pad)
        self._ws = ChannelWorkspace(K) if K else None
        self._V_buf = np.empty((K, 4))
        self._rhs_buf = np.empty(n1)
        self._dyn_cols: np.ndarray | None = None
        self._ss_memo: tuple | None = None  # (op, G_ss, C_ss) of last call
        self._g3_buf = np.empty((K, 3))
        self._c4_buf = np.empty((K, 4))

        self._condensation: Condensation | None = None
        self._condensation_stale = True
        self._base_synced = False  # G/C/b equal the frozen base
        self._ss_sparse_memo: tuple | None = None  # (op, G_csc, C_csc)
        self._sp_lu_memo: tuple | None = None      # (op, freqs, [splu])

        self._bind(netlist)

    # -- structure ----------------------------------------------------------
    def _build_scatter_maps(self) -> None:
        """Precompute the small dense device-quantity -> entry maps.

        The ``O(K n)`` maps (RHS currents, KCL residuals) are always
        built; the ``O(K n^2)`` matrix scatter maps are *lazy* — see
        :attr:`newton_g_map` — because the sparse engine replaces them
        with index-based scatters and must never pay their memory.
        """
        n1 = self.size + 1
        K = len(self._terms_pad)
        newton_i = np.zeros((K, n1))
        res = np.zeros((K, self.size))
        for k in range(K):
            d, g, s, b = (int(i) for i in self._terms_pad[k])
            newton_i[k, d] -= 1.0
            newton_i[k, s] += 1.0
            if d < self.size:
                res[k, d] += 1.0
            if s < self.size:
                res[k, s] -= 1.0
        self._newton_i_map = newton_i
        self._res_map = res
        self._newton_g_map_: np.ndarray | None = None
        self._ss_map_: np.ndarray | None = None
        self._cap_map_: np.ndarray | None = None

    @property
    def newton_g_map(self) -> np.ndarray:
        """``(4K, (n+1)^2)`` dense companion-conductance scatter map.

        Built on first use and cached: the dense Newton hot path needs it
        immediately, the sparse engine never does."""
        if self._newton_g_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            newton_g = np.zeros((4 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                for t, col in enumerate((d, g, s, b)):
                    newton_g[4 * k + t, d * n1 + col] += 1.0
                    newton_g[4 * k + t, s * n1 + col] -= 1.0
            self._newton_g_map_ = newton_g
        return self._newton_g_map_

    @property
    def ss_map(self) -> np.ndarray:
        """``(3K, (n+1)^2)`` dense small-signal (gm/gds/gmb) scatter map
        (lazy, like :attr:`newton_g_map`)."""
        if self._ss_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            ss = np.zeros((3 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                # Small-signal stamp of i_d = gm*vgs + gds*vds + gmb*vbs.
                for col, sign in ((g, 1.0), (s, -1.0)):          # gm
                    ss[3 * k + 0, d * n1 + col] += sign
                    ss[3 * k + 0, s * n1 + col] -= sign
                for col, sign in ((d, 1.0), (s, -1.0)):          # gds
                    ss[3 * k + 1, d * n1 + col] += sign
                    ss[3 * k + 1, s * n1 + col] -= sign
                for col, sign in ((b, 1.0), (s, -1.0)):          # gmb
                    ss[3 * k + 2, d * n1 + col] += sign
                    ss[3 * k + 2, s * n1 + col] -= sign
            self._ss_map_ = ss
        return self._ss_map_

    @property
    def cap_map(self) -> np.ndarray:
        """``(4K, (n+1)^2)`` dense device-capacitance scatter map (lazy,
        like :attr:`newton_g_map`)."""
        if self._cap_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            cap = np.zeros((4 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                for t, (i, j) in enumerate(((g, s), (g, d), (d, b), (s, b))):
                    cap[4 * k + t, i * n1 + i] += 1.0
                    cap[4 * k + t, j * n1 + j] += 1.0
                    cap[4 * k + t, i * n1 + j] -= 1.0
                    cap[4 * k + t, j * n1 + i] -= 1.0
            self._cap_map_ = cap
        return self._cap_map_

    def _bind(self, netlist: Netlist) -> None:
        """Point the system at ``netlist``'s values: refresh the stacked
        device constants and re-stamp every linear element.

        Elements advertising a :meth:`Element.stamp_key` are assumed
        *constant* until a key change is observed; their combined stamp is
        frozen into base matrices so a steady-state rebind re-stamps only
        the handful of elements a sizing actually varies.  The frozen keys
        are taken at the current :func:`~repro.circuits.elements.linear_writes`
        count, which :meth:`rebind_values` compares against.
        """
        self.netlist = netlist
        self.mosfets: tuple[Mosfet, ...] = tuple(
            e for e in netlist if isinstance(e, Mosfet))
        # Nonlinear devices stamp nothing linear (their whole contribution
        # is the Newton companion model), so value stamping skips them.
        self._linear = tuple(e for e in netlist if not e.is_nonlinear)
        self._resistors = tuple(e for e in self._linear
                                if isinstance(e, Resistor))
        self._const_elems: list = []
        self._const_keys: list = []   # stamp keys, aligned with _const_elems
        self._var_elems: list = []
        for element in self._linear:
            key = element.stamp_key()
            if key is None:
                self._var_elems.append(element)
            else:
                self._const_elems.append(element)
                self._const_keys.append(key)
        self._keys_checked_at = elements.linear_writes()
        self._rebuild_base()
        self._refresh_values()

    def _rebuild_base(self) -> None:
        """Stamp the currently-constant elements into the base matrices
        and refill :attr:`resistor_values` (which also invalidates
        :attr:`condensation`)."""
        self._base_synced = False
        self._condensation_stale = True
        self._G0.fill(0.0)
        self._C0.fill(0.0)
        self._b_dc0.fill(0.0)
        self._b_ac0.fill(0.0)
        for element in self._const_elems:
            element.stamp(self._base_stamper)
        self.resistor_values[:] = [e.resistance for e in self._resistors]
        const = {id(e) for e in self._const_elems}
        self._var_resistors = [(k, e) for k, e in enumerate(self._resistors)
                               if id(e) not in const]

    def _refresh_values(self) -> None:
        """Recompute everything value-dependent from the bound netlist.

        Without variable linear elements ``G/C/b`` equal the frozen base
        once copied, so later refreshes skip the copy until the base is
        rebuilt.
        """
        self._dev = (DeviceArrays.from_mosfets(self.mosfets)
                     if self.mosfets else None)
        self._ss_memo = None
        self._ss_sparse_memo = None
        self._sp_lu_memo = None
        if self._base_synced:
            return
        np.copyto(self._G, self._G0)
        np.copyto(self._C, self._C0)
        np.copyto(self.b_dc, self._b_dc0)
        np.copyto(self.b_ac, self._b_ac0)
        for element in self._var_elems:
            element.stamp(self._stamper)
        for k, element in self._var_resistors:
            self.resistor_values[k] = element.resistance
        self._base_synced = not self._var_elems

    def restamp(self, netlist: Netlist) -> "MnaSystem":
        """Refresh ``G/C/b`` in place from a same-structure netlist.

        Skips validation, node sorting and index/scatter-map construction —
        the per-sizing cost is reduced to value stamping.  Raises
        :class:`StructureMismatch` when the netlist's structure signature
        differs (callers fall back to a fresh :class:`MnaSystem`).
        """
        if netlist.structure_signature() != self._signature:
            raise StructureMismatch(
                f"netlist {netlist.title!r} does not match the structure "
                f"this MnaSystem was built from")
        self._bind(netlist)
        return self

    def rebind_values(self) -> "MnaSystem":
        """Refresh matrices and device constants after the *currently bound*
        netlist's element values were mutated in place.

        The fastest restamp path: no netlist rebuild, no signature check,
        no element re-collection — used by topologies that support
        in-place sizing updates (:meth:`Topology.update_netlist`).  An
        element whose :meth:`~Element.stamp_key` changed is demoted from
        the frozen base to the per-rebind stamp list (one-time cost).

        Element values are assigned, never mutated in place, so a frozen
        key can change only through an assignment to a linear element,
        and every such assignment advances
        :func:`~repro.circuits.elements.linear_writes`.  The frozen keys
        are therefore compared only when that count has moved since they
        were frozen or last compared: a restamp whose updater writes only
        MOSFET sizes (the power-grid mesh's) never touches the frozen
        list.  When it has moved, one list comparison of all frozen keys
        covers the common case and the per-element scan runs only when
        it fails.  (The comparison takes an identical key object as
        equal; element constructors reject the NaN values where that
        differs from ``!=``.)"""
        writes = elements.linear_writes()
        if writes != self._keys_checked_at and (
                [e.stamp_key() for e in self._const_elems]
                != self._const_keys):
            self._demote([e.stamp_key() != key for e, key
                          in zip(self._const_elems, self._const_keys)])
        self._keys_checked_at = writes
        self._refresh_values()
        return self

    def _demote(self, changed) -> None:
        """Move the frozen elements flagged in ``changed`` (aligned with
        ``_const_elems``) to the end of the per-rebind stamp list, in
        frozen-list order, and rebuild the base without them."""
        keep, keys = [], []
        for element, key, moved in zip(self._const_elems, self._const_keys,
                                       changed):
            if moved:
                self._var_elems.append(element)
            else:
                keep.append(element)
                keys.append(key)
        if len(keep) < len(self._const_elems):
            self._const_elems, self._const_keys = keep, keys
            self._rebuild_base()

    @property
    def G(self) -> np.ndarray:
        """Conductance matrix: the stamped array on the dense leg; on the
        sparse legs a read-only dense copy of the pattern data, for tests
        and the dense bridges (no sparse hot path reads it)."""
        return self._dense(self._G)

    @property
    def C(self) -> np.ndarray:
        """Capacitance matrix of the linear elements (see :attr:`G`)."""
        return self._dense(self._C)

    def _dense(self, values: np.ndarray) -> np.ndarray:
        """``values`` itself on the dense leg; on the sparse legs a
        read-only dense copy of the pattern data ``values``."""
        if not self.sparse:
            return values
        out = self.sparse_state.densify(values)
        out.flags.writeable = False
        return out

    @property
    def device_arrays(self) -> DeviceArrays | None:
        """Stacked per-MOSFET constants (None for linear-only circuits)."""
        return self._dev

    @property
    def condensation(self) -> Condensation | None:
        """Exact condensation of the sizing-invariant R/C interior onto
        the boundary (:mod:`repro.sim.condense`); None on the dense leg
        and for systems without an interior.

        Built on first use and invalidated with the frozen base (a
        demotion or a new netlist); a rebuilt base that left the interior
        unchanged keeps the old reduction and its cached grids.
        """
        if self._condensation_stale:
            self._condensation = condense(self, self._condensation)
            self._condensation_stale = False
        return self._condensation

    def dynamic_columns(self, C_ss: np.ndarray) -> np.ndarray:
        """Nonzero (capacitive) columns of the small-signal C matrix.

        The sparsity pattern is structure-determined, so it is computed
        once and reused across restamps; the modal AC solver's residual
        verification guards against the (pathological) case of a sizing
        growing the pattern.
        """
        if self._dyn_cols is None:
            self._dyn_cols = np.nonzero(
                np.abs(C_ss).max(axis=0) > 0.0)[0]
        return self._dyn_cols

    # -- voltage access ------------------------------------------------------
    def voltage_getter(self, x: np.ndarray):
        """Return a ``node name -> voltage`` callable over solution vector ``x``."""
        index = self.node_index

        def get(node: str) -> float:
            i = index[node]
            return 0.0 if i < 0 else float(x[i])

        return get

    def _terminal_voltages(self, x: np.ndarray) -> np.ndarray:
        """``(K, 4)`` stacked (d, g, s, b) node voltages at solution ``x``.

        Returns a reused buffer, valid until the next call."""
        xp = self._x_pad
        xp[:self.size] = x
        return np.take(xp, self._terms_pad, out=self._V_buf)

    # -- Newton companion assembly ---------------------------------------------
    def newton_matrices(self, x: np.ndarray, gmin: float = 0.0,
                        source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A, rhs)`` of the companion-model linear system.

        Solving ``A x_new = rhs`` performs one Newton step from ``x``:
        ``A = G + J_nl(x) (+ gmin on node diagonals)`` and
        ``rhs = source_scale * b_dc - i_nl(x) + J_nl(x) x``.  All MOSFETs
        are evaluated in one vectorised call and scatter-added through the
        precomputed maps — O(1) Python calls regardless of device count.

        Sparse systems return the condensed step of
        :meth:`~repro.sim.condense.Condensation.newton_operator` where it
        is exact and otherwise ``A`` as a CSC matrix over the structure's
        master pattern instead of a dense array.  The DC Newton driver's
        factorisation layer (:func:`repro.sim.dc._lu_factor`) handles
        every form transparently.
        """
        if self.sparse:
            return self._newton_matrices_sparse(self, x, gmin, source_scale)
        size = self.size
        A = self._A_pad
        A.fill(0.0)
        A[:size, :size] = self._G
        rhs = self._rhs_pad
        rhs[:size] = self.b_dc
        if source_scale != 1.0:
            rhs[:size] *= source_scale
        rhs[size] = 0.0
        if self._dev is not None:
            ws = self._ws
            V = self._terminal_voltages(x)
            i_d, g = eval_companion_ws(self._dev, V, ws)
            flat = A.reshape(-1)
            np.matmul(g.reshape(-1), self.newton_g_map, out=self._Aflat_buf)
            np.add(flat, self._Aflat_buf, out=flat)
            np.multiply(g, V, out=ws.gV)
            np.sum(ws.gV, axis=1, out=ws.i_eq)
            np.subtract(i_d, ws.i_eq, out=ws.i_eq)
            np.matmul(ws.i_eq, self._newton_i_map, out=self._rhs_buf)
            np.add(rhs, self._rhs_buf, out=rhs)
        if gmin > 0.0:
            A[self._diag, self._diag] += gmin
        return A[:size, :size].copy(), rhs[:size].copy()

    def _newton_matrices_sparse(self, values, x: np.ndarray, gmin: float,
                                source_scale: float):
        """Sparse :meth:`newton_matrices`: one master-pattern ``.data``
        assembly (an O(nnz) copy of the stamped ``G`` data + O(K) device
        scatter-adds) instead of a dense ``(n+1)^2`` fill and scatter
        matmul.

        ``values`` supplies the ``G`` data, ``b_dc`` and device bank:
        this system, or a :class:`~repro.sim.sparse.SparseSlice` of a
        stack built on it.
        """
        st = self.sparse_state
        rhs = source_scale * values.b_dc
        dev = values.device_arrays
        if dev is not None:
            ws = self._ws
            V = self._terminal_voltages(x)
            i_d, g = eval_companion_ws(dev, V, ws)
            data = st.newton_data(values._sparse_G_data(), g)
            np.multiply(g, V, out=ws.gV)
            np.sum(ws.gV, axis=1, out=ws.i_eq)
            np.subtract(i_d, ws.i_eq, out=ws.i_eq)
            st.add_rhs_currents(rhs, ws.i_eq)
        else:
            data = values._sparse_G_data().copy()
        if gmin > 0.0:
            data[st.node_diag_pos] += gmin
        cond = self.condensation
        if cond is not None:
            # The condensed step where it is exact (it solves in delta
            # form from the current iterate); everything it declines is
            # the CSC Jacobian, factored by splu.
            x0 = np.array(x[:self.size], dtype=float)
            op = cond.newton_operator(data, x0, gmin)
            if op is not None:
                return op, rhs
        return st.matrix(data), rhs

    def _sparse_G_data(self) -> np.ndarray:
        """Live master-pattern data of ``G``, refreshed in place: callers
        copy it before they mutate it (``newton_data``/``ss_data``/
        ``cap_data`` do)."""
        return self._G

    def _sparse_C_data(self) -> np.ndarray:
        """Live master-pattern data of ``C`` (see :meth:`_sparse_G_data`)."""
        return self._C

    def residual(self, x: np.ndarray, source_scale: float = 1.0) -> np.ndarray:
        """KCL/KVL residual ``F(x) = G x + i_nl(x) - b`` (amps / volts).

        One current-only device evaluation (the workspace forward core
        without derivatives; reverse-biased devices fall back to
        :func:`~repro.circuits.mosfet.channel_ids_batch`).  Sparse-assembly
        systems multiply by the CSC ``G``, never the dense array.
        """
        return self._residual(self, x, source_scale)

    def _residual(self, values, x: np.ndarray,
                  source_scale: float) -> np.ndarray:
        """:meth:`residual` on the values of ``values`` (this system, or a
        :class:`~repro.sim.sparse.SparseSlice` of a stack built on it)."""
        G = (self.sparse_state.matrix(values._sparse_G_data())
             if self.sparse else self._G)
        f = G @ x - source_scale * values.b_dc
        dev, ws = values.device_arrays, self._ws
        if dev is None:
            return f
        V = self._terminal_voltages(x)
        np.multiply(V, dev.sign[:, None], out=ws.Vs)
        np.matmul(ws.Vs, _TERM_MAP, out=ws.V3)
        vgs, vds, vsb = ws.V3[:, 0], ws.V3[:, 1], ws.V3[:, 2]
        if vds.min() < 0.0:
            ids = np.multiply(dev.sign,
                              channel_ids_batch(dev, vgs, vds, vsb),
                              out=ws.i_d)
        else:
            raw, _, _, _ = _forward_core_ws(dev, vgs, vds, vsb, ws,
                                            derivatives=False)
            ids = np.multiply(dev.sign, raw, out=ws.i_d)
        f += ids @ self._res_map
        return f

    def _pack_ss(self, dev, d_vgs, d_vds, d_vsb, sat) -> None:
        """Fill ``_g3_buf``/``_c4_buf`` with the small-signal stamp values:
        clamped (gm, gds, gmb) and the triode/saturation capacitance blend
        (the vectorised mirror of :meth:`Mosfet.capacitances`)."""
        g3, c4 = self._g3_buf, self._c4_buf
        np.maximum(d_vgs, 0.0, out=g3[:, 0])
        np.maximum(d_vds, 0.0, out=g3[:, 1])
        np.abs(d_vsb, out=g3[:, 2])
        np.multiply(dev.c_area, sat / 6.0 + 0.5, out=c4[:, 0])
        np.add(c4[:, 0], dev.c_ov, out=c4[:, 0])
        np.multiply(dev.c_area, 0.5 * (1.0 - sat), out=c4[:, 1])
        np.add(c4[:, 1], dev.c_ov, out=c4[:, 1])
        c4[:, 2] = dev.c_j
        c4[:, 3] = dev.c_j

    # -- operating-point state ---------------------------------------------------
    def mosfet_state_arrays(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """All :class:`MosfetState` fields as ``(K,)`` arrays at solution
        ``x`` — one vectorised evaluation for the whole netlist."""
        return self.state_arrays_for(self._dev, x)

    def state_arrays_for(self, dev: DeviceArrays | None,
                         x: np.ndarray) -> dict[str, np.ndarray]:
        """Like :meth:`mosfet_state_arrays` but for an explicit device
        snapshot — operating points captured before a restamp evaluate
        against the constants they were solved with."""
        if dev is None:
            return {}
        vgs, vds, vsb = terminal_voltages_batch(
            dev, self._terminal_voltages(x))
        return state_arrays_batch(dev, vgs, vds, vsb)

    def mosfet_states(self, x: np.ndarray) -> dict[str, MosfetState]:
        """Per-device :class:`MosfetState` objects at solution ``x``."""
        arrays = self.mosfet_state_arrays(x)
        return self.states_from_arrays(arrays)

    def states_from_arrays(self, arrays: dict[str, np.ndarray]
                           ) -> dict[str, MosfetState]:
        """Materialise :class:`MosfetState` objects from stacked arrays."""
        states: dict[str, MosfetState] = {}
        for k, mosfet in enumerate(self.mosfets):
            states[mosfet.name] = MosfetState(
                **{name: float(col[k]) for name, col in arrays.items()})
        return states

    # -- small-signal assembly ----------------------------------------------------
    def _ss_quantities(self, dev: DeviceArrays,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(g3, c4)`` stacked small-signal stamp values at solution ``x``
        without materialising the full state-array dict."""
        ws = self._ws
        V = self._terminal_voltages(x)
        np.multiply(V, dev.sign[:, None], out=ws.Vs)
        np.matmul(ws.Vs, _TERM_MAP, out=ws.V3)
        vgs, vds, vsb = ws.V3[:, 0], ws.V3[:, 1], ws.V3[:, 2]
        if vds.min() < 0.0:
            cc = channel_current_batch(dev, vgs, vds, vsb)
            self._pack_ss(dev, cc.d_vgs, cc.d_vds, cc.d_vsb, cc.saturation)
        else:
            _, d_vgs, d_vds, d_vsb = _forward_core_ws(dev, vgs, vds, vsb,
                                                      ws, derivatives=True)
            # |tanh| is left in ws.t[5] by the forward core.
            self._pack_ss(dev, d_vgs, d_vds, d_vsb, np.abs(ws.t[5]))
        return self._g3_buf.reshape(-1), self._c4_buf.reshape(-1)

    def small_signal_matrices(self, op) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(G_ss, C_ss)`` with every MOSFET's linearised model stamped
        at the operating point ``op``.

        Memoised for the most recent operating point: AC, step-response and
        noise analyses of one measurement all linearise at the same ``op``.
        Callers must treat the returned matrices as read-only.
        """
        size = self.size
        if self._dev is None:
            return self.G.copy(), self.C.copy()
        if self._ss_memo is not None and self._ss_memo[0] is op:
            return self._ss_memo[1], self._ss_memo[2]
        if self.sparse:
            Gs, Cs = self.small_signal_sparse(op)
            G_ss, C_ss = Gs.toarray(), Cs.toarray()
            self._ss_memo = (op, G_ss, C_ss)
            return G_ss, C_ss
        g3, c4 = self._ss_values_for(op)
        Gp, Cp = self._Gss_pad, self._Css_pad
        Gp.fill(0.0)
        Gp[:size, :size] = self._G
        Gp.reshape(-1)[:] += g3 @ self.ss_map
        Cp.fill(0.0)
        Cp[:size, :size] = self._C
        Cp.reshape(-1)[:] += c4 @ self.cap_map
        G_ss = Gp[:size, :size].copy()
        C_ss = Cp[:size, :size].copy()
        self._ss_memo = (op, G_ss, C_ss)
        return G_ss, C_ss

    def _ss_values_for(self, op) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``(g3, c4)`` small-signal stamp values at ``op``,
        preferring the operating point's materialised state arrays."""
        arrays = getattr(op, "_state_arrays", None)
        if arrays is not None and getattr(op, "system", None) is self:
            g3 = np.stack([arrays["gm"], arrays["gds"], arrays["gmb"]],
                          axis=-1).reshape(-1)
            c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                           arrays["csb"]], axis=-1).reshape(-1)
            return g3, c4
        dev = getattr(op, "_dev", None) or self._dev
        return self._ss_quantities(dev, op.x)

    def small_signal_sparse(self, op):
        """Sparse ``(G_ss, C_ss)`` at ``op`` as aligned CSC matrices.

        Both matrices share the structure's master pattern, so the AC
        layer combines them as ``G.data + j*w*C.data`` without any index
        arithmetic.  Memoised per operating point like the dense path.
        """
        st = self.sparse_state
        memo = self._ss_sparse_memo
        if memo is not None and memo[0] is op:
            return memo[1], memo[2]
        if self._dev is None:
            Gs = st.matrix(self._sparse_G_data().copy())
            Cs = st.matrix(self._sparse_C_data().copy())
        else:
            g3, c4 = self._ss_values_for(op)
            Gd, Cd = st.ss_data(self._sparse_G_data(), self._sparse_C_data(),
                                g3, c4)
            Gs, Cs = st.matrix(Gd), st.matrix(Cd)
        self._ss_sparse_memo = (op, Gs, Cs)
        return Gs, Cs

    def sparse_sweep_lus(self, op, frequencies: np.ndarray
                         ) -> sparse_engine.SweepFactorization:
        """Cached :class:`~repro.sim.sparse.SweepFactorization` of
        ``G_ss + j w C_ss`` over the grid (one block-diagonal ``splu``).

        Memoised per (operating point, frequency-grid object): within one
        measurement the forward AC sweep, the gain referral and the noise
        adjoint all linearise at the same ``op`` over the same grid, so
        every frequency point is factored exactly once.
        """
        memo = self._sp_lu_memo
        if memo is not None and memo[0] is op and memo[1] is frequencies:
            return memo[2]
        Gs, Cs = self.small_signal_sparse(op)
        omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        lus = self.sparse_state.sweep_lus(Gs.data, Cs.data, omega)
        self._sp_lu_memo = (op, frequencies, lus)
        return lus

    # -- transient assembly ------------------------------------------------------
    def conductance(self):
        """``G`` on the system's own leg: the stamped array itself, or on
        the sparse leg a CSC matrix over the master pattern that shares
        the stamped data (never a dense copy, unlike :attr:`G`)."""
        return self.sparse_state.matrix(self._G) if self.sparse else self._G

    def capacitance_at(self, x: np.ndarray):
        """Capacitance matrix with every MOSFET's capacitances evaluated at
        the large-signal solution ``x`` (they vary along a transient
        trajectory), on the system's own leg: a fresh dense array, or a
        CSC matrix over the master pattern."""
        if self._dev is None:
            C = self._C.copy()
        else:
            c4 = self._ss_quantities(self._dev, x)[1]
            if self.sparse:
                C = self.sparse_state.cap_data(self._C, c4)
            else:
                n, n1 = self.size, self.size + 1
                Cp = np.zeros((n1, n1))
                Cp[:n, :n] = self._C
                Cp.reshape(-1)[:] += c4 @ self.cap_map
                C = Cp[:n, :n].copy()
        return self.sparse_state.matrix(C) if self.sparse else C

    def nonlinear_current(self, x: np.ndarray) -> np.ndarray:
        """KCL currents injected by the MOSFETs at large-signal ``x``.

        One vectorised current-only device evaluation scattered through the
        residual map — the transient engine's f(x) assembly.
        """
        if self._dev is None:
            return np.zeros(self.size)
        V = self._terminal_voltages(x)
        return eval_ids_batch(self._dev, V) @ self._res_map

    def step_jacobian(self, x: np.ndarray, C, h: float):
        """``(i_nl, C + h/2 (G + J_nl))`` at large-signal ``x``.

        The MOSFET KCL currents and the Jacobian of an implicit step of
        size ``h`` (the transient engine's Newton matrix).  ``C`` is a
        matrix on the system's own leg, such as :meth:`capacitance_at`
        returns.  The device conductances ``J_nl`` scatter through the
        same maps the DC Newton loop uses; the Jacobian is a fresh dense
        array, or a CSC matrix over the master pattern.
        """
        h2 = 0.5 * h
        i_nl, g = np.zeros(self.size), None
        if self._dev is not None:
            i_d, g = eval_companion_batch(self._dev,
                                          self._terminal_voltages(x))
            i_nl = i_d @ self._res_map
        if self.sparse:
            st = self.sparse_state
            data = C.data + h2 * self._G
            if g is not None:
                data = st.newton_data(data, h2 * g)
            return i_nl, st.matrix(data)
        G = self._G
        if g is not None:
            n, n1 = self.size, self.size + 1
            J_nl = (g.reshape(-1) @ self.newton_g_map).reshape(n1, n1)
            G = G + J_nl[:n, :n]
        return i_nl, C + h2 * G

    def noise_source_list(self, op):
        """All noise current sources ``(i_index, j_index, psd_fn)`` at ``op``."""
        sources = []
        for element in self.netlist:
            for p, n, psd in element.noise_sources(op):
                sources.append((self.node_index[p], self.node_index[n], psd))
        return sources
