"""Structure-cached stamping: build the MNA system once, restamp per sizing.

A topology's netlist has fixed *structure* across sizings — the same
elements connecting the same nodes — and only element *values* change as an
optimiser moves through the parameter grid.  :class:`StampPlan` exploits
this: the first evaluation builds a full :class:`~repro.sim.system.MnaSystem`
(validation, node ordering, branch allocation, scatter maps); every later
evaluation rebuilds only the netlist (the values mapping) and refreshes the
matrices in place through :meth:`MnaSystem.restamp`.

One plan corresponds to one ``(netlist builder, temperature)`` pair — in
practice one ``(topology, corner, temperature)`` combination.  Plans are
robust to structural drift: if a builder ever returns a netlist whose
structure differs from the cached one (e.g. a parasitic extractor dropping
a zero-valued capacitor for some sizing), the plan transparently rebuilds
the system and re-caches.

Column-wise stacks
------------------
:meth:`StampPlan.stack` fills a :class:`~repro.sim.batch.SystemStack` of
B designs in one vectorised pass instead of B restamps of the cached
system: the plan's updater runs once on a scratch build of the netlist
with ``(B,)`` value columns, every varying linear element stamps once as
a column into all slices, and the device bank is computed from
``(B, K)`` width/length/multiplier matrices.  The fill is
bitwise the per-slice one, and leaves the cached system's
frozen/per-rebind element partition (see
:meth:`~repro.sim.system.MnaSystem.rebind_values`) as B restamps would.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuits import elements
from repro.circuits.mosfet import DeviceArrays, Mosfet
from repro.circuits.netlist import Netlist
from repro.sim.batch import SystemStack
from repro.sim.system import MnaSystem, StructureMismatch, _Stamper
from repro.units import BOLTZMANN, ROOM_TEMPERATURE

#: Builds a sized netlist from physical parameter values.
NetlistBuilder = Callable[[dict[str, float]], Netlist]


class StampPlan:
    """Caches one :class:`MnaSystem`'s structure across sizings.

    Parameters
    ----------
    builder:
        ``values -> Netlist`` callable (``Topology.build``, possibly
        composed with a parasitic extractor).
    temperature:
        Simulation temperature [K] for the cached system.
    updater:
        Optional ``(netlist, values) -> bool`` callable that mutates a
        previously-built netlist's element values in place for a new
        sizing (``Topology.update_netlist``).  When it returns True the
        plan skips the netlist rebuild entirely — the fastest path.
        :meth:`stack` also calls it with ``(B,)`` arrays as values, so
        its value mapping must be elementwise, or it must return False
        for array values (the PEX corner updater, which works on one
        sizing at a time, does).
    engine:
        Optional linear-algebra backend override (``"dense"``/``"sparse"``)
        forwarded to every :class:`MnaSystem` the plan builds; None (the
        default) lets each system resolve ``REPRO_ENGINE`` at build time
        (:mod:`repro.sim.engine`).
    """

    def __init__(self, builder: NetlistBuilder,
                 temperature: float = ROOM_TEMPERATURE,
                 updater=None, engine: str | None = None):
        self.builder = builder
        self.temperature = float(temperature)
        self.updater = updater
        self.engine = engine
        self._system: MnaSystem | None = None
        self._netlist = None
        # Column-fill state of the cached system (see _stack_columns).
        self._scratch: _Scratch | None = None
        self.rebuilds = 0      # structure (re)constructions, for diagnostics
        self.restamps = 0      # fast-path refreshes

    def restamp(self, values: dict[str, float]) -> MnaSystem:
        """Return the plan's system stamped with the sizing ``values``.

        The returned :class:`MnaSystem` is owned by the plan and reused —
        a later call restamps it in place, so callers must extract what
        they need (specs, operating point copies) before re-invoking.
        """
        if (self._system is not None and self.updater is not None
                and self._netlist is not None
                and self._system.netlist is self._netlist
                and self.updater(self._netlist, values)):
            self.restamps += 1
            return self._system.rebind_values()
        netlist = self.builder(values)
        self._netlist = netlist
        return self.restamp_netlist(netlist)

    def restamp_netlist(self, netlist: Netlist) -> MnaSystem:
        """Like :meth:`restamp` for an already-built netlist (used by
        mismatch Monte Carlo, which perturbs netlists directly)."""
        if self._system is not None:
            try:
                self._system.restamp(netlist)
                self.restamps += 1
                return self._system
            except StructureMismatch:
                self._system = None
        self._system = MnaSystem(netlist, temperature=self.temperature,
                                 engine=self.engine)
        self.rebuilds += 1
        return self._system

    def stack(self, values_list, into=None, offset: int = 0,
              n_slices: int | None = None, n_corners: int = 1):
        """Stamp every sizing in ``values_list`` into a
        :class:`~repro.sim.batch.SystemStack` and return it.

        A stack of its own (no ``into``/``n_slices``) from a plan with an
        updater is filled column-wise in one pass (see the module
        docstring).  Every other fill restamps the cached system design
        by design and snapshots it with
        :meth:`~repro.sim.batch.SystemStack.set_design`: plans without an
        updater (whose structure may drift from design to design), corner
        blocks, and plans whose updater declines value columns (the PEX
        corner plans).

        ``into``/``offset`` let multi-plan callers (the corner-stacked PEX
        sweep) fill one shared stack from several plans: the first call
        creates the stack sized ``n_slices`` (default ``len(values_list)``),
        later calls append at ``offset``.
        """
        if (into is None and n_slices is None and self.updater is not None
                and values_list):
            stack = self._stack_columns(values_list, n_corners)
            if stack is not None:
                return stack
        for i, values in enumerate(values_list):
            system = self.restamp(values)
            if into is None:
                into = SystemStack(system, n_slices or len(values_list),
                                   n_corners=n_corners)
            into.set_design(offset + i, system)
        return into

    def _stack_columns(self, values_list, n_corners: int
                       ) -> SystemStack | None:
        """The column-wise fill behind :meth:`stack`; None (nothing
        filled) when the updater declines the value columns or the
        builder's structure no longer matches the cached system.  A
        declined call keeps the scratch build: an updater changes
        values, never structure, and the next call it accepts rewrites
        them all.

        Each frozen element whose stamp key leaves its frozen value in
        some row is demoted where the per-slice loop would demote it:
        at its first such row, in frozen-list order within a row.  The
        rows are filled in segments split at those rows, so the rows
        before a demotion keep the base the per-slice loop stamps them
        on (the summation order of a matrix entry can differ after it).

        The scratch keys are compared with the frozen ones only when a
        linear element was assigned since the last comparison
        (:func:`~repro.circuits.elements.linear_writes` moved): after
        one, every scratch key equals its frozen key (the changed ones
        were demoted), a scratch key changes only through an
        assignment, and the system freezes new keys only from a new
        build of the netlist, whose construction assigns too.  So a
        fill whose updater writes only device sizes skips the scan.
        """
        system = self._system
        if system is None or system.netlist is not self._netlist:
            system = self.restamp(values_list[0])
        scratch = self._scratch
        if scratch is None or scratch.system is not system:
            netlist = self.builder(values_list[0])
            if netlist.structure_signature() != system._signature:
                return None
            scratch = self._scratch = _Scratch(system, netlist)
        B = len(values_list)
        columns = {name: np.array([values[name] for values in values_list])
                   for name in values_list[0]}
        netlist = scratch.netlist
        if not self.updater(netlist, columns):
            return None
        writes = elements.linear_writes()
        moves = []   # (first changed row, frozen-list position, element)
        if writes != scratch.checked_at:
            for p, (element, frozen) in enumerate(zip(system._const_elems,
                                                      system._const_keys)):
                row = _first_change(netlist[element.name].stamp_key(),
                                    frozen)
                if row is not None:
                    moves.append((row, p, element))
            moves.sort(key=lambda move: move[:2])
        stack = SystemStack(system, B, n_corners=n_corners)
        starts = sorted({row for row, _, _ in moves} | {0})
        for start, stop in zip(starts, starts[1:] + [B]):
            moved = {id(element) for row, _, element in moves if row == start}
            if moved:
                system._demote([id(e) in moved for e in system._const_elems])
            _fill_linear(stack, system, netlist, slice(start, stop))
        scratch.checked_at = writes
        stack.temperatures.fill(system.temperature)
        if scratch.resistors:
            for k, resistor in enumerate(scratch.resistors):
                stack.noise_res_r[:, k] = resistor.resistance
            np.divide(4.0 * BOLTZMANN * system.temperature,
                      stack.noise_res_r, out=stack.noise_res_psd)
        if stack.dev is not None:
            devices = scratch.mosfets
            stack.dev.fill_sized(
                scratch.cards, _by_device([d.w for d in devices], B),
                _by_device([d.l for d in devices], B),
                _by_device([d.m for d in devices], B))
        return stack

    @property
    def system(self) -> MnaSystem | None:
        """The cached system (None before the first restamp)."""
        return self._system


class _Scratch:
    """A plan's private build of its netlist, into which the updater
    writes ``(B,)`` value columns, with the element lists the column fill
    reads (in the cached system's order: same structure, same order), the
    devices' cards (an updater writes sizes, never a card), and the
    :func:`~repro.circuits.elements.linear_writes` count at the last
    comparison of its keys with the system's frozen ones (None before
    the first)."""

    def __init__(self, system: MnaSystem, netlist: Netlist):
        self.system = system
        self.netlist = netlist
        self.mosfets = tuple(e for e in netlist if isinstance(e, Mosfet))
        self.resistors = tuple(netlist[name]
                               for name in system.resistor_names)
        self.cards = DeviceArrays.cards(self.mosfets)
        self.checked_at: int | None = None


class _ColumnStamper(_Stamper):
    """:class:`~repro.sim.system._Stamper` over the rows ``rows`` of a
    stack's value arrays: entry ``(i, j)`` lands at ``G[rows, i, j]``
    dense or ``G_pat[rows, pos[i, j]]`` sparse (an entry outside the
    pattern still raises), and an element value that is a ``(B,)``
    column contributes its ``rows`` entries (a float broadcasts)."""

    def __init__(self, system: MnaSystem, stack: SystemStack, rows: slice):
        if stack.sparse:
            G, C, pos = stack.G_pat, stack.C_pat, system.sparse_state.pos
        else:
            G, C, pos = stack.G, stack.C, None
        super().__init__(system, G, C, stack.b_dc, stack.b_ac, pos)
        self._rows = rows
        self._whole = rows == slice(0, stack.n_designs)

    def _at(self, i: int, j: int):
        """Index of entry ``(i, j)`` in the stamped rows."""
        if self._pos is None:
            return self._rows, i, j
        return self._rows, super()._at(i, j)

    def _add(self, target: np.ndarray, value) -> None:
        """Add ``value`` (its ``rows`` entries if a column) into the
        view ``target``."""
        if not self._whole and isinstance(value, np.ndarray):
            value = value[self._rows]
        np.add(target, value, out=target)

    def add_g(self, i: int, j: int, value) -> None:
        """Accumulate ``value`` into ``G[rows, i, j]``."""
        if i >= 0 and j >= 0:
            self._add(self._G[self._at(i, j)], value)

    def add_c(self, i: int, j: int, value) -> None:
        """Accumulate ``value`` into ``C[rows, i, j]``."""
        if i >= 0 and j >= 0:
            self._add(self._C[self._at(i, j)], value)

    def add_b_dc(self, i: int, value) -> None:
        """Accumulate ``value`` into ``b_dc[rows, i]``."""
        if i >= 0:
            self._add(self._b_dc[self._rows, i], value)

    def add_b_ac(self, i: int, value) -> None:
        """Accumulate ``value`` into ``b_ac[rows, i]``."""
        if i >= 0:
            self._add(self._b_ac[self._rows, i], value)


def _fill_linear(stack: SystemStack, system: MnaSystem, netlist: Netlist,
                 rows: slice) -> None:
    """``G``/``C``/``b`` of stack ``rows``: ``system``'s frozen base plus
    each per-rebind element of ``system`` stamped, in order, with the
    values of its namesake in the column-valued ``netlist``."""
    if stack.sparse:
        stack.G_pat[rows] = system._G0
        stack.C_pat[rows] = system._C0
    else:
        stack.G[rows] = system._G0
        stack.C[rows] = system._C0
    stack.b_dc[rows] = system._b_dc0
    stack.b_ac[rows] = system._b_ac0
    stamper = _ColumnStamper(system, stack, rows)
    for element in system._var_elems:
        netlist[element.name].stamp(stamper)


def _by_device(values: list, B: int) -> np.ndarray:
    """``(B, K)`` matrix of one size attribute of K devices, each a float
    or a ``(B,)`` column."""
    out = np.empty((B, len(values)))
    for k, value in enumerate(values):
        out[:, k] = value
    return out


def _first_change(key, frozen) -> int | None:
    """First row at which a stamp key whose values may be ``(B,)``
    columns differs from the scalar key ``frozen`` (0 for a scalar that
    differs), or None when it never does."""
    if type(key) is float:
        return None if key == frozen else 0
    if not isinstance(key, tuple):
        key, frozen = (key,), (frozen,)
    first = None
    for value, ref in zip(key, frozen):
        if isinstance(value, np.ndarray):
            changed = value != ref
            if changed.any():
                row = int(changed.argmax())
                first = row if first is None else min(first, row)
        elif value != ref:
            return 0
    return first
