"""Netlist elements.

Elements are light-weight data objects.  They know how to *stamp* themselves
into a modified-nodal-analysis (MNA) system through the small stamping
protocol defined here; the actual matrices live in :mod:`repro.sim.system`.

Stamping protocol
-----------------
The simulator hands each element a *stamper* object exposing:

``stamper.node(name) -> int``
    Index of a node (ground maps to ``-1`` and is skipped by the add
    methods).
``stamper.branch(element) -> int``
    Index of the element's auxiliary branch current (allocated on demand;
    voltage-defined elements need one).
``stamper.add_g(i, j, value)`` / ``stamper.add_c(i, j, value)``
    Accumulate into the conductance / capacitance matrix.
``stamper.add_b_dc(i, value)`` / ``stamper.add_b_ac(i, value)``
    Accumulate into the DC / AC excitation vectors.

Linear elements implement :meth:`Element.stamp`.  Nonlinear devices (the
MOSFET) additionally set ``is_nonlinear`` and implement
``eval_companion`` — see :mod:`repro.circuits.mosfet`.

Each element also states which node pairs it ties together at DC
(:meth:`Element.dc_edges`); :meth:`repro.circuits.netlist.Netlist.validate`
finds floating nodes from those pairs alone.

Values
------
Element values are assigned, never mutated in place: an update replaces
a float (or, during a column-wise stack fill, a ``(B,)`` array) with
another.  Every attribute assignment on a linear element (``is_nonlinear``
false) advances one process-wide counter, :func:`linear_writes`, except
one that replaces a float with an equal float, which leaves the stamp as
it was (an array or a NaN always counts).
:class:`~repro.sim.system.MnaSystem` freezes the stamps of the linear
elements whose values do not vary and compares their stamp keys again
only once the counter has moved, so assigning to a linear element
reopens the frozen-stamp check, and a restamp whose updater writes only
MOSFET sizes skips it.

Noise
-----
Elements that generate noise implement :meth:`Element.noise_sources`,
returning ``(node_p, node_n, psd_fn)`` triples where ``psd_fn(freq)`` is the
one-sided current-noise power spectral density [A^2/Hz] injected from
``node_n`` into ``node_p``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.errors import NetlistError
from repro.units import BOLTZMANN

NoiseSource = tuple[str, str, Callable[[float], float]]

_linear_writes = 0


def linear_writes() -> int:
    """Number of attribute assignments made on linear elements so far in
    this process (see "Values" in the module docstring).  A caller that
    records it can tell that no linear element value changed while it
    still reads the same number."""
    return _linear_writes


class Element:
    """Base class for every netlist element.

    Parameters
    ----------
    name:
        Unique (per netlist) instance name, e.g. ``"R1"`` or ``"M3"``.
    nodes:
        The node names this element connects to, in element-specific order.
    """

    #: True for devices whose current depends nonlinearly on node voltages.
    is_nonlinear: bool = False

    #: True for elements that add an auxiliary MNA branch-current unknown.
    has_branch: bool = False

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    def __setattr__(self, name: str, value) -> None:
        """Assign, advancing :func:`linear_writes` on a linear element
        unless a float replaces an equal float."""
        global _linear_writes
        if not self.is_nonlinear:
            old = self.__dict__.get(name)
            if not (isinstance(value, float) and isinstance(old, float)
                    and value == old):
                _linear_writes += 1
        object.__setattr__(self, name, value)

    def stamp(self, stamper) -> None:
        """Stamp the element's linear contribution into the MNA system."""
        raise NotImplementedError

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """Node pairs this element ties together at DC.  A node that no
        chain of such pairs links to ground has no DC path (its MNA rows
        are singular).  None by default."""
        return ()

    def stamp_key(self):
        """Hashable snapshot of the values :meth:`stamp` writes.

        The incremental restamp path (``MnaSystem.rebind_values``) freezes
        the stamps of elements whose key never changes across sizings and
        re-stamps only the rest.  ``None`` (the default) means "unknown" —
        the element is always re-stamped, which is safe for any subclass
        that does not override this.  A key must read only the element's
        own attributes: the frozen keys are compared again only after an
        assignment to a linear element (see "Values" in the module
        docstring).
        """
        return None

    def noise_sources(self, op) -> list[NoiseSource]:
        """Return this element's noise current sources at operating point ``op``."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


class TwoTerminal(Element):
    """Convenience base class for two-terminal elements between ``p`` and ``n``."""

    def __init__(self, name: str, p: str, n: str):
        super().__init__(name, (p, n))

    @property
    def p(self) -> str:
        """Positive terminal node name."""
        return self.nodes[0]

    @property
    def n(self) -> str:
        """Negative terminal node name."""
        return self.nodes[1]


class Resistor(TwoTerminal):
    """Linear resistor.  Contributes Johnson (thermal) current noise 4kT/R."""

    def __init__(self, name: str, p: str, n: str, resistance: float):
        super().__init__(name, p, n)
        if not 0.0 < resistance < math.inf:
            raise NetlistError(f"resistor {name}: resistance must be finite and "
                               f"> 0, got {resistance}")
        self.resistance = float(resistance)

    def stamp(self, stamper) -> None:
        """Stamp the conductance ``1/R`` between ``p`` and ``n``."""
        i, j = stamper.node(self.p), stamper.node(self.n)
        g = 1.0 / self.resistance
        stamper.add_g(i, i, g)
        stamper.add_g(j, j, g)
        stamper.add_g(i, j, -g)
        stamper.add_g(j, i, -g)

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """The resistor conducts at DC: ``p``–``n``."""
        return ((self.p, self.n),)

    def stamp_key(self):
        """The resistance."""
        return self.resistance

    def noise_sources(self, op) -> list[NoiseSource]:
        """Johnson noise ``4kT/R`` between ``p`` and ``n``."""
        psd = 4.0 * BOLTZMANN * op.temperature / self.resistance

        def thermal(freq, _psd: float = psd):
            # White: broadcast against scalar or array frequency input.
            return _psd + np.zeros_like(np.asarray(freq, dtype=float))

        return [(self.p, self.n, thermal)]


class Capacitor(TwoTerminal):
    """Linear capacitor (noiseless)."""

    def __init__(self, name: str, p: str, n: str, capacitance: float):
        super().__init__(name, p, n)
        if not 0.0 < capacitance < math.inf:
            raise NetlistError(f"capacitor {name}: capacitance must be finite and "
                               f"> 0, got {capacitance}")
        self.capacitance = float(capacitance)

    def stamp_key(self):
        """The capacitance."""
        return self.capacitance

    def stamp(self, stamper) -> None:
        """Stamp the capacitance between ``p`` and ``n`` into ``C``; a
        capacitor is open at DC, so it has no :meth:`dc_edges`."""
        i, j = stamper.node(self.p), stamper.node(self.n)
        c = self.capacitance
        stamper.add_c(i, i, c)
        stamper.add_c(j, j, c)
        stamper.add_c(i, j, -c)
        stamper.add_c(j, i, -c)


class Inductor(TwoTerminal):
    """Linear inductor.

    Implemented with an auxiliary branch current so that it is a DC short:
    ``v_p - v_n - L di/dt = 0``.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, inductance: float):
        super().__init__(name, p, n)
        if not 0.0 < inductance < math.inf:
            raise NetlistError(f"inductor {name}: inductance must be finite and "
                               f"> 0, got {inductance}")
        self.inductance = float(inductance)

    def stamp_key(self):
        """The inductance."""
        return self.inductance

    def stamp(self, stamper) -> None:
        """Stamp the branch current and ``v_p - v_n - L di/dt = 0``."""
        i, j = stamper.node(self.p), stamper.node(self.n)
        k = stamper.branch(self)
        stamper.add_g(i, k, 1.0)
        stamper.add_g(j, k, -1.0)
        stamper.add_g(k, i, 1.0)
        stamper.add_g(k, j, -1.0)
        stamper.add_c(k, k, -self.inductance)

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """An inductor is a DC short: ``p``–``n``."""
        return ((self.p, self.n),)


class VoltageSource(TwoTerminal):
    """Independent voltage source with a DC value and an AC magnitude.

    The AC magnitude excites small-signal analyses; it does not affect the
    operating point.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0, ac: float = 0.0):
        super().__init__(name, p, n)
        self.dc = float(dc)
        self.ac = float(ac)

    def stamp_key(self):
        """The DC value and the AC magnitude."""
        return (self.dc, self.ac)

    def stamp(self, stamper) -> None:
        """Stamp the branch current, ``v_p - v_n = dc`` and the AC
        excitation."""
        i, j = stamper.node(self.p), stamper.node(self.n)
        k = stamper.branch(self)
        stamper.add_g(i, k, 1.0)
        stamper.add_g(j, k, -1.0)
        stamper.add_g(k, i, 1.0)
        stamper.add_g(k, j, -1.0)
        stamper.add_b_dc(k, self.dc)
        # Unconditional: a column-wise stack fill passes (B,) value
        # arrays, and adding +0.0 to b_ac changes no bit.
        stamper.add_b_ac(k, self.ac)

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """The source fixes ``v_p - v_n``: ``p``–``n``."""
        return ((self.p, self.n),)


class CurrentSource(TwoTerminal):
    """Independent current source pushing current from ``p`` to ``n``
    through the external circuit (i.e. current is extracted from node ``p``
    and injected into node ``n`` — the SPICE convention)."""

    def __init__(self, name: str, p: str, n: str, dc: float = 0.0, ac: float = 0.0):
        super().__init__(name, p, n)
        self.dc = float(dc)
        self.ac = float(ac)

    def stamp_key(self):
        """The DC value and the AC magnitude."""
        return (self.dc, self.ac)

    def stamp(self, stamper) -> None:
        """Stamp the excitation currents; a current source sets a
        current, not a potential, so it has no :meth:`dc_edges`."""
        i, j = stamper.node(self.p), stamper.node(self.n)
        stamper.add_b_dc(i, -self.dc)
        stamper.add_b_dc(j, self.dc)
        stamper.add_b_ac(i, -self.ac)
        stamper.add_b_ac(j, self.ac)


class Vccs(Element):
    """Voltage-controlled current source: ``i(p->n) = gm * (v_cp - v_cn)``.

    Current ``gm * v_ctrl`` flows out of node ``p`` and into node ``n``
    through the source (SPICE G-element convention: current is injected
    into ``p``'s KCL as +gm*v_ctrl leaving the node).
    """

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str, gm: float):
        super().__init__(name, (p, n, cp, cn))
        self.gm = float(gm)

    def stamp_key(self):
        """The transconductance."""
        return self.gm

    def stamp(self, stamper) -> None:
        """Stamp ``gm`` from the control pair into the output rows."""
        i, j = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        k, l = stamper.node(self.nodes[2]), stamper.node(self.nodes[3])
        gm = self.gm
        stamper.add_g(i, k, gm)
        stamper.add_g(i, l, -gm)
        stamper.add_g(j, k, -gm)
        stamper.add_g(j, l, gm)

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """``p``–``n`` when the control pair is the output pair (a
        conductance); otherwise none, so a node the source only drives
        needs a DC path of its own."""
        p, n, cp, cn = self.nodes
        return ((p, n),) if {cp, cn} == {p, n} else ()


class Vcvs(Element):
    """Voltage-controlled voltage source: ``v_p - v_n = gain * (v_cp - v_cn)``.

    Useful for ideal-amplifier testbenches in unit tests.
    """

    has_branch = True

    def __init__(self, name: str, p: str, n: str, cp: str, cn: str, gain: float):
        super().__init__(name, (p, n, cp, cn))
        self.gain = float(gain)

    def stamp_key(self):
        """The voltage gain."""
        return self.gain

    def stamp(self, stamper) -> None:
        """Stamp the branch current and ``v_p - v_n = gain (v_cp - v_cn)``."""
        i, j = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        k, l = stamper.node(self.nodes[2]), stamper.node(self.nodes[3])
        br = stamper.branch(self)
        stamper.add_g(i, br, 1.0)
        stamper.add_g(j, br, -1.0)
        stamper.add_g(br, i, 1.0)
        stamper.add_g(br, j, -1.0)
        stamper.add_g(br, k, -self.gain)
        stamper.add_g(br, l, self.gain)

    def dc_edges(self) -> tuple[tuple[str, str], ...]:
        """The output pair, whose difference the branch equation fixes:
        ``p``–``n`` (the control nodes need paths of their own)."""
        return ((self.nodes[0], self.nodes[1]),)
