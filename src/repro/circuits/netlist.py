"""Netlist container.

A :class:`Netlist` is an ordered collection of elements plus node
book-keeping.  It validates element name uniqueness on insertion and offers
structural checks (floating nodes, DC-path-to-ground) that the simulator
runs before attempting a solve — mirroring the topology checks a real SPICE
performs at parse time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.circuits.elements import Element
from repro.errors import NetlistError

if TYPE_CHECKING:
    import networkx as nx

#: The global reference node.  ``"gnd"`` is accepted as an alias.
GROUND = "0"


def _canonical(node: str) -> str:
    """``node`` with the ground aliases mapped to :data:`GROUND`."""
    return GROUND if node in (GROUND, "gnd", "GND", "vss!", "0") else node


class Netlist:
    """An ordered, name-indexed collection of circuit elements.

    >>> from repro.circuits import Netlist, Resistor, VoltageSource
    >>> net = Netlist("divider")
    >>> net.add(VoltageSource("V1", "in", "0", dc=1.0))
    >>> net.add(Resistor("R1", "in", "out", 1e3))
    >>> net.add(Resistor("R2", "out", "0", 1e3))
    >>> sorted(net.nodes())
    ['in', 'out']
    """

    def __init__(self, title: str = "untitled"):
        self.title = title
        self._elements: dict[str, Element] = {}

    # -- construction -------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; raises :class:`NetlistError` on duplicate names."""
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        element.nodes = tuple(_canonical(n) for n in element.nodes)
        self._elements[element.name] = element
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements in order."""
        for element in elements:
            self.add(element)

    def remove(self, name: str) -> Element:
        """Remove and return the element called ``name``."""
        try:
            return self._elements.pop(name)
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    # -- access ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        """The elements in insertion order."""
        return iter(self._elements.values())

    def __contains__(self, name: str) -> bool:
        """True when an element is called ``name``."""
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        """The element called ``name``; raises :class:`NetlistError`."""
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    @property
    def elements(self) -> tuple[Element, ...]:
        """The elements in insertion order."""
        return tuple(self._elements.values())

    def nodes(self) -> set[str]:
        """All non-ground node names."""
        result: set[str] = set()
        for element in self:
            result.update(n for n in element.nodes if n != GROUND)
        return result

    def elements_of(self, kind: type) -> list[Element]:
        """All elements that are instances of ``kind`` (in insertion order)."""
        return [e for e in self if isinstance(e, kind)]

    def structure_signature(self) -> tuple:
        """Hashable structural identity of the netlist.

        Two netlists with equal signatures (same element kinds, names and
        node connections, in the same order) assemble into identical MNA
        structures — same node/branch indices, same device terminal maps —
        and differ only in element *values*.  This is what
        :meth:`repro.sim.system.MnaSystem.restamp` checks before refreshing
        matrices in place instead of rebuilding them.
        """
        return tuple((type(e), e.name, e.nodes) for e in self)

    # -- structural checks ------------------------------------------------------
    def connectivity_graph(self, dc_only: bool = False) -> nx.Graph:
        """Graph with one vertex per node and one edge per element terminal
        pair.  With ``dc_only`` the edges are the elements' DC edges
        (:meth:`Element.dc_edges`), the pairs :meth:`validate` checks."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_node(GROUND)
        graph.add_nodes_from(self.nodes())
        for element in self:
            terminals = element.nodes
            pairs = (element.dc_edges() if dc_only
                     else zip(terminals, terminals[1:]))
            for a, b in pairs:
                graph.add_edge(a, b, element=element.name)
        return graph

    def validate(self) -> None:
        """Structural sanity checks; raises :class:`NetlistError` on problems.

        * the netlist must reference the ground node somewhere;
        * every node must have a DC path to ground (else the MNA matrix is
          singular): a chain of the elements' DC edges
          (:meth:`Element.dc_edges`) — resistors, inductors, voltage
          sources and VCVS outputs, MOSFET channels, a VCCS wired as a
          conductance — found with a union-find.  Capacitors, current
          sources, MOSFET gates and bulks and other VCCS outputs are no
          path.
        """
        if not self._elements:
            raise NetlistError(f"netlist {self.title!r} is empty")
        if not any(GROUND in element.nodes for element in self):
            raise NetlistError(f"netlist {self.title!r} never references ground")
        parent: dict[str, str] = {}

        def root(node: str) -> str:
            while parent.setdefault(node, node) != node:
                parent[node] = node = parent[parent[node]]
            return node

        for element in self:
            for a, b in element.dc_edges():
                parent[root(a)] = root(b)
        ground = root(GROUND)
        floating = sorted(n for n in self.nodes() if root(n) != ground)
        if floating:
            raise NetlistError(
                f"netlist {self.title!r}: nodes without a DC path to ground: "
                f"{', '.join(floating)}")

    # -- utility -----------------------------------------------------------------
    def copy(self, title: str | None = None) -> "Netlist":
        """Shallow copy: the elements are shared, so an in-place value
        update (every ``StampPlan`` updater assigns element values)
        through either netlist shows in both."""
        clone = Netlist(title or self.title)
        for element in self:
            clone._elements[element.name] = element
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Netlist({self.title!r}, {len(self)} elements, {len(self.nodes())} nodes)"
