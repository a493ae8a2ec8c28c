"""PVT corners for post-layout signoff.

The paper "consider[s] different PVT variations, taking the worst
performing metric as the specification".  A :class:`CornerSpec` bundles a
process corner, a supply-voltage scale and a temperature, and builds any
topology factory at that corner with the factory's own settings intact;
:func:`signoff_corners` returns the standard worst-case trio used by the
PEX flow (typical, slow/hot/low-V, fast/cold/high-V).
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable

from repro.circuits.technology import Corner
from repro.errors import TopologyError
from repro.topologies.base import Topology
from repro.units import ROOM_TEMPERATURE


@dataclasses.dataclass(frozen=True)
class CornerSpec:
    """One PVT point."""

    process: Corner
    vdd_scale: float
    temperature: float
    name: str

    def apply(self, topology_factory: Callable[..., Topology]) -> Topology:
        """Instantiate the topology at this corner.

        The factory — a :class:`Topology` subclass, a compiled zoo
        scenario (:class:`~repro.zoo.loader.CompiledScenario`) or any
        callable taking the ``technology`` / ``corner`` / ``temperature``
        keywords — is called once with no arguments to read its nominal
        technology card, then once more with that card's supply scaled by
        ``vdd_scale`` and this corner's process and temperature.  So the
        corner instance keeps everything else the factory sets
        (constructor arguments, attributes, grids).  A factory that
        cannot take those keywords raises
        :class:`~repro.errors.TopologyError` before anything is built.
        """
        try:
            inspect.signature(topology_factory).bind_partial(
                technology=None, corner=None, temperature=None)
        except (TypeError, ValueError):
            raise TopologyError(
                f"topology factory {topology_factory!r} must accept the "
                "technology, corner and temperature keywords to be built "
                "at a PVT corner") from None
        tech = topology_factory().technology
        scaled_tech = dataclasses.replace(tech, vdd=tech.vdd * self.vdd_scale)
        return topology_factory(technology=scaled_tech, corner=self.process,
                                temperature=self.temperature)


def signoff_corners() -> list[CornerSpec]:
    """Typical + the two classic worst-case corners.

    * TT, nominal VDD, 27 C — the reference point;
    * SS, -10 % VDD, 125 C — slow devices, low headroom, hot (worst gain
      and bandwidth);
    * FF, +10 % VDD, -40 C — fast devices, high supply, cold (worst power
      and stability).
    """
    return [
        CornerSpec(Corner.TT, 1.0, ROOM_TEMPERATURE, "tt_nom_27c"),
        CornerSpec(Corner.SS, 0.9, 398.15, "ss_low_125c"),
        CornerSpec(Corner.FF, 1.1, 233.15, "ff_high_m40c"),
    ]


def typical_only() -> list[CornerSpec]:
    """Just the TT corner (for fast PEX-without-PVT experiments)."""
    return [CornerSpec(Corner.TT, 1.0, ROOM_TEMPERATURE, "tt_nom_27c")]
