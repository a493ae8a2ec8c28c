"""Circuit topologies evaluated in the paper, plus the parameter-grid
machinery their action spaces are built from.

* :mod:`repro.topologies.params` — ``[start, stop, step]`` integer grids
  (exactly the paper's action-space notation);
* :mod:`repro.topologies.base` — the :class:`Topology` interface and the
  counting/caching :class:`SchematicSimulator` wrapper;
* :mod:`repro.topologies.tia` — transimpedance amplifier (paper §III-A);
* :mod:`repro.topologies.two_stage` — two-stage Miller op-amp (§III-B);
* :mod:`repro.topologies.ngm_ota` — two-stage OTA with negative-gm load
  (§III-C/D);
* :mod:`repro.topologies.five_t_ota` — single-stage 5T OTA, the
  "add your own circuit" extensibility example;
* :mod:`repro.topologies.folded_cascode` — folded-cascode OTA, the
  declarative-measurement-pipeline extensibility example (one
  ``measurements()`` declaration, no measurement code);
* :mod:`repro.topologies.ota_chain` — OTA repeater chain over
  distributed RC interconnect, the large-netlist (sparse-engine)
  scenario family;
* :mod:`repro.topologies.power_grid` — OTA array fed from a resistive
  power mesh, the 10^4-unknown (condensed sparse-engine) scenario
  family.

Module classes are one of two ways to add a scenario: the declarative
scenario zoo (:mod:`repro.zoo`) compiles YAML/JSON declarations —
constructor/attribute/grid/spec overrides plus seeded variant
generators, inheriting from these classes by their registered ``name``
— onto the same :class:`Topology` machinery, so variant families cost a
config file instead of a module.
"""

from repro.topologies.base import CircuitSimulator, SchematicSimulator, Topology
from repro.topologies.five_t_ota import FiveTransistorOta
from repro.topologies.folded_cascode import FoldedCascodeOta
from repro.topologies.ngm_ota import NegGmOta
from repro.topologies.ota_chain import OtaChain
from repro.topologies.params import GridParam, ParameterSpace
from repro.topologies.power_grid import PowerGridOta
from repro.topologies.tia import TransimpedanceAmplifier
from repro.topologies.two_stage import TwoStageOpAmp

__all__ = [
    "CircuitSimulator",
    "FiveTransistorOta",
    "FoldedCascodeOta",
    "GridParam",
    "NegGmOta",
    "OtaChain",
    "ParameterSpace",
    "PowerGridOta",
    "SchematicSimulator",
    "Topology",
    "TransimpedanceAmplifier",
    "TwoStageOpAmp",
]
