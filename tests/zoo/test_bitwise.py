"""Bitwise agreement: zoo-compiled scenarios vs hand-written topologies.

The zoo's core promise is that a declaration is *pure configuration*: a
compiled scenario must evaluate **bitwise identically** (exact ``==``,
no tolerance) to the same topology built by hand in Python.  Every
builtin scenario gets a hand-written reference here — module classes for
the mirror declarations, explicit constructor/attribute/grid/spec
rewrites for the variant families (including the seeded ``random``
children, whose sub-ranges are spelled out literally, pinning the seed
expansion) — and ``evaluate_batch`` is compared spec for spec on both
``REPRO_ENGINE`` legs.

A guard test keeps the reference map complete: adding a builtin
declaration fails here until its hand reference exists.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.circuits.technology import Corner
from repro.core.specs import SpecSpace
from repro.topologies import (FiveTransistorOta, FoldedCascodeOta, NegGmOta,
                              OtaChain, ParameterSpace, PowerGridOta,
                              SchematicSimulator, TransimpedanceAmplifier,
                              TwoStageOpAmp)
from repro.zoo import builtin_dir, registry, scenario


def _folded_pvt(corner: Corner, c_load: float):
    """Hand-written equivalent of one ``folded_pvt`` grid-variant child."""
    def build():
        topology = FoldedCascodeOta(corner=corner)
        topology.C_LOAD = c_load
        topology.spec_space = SpecSpace([
            dataclasses.replace(s, low=120.0, high=500.0)
            if s.name == "gain" else s
            for s in topology.spec_space.specs])
        return topology
    return build


def _ota5_random(ranges: dict[str, tuple[int, int]]):
    """Hand-written equivalent of one seeded ``ota5_random`` child; the
    sub-ranges are literals so the seed expansion itself is pinned."""
    def build():
        topology = FiveTransistorOta()
        topology.parameter_space = ParameterSpace([
            dataclasses.replace(p, start=float(ranges[p.name][0]),
                                stop=float(ranges[p.name][1]))
            for p in topology.parameter_space.params])
        return topology
    return build


HAND_BUILT = {
    # Mirror declarations: the module class, untouched.
    "tia": TransimpedanceAmplifier,
    "two_stage_opamp": TwoStageOpAmp,
    "ngm_ota": NegGmOta,
    "five_t_ota": FiveTransistorOta,
    "folded_cascode": FoldedCascodeOta,
    # Constructor-override scenario and its chain-length sweep children.
    "ota_chain_small": lambda: OtaChain(n_stages=2, segments=4),
    "chain_sweep_n3": lambda: OtaChain(n_stages=3, segments=4),
    "chain_sweep_n4": lambda: OtaChain(n_stages=4, segments=4),
    # Test-sized power-grid array and its mesh-side sweep children.
    "power_grid_ota": lambda: PowerGridOta(grid_n=5, n_amps=2),
    "power_grid_sweep_g7": lambda: PowerGridOta(grid_n=7, n_amps=2),
    "power_grid_sweep_g9": lambda: PowerGridOta(grid_n=9, n_amps=2),
    # folded_pvt corner x load grid variants.
    "folded_pvt_tt_1em12": _folded_pvt(Corner.TT, 1.0e-12),
    "folded_pvt_tt_2em12": _folded_pvt(Corner.TT, 2.0e-12),
    "folded_pvt_ss_1em12": _folded_pvt(Corner.SS, 1.0e-12),
    "folded_pvt_ss_2em12": _folded_pvt(Corner.SS, 2.0e-12),
    # ota5_random seed-20260808 span-0.5 children.
    "ota5_random_r0": _ota5_random({"w_in": (50, 99), "w_load": (13, 62),
                                    "w_tail": (8, 57), "w_bias": (38, 87)}),
    "ota5_random_r1": _ota5_random({"w_in": (17, 66), "w_load": (32, 81),
                                    "w_tail": (24, 73), "w_bias": (36, 85)}),
    "ota5_random_r2": _ota5_random({"w_in": (30, 79), "w_load": (3, 52),
                                    "w_tail": (31, 80), "w_bias": (39, 88)}),
}


def test_every_builtin_scenario_has_a_reference():
    """New builtin declarations must add a hand reference above."""
    builtin = {name for name, sc in registry().items()
               if sc.source.startswith(str(builtin_dir()))}
    assert builtin == set(HAND_BUILT)


def _rows(space, n=2):
    rng = np.random.default_rng(11)
    rows = [np.asarray(space.center, dtype=np.int64)]
    for _ in range(n - 1):
        rows.append(np.array([rng.integers(0, p.count) for p in space],
                             dtype=np.int64))
    return np.stack(rows)


@pytest.mark.parametrize("engine", ["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_bitwise_agreement(name, engine, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    zoo_topology = scenario(name).create()
    reference = HAND_BUILT[name]()
    assert zoo_topology.parameter_space.params == reference.parameter_space.params
    assert zoo_topology.spec_space.specs == reference.spec_space.specs
    assert zoo_topology.corner is reference.corner
    assert zoo_topology.temperature == reference.temperature
    zoo_sim = SchematicSimulator(zoo_topology, cache=False)
    ref_sim = SchematicSimulator(reference, cache=False)
    rows = _rows(zoo_sim.parameter_space)
    for zoo_specs, ref_specs in zip(zoo_sim.evaluate_batch(rows),
                                    ref_sim.evaluate_batch(rows)):
        assert set(zoo_specs) == set(ref_specs)
        for spec_name, ref_value in ref_specs.items():
            assert zoo_specs[spec_name] == ref_value, (name, spec_name)
