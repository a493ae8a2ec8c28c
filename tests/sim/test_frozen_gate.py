"""The frozen-stamp check runs only after a linear element was assigned.

``MnaSystem.rebind_values`` and the column-wise ``StampPlan.stack``
compare the stamp keys of their frozen elements only when
``repro.circuits.elements.linear_writes`` has moved since they last
froze or compared them.  The reference is the same sequence with the
gate forced open: ``linear_writes`` patched to return a new number on
every call, so every restamp and every fill runs the comparison.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from repro.circuits import (Capacitor, CurrentSource, Element, Inductor,
                            Resistor, Vccs, Vcvs, VoltageSource, elements,
                            ptm45)
from repro.circuits.mosfet import Mosfet
from repro.sim import StampPlan, stamp
from repro.topologies import PowerGridOta, SchematicSimulator

LINEAR = (
    Resistor("R1", "a", "b", 1e3),
    Capacitor("C1", "a", "b", 1e-12),
    Inductor("L1", "a", "b", 1e-9),
    VoltageSource("V1", "a", "b", dc=1.0, ac=1.0),
    CurrentSource("I1", "a", "b", dc=1e-3, ac=1.0),
    Vccs("G1", "a", "b", "c", "d", gm=1e-3),
    Vcvs("E1", "a", "b", "c", "d", gain=2.0),
)


def _open_gate(monkeypatch) -> None:
    """Make every read of the counter a new number: the gate never
    closes, so every restamp and fill compares the frozen keys."""
    monkeypatch.setattr(elements, "linear_writes",
                        itertools.count().__next__)


def _count_stamp_keys(monkeypatch) -> list[int]:
    """Count ``stamp_key`` calls on every linear element class."""
    calls = [0]
    for element in LINEAR:
        cls = type(element)

        def counted(self, _key=cls.stamp_key):
            calls[0] += 1
            return _key(self)

        monkeypatch.setattr(cls, "stamp_key", counted)
    return calls


def _walk(space, n: int, seed: int) -> list[np.ndarray]:
    """``n`` grid points from the centre, each one step from the last."""
    rng = np.random.default_rng(seed)
    point, walk = space.center.copy(), []
    for _ in range(n):
        point = point.copy()
        axis = rng.integers(len(space))
        point[axis] += 1 if point[axis] + 1 < space.counts[axis] else -1
        walk.append(point)
    return walk


def _mesh(engine: str) -> PowerGridOta:
    """A small power-grid mesh whose updater writes only MOSFET widths,
    pinned to ``engine``."""
    topology = PowerGridOta(grid_n=8, n_amps=2)
    topology._plan.engine = engine
    return topology


def test_every_linear_class_is_covered():
    linear = {cls for cls in vars(elements).values()
              if isinstance(cls, type) and issubclass(cls, Element)
              and cls is not Element and not cls.is_nonlinear
              and "stamp" in vars(cls)}
    assert linear == {type(e) for e in LINEAR}


@pytest.mark.parametrize("element", LINEAR, ids=lambda e: type(e).__name__)
def test_assigning_a_linear_element_advances_the_counter(element):
    element = copy.copy(element)
    for name, value in list(vars(element).items()):
        before = elements.linear_writes()
        setattr(element, name, value * 2)    # a changed value of its kind
        assert elements.linear_writes() == before + 1, name


def test_a_same_value_float_write_leaves_the_counter():
    resistor = Resistor("R1", "a", "b", 1e3)
    before = elements.linear_writes()
    resistor.resistance = 1e3
    assert elements.linear_writes() == before
    for value in (np.array([1e3, 2e3]), 1e3, float("nan"), float("nan")):
        before = elements.linear_writes()
        resistor.resistance = value
        assert elements.linear_writes() == before + 1, value


def test_assigning_mosfet_sizes_leaves_the_counter():
    device = Mosfet("M1", "d", "g", "s", "0", polarity="nmos",
                    params=ptm45().nmos, w=1e-6, l=45e-9)
    before = elements.linear_writes()
    for name in ("w", "l", "m"):
        setattr(device, name, 2.0 * getattr(device, name))
    assert elements.linear_writes() == before


def _walk_specs(engine: str, calls: list[int]) -> tuple[list, list]:
    """Specs along a one-step walk of the small mesh, and the
    ``stamp_key`` calls of each step after the first evaluation."""
    simulator = SchematicSimulator(_mesh(engine), cache=False)
    space = simulator.parameter_space
    simulator.evaluate(space.center)
    specs, per_step = [], []
    for point in _walk(space, 5, seed=3):
        before = calls[0]
        row = simulator.evaluate(point)
        per_step.append(calls[0] - before)
        specs.append([row[name] for name in sorted(row)])
    return specs, per_step


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_mesh_walk_skips_the_frozen_scan(engine, monkeypatch):
    calls = _count_stamp_keys(monkeypatch)
    gated, per_step = _walk_specs(engine, calls)
    assert per_step == [0] * len(per_step)
    _open_gate(monkeypatch)
    reference, per_step = _walk_specs(engine, calls)
    assert min(per_step) > 0      # the forced-open walk did compare
    assert np.array_equal(gated, reference)


def _restamp_sequence(engine: str) -> tuple[list, list]:
    """``G``/``C``/``b`` after each restamp of a mesh plan, with a frozen
    mesh resistor assigned outside the updater before one of them, and
    the system's per-rebind element names at the end."""
    topology = _mesh(engine)
    plan = StampPlan(topology.build, updater=topology.update_netlist,
                     engine=engine)
    space = topology.parameter_space
    walk = [space.center] + _walk(space, 3, seed=5)
    arrays = []
    for k, point in enumerate(walk):
        system = plan.restamp(space.values(point))
        if k == 2:
            system.netlist["RH3_4"].resistance = 0.75
            system.rebind_values()
        arrays.append([system.G.copy(), system.C.copy(), system.b_dc.copy(),
                       system.b_ac.copy()])
    return arrays, [e.name for e in plan.system._var_elems]


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_frozen_element_assigned_outside_the_updater_is_demoted(
        engine, monkeypatch):
    gated, var_names = _restamp_sequence(engine)
    assert var_names == ["RH3_4"]
    _open_gate(monkeypatch)
    reference, reference_names = _restamp_sequence(engine)
    assert reference_names == var_names
    for got, ref in zip(gated, reference):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def _mesh_stacks(monkeypatch) -> tuple[list, list[int]]:
    """Two column fills of a mesh plan (fresh, then warm) and the
    ``_first_change`` calls each made."""
    calls = [0]
    first_change = stamp._first_change

    def counted(key, frozen):
        calls[0] += 1
        return first_change(key, frozen)

    monkeypatch.setattr(stamp, "_first_change", counted)
    topology = _mesh("dense")
    plan = StampPlan(topology.build, updater=topology.update_netlist,
                     engine="dense")
    space = topology.parameter_space
    rng = np.random.default_rng(11)
    stacks, per_fill = [], []
    for _ in range(2):
        designs = space.values(np.stack([space.sample(rng)
                                         for _ in range(4)]))
        before = calls[0]
        stack = plan.stack(designs)
        per_fill.append(calls[0] - before)
        stacks.append([stack.G, stack.C, stack.b_dc, stack.b_ac,
                       stack.dev.data])
    return stacks, per_fill


def test_device_only_column_fill_skips_the_scan(monkeypatch):
    gated, per_fill = _mesh_stacks(monkeypatch)
    assert per_fill[0] > 0 and per_fill[1] == 0
    _open_gate(monkeypatch)
    reference, per_fill = _mesh_stacks(monkeypatch)
    assert per_fill[1] == per_fill[0] > 0
    for got, ref in zip(gated, reference):
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)
