"""Allocation guard of the sparse-assembly leg.

The sparse leg stamps into master-pattern data and holds no ``(n, n)``
array, which is what lets 15k- and 50k-unknown supply meshes fit in
memory.  The case pins the leg on the topology's plan, so the guard
runs whatever ``REPRO_ENGINE`` says: a scalar and a 2-design batch
evaluation of a 1,617-unknown mesh, system construction included, must
peak below the size of one dense ``(n, n)`` float64 array.  A transient
run, the t=0 re-solve of a waveform that starts off its DC value
included, must never densify a sparse matrix.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.sim import MnaSystem, transient_analysis
from repro.sim.sparse import SparseState
from repro.topologies import PowerGridOta, SchematicSimulator


@pytest.mark.parametrize("engine", ["sparse"])
def test_mesh_evaluation_allocates_no_dense_matrix(engine):
    topology = PowerGridOta(grid_n=40)
    topology._plan.engine = engine
    space = topology.parameter_space
    centre = np.asarray(space.center)
    sim = SchematicSimulator(topology, cache=False)
    tracemalloc.start()
    try:
        sim.evaluate(centre)
        sim.evaluate_batch(np.stack([centre, space.clip(centre + 1)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    system = topology._plan.system
    assert system.engine == engine
    assert peak < system.size ** 2 * 8, (
        f"traced peak {peak / 2**20:.1f} MB at {system.size} unknowns")


def test_transient_offset_start_never_densifies(monkeypatch):
    topology = PowerGridOta(grid_n=16, n_amps=2)
    space = topology.parameter_space
    system = MnaSystem(topology.build(space.values(space.center)),
                       engine="sparse")

    def refuse(self, data):
        raise AssertionError(f"densified a ({self.n}, {self.n}) matrix")

    monkeypatch.setattr(SparseState, "densify", refuse)
    vin = system.netlist["VIN"].dc + 0.01   # 10 mV off the DC value
    result = transient_analysis(system, t_stop=2e-10, dt=1e-10,
                                waveforms={"VIN": lambda t: vin})
    assert result.voltage("in")[0] == pytest.approx(vin, abs=1e-12)
    assert np.isfinite(result.solutions).all()
