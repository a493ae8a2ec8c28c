"""Allocation guard of the sparse-assembly leg.

The sparse leg stamps into master-pattern data and holds no ``(n, n)``
array, which is what lets 15k- and 50k-unknown supply meshes fit in
memory.  The case pins the leg on the topology's plan, so the guard
runs whatever ``REPRO_ENGINE`` says: a scalar and a 2-design batch
evaluation of a 1,617-unknown mesh, system construction included, must
peak below the size of one dense ``(n, n)`` float64 array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("scipy")

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
