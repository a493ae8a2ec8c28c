"""Engine selection and the declined condensed step's contract.

The engine-equivalence suite pins condensed-vs-declined DC *accuracy* on
every registered scenario; this file pins the machinery around it:

* engine selection — ``auto`` is dense below
  :data:`~repro.sim.engine.SPARSE_AUTO_THRESHOLD` and sparse from there
  up (:data:`~repro.sim.engine.ITERATIVE_AUTO_THRESHOLD` selects
  nothing), explicit engines beat it, and a malformed ``REPRO_ENGINE``
  (the retired ``iterative`` included) warns and runs ``auto``;
* a sparse system whose condensation declines every Newton step is the
  sparse leg without a condensation: its DC solve and AC sweep are that
  leg's, bit for bit.  (The file keeps the name of the Krylov solver it
  once tested.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import knobs
from repro.sim import (
    MnaSystem,
    SPARSE_AUTO_THRESHOLD,
    ac_sweep,
    resolve_engine,
    solve_dc,
)
from repro.sim.condense import Condensation
from repro.sim.engine import (ITERATIVE_AUTO_THRESHOLD, iterative_threshold,
                              sparse_threshold)
from repro.topologies import FiveTransistorOta, PowerGridOta


def _ota_netlist():
    topo = FiveTransistorOta()
    return topo.build(topo.parameter_space.values(topo.parameter_space.center))


# -- engine selection --------------------------------------------------------
class TestThresholdKnobs:
    def test_defaults(self):
        assert sparse_threshold() == SPARSE_AUTO_THRESHOLD
        assert iterative_threshold() == ITERATIVE_AUTO_THRESHOLD == 4096

    def test_auto_defaults_both_crossovers(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(SPARSE_AUTO_THRESHOLD - 1) == "dense"
        assert resolve_engine(SPARSE_AUTO_THRESHOLD) == "sparse"
        assert resolve_engine(ITERATIVE_AUTO_THRESHOLD - 1) == "sparse"
        assert resolve_engine(ITERATIVE_AUTO_THRESHOLD) == "sparse"
        assert resolve_engine(50_000) == "sparse"

    def test_explicit_engine_beats_thresholds(self):
        assert resolve_engine(5, engine="sparse") == "sparse"
        assert resolve_engine(50_000, engine="dense") == "dense"
        for engine in ("quantum", "iterative"):
            with pytest.raises(ValueError):
                resolve_engine(5, engine=engine)

    def test_engine_env_routes_system(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "sparse")
        system = MnaSystem(_ota_netlist())
        assert system.engine == "sparse" and system.sparse

    def test_malformed_engine_env_warns_and_runs_auto(self, monkeypatch):
        """A typo'd or retired engine still runs (``auto``), but says so."""
        monkeypatch.setattr(knobs, "_WARNED", set())
        for raw in ("sparce", "iterative"):
            monkeypatch.setenv("REPRO_ENGINE", raw)
            with pytest.warns(RuntimeWarning,
                              match=rf"REPRO_ENGINE='{raw}'.*'auto'"):
                assert resolve_engine(5) == "dense"
            assert resolve_engine(SPARSE_AUTO_THRESHOLD) == "sparse"


# -- the sparse leg with every condensed step declined ----------------------
def _mesh_pair(monkeypatch):
    """A mesh system whose condensation declines every Newton step, and
    the same mesh with no condensation at all."""
    topology = PowerGridOta(grid_n=5, n_amps=2)
    space = topology.parameter_space
    values = space.values(space.center)
    declined = MnaSystem(topology.build(values), engine="sparse")
    assert declined.condensation is not None
    monkeypatch.setattr(Condensation, "newton_operator",
                        lambda self, data, x0, gmin: None)
    with monkeypatch.context() as m:
        m.setattr(MnaSystem, "condensation", property(lambda self: None))
        plain = MnaSystem(topology.build(values), engine="sparse")
        op = solve_dc(plain)
    return declined, plain, op


class TestForcedNonConvergence:
    """A step the condensation declines is the full CSC Jacobian factored
    by ``splu``: the sparse leg without a condensation, bit for bit."""

    def test_dc_degrades_bitwise(self, monkeypatch):
        declined, _, op = _mesh_pair(monkeypatch)
        got = solve_dc(declined)
        assert np.array_equal(got.x, op.x), \
            "a declined DC solve must be bitwise the uncondensed one"
        assert (got.iterations, got.residual_norm) == \
            (op.iterations, op.residual_norm)

    def test_ac_degrades_bitwise(self, monkeypatch):
        freqs = np.logspace(4, 9, 11)
        declined, plain, op = _mesh_pair(monkeypatch)
        h_plain = ac_sweep(plain, op, freqs).voltage("out")
        h_declined = ac_sweep(declined, solve_dc(declined), freqs)
        assert np.array_equal(h_declined.voltage("out"), h_plain), \
            "a declined-DC sweep must be bitwise the uncondensed one"
