"""Engine selection and the iterative leg's contract.

The engine-equivalence suite pins sparse-vs-iterative *accuracy* on
every registered scenario; this file pins the machinery around it:

* engine selection — ``auto`` applies the two fixed crossovers
  (:data:`~repro.sim.engine.SPARSE_AUTO_THRESHOLD`,
  :data:`~repro.sim.engine.ITERATIVE_AUTO_THRESHOLD`), explicit engines
  beat them, and a malformed ``REPRO_ENGINE`` warns and runs ``auto``;
* the iterative leg is the sparse leg plus condensed DC Newton — on a
  system with no condensable interior its DC solve and AC sweep are the
  sparse leg's, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import (
    ITERATIVE_AUTO_THRESHOLD,
    MnaSystem,
    OperatingPoint,
    SPARSE_AUTO_THRESHOLD,
    ac_sweep,
    resolve_engine,
    solve_dc,
)
from repro.sim.engine import iterative_threshold, sparse_threshold
from repro.topologies import FiveTransistorOta


def _ota_netlist():
    topo = FiveTransistorOta()
    return topo.build(topo.parameter_space.values(topo.parameter_space.center))


# -- engine selection --------------------------------------------------------
class TestThresholdKnobs:
    def test_defaults(self):
        assert sparse_threshold() == SPARSE_AUTO_THRESHOLD
        assert iterative_threshold() == ITERATIVE_AUTO_THRESHOLD

    def test_auto_defaults_both_crossovers(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine(SPARSE_AUTO_THRESHOLD - 1) == "dense"
        assert resolve_engine(SPARSE_AUTO_THRESHOLD) == "sparse"
        assert resolve_engine(ITERATIVE_AUTO_THRESHOLD - 1) == "sparse"
        assert resolve_engine(ITERATIVE_AUTO_THRESHOLD) == "iterative"

    def test_explicit_engine_beats_thresholds(self):
        assert resolve_engine(5, engine="iterative") == "iterative"
        with pytest.raises(ValueError):
            resolve_engine(5, engine="quantum")

    def test_engine_env_routes_system(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "iterative")
        system = MnaSystem(_ota_netlist())
        assert system.engine == "iterative" and system.iterative

    def test_malformed_engine_env_warns_and_runs_auto(self, monkeypatch):
        """A typo'd engine still runs (``auto``), but says so."""
        monkeypatch.setenv("REPRO_ENGINE", "sparce")
        with pytest.warns(RuntimeWarning,
                          match=r"REPRO_ENGINE='sparce'.*'auto'"):
            assert resolve_engine(5) == "dense"


# -- the iterative leg off the condensation ---------------------------------
class TestForcedNonConvergence:
    """:class:`FiveTransistorOta` has no condensable interior, so no step
    of the iterative leg can condense: it must be the sparse leg."""

    def test_dc_degrades_bitwise(self):
        sparse = MnaSystem(_ota_netlist(), engine="sparse")
        iterative = MnaSystem(_ota_netlist(), engine="iterative")
        assert iterative.condensation is None
        ops = solve_dc(sparse)
        opi = solve_dc(iterative)
        assert np.array_equal(opi.x, ops.x), \
            "an uncondensed DC solve must be bitwise the sparse leg"
        assert (opi.iterations, opi.residual_norm) == \
            (ops.iterations, ops.residual_norm)

    def test_ac_degrades_bitwise(self):
        freqs = np.logspace(4, 9, 11)
        sparse = MnaSystem(_ota_netlist(), engine="sparse")
        iterative = MnaSystem(_ota_netlist(), engine="iterative")
        ops = solve_dc(sparse)
        opi = OperatingPoint(iterative, ops.x.copy(), ops.iterations,
                             ops.residual_norm)
        hs = ac_sweep(sparse, ops, freqs).voltage("out")
        hi = ac_sweep(iterative, opi, freqs).voltage("out")
        assert np.array_equal(hi, hs), \
            "an iterative-leg sweep must be bitwise the sparse leg"
