"""Iterative (Krylov) engine unit and chaos tests.

The engine-equivalence suite pins sparse-vs-iterative *accuracy* on
every registered scenario; this file pins the machinery around the
solves:

* engine selection — ``auto`` applies the two fixed crossovers
  (:data:`~repro.sim.engine.SPARSE_AUTO_THRESHOLD`,
  :data:`~repro.sim.engine.ITERATIVE_AUTO_THRESHOLD`), explicit engines
  beat them, and a malformed ``REPRO_ENGINE`` warns and runs ``auto``;
* ILU-reuse property (hypothesis) — the drift gate reuses one
  factorisation below :data:`~repro.sim.krylov.DRIFT_TOL` and
  re-factors above it, and a *stale* preconditioner still converges to
  the direct answer (reuse can cost iterations, never correctness);
* forced non-convergence chaos — when every Krylov iteration is broken
  on purpose, the engine degrades to the direct sparse path bitwise
  (DC and AC), and the fallbacks are counted;
* BatchReport plumbing — per-solve counters drain into
  ``last_batch_report`` on the iterative leg and stay zero elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("scipy")
pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.ac as ac_mod
import repro.sim.krylov as krylov_mod
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
from repro.sim.krylov import DRIFT_TOL, KrylovStats, _IluCache, _solve_once
from repro.topologies import FiveTransistorOta, SchematicSimulator

SETTINGS = dict(deadline=None, max_examples=15,
                suppress_health_check=[HealthCheck.too_slow])


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
        assert system.krylov_state is not None

    def test_malformed_engine_env_warns_and_runs_auto(self, monkeypatch):
        """A typo'd engine still runs (``auto``), but says so."""
        monkeypatch.setenv("REPRO_ENGINE", "sparce")
        with pytest.warns(RuntimeWarning,
                          match=r"REPRO_ENGINE='sparce'.*'auto'"):
            assert resolve_engine(5) == "dense"


# -- ILU drift-gated reuse ---------------------------------------------------
def _newton_state_and_data():
    """A sparse state plus the master-pattern data of a Newton matrix."""
    system = MnaSystem(_ota_netlist(), engine="sparse")
    x = np.full(system.size, 0.3)
    A, _rhs = system.newton_matrices(x, gmin=1e-6)
    return system.sparse_state, np.array(A.data, copy=True)


class TestIluReuse:
    @settings(**SETTINGS)
    @given(eps=st.floats(min_value=0.0, max_value=DRIFT_TOL * 0.9))
    def test_small_drift_reuses_factors(self, eps):
        state, data = _newton_state_and_data()
        cache = _IluCache()
        first = cache.get(state, data)
        assert first is not None
        again = cache.get(state, data * (1.0 + eps))
        assert again is first

    @settings(**SETTINGS)
    @given(eps=st.floats(min_value=DRIFT_TOL * 1.1, max_value=5.0))
    def test_large_drift_refactors(self, eps):
        state, data = _newton_state_and_data()
        cache = _IluCache()
        first = cache.get(state, data)
        again = cache.get(state, data * (1.0 + eps))
        assert again is not first

    @settings(**SETTINGS)
    @given(eps=st.floats(min_value=-0.08, max_value=0.08))
    def test_stale_preconditioner_still_converges(self, eps):
        """A reused (stale) ILU preconditions the *perturbed* operator:
        the refined solve must still match direct ``splu`` to 1e-8 —
        staleness costs iterations, never correctness."""
        state, data = _newton_state_and_data()
        cache = _IluCache()
        anchor = cache.get(state, data)
        drifted = data * (1.0 + eps)
        assert cache.get(state, drifted) is anchor   # inside the gate
        A = state.matrix(drifted)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(state.n)
        M = krylov_mod._ilu_operator(anchor, state.n, A.dtype)
        x, _iters, _eta, ok = _solve_once(A, b, M, None)
        assert ok
        xd = krylov_mod._splu(A).solve(b)
        scale = max(1.0, float(np.abs(xd).max()))
        np.testing.assert_allclose(x, xd, rtol=0.0, atol=1e-8 * scale)


# -- forced non-convergence chaos -------------------------------------------
def _break_krylov(monkeypatch):
    """Make every inner Krylov iteration return garbage without
    converging, exactly as a hopeless preconditioner would."""

    def _hopeless(A, b, x0=None, rtol=0.0, atol=0.0, restart=None,
                  maxiter=None, M=None, callback=None, callback_type=None):
        if callback is not None:
            callback(np.inf)
        shape = np.shape(b)
        return np.zeros(shape, dtype=np.result_type(A.dtype, b.dtype)), 1

    monkeypatch.setattr(krylov_mod, "_gmres", _hopeless)
    monkeypatch.setattr(krylov_mod, "_bicgstab", _hopeless)


class TestForcedNonConvergence:
    def test_dc_degrades_bitwise(self, monkeypatch):
        _break_krylov(monkeypatch)
        sparse = MnaSystem(_ota_netlist(), engine="sparse")
        iterative = MnaSystem(_ota_netlist(), engine="iterative")
        ops = solve_dc(sparse)
        opi = solve_dc(iterative)
        assert np.array_equal(opi.x, ops.x), \
            "degraded DC must be bitwise the sparse leg"
        assert opi.iterations == ops.iterations
        stats = iterative.krylov_state.stats.take()
        assert stats["fallbacks"] > 0

    def test_ac_degrades_bitwise(self, monkeypatch):
        _break_krylov(monkeypatch)
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        freqs = np.logspace(4, 9, 11)
        sparse = MnaSystem(_ota_netlist(), engine="sparse")
        iterative = MnaSystem(_ota_netlist(), engine="iterative")
        ops = solve_dc(sparse)
        opi = OperatingPoint(iterative, ops.x.copy(), ops.iterations,
                             ops.residual_norm)
        hs = ac_sweep(sparse, ops, freqs).voltage("out")
        hi = ac_sweep(iterative, opi, freqs).voltage("out")
        assert np.array_equal(hi, hs), \
            "degraded sweep must be bitwise the sparse leg"
        assert iterative.krylov_state.stats.take()["fallbacks"] > 0


# -- stats plumbing ----------------------------------------------------------
class TestStats:
    def test_record_and_take_resets(self):
        stats = KrylovStats()
        stats.record(12, 1e-15)
        stats.record(0, 0.0, fallback=True)
        taken = stats.take()
        assert taken == {"solves": 2, "iterations": 12, "fallbacks": 1,
                         "max_residual": 1e-15}
        assert stats.take() == {"solves": 0, "iterations": 0,
                                "fallbacks": 0, "max_residual": 0.0}

    def test_batch_report_counters(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "iterative")
        sim = SchematicSimulator(FiveTransistorOta(), cache=False)
        center = np.asarray(sim.parameter_space.center, dtype=np.int64)
        sim.evaluate_batch(np.stack([center, center + 1]))
        report = sim.last_batch_report
        assert report.krylov_solves > 0
        assert report.krylov_residual <= krylov_mod.BACKWARD_TOL
        # Counters were drained: the next (sparse) batch reports zeros.
        monkeypatch.setenv("REPRO_ENGINE", "sparse")
        sim2 = SchematicSimulator(FiveTransistorOta(), cache=False)
        sim2.evaluate_batch(np.stack([center]))
        assert sim2.last_batch_report.krylov_solves == 0
        assert sim2.last_batch_report.krylov_fallbacks == 0
