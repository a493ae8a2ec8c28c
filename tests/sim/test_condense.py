"""Exact condensation of the sizing-invariant R/C interior.

Every check pins its engine leg with ``MnaSystem(engine=...)`` or
``StampPlan(engine=...)``, so the condensed path runs on every CI leg,
the dense one included.  The contract under test
(:mod:`repro.sim.condense`):

* condensed boundary responses equal the full sweep to <= 1e-9 on every
  registered scenario with an interior;
* the partition keeps MOSFET terminals, branch rows, source nodes and
  variable elements on the boundary;
* one reduction per (structure, grid), rebuilt after a demotion;
* a slice whose interior data differ, an interior node and noise all
  stay on the full path;
* gmin-0 DC Newton steps solve through the condensation (one interior
  factor per structure), also on the systems ``auto`` routes sparse, and
  agree with the declined, direct path to the 1e-8 bar; gmin rungs and
  slices with other interior data factor the full CSC Jacobian with
  ``splu``, bit for bit as a system without a condensation does, and a
  singular boundary system is a failed factorisation.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

pytest.importorskip("scipy")

import repro.sim.condense as condense_mod
from repro.circuits.elements import Capacitor, Resistor
from repro.measure.pipeline import MeasureContext
from repro.sim import MnaSystem, dc, solve_dc
from repro.sim.batch import SystemStack, solve_dc_batch
from repro.sim.condense import CondensedNewton, condensed_response
from repro.sim.noise import noise_analysis
from repro.sim.sparse import SparseSlice
from repro.sim.stamp import StampPlan
from repro.topologies import PowerGridOta
from repro.zoo import registry


def _center(topology) -> dict:
    space = topology.parameter_space
    return space.values(space.center)


def _system(topology, engine: str, netlist=None) -> MnaSystem:
    return MnaSystem(netlist or topology.build(_center(topology)),
                     engine=engine)


def _context(topology, systems) -> tuple[MeasureContext, SystemStack]:
    """A measurement context over one slice per system (the first is the
    stack template), each at its own DC operating point."""
    stack = SystemStack(systems[0], len(systems))
    X = []
    for i, system in enumerate(systems):
        stack.set_design(i, system)
        X.append(solve_dc(system).x)
    rows = np.arange(len(systems))
    return MeasureContext(topology, stack, rows, np.array(X)), stack


def _full(ctx: MeasureContext, frequencies, idx: int) -> np.ndarray:
    """``(m, F)`` responses of unknown ``idx`` from the full sweep."""
    facts = ctx.sweep_factors(frequencies)
    return np.array([f.solve(ctx.stack.b_ac[r])[:, idx]
                     for f, r in zip(facts, ctx.rows)])


CONDENSABLE = sorted(
    name for name, scenario in registry().items()
    if _system(scenario.create(), "sparse").condensation is not None)


def test_registered_condensable_scenarios():
    assert {"chain_sweep_n3", "chain_sweep_n4", "ota_chain_small",
            "power_grid_ota", "power_grid_sweep_g7",
            "power_grid_sweep_g9"} <= set(CONDENSABLE)
    assert not {"five_t_ota", "two_stage_opamp", "tia",
                "ngm_ota"} & set(CONDENSABLE)


@pytest.mark.parametrize("engine", ["sparse"])
@pytest.mark.parametrize("name", CONDENSABLE)
def test_boundary_responses_match_full_path(name, engine):
    topology = registry()[name].create()
    system = _system(topology, engine)
    ctx, _ = _context(topology, [system])
    freqs = topology._measurement_plan().primitives[0].frequencies
    g3, c4 = ctx._g3c4()
    cond = system.condensation
    nodes = [i for i in cond.boundary if i < system.n_nodes]
    full = np.stack([_full(ctx, freqs, i)[0] for i in nodes])
    scale = np.abs(full).max()
    for i, ref in zip(nodes, full):
        h, left = condensed_response(ctx.stack, ctx.rows, g3, c4, freqs, i)
        assert not left.any()
        assert np.abs(h[0] - ref).max() <= 1e-9 * scale


class TestPartition:
    @pytest.mark.parametrize("name", CONDENSABLE)
    def test_interior_holds_only_frozen_rc_nodes(self, name):
        system = _system(registry()[name].create(), "sparse")
        cond = system.condensation
        interior = set(cond.interior.tolist())
        assert interior.isdisjoint(system._mos_terms.ravel().tolist())
        assert max(interior) < system.n_nodes      # no branch rows
        for element in system.netlist:
            if type(element) not in (Resistor, Capacitor):
                nodes = {system.node_index[n] for n in element.nodes}
                assert interior.isdisjoint(nodes), element.name
        assert set(cond.ports.tolist()) <= set(cond.boundary.tolist())

    def test_power_grid_16_counts(self):
        cond = _system(PowerGridOta(grid_n=16), "sparse").condensation
        assert (len(cond.interior), len(cond.boundary),
                len(cond.ports)) == (252, 21, 5)

    def test_dense_leg_has_no_condensation(self):
        assert _system(PowerGridOta(grid_n=4), "dense").condensation is None

    def test_large_boundary_keeps_full_path(self, monkeypatch):
        topology = PowerGridOta(grid_n=4)           # 21 boundary unknowns
        monkeypatch.setattr(condense_mod, "MAX_BOUNDARY", 21)
        assert _system(topology, "sparse").condensation is None
        monkeypatch.setattr(condense_mod, "MAX_BOUNDARY", 22)
        assert _system(topology, "sparse").condensation is not None


def _counting_splu(monkeypatch, module=condense_mod, name="_splu") -> list:
    """Count the ``splu`` calls made through ``module.name``: the
    condensation's interior factors by default, the DC driver's full
    Jacobian factors with ``(dc, "splu")``."""
    calls = []
    real = getattr(module, name)

    def splu(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, splu)
    return calls


@pytest.mark.parametrize("engine", ["sparse"])
def test_one_reduction_per_structure_then_rebuild_on_demotion(
        engine, monkeypatch):
    calls = _counting_splu(monkeypatch)
    topology = PowerGridOta(grid_n=6, n_amps=2)
    plan = StampPlan(topology.build, updater=topology.update_netlist,
                     engine=engine)
    # One splu per AC grid point, plus the DC interior factor.
    F = len(topology.AC_FREQUENCIES) + 1
    space = topology.parameter_space
    x = None
    for delta in range(4):
        point = space.clip(np.asarray(space.center) + delta)
        system = plan.restamp(space.values(point))
        op = solve_dc(system, x0=x)
        x = op.x
        topology.measure(system, op)
        if delta == 0:
            cond = system.condensation
    assert system.condensation is cond and len(calls) == F

    # Demote one mesh resistor: the base, the dense matrices and the
    # reduction are rebuilt, and its nodes leave the interior.
    resistor = system.netlist["RH0_0"]
    resistor.resistance *= 100.0
    system = plan.restamp(space.values(point))
    op = solve_dc(system, x0=x)
    specs = topology.measure(system, op)
    rebuilt = system.condensation
    assert rebuilt is not cond and len(calls) == 2 * F
    ends = {system.node_index[n] for n in resistor.nodes}
    assert ends.isdisjoint(rebuilt.interior.tolist())

    fresh = _system(topology, engine, system.netlist)
    np.testing.assert_allclose(system.G, fresh.G, rtol=0.0, atol=1e-12)
    ctx, _ = _context(topology, [fresh])
    ref = _full(ctx, topology.AC_FREQUENCIES, fresh.node_index["out"])[0]
    assert specs["gain"] == pytest.approx(abs(ref[0]), rel=1e-9)


@pytest.mark.parametrize("engine", ["sparse"])
def test_slice_with_other_interior_takes_full_path(engine):
    topology = PowerGridOta(grid_n=5, n_amps=2)
    netlist = topology.build(_center(topology))
    netlist["RV1_2"].resistance *= 2.0
    systems = [_system(topology, engine), _system(topology, engine, netlist)]
    ctx, stack = _context(topology, systems)
    freqs = topology.AC_FREQUENCIES
    idx = systems[0].node_index["out"]
    _, left = condensed_response(stack, ctx.rows, *ctx._g3c4(), freqs, idx)
    assert left.tolist() == [False, True]
    h = ctx.node_response(freqs, "out")
    np.testing.assert_allclose(h, _full(ctx, freqs, idx), rtol=1e-9)
    assert np.abs(h[1] - h[0]).max() > 1e-12   # the slices really differ


@pytest.mark.parametrize("engine", ["sparse"])
def test_interior_node_and_noise_stay_on_full_path(engine):
    topology = PowerGridOta(grid_n=5, n_amps=2)
    system = _system(topology, engine)
    ctx, stack = _context(topology, [system])
    freqs = topology.AC_FREQUENCIES
    assert system.condensation is not None
    idx = system.node_index["g0_1"]            # a mesh node off the taps
    _, left = condensed_response(stack, ctx.rows, *ctx._g3c4(), freqs, idx)
    assert left.all()
    np.testing.assert_allclose(ctx.node_response(freqs, "g0_1"),
                               _full(ctx, freqs, idx), rtol=1e-9)

    op = solve_dc(system)
    ref = noise_analysis(system, op, freqs, "out",
                         refer_to_input=False).integrated_output_rms()
    assert ctx.noise_rms(freqs, "out")[0] == pytest.approx(ref, rel=1e-9)


def test_sizing_only_moves_the_boundary():
    """Device stamps land on boundary positions only, so the reduction's
    snapshot matches every sizing of the structure."""
    topology = PowerGridOta(grid_n=4, n_amps=2)
    system = _system(topology, "sparse")
    cond = system.condensation
    space = topology.parameter_space
    other = space.values(space.clip(np.asarray(space.center) + 7))
    sized = _system(topology, "sparse", topology.build(other))
    assert cond.matches(sized._sparse_G_data(), sized._sparse_C_data())


def test_master_pattern_is_read_only():
    """An in-place structural operation on a master-pattern matrix must
    raise instead of rewriting the pattern shared by every later solve."""
    system = _system(PowerGridOta(grid_n=5), "sparse")
    st = system.sparse_state
    indices, indptr = st.indices.copy(), st.indptr.copy()
    matrix = st.matrix(system._sparse_G_data().copy())
    with pytest.raises(ValueError):
        matrix.eliminate_zeros()
    assert np.array_equal(st.indices, indices)
    assert np.array_equal(st.indptr, indptr)


# -- condensed DC Newton ------------------------------------------------------
def _decline_condensed_steps(monkeypatch) -> None:
    """Make every condensation decline its Newton steps, which sends
    them to the full CSC Jacobian and ``splu``."""
    monkeypatch.setattr(condense_mod.Condensation, "newton_operator",
                        lambda self, data, x0, gmin: None)


def _uncondensed(monkeypatch) -> None:
    """Build no condensation at all (full AC and ``splu`` DC)."""
    monkeypatch.setattr(MnaSystem, "condensation",
                        property(lambda self: None))


def test_auto_mesh_condenses_dc_newton(monkeypatch):
    """``auto`` routes a 273-unknown mesh sparse, and its gmin-0 Newton
    steps condense: the DC solve factors no full Jacobian."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    topology = PowerGridOta(grid_n=16, n_amps=4)
    system = MnaSystem(topology.build(_center(topology)))
    assert (system.size, system.engine) == (273, "sparse")
    factors = _counting_splu(monkeypatch, dc, "splu")
    x = solve_dc(system).x
    assert not factors
    A, _ = system.newton_matrices(x)
    assert isinstance(A, CondensedNewton)


def _walk(topology, x: np.ndarray, steps: int = 4
          ) -> tuple[list, list, list]:
    """A one-step sparse-leg walk warm-started from ``x``: operating
    points, specs and Newton iteration counts per step."""
    plan = StampPlan(topology.build, updater=topology.update_netlist,
                     engine="sparse")
    space = topology.parameter_space
    point = np.asarray(space.center)
    xs, specs, iters = [], [], []
    for step in range(steps):
        point = space.clip(point + (1 if step % 2 else -1))
        system = plan.restamp(space.values(point))
        op = solve_dc(system, x0=x)
        x = op.x
        xs.append(op.x)
        specs.append(topology.measure(system, op))
        iters.append(op.iterations)
    return xs, specs, iters


def test_condensed_walk_matches_direct_walk(monkeypatch):
    topology = PowerGridOta(grid_n=8, n_amps=2)
    x = solve_dc(_system(topology, "sparse")).x
    factors = _counting_splu(monkeypatch, dc, "splu")
    xs, specs, iters = _walk(topology, x)
    assert not factors                  # every Newton step condensed
    _decline_condensed_steps(monkeypatch)
    ref_xs, ref_specs, ref_iters = _walk(topology, x)
    assert factors                      # every step factored directly
    assert iters == ref_iters
    for got, ref in zip(xs, ref_xs):
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8 * scale)
    for got, ref in zip(specs, ref_specs):
        for name in ref:
            assert got[name] == pytest.approx(ref[name], rel=1e-8), name


def test_gmin_zero_steps_are_condensed_and_rungs_factor_directly(
        monkeypatch):
    topology = PowerGridOta(grid_n=6, n_amps=2)
    system = _system(topology, "sparse")
    factors = _counting_splu(monkeypatch, dc, "splu")
    x = solve_dc(system).x
    assert not factors
    A, _ = system.newton_matrices(x)
    assert isinstance(A, CondensedNewton)

    A, _ = system.newton_matrices(x, gmin=1e-6)
    assert A.format == "csc"            # the full Jacobian
    got = dc._newton(system, x, 1e-6, 1.0)
    assert factors
    _uncondensed(monkeypatch)
    ref = dc._newton(_system(topology, "sparse"), x, 1e-6, 1.0)
    assert np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]


def _sparse_stack(topology, netlists) -> tuple[list, SystemStack]:
    systems = [_system(topology, "sparse", n) for n in netlists]
    stack = SystemStack(systems[0], len(systems))
    for i, system in enumerate(systems):
        stack.set_design(i, system)
    return systems, stack


def test_stack_batch_uses_the_template_factor(monkeypatch):
    topology = PowerGridOta(grid_n=5, n_amps=2)
    space = topology.parameter_space
    other = space.values(space.clip(np.asarray(space.center) + 3))
    systems, stack = _sparse_stack(
        topology, [topology.build(_center(topology)), topology.build(other)])
    calls = _counting_splu(monkeypatch)
    factors = _counting_splu(monkeypatch, dc, "splu")
    result = solve_dc_batch(stack)
    assert result.converged.all()
    assert not factors and len(calls) == 1
    for x, system in zip(result.x, systems):
        np.testing.assert_allclose(x, solve_dc(system).x, rtol=0.0,
                                   atol=1e-12)


def test_slice_with_other_interior_takes_direct_dc(monkeypatch):
    topology = PowerGridOta(grid_n=5, n_amps=2)
    netlist = topology.build(_center(topology))
    netlist["RV1_2"].resistance *= 2.0
    _, stack = _sparse_stack(
        topology, [topology.build(_center(topology)), netlist])
    factors = _counting_splu(monkeypatch, dc, "splu")
    solve_dc(SparseSlice(stack, 0))
    assert not factors
    other = solve_dc(SparseSlice(stack, 1))
    assert factors
    _uncondensed(monkeypatch)
    ref = solve_dc(_system(topology, "sparse", netlist))
    assert np.array_equal(other.x, ref.x)
    assert (other.iterations, other.residual_norm) == \
        (ref.iterations, ref.residual_norm)


def test_refinement_corrects_an_inexact_factor():
    """The condensed step refines on the full operator, so a slightly
    wrong port correction still lands where the exact one does."""
    system = _system(PowerGridOta(grid_n=6, n_amps=2), "sparse")
    x = solve_dc(system).x
    A, rhs = system.newton_matrices(x + 1e-3)
    exact = dc._lu_solve(dc._lu_factor(A), rhs)
    ref = condense_mod._splu(system.sparse_state.matrix(A._data)).solve(rhs)
    np.testing.assert_allclose(exact, ref, rtol=0.0,
                               atol=1e-10 * np.abs(ref).max())
    cond = system.condensation
    lu, W, Y0 = cond.dc_factor()
    cond._dc = (lu, W, Y0 * (1.0 + 1e-6))
    got = dc._lu_solve(dc._lu_factor(A), rhs)
    np.testing.assert_allclose(got, exact, rtol=0.0,
                               atol=1e-12 * np.abs(exact).max())


def test_singular_boundary_system_is_a_failed_factorisation():
    system = _system(PowerGridOta(grid_n=5, n_amps=2), "sparse")
    cond = system.condensation
    A, _ = system.newton_matrices(np.zeros(system.size))
    data = A._data.copy()
    # Zero the boundary-block row of a boundary unknown off the ports:
    # no port correction lands there, so the Schur matrix turns singular.
    row = cond._local[np.setdiff1d(cond.boundary, cond.ports)[0]]
    data[cond._bb_pos[cond._bb_rows == row]] = 0.0
    step = cond.newton_operator(data, np.zeros(system.size), 0.0)
    assert step is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dc._lu_factor(step) is None
