"""Engine equivalence: dense vs sparse, condensed vs direct DC Newton.

The sparse backend (:mod:`repro.sim.sparse`) must be a pure
linear-algebra substitution: same stamps, same Newton trajectory, same
physics.  This suite pins that across every analysis and every topology,
at tolerances far below anything a measurement could amplify into spec
drift (DC solutions agree to <= 1e-9, assembled operators bit-for-bit).

The sparse leg's condensed DC Newton step (:mod:`repro.sim.condense`)
is held to a looser but still spec-proof bar — <= 1e-8 against the
declined step, which factors the full CSC Jacobian with ``splu``, on
every registered scenario.  A condensed step solves the boundary system
and refines to the rounding plateau, but its forward answer still
differs from SuperLU's at the level the conditioning allows.

The modal AC fast path is disabled for the strict comparisons — it is a
*verified approximation* (residual-checked to 1e-7) on the dense side
only, so comparing it against sparse direct solves would test the modal
tolerance, not the engines.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.sim.ac as ac_mod
from repro.circuits import Capacitor, Netlist, Resistor, VoltageSource, ptm45
from repro.circuits.mosfet import Mosfet
from repro.pex.corners import signoff_corners
from repro.pex.extraction import ExtractionRules, PexSimulator
from repro.sim import MnaSystem, OperatingPoint, ac_sweep, noise_analysis, solve_dc
from repro.sim.condense import Condensation
from repro.sim.transient import step_waveform, transient_analysis
from repro.topologies import (FiveTransistorOta, PowerGridOta,
                              SchematicSimulator, TransimpedanceAmplifier)
from repro.zoo import registry

#: Topology factories, enumerated from the scenario-zoo registry
#: (builtin + ``REPRO_ZOO_DIR``): every registered scenario gets the
#: full dense-vs-sparse parity treatment with no test-code edit.
TOPOLOGIES = {name: scenario.create
              for name, scenario in registry().items()}

FREQS = np.logspace(3, 10, 36)


def _center_netlist(name):
    topology = TOPOLOGIES[name]()
    values = topology.parameter_space.values(topology.parameter_space.center)
    return topology.build(values)


def _decline_condensed_steps(monkeypatch) -> None:
    """Make every condensation decline its Newton steps, which sends
    them to the full CSC Jacobian and ``splu``."""
    monkeypatch.setattr(Condensation, "newton_operator",
                        lambda self, data, x0, gmin: None)


def _engine_pair(name):
    net = _center_netlist(name)
    return (MnaSystem(net, engine="dense"),
            MnaSystem(_center_netlist(name), engine="sparse"))


def _cs_amp() -> Netlist:
    tech = ptm45()
    net = Netlist("cs_amp")
    net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
    net.add(VoltageSource("VIN", "g", "0", dc=0.7, ac=1.0))
    net.add(Resistor("RD", "vdd", "d", 10e3))
    net.add(Capacitor("CL", "d", "0", 1e-12))
    net.add(Mosfet("M1", "d", "g", "0", "0", polarity="nmos",
                   params=tech.nmos, w=5e-6, l=0.5e-6, m=2))
    return net


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
class TestScalarParity:
    def test_newton_assembly_identical(self, name):
        dense, sparse = _engine_pair(name)
        assert not dense.sparse and sparse.sparse
        x = np.full(dense.size, 0.3)
        Ad, rd = dense.newton_matrices(x, gmin=1e-6)
        As, rs = sparse.newton_matrices(x, gmin=1e-6)
        np.testing.assert_allclose(As.toarray(), Ad, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(rs, rd, rtol=0.0, atol=1e-13)

    def test_dc_operating_point(self, name):
        dense, sparse = _engine_pair(name)
        xd = solve_dc(dense).x
        xs = solve_dc(sparse).x
        np.testing.assert_allclose(xs, xd, rtol=1e-9, atol=1e-9)

    def test_small_signal_matrices_identical(self, name):
        dense, sparse = _engine_pair(name)
        opd, ops = solve_dc(dense), solve_dc(sparse)
        Gd, Cd = dense.small_signal_matrices(opd)
        Gs, Cs = sparse.small_signal_matrices(ops)
        scale = np.abs(Gd).max()
        np.testing.assert_allclose(Gs, Gd, rtol=0.0, atol=1e-9 * scale)
        np.testing.assert_allclose(Cs, Cd, rtol=0.0,
                                   atol=1e-9 * np.abs(Cd).max())

    def test_ac_sweep(self, name, monkeypatch):
        """Same operating point -> sweep solutions agree to solver
        rounding (the DC points themselves are compared separately; a
        high-gain amplifier would amplify their 1e-12-level difference
        above the strict sweep tolerance used here)."""
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        dense, sparse = _engine_pair(name)
        opd = solve_dc(dense)
        ops = OperatingPoint(sparse, opd.x.copy(), opd.iterations,
                             opd.residual_norm)
        hd = ac_sweep(dense, opd, FREQS).voltage("out")
        hs = ac_sweep(sparse, ops, FREQS).voltage("out")
        np.testing.assert_allclose(hs, hd, rtol=0.0,
                                   atol=1e-9 * np.abs(hd).max())


def _condensed_and_declined(system_of, monkeypatch):
    """``(system, op)`` of the sparse leg's DC solve, condensed and with
    every condensed step declined; ``system_of()`` builds a system."""
    condensed = system_of()
    op_c = solve_dc(condensed)
    with monkeypatch.context() as m:
        _decline_condensed_steps(m)
        declined = system_of()
        op_d = solve_dc(declined)
    return (condensed, op_c), (declined, op_d)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
class TestIterativeParity:
    """Condensed-vs-declined DC Newton parity on the sparse leg, on every
    registered scenario (the condensed step was once a leg of its own).

    1e-8 absolute (scaled by the solution/response magnitude) is the
    acceptance bar: far below what any measurement turns into spec
    drift, far above solver rounding, honest about the fact that a
    condensed solve at condition 1e10 is not a SuperLU solve.
    """

    def test_dc_operating_point(self, name, monkeypatch):
        (_, op_c), (_, op_d) = _condensed_and_declined(
            lambda: MnaSystem(_center_netlist(name), engine="sparse"),
            monkeypatch)
        scale = max(1.0, float(np.abs(op_d.x).max()))
        np.testing.assert_allclose(op_c.x, op_d.x, rtol=0.0,
                                   atol=1e-8 * scale)

    def test_ac_sweep(self, name, monkeypatch):
        """The sweep at the condensed operating point agrees with the
        sweep at the declined one to <= 1e-8 of the peak."""
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        (sys_c, op_c), (sys_d, op_d) = _condensed_and_declined(
            lambda: MnaSystem(_center_netlist(name), engine="sparse"),
            monkeypatch)
        hd = ac_sweep(sys_d, op_d, FREQS).voltage("out")
        hc = ac_sweep(sys_c, op_c, FREQS).voltage("out")
        np.testing.assert_allclose(hc, hd, rtol=0.0,
                                   atol=1e-8 * np.abs(hd).max())


class TestAnalysisParity:
    def test_noise_adjoint(self, monkeypatch):
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        dense = MnaSystem(_cs_amp(), engine="dense")
        sparse = MnaSystem(_cs_amp(), engine="sparse")
        nd = noise_analysis(dense, solve_dc(dense), FREQS, "d")
        ns = noise_analysis(sparse, solve_dc(sparse), FREQS, "d")
        np.testing.assert_allclose(ns.output_psd, nd.output_psd, rtol=1e-9)
        assert ns.integrated_output_rms() == pytest.approx(
            nd.integrated_output_rms(), rel=1e-9)

    def test_noise_adjoint_iterative(self, monkeypatch):
        """The sparse noise adjoint of a mesh at the condensed operating
        point matches the one at the declined step's."""
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        topology = PowerGridOta(grid_n=5, n_amps=2)
        space = topology.parameter_space
        netlist = topology.build(space.values(space.center))
        (sys_c, op_c), (sys_d, op_d) = _condensed_and_declined(
            lambda: MnaSystem(netlist, engine="sparse"), monkeypatch)
        assert sys_c.condensation is not None
        nd = noise_analysis(sys_d, op_d, FREQS, "out")
        nc = noise_analysis(sys_c, op_c, FREQS, "out")
        np.testing.assert_allclose(nc.output_psd, nd.output_psd, rtol=1e-8)

    def test_noise_adjoint_tia(self, monkeypatch):
        monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
        tia = TransimpedanceAmplifier()
        net = tia.build(tia.parameter_space.values(tia.parameter_space.center))
        dense = MnaSystem(net, engine="dense")
        sparse = MnaSystem(tia.build(
            tia.parameter_space.values(tia.parameter_space.center)),
            engine="sparse")
        nd = noise_analysis(dense, solve_dc(dense), FREQS, "out")
        ns = noise_analysis(sparse, solve_dc(sparse), FREQS, "out")
        np.testing.assert_allclose(ns.output_psd, nd.output_psd, rtol=1e-9)

    def test_transient_waveforms(self):
        wave = {"VIN": step_waveform(0.7, 0.75, 1e-10)}
        dense = MnaSystem(_cs_amp(), engine="dense")
        sparse = MnaSystem(_cs_amp(), engine="sparse")
        td = transient_analysis(dense, t_stop=1e-9, dt=1e-12, waveforms=wave)
        ts = transient_analysis(sparse, t_stop=1e-9, dt=1e-12, waveforms=wave)
        np.testing.assert_allclose(ts.solutions, td.solutions,
                                   rtol=0.0, atol=1e-9)

    def test_transient_pure_rc_cached_factorisation(self):
        """Linear netlists take the factor-once fast path; waveforms must
        still match the dense engine exactly."""
        def rc():
            net = Netlist("rc")
            net.add(VoltageSource("V1", "in", "0", dc=0.0, ac=1.0))
            net.add(Resistor("R1", "in", "mid", 1e3))
            net.add(Capacitor("C1", "mid", "0", 1e-9))
            net.add(Resistor("R2", "mid", "out", 1e3))
            net.add(Capacitor("C2", "out", "0", 1e-9))
            return net
        wave = {"V1": step_waveform(0.0, 1.0)}
        td = transient_analysis(MnaSystem(rc(), engine="dense"),
                                t_stop=1e-5, dt=1e-8, waveforms=wave)
        ts = transient_analysis(MnaSystem(rc(), engine="sparse"),
                                t_stop=1e-5, dt=1e-8, waveforms=wave)
        np.testing.assert_allclose(ts.solutions, td.solutions,
                                   rtol=0.0, atol=1e-9)


def _batch_rows(space, n=3):
    rng = np.random.default_rng(7)
    rows = [np.asarray(space.center, dtype=np.int64)]
    for _ in range(n - 1):
        rows.append(np.array([rng.integers(0, p.count) for p in space],
                             dtype=np.int64))
    return np.stack(rows)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_evaluate_batch_parity(name, monkeypatch):
    """``evaluate_batch`` specs agree <= 1e-9 between engines.

    The engine is selected through ``REPRO_ENGINE`` exactly as a user
    would, so this also covers the StampPlan/SystemStack threading."""
    monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)

    def run(engine):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        factory = TOPOLOGIES[name]
        sim = SchematicSimulator(factory(), cache=False)
        return sim.evaluate_batch(_batch_rows(sim.parameter_space)), sim

    dense_specs, sim = run("dense")
    sparse_specs, _ = run("sparse")
    with monkeypatch.context() as m:
        _decline_condensed_steps(m)
        declined_specs, _ = run("sparse")
    for d, s in zip(dense_specs, sparse_specs):
        for spec in d:
            assert s[spec] == pytest.approx(d[spec], rel=1e-9, abs=1e-15), (
                name, spec)
    for d, s in zip(declined_specs, sparse_specs):
        for spec in d:
            assert s[spec] == pytest.approx(d[spec], rel=1e-8, abs=1e-12), (
                name, spec)


@pytest.mark.parametrize("rules", [None, ExtractionRules(mesh_segments=3)],
                         ids=["lumped", "mesh"])
def test_pex_corner_stack_parity(rules, monkeypatch):
    """Full PEX corner stacks (lumped and per-segment mesh parasitics)
    produce identical worst-case specs on both engines."""
    monkeypatch.setattr(ac_mod, "_MODAL_ENABLED", False)
    corners = signoff_corners()[:2]

    def run(engine):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        sim = PexSimulator(FiveTransistorOta, corners=corners, rules=rules,
                           cache=False)
        return sim.evaluate_batch(_batch_rows(sim.parameter_space, n=2))

    for d, s in zip(run("dense"), run("sparse")):
        for spec in d:
            assert s[spec] == pytest.approx(d[spec], rel=1e-9, abs=1e-15), spec
