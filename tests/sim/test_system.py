"""MNA assembly: indexing, stamps, residuals."""

import numpy as np
import pytest

from repro.circuits import (
    Capacitor,
    Mosfet,
    Netlist,
    Resistor,
    VoltageSource,
    ptm45,
)
from repro.sim import MnaSystem, solve_dc
from repro.sim.system import StructureMismatch


class TestIndexing:
    def test_node_and_branch_counts(self, divider_netlist):
        system = MnaSystem(divider_netlist)
        assert system.n_nodes == 2
        assert system.size == 3  # 2 nodes + 1 V-source branch
        assert system.node_index["0"] == -1

    def test_branch_index_per_voltage_source(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        assert set(system.branch_index) == {"VDD", "VIN"}

    def test_validation_runs_on_construction(self):
        net = Netlist("bad")
        net.add(Resistor("R1", "a", "b", 1e3))
        with pytest.raises(Exception):
            MnaSystem(net)


class TestStamps:
    def test_conductance_matrix_symmetric_for_rc(self, rc_netlist):
        system = MnaSystem(rc_netlist)
        n = system.n_nodes
        g_nodes = system.G[:n, :n]
        c_nodes = system.C[:n, :n]
        assert np.allclose(g_nodes, g_nodes.T)
        assert np.allclose(c_nodes, c_nodes.T)

    def test_capacitance_values(self, rc_netlist):
        system = MnaSystem(rc_netlist)
        out = system.node_index["out"]
        assert system.C[out, out] == pytest.approx(1e-9)

    def test_b_ac_set_by_source(self, rc_netlist):
        system = MnaSystem(rc_netlist)
        k = system.branch_index["V1"]
        assert system.b_ac[k] == 1.0

    def test_voltage_getter(self, divider_netlist):
        system = MnaSystem(divider_netlist)
        x = np.arange(system.size, dtype=float)
        get = system.voltage_getter(x)
        assert get("0") == 0.0
        assert get("in") == x[system.node_index["in"]]

    def test_stamp_outside_sparse_pattern_raises(self):
        """An element whose stamp positions depend on its value breaks
        the structure contract; the sparse leg's stamper must raise
        rather than drop the entry that has no place in the pattern."""

        class OpenableResistor(Resistor):
            def stamp(self, stamper):
                if np.isfinite(self.resistance):
                    super().stamp(stamper)

        net = Netlist("openable")
        net.add(VoltageSource("V1", "a", "0", dc=1.0))
        net.add(Resistor("R1", "a", "b", 1e3))
        net.add(OpenableResistor("R2", "b", "c", 2e3))
        net.add(Resistor("R3", "c", "0", 1e3))
        # Open R2 in place: element constructors reject non-finite values.
        net["R2"].resistance = np.inf
        system = MnaSystem(net, engine="sparse")
        net["R2"].resistance = 2e3
        with pytest.raises(StructureMismatch, match="'openable'"):
            system.rebind_values()


class TestResidual:
    def test_residual_zero_at_solution(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        op = solve_dc(system)
        residual = system.residual(op.x)
        assert np.max(np.abs(residual)) < 1e-8

    def test_residual_nonzero_off_solution(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        op = solve_dc(system)
        residual = system.residual(op.x + 0.1)
        assert np.max(np.abs(residual)) > 1e-6

    def test_newton_matrices_consistent_with_residual(self, cs_amp_netlist):
        """A x - rhs must equal the residual F(x) at the linearisation point."""
        system = MnaSystem(cs_amp_netlist)
        x = np.full(system.size, 0.3)
        A, rhs = system.newton_matrices(x)
        assert np.allclose(A @ x - rhs, system.residual(x), atol=1e-12)

    def test_gmin_adds_to_node_diagonals_only(self, cs_amp_netlist):
        system = MnaSystem(cs_amp_netlist)
        x = np.zeros(system.size)
        a0, _ = system.newton_matrices(x, gmin=0.0)
        a1, _ = system.newton_matrices(x, gmin=1e-3)
        if not isinstance(a0, np.ndarray):  # sparse engine: CSC matrices
            a0, a1 = a0.toarray(), a1.toarray()
        diff = a1 - a0
        n = system.n_nodes
        assert np.allclose(np.diag(diff)[:n], 1e-3)
        assert np.allclose(np.diag(diff)[n:], 0.0)


class TestSmallSignal:
    def test_mosfet_stamped_at_op(self, cs_amp_op):
        system, op = cs_amp_op
        G, C = system.small_signal_matrices(op)
        assert not np.array_equal(G, system.G)  # gm/gds stamps added
        assert not np.array_equal(C, system.C)  # device caps added
        st = op.mosfet_state("M1")
        d = system.node_index["d"]
        g = system.node_index["g"]
        assert G[d, g] == pytest.approx(st.gm)

    def test_noise_source_list(self, cs_amp_op):
        system, op = cs_amp_op
        sources = system.noise_source_list(op)
        # RD thermal + M1 channel
        assert len(sources) == 2
