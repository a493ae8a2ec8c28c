"""Property-based (hypothesis) tests of MNA invariants.

The example-based suites pin specific circuits; these pin the *algebraic
contracts* the engines rely on, under randomised structure and sizing:

* stamp symmetry and KCL conservation for reciprocal (R/C) networks —
  every conductance leaving a node shows up in its column sum, with the
  remainder exactly the conductance to ground;
* restamp-vs-fresh equality — the structure-cached fast path
  (``StampPlan``/``update_netlist``) must be bit-identical to building a
  fresh system at any grid point, or a sizing loop silently diverges
  from first-principles evaluation;
* dense-vs-sparse assembly equality at random sizings and bias points;
* batch-vs-scalar spec agreement at random sizing sets.

Example counts are kept small: each example is a full MNA build (or a
simulation), and the grids are wide enough that a handful of random
draws covers the interesting regimes.  ``deadline=None`` because a cold
first example JIT-warms numpy/scipy caches.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import Capacitor, Netlist, Resistor, VoltageSource
from repro.sim import MnaSystem, StampPlan, solve_dc
from repro.topologies import FiveTransistorOta, SchematicSimulator

SETTINGS = dict(deadline=None, max_examples=15,
                suppress_health_check=[HealthCheck.too_slow])


# -- reciprocal-network invariants ------------------------------------------
@st.composite
def rc_ladders(draw):
    """Random grounded RC ladder with optional rung-to-rung bridges."""
    n = draw(st.integers(min_value=2, max_value=8))
    res = draw(st.lists(st.floats(1e1, 1e6), min_size=n, max_size=n))
    caps = draw(st.lists(st.floats(1e-15, 1e-9), min_size=n, max_size=n))
    bridges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.floats(1e2, 1e5)),
        min_size=0, max_size=3))
    net = Netlist("ladder")
    prev = "0"
    for k in range(n):
        node = f"n{k}"
        net.add(Resistor(f"R{k}", prev, node, res[k]))
        net.add(Capacitor(f"C{k}", node, "0", caps[k]))
        prev = node
    for idx, (i, j, r) in enumerate(bridges):
        if i != j:
            net.add(Resistor(f"RB{idx}", f"n{i}", f"n{j}", r))
    return net


@given(rc_ladders())
@settings(**SETTINGS)
def test_rc_stamps_symmetric_and_conservative(net):
    system = MnaSystem(net)
    G, C = system.G, system.C
    np.testing.assert_allclose(G, G.T, rtol=0.0, atol=0.0)
    np.testing.assert_allclose(C, C.T, rtol=0.0, atol=0.0)
    # KCL conservation: the (ground-excluded) column sum of G equals the
    # total conductance from that node to ground — everything flowing
    # between non-ground nodes cancels row against row.
    for node, j in system.node_index.items():
        if j < 0:
            continue
        g_gnd = sum(1.0 / e.resistance for e in net
                    if isinstance(e, Resistor)
                    and sorted((e.p, e.n)) == sorted((node, "0")))
        assert G[:, j].sum() == pytest.approx(g_gnd, rel=1e-12, abs=1e-15)
    # Same conservation for the capacitance stamps.
    for node, j in system.node_index.items():
        if j < 0:
            continue
        c_gnd = sum(e.capacitance for e in net
                    if isinstance(e, Capacitor)
                    and sorted((e.p, e.n)) == sorted((node, "0")))
        assert C[:, j].sum() == pytest.approx(c_gnd, rel=1e-12, abs=1e-21)


# -- restamp-vs-fresh --------------------------------------------------------
_OTA = FiveTransistorOta()
_INDEX_VECTORS = st.tuples(*(st.integers(0, p.count - 1)
                             for p in _OTA.parameter_space))


@given(_INDEX_VECTORS)
@settings(**SETTINGS)
def test_restamp_matches_fresh_build(indices):
    values = _OTA.parameter_space.values(np.asarray(indices, dtype=np.int64))
    restamped = _OTA._plan.restamp(values)
    fresh = MnaSystem(_OTA.build(values), temperature=_OTA.temperature)
    np.testing.assert_array_equal(restamped.G, fresh.G)
    np.testing.assert_array_equal(restamped.C, fresh.C)
    np.testing.assert_array_equal(restamped.b_dc, fresh.b_dc)
    np.testing.assert_array_equal(restamped.b_ac, fresh.b_ac)


def _assert_stamped_data_bitwise(sparse, dense):
    """The sparse leg's stamped master-pattern data are the dense stamps
    at the pattern coordinates, exactly, and the dense stamps are zero
    everywhere else."""
    st = sparse.sparse_state
    on = np.zeros((dense.size, dense.size), dtype=bool)
    on[st.pat_rows, st.pat_cols] = True
    for data, full in ((sparse._sparse_G_data(), dense.G),
                       (sparse._sparse_C_data(), dense.C)):
        np.testing.assert_array_equal(data, full[st.pat_rows, st.pat_cols])
        assert not full[~on].any()
    np.testing.assert_array_equal(sparse.resistor_values,
                                  dense.resistor_values)


@given(_INDEX_VECTORS)
@settings(**SETTINGS)
def test_sparse_assembly_matches_dense(indices):
    """Dense and sparse Newton operators are the same matrix at any
    sizing and any (random but shared) bias point; the sparse leg stamps
    the dense leg's values bit for bit, also after a frozen resistor is
    demoted, and its densified ``G``/``C`` are read-only."""
    values = _OTA.parameter_space.values(np.asarray(indices, dtype=np.int64))
    systems = []
    for engine in ("dense", "sparse"):
        net = _OTA.build(values)
        net.add(Resistor("RL", "out", "0", 1e6))
        systems.append(MnaSystem(net, engine=engine))
    dense, sparse = systems
    rng = np.random.default_rng(int(np.sum(indices)) + 1)
    x = rng.uniform(-0.2, 1.2, size=dense.size)
    Ad, rd = dense.newton_matrices(x, gmin=1e-9)
    As, rs = sparse.newton_matrices(x, gmin=1e-9)
    np.testing.assert_allclose(As.toarray(), Ad, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(rs, rd, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(sparse.residual(x), dense.residual(x),
                               rtol=0.0, atol=1e-13)
    _assert_stamped_data_bitwise(sparse, dense)
    for system in systems:
        system.netlist["RL"].resistance *= 3.0
        system.rebind_values()
        assert system.resistor_values[-1] == 3e6
    _assert_stamped_data_bitwise(sparse, dense)
    for matrix in (sparse.G, sparse.C):
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0


# -- batch-vs-scalar ---------------------------------------------------------
_BATCH_SIM = SchematicSimulator(FiveTransistorOta(), cache=False)


@given(st.lists(_INDEX_VECTORS, min_size=1, max_size=3))
@settings(deadline=None, max_examples=10,
          suppress_health_check=[HealthCheck.too_slow])
def test_batch_agrees_with_scalar(index_rows):
    rows = np.asarray(index_rows, dtype=np.int64)
    batched = _BATCH_SIM.evaluate_batch(rows)
    for row, specs in zip(rows, batched):
        scalar = _BATCH_SIM.topology.simulate(
            _BATCH_SIM.parameter_space.values(row))
        for name, value in scalar.items():
            # Scalar solves warm-start from evaluation history, batch
            # solves from the canonical centre seed; both converge to
            # itol, but near grid-edge sizings bias devices into regions
            # where gm (hence gain/UGBW) has a large condition number
            # w.r.t. the solution — hypothesis found edge sizings where
            # the two operating points alone put UGBW 1.05e-3 apart
            # (reproducible pre-pipeline; the measurement layer itself
            # is now literally the same code on both paths).  2e-3
            # matches tests/topologies/test_batch_eval.py and still
            # catches any genuine engine or measurement-path divergence
            # by orders of magnitude.
            assert specs[name] == pytest.approx(value, rel=2e-3, abs=1e-12), (
                row, name)


def test_update_netlist_matches_build_ota_chain():
    """The chain's in-place resize mirrors build() (one deterministic
    spot check per run; the property version lives in the restamp test
    above for the cheaper topology)."""
    from repro.topologies import OtaChain
    chain = OtaChain(n_stages=2, segments=4)
    space = chain.parameter_space
    rng = np.random.default_rng(3)
    for _ in range(3):
        idx = np.array([rng.integers(0, p.count) for p in space])
        values = space.values(idx)
        restamped = chain._plan.restamp(values)
        fresh = MnaSystem(chain.build(values), temperature=chain.temperature)
        np.testing.assert_array_equal(restamped.G, fresh.G)
        np.testing.assert_array_equal(restamped.C, fresh.C)
        np.testing.assert_array_equal(restamped.b_dc, fresh.b_dc)
